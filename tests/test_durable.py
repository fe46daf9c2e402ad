"""The durable runtime: failed publishes leave no trace, old snapshots resume."""

from __future__ import annotations

import errno
import hashlib
import json
import os

import pytest

from repro.corpus.dataset import BugDataset
from repro.corpus.io import save_dataset_jsonl
from repro.fuzzing import corpus
from repro.fuzzing.campaign import FuzzConfig, run_campaign
from repro.observability.trajectory import TrajectoryStore
from repro.parallel.cache import ArtifactCache
from repro.recovery.journal import EVENT_BEGIN, EVENT_COMMIT, EVENT_RUN_START, RunJournal
from repro.staticanalysis.baseline import write_baseline
from repro.staticanalysis.model import AnalysisReport
from repro.stream import state
from repro.stream.dlq import DeadLetterQueue
from repro.stream.ingest import IngestConfig, run_ingest


def _dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("old dataset\n", encoding="utf-8")
    return path, lambda: save_dataset_jsonl(BugDataset([]), path)


def _baseline(tmp_path):
    path = tmp_path / "lint-baseline.json"
    path.write_text("old baseline\n", encoding="utf-8")
    return path, lambda: write_baseline(AnalysisReport(root="."), path)


def _trajectory(tmp_path):
    store = TrajectoryStore(tmp_path / "BENCH_trajectory.json")
    store.record({"bench": "a", "value": 1})
    return store.path, lambda: store.record({"bench": "b", "value": 2})


def _cache(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    path = cache.put("ns", {"k": 1}, "old value")
    return path, lambda: cache.put("ns", {"k": 1}, "new value")


def _dlq(tmp_path):
    dlq = DeadLetterQueue(tmp_path / "dlq")
    digest = dlq.put("raw record", "old reason")
    return tmp_path / "dlq" / f"{digest}.raw", lambda: dlq.put("raw record", "new")


def _fuzz_snapshot(tmp_path):
    path = tmp_path / "state-0000.json"
    corpus.save_state(corpus.FuzzState(config={}), path)
    return path, lambda: corpus.save_state(corpus.FuzzState(config={}, executed=4), path)


def _stream_snapshot(tmp_path):
    path = tmp_path / "state-0000.json"
    state.save_state(state.StreamState(config={}), path)
    return path, lambda: state.save_state(state.StreamState(config={}, consumed=4), path)


@pytest.mark.parametrize("caller", [
    _dataset, _baseline, _trajectory, _cache, _dlq, _fuzz_snapshot, _stream_snapshot,
])
def test_failed_fsync_keeps_destination_and_leaves_no_tmp(tmp_path, monkeypatch, caller):
    destination, publish = caller(tmp_path)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert destination in before

    def failing_fsync(fd):
        raise OSError(errno.EIO, "injected fsync failure")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError) as raised:
        publish()
    assert raised.value.errno == errno.EIO
    after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert after == before
    assert not list(tmp_path.rglob("*.tmp"))


class _Crash(Exception):
    """Raised from the journal hook to stop a run after its first commit."""


def _crash_after_first_commit(event):
    if event.event == EVENT_COMMIT:
        raise _Crash(event.stage)


def _downgrade_to_indented_snapshot(run_dir, run_id, config_digest):
    """Rewrite a one-batch run dir as the indent=1 encoding wrote it.

    The snapshot is re-encoded with ``indent=1`` and a fresh journal
    commits the sha256 of those bytes, so the digest no longer equals the
    state fingerprint.
    """
    snapshot = run_dir / "state-0000.json"
    data = json.loads(snapshot.read_text(encoding="utf-8"))
    payload = json.dumps(data, sort_keys=True, indent=1)
    snapshot.write_text(payload, encoding="utf-8")
    (run_dir / "journal.jsonl").unlink()
    with RunJournal(run_dir / "journal.jsonl", run_id) as journal:
        journal.append(EVENT_RUN_START, meta={"config": config_digest})
        journal.append(EVENT_BEGIN, stage="batch-0000")
        journal.append(
            EVENT_COMMIT,
            stage="batch-0000",
            key=snapshot.name,
            digest=hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        )


def test_ingest_resumes_from_indented_snapshot(tmp_path):
    config = IngestConfig(
        seed=4, events=192, batch=64, block=16, pool=40,
        corrupt_rate=0.05, duplicate_rate=0.1, reorder_rate=0.2,
    )
    fresh = run_ingest(config, tmp_path / "fresh")
    run_dir = tmp_path / "old"
    with pytest.raises(_Crash):
        run_ingest(config, run_dir, on_event=_crash_after_first_commit)
    _downgrade_to_indented_snapshot(run_dir, f"ingest-{config.seed}", config.digest())

    resumed = run_ingest(config, run_dir, resume=True)
    assert resumed.batches_executed == config.n_batches - 1
    assert resumed.state.fingerprint() == fresh.state.fingerprint()


def test_fuzz_resumes_from_indented_snapshot(tmp_path):
    config = FuzzConfig(
        controllers=3, switches=4, budget=12, batch=4, seed=3,
        horizon=20.0, events=3,
    )
    fresh = run_campaign(config, tmp_path / "fresh")
    run_dir = tmp_path / "old"
    with pytest.raises(_Crash):
        run_campaign(config, run_dir, on_event=_crash_after_first_commit)
    _downgrade_to_indented_snapshot(run_dir, f"fuzz-{config.seed}", config.digest())

    resumed = run_campaign(config, run_dir, resume=True)
    assert resumed.batches_executed == config.n_batches - 1
    assert resumed.state.fingerprint() == fresh.state.fingerprint()
