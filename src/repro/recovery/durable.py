"""The durable runtime: one atomic write, one snapshot codec, one batch fold.

Every plane that must survive SIGKILL — fuzz campaigns, streaming ingest
and its DLQ replay, the artifact cache, lint baselines, trajectories,
dataset exports — shares one crash model, and this module is its only
implementation:

* :func:`atomic_write` — the single durable publish.  Bytes land in a
  ``<name>.tmp`` sibling, are flushed and fsync'd, and ``os.replace``
  swaps them in; the tmp file never outlives the call, even when the
  write, the fsync or the rename fails.  Readers see the old file or the
  new one, never a prefix.
* :func:`save_snapshot` / :func:`load_snapshot` — a state snapshot *is*
  the state's compact canonical JSON, so the digest journaled with it
  equals ``state.fingerprint()``.  Loads verify the sha256 of the file
  bytes, which keeps snapshots written in any older encoding resumable.
* :func:`open_fold` / :func:`commit_batch` / :func:`run_batches` — the
  journaled fold ``state' = step(state, k)``: each batch is ``begin`` →
  step → snapshot → ``commit(key, digest, meta)`` → prune the other
  ``state-*.json``, and a resume continues from the latest committed
  snapshot by journal ``seq``.  The snapshot ``save``/``load`` functions
  are passed per call, so a caller hands in whatever its module global
  names at that moment.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.recovery.checkpoint import open_run_journal
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_RUN_END,
    JournalEvent,
    RunJournal,
)

#: Journal file name inside a fold's run directory.
JOURNAL_NAME = "journal.jsonl"


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Durably publish ``data`` (text is UTF-8 encoded) as ``path``."""
    path = Path(path)
    payload = data.encode("utf-8") if isinstance(data, str) else data
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_json(path: str | Path, payload: Any) -> None:
    """:func:`atomic_write` of ``payload`` as sorted, ``indent=1`` JSON."""
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=1))


# -- snapshot codec -------------------------------------------------------------

def save_snapshot(state: Any, path: str | Path) -> str:
    """Atomically write ``state.canonical_json()``; returns its sha256.

    The returned digest equals ``state.fingerprint()``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = state.canonical_json().encode("utf-8")
    atomic_write(path, payload)
    return hashlib.sha256(payload).hexdigest()


def load_snapshot(
    path: str | Path,
    decode: Callable[[Any], Any],
    error: type[Exception],
    kind: str,
    *,
    expect_digest: str | None = None,
) -> Any:
    """Load a snapshot, verifying the digest the journal promised.

    ``decode`` turns the parsed JSON into the plane's state; ``error`` is
    the plane's exception type and ``kind`` names the state in messages.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"{path}: {kind} state snapshot does not exist")
    payload = path.read_bytes()
    if expect_digest is not None:
        actual = hashlib.sha256(payload).hexdigest()
        if actual != expect_digest:
            raise error(
                f"{path}: snapshot digest mismatch (journal promised "
                f"{expect_digest[:12]}..., found {actual[:12]}...)"
            )
    try:
        data = json.loads(payload)
    except ValueError as exc:
        raise error(f"{path}: snapshot is not valid JSON: {exc}") from exc
    return decode(data)


# -- the journaled batch fold ---------------------------------------------------

def latest_snapshot(
    committed: Mapping[str, JournalEvent],
) -> JournalEvent | None:
    """The committed snapshot with the highest journal ``seq``, if any."""
    snapshots = [event for event in committed.values() if event.key]
    return max(snapshots, key=lambda event: event.seq, default=None)


@contextlib.contextmanager
def open_fold(
    run_dir: str | Path,
    run_id: str,
    *,
    resume: bool,
    config_digest: str,
    load: Callable[..., Any],
    init: Callable[[], Any],
    on_event: Callable[[JournalEvent], None] | None = None,
) -> Iterator[tuple[RunJournal, Any]]:
    """Open a fold's journal and its starting state; close the journal on exit.

    A fresh run refuses an existing journal and starts from ``init()``; a
    resume refuses a different ``config_digest`` and ``load``s the latest
    committed snapshot, digest-verified.
    """
    run_dir = Path(run_dir)
    journal, committed = open_run_journal(
        run_dir / JOURNAL_NAME,
        run_id,
        resume=resume,
        config_digest=config_digest,
        on_event=on_event,
    )
    with journal:
        latest = latest_snapshot(committed)
        if latest is None:
            state = init()
        else:
            state = load(run_dir / latest.key, expect_digest=latest.digest)
        yield journal, state


def commit_batch(
    journal: RunJournal,
    run_dir: Path,
    stage: str,
    key: str,
    state: Any,
    step: Callable[[], Mapping[str, Any] | None],
    save: Callable[[Any, Path], str],
) -> str:
    """One transaction: ``begin`` → ``step()`` → snapshot → ``commit``.

    ``step`` mutates ``state`` and may return the commit's ``meta``.  Once
    the commit is durable every other ``state-*.json`` is pruned.  Returns
    the snapshot digest.
    """
    journal.append(EVENT_BEGIN, stage=stage)
    meta = step()
    digest = save(state, run_dir / key)
    journal.append(EVENT_COMMIT, stage=stage, key=key, digest=digest, meta=meta)
    for path in sorted(run_dir.glob("state-*.json")):
        if path.name != key:
            path.unlink()
    return digest


def run_batches(
    journal: RunJournal,
    run_dir: Path,
    state: Any,
    n_batches: int,
    step: Callable[[int], None],
    save: Callable[[Any, Path], str],
    progress: Callable[[int], None],
) -> int:
    """Commit batches ``state.batch_index + 1 .. n_batches - 1`` as
    ``batch-%04d`` / ``state-%04d.json``, then journal ``run-end``.

    ``progress(k)`` runs after each commit.  Returns the number of batches
    executed.
    """
    start = state.batch_index + 1
    for k in range(start, n_batches):
        commit_batch(
            journal, run_dir, f"batch-{k:04d}", f"state-{k:04d}.json", state,
            lambda: step(k), save,
        )
        progress(k)
    journal.append(EVENT_RUN_END)
    return max(0, n_batches - start)
