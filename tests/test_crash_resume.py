"""Kill-injection acceptance: killed-then-resumed == uninterrupted, bit for bit.

The pipeline runs journaled in a subprocess that SIGKILLs itself the moment
the k-th journal event is durable (``repro.recovery._child`` with target
``repro.pipeline.scaling:kill_target``).  Resume must then reproduce the
uninterrupted reference exactly — same accuracies, classifier-weight
digests, topics, and the same sha256 for every checkpoint payload — while
re-executing *only* the stages whose commits never landed, which we assert
from the journal's own event counts.
"""

from __future__ import annotations

import pytest

from repro.recovery import (
    EVENT_BEGIN,
    EVENT_SKIP,
    CrashHarness,
    JournalError,
    replay_journal,
    tear_file,
)

SEEDS = [0, 1, 2]
#: Journal offsets covering distinct crash positions: mid-corpus (before
#: any commit), after the tfidf commit, and mid-validate.
KILL_POINTS = [2, 5, 8]


@pytest.fixture(scope="module")
def harnesses(tmp_path_factory):
    """One harness + uninterrupted reference per seed (shared, expensive)."""
    out = {}
    for seed in SEEDS:
        harness = CrashHarness(
            tmp_path_factory.mktemp(f"crash-seed{seed}"), seed=seed
        )
        out[seed] = (harness, harness.reference())
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kill_after", KILL_POINTS)
def test_killed_then_resumed_is_bit_identical(harnesses, seed, kill_after):
    harness, reference = harnesses[seed]
    killed = harness.run_killed(kill_after)
    assert killed.killed, killed.stderr[-500:]

    # The kill point is deterministic: exactly k durable events, no torn tail.
    replay = killed.replay()
    assert len(replay.events) == kill_after
    assert replay.dropped == 0
    committed_before = len(replay.committed())
    assert committed_before < harness.stage_count()

    result, cache = harness.resume(killed)
    assert harness.diff(reference, (result, cache)) == []
    assert result.resumed

    # Only uncommitted stages re-executed — read it off the journal itself.
    assert len(result.skipped_stages) == committed_before
    resume_segment = replay_journal(killed.journal_path).segments()[-1]
    skips = sum(1 for e in resume_segment if e.event == EVENT_SKIP)
    begins = sum(1 for e in resume_segment if e.event == EVENT_BEGIN)
    assert skips == committed_before
    assert begins == harness.stage_count() - committed_before


def test_torn_checkpoint_is_quarantined_and_recomputed(harnesses):
    harness, reference = harnesses[0]
    killed = harness.run_killed(8, run_id="torn-checkpoint")
    assert killed.killed
    payloads = sorted(
        killed.cache_root.rglob("*.pkl"), key=lambda p: p.stat().st_size
    )
    victim = payloads[-1]
    tear_file(victim, victim.stat().st_size // 2)

    result, cache = harness.resume(killed)
    assert harness.diff(reference, (result, cache)) == []
    # Corruption is priced, never silent.
    assert cache.stats()["quarantined"] >= 1
    assert list(cache.quarantine_root.rglob("*.reason"))


def test_torn_journal_tail_is_dropped_and_resumed(harnesses):
    harness, reference = harnesses[1]
    killed = harness.run_killed(5, run_id="torn-journal")
    assert killed.killed
    tear_file(killed.journal_path, -9)  # shear the final record mid-line

    assert replay_journal(killed.journal_path).dropped == 1
    result, cache = harness.resume(killed)
    assert harness.diff(reference, (result, cache)) == []


def test_midfile_journal_corruption_refuses_resume(harnesses):
    harness, _ = harnesses[2]
    killed = harness.run_killed(5, run_id="corrupt-journal")
    assert killed.killed
    lines = killed.journal_path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:15] + "\n"
    killed.journal_path.write_text("".join(lines))

    with pytest.raises(JournalError, match="corrupt journal record"):
        harness.resume(killed)
