"""Crash-safe pipeline runtime: journal, verified resume, kill injection.

The paper's framework survey (Ravana, LegoSDN, SCL) is about controllers
surviving crashes without losing or corrupting state.  This package applies
the same discipline — checkpoint, verify, resume — to the repository's own
long-running work:

* :class:`RunJournal` — append-only, fsync'd JSONL write-ahead log of stage
  ``begin``/``commit`` events (cache key + artifact sha256 per commit);
* :class:`CheckpointManager` — journaled stages over the
  :class:`~repro.parallel.ArtifactCache`'s atomic, digest-verified
  checkpoints, with corrupt entries quarantined instead of trusted;
  ``checkpoint.open_stage_journal`` opens one for a cache-rooted run;
* :class:`CrashHarness` — deterministic kill injection: run the pipeline in
  a subprocess, SIGKILL it at the k-th journal event (or tear a checkpoint
  file at a byte offset), resume, and prove the result bit-for-bit equal to
  an uninterrupted run.  Every plane's kills go through the one child,
  ``python -m repro.recovery._child --target MOD:FN``, spawned by
  ``harness.spawn_killed``.
"""

from repro.recovery.checkpoint import CheckpointManager, RecoveryError, StageOutcome
from repro.recovery.harness import (
    CampaignReport,
    CrashHarness,
    KilledRun,
    cache_tree_digests,
    pipeline_fingerprint,
    run_kill_campaign,
    save_campaign_json,
    tear_file,
)
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_RUN_END,
    EVENT_RUN_RESUME,
    EVENT_RUN_START,
    EVENT_SKIP,
    JournalError,
    JournalEvent,
    JournalReplay,
    RunJournal,
    replay_journal,
)

__all__ = [
    "CampaignReport",
    "CheckpointManager",
    "CrashHarness",
    "EVENT_BEGIN",
    "EVENT_COMMIT",
    "EVENT_RUN_END",
    "EVENT_RUN_RESUME",
    "EVENT_RUN_START",
    "EVENT_SKIP",
    "JournalError",
    "JournalEvent",
    "JournalReplay",
    "KilledRun",
    "RecoveryError",
    "RunJournal",
    "StageOutcome",
    "cache_tree_digests",
    "pipeline_fingerprint",
    "replay_journal",
    "run_kill_campaign",
    "save_campaign_json",
    "tear_file",
]
