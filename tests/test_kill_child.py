"""The one kill-injection child: ``python -m repro.recovery._child``.

Every journaled plane is SIGKILLed through the same child, which calls the
plane's ``MOD:FN`` target.  These tests drive the fuzz plane through it
(the pipeline and ingest planes have their own resume suites), pin the
child's usage errors, and check that the smoke campaign loop reports a child
that died of anything but SIGKILL instead of resuming it.
"""

from __future__ import annotations

import signal

import pytest

from repro.fuzzing import FuzzConfig, run_campaign
from repro.recovery import replay_journal
from repro.recovery._child import main as child_main
from repro.recovery.harness import kill_resume_verdicts, spawn_killed
from repro.stream import IngestConfig, run_ingest

#: Three batches of four executions: the fresh journal is RUN_START then a
#: BEGIN/COMMIT pair per batch, so a kill at 4 lands mid-batch-1.
FUZZ = FuzzConfig(controllers=3, switches=6, budget=12, batch=4,
                  horizon=20.0, seed=5)
KILL_AFTER = 4


def test_killed_fuzz_campaign_resumes_bit_identical(tmp_path):
    reference = run_campaign(FUZZ, tmp_path / "reference").state.fingerprint()
    run_dir = tmp_path / "killed"
    killed = spawn_killed(
        "repro.fuzzing.campaign:kill_target", FUZZ.to_dict(), run_dir, KILL_AFTER
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr[-500:]
    replay = replay_journal(run_dir / "journal.jsonl")
    assert len(replay.events) == KILL_AFTER
    committed = len(replay.committed())
    assert 0 < committed < FUZZ.n_batches

    resumed = run_campaign(FUZZ, run_dir, resume=True)
    assert resumed.state.fingerprint() == reference
    assert resumed.batches_executed == FUZZ.n_batches - committed


@pytest.mark.parametrize("target", [
    "repro.fuzzing.campaign",
    "repro.fuzzing.no_such_module:kill_target",
    "repro.fuzzing.campaign:no_such_target",
])
def test_malformed_target_is_a_usage_error(tmp_path, capsys, target):
    with pytest.raises(SystemExit) as exit_info:
        child_main(["--target", target, "--run-dir", str(tmp_path),
                    "--config", "{}"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro.recovery._child")
    assert repr(target) in err


def test_child_failure_is_reported_not_resumed(tmp_path):
    config = IngestConfig(events=64, batch=16, block=16, pool=20)
    verdicts = kill_resume_verdicts(
        "repro.stream.ingest:kill_target",
        {**config.to_dict(), "no_such_field": 1},
        tmp_path,
        [3],
        lambda run_dir: run_ingest(config, run_dir, resume=True).state.fingerprint(),
        "reference-fingerprint",
    )
    [verdict] = verdicts
    assert verdict["killed"] is False
    assert verdict["bit_identical"] is False
    assert verdict["fingerprint"] is None
    assert verdict["returncode"] == 1
    assert "TypeError" in verdict["stderr"]
    assert "no_such_field" in verdict["stderr"]
