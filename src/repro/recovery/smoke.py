"""Crash-smoke campaign: ``python -m repro.recovery.smoke``.

The CI entry point for the kill-injection harness.  Runs one uninterrupted
reference pipeline, SIGKILLs fresh runs at three distinct journal offsets,
adds one torn-write scenario (a committed checkpoint truncated at a byte
offset before resume), and asserts every killed-then-resumed run is
bit-for-bit identical to the reference.  Exit status 0 only when every
scenario passes; journals and the verdict JSON land under ``--artifacts``
so CI can upload them on failure.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from repro.recovery.checkpoint import JOURNAL_DIRNAME
from repro.recovery.harness import (
    CrashHarness,
    run_kill_campaign,
    save_campaign_json,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.recovery.smoke")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kill-events", type=int, nargs="+", default=[2, 5, 8],
        help="journal offsets to SIGKILL at (default: mid-corpus, "
             "mid-nmf, mid-validate)",
    )
    parser.add_argument("--no-torn-write", action="store_true",
                        help="skip the torn-checkpoint scenario")
    parser.add_argument(
        "--artifacts", default="benchmarks/artifacts/crash-smoke",
        help="directory for journals + verdict JSON (uploaded by CI)",
    )
    parser.add_argument("--workdir",
                        help="scratch directory (default: a fresh tempdir)")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="crash-smoke-")
    )
    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    harness = CrashHarness(workdir, seed=args.seed)
    print(f"crash-smoke: seed={args.seed} kill-events={args.kill_events} "
          f"torn-write={not args.no_torn_write} workdir={workdir}")
    reports = run_kill_campaign(
        harness, args.kill_events, torn_write=not args.no_torn_write
    )

    failed = 0
    for report in reports:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"  {verdict} {report.label:22s} killed={report.killed} "
              f"skipped={report.skipped_stages} "
              f"recomputed={report.recomputed_stages} "
              f"quarantined={report.quarantined}")
        for mismatch in report.mismatches:
            print(f"       mismatch: {mismatch}")
            failed += 1
        if not report.killed:
            failed += 1

    save_campaign_json(artifacts / "crash_smoke.json", reports)
    for journal in sorted(workdir.rglob(f"{JOURNAL_DIRNAME}/*.jsonl")):
        run_dir = journal.parents[2].name
        shutil.copy2(journal, artifacts / f"{run_dir}-{journal.name}")
    print(f"verdicts + journals under {artifacts}")

    if failed:
        print(f"crash-smoke FAILED: {failed} problem(s)")
        return 1
    print(f"crash-smoke OK: {len(reports)} scenario(s), every resumed run "
          "bit-for-bit identical to the uninterrupted reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
