"""Fuzz-smoke campaign: ``python -m repro.fuzzing.smoke``.

The CI entry point for fuzzer crash-safety.  Runs one uninterrupted
reference campaign, then SIGKILLs fresh campaigns at several journal
offsets and resumes each in-process; every resumed campaign must
reach a final :class:`~repro.fuzzing.corpus.FuzzState` fingerprint
**bit-for-bit identical** to the reference.  Exit status 0 only when every
scenario passes; verdicts, coverage maps, and minimized reproducers land
under ``--artifacts`` for CI upload.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from repro.fuzzing.campaign import FuzzConfig, run_campaign
from repro.recovery.harness import kill_resume_verdicts, write_verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.fuzzing.smoke")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--budget", type=int, default=40)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--controllers", type=int, default=5)
    parser.add_argument("--switches", type=int, default=12)
    parser.add_argument(
        "--kill-events", type=int, nargs="+", default=[3, 6],
        help="journal offsets to SIGKILL at (mid-campaign batch commits)",
    )
    parser.add_argument(
        "--artifacts", default="benchmarks/artifacts/fuzz-smoke",
        help="directory for verdicts + coverage + reproducers (CI upload)",
    )
    parser.add_argument("--workdir",
                        help="scratch directory (default: a fresh tempdir)")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="fuzz-smoke-")
    )
    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    config = FuzzConfig(
        controllers=args.controllers,
        switches=args.switches,
        budget=args.budget,
        batch=args.batch,
        seed=args.seed,
        horizon=30.0,
    )
    print(f"fuzz-smoke: seed={args.seed} budget={args.budget} "
          f"kill-events={args.kill_events} workdir={workdir}")

    reference = run_campaign(config, workdir / "reference")
    ref_fingerprint = reference.state.fingerprint()
    print(f"  reference: {reference.summary()}")

    verdicts = [{
        "label": "reference",
        "fingerprint": ref_fingerprint,
        "summary": reference.summary(),
    }]
    verdicts += kill_resume_verdicts(
        "repro.fuzzing.campaign:kill_target", config.to_dict(), workdir, args.kill_events,
        lambda run_dir: run_campaign(config, run_dir, resume=True).state.fingerprint(),
        ref_fingerprint,
    )
    failed = sum(not (v["killed"] and v["bit_identical"]) for v in verdicts[1:])

    write_verdict(verdicts, artifacts / "fuzz_smoke.json")
    for name in ("coverage.json", "reproducers.json"):
        source = workdir / "reference" / name
        if source.exists():
            shutil.copy2(source, artifacts / name)
    print(f"verdicts + coverage + reproducers under {artifacts}")

    if failed:
        print(f"fuzz-smoke FAILED: {failed} scenario(s)")
        return 1
    print(f"fuzz-smoke OK: {len(args.kill_events)} killed campaign(s) resumed "
          "to a state bit-for-bit identical to the uninterrupted reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
