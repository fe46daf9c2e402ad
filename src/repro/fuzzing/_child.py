"""Subprocess entry point for fuzz-campaign kill injection.

Runs one journaled campaign and — when ``--kill-after k`` is positive —
SIGKILLs its own process the instant the k-th journal event is durable
(``RunJournal.on_event`` fires only after fsync), exactly the crash model
of :mod:`repro.recovery._child`.  What survives is what the journal and
the atomic state snapshots promise, nothing more.

Not part of the public API; invoked as ``python -m repro.fuzzing._child``
by the smoke campaign and the resume tests.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.fuzzing._child")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--kill-after", type=int, default=0,
                        help="SIGKILL self after this many journal events "
                             "(0 = run to completion)")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--config", required=True,
                        help="FuzzConfig as a JSON object")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", help="write the final state fingerprint here")
    args = parser.parse_args(argv)

    from repro.fuzzing.campaign import FuzzConfig, run_campaign
    from repro.recovery.harness import kill_at, write_verdict

    config = FuzzConfig(**json.loads(args.config))
    report = run_campaign(
        config,
        args.run_dir,
        resume=args.resume,
        jobs=args.jobs,
        on_event=kill_at(args.kill_after),
    )
    verdict = {
        "fingerprint": report.state.fingerprint(),
        "executed": report.state.executed,
        "coverage": len(report.state.coverage),
        "signatures": len(report.state.signatures),
        "reproducers": len(report.state.reproducers),
    }
    write_verdict(verdict, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
