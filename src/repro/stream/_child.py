"""Subprocess entry point for ingest kill injection.

Runs one journaled ingestion and — when ``--kill-after k`` is positive —
SIGKILLs its own process the instant the k-th journal event is durable
(``RunJournal.on_event`` fires only after fsync), exactly the crash model
of :mod:`repro.recovery._child`.  What survives is what the journal, the
atomic state snapshots, and the digest-keyed DLQ promise, nothing more.

Not part of the public API; invoked as ``python -m repro.stream._child``
by the smoke harness and the resume tests.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.stream._child")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--kill-after", type=int, default=0,
                        help="SIGKILL self after this many journal events "
                             "(0 = run to completion)")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--config", required=True,
                        help="IngestConfig as a JSON object")
    parser.add_argument("--out", help="write the final state fingerprint here")
    args = parser.parse_args(argv)

    from repro.recovery.harness import kill_at, write_verdict
    from repro.stream.ingest import IngestConfig, run_ingest

    config = IngestConfig(**json.loads(args.config))
    report = run_ingest(
        config,
        args.run_dir,
        resume=args.resume,
        on_event=kill_at(args.kill_after),
    )
    state = report.state
    verdict = {
        "fingerprint": state.fingerprint(),
        "analytics_digest": state.analytics_digest(),
        "consumed": state.consumed,
        "applied": state.applied,
        "deduped": state.deduped,
        "dead_lettered": state.dead_lettered,
        "lost_upstream": state.lost_upstream,
        "blocks_abandoned": state.blocks_abandoned,
        "give_ups_priced": sum(
            1 for r in report.ledger.records if r.event.value == "give_up"
        ),
    }
    write_verdict(verdict, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
