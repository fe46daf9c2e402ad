"""Ingest-smoke harness: ``python -m repro.stream.smoke``.

The CI entry point for ingestion crash-safety.  Runs one uninterrupted
reference ingestion under a seeded fault mix and asserts the robustness
contract on it:

- **zero unpriced drops** — ``consumed == applied + deduped +
  dead_lettered``, every abandoned block has a matching ``GIVE_UP``
  ledger record, and regenerating every wire block independently proves
  ``emitted == consumed + lost_upstream``;

then SIGKILLs fresh ingestions at several journal offsets and resumes
each in-process; every resumed run must reach a final
:class:`~repro.stream.state.StreamState` fingerprint **bit-for-bit
identical** to the reference.  Exit status 0 only when every scenario
passes; verdicts, the DLQ (with ``.reason`` sidecars), and the metrics
export land under ``--artifacts`` for CI upload.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from repro.recovery.harness import kill_resume_verdicts, write_verdict
from repro.resilience.ledger import ResilienceEvent
from repro.stream.flaky import FlakySource
from repro.stream.ingest import IngestConfig, run_ingest
from repro.stream.source import synthetic_event


def _emitted(config: IngestConfig) -> int:
    """Total wire records the flaky source emits — regenerated block by
    block, independently of any run (the purity that makes audits cheap)."""
    source = FlakySource(
        lambda i: synthetic_event(config.seed, i, pool=config.pool),
        config.events,
        mix=config.mix(),
        seed=config.seed,
        block_size=config.block,
    )
    return sum(len(source.wire_block(b)) for b in range(source.n_blocks))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.stream.smoke")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--events", type=int, default=1200)
    parser.add_argument("--batch", type=int, default=192)
    parser.add_argument("--block", type=int, default=32)
    parser.add_argument("--pool", type=int, default=150)
    parser.add_argument(
        "--kill-events", type=int, nargs="+", default=[3, 7, 12],
        help="journal offsets to SIGKILL at (mid-run batch commits)",
    )
    parser.add_argument(
        "--artifacts", default="benchmarks/artifacts/ingest-smoke",
        help="directory for verdicts + DLQ + metrics (CI upload)",
    )
    parser.add_argument("--workdir",
                        help="scratch directory (default: a fresh tempdir)")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="ingest-smoke-")
    )
    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    # A deliberately hostile mix: outages deeper than the retry budget
    # (forcing real, priced give-ups), throttling, corruption, duplication,
    # reordering — the full catalog at once.
    config = IngestConfig(
        seed=args.seed,
        events=args.events,
        batch=args.batch,
        block=args.block,
        pool=args.pool,
        outage_rate=0.3,
        outage_depth=5,
        rate_limit_rate=0.2,
        corrupt_rate=0.06,
        duplicate_rate=0.12,
        reorder_rate=0.3,
        retry_attempts=3,
    )
    print(f"ingest-smoke: seed={args.seed} events={args.events} "
          f"kill-events={args.kill_events} workdir={workdir}")

    reference = run_ingest(config, workdir / "reference")
    state = reference.state
    ref_fingerprint = state.fingerprint()
    print(f"  reference: {reference.summary()}")

    balanced = state.consumed == (
        state.applied + state.deduped + state.dead_lettered
    )
    give_ups = reference.ledger.count(ResilienceEvent.GIVE_UP)
    priced = give_ups == state.blocks_abandoned
    emitted = _emitted(config)
    conserved = emitted == state.consumed + state.lost_upstream
    accounting_ok = balanced and priced and conserved
    print(f"  accounting: consumed==applied+deduped+dead_lettered: {balanced}; "
          f"give-ups priced {give_ups}/{state.blocks_abandoned}: {priced}; "
          f"emitted {emitted} == consumed+lost "
          f"{state.consumed + state.lost_upstream}: {conserved}")

    failed = 0 if accounting_ok else 1
    verdicts = [{
        "label": "reference",
        "fingerprint": ref_fingerprint,
        "summary": reference.summary(),
        "accounting_balanced": balanced,
        "give_ups_priced": priced,
        "emitted_conserved": conserved,
    }]
    verdicts += kill_resume_verdicts(
        "repro.stream.ingest:kill_target", config.to_dict(), workdir, args.kill_events,
        lambda run_dir: run_ingest(config, run_dir, resume=True).state.fingerprint(),
        ref_fingerprint,
    )
    failed += sum(not (v["killed"] and v["bit_identical"]) for v in verdicts[1:])

    write_verdict(verdicts, artifacts / "ingest_smoke.json")
    for name in ("metrics.jsonl", "summary.json", "ledger.json"):
        source = workdir / "reference" / name
        if source.exists():
            shutil.copy2(source, artifacts / name)
    dlq_dir = workdir / "reference" / "dlq"
    if dlq_dir.is_dir():
        shutil.copytree(dlq_dir, artifacts / "dlq", dirs_exist_ok=True)
    print(f"verdicts + DLQ + metrics under {artifacts}")

    if failed:
        print(f"ingest-smoke FAILED: {failed} scenario(s)")
        return 1
    print(f"ingest-smoke OK: accounting conserved under faults; "
          f"{len(args.kill_events)} killed run(s) resumed to a state "
          "bit-for-bit identical to the uninterrupted reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
