"""Subprocess entry point for the crash harness.

Runs one journaled pipeline and — when ``--kill-after k`` is positive —
SIGKILLs its own process the instant the k-th journal event is durable on
disk.  SIGKILL cannot be caught, blocked, or cleaned up after, so the
surviving state is exactly what the journal + atomic checkpoints promise
and nothing more: the honest crash model.

Not part of the public API; invoked as ``python -m repro.recovery._child``
by :class:`repro.recovery.CrashHarness`.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.recovery._child")
    parser.add_argument("--cache-root", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--kill-after", type=int, default=0,
                        help="SIGKILL self after this many journal events "
                             "(0 = run to completion)")
    parser.add_argument("--resume", action="store_true",
                        help="resume the run id instead of starting fresh")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--topics", type=int, default=2)
    parser.add_argument("--restarts", type=int, default=2)
    parser.add_argument("--dimensions", nargs="+", default=["bug_type"])
    parser.add_argument("--out", help="write the run fingerprint JSON here")
    args = parser.parse_args(argv)

    from repro.parallel import ArtifactCache
    from repro.pipeline.scaling import run_pipeline
    from repro.recovery.harness import kill_at, pipeline_fingerprint, write_verdict

    cache = ArtifactCache(args.cache_root)
    result = run_pipeline(
        seed=args.seed,
        jobs=args.jobs,
        cache=cache,
        dimensions=tuple(args.dimensions),
        n_topics=args.topics,
        nmf_restarts=args.restarts,
        run_id=None if args.resume else args.run_id,
        resume=args.run_id if args.resume else None,
        on_journal_event=kill_at(args.kill_after),
    )
    fingerprint = pipeline_fingerprint(result)
    fingerprint["skipped_stages"] = result.skipped_stages
    fingerprint["quarantined"] = cache.stats()["quarantined"]
    write_verdict(fingerprint, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
