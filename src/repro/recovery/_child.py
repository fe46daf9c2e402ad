"""The one kill-injection child for every journaled plane.

``python -m repro.recovery._child --target MOD:FN --run-dir D --config JSON
--kill-after K`` imports ``FN`` from ``MOD`` and calls
``FN(config, run_dir, on_event=kill_at(K))``.  ``on_event``
fires only after a journal event is fsync'd, so with ``K`` positive the
process SIGKILLs itself the instant the K-th event is durable.  SIGKILL
cannot be caught, blocked, or cleaned up after, so what survives is
exactly what the journal and the atomic checkpoints promise: the honest
crash model.  Resumes always run in-process in the parent.

Each plane supplies its target: ``repro.pipeline.scaling:kill_target``,
``repro.fuzzing.campaign:kill_target`` and
``repro.stream.ingest:kill_target``.  Not part of the public API; spawned
by :func:`repro.recovery.harness.spawn_killed`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from typing import Callable

from repro.recovery.journal import JournalEvent


def kill_at(k: int) -> Callable[[JournalEvent], None]:
    """An ``on_event`` hook that SIGKILLs this process at the k-th event.

    The hook runs only after the event is fsync'd, so exactly ``k`` events
    survive the kill.  ``k <= 0`` never kills.
    """
    seen = 0

    def hook(event: JournalEvent) -> None:
        nonlocal seen
        seen += 1
        if k > 0 and seen >= k:
            # The k-th event is already durable; die with no goodbye.
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.recovery._child")
    parser.add_argument("--target", required=True,
                        help="MOD:FN called as FN(config, run_dir, on_event=)")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--config", required=True, type=json.loads,
                        help="the target's configuration as a JSON object")
    parser.add_argument("--kill-after", type=int, default=0,
                        help="SIGKILL self after this many journal events "
                             "(0 = run to completion)")
    args = parser.parse_args(argv)

    module_name, _, fn_name = args.target.partition(":")
    try:
        target = getattr(importlib.import_module(module_name), fn_name)
    except (ImportError, AttributeError, ValueError) as exc:
        parser.error(f"--target {args.target!r} is not MOD:FN ({exc})")

    target(args.config, args.run_dir, on_event=kill_at(args.kill_after))
    return 0


if __name__ == "__main__":
    sys.exit(main())
