"""How fast the host runs at the moment, measured on the workload's own core.

A shared VM drifts in speed, by up to 1.7x within minutes (neighbours on
the same physical core, frequency changes), and a unit of the same input
moves with it.  Timing a reference kernel before or after a unit misses the
drift inside it, and timing one on the other vCPU measures another core.  So a
background thread of the measuring process, pinned with it to one CPU, runs
a small fixed kernel every ``PERIOD_S`` and records its thread CPU time.
The kernel takes the GIL for about a millisecond between the workload's own
slices, so it sees the same core at the same moments as the workload.

``normalised(wall_s, probe_ms)`` scales a unit's wall time to a host on
which the kernel takes ``NOMINAL_MS``.  On a 2-vCPU VM, over twelve
repeats of one classify input, the kernel's mean time correlated 0.93 with
the unit's wall time, and the interquartile spread fell from 0.065 of the
median to 0.013.

The kernel mirrors the shape of the program's hot loops (Word2Vec's
per-pair update): a Python loop of small numpy reductions and elementwise
ops on arrays that fit in L2.  It is fixed; a change to the program does
not change what it runs, only, through shared caches, a little of how long
it takes.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

#: Seconds between two kernel runs; the kernel then takes ~3% of the core.
PERIOD_S = 0.045
#: Kernel time that ``normalised`` scales to: its median on the 2-vCPU VM
#: the benchmark was written on, so normalised seconds read near real ones.
NOMINAL_MS = 1.2
_ROWS, _WIDTH, _STEPS = 500, 50, 100


def pin_to_one_cpu() -> int:
    """Pin this process (and the threads and children it starts) to one CPU.

    The highest usable CPU is taken: device interrupts default to CPU 0.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def normalised(wall_s: float, probe_ms: float) -> float:
    """``wall_s`` on a host where the kernel takes ``NOMINAL_MS``."""
    return wall_s * NOMINAL_MS / probe_ms


class HostProbe:
    """Context manager running the kernel in a background thread.

    ``mark()`` opens a window and ``mean_ms(mark)`` gives the mean kernel
    time inside it, in milliseconds of thread CPU time.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        rng = np.random.default_rng(0)
        self._left = rng.standard_normal((_ROWS, _WIDTH))
        self._right = rng.standard_normal((_ROWS, _WIDTH))
        self._out = np.zeros((_ROWS, _WIDTH))
        self._period_s = period_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-probe", daemon=True)
        self.samples_ns: list[int] = []

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self._period_s):
            self.samples_ns.append(self._kernel())

    def _kernel(self) -> int:
        start = time.thread_time_ns()
        left, right, out = self._left, self._right, self._out
        for i in range(_STEPS):
            row, other = i % _ROWS, (i * 7) % _ROWS
            score = 1.0 / (1.0 + np.exp(-np.clip(left[row] @ right[other], -30.0, 30.0)))
            out[row] = left[row] - 0.001 * score * right[other]
        return time.thread_time_ns() - start

    def mark(self) -> int:
        return len(self.samples_ns)

    def mean_ms(self, mark: int) -> float:
        """Mean kernel time since ``mark``; runs it once here if none ran."""
        window = self.samples_ns[mark:] or [self._kernel()]
        return sum(window) / len(window) / 1e6
