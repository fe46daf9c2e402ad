"""sdnlint detector families, keyed to the paper's Table I root causes.

====================  ==============  ========  =================  =====================
detector id           family          severity  bug type           root cause
====================  ==============  ========  =================  =====================
unseeded-random       nondeterminism  error     non_deterministic  missing_logic
wall-clock            nondeterminism  error     non_deterministic  ecosystem_system_call
hash-seed             nondeterminism  error     non_deterministic  memory
unordered-iteration   nondeterminism  error     non_deterministic  memory
bare-except           error_handling  error     deterministic      missing_logic
overbroad-except      error_handling  warning   deterministic      missing_logic
swallowed-exception   error_handling  warning   deterministic      missing_logic
durability-except     error_handling  error     non_deterministic  ecosystem_system_call
lock-order-cycle      concurrency     error     non_deterministic  concurrency
unlocked-shared-write concurrency     warning   non_deterministic  concurrency
open-no-with          resources       warning   deterministic      ecosystem_system_call
raw-publish           resources       error     non_deterministic  ecosystem_system_call
====================  ==============  ========  =================  =====================

(Hash-randomization effects are filed under the *memory* root cause: the
observable order is a function of object hashing / memory layout, the
closest Table I class for layout-dependent behaviour.)
"""

from __future__ import annotations

from repro.staticanalysis.checks.base import AnalysisContext, Detector
from repro.staticanalysis.checks.concurrency import (
    LockOrderCycleDetector,
    UnlockedSharedWriteDetector,
)
from repro.staticanalysis.checks.errorhandling import (
    BareExceptDetector,
    DurabilityExceptDetector,
    OverbroadExceptDetector,
    SwallowedExceptionDetector,
)
from repro.staticanalysis.checks.nondeterminism import (
    HashSeedDetector,
    UnorderedIterationDetector,
    UnseededRandomDetector,
    WallClockDetector,
)
from repro.staticanalysis.checks.resources import (
    OpenNoWithDetector,
    RawPublishDetector,
)

#: Canonical detector order (stable across runs and reports).
DETECTOR_TYPES: tuple[type[Detector], ...] = (
    UnseededRandomDetector,
    WallClockDetector,
    HashSeedDetector,
    UnorderedIterationDetector,
    BareExceptDetector,
    OverbroadExceptDetector,
    SwallowedExceptionDetector,
    DurabilityExceptDetector,
    LockOrderCycleDetector,
    UnlockedSharedWriteDetector,
    OpenNoWithDetector,
    RawPublishDetector,
)


def default_detectors() -> list[Detector]:
    """Fresh instances of every registered detector, in canonical order."""
    return [cls() for cls in DETECTOR_TYPES]


def detector_ids() -> list[str]:
    return [cls.id for cls in DETECTOR_TYPES]


__all__ = [
    "AnalysisContext",
    "Detector",
    "DETECTOR_TYPES",
    "default_detectors",
    "detector_ids",
]
