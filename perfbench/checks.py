"""Output checks run on every unit; each returns a list of problems.

The checks are pure functions of the facts a unit reports, so a test can
feed them a tampered copy (one count off by one) and see it reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Accuracy floors of ``tests/test_pipeline.py`` (paper: 96% / 86%; fix
#: tags are not predictable, so a high fix accuracy means leakage).
ACCURACY_FLOORS = {"bug_type": 0.90, "symptom": 0.80}
ACCURACY_CEILINGS = {"fix": 0.65}


def classify_accuracy(accuracies: dict[str, float], dimensions) -> list[str]:
    problems = []
    for dim in dimensions:
        if dim not in accuracies:
            problems.append(f"{dim}: no validation report")
            continue
        acc = accuracies[dim]
        if dim in ACCURACY_FLOORS and not acc >= ACCURACY_FLOORS[dim]:
            problems.append(f"{dim}: accuracy {acc:.3f} below {ACCURACY_FLOORS[dim]}")
        if dim in ACCURACY_CEILINGS and not acc < ACCURACY_CEILINGS[dim]:
            problems.append(f"{dim}: accuracy {acc:.3f} not below {ACCURACY_CEILINGS[dim]}")
    return problems


@dataclass(frozen=True)
class IngestOracle:
    """What the flaky source emitted, recomputed independently of the run."""

    emitted: int  # every wire record of every block
    delivered: int  # records of the blocks the run did not give up on
    lost: int  # records of the blocks it gave up on
    poison: int  # delivered records that fail the strict wire parser
    poison_distinct: int  # ... counted once per distinct raw text


_GIVE_UP = re.compile(r"^block (\d+): abandoned")


def ingest_oracle(config, ledger) -> IngestOracle:
    """Regenerate every block of ``config``'s stream and classify its records.

    Abandoned blocks are read from the run's ``GIVE_UP`` ledger records.
    """
    from repro.errors import StreamError
    from repro.resilience.ledger import ResilienceEvent
    from repro.stream.events import parse_wire
    from repro.stream.flaky import FlakySource
    from repro.stream.source import synthetic_event

    abandoned = set()
    for record in ledger.records:
        match = _GIVE_UP.match(record.detail)
        if record.event is ResilienceEvent.GIVE_UP and match:
            abandoned.add(int(match.group(1)))
    source = FlakySource(
        lambda i: synthetic_event(config.seed, i, pool=config.pool),
        config.events, mix=config.mix(), seed=config.seed, block_size=config.block,
    )
    emitted = delivered = lost = 0
    poison: list[str] = []
    for block in range(source.n_blocks):
        records = source.wire_block(block)
        emitted += len(records)
        if block in abandoned:
            lost += len(records)
            continue
        delivered += len(records)
        for raw in records:
            try:
                parse_wire(raw)
            except StreamError:
                poison.append(raw)
    return IngestOracle(emitted, delivered, lost, len(poison), len(set(poison)))


def ingest(facts: dict, oracle: IngestOracle) -> list[str]:
    """Exact accounting, DLQ contents and resume identity of one ingest run.

    The DLQ is keyed by the raw text, so a corrupt record delivered twice
    is dead-lettered twice but stored once: its depth is compared with the
    distinct dead-lettered records, and ``dead_lettered`` with deliveries.
    """
    problems = []
    balance = facts["applied"] + facts["deduped"] + facts["dead_lettered"]
    if facts["consumed"] != balance:
        problems.append(
            f"consumed {facts['consumed']} != applied + deduped + dead_lettered {balance}")
    if facts["consumed"] != oracle.delivered:
        problems.append(f"consumed {facts['consumed']} != delivered {oracle.delivered}")
    if facts["lost_upstream"] != oracle.lost:
        problems.append(f"lost_upstream {facts['lost_upstream']} != abandoned {oracle.lost}")
    if facts["dead_lettered"] != oracle.poison:
        problems.append(
            f"dead_lettered {facts['dead_lettered']} != poison deliveries {oracle.poison}")
    if facts["dlq_depth"] != oracle.poison_distinct:
        problems.append(
            f"DLQ depth {facts['dlq_depth']} != distinct poison records "
            f"{oracle.poison_distinct}")
    problems += _resume(facts)
    return problems


def fuzz(facts: dict) -> list[str]:
    problems = []
    if facts["executed"] != facts["budget"]:
        problems.append(f"executed {facts['executed']} != budget {facts['budget']}")
    return problems + _resume(facts)


def _resume(facts: dict) -> list[str]:
    problems = []
    if facts["resumed_fingerprint"] != facts["fingerprint"]:
        problems.append("resumed fingerprint differs from the run's")
    if facts["resumed_batches"] != 0:
        problems.append(f"resume of a finished run executed {facts['resumed_batches']} batches")
    return problems


def repeats(units) -> list[str]:
    """Every unit of one seed must leave the same determinism token."""
    first: dict[int, str] = {}
    problems = []
    for unit in units:
        if not unit.token:
            continue
        token = first.setdefault(unit.seed, unit.token)
        if token != unit.token:
            problems.append(f"seed {unit.seed}: output differs between repeats")
    return problems


def additivity(self_seconds: float, unattributed: float, wall: float) -> list[str]:
    """Layer self times plus unattributed time must add up to traced wall."""
    if abs(self_seconds + unattributed - wall) > 1e-6 * max(wall, 1.0):
        return [f"self {self_seconds:.6f} + unattributed {unattributed:.6f} != wall {wall:.6f}"]
    return []
