"""In-memory span recorder and the wrappers that feed it.

A traced run patches the public function of each layer at the attribute
its caller looks up (a module global such as
``repro.stream.ingest.save_state``, or a method on its class), records one
span per call on a single thread, and restores every attribute when the
run ends.  No file of the program changes.

Spans carry wall time (``perf_counter_ns``) and CPU time
(``process_time_ns``); a layer's self time is its duration minus the part
of that interval its child spans cover, so the self times of all spans of
one root add up to the root's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One call into a layer (or one root unit of a workload)."""

    span_id: int
    name: str
    parent: int | None
    run_id: str
    start_ns: int
    cpu_start_ns: int
    end_ns: int = -1
    cpu_end_ns: int = -1
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def cpu_ns(self) -> int:
        return self.cpu_end_ns - self.cpu_start_ns

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent,
            "run_id": self.run_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "cpu_ns": self.cpu_ns,
            "attrs": self.attrs,
        }


class Tracer:
    """Single-threaded span stack; spans stay in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run_id = ""

    def open(self, name: str) -> Span:
        span = Span(
            span_id=len(self.spans),
            name=name,
            parent=self._stack[-1].span_id if self._stack else None,
            run_id=self.run_id,
            start_ns=time.perf_counter_ns(),
            cpu_start_ns=time.process_time_ns(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.cpu_end_ns = time.process_time_ns()
        span.end_ns = time.perf_counter_ns()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order (top {top.name!r})")

    def close_named(self, name: str) -> None:
        """Close the innermost open span if it is called ``name``."""
        if self._stack and self._stack[-1].name == name:
            self.close(self._stack[-1])

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        except BaseException:
            span.attrs["failed"] = True
            raise
        finally:
            self.close(span)

    @contextlib.contextmanager
    def root(self, name: str, run_id: str) -> Iterator[Span]:
        """A root span: the unit of work whose wall time the layers split."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        self.run_id = run_id
        with self.span(name) as span:
            yield span
        self.run_id = ""

    def dump(self, path: Path) -> None:
        """Write every span out as JSON lines (called once, at run end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


# -- analysis ---------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    out: dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = span.duration_ns - covered
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    cpu_seconds: float = 0.0
    failures: int = 0
    nbytes: int = 0


def layer_totals(spans: list[Span]) -> tuple[dict[str, LayerTotals], float, float]:
    """Per-layer totals, root self time (unattributed) and root wall time.

    ``seconds`` and ``cpu_seconds`` count only the outermost span of a name,
    so a layer that re-enters itself is not counted twice.
    """
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    unattributed = wall = 0.0
    for span in spans:
        if span.parent is None:
            unattributed += own[span.span_id] / 1e9
            wall += span.duration_ns / 1e9
            continue
        layer = totals.setdefault(span.name, LayerTotals())
        layer.calls += 1
        layer.self_seconds += own[span.span_id] / 1e9
        layer.failures += int(bool(span.attrs.get("failed")))
        layer.nbytes += int(span.attrs.get("bytes", 0))
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if ancestor is None:
            layer.seconds += span.duration_ns / 1e9
            layer.cpu_seconds += span.cpu_ns / 1e9
    return totals, unattributed, wall


# -- wrapping ---------------------------------------------------------------------


def _traced(tracer: Tracer, name: str, fn: Callable, size_arg: int | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if size_arg is not None:
                span.attrs["bytes"] = os.path.getsize(args[size_arg])
            return result

    return wrapper


@contextlib.contextmanager
def patched(
    tracer: Tracer, targets: list[tuple[object, str, str, int | None]]
) -> Iterator[None]:
    """Wrap ``getattr(owner, attr)`` as layer ``name`` for the duration.

    ``targets`` rows are ``(owner, attr, layer name, size_arg)``; when
    ``size_arg`` is set, the file named by that positional argument is
    measured after the call and its size recorded as the span's ``bytes``.
    """
    saved: list[tuple[object, str, Any]] = []
    try:
        for owner, attr, name, size_arg in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, name, original, size_arg))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def journal_batches(tracer: Tracer, batch_name: str) -> Iterator[None]:
    """Open one ``batch_name`` span per journaled batch.

    The span opens when a ``begin`` append returns and closes before the
    matching ``commit`` append starts, so the appends stay siblings of the
    batch they delimit and every span nests properly.
    """
    from repro.recovery import journal

    original = journal.RunJournal.__dict__["append"]

    @functools.wraps(original)
    def append(self, event, **kwargs):
        if event == journal.EVENT_COMMIT:
            tracer.close_named(batch_name)
        entry = original(self, event, **kwargs)
        if event == journal.EVENT_BEGIN:
            tracer.open(batch_name)
        return entry

    journal.RunJournal.append = append
    try:
        yield
    finally:
        journal.RunJournal.append = original
