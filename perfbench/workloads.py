"""The benchmark's workloads: ``classify``, ``ingest`` and ``fuzz``.

Each workload is a closed loop with one caller: the benchmark calls one
public entry point of the program (``run_pipeline``, ``run_ingest``,
``run_campaign``) at ``jobs=1``, waits for the result, checks it, and only
then starts the next unit.  There is no arrival schedule, so throughput is
reported at the stated input size rather than as a rate sweep.

A unit is one call at library defaults.  A run does a fixed list of units
over sub-seeds derived from the workload seed (see :meth:`Workload.plan`),
so it averages over several inputs, and the same seed and ``--seconds``
always measure the same inputs, however fast the host or the program is.
"""

from __future__ import annotations

import importlib
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks
from tracing import Tracer, journal_batches, patched

#: ``repro ingest`` CLI fault mix (the library's zero-rate default would
#: bypass fetch retries, the breaker and the DLQ entirely).
INGEST_FAULT_MIX = {
    "outage_rate": 0.1,
    "rate_limit_rate": 0.05,
    "corrupt_rate": 0.01,
    "duplicate_rate": 0.05,
    "reorder_rate": 0.2,
}


def sub_seeds(seed: int, count: int) -> list[int]:
    """The distinct inputs of one run: ``seed * 100 + i``."""
    return [seed * 100 + i for i in range(count)]


@dataclass
class Layer:
    """One traced layer: the attribute ``attr`` of ``owner`` (``mod[:Class]``)."""

    owner: str
    attr: str
    name: str
    io: bool = False  # report CPU time beside wall time (fsync wait shows)
    size_arg: int | None = None  # positional arg naming the file written
    failures: bool = False  # count calls that raise (retried or dead-lettered)

    def resolve(self) -> object:
        module, _, qual = self.owner.partition(":")
        target: object = importlib.import_module(module)
        for part in filter(None, qual.split(".")):
            target = getattr(target, part)
        return target


#: Wrapped like any layer; ``journal_batches`` then adds the batch spans.
JOURNAL_APPEND = Layer("repro.recovery.journal:RunJournal", "append",
                       "recovery.journal_append", io=True)


@dataclass
class Unit:
    """What one timed call of a workload produced."""

    seed: int
    wall_s: float
    items: int
    steps_ms: list[float]
    attempted: int
    failed: int
    problems: list[str]
    #: Determinism token: repeats of one seed must produce the same one.
    token: str
    #: Time inside the sections a traced unit puts under root spans.
    timed_s: float = 0.0
    #: Mean host-probe kernel time during the unit, in ms (untraced runs).
    probe_ms: float = 0.0
    #: Workload-specific end-to-end figures (recover_s, accuracies, ...).
    extra: dict[str, float] = field(default_factory=dict)
    #: Workload-specific per-layer counts and ratios (traced units only).
    counters: dict[str, float] = field(default_factory=dict)


class _BatchClock:
    """Journal ``on_event`` hook timing each batch from begin to commit."""

    def __init__(self) -> None:
        self.steps_ms: list[float] = []
        self._open: dict[str, int] = {}

    def __call__(self, event) -> None:
        if event.event == "begin":
            self._open[event.stage] = time.perf_counter_ns()
        elif event.event == "commit" and event.stage in self._open:
            start = self._open.pop(event.stage)
            self.steps_ms.append((time.perf_counter_ns() - start) / 1e6)


class Workload:
    name = ""
    why = ""
    #: A fixed cost per unit, in seconds, that turns ``--seconds`` into a
    #: unit count.  It is a constant, never measured, so the inputs of a run
    #: do not depend on how fast the host or the program is.
    nominal_unit_s = 1.0
    #: Append a replay of the first sub-seed, where the repeat check fires.
    replay = False
    #: Name of the printed throughput figure (items per second).
    rate_name = "items_per_s"
    #: Modules a unit imports, the entry point's first.
    modules: list[str] = []
    layers: list[Layer] = []
    batch_layer: str | None = None
    #: Per-layer counts and ratios a traced unit reports, with their units.
    counters: dict[str, str] = {}
    #: Counter -> layer: the median self time of the layer's last quarter of
    #: calls in one run over that of its first quarter.
    growth: dict[str, str] = {}

    def config(self) -> dict[str, Any]:
        raise NotImplementedError

    def plan(self, seed: int, seconds: float, trace: bool) -> list[int]:
        """The sub-seeds of one run, in order.

        Untraced, one distinct input per ``nominal_unit_s`` of ``seconds``
        (at least one), plus the replay.  Traced, half as many inputs: each
        is run twice, once traced and once untraced.
        """
        count = max(1, int(seconds // self.nominal_unit_s))
        if trace:
            return sub_seeds(seed, max(1, count // 2))
        seeds = sub_seeds(seed, count)
        return seeds + seeds[:1] if self.replay else seeds

    def prepare(self, work: Path) -> None:
        """The measured set-up: import every module a unit would otherwise
        import lazily on first use, and create the run directory."""
        for module in self.modules:
            importlib.import_module(module)
        for layer in self.layers:
            layer.resolve()
        (work / self.name).mkdir(parents=True, exist_ok=True)

    def call(self, seed: int, work: Path, tracer: Tracer | None) -> Unit:
        raise NotImplementedError

    def run(self, seed: int, work: Path, tracer: Tracer | None = None) -> Unit:
        """One unit behind a fault boundary: a raising call is a failed unit."""
        try:
            if tracer is None:
                return self.call(seed, work, None)
            with patched(tracer, [
                (layer.resolve(), layer.attr, layer.name, layer.size_arg)
                for layer in self.layers
            ]):
                if self.batch_layer is None:
                    return self.call(seed, work, tracer)
                with journal_batches(tracer, self.batch_layer):
                    return self.call(seed, work, tracer)
        except Exception:
            return Unit(
                seed=seed, wall_s=0.0, items=0, steps_ms=[],
                attempted=self.attempts_per_unit(), failed=self.attempts_per_unit(),
                problems=[f"{self.name} seed {seed} raised:\n{traceback.format_exc()}"],
                token="",
            )

    def attempts_per_unit(self) -> int:
        raise NotImplementedError

    @staticmethod
    def _timed(tracer: Tracer | None, root: str, seed: int, fn: Callable[[], Any]):
        start = time.perf_counter()
        if tracer is None:
            result = fn()
        else:
            with tracer.root(root, f"{root}:{seed}:{len(tracer.spans)}"):
                result = fn()
        return result, time.perf_counter() - start


class Classify(Workload):
    name = "classify"
    why = ("Paper section IV hot path: one cold run_pipeline (Word2Vec, "
           "tokenize, TF-IDF, NMF, SVM); no stream, fuzz or journal code runs")
    nominal_unit_s = 11.5
    replay = True
    rate_name = "documents_per_s"
    modules = ["repro.pipeline.scaling", "repro.textmining"]
    layers = [
        Layer("repro.corpus:CorpusGenerator", "generate", "corpus.generate"),
        Layer("repro.textmining.tokenizer:Tokenizer", "tokenize_all", "textmining.tokenize"),
        Layer("repro.textmining.tfidf:TfidfVectorizer", "fit", "textmining.tfidf"),
        Layer("repro.textmining.tfidf:TfidfVectorizer", "transform", "textmining.tfidf"),
        Layer("repro.embeddings.word2vec:Word2Vec", "fit", "embeddings.word2vec_fit"),
        Layer("repro.embeddings.docvec:DocumentVectorizer", "transform", "embeddings.docvec"),
        Layer("repro.ml.nmf", "nmf_multi_restart", "ml.nmf"),
        Layer("repro.ml.svm:LinearSVM", "fit", "ml.svm_fit"),
        Layer("repro.ml.svm:LinearSVM", "predict", "ml.svm_predict"),
        Layer("repro.pipeline.scaling", "validate_pipeline", "pipeline.validate"),
    ]

    def __init__(self, dimensions: tuple[str, ...] = ("bug_type", "symptom", "fix")) -> None:
        self.dimensions = dimensions

    def config(self) -> dict[str, Any]:
        return {"entry": "run_pipeline", "jobs": 1, "cache": None,
                "dimensions": list(self.dimensions)}

    def attempts_per_unit(self) -> int:
        return len(self.dimensions)

    def call(self, seed: int, work: Path, tracer: Tracer | None) -> Unit:
        from repro.pipeline.scaling import run_pipeline

        result, wall = self._timed(
            tracer, "classify.run", seed,
            lambda: run_pipeline(seed=seed, jobs=1, dimensions=self.dimensions),
        )
        accuracies = result.accuracies()
        problems = checks.classify_accuracy(accuracies, self.dimensions)
        failing = {p.split(":", 1)[0] for p in problems}
        extra = {f"accuracy_{dim}": acc for dim, acc in accuracies.items()}
        return Unit(
            seed=seed, wall_s=wall, items=result.n_documents, steps_ms=[],
            attempted=len(self.dimensions), failed=len(failing),
            problems=problems,
            token=",".join(result.reports[d].weights_digest for d in self.dimensions),
            timed_s=wall, extra=extra,
        )


class Ingest(Workload):
    name = "ingest"
    why = ("run_ingest at IngestConfig defaults (batch 512) with the CLI fault "
           "mix, then a timed resume: snapshot, fsync, fetch and DLQ heavy")
    nominal_unit_s = 5.5
    rate_name = "events_per_s"
    modules = ["repro.stream.ingest", "repro.observability.metrics"]
    layers = [
        Layer("repro.stream.flaky:FlakySource", "fetch", "stream.fetch", failures=True),
        Layer("repro.stream.ingest", "parse_wire", "stream.parse", failures=True),
        Layer("repro.stream.state:StreamState", "apply", "stream.apply"),
        Layer("repro.stream.dlq:DeadLetterQueue", "put", "stream.dlq_put", io=True),
        Layer("repro.stream.online:OnlineLinearSVM", "partial_fit", "stream.learn"),
        Layer("repro.stream.ingest", "save_state", "stream.snapshot", io=True, size_arg=1),
        Layer("repro.stream.ingest", "load_state", "stream.load", io=True),
        JOURNAL_APPEND,
    ]
    batch_layer = "stream.batch"
    counters = {"stream.retries": "count", "resilience.breaker_trips": "count",
                "stream.dedup_ratio": "ratio", "stream.snapshot_growth": "ratio"}
    growth = {"stream.snapshot_growth": "stream.snapshot"}

    def __init__(self, events: int = 20_000) -> None:
        self.events = events

    def _config(self, seed: int):
        from repro.stream.ingest import IngestConfig

        return IngestConfig(seed=seed, events=self.events, **INGEST_FAULT_MIX)

    def config(self) -> dict[str, Any]:
        from repro.stream.ingest import IngestConfig

        defaults = IngestConfig()
        return {"entry": "run_ingest", "then": "run_ingest(resume=True)",
                "events": self.events, "batch": defaults.batch,
                "block": defaults.block, "pool": defaults.pool,
                **INGEST_FAULT_MIX}

    def attempts_per_unit(self) -> int:
        return self.events

    def call(self, seed: int, work: Path, tracer: Tracer | None) -> Unit:
        from repro.stream.ingest import run_ingest

        config = self._config(seed)
        run_dir = work / self.name / str(seed)
        shutil.rmtree(run_dir, ignore_errors=True)
        clock = _BatchClock()
        report, wall = self._timed(
            tracer, "ingest.run", seed,
            lambda: run_ingest(config, run_dir, on_event=clock),
        )
        resumed, recover = self._timed(
            tracer, "ingest.recover", seed,
            lambda: run_ingest(config, run_dir, resume=True),
        )
        state = report.state
        oracle = checks.ingest_oracle(config, report.ledger)
        facts = {
            "consumed": state.consumed, "applied": state.applied,
            "deduped": state.deduped, "dead_lettered": state.dead_lettered,
            "lost_upstream": state.lost_upstream, "dlq_depth": report.dlq_depth,
            "fingerprint": state.fingerprint(),
            "resumed_fingerprint": resumed.state.fingerprint(),
            "resumed_batches": resumed.batches_executed,
        }
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        shutil.rmtree(run_dir, ignore_errors=True)
        unaccounted = state.consumed - state.applied - state.deduped - state.dead_lettered
        return Unit(
            seed=seed, wall_s=wall, items=state.consumed, steps_ms=clock.steps_ms,
            attempted=oracle.emitted, failed=abs(unaccounted) + state.lost_upstream,
            problems=checks.ingest(facts, oracle),
            token=facts["fingerprint"], timed_s=wall + recover,
            extra={"recover_s": recover},
            counters={
                "stream.retries": state.retries,
                "resilience.breaker_trips": summary["breaker_trips"],
                "stream.dedup_ratio": state.deduped / max(state.consumed, 1),
            },
        )


class Fuzz(Workload):
    name = "fuzz"
    why = ("run_campaign at FuzzConfig defaults (ring 5x20, budget 200, "
           "guided, minimize): adversary replay and candidate selection heavy")
    nominal_unit_s = 5.5
    rate_name = "execs_per_s"
    modules = ["repro.fuzzing.campaign", "repro.observability.metrics"]
    layers = [
        Layer("repro.fuzzing.campaign", "run_adversary", "adversary.run"),
        Layer("repro.fuzzing.campaign", "run_coverage", "fuzzing.coverage"),
        Layer("repro.fuzzing.campaign", "minimize_schedule", "adversary.minimize"),
        Layer("repro.fuzzing.campaign", "mutate", "fuzzing.mutate"),
        Layer("repro.fuzzing.campaign", "schedule_features", "fuzzing.features"),
        Layer("repro.ml.tree:DecisionTreeClassifier", "fit", "ml.tree_fit"),
        Layer("repro.fuzzing.campaign", "save_state", "fuzzing.snapshot", io=True, size_arg=1),
        JOURNAL_APPEND,
    ]
    batch_layer = "fuzzing.batch"
    counters = {"fuzzing.novel_ratio": "ratio", "fuzzing.batch_growth": "ratio"}
    growth = {"fuzzing.batch_growth": "fuzzing.batch"}

    def __init__(self, **overrides: Any) -> None:
        self.overrides = overrides

    def _config(self, seed: int):
        from repro.fuzzing.campaign import FuzzConfig

        return FuzzConfig(seed=seed, **self.overrides)

    def config(self) -> dict[str, Any]:
        return {"entry": "run_campaign", "jobs": 1, "then": "run_campaign(resume=True)",
                **{k: v for k, v in self._config(0).to_dict().items() if k != "seed"}}

    def attempts_per_unit(self) -> int:
        return self._config(0).budget

    def call(self, seed: int, work: Path, tracer: Tracer | None) -> Unit:
        from repro.fuzzing.campaign import run_campaign

        config = self._config(seed)
        run_dir = work / self.name / str(seed)
        shutil.rmtree(run_dir, ignore_errors=True)
        clock = _BatchClock()
        report, wall = self._timed(
            tracer, "fuzz.run", seed,
            lambda: run_campaign(config, run_dir, jobs=1, on_event=clock),
        )
        resumed, recover = self._timed(
            tracer, "fuzz.recover", seed,
            lambda: run_campaign(config, run_dir, resume=True, jobs=1),
        )
        shutil.rmtree(run_dir, ignore_errors=True)
        state = report.state
        facts = {
            "budget": config.budget, "executed": state.executed,
            "fingerprint": state.fingerprint(),
            "resumed_fingerprint": resumed.state.fingerprint(),
            "resumed_batches": resumed.batches_executed,
        }
        return Unit(
            seed=seed, wall_s=wall, items=state.executed, steps_ms=clock.steps_ms,
            attempted=config.budget, failed=config.budget - state.executed,
            problems=checks.fuzz(facts),
            token=facts["fingerprint"], timed_s=wall + recover,
            extra={"signatures": len(state.signatures), "recover_s": recover},
            counters={"fuzzing.novel_ratio": len(state.corpus) / max(state.executed, 1)},
        )


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "classify": Classify,
    "ingest": Ingest,
    "fuzz": Fuzz,
}

