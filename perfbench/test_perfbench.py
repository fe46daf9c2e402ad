"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from hostprobe import NOMINAL_MS, HostProbe, normalised  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS, Classify, Fuzz, Ingest, Unit  # noqa: E402


def _tiny(name: str):
    if name == "classify":
        workload = Classify(dimensions=("bug_type",))
    elif name == "ingest":
        workload = Ingest(events=2048)
    else:
        workload = Fuzz(budget=20, batch=5)
    return workload


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced tiny run of every workload."""
    return {
        (name, trace): run.measure(name, 3, 0.0, trace, workload=_tiny(name))
        for name in WORKLOADS
        for trace in (False, True)
    }


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(records, name):
    spec = _benchmark_json()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(records[name, trace])
        assert line["correct"], records[name, trace]["problems"]
        assert line["attempted"] >= 1 and line["failed"] == 0
        expected = {metric["name"]: metric["unit"] for metric in spec[key]}
        assert {m: v["unit"] for m, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    metrics = run.result_line(records[name, False])["metrics"]
    assert all(metrics[m["name"]]["value"] > 0 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_and_unattributed_add_up_to_traced_wall(records, name):
    layers = records[name, True]["per_layer"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total + layers["unattributed_s"] == pytest.approx(layers["traced_wall_s"])
    # The fuzzer trains its tree only once both outcomes were seen; on the
    # default ring every schedule violates, so the tree never fits.
    touched = [layer.name for layer in _tiny(name).layers if layer.name != "ml.tree_fit"]
    assert all(layers[f"{layer}.calls"] > 0 for layer in touched)


def test_workload_figures_are_reported(records):
    assert "accuracy_bug_type" in records["classify", False]["figures"]
    assert "recover_s" in records["ingest", False]["figures"]
    assert {"signatures", "recover_s"} <= set(records["fuzz", False]["figures"])
    for name in WORKLOADS:
        assert records[name, False]["environment"]["source_sha256"]


def test_untraced_units_are_normalised_by_the_host_probe(records):
    for name in WORKLOADS:
        units = records[name, False]["units"]
        assert all(unit["probe_ms"] > 0 for unit in units)
        assert "probe_ms" in records[name, False]["figures"]
        assert "norm_wall_s" not in records[name, True]["end_to_end"]


def test_host_probe_samples_in_the_background():
    with HostProbe(period_s=0.001) as probe:
        mark = probe.mark()
        deadline = time.monotonic() + 5.0
        while len(probe.samples_ns) < mark + 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(probe.samples_ns) >= mark + 3
        assert probe.mean_ms(mark) > 0
        # An empty window runs the kernel once in the caller.
        assert probe.mean_ms(10**9) > 0
    assert normalised(2.0, NOMINAL_MS * 2) == pytest.approx(1.0)


def test_a_run_measures_a_fixed_list_of_inputs():
    classify, fuzz = Classify(), Fuzz()
    assert classify.plan(1, 30, False) == [100, 101, 100]
    assert fuzz.plan(1, 30, False) == [100, 101, 102, 103, 104]
    assert fuzz.plan(2, 30, True) == [200, 201]
    assert fuzz.plan(1, 0, False) == [100]


def test_benchmark_json_names_the_workloads():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


# -- the checkers report tampered outputs -----------------------------------------------


def _ingest_facts():
    facts = {
        "consumed": 110, "applied": 100, "deduped": 6, "dead_lettered": 4,
        "lost_upstream": 0, "dlq_depth": 3, "fingerprint": "f", "resumed_fingerprint": "f",
        "resumed_batches": 0,
    }
    oracle = checks.IngestOracle(emitted=110, delivered=110, lost=0, poison=4, poison_distinct=3)
    return facts, oracle


def test_untampered_ingest_facts_pass():
    facts, oracle = _ingest_facts()
    assert checks.ingest(facts, oracle) == []


@pytest.mark.parametrize("field", ["applied", "deduped", "dead_lettered", "dlq_depth",
                                   "lost_upstream", "consumed"])
def test_ingest_count_off_by_one_is_reported(field):
    facts, oracle = _ingest_facts()
    facts[field] += 1
    assert checks.ingest(facts, oracle)


def test_ingest_resume_drift_is_reported():
    facts, oracle = _ingest_facts()
    facts["resumed_fingerprint"] = "g"
    assert checks.ingest(facts, oracle)


def test_fuzz_tampering_is_reported():
    facts = {"budget": 200, "executed": 200, "fingerprint": "f",
             "resumed_fingerprint": "f", "resumed_batches": 0}
    assert checks.fuzz(facts) == []
    assert checks.fuzz({**facts, "executed": 199})
    assert checks.fuzz({**facts, "resumed_batches": 1})


def test_classify_floors_and_repeats_are_checked():
    dims = ("bug_type", "symptom", "fix")
    assert checks.classify_accuracy({"bug_type": 0.96, "symptom": 0.86, "fix": 0.3}, dims) == []
    assert checks.classify_accuracy({"bug_type": 0.89, "symptom": 0.86, "fix": 0.3}, dims)
    assert checks.classify_accuracy({"bug_type": 0.96, "symptom": 0.86, "fix": 0.7}, dims)
    unit = Unit(seed=1, wall_s=1.0, items=1, steps_ms=[], attempted=1, failed=0,
                problems=[], token="a")
    assert checks.repeats([unit, unit]) == []
    assert checks.repeats([unit, Unit(**{**unit.__dict__, "token": "b"})])


def test_a_raising_unit_counts_as_failed():
    class Broken(Ingest):
        def call(self, seed, work, tracer):
            raise RuntimeError("boom")

    broken = Broken(events=64)
    record = run.measure("ingest", 1, 0.0, False, workload=broken)
    line = run.result_line(record)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == 64


def test_self_time_subtracts_child_coverage():
    tracer = Tracer()
    with tracer.root("root", "r"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("b"):
            pass
    totals, unattributed, wall = layer_totals(tracer.spans)
    assert totals["b"].calls == 2
    assert sum(t.self_seconds for t in totals.values()) + unattributed == pytest.approx(wall)
    assert totals["a"].self_seconds <= totals["a"].seconds


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
