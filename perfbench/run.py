"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--seed`` and ``--seconds`` fix the list of inputs a run measures
(see ``Workload.plan``); time never changes which inputs count.
``--trace 0`` measures the end-to-end metrics with nothing wrapped and
a host probe beside every unit (``hostprobe.py``); ``--trace 1``
alternates untraced and traced units of the same input and reports the
per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it name every metric, the workload-specific ones included, with
its unit.  Spans and a full result record (environment included) are
written under ``.perfbench/`` in the checkout.  The exit code is 0 only
when every output check passed, and 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: a closed loop at jobs=1 on a shared host is steadier
# without BLAS threads contending for its cores.  Set before numpy loads,
# and inherited by the set-up subprocesses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: End-to-end metrics every untraced run emits, with their units.
END_TO_END = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "peak_rss_mb": "MB",
}
#: Set-up subprocesses per run; ``setup_s`` is their normalised median.
SETUP_REPEATS = 7
#: A run still going after this many seconds stops and counts as failed.
CAP_S = 150.0
#: Candidate tail percentiles, highest first; a run reports the highest one
#: with at least ten samples beyond it.
TAIL_LADDER = (99, 95, 90, 80, 75)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """(percentile, value) of the highest ladder percentile with >= 10 beyond."""
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        rank = -(-pct * len(ordered) // 100)  # nearest rank, 1-based
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def measure_setup(name: str, work: Path,
                  repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """(wall time, mean host-probe ms) of fresh interpreters importing the
    program and preparing inputs.

    The probe thread shares the pinned CPU with each child, so it sees the
    host's speed while the child runs.
    """
    from hostprobe import HostProbe

    code = (
        "import sys; from pathlib import Path; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        "import workloads; "
        f"workloads.WORKLOADS[{name!r}]().prepare(Path({str(work)!r}))"
    )
    samples = []
    with HostProbe() as probe:
        for _ in range(repeats):
            mark = probe.mark()
            start = time.perf_counter()
            # No timeout: a timed wait polls, which would round the figure to 50 ms.
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
            wall = time.perf_counter() - start
            samples.append((wall, probe.mean_ms(mark)))
    return samples


def run_units(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Closed loop over the run's fixed list of sub-seeds.

    Untraced runs time each unit beside a ``HostProbe``, whose mean kernel
    time in the unit's window normalises its wall time.  Traced runs pair
    every traced unit with an untraced unit of the same input, with no
    probe, so that no probe time lands in a layer's CPU time.  The clock is
    only a safety cap: a run past ``CAP_S`` stops and reports a problem, so
    the inputs a run counts never depend on speed.
    """
    from hostprobe import HostProbe
    from tracing import Tracer

    tracer = Tracer() if trace else None
    probe = None if trace else HostProbe()
    plain, traced, problems = [], [], []
    seeds = workload.plan(seed, seconds, trace)
    workload.prepare(work)
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        for index, unit_seed in enumerate(seeds):
            # Alternate which of a pair goes first, so drift splits evenly.
            if tracer is not None and index % 2:
                traced.append(workload.run(unit_seed, work, tracer))
            mark = probe.mark() if probe is not None else 0
            plain.append(workload.run(unit_seed, work))
            if probe is not None:
                plain[-1].probe_ms = probe.mean_ms(mark)
            if tracer is not None and len(traced) < len(plain):
                traced.append(workload.run(unit_seed, work, tracer))
            if any(unit.problems for unit in plain + traced):
                break
            if index + 1 < len(seeds) and time.perf_counter() - start > CAP_S:
                problems.append(f"run passed the {CAP_S:.0f} s cap after "
                                f"{index + 1} of {len(seeds)} inputs")
                break
    return plain, traced, tracer, problems


def end_to_end(workload, plain, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(gated metrics, workload-specific figures) of the untraced units.

    ``norm_wall_s`` is the mean over the run's fixed inputs of each unit's
    wall time normalised by the host probe, so inputs of different cost
    weigh alike in every run of one seed, and the host's drift in speed
    cancels; ``setup_s`` is normalised the same way.  The figures are
    printed and recorded, not gated: ``wall_s`` and ``setup_wall_s`` (the
    raw times) drift with the host, the rate is ``wall_s`` inverted at
    a fixed input size, and the batch times are parts of ``wall_s``.
    """
    from hostprobe import normalised

    good = [unit for unit in plain if not unit.problems] or plain
    steps = [ms for unit in good for ms in unit.steps_ms]
    total_s = sum(u.wall_s for u in good)
    metrics = {"setup_s": statistics.median(normalised(w, p) for w, p in setup)}
    if all(u.probe_ms > 0 for u in good):
        metrics["norm_wall_s"] = statistics.fmean(
            normalised(u.wall_s, u.probe_ms) for u in good)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    figures: dict[str, tuple[float, str]] = {
        "setup_wall_s": (statistics.median(w for w, _ in setup), "s"),
        "wall_s": (total_s / len(good), "s"),
        workload.rate_name: (sum(u.items for u in good) / max(total_s, 1e-9), "1/s"),
    }
    if "norm_wall_s" in metrics:
        figures["probe_ms"] = (statistics.fmean(u.probe_ms for u in good), "ms")
    for key in sorted({key for unit in good for key in unit.extra}):
        unit_of = "s" if key.endswith("_s") else "ratio" if key.startswith("accuracy") else "count"
        figures[key] = (statistics.median(u.extra.get(key, 0.0) for u in good), unit_of)
    if steps:
        figures["batch_ms_p50"] = (statistics.median(steps), "ms")
        figures["batch_ms_samples"] = (len(steps), "count")
        tail_at = tail(steps)
        if tail_at is not None:
            figures["batch_ms_tail"] = (tail_at[1], "ms")
            figures["batch_ms_tail_percentile"] = (tail_at[0], "pct")
    attempted = sum(unit.attempted for unit in plain)
    failed = sum(unit.failed for unit in plain)
    figures["failed_share"] = (failed / max(attempted, 1), "ratio")
    return metrics, figures


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, over all workloads."""
    from workloads import WORKLOADS, Layer

    names: dict[str, str] = {}
    for factory in WORKLOADS.values():
        workload = factory()
        layers = {layer.name: layer for layer in workload.layers}
        if workload.batch_layer is not None:
            layers[workload.batch_layer] = Layer("", "", workload.batch_layer)
        for name, layer in sorted(layers.items()):
            names[f"{name}.calls"] = "count"
            names[f"{name}.s"] = "s"
            names[f"{name}.self_s"] = "s"
            if layer.io:
                names[f"{name}.cpu_s"] = "s"
            if layer.size_arg is not None:
                names[f"{name}.bytes"] = "bytes"
            if layer.failures:
                names[f"{name}.failures"] = "count"
        names.update(workload.counters)
    names.update({"unattributed_s": "s", "traced_wall_s": "s", "trace_overhead_s": "s"})
    return names


def _growth(values: list[float]) -> float:
    """Median of the last quarter over the median of the first quarter."""
    if len(values) < 4:
        return 0.0
    quarter = len(values) // 4
    first = statistics.median(values[:quarter])
    return statistics.median(values[-quarter:]) / first if first > 0 else 0.0


def layer_metrics(workload, tracer, plain, traced) -> tuple[dict[str, float], list[str]]:
    """Per-unit means of every per-layer metric, and additivity problems."""
    import checks
    from tracing import layer_totals, self_times

    names = per_layer_names()
    values = {name: 0.0 for name in names}
    totals, unattributed, wall = layer_totals(tracer.spans)
    count = max(len(traced), 1)
    for layer, total in totals.items():
        for suffix, value in (("calls", total.calls), ("s", total.seconds),
                              ("self_s", total.self_seconds), ("cpu_s", total.cpu_seconds),
                              ("bytes", total.nbytes), ("failures", total.failures)):
            key = f"{layer}.{suffix}"
            if key in values:
                values[key] = value / count
    problems = checks.additivity(sum(t.self_seconds for t in totals.values()), unattributed, wall)

    own = self_times(tracer.spans)
    by_run: dict[str, list] = {}
    for span in tracer.spans:
        by_run.setdefault(span.run_id, []).append(span)
    for counter, layer in workload.growth.items():
        runs = [[own[s.span_id] for s in spans if s.name == layer] for spans in by_run.values()]
        runs = [_growth(run) for run in runs if run]
        if runs:
            values[counter] = statistics.fmean(runs)
    for key in {key for unit in traced for key in unit.counters}:
        values[key] = statistics.fmean(unit.counters.get(key, 0.0) for unit in traced)

    values["unattributed_s"] = unattributed / count
    values["traced_wall_s"] = wall / count
    values["trace_overhead_s"] = (
        statistics.fmean(u.timed_s for u in traced) - statistics.fmean(u.timed_s for u in plain)
    )
    return values, problems


def environment(work: Path) -> dict:
    """Where the numbers came from; runs from different machines never compare."""
    import numpy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "run_dir_fstype": _fstype(work),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _fstype(path: Path) -> str | None:
    """Filesystem type of the mount holding ``path`` (Linux ``/proc/mounts``)."""
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    target, best, kind = str(path.resolve()), -1, None
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1].encode().decode("unicode_escape")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > best:
            best, kind = len(mount), fields[2]
    return kind


def measure(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """Run one workload and return the full result record."""
    import checks
    from workloads import WORKLOADS

    workload = workload or WORKLOADS[name]()
    work = STATE / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = measure_setup(name, work)
        plain, traced, tracer, problems = run_units(workload, seed, seconds, trace, work)
        env = environment(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = plain + traced
    problems += [p for unit in units for p in unit.problems] + checks.repeats(units)
    metrics, figures = end_to_end(workload, plain, setup)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "config": workload.config(), "loop": "closed, one caller",
        "units": [{"seed": u.seed, "wall_s": u.wall_s, "probe_ms": u.probe_ms,
                   "items": u.items,
                   "extra": u.extra, "traced": traced_flag}
                  for group, traced_flag in ((plain, False), (traced, True)) for u in group],
        "setup_walls_s": [w for w, _ in setup],
        "setup_probe_ms": [p for _, p in setup], "environment": env,
        "end_to_end": metrics, "figures": figures,
    }
    if trace:
        layers, more = layer_metrics(workload, tracer, plain, traced)
        problems += more
        record["per_layer"] = layers
        tracer.dump(STATE / "results" / f"{name}-seed{seed}.spans.jsonl")
    record["problems"] = problems
    record["attempted"] = sum(unit.attempted for unit in units)
    record["failed"] = sum(unit.failed for unit in units)
    return record


def result_line(record: dict) -> dict:
    if record["trace"]:
        units = per_layer_names()
        values = record["per_layer"]
    else:
        units = END_TO_END
        values = record["end_to_end"]
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["classify", "ingest", "fuzz"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hostprobe import pin_to_one_cpu

    pin_to_one_cpu()

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    line = result_line(record)
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(record['units'])} units, "
          f"environment {json.dumps(record['environment'], sort_keys=True)}")
    for name, (value, unit) in sorted(record["figures"].items()):
        print(f"  {name:28s} {value:14.6g} {unit}")
    for name, metric in line["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
