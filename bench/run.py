"""skewarm benchmark: one workload per run, from a single process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are made from ``--seed``.  Every op's outcome is checked
against its frozen expectation (``workloads.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of several
set-ups: a fresh import of the package plus the inputs of the first pass),
``wall_s`` (median time of one pass over the op list), ``op_p50_ms``,
``op_tail_ms`` (the highest of p50/p75/p90/p95/p99/p99.9 with at least ten
ops beyond it) and ``peak_rss_mb``; the result object carries
``BOUNDED_E2E``.  Passes repeat, each on fresh inputs, while the next is
expected to end within ``--seconds`` and at least until ``MIN_OPS`` ops were
timed, so the tail percentile is always defined.

``--trace 1`` runs one untraced pass, then one traced set-up and pass with
spans at the program's public boundaries (``tracing.py``), writes the spans
to ``.bench_work/trace-<workload>-<seed>.jsonl`` and reports the per-layer
metrics, with ``trace.overhead_s`` = traced pass minus untraced pass.
"""

from __future__ import annotations

import os

# Single-threaded numpy/BLAS, for this process only; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SKEWARM_TUPLE_BUDGET", None)  # the default budget is part of every workload

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
MIN_OPS = 20
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODULES = ("rings", "skewpoly", "deciders", "formats", "corpus", "cli")
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Only these enter the result object (and BENCHMARK.json).  Op latencies are
# printed but not bounded: on corpus, envelope-holds and carrier-build the
# median op is one of a few ops of very different sizes, and which one it is
# changes from run to run.
BOUNDED_E2E = ("setup_s", "wall_s", "peak_rss_mb")


class ProgramMissing(Exception):
    """The checkout has no ``src/skewarm`` to benchmark."""


def program_init() -> Path:
    init = ROOT / "src" / "skewarm" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program at {init.relative_to(ROOT)}")
    return init


def load_program():
    """Import the package afresh from ``src/`` (dropping any earlier import)."""
    init = program_init()
    src = str(init.parent.parent)
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m.split(".")[0] == "skewarm"]:
        del sys.modules[name]
    package = importlib.import_module("skewarm")
    if Path(package.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported skewarm from {package.__file__}, not from src/")
    modules = {name: importlib.import_module(f"skewarm.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **modules)


def run_pass(ops, tracer=None):
    """Run one op list; returns (wall seconds, per-op seconds, failures).

    Garbage left by earlier set-ups and passes is collected before the clock
    starts, so every pass begins from the same heap state."""
    latencies, failures = [], []
    gc.collect()
    start = perf_counter()
    for label, op in ops:
        if tracer is not None:
            tracer.op = label
        t0 = perf_counter()
        try:
            reason = op()
        except Exception as exc:  # an op that raises is a failed op, never retried
            reason = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latencies.append(perf_counter() - t0)
        if reason is not None:
            failures.append(f"{label}: {reason}")
    return perf_counter() - start, latencies, failures


def tail(latencies) -> tuple[float, float] | None:
    """(percentile, value) of the highest listed percentile that leaves at
    least ten ops beyond it, or None when there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)  # nearest rank, 1-based
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload, seed, workdir, smoke):
    """Several timed set-ups; returns (median seconds, program, first ops)."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        prog = load_program()
        ops = workload.prepare(prog, seed, 0, workdir, smoke)
        times.append(perf_counter() - t0)
    return statistics.median(times), prog, ops


def measure(workload, seed, seconds, workdir, smoke=False):
    """End-to-end run: set-up, then passes on fresh inputs until the time or
    at least MIN_OPS ops are used."""
    setup_s, prog, ops = set_up(workload, seed, workdir, smoke)
    if not ops:
        raise ValueError(f"workload {workload.name} has no ops")
    walls, latencies, failures = [], [], []
    start = perf_counter()
    while True:
        wall, lat, failed = run_pass(ops)
        walls.append(wall)
        latencies += lat
        failures += failed
        expected_end = perf_counter() - start + statistics.median(walls)
        if len(latencies) >= MIN_OPS and expected_end > seconds:
            break
        ops = workload.prepare(prog, seed, len(walls), workdir, smoke)
    ordered = sorted(latencies)
    pct, tail_s = tail(ordered)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(ordered) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "wall_s": f"median of {len(walls)} pass(es), {len(ops)} ops each",
        "op_p50_ms": f"{len(ordered)} ops",
        "op_tail_ms": f"p{pct:g}, {len(ordered)} ops",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
    }
    return metrics, notes, len(latencies), failures


def measure_traced(workload, seed, workdir, smoke=False):
    """One untraced pass, then one traced set-up and pass on the same inputs."""
    prog = load_program()
    plain_wall, lat, failures = run_pass(workload.prepare(prog, seed, 0, workdir, smoke))
    attempted = len(lat)

    prog = load_program()
    tracer = tracing.Tracer(prog)
    tracer.install()
    try:
        ops = workload.prepare(prog, seed, 0, workdir, smoke)
        traced_wall, lat, failed = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    attempted += len(lat)
    failures += failed
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics, tracer, attempted, failures


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def run(workload_name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (lines to print, result object)."""
    workload = WORKLOADS[workload_name]
    program_init()
    workdir = ROOT / ".bench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            values, tracer, attempted, failures = measure_traced(workload, seed, workdir, smoke)
            trace_path = ROOT / ".bench_work" / f"trace-{workload_name}-{seed}.jsonl"
            tracer.write(trace_path)
            units = {name: unit_of(name) for name in values}
            reported = list(values)
            where = trace_path.relative_to(ROOT)
            notes = {"trace.overhead_s": f"{len(tracer.spans)} spans in {where}"}
            for name in tracer.missing:
                print(f"warning: boundary {name} not found, not traced", file=sys.stderr)
        else:
            values, notes, attempted, failures = measure(workload, seed, seconds, workdir, smoke)
            units = dict(E2E_UNITS)
            reported = BOUNDED_E2E
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    lines = [f"workload {workload_name}, seed {seed}, trace {int(trace)}"]
    for name, value in values.items():
        note = notes.get(name)
        line = f"  {name:<26} {value:>14.6g} {units[name]:<6}"
        lines.append(line + (f"  ({note})" if note else ""))
    ratio = len(failures) / attempted
    lines.append(
        f"  {'failed_op_ratio':<26} {ratio:>14.6g} ratio   ({len(failures)} of {attempted} ops)"
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="skewarm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
