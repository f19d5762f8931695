"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 scripts/bench_pair.py PARENT CHANGE --out BENCH_<n>.json \
        [--pairs 10] [--seconds 20] [--first-seed 1] [--workloads a,b,...]

PARENT and CHANGE are the roots of two source checkouts.  Each runs its own
``bench/run.py``, unchanged, as a separate process from its own root.  Pair
i uses seed ``first-seed + i`` on both sides; even pairs run the parent
first and odd pairs the change, so a drift of the machine's speed over a
pair does not always favour one side.  After the pairs, each side makes one
traced run (``--trace 1``) on the first seed, for the per-layer counts.

The output file holds, per workload:

- ``runs``: every pair, with its seed, which side ran first, and each
  side's bounded metrics and failed/attempted op counts;
- ``metrics``: for each end-to-end metric of ``BENCHMARK.json``, each
  side's median and quartiles (``statistics.quantiles``, inclusive
  method), the pairs the change won and tied, whether that is a gain
  (the change wins at least nine tenths of the pairs, and the medians
  differ by more than the parent's interquartile range) and whether it is
  a regression (the change's median is worse than the parent's by more
  than the metric's bound, taken relative to the parent's median);
- ``failed`` and ``attempted``: each side's op totals over the pairs, and
  ``failed_share_rose``: whether the change failed a larger share of its
  attempted ops than the parent;
- ``counts``: each side's deterministic traced counts (every per-layer
  metric in ``count`` units), whether the two sides agree on them and,
  in ``differ``, each count they disagree on with both values (null on a
  side that has no such count); these are printed as ``name parent ->
  change``.

Before the first pair, both sides' ``src/`` and ``bench/`` are put in one
bytecode state, which ``bytecode`` records as ``compile``: every
``__pycache__`` there is deleted and each module compiled afresh with this
interpreter.  A side that held compiled modules while the other did not
would otherwise differ in set-up time and memory, most of all when
bytecode writing is off (``PYTHONDONTWRITEBYTECODE``) and every process
compiles again.

Each side is named by the SHA-256 of its ``src/`` files, so the summary
says which code was measured, and ``machine`` records where: the Python and
numpy versions of the interpreter that runs both sides, ``os.cpu_count()``
and ``platform.platform()``.  The script stops at the first run that prints
no result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def source_digest(root: Path) -> str:
    """SHA-256 over the relative paths and contents of the files under src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def compile_fresh(root: Path) -> None:
    """Delete every ``__pycache__`` under ``src/`` and ``bench/``, then
    compile each module there with this interpreter."""
    for sub in (root / "src", root / "bench"):
        for cache in sorted(sub.rglob("__pycache__")):
            shutil.rmtree(cache)
        if not compileall.compile_dir(sub, quiet=1, force=True):
            raise RuntimeError(f"{sub}: a module does not compile")


def machine() -> dict:
    """The interpreter and host that run both sides."""
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``bench/run.py`` process; returns its result object (last line)."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{root}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(spec: dict, runs: list[dict]) -> dict:
    """The two sides' spread, the change's wins and the gain and regression
    tests for one end-to-end metric over every pair."""
    name, lower = spec["name"], spec["better"] == "lower"
    values = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
    wins = ties = 0
    for old, new in zip(values["parent"], values["change"]):
        if old == new:
            ties += 1
        elif (new < old) == lower:
            wins += 1
    parent, change = quartiles(values["parent"]), quartiles(values["change"])
    gain = change["median"] - parent["median"]
    worse = gain if lower else -gain
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "change_wins": wins,
        "ties": ties,
        "pairs": len(runs),
        "gain": wins >= 0.9 * len(runs) and abs(gain) > parent["q3"] - parent["q1"] and worse < 0,
        "regression": worse > spec["bound"] * parent["median"],
    }


def failed_share_rose(failed: dict, attempted: dict) -> bool:
    """Whether failed/attempted is larger for the change than for the parent
    (compared exactly, by cross-multiplying)."""
    return failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]


def traced_counts(root: Path, workload: str, seed: int) -> dict:
    result = run_bench(root, workload, seed, 0, trace=True)
    return {
        name: metric["value"]
        for name, metric in sorted(result["metrics"].items())
        if metric["unit"] == "count"
    }


def differing_counts(counts: dict) -> dict:
    """Each traced count on which the two sides differ, with both values."""
    names = sorted(counts["parent"].keys() | counts["change"].keys())
    values = {name: {side: counts[side].get(name) for side in SIDES} for name in names}
    return {name: v for name, v in values.items() if v["parent"] != v["change"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--out", type=Path, required=True, help="summary JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default: every workload")
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = [args.first_seed + i for i in range(args.pairs)]
    for side in SIDES:
        compile_fresh(roots[side])
    out = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "bytecode": "compile",
        "machine": machine(),
        "source_sha256": {side: source_digest(roots[side]) for side in SIDES},
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                result = run_bench(roots[side], workload, seed, args.seconds, trace=False)
                run[side] = {
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    "failed": result["failed"],
                    "attempted": result["attempted"],
                }
            runs.append(run)
            print(f"{workload} seed {seed} done", file=sys.stderr)
        counts = {side: traced_counts(roots[side], workload, seeds[0]) for side in SIDES}
        failed = {side: sum(r[side]["failed"] for r in runs) for side in SIDES}
        attempted = {side: sum(r[side]["attempted"] for r in runs) for side in SIDES}
        out["workloads"][workload] = {
            "metrics": {m["name"]: summarise(m, runs) for m in spec["end_to_end"]},
            "failed": failed,
            "attempted": attempted,
            "failed_share_rose": failed_share_rose(failed, attempted),
            "counts": {
                **counts,
                "equal": counts["parent"] == counts["change"],
                "differ": differing_counts(counts),
            },
            "runs": runs,
        }
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for workload, entry in out["workloads"].items():
        for name, m in entry["metrics"].items():
            p, c = m["parent"], m["change"]
            print(
                f"{workload:<18} {name:<12} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                f"  wins {m['change_wins']}/{m['pairs']}"
                f"{'  GAIN' if m['gain'] else ''}{'  REGRESSION' if m['regression'] else ''}"
            )
        print(f"{workload:<18} counts equal: {entry['counts']['equal']}")
        for name, v in entry["counts"]["differ"].items():
            print(f"{workload:<18} {name} {v['parent']} -> {v['change']}")
        failed, attempted = entry["failed"], entry["attempted"]
        shares = "  ".join(f"{side} {failed[side]}/{attempted[side]}" for side in SIDES)
        rose = "  FAILED SHARE ROSE" if entry["failed_share_rose"] else ""
        print(f"{workload:<18} failed ops: {shares}{rose}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
