"""The benchmark's own tests, on smoke-sized op lists.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_names_every_workload():
    assert sorted(WORKLOAD_NAMES) == sorted(run.WORKLOADS)


def _printed(lines, name, unit):
    return any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)


def _check_metrics(lines, result, spec_metrics):
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert _printed(lines, name, unit), (name, lines)
    assert _printed(lines, "failed_op_ratio", "ratio"), lines


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(name):
    lines, result = run.run(name, seed=1, seconds=0.1, trace=False, smoke=True)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    _check_metrics(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _printed(lines, "op_p50_ms", "ms") and _printed(lines, "op_tail_ms", "ms"), lines


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_smoke_run_prints_every_per_layer_metric(name):
    lines, result = run.run(name, seed=1, seconds=0.1, trace=True, smoke=True)
    assert result["correct"], lines
    _check_metrics(lines, result, SPEC["per_layer"])


def _count_metrics(result):
    metrics = result["metrics"].items()
    return {name: m["value"] for name, m in metrics if m["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("name", ["corpus", "witness-roundtrip"])
def test_traced_counts_repeat_exactly(name):
    _, first = run.run(name, seed=7, seconds=0.1, trace=True, smoke=True)
    _, second = run.run(name, seed=7, seconds=0.1, trace=True, smoke=True)
    assert _count_metrics(first) == _count_metrics(second)
    assert first["attempted"] == second["attempted"]


def test_corpus_trace_sees_the_repeated_verdicts():
    _, result = run.run("corpus", seed=1, seconds=0.1, trace=True, smoke=True)
    assert result["metrics"]["deciders.repeat_calls"]["value"] > 0


def test_wrong_expected_verdict_is_a_failed_op(monkeypatch):
    changed = list(workloads.ENVELOPE_HOLDS)
    index = next(i for i, r in enumerate(changed) if r[0] in workloads.ENVELOPE_SMOKE)
    ring, prop, envelope, _ = changed[index]
    changed[index] = (ring, prop, envelope, "fails")
    monkeypatch.setattr(workloads, "ENVELOPE_HOLDS", changed)
    lines, result = run.run("envelope-holds", seed=1, seconds=0.1, trace=False, smoke=True)
    assert not result["correct"]
    assert result["failed"] > 0
    ratio = next(line for line in lines if line.split()[0] == "failed_op_ratio")
    assert float(ratio.split()[1]) > 0


def test_wrong_expected_exit_code_is_a_failed_op(monkeypatch):
    ring, prop, deg, budget, _ = workloads.WITNESS_REQUESTS[0]
    changed = [(ring, prop, deg, budget, "holds")] + workloads.WITNESS_REQUESTS[1:]
    monkeypatch.setattr(workloads, "WITNESS_REQUESTS", changed)
    _, result = run.run("witness-roundtrip", seed=1, seconds=0.1, trace=False, smoke=True)
    assert result["failed"] >= 1


def test_relabelling_moves_the_zero_and_is_seeded():
    rng = workloads._rng("w", 3, 0, 5)
    perm = workloads._permutation(16, 0, rng)
    assert sorted(perm) == list(range(16)) and perm[0] != 0
    again = workloads._permutation(16, 0, workloads._rng("w", 3, 0, 5))
    assert perm == again


def test_tail_percentile_leaves_ten_ops_beyond():
    assert run.tail([float(i) for i in range(19)]) is None
    assert run.tail([float(i) for i in range(20)]) == (50.0, 9.0)
    pct, value = run.tail([float(i) for i in range(1000)])
    assert pct == 99.0 and value == 989.0
