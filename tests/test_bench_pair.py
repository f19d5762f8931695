"""scripts/bench_pair.py: pairing order, the summary statistics and the
gain and regression tests, run against stub checkouts."""

import importlib.util
import json
import os
import platform
import textwrap
from pathlib import Path

import numpy as np

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "scripts" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def _runs(parent, change):
    return [
        {"parent": {"metrics": {"wall_s": p}}, "change": {"metrics": {"wall_s": c}}}
        for p, c in zip(parent, change)
    ]


def test_quartiles_inclusive():
    assert bench_pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pair.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_spread():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    faster = [p - 0.5 for p in parent]
    m = bench_pair.summarise(WALL, _runs(parent, faster))
    assert (m["change_wins"], m["ties"], m["gain"], m["regression"]) == (10, 0, True, False)
    # eight wins of ten is not enough
    m = bench_pair.summarise(WALL, _runs(parent, faster[:8] + parent[8:]))
    assert (m["change_wins"], m["ties"], m["gain"]) == (8, 2, False)
    # a gap inside the parent's interquartile range is not a gain
    m = bench_pair.summarise(WALL, _runs(parent, [p - 0.05 for p in parent]))
    assert (m["change_wins"], m["gain"]) == (10, False)


def test_regression_is_relative_to_the_parent_median():
    parent = [1.0] * 10
    assert not bench_pair.summarise(WALL, _runs(parent, [1.2] * 10))["regression"]
    assert bench_pair.summarise(WALL, _runs(parent, [1.3] * 10))["regression"]
    higher = dict(WALL, better="higher")
    m = bench_pair.summarise(higher, _runs(parent, [0.7] * 10))
    assert m["regression"] and m["change_wins"] == 0


STUB = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
wall = {WALL} + int(args["--seed"]) / 100
metrics = {{"wall_s": {{"value": wall, "unit": "s"}}}}
if args["--trace"] == "1":
    metrics = {{name: {{"value": value, "unit": "count"}} for name, value in {COUNTS}.items()}}
with open("../order.log", "a") as fh:  # shared by both stub checkouts
    fh.write(f"{WALL} {{args['--seed']}} {{args['--trace']}}\\n")
print(json.dumps({{"correct": True, "attempted": 3, "failed": {FAILED}, "metrics": metrics}}))
"""


def _stub_checkout(root: Path, wall: float, failed: int = 0, counts=None) -> Path:
    counts = {"rings.build_calls": 5} if counts is None else counts
    (root / "bench").mkdir(parents=True)
    (root / "src" / "skewarm").mkdir(parents=True)
    (root / "src" / "skewarm" / "__init__.py").write_text(f"# {wall}\n")
    stub = STUB.format(WALL=wall, FAILED=failed, COUNTS=counts)
    (root / "bench" / "run.py").write_text(textwrap.dedent(stub))
    spec = {"workloads": [{"name": "w"}], "end_to_end": [WALL]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def test_pairs_alternate_which_side_runs_first(tmp_path, capsys):
    parent = _stub_checkout(tmp_path / "parent", 2.0)
    change = _stub_checkout(tmp_path / "change", 1.0)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--out", str(out), "--pairs", "4", "--first-seed", "11"]
    assert bench_pair.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["seeds"] == [11, 12, 13, 14]
    entry = doc["workloads"]["w"]
    assert [r["first"] for r in entry["runs"]] == ["parent", "change", "parent", "change"]
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == [
        "2.0 11 0", "1.0 11 0", "1.0 12 0", "2.0 12 0",
        "2.0 13 0", "1.0 13 0", "1.0 14 0", "2.0 14 0",
        "2.0 11 1", "1.0 11 1",
    ]
    assert [r["change"]["metrics"]["wall_s"] for r in entry["runs"]] == pytest.approx(
        [1.11, 1.12, 1.13, 1.14]
    )
    wall = entry["metrics"]["wall_s"]
    assert (wall["change_wins"], wall["gain"], wall["regression"]) == (4, True, False)
    assert entry["counts"]["equal"] and entry["counts"]["change"] == {"rings.build_calls": 5}
    assert entry["counts"]["differ"] == {}
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert not entry["failed_share_rose"]
    assert doc["source_sha256"]["parent"] != doc["source_sha256"]["change"]
    assert doc["machine"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
    out = capsys.readouterr().out
    assert "w" in out and "FAILED SHARE ROSE" not in out


def test_a_rise_in_the_failed_op_share_is_flagged(tmp_path, capsys):
    parent = _stub_checkout(tmp_path / "parent", 1.0)
    change = _stub_checkout(tmp_path / "change", 1.0, failed=1)
    out = tmp_path / "BENCH.json"
    assert bench_pair.main([str(parent), str(change), "--out", str(out), "--pairs", "2"]) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["failed"] == {"parent": 0, "change": 2}
    assert entry["attempted"] == {"parent": 6, "change": 6}
    assert entry["failed_share_rose"]
    assert "w                  failed ops: parent 0/6  change 2/6  FAILED SHARE ROSE" in (
        capsys.readouterr().out
    )
    # the share, not the count: more failures out of many more ops is no rise
    assert not bench_pair.failed_share_rose(
        {"parent": 1, "change": 2}, {"parent": 10, "change": 40}
    )
    assert bench_pair.failed_share_rose({"parent": 1, "change": 2}, {"parent": 10, "change": 15})


def test_the_counts_that_differ_are_named_with_both_values(tmp_path, capsys):
    same = {"deciders.holds": 23}
    parent = _stub_checkout(tmp_path / "parent", 1.0, counts={**same, "rings.build_calls": 13})
    change = _stub_checkout(tmp_path / "change", 1.0, counts={**same, "rings.build_calls": 15})
    out = tmp_path / "BENCH.json"
    assert bench_pair.main([str(parent), str(change), "--out", str(out), "--pairs", "1"]) == 0
    counts = json.loads(out.read_text())["workloads"]["w"]["counts"]
    assert not counts["equal"]
    assert counts["differ"] == {"rings.build_calls": {"parent": 13, "change": 15}}
    printed = capsys.readouterr().out
    assert "w                  rings.build_calls 13 -> 15\n" in printed
    assert "deciders.holds" not in printed
    # a count that one side lacks shows as None there
    assert bench_pair.differing_counts({"parent": {"a": 1}, "change": {"a": 1, "b": 2}}) == {
        "b": {"parent": None, "change": 2}
    }


def _caches(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*.pyc"))


def test_both_sides_start_with_fresh_bytecode(tmp_path):
    parent = _stub_checkout(tmp_path / "parent", 2.0)
    change = _stub_checkout(tmp_path / "change", 1.0)
    # a stale cache on one side only, as a test run leaves it
    stale = parent / "src" / "skewarm" / "__pycache__" / "gone.cpython-0.pyc"
    stale.parent.mkdir()
    stale.write_bytes(b"")
    out = tmp_path / "BENCH.json"
    assert bench_pair.main([str(parent), str(change), "--out", str(out), "--pairs", "1"]) == 0
    assert json.loads(out.read_text())["bytecode"] == "compile"
    assert not stale.exists()
    assert _caches(parent) == _caches(change)
    for side in (parent, change):
        for module in ("src/skewarm/__init__.py", "bench/run.py"):
            assert Path(importlib.util.cache_from_source(str(side / module))).exists()
