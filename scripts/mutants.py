"""Check that the tests kill seeded faults (mutants) of the program.

    python3 scripts/mutants.py

Run it from a source checkout.  Each mutant gives a file of the checkout,
the exact text it replaces (found exactly once), the text put in its place
and the tests that must fail.  For each mutant in turn the script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a fresh temporary
directory, applies the mutant to the copy and runs its tests there with
pytest.  The mutant is killed when every named test fails in at least one
of its cases.  Before the mutants, the named tests run once on an unchanged
copy, where they must pass.

A mutant listed with ``survives`` is one the tests are known not to kill,
with the reason.  The script prints one line per mutant and a summary, and
exits 1 if a mutant's old text is not found exactly once, if the unchanged
copy fails, if a mutant survives that should not, or if an expected
survivor is killed (so the list says what the tests do).  Nothing is
fetched; it runs offline, one pytest process at a time.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECIDERS = "src/skewarm/deciders.py"
RINGS = "src/skewarm/rings.py"
CORPUS = "src/skewarm/corpus.py"

ECHELON = "tests/test_rank.py::test_echelon_spans_the_null_space_of_every_matrix_of_a_batch"
SPECIAL = "tests/test_rank.py::test_echelon_of_zero_single_and_full_rank_batches"
GROWTH = "tests/test_rank.py::test_echelon_holds_entries_grown_before_their_column_is_reduced"
KERNEL = "tests/test_rank.py::test_null_spaces_span_the_brute_force_kernel"
SWEEP = "tests/test_rank.py::test_screen_matches_the_kernel_on_every_endomorphism"
COUNTS = "tests/test_rank.py::test_screen_counts_of_two_statements_on_one_twist_are_pinned_and_repeat"
BASIS = "tests/test_rank.py::test_fp_vector_spaces_get_a_basis_wherever_the_zero_sits"
HARNESS = "tests/test_corpus.py::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: str | None = None  # why the tests cannot kill it


MUTANTS = [
    # the elimination (_RankScreen._echelon)
    Mutant(
        "column-not-reduced",  # no reduction mod p after the updates reach a column
        DECIDERS,
        "            if p > 2:\n                col %= p\n",
        "",
        (ECHELON, SPECIAL, KERNEL),
    ),
    Mutant(
        "pivot-from-a-taken-row",
        DECIDERS,
        "cand = (col != 0) & free",
        "cand = col != 0",
        (ECHELON, SPECIAL, KERNEL),
    ),
    Mutant(
        "pivot-row-not-normalised",
        DECIDERS,
        "row = row % p * self.inverse[row[:, 0]][:, None] % p",
        "row = row % p",
        (ECHELON, SPECIAL, KERNEL),
    ),
    Mutant(
        "only-rows-below-the-pivot-reduced",
        DECIDERS,
        "x[:, c:] += row[:, :, None] * (p - col)[:, None, :]",
        "x[:, c:] += row[:, :, None] * ((p - col) * (np.arange(col.shape[1]) > r[:, None]))[:, None, :]",
        (ECHELON, SPECIAL, KERNEL),
    ),
    Mutant(
        "only-rows-below-the-pivot-reduced-over-f2",
        DECIDERS,
        "x[:, c:] ^= row[:, :, None] & col[:, None, :]",
        "x[:, c:] ^= row[:, :, None] & (col & (np.arange(col.shape[1]) > r[:, None]))[:, None, :]",
        (ECHELON, SPECIAL, KERNEL),
    ),
    Mutant(
        "echelon-form-not-reduced",  # the result returned unreduced mod p
        DECIDERS,
        "return (x[at[:, None], :, pivot] % p).astype(self.least)",
        "return x[at[:, None], :, pivot].astype(self.least)",
        # null_spaces and _witnessed reduce what they read mod p
        (ECHELON, SPECIAL),
    ),
    Mutant(
        "working-dtype-without-column-growth",  # sized for one step's growth
        DECIDERS,
        "np.min_scalar_type(p - 1 + cols * p * (p - 1))",
        "np.min_scalar_type(p - 1 + p * (p - 1))",
        (GROWTH,),
    ),
    Mutant(
        "working-dtype-of-the-stores",
        DECIDERS,
        "dtype = bool if p == 2 else np.min_scalar_type(p - 1 + cols * p * (p - 1))",
        "dtype = bool if p == 2 else self.least",
        (GROWTH,),
    ),
    # building H(p) and K(p)
    Mutant(
        "block-at-p-coefficient",  # an H(p) block at product coefficient i, not i + j
        DECIDERS,
        "hyp[:, j, :, x, i + j] = block",
        "hyp[:, j, :, x, i] = block",
        (KERNEL, SWEEP),
    ),
    Mutant(
        "conclusion-stacked-across-columns",
        DECIDERS,
        "for t in twists], axis=2)",
        "for t in twists], axis=1)",
        (SWEEP,),
    ),
    # which p the screen tests, and the store of their null spaces
    Mutant(
        "every-f_p-multiple-screened",  # no quotient by F_p^×
        DECIDERS,
        "return allowed[self.canonical[allowed]]",
        "return allowed",
        (COUNTS,),
    ),
    Mutant(
        "null-space-key-without-amin",
        DECIDERS,
        "key = (amin, lq, ps.shape[1], ps.tobytes())",
        "key = (lq, ps.shape[1], ps.tobytes())",
        (SWEEP, "tests/test_oracle.py", "tests/test_shared_tables.py"),
        survives=(
            "amin is nonzero only for automorphisms (Laurent and series windows), where the "
            "null space of the sandwich H(p) is the same at every lowest exponent, since k runs "
            "over a whole period; no test can tell, and the key keeps it"
        ),
    ),
    # the walk of (R,+) (rings._additive_walk)
    Mutant(
        "f_p-rule-without-the-run-ending-at-zero",  # orders alone taken for F_p^m
        RINGS,
        "runs.add((len(multiples), x == zero))",
        "runs.add((len(multiples), True))",
        ("tests/test_rank.py::test_orders_alone_do_not_make_an_fp_vector_space",),
    ),
    Mutant(
        "coset-block-transposed",  # each element's position no longer its coordinates
        RINGS,
        "span = add[np.array(multiples)[:, None], span].ravel()",
        "span = add[span[:, None], np.array(multiples)].ravel()",
        (BASIS,),
    ),
    Mutant(
        "zero-not-first-among-the-generators",
        RINGS,
        "gens, runs = [zero] if zero == 0 else [], set()",
        "gens, runs = [], set()",
        (
            "tests/test_carrier_arrays.py::test_stored_arrays_are_the_validated_tables",
            "tests/test_kernel.py::test_zero_among_the_greedy_generators_is_dropped",
        ),
    ),
    # the corpus harness: its comparisons, its replay and its witness map
    Mutant(
        "expectation-always-met",
        CORPUS,
        "ok = verdict.holds == exp.holds",
        "ok = True",
        (HARNESS + "test_a_flipped_expectation_fails",),
    ),
    Mutant(
        "recorded-witness-never-replayed",
        CORPUS,
        "        if exp.confirm_witness is not None:\n",
        "        if False:\n",
        (HARNESS + "test_a_tampered_recorded_witness_is_rejected",),
    ),
    Mutant(
        "replay-failure-recorded-as-a-pass",
        CORPUS,
        'rep.record(False, f"{failed}: {err}")',
        'rep.record(True, f"{failed}: {err}")',
        (
            HARNESS + "test_every_relation_records_a_witness_that_fails_to_replay",
            HARNESS + "test_a_tampered_recorded_witness_is_rejected",
        ),
    ),
    Mutant(
        "transport-never-diverges",
        CORPUS,
        "ok = moved.holds == originals[prop].holds",
        "ok = True",
        (HARNESS + "test_a_transport_that_changes_the_twist_diverges",),
    ),
    Mutant(
        "transport-not-mapping-q",
        CORPUS,
        "_moved(originals[prop].witness, sigma.apply, sigma.apply)",
        "_moved(originals[prop].witness, sigma.apply, lambda c: c)",
        (
            HARNESS + "test_transport_consistency_small",
            HARNESS + "test_transport_summary_counts_seeds_given_as_an_iterator",
            "tests/test_acceptance.py::test_criterion_4_transport",
            "tests/test_cli.py::test_corpus_all_quick",
            "tests/test_cli.py::test_corpus_at_a_huge_degree_finds_its_feasible_degrees",
        ),
    ),
    Mutant(
        "sides-always-agree",  # the Laurent window and the Laurent series
        CORPUS,
        "rep.record(vl.holds == vr.holds,",
        "rep.record(True,",
        (
            HARNESS + "test_a_laurent_verdict_that_disagrees_fails",
            HARNESS + "test_a_laurent_series_verdict_that_disagrees_fails",
        ),
    ),
    Mutant(
        "laurent-shift-without-the-twist",  # p's coefficients not sent through alpha^m
        CORPUS,
        "lambda c: alpha.power_apply(m, c), lambda c: c, m, t",
        "lambda c: c, lambda c: c, m, t",
        (HARNESS + "test_the_laurent_shift_twists_p_and_moves_both_exponents",),
    ),
    Mutant(
        "q-exponent-not-moved",
        CORPUS,
        "q_min=w.q_min + t,",
        "q_min=w.q_min,",
        (
            HARNESS + "test_a_laurent_verdict_that_disagrees_fails",
            HARNESS + "test_the_laurent_shift_twists_p_and_moves_both_exponents",
            "tests/test_acceptance.py::test_criterion_3_implication_matrix",
            "tests/test_acceptance.py::test_criterion_5_laurent_and_series_consistency",
        ),
    ),
]

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+?)(?:\[| |$)", re.MULTILINE)


def copy_checkout(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def failing_tests(where: Path, tests) -> set[str]:
    """The named tests (node ids without parameters, or files) with a case
    that fails or errors when run in ``where``."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=where,
        capture_output=True,
        text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    if run.returncode not in (0, 1):  # no test failed, but pytest could not run them
        return set(tests)
    failed = FAILED.findall(run.stdout)
    return {t for t in tests if any(f == t or f.startswith(t + "::") for f in failed)}


def main() -> int:
    bad = 0
    for m in MUTANTS:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"{m.name}: old text found {count} times in {m.path}")
            bad += 1
    if bad:
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "unchanged"
        copy_checkout(base)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        broken = failing_tests(base, tests)
        if broken:
            print(f"the unchanged copy fails: {sorted(broken)}")
            return 1
        killed = expected = 0
        for i, m in enumerate(MUTANTS):
            where = Path(tmp) / f"mutant{i}"
            copy_checkout(where)
            target = where / m.path
            target.write_text(
                target.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8"
            )
            missed = set(m.tests) - failing_tests(where, m.tests)
            shutil.rmtree(where)
            if not missed:
                killed += 1
                verdict = "killed" + (" (listed as a survivor)" if m.survives else "")
                bad += m.survives is not None
            elif m.survives:
                expected += 1
                verdict = f"survives, as expected: {m.survives}"
            else:
                verdict = f"SURVIVES: these tests pass: {sorted(missed)}"
                bad += 1
            print(f"{m.name}: {verdict}", flush=True)
    print(
        f"{len(MUTANTS)} mutants: {killed} killed, {expected} expected survivors, "
        f"{bad} wrong, in {time.perf_counter() - start:.0f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
