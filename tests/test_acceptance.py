"""Acceptance suite: one test per criterion, each printing a pass line with
its measured runtime.  Witness-reproduction criteria replay every recorded
certificate through the public arithmetic; consistency criteria must report
zero violations."""

import itertools
import random
import time

from skewarm import (
    PropertyId,
    Witness,
    check_armendariz_family,
    forall_sandwich_zero,
    identity_endomorphism,
    make_zmod,
    replay_witness,
    sandwich,
    skew_mul,
    skew_poly,
    twisted_chain_product,
    zero_endomorphism,
)
from skewarm.corpus import (
    all_entries,
    entry_by_name,
    run_implication_matrix,
    run_laurent_consistency,
    run_series_consistency,
    run_transport_consistency,
)
from skewarm.deciders import DEFAULT_TUPLE_BUDGET

Q_SKEW = PropertyId.Q_ALPHA_SKEW_ARMENDARIZ


def _stamp(n, started, note):
    print(f"ACCEPTANCE {n} PASS ({time.perf_counter() - started:.1f}s): {note}")


def test_criterion_1_example2_reproduction():
    started = time.perf_counter()
    entry = entry_by_name("example2")
    ring, alpha = entry.ring, entry.endo

    verdict = check_armendariz_family(ring, alpha, 1, Q_SKEW)
    assert not verdict.holds
    w = verdict.witness
    p = skew_poly(ring, alpha, w.p_coeffs)
    q = skew_poly(ring, alpha, w.q_coeffs)
    for r in range(16):
        for k in (0, 1):
            assert sandwich(p, r, k, q).is_zero
    i, j = w.pair
    r, e = w.monomial
    value = ring.mul(ring.mul(p.coefficient(i), r), alpha.power_apply(e, q.coefficient(j)))
    assert value == w.offending and value != ring.zero
    replay_witness(ring, alpha, Q_SKEW, w)

    # the classical pair p = q = (2,0)+(2,1)x is itself a witness with
    # offending value (0,2): indices (2,0)=8, (2,1)=9, (1,0)=4, (0,2)=2
    classical = Witness(
        kind="poly", p_coeffs=(8, 9), q_coeffs=(8, 9), pair=(1, 0),
        monomial=(4, 1), offending=2,
    )
    replay_witness(ring, alpha, Q_SKEW, classical)
    assert ring.element_labels[2] == "(0,2)"

    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0
    _stamp(1, started, "16-element extension fails the quasi-skew check at degree 1, witnesses replay")


def test_criterion_2_example1_reproduction():
    started = time.perf_counter()
    entry = entry_by_name("example1")
    ring, alpha = entry.ring, entry.endo

    from skewarm import is_reduced

    assert is_reduced(ring).holds
    for d in (1, 2):
        verdict = check_armendariz_family(ring, alpha, d, PropertyId.ALPHA_SKEW_ARMENDARIZ)
        assert not verdict.holds
        replay_witness(ring, alpha, verdict.prop, verdict.witness)
    assert check_armendariz_family(ring, alpha, 2, Q_SKEW).holds

    elapsed = time.perf_counter() - started
    assert elapsed <= 5.0
    _stamp(2, started, "swap ring is reduced, fails skew-Armendariz, holds quasi-skew up to degree 2")


def test_criterion_3_implication_matrix():
    started = time.perf_counter()
    report = run_implication_matrix(degree=2)
    assert report.ok, "\n".join(l for l in report.lines if l.startswith("FAIL"))
    rows = [l for l in report.lines if "=>" in l]
    assert rows, "no implication hypothesis was established anywhere"
    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0
    _stamp(3, started, f"zero violations across {len(rows)} established implication rows at degree 2")


def test_criterion_4_transport():
    started = time.perf_counter()
    for entry in all_entries():
        report = run_transport_consistency(entry, seeds=range(20), degree=1)
        assert report.ok, "\n".join(l for l in report.lines if l.startswith("FAIL"))
    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0
    _stamp(4, started, "verdicts invariant under 20 seeded relabelings per entry, all four properties")


def test_criterion_5_laurent_and_series_consistency():
    started = time.perf_counter()
    checked = 0
    for entry in all_entries():
        if entry.exploratory:
            # 25-element carrier: the degree-2 window exceeds the tuple budget
            size = entry.ring.size ** 6
            assert size > DEFAULT_TUPLE_BUDGET
            continue
        if not entry.endo.is_automorphism:
            continue
        report = run_laurent_consistency(entry, degree=2)
        assert report.ok, "\n".join(report.lines)
        report = run_series_consistency(entry, truncation=3)
        assert report.ok, "\n".join(report.lines)
        checked += 1
    assert checked == 6
    _stamp(5, started, "plain/Laurent deciders agree under the shift mapping on all six eligible entries")


def test_criterion_6_sandwich_oracle_equivalence():
    started = time.perf_counter()
    small = [e for e in all_entries() if e.ring.size <= 4]
    assert {e.name for e in small} == {"example1", "example5_r2", "gf4_frobenius"}
    agreements = 0
    for entry in small:
        ring, alpha = entry.ring, entry.endo
        bound = alpha.preperiod + alpha.period
        polys = [
            skew_poly(ring, alpha, c)
            for c in itertools.product(range(ring.size), repeat=2)
        ]
        hs = [
            skew_poly(ring, alpha, c)
            for c in itertools.product(range(ring.size), repeat=bound + 1)
        ]
        for p in polys:
            for q in polys:
                brute = all(skew_mul(skew_mul(p, h), q).is_zero for h in hs)
                assert forall_sandwich_zero(p, q) == brute
                agreements += 1
    _stamp(6, started, f"monomial reduction agrees with the free-coefficient oracle on {agreements} pairs")


def test_criterion_7_arithmetic_laws():
    started = time.perf_counter()
    z4 = make_zmod(4)
    pairs = [
        (z4, identity_endomorphism(z4)),
        (z4, zero_endomorphism(z4)),
    ]
    for entry in all_entries():
        if entry.ring.size <= 4:
            pairs.append((entry.ring, entry.endo))
    for ring, alpha in pairs:
        polys = [
            skew_poly(ring, alpha, c)
            for c in itertools.product(range(ring.size), repeat=2)
        ]
        for p, q, h in itertools.product(polys, repeat=3):
            assert (p * q) * h == p * (q * h)
            assert p * (q + h) == p * q + p * h

    rng = random.Random(1729)
    mismatches = 0
    rings = {n: make_zmod(n) for n in (2, 3, 4, 5, 6)}
    ids = {n: identity_endomorphism(rings[n]) for n in rings}
    for _ in range(10_000):
        n = rng.choice(list(rings))
        a = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
        b = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
        got = list(skew_mul(skew_poly(rings[n], ids[n], a), skew_poly(rings[n], ids[n], b)).coeffs)
        want = [0] * (max(len(a) + len(b) - 1, 0))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] = (want[i + j] + x * y) % n
        while want and want[-1] == 0:
            want.pop()
        if got != want:
            mismatches += 1
    assert mismatches == 0
    _stamp(7, started, "associativity/distributivity exhaustive at degree 1; 10000 identity-twist cases match")


def test_criterion_8_coefficient_chains():
    started = time.perf_counter()
    checked, skipped = [], []
    for entry in all_entries():
        ring, alpha = entry.ring, entry.endo
        if ring.size ** 6 > DEFAULT_TUPLE_BUDGET:
            skipped.append(entry.name)
            continue
        if not check_armendariz_family(ring, alpha, 1, PropertyId.ALPHA_SKEW_ARMENDARIZ).holds:
            continue
        polys = [
            skew_poly(ring, alpha, c)
            for c in itertools.product(range(ring.size), repeat=2)
        ]
        for p1 in polys:
            for p2 in polys:
                g = p1 * p2
                for p3 in polys:
                    if not (g * p3).is_zero:
                        continue
                    for idx in itertools.product(
                        range(len(p1.coeffs)), range(len(p2.coeffs)), range(len(p3.coeffs))
                    ):
                        value = twisted_chain_product([p1, p2, p3], list(idx))
                        assert value.index == ring.zero
        checked.append(entry.name)
    assert checked, "no entry passed the skew-Armendariz hypothesis"
    assert skipped == ["example3_analogue"]  # 25^6 tuples exceed the budget
    _stamp(
        8,
        started,
        f"all coefficient chains vanish on zero triples for {', '.join(checked)} "
        f"(skipped over budget: {', '.join(skipped)})",
    )
