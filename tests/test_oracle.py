"""Differential test of the search deciders against a reference decider.

The reference uses only the public arithmetic: ``skew_mul`` and
``sandwich`` for the hypothesis, taking every r of R in the monomials
r x^k (not only the additive generators the deciders and the
``forall_sandwich_zero*`` quantifiers take), ``mul`` and ``power_apply``
for the conclusion.  It enumerates every (p, q) pair in the
documented order with its own enumeration and no pruning, so agreement on the
verdict and on the least witness checks the block kernel, the prefix rule and
the enumeration order of ``check_property`` at once.
"""

import itertools
import random

import numpy as np
import pytest

from skewarm import (
    LaurentSkewPoly,
    PropertyId,
    SkewPoly,
    TruncatedSkewSeries,
    Witness,
    check_property,
    identity_endomorphism,
    make_direct_product,
    make_table_ring,
    make_zmod,
    relabel_ring,
    replay_witness,
    sandwich,
    skew_mul,
    table_endomorphism,
    transport,
    zero_endomorphism,
)
from skewarm.corpus import entry_by_name

P = PropertyId
PLAIN_HYP = (P.ARMENDARIZ, P.ALPHA_ARMENDARIZ, P.ALPHA_SKEW_ARMENDARIZ)
FAMILY = PLAIN_HYP + (
    P.QUASI_ARMENDARIZ,
    P.Q_ALPHA_ARMENDARIZ,
    P.Q_ALPHA_SKEW_ARMENDARIZ,
    P.ALPHA_QUASI_ARMENDARIZ,
)


def documented_order(ring, length, exact):
    """Nonzero coefficient tuples grouped by the position of their first
    nonzero coefficient, highest position first, each group in raw
    lexicographic order; ``exact`` keeps those with a nonzero last entry."""
    zero = ring.zero
    found = []
    for t in itertools.product(range(ring.size), repeat=length):
        nonzero = [i for i, c in enumerate(t) if c != zero]
        if nonzero and (not exact or nonzero[-1] == length - 1):
            found.append((-nonzero[0], t))
    return [t for _, t in sorted(found)]


def conclusion_violation(ring, alpha, prop, p_coeffs, p_min, q_coeffs, q_min):
    """First (pair, monomial, offending) in (i, j, t, r) order, or None."""
    zero, mul = ring.zero, ring.mul
    nonzero_r = [r for r in range(ring.size) if r != zero]
    for i, a in enumerate(p_coeffs):
        for j, b in enumerate(q_coeffs):
            if a == zero or b == zero:
                continue
            ei, ej = p_min + i, q_min + j
            if prop in (P.ARMENDARIZ, P.ALPHA_ARMENDARIZ):
                cases = [(None, mul(a, b))]
            elif prop is P.ALPHA_SKEW_ARMENDARIZ:
                cases = [(None, mul(a, alpha.power_apply(ei, b)))]
            else:
                if prop in (P.QUASI_ARMENDARIZ, P.Q_ALPHA_ARMENDARIZ):
                    twists = [0]
                elif prop is P.ALPHA_QUASI_ARMENDARIZ:
                    twists = range(alpha.preperiod + alpha.period)
                else:
                    twists = [ei]
                cases = [
                    ((r, t), mul(mul(a, r), alpha.power_apply(t, b)))
                    for t in twists
                    for r in nonzero_r
                ]
            for mono, v in cases:
                if v != zero:
                    return (ei, ej), mono, v
    return None


def every_sandwich_zero(p, q):
    """Whether p (r x^k) q = 0 for every r in R and every k of one orbit
    window of the twist, each sandwich through ``sandwich``."""
    window = range(p.endo.preperiod + p.endo.period)
    return all(sandwich(p, r, k, q).is_zero for k in window for r in range(p.ring.size))


def reference(ring, alpha, prop, degree=None, window=None, truncation=None, min_exp=None):
    """The least witness of ``prop`` in the envelope, or None if it holds."""
    if prop in FAMILY:
        if prop in (P.ARMENDARIZ, P.QUASI_ARMENDARIZ):
            alpha = identity_endomorphism(ring)
        kind, p_min, q_min, order = "poly", 0, 0, None
        shapes = [
            (documented_order(ring, dp + 1, True), documented_order(ring, dq + 1, True))
            for dp in range(degree + 1)
            for dq in range(degree + 1)
        ]

        def hypothesis(p, q):
            pp, qq = SkewPoly(ring, alpha, p), SkewPoly(ring, alpha, q)
            if prop in PLAIN_HYP:
                return skew_mul(pp, qq).is_zero
            return every_sandwich_zero(pp, qq)

    elif prop is P.LAURENT_Q_ALPHA_SKEW:
        m, n, t, s = window
        kind, p_min, q_min, order = "laurent", -m, -t, None
        shapes = [
            (documented_order(ring, m + n + 1, False), documented_order(ring, t + s + 1, False))
        ]

        def hypothesis(p, q):
            return every_sandwich_zero(
                LaurentSkewPoly(ring, alpha, p_min, p), LaurentSkewPoly(ring, alpha, q_min, q)
            )

    else:
        lo = min_exp if prop is P.LAURENT_POWERSERIES_Q_ALPHA_SKEW else 0
        kind, p_min, q_min, order = "series", lo, lo, truncation
        block = documented_order(ring, truncation - lo, False)
        shapes = [(block, block)]

        def hypothesis(p, q):
            series = [TruncatedSkewSeries(ring, alpha, c, truncation, lo) for c in (p, q)]
            # lifted to exact values (no order): the hypothesis is exact
            return every_sandwich_zero(*(s._like(s.min_exp, list(s.coeffs), None) for s in series))

    for ps, qs in shapes:
        for p in ps:
            for q in qs:
                if not hypothesis(p, q):
                    continue
                hit = conclusion_violation(ring, alpha, prop, p, p_min, q, q_min)
                if hit is not None:
                    pair, mono, off = hit
                    return Witness(
                        kind=kind,
                        p_coeffs=p,
                        p_min=p_min,
                        q_coeffs=q,
                        q_min=q_min,
                        order=order,
                        pair=pair,
                        monomial=mono,
                        offending=off,
                    )
    return None


def zero_moved(ring, seed):
    """A seeded relabelling of ``ring`` whose zero is not index 0."""
    perm = list(range(ring.size))
    random.Random(seed).shuffle(perm)
    if perm[ring.zero] == 0:
        perm = perm[1:] + perm[:1]
    return relabel_ring(ring, perm)


def carriers(name):
    """The entry with its twist, relabelled with its twist, and relabelled
    with the zero endomorphism (preperiod 1, so the non-surjective prefix
    rule runs)."""
    entry = entry_by_name(name)
    moved, sigma = zero_moved(entry.ring, seed=len(name))
    assert moved.zero != 0
    return [
        ("twist", entry.ring, entry.endo),
        ("relabelled-twist", moved, transport(sigma, entry.endo)),
        ("relabelled-zero-endo", moved, zero_endomorphism(moved)),
    ]


# example2 is the one entry whose twist fails the sandwich properties at
# degree 1, so its witnesses check the prefix rule for surjective twists
RINGS = ("example1", "example5_r2", "gf4_frobenius", "example4", "example2")
CASES = [
    pytest.param(name, form, prop, {"degree": d}, id=f"{name}-{form}-{prop.value}-deg{d}")
    for name in RINGS
    for form in ("twist", "relabelled-twist", "relabelled-zero-endo")
    for prop in FAMILY
    for d in ((1, 2) if entry_by_name(name).ring.size <= 4 else (1,))
]
CASES += [
    pytest.param(name, form, prop, env, id=f"{name}-{form}-{prop.value}")
    for name in RINGS
    for form in ("twist", "relabelled-twist", "relabelled-zero-endo")
    for prop, env in (
        (P.LAURENT_Q_ALPHA_SKEW, {"window": (0, 1, 0, 1)}),
        (P.POWERSERIES_Q_ALPHA_SKEW, {"truncation": 2}),
    )
    # Laurent polynomials need an automorphism
    if not (prop is P.LAURENT_Q_ALPHA_SKEW and form == "relabelled-zero-endo")
]


@pytest.fixture(scope="module")
def carriers_by_name():
    return {name: {form: (r, e) for form, r, e in carriers(name)} for name in RINGS}


@pytest.mark.parametrize("name, form, prop, envelope", CASES)
def test_decider_matches_reference(carriers_by_name, name, form, prop, envelope):
    ring, endo = carriers_by_name[name][form]
    verdict = check_property(ring, endo, prop, **envelope)
    expected = reference(ring, endo, prop, **envelope)
    assert verdict.witness == expected
    if expected is not None:
        replay_witness(ring, endo, prop, verdict.witness)


def test_decider_above_256_elements_matches_reference():
    """Element indices above 255 need the kernel's tables wider than uint8."""
    n, shift = 300, 7  # Z300 with residue r at index r + 7, so zero is not index 0
    res = np.arange(n) - shift
    ring, _ = relabel_ring(make_zmod(n, size_cap=n), (np.arange(n) + shift) % n)
    assert ring.zero == shift
    # x -> 201x is idempotent (201 = 1 mod 4 and 25, 0 mod 3): preperiod 1
    idem = table_endomorphism(ring, (201 * res % n + shift) % n, "201x")
    for alpha in (identity_endomorphism(ring), idem):
        for prop in PLAIN_HYP:
            verdict = check_property(ring, alpha, prop, degree=0)
            assert verdict.witness == reference(ring, alpha, prop, degree=0)
        # at degree 0 every sandwich conclusion is implied by its hypothesis
        for prop in FAMILY[len(PLAIN_HYP):]:
            assert check_property(ring, alpha, prop, degree=0).holds


def test_alpha_quasi_witness_violates_only_at_a_nonzero_twist():
    """UT2(Z2) ⊕ Z2, twisted by ((a,b,c), z) -> ((0,0,z), c), whose orbit is
    (preperiod, period) = (1, 2).  Its least alpha-quasi witness at degree 1
    violates a_i R α^t(b_j) = 0 only at t = 1, so a conclusion that checked
    t = 0 alone would name another witness."""
    tri = list(itertools.product(range(2), repeat=3))  # (a,b,c) at index 4a+2b+c

    def index(a, b, c):
        return 4 * (a % 2) + 2 * (b % 2) + c % 2

    add = [[index(x[0] + y[0], x[1] + y[1], x[2] + y[2]) for y in tri] for x in tri]
    mul = [[index(x[0] * y[0], x[0] * y[1] + x[1] * y[2], x[2] * y[2]) for y in tri] for x in tri]
    ring = make_direct_product(make_table_ring(add, mul, label="UT2(Z2)"), make_zmod(2))
    alpha = table_endomorphism(ring, (0, 2, 1, 3) * 4, "swap-corner")
    assert (alpha.preperiod, alpha.period) == (1, 2)
    prop = P.ALPHA_QUASI_ARMENDARIZ
    verdict = check_property(ring, alpha, prop, degree=1)
    assert verdict.witness == reference(ring, alpha, prop, degree=1)
    w = verdict.witness
    assert (w.p_coeffs, w.q_coeffs, w.monomial) == ((0, 8), (1,), (4, 1))
    replay_witness(ring, alpha, prop, w)
