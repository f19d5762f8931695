import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewarm import (
    CarrierMismatchError,
    LaurentSkewPoly,
    SkewPoly,
    TruncatedSkewSeries,
    RingError,
    forall_sandwich_zero,
    identity_endomorphism,
    laurent_from_poly,
    laurent_monomial,
    laurent_poly,
    laurent_skew_mul,
    make_zmod,
    monomial,
    parse_laurent,
    parse_poly,
    sandwich,
    skew_mul,
    skew_poly,
    truncate_poly,
    truncated_mul,
    truncated_series,
    zero_endomorphism,
)
from test_oracle import RINGS, carriers


def naive_mul(n, a, b):
    """Ordinary (untwisted) polynomial multiplication over Z_n, the oracle
    for the identity-twist specialization."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % n
    while out and out[-1] == 0:
        out.pop()
    return out


def test_normalization_and_degree(z4, z4_id):
    p = skew_poly(z4, z4_id, [1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    zero = skew_poly(z4, z4_id, [0, 0])
    assert zero.is_zero and zero.degree == -1
    # a plain polynomial keeps the zeros below its lowest term; the Laurent
    # and series classes move them into min_exp
    low = skew_poly(z4, z4_id, [0, 0, 3, 1, 0])
    assert (low.min_exp, low.coeffs, low.degree) == (0, (0, 0, 3, 1), 3)
    for shifted in (
        laurent_poly(z4, z4_id, 0, [0, 0, 3, 1, 0]),
        truncated_series(z4, z4_id, [0, 0, 3, 1, 0], 5),
    ):
        assert (shifted.min_exp, shifted.coeffs) == (2, (3, 1))
        assert shifted.render().startswith(low.render())


def test_add_examples(z4, z4_id):
    p = skew_poly(z4, z4_id, [2, 2])
    assert (p + p).is_zero
    assert (p + skew_poly(z4, z4_id, [])) == p
    assert (p + (-p)).is_zero


def test_mul_matches_spec_examples(t_z4, negate_second, z2xz2, swap):
    p = skew_poly(t_z4, negate_second, [8, 9])  # (2,0) + (2,1)x
    assert (p * p).is_zero
    a = skew_poly(z2xz2, swap, [2, 2])  # (1,0) + (1,0)x
    b = skew_poly(z2xz2, swap, [1, 2])  # (0,1) + (1,0)x
    assert (a * b).is_zero
    zero = skew_poly(z2xz2, swap, [])
    assert (a * zero).is_zero and (zero * b).is_zero


def test_identity_twist_matches_ordinary_multiplication():
    rng = random.Random(20240817)
    cases = 0
    while cases < 10_000:
        n = rng.choice([2, 3, 4, 5, 6])
        ring = _ZMODS[n]
        endo = _IDS[n]
        a = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
        b = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
        got = skew_mul(skew_poly(ring, endo, a), skew_poly(ring, endo, b))
        assert list(got.coeffs) == naive_mul(n, a, b)
        cases += 1


_ZMODS = {n: make_zmod(n) for n in (2, 3, 4, 5, 6)}
_IDS = {n: identity_endomorphism(_ZMODS[n]) for n in _ZMODS}


def _all_polys(ring, endo, max_deg):
    coeffs = itertools.product(range(ring.size), repeat=max_deg + 1)
    return [skew_poly(ring, endo, c) for c in coeffs]


def small_pairs():
    z4 = _ZMODS[4]
    pairs = [
        (z4, _IDS[4]),
        (z4, zero_endomorphism(z4)),
    ]
    from skewarm import make_direct_product, table_endomorphism, make_galois_field, frobenius

    z2 = _ZMODS[2]
    prod = make_direct_product(z2, z2)
    pairs.append(
        (prod, table_endomorphism(prod, [(i % 2) * 2 + i // 2 for i in range(4)], "swap"))
    )
    gf4 = make_galois_field(2, 2)
    pairs.append((gf4, frobenius(gf4)))
    return pairs


@pytest.mark.parametrize("ring,endo", small_pairs(), ids=lambda v: getattr(v, "label", ""))
def test_associativity_and_distributivity_exhaustive(ring, endo):
    polys = _all_polys(ring, endo, 1)
    for p, q, h in itertools.product(polys, repeat=3):
        assert (p * q) * h == p * (q * h)
        assert p * (q + h) == p * q + p * h


def test_associativity_randomized_on_larger_ring(t_z4, negate_second):
    rng = random.Random(424242)
    for _ in range(2000):
        polys = [
            skew_poly(
                t_z4, negate_second, [rng.randrange(16) for _ in range(rng.randint(0, 4))]
            )
            for _ in range(3)
        ]
        p, q, h = polys
        assert (p * q) * h == p * (q * h)
        assert p * (q + h) == p * q + p * h


def test_left_monomial_shift_twists_coefficients(z2xz2, swap):
    # x^m p shifts every exponent by m and applies the m-th twist power
    for m in (-2, -1, 1, 3):
        xm = laurent_monomial(z2xz2, swap, z2xz2.one, m)
        for coeffs in itertools.product(range(4), repeat=2):
            p = laurent_poly(z2xz2, swap, 0, coeffs)
            shifted = xm * p
            for e in range(-3, 6):
                assert shifted.coefficient(e + m) == swap.power_apply(
                    m, p.coefficient(e)
                )


def test_monomial_law(t_z4, negate_second):
    ring, endo = t_z4, negate_second
    for a in range(ring.size):
        for b in range(ring.size):
            for i in range(4):
                for j in range(4):
                    prod = monomial(ring, endo, a, i) * monomial(ring, endo, b, j)
                    expect = ring.mul(a, endo.power_apply(i, b))
                    if expect == ring.zero:
                        assert prod.is_zero
                    else:
                        assert prod.degree == i + j
                        assert prod.coefficient(i + j) == expect
                        assert sum(1 for c in prod.coeffs if c != ring.zero) == 1


def test_degree_bound(z2xz2, swap):
    polys = _all_polys(z2xz2, swap, 2)
    for p, q in itertools.product(polys, repeat=2):
        if p.is_zero or q.is_zero:
            continue
        prod = p * q
        assert prod.is_zero or prod.degree <= p.degree + q.degree
        lead = z2xz2.mul(
            p.coeffs[-1], swap.power_apply(p.degree, q.coeffs[-1])
        )
        if lead != z2xz2.zero:
            assert prod.degree == p.degree + q.degree


def test_sandwich_examples(t_z4, negate_second):
    p = skew_poly(t_z4, negate_second, [8, 9])
    for r in range(16):
        for k in (0, 1):
            assert sandwich(p, r, k, p).is_zero
    assert sandwich(p, 0, 3, p).is_zero
    # unital ring: r = one, k = 0 gives the plain product
    q = skew_poly(t_z4, negate_second, [5, 1])
    assert sandwich(p, t_z4.one, 0, q) == p * q


def test_forall_sandwich_zero_examples(t_z4, negate_second, z4, z4_id):
    p = skew_poly(t_z4, negate_second, [8, 9])
    assert forall_sandwich_zero(p, p)
    zero = skew_poly(t_z4, negate_second, [])
    assert forall_sandwich_zero(p, zero) and forall_sandwich_zero(zero, p)
    one = skew_poly(z4, z4_id, [1])
    assert not forall_sandwich_zero(one, one)  # 1*1*1 != 0


def test_carrier_mismatch_rejected(z4, z4_id, z2xz2, swap):
    p = skew_poly(z4, z4_id, [1])
    q = skew_poly(z2xz2, swap, [1])
    with pytest.raises(CarrierMismatchError):
        _ = p * q
    with pytest.raises(CarrierMismatchError):
        _ = p + q
    ze = zero_endomorphism(z4)
    with pytest.raises(CarrierMismatchError):
        _ = p * skew_poly(z4, ze, [1])


def test_operands_of_different_classes_rejected(z4, z4_id):
    # a plain polynomial, a Laurent polynomial with a negative exponent and
    # a series over one carrier: no product or sum mixes two of them
    values = [
        skew_poly(z4, z4_id, [1]),
        laurent_poly(z4, z4_id, -1, [1]),
        truncated_series(z4, z4_id, [1], 2),
    ]
    for a, b in itertools.permutations(values, 2):
        with pytest.raises(CarrierMismatchError):
            _ = a * b
        with pytest.raises(CarrierMismatchError):
            _ = a + b


def test_laurent_requires_automorphism(z4):
    with pytest.raises(RingError):
        laurent_poly(z4, zero_endomorphism(z4), -1, [1])


def test_laurent_negative_shift(z2xz2, swap):
    # x^-1 * (1,0) = (0,1) x^-1 since the inverse twist is the swap itself
    xm1 = laurent_monomial(z2xz2, swap, z2xz2.one, -1)
    c = laurent_monomial(z2xz2, swap, 2, 0)
    prod = xm1 * c
    assert prod.min_exp == -1
    assert prod.coeffs == (1,)


def test_laurent_shift_identity(z2xz2, swap):
    # (x^m p) q = x^m (p q) for several m, including negatives
    polys = [
        laurent_poly(z2xz2, swap, -1, c)
        for c in itertools.product(range(4), repeat=2)
    ]
    for m in (-2, -1, 1, 2):
        xm = laurent_monomial(z2xz2, swap, z2xz2.one, m)
        for p in polys[:8]:
            for q in polys[:8]:
                assert (xm * p) * q == xm * (p * q)


def test_laurent_mul_matches_poly_on_nonnegative(t_z4, negate_second):
    rng = random.Random(7)
    for _ in range(200):
        a = [rng.randrange(16) for _ in range(rng.randint(1, 3))]
        b = [rng.randrange(16) for _ in range(rng.randint(1, 3))]
        p = skew_poly(t_z4, negate_second, a)
        q = skew_poly(t_z4, negate_second, b)
        lp = laurent_from_poly(p) * laurent_from_poly(q)
        assert lp == laurent_from_poly(p * q)


def test_truncated_telescoping(z4, z4_id):
    one_plus_x = truncated_series(z4, z4_id, [1, 1], 4)
    alternating = truncated_series(z4, z4_id, [1, 3, 1, 3], 4)
    prod = one_plus_x * alternating
    assert prod.order == 4
    assert prod.coeffs == (1,) and prod.min_exp == 0


def test_truncation_agrees_with_poly_product(t_z4, negate_second):
    rng = random.Random(99)
    for _ in range(200):
        a = [rng.randrange(16) for _ in range(rng.randint(1, 4))]
        b = [rng.randrange(16) for _ in range(rng.randint(1, 4))]
        order = rng.randint(1, 6)
        p = skew_poly(t_z4, negate_second, a)
        q = skew_poly(t_z4, negate_second, b)
        ts = truncate_poly(p, order) * truncate_poly(q, order)
        full = p * q
        for e in range(ts.order):
            assert ts.coefficient(e) == full.coefficient(e)


def test_truncated_orders_combine_to_minimum(z4, z4_id):
    a = truncated_series(z4, z4_id, [1, 1], 5)
    b = truncated_series(z4, z4_id, [1], 3)
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_truncated_zero_product(z4, z4_id):
    z = truncated_series(z4, z4_id, [], 4)
    p = truncated_series(z4, z4_id, [1, 2], 4)
    assert (p * z).is_zero


from skewarm import make_trivial_extension, regular_bimodule, table_endomorphism

_Z4 = _ZMODS[4]
_T16 = make_trivial_extension(_Z4, regular_bimodule(_Z4))
_T16_NEG = table_endomorphism(
    _T16, [(i // 4) * 4 + ((-(i % 4)) % 4) for i in range(16)], "negate-second"
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(st.integers(min_value=0, max_value=15), max_size=6),
    shift=st.integers(min_value=-3, max_value=3),
)
def test_render_parse_roundtrip(data, shift):
    p = skew_poly(_T16, _T16_NEG, data)
    assert parse_poly(_T16, _T16_NEG, p.render()) == p
    lp = laurent_poly(_T16, _T16_NEG, shift, data)
    assert parse_laurent(_T16, _T16_NEG, lp.render()) == lp


def test_series_render_mentions_order(z4, z4_id):
    s = truncated_series(z4, z4_id, [1, 2], 4)
    assert "(mod x^4)" in s.render()
    assert parse_poly(z4, z4_id, s.render()).coeffs == (1, 2)


# The oracle's carriers whose twist is an automorphism, so every class exists.
AUTOMORPHIC = [
    pytest.param(ring, endo, id=f"{name}-{form}")
    for name in RINGS
    for form, ring, endo in carriers(name)
    if endo.is_automorphism
]


def _unsuffixed(value) -> str:
    return re.sub(r" \(mod x\^\d+\)$", "", value.render())


@pytest.mark.parametrize("ring, endo", AUTOMORPHIC)
def test_classes_agree_where_they_overlap(ring, endo):
    """Plain, Laurent at min_exp 0 and a series whose order is past every
    result's degree: the same coefficients and rendered body for +, - and
    ×; never equal across classes or orders; hash agrees with ==."""
    rng = random.Random(ring.size)
    for _ in range(60):
        a, b = ([rng.randrange(ring.size) for _ in range(rng.randint(0, 4))] for _ in "ab")
        order = len(a) + len(b)
        xs, ys = (
            (
                SkewPoly(ring, endo, c),
                LaurentSkewPoly(ring, endo, 0, c),
                TruncatedSkewSeries(ring, endo, c, order),
            )
            for c in (a, b)
        )
        for op in (operator.add, operator.sub, operator.mul):
            got = [op(x, y) for x, y in zip(xs, ys)]
            assert len({tuple(v.coefficient(e) for e in range(order)) for v in got}) == 1
            assert len({_unsuffixed(v) for v in got}) == 1
            assert all(u != v for u, v in itertools.combinations(got, 2))
        copies = (
            SkewPoly(ring, endo, a + [ring.zero]),
            LaurentSkewPoly(ring, endo, -1, [ring.zero] + a),
            TruncatedSkewSeries(ring, endo, a + [ring.zero], order),
        )
        for x, copy in zip(xs, copies):
            assert x == copy and hash(x) == hash(copy)
        assert xs[2] != TruncatedSkewSeries(ring, endo, a, order + 1)
