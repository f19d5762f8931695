"""The block kernel of the search deciders: its chunked enumeration keeps
the order of ``iter_tuples``, its memory and time stay bounded on lopsided
Laurent windows, its batching boundaries (batches of p across heads, q
chunks) do not change the least witness, its work counts repeat, and its
sandwich tables built on additive generators equal their every-r
versions."""

import itertools
import time
from collections import Counter
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracle import FAMILY, RINGS, carriers, reference
from test_validator import relabelled_carriers

from skewarm import (
    PropertyId,
    all_endomorphisms,
    check_property,
    deciders,
    identity_endomorphism,
    make_direct_product,
    make_table_ring,
    make_zmod,
    relabel_ring,
    replay_witness,
    table_endomorphism,
    zero_endomorphism,
)
from skewarm.corpus import entry_by_name
from skewarm.deciders import _tuple_chunks
from skewarm.rings import _additive_walk


def iter_tuples(n: int, length: int, last_nonzero: bool, zero: int):
    """Nonzero coefficient tuples of a given length in the enumeration order
    of the deciders, one at a time: the reference for ``_tuple_chunks``.

    ``zero`` is the ring's zero element index (not necessarily 0, e.g. after
    a relabelling).  Tuples are grouped by the position of their first
    nonzero coefficient, zero-prefixed groups first; when zero is index 0 —
    true for every standard constructor — this is exactly raw lexicographic
    order.  ``last_nonzero`` restricts to exact-degree tuples.
    """
    values = [v for v in range(n) if v != zero]
    for f in range(length - 1, -1, -1):
        prefix = (zero,) * f
        tail = length - 1 - f
        for v in values:
            head = prefix + (v,)
            if tail == 0:
                yield head
            elif last_nonzero:
                if tail == 1:
                    for last in values:
                        yield head + (last,)
                else:
                    for mid in itertools.product(range(n), repeat=tail - 1):
                        for last in values:
                            yield head + mid + (last,)
            else:
                for rest in itertools.product(range(n), repeat=tail):
                    yield head + rest


def first_nonzero(t, zero):
    """(position, value) of the first nonzero coefficient of t."""
    return next((f, c) for f, c in enumerate(t) if c != zero)


@pytest.mark.parametrize(
    "n, length, last_nonzero, zero",
    [
        (2, 4, False, 0),
        (2, 4, True, 1),
        (3, 3, True, 0),
        (4, 3, False, 2),
        (5, 2, True, 4),
        (300, 2, False, 7),
    ],
)
@pytest.mark.parametrize("step", [1, 7, 1 << 20])
def test_chunks_follow_iter_tuples(n, length, last_nonzero, zero, step):
    dtype = np.min_scalar_type(n - 1)
    values = [v for v in range(n) if v != zero]
    per_level = (
        lambda f: values,
        lambda f: values[1::2],
        lambda f: values[-1:],
        lambda f: [],
        lambda f: values[f % 2 :: 2],  # a different set at each position
        lambda f: values if f == length - 1 else [],
    )
    for heads in per_level:
        kept = [set(heads(f)) for f in range(length)]
        expected = []
        for t in iter_tuples(n, length, last_nonzero, zero):
            f, v = first_nonzero(t, zero)
            if v in kept[f]:
                expected.append(t)
        chunks = list(
            _tuple_chunks(
                n,
                length,
                last_nonzero,
                zero,
                lambda f: np.array(heads(f), dtype=dtype),
                step,
                dtype,
            )
        )
        assert all(1 <= len(c) <= step and c.dtype == dtype for c in chunks)
        assert [tuple(row) for c in chunks for row in c.tolist()] == expected


def decide_with_peak(ring, window):
    """The verdict on the Laurent window and the peak traced allocation."""
    tracemalloc.start()
    try:
        verdict = check_property(
            ring, identity_endomorphism(ring), PropertyId.LAURENT_Q_ALPHA_SKEW, window=window
        )
        return verdict, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lopsided_window_without_allowed_heads_builds_no_q():
    # 2**26 nominal tuples, within the default budget.  The only p is 1, and
    # 1·R·1 != 0 in Z2, so the prefix rule allows no q at all: none of the
    # 2**25 candidate q (840 MB as one uint8 array) may be built.
    verdict, peak = decide_with_peak(make_zmod(2), (0, 0, 0, 24))
    assert verdict.holds
    assert peak < 1 << 20


def test_lopsided_window_decides_in_bounded_chunks():
    # In Z4 the p = 2 allows the q with head 2: about 5.6 M of them, 61 MB
    # as one uint8 array, before the bool mask over them.  Chunking keeps
    # the peak well below that.
    verdict, peak = decide_with_peak(make_zmod(4), (0, 0, 0, 10))
    assert verdict.holds
    assert peak < 48 << 20


def test_lopsided_p_window_without_allowed_heads_builds_no_p():
    # the mirror of (0, 0, 0, 24) above: 2**25 candidate p, none of which
    # may meet a q, so no p is built and the verdict takes no time
    ring = make_zmod(2)
    start = time.perf_counter()
    verdict = check_property(
        ring, identity_endomorphism(ring), PropertyId.LAURENT_Q_ALPHA_SKEW, window=(24, 0, 0, 0)
    )
    assert verdict.holds
    assert time.perf_counter() - start < 5


def test_lopsided_p_window_with_allowed_heads_decides_runs_of_p():
    # in Z4 the p with head 2 meet q, about 87 k of them at (8, 0, 0, 0);
    # they are decided in batches, not one by one
    ring = make_zmod(4)
    start = time.perf_counter()
    verdict = check_property(
        ring, identity_endomorphism(ring), PropertyId.LAURENT_Q_ALPHA_SKEW, window=(8, 0, 0, 0)
    )
    assert verdict.holds
    assert time.perf_counter() - start < 2


# --------------------------------------------------------------------------
# batching boundaries: with tiny cell bounds the p batches, the q chunks
# and the hypothesis slices split at nearly every row, and the witness must
# still be the reference decider's least one

SPLITS = {
    # (q chunk cells, pair cells)
    "single-rows": (1, 1),
    "few-rows": (8, 8),
}
BOUNDARY_PROPS = [
    (PropertyId.ALPHA_SKEW_ARMENDARIZ, {"degree": 1}),
    (PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, {"degree": 1}),
    (PropertyId.ALPHA_QUASI_ARMENDARIZ, {"degree": 1}),
    (PropertyId.LAURENT_Q_ALPHA_SKEW, {"window": (0, 1, 0, 1)}),
    (PropertyId.POWERSERIES_Q_ALPHA_SKEW, {"truncation": 2}),
]
BOUNDARY_CASES = [
    pytest.param(name, form, prop, env, id=f"{name}-{form}-{prop.value}")
    for name in RINGS
    for form in ("twist", "relabelled-twist", "relabelled-zero-endo")
    for prop, env in BOUNDARY_PROPS
    # Laurent polynomials need an automorphism
    if not (prop is PropertyId.LAURENT_Q_ALPHA_SKEW and form == "relabelled-zero-endo")
]


def split_kernel(monkeypatch, split):
    chunk_cells, pair_cells = SPLITS[split]
    monkeypatch.setattr(deciders, "_CHUNK_CELLS", chunk_cells)
    monkeypatch.setattr(deciders, "_PAIR_CELLS", pair_cells)


@pytest.fixture(scope="module")
def oracle_carriers():
    return {name: {form: (r, e) for form, r, e in carriers(name)} for name in RINGS}


@pytest.mark.parametrize("name, form, prop, envelope", BOUNDARY_CASES)
def test_split_kernel_matches_reference(monkeypatch, oracle_carriers, name, form, prop, envelope):
    ring, endo = oracle_carriers[name][form]
    expected = reference(ring, endo, prop, **envelope)
    for split in SPLITS:
        with monkeypatch.context() as m:
            split_kernel(m, split)
            assert check_property(ring, endo, prop, **envelope).witness == expected


def ut2_z2():
    """UT2(Z2), the matrices [[a, b], [0, c]] over Z2: (a,b,c) at index
    4a+2b+c."""
    tri = list(itertools.product(range(2), repeat=3))

    def index(a, b, c):
        return 4 * (a % 2) + 2 * (b % 2) + c % 2

    add = [[index(x[0] + y[0], x[1] + y[1], x[2] + y[2]) for y in tri] for x in tri]
    mul = [[index(x[0] * y[0], x[0] * y[1] + x[1] * y[2], x[2] * y[2]) for y in tri] for x in tri]
    return make_table_ring(add, mul, label="UT2(Z2)")


def ut2_plus_z2():
    """UT2(Z2) ⊕ Z2."""
    return make_direct_product(ut2_z2(), make_zmod(2))


def kernel_only(m):
    """Skip the rank screen, so that the kernel decides every block."""
    m.setattr(deciders, "_cleared_shapes", lambda sc, basis, amin, blocks: set())


@settings(max_examples=60, deadline=None)
@given(
    tables=relabelled_carriers(),
    prop=st.sampled_from(FAMILY),
    chunk_cells=st.integers(1, 64),
    pair_cells=st.integers(1, 64),
    data=st.data(),
)
def test_level_batches_across_heads_match_reference(tables, prop, chunk_cells, pair_cells, data):
    # small cell bounds cut each level into batches of p that straddle heads
    # and into several q chunks; the kernel alone must still name the
    # reference decider's least witness
    ring = make_table_ring(*tables)
    endo = data.draw(st.sampled_from(all_endomorphisms(ring)))
    expected = reference(ring, endo, prop, degree=1)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(deciders, "_CHUNK_CELLS", chunk_cells)
        m.setattr(deciders, "_PAIR_CELLS", pair_cells)
        kernel_only(m)
        assert check_property(ring, endo, prop, degree=1).witness == expected


def test_an_earlier_head_in_the_batch_may_refuse_the_witness_q_head(monkeypatch):
    # UT2(Z2) with α(a, b, c) = (0, 0, a): α(e11) = e22 and α(e22) = 0.  The
    # least q-α-skew witness at degree 1 is p = e11·x, q = e11 (indices
    # (0, 4) and (4,)).  The earlier p = e22·x of the same batch violates
    # the conclusion against q = e11 too, and the only coefficient of
    # p (r x^k) q that can be nonzero is the lowest, e22·α(r)·α^(1+k)(e11),
    # which the hypothesis test skips: it is e22 at r = e11, k = 0, so head
    # e22 refuses q head e11, and only the prefix term of the mask drops it.
    ring = ut2_z2()
    endo = table_endomorphism(ring, (0, 0, 0, 0, 1, 1, 1, 1), "a-to-c")
    prop = PropertyId.Q_ALPHA_SKEW_ARMENDARIZ
    allowed, heads = deciders._Scanner(ring, endo, prop).tables.head_tables(1)
    assert {1, 4} <= set(heads.tolist())
    assert allowed[4, 4] and not allowed[1, 4]
    batches = []
    least_in_batch = deciders._least_in_batch

    def batch(sc, ps, *args):
        batches.append(ps.tolist())
        return least_in_batch(sc, ps, *args)

    monkeypatch.setattr(deciders, "_least_in_batch", batch)
    verdict = check_property(ring, endo, prop, degree=1)
    w = verdict.witness
    assert (w.p_coeffs, w.q_coeffs) == ((0, 4), (4,))
    assert batches[-1].index([0, 1]) < batches[-1].index([0, 4])
    assert w == reference(ring, endo, prop, degree=1)
    replay_witness(ring, endo, prop, w)


def test_kernel_counts_of_a_witness_are_pinned_and_repeat(monkeypatch):
    # example2 = T(Z4, Z4) is no F_p carrier, so the kernel decides all four
    # blocks at degree 1: six levels of p, each one batch against one q
    # chunk.  The two q lists (one per q shape) are built once and read from
    # the memo six times.
    scanners = []

    class Recording(deciders._Scanner):
        def __init__(self, *args):
            super().__init__(*args)
            scanners.append(self)

    monkeypatch.setattr(deciders, "_Scanner", Recording)
    entry = entry_by_name("example2")
    for _ in range(2):
        w = check_property(entry.ring, None, PropertyId.ARMENDARIZ, degree=1).witness
        assert (w.p_coeffs, w.q_coeffs) == ((1, 8), (1, 8))
    first, second = (sc.counts for sc in scanners)
    assert first == second == {
        "p_batches": 6,
        "steps": 6,
        "q_chunks_built": 2,
        "q_chunks_reused": 6,
        "mask_cells": 14161,
        "pairs_tested": 6424,
        "pairs_passed": 96,
    }


def test_least_p_may_hit_in_a_later_q_chunk(monkeypatch):
    # In this relabelling the least Armendariz witness at degree 1 has
    # p = (3, 6) and q = (1, 6); the later p = (3, 13) of the same level
    # already meets the earlier q (1, 4).  With one q per chunk and the whole
    # level (195 p) in one batch of up to 256, (3, 13) hits first and the
    # batch must still return (3, 6).
    perm = [2, 15, 4, 9, 6, 10, 1, 5, 13, 14, 11, 7, 12, 3, 8, 0]
    ring, _ = relabel_ring(ut2_plus_z2(), perm)
    prop = PropertyId.ARMENDARIZ
    monkeypatch.setattr(deciders, "_CHUNK_CELLS", 1)
    monkeypatch.setattr(deciders, "_PAIR_CELLS", 256)
    hits_per_batch = []
    least_in_batch, least_in_chunk = deciders._least_in_batch, deciders._least_in_chunk

    def batch(*args):
        hits_per_batch.append(0)
        return least_in_batch(*args)

    def chunk(*args):
        hit = least_in_chunk(*args)
        hits_per_batch[-1] += hit is not None
        return hit

    monkeypatch.setattr(deciders, "_least_in_batch", batch)
    monkeypatch.setattr(deciders, "_least_in_chunk", chunk)
    verdict = check_property(ring, None, prop, degree=1)
    assert hits_per_batch[-1] == 2
    w = verdict.witness
    assert (w.p_coeffs, w.q_coeffs) == ((3, 6), (1, 6))
    assert w == reference(ring, identity_endomorphism(ring), prop, degree=1)
    replay_witness(ring, None, prop, w)


# --------------------------------------------------------------------------
# the generator shortcut: every sandwich table of the kernel takes r over the
# nonzero additive generators of R only; each must equal its every-r version,
# and each plain table its version for pq = 0


def left_factors(ring, endo, e, a, sandwich):
    """The left factors of the hypothesis terms from coefficients ``a`` at
    exponent e, on a new last axis: a·α^e(r) for every r of a sandwich, or
    the single a for pq = 0."""
    a = np.asarray(a)[..., None]
    if not sandwich:
        return a
    return np.asarray(ring.mul_table)[a, np.asarray(endo.power_map(e))]


def every_r_annihilators(ring, sandwich):
    """ann[a, b]: a·r·b = 0 for every r, or a·b = 0 for pq = 0."""
    mul = np.asarray(ring.mul_table)
    if not sandwich:
        return mul == ring.zero
    return (mul[mul] == ring.zero).all(axis=1)


def every_r_head_tables(ring, endo, e, ks, sandwich):
    """allowed[a, v]: a·α^e(r)·α^(e+k)(v) = 0 for every r and every k in ks
    (a·α^e(v) = 0 for pq = 0), for a != 0 and v != 0."""
    mul, zero = np.asarray(ring.mul_table), ring.zero
    us = left_factors(ring, endo, e, np.arange(ring.size), sandwich)  # us[a, r]
    tab = np.ones((ring.size, ring.size), dtype=bool)
    for k in ks:
        tab &= (mul[us][:, :, np.asarray(endo.power_map(e + k))] == zero).all(axis=1)
    tab[:, zero] = tab[zero] = False
    return tab


def every_r_passes(ring, endo, ks, amin, ps, qs, sandwich):
    """passes[x, y]: ps[x] (r x^k) qs[y] = 0 for every r and every k in ks
    (ps[x] qs[y] = 0 for pq = 0), coefficient by coefficient."""
    mul, add, zero = np.asarray(ring.mul_table), np.asarray(ring.add_table), ring.zero
    lp, lq = ps.shape[1], qs.shape[1]
    passes = np.ones((len(ps), len(qs)), dtype=bool)
    for k in ks:
        for e in range(lp + lq - 1):
            s = zero
            for i in range(max(0, e - lq + 1), min(lp, e + 1)):
                u = left_factors(ring, endo, amin + i, ps[:, i], sandwich)  # p × r
                b = np.asarray(endo.power_map(amin + i + k))[qs[:, e - i]]  # q
                s = add[s, mul[u[:, None, :], b[None, :, None]]]
            passes &= (s == zero).all(axis=2)
    return passes


def assert_generator_tables_match(ring, endo, prop=PropertyId.Q_ALPHA_SKEW_ARMENDARIZ):
    sc = deciders._Scanner(ring, endo, prop).tables
    sandwich = deciders._STATEMENTS[prop].sandwich
    if sandwich:
        assert ring.zero not in sc.gens.tolist()
    assert np.array_equal(sc.ann, every_r_annihilators(ring, sandwich))
    orbit = range(endo.preperiod + endo.period)
    ks = orbit if sandwich else (0,)
    # Laurent exponents are negative: e in [-period, 0) for an automorphism
    low = -endo.period if endo.is_automorphism else 0
    for e in range(low, len(orbit) + 1):
        allowed, heads = sc.head_tables(e)
        tab = every_r_head_tables(ring, endo, e, ks, sandwich)
        assert np.array_equal(allowed, tab)
        assert heads.tolist() == [a for a in range(ring.size) if tab[a].any()]
    # the hypothesis rows of the kernel on the p of every head at degree 1,
    # against the q its prefix rule allows, which come with their heads
    for amin in sorted({low, 0}):
        for f in (1, 0):
            for a in sc.head_tables(amin + f)[1].tolist():
                ps = deciders._level_rows(
                    ring.size, 2, False, ring.zero, f, np.array([a], dtype=sc.dtype),
                    0, ring.size ** (1 - f), sc.dtype,
                )
                _, chunks = sc.candidates(2, False, sc.head_tables(amin + f)[0][a], Counter())
                qs, qh = (np.concatenate(parts) for parts in zip(*chunks()))
                assert qh.tolist() == [first_nonzero(q, ring.zero)[1] for q in qs.tolist()]
                pi, qi = np.nonzero(np.ones((len(ps), len(qs)), dtype=bool))
                got = deciders._passing(sc, ps, f, amin, qs, pi, qi)
                expected = every_r_passes(
                    ring, endo, ks, amin, ps.astype(int), qs.astype(int), sandwich
                )
                assert got.tolist() == np.flatnonzero(expected.ravel()).tolist()


# the plain hypothesis pq = 0 is the sandwich with the single left factor a
PLAIN_AND_SANDWICH = [PropertyId.ALPHA_SKEW_ARMENDARIZ, PropertyId.Q_ALPHA_SKEW_ARMENDARIZ]


@pytest.mark.parametrize("prop", PLAIN_AND_SANDWICH)
@settings(max_examples=40, deadline=None)
@given(tables=relabelled_carriers(), zero_twist=st.booleans())
def test_generator_tables_match_every_r_on_relabelled_carriers(prop, tables, zero_twist):
    # relabelled with zero off index 0; among them non-unital rings and a
    # null multiplication
    ring = make_table_ring(*tables)
    endo = zero_endomorphism(ring) if zero_twist else identity_endomorphism(ring)
    assert_generator_tables_match(ring, endo, prop)


def test_generator_tables_match_every_r_with_preperiod_and_period_four():
    ring = ut2_plus_z2()
    swap_corner = table_endomorphism(ring, (0, 2, 1, 3) * 4, "swap-corner")
    assert (swap_corner.preperiod, swap_corner.period) == (1, 2)
    assert_generator_tables_match(ring, swap_corner, PropertyId.ALPHA_QUASI_ARMENDARIZ)
    assert_generator_tables_match(ring, swap_corner, PropertyId.ALPHA_SKEW_ARMENDARIZ)
    entry = entry_by_name("example3_analogue")
    assert entry.endo.period == 4
    for prop in PLAIN_AND_SANDWICH:
        assert_generator_tables_match(entry.ring, entry.endo, prop)


def test_zero_among_the_greedy_generators_is_dropped():
    # the greedy pick starts at index 0, which is the zero of make_zmod
    ring = make_zmod(4)
    assert _additive_walk(np.asarray(ring.add_table), ring.zero)[0][0] == ring.zero
    assert_generator_tables_match(ring, identity_endomorphism(ring))
    assert_generator_tables_match(ring, zero_endomorphism(ring))
