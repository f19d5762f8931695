"""The rank screen of the search (``deciders._RankScreen``): which carriers
get an F_p basis, the elimination it rests on, the endomorphism sweep that
checks it against the kernel, and its reach and memory."""

import itertools
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from test_oracle import FAMILY, zero_moved
from test_validator import _reference_additive_generators

from skewarm import (
    PropertyId,
    all_endomorphisms,
    check_property,
    deciders,
    frobenius,
    rings,
    identity_endomorphism,
    make_direct_product,
    make_galois_field,
    make_table_ring,
    make_trivial_extension,
    make_zmod,
    random_relabeling,
    regular_bimodule,
    replay_witness,
    table_endomorphism,
    transport,
    zero_endomorphism,
)
from skewarm.corpus import entry_by_name
from skewarm.rings import _additive_walk

P = PropertyId


def basis_of(ring):
    return _additive_walk(np.asarray(ring.add_table), ring.zero)[1]


def z2_power(k):
    ring = make_zmod(2)
    for _ in range(k - 1):
        ring = make_direct_product(ring, make_zmod(2))
    return ring


def table_ring(elements, add, mul, label):
    """A ring on ``elements`` (tuples) from coordinatewise formulas."""
    index = {x: i for i, x in enumerate(elements)}
    return make_table_ring(
        [[index[add(x, y)] for y in elements] for x in elements],
        [[index[mul(x, y)] for y in elements] for x in elements],
        label=label,
    )


F2_SQUARE = list(itertools.product(range(2), repeat=2))


def dual_numbers_f2():
    """F_2[e]/(e^2): (a, b) = a + b·e."""
    return table_ring(
        F2_SQUARE,
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2),
        lambda x, y: (x[0] * y[0] % 2, (x[0] * y[1] + x[1] * y[0]) % 2),
        "F2[e]",
    )


def null_f2_square():
    """F_2^2 with every product zero (non-unital)."""
    return table_ring(
        F2_SQUARE,
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2),
        lambda x, y: (0, 0),
        "null(F2^2)",
    )


def ut2_z2():
    """Upper triangular 2 × 2 matrices over F_2: (a, b, c) = [[a, b], [0, c]]."""
    return table_ring(
        list(itertools.product(range(2), repeat=3)),
        lambda x, y: tuple((u + v) % 2 for u, v in zip(x, y)),
        lambda x, y: (x[0] * y[0] % 2, (x[0] * y[1] + x[1] * y[2]) % 2, x[2] * y[2] % 2),
        "UT2(Z2)",
    )


# --------------------------------------------------------------------------
# F_p detection


def t_z4():
    z4 = make_zmod(4)
    return make_trivial_extension(z4, regular_bimodule(z4))


REFUSED = {
    "Z4": lambda: make_zmod(4),
    "Z8": lambda: make_zmod(8),
    "Z9": lambda: make_zmod(9),
    "Z6": lambda: make_zmod(6),
    "Z2xZ4": lambda: make_direct_product(make_zmod(2), make_zmod(4)),
    "T(Z4,Z4)": t_z4,
}


class NoScreen:
    def __init__(self, *args):
        raise AssertionError("the rank screen ran on a carrier that is not F_p^m")


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_carriers_that_are_not_fp_vector_spaces_take_the_search(monkeypatch, name):
    ring = REFUSED[name]()
    assert basis_of(ring) is None
    moved, _ = zero_moved(ring, seed=3)
    assert basis_of(moved) is None
    monkeypatch.setattr(deciders, "_RankScreen", NoScreen)
    for prop in (P.ARMENDARIZ, P.QUASI_ARMENDARIZ):
        check_property(ring, None, prop, degree=1)


def test_orders_alone_do_not_make_an_fp_vector_space():
    # this relabelling of Z4 walks generators of order 2 and 2, but the
    # second one's run of multiples ends at the first, not at the zero
    z4 = make_zmod(4)
    ring, sigma = random_relabeling(z4, 7)
    assert len(ring.generators) == 2 and ring.zero not in ring.generators
    assert ring.add(ring.generators[1], ring.generators[1]) == ring.generators[0]
    assert ring.prime_basis is None
    for endo in (identity_endomorphism(z4), zero_endomorphism(z4)):
        moved = transport(sigma, endo)
        for prop in FAMILY:
            expected = check_property(z4, endo, prop, degree=2).holds
            assert check_property(ring, moved, prop, degree=2).holds == expected


BASES = {
    "GF(4)": (lambda: make_galois_field(2, 2), 2, 2),
    "GF(9)": (lambda: make_galois_field(3, 2), 3, 2),
    "Z3xZ3": (lambda: make_direct_product(make_zmod(3), make_zmod(3)), 3, 2),
    "F2^6": (lambda: z2_power(6), 2, 6),
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_fp_vector_spaces_get_a_basis_wherever_the_zero_sits(name):
    build, p, m = BASES[name]
    ring, _ = zero_moved(build(), seed=len(name))
    assert ring.zero != 0
    found = basis_of(ring)
    assert found is not None
    prime, basis, coords = found
    assert (prime, len(basis)) == (p, m)
    assert coords.shape == (ring.size, m) and 0 <= coords.min() and coords.max() < p
    assert not coords[ring.zero].any()
    assert np.array_equal(coords[basis], np.eye(m, dtype=coords.dtype))
    assert len({tuple(c) for c in coords.tolist()}) == ring.size  # one element per vector
    add = np.asarray(ring.add_table)
    assert basis == [g for g in _reference_additive_generators(add) if g != ring.zero]
    # coords(x + y) = coords(x) + coords(y) mod p, on every pair
    assert np.array_equal(coords[add], (coords[:, None, :] + coords[None, :, :]) % p)


# --------------------------------------------------------------------------
# every endomorphism, by backtracking over the generators' images


def brute_endomorphisms(ring):
    """Every self-map that is additive and multiplicative, from all n^n."""
    add, mul = np.asarray(ring.add_table), np.asarray(ring.mul_table)
    found = []
    for images in itertools.product(range(ring.size), repeat=ring.size):
        f = np.asarray(images)
        if np.array_equal(f[add], add[f[:, None], f[None, :]]) and np.array_equal(
            f[mul], mul[f[:, None], f[None, :]]
        ):
            found.append(images)
    return found


SMALL = {
    "Z2": lambda: make_zmod(2),
    "Z4": lambda: make_zmod(4),
    "Z6": lambda: make_zmod(6),
    "Z2xZ2": lambda: make_direct_product(make_zmod(2), make_zmod(2)),
    "GF(4)": lambda: make_galois_field(2, 2),
    "F2[e]": dual_numbers_f2,
    "null(F2^2)": null_f2_square,
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_all_endomorphisms_matches_every_self_map(name):
    for ring in (SMALL[name](), zero_moved(SMALL[name](), seed=5)[0]):
        found = [e.images for e in all_endomorphisms(ring)]
        assert len(set(found)) == len(found)
        assert sorted(found) == brute_endomorphisms(ring)


def test_all_endomorphisms_of_z3_squared():
    # x ↦ (f1(x), f2(x)) with each fi zero or a coordinate projection
    assert len(all_endomorphisms(make_direct_product(make_zmod(3), make_zmod(3)))) == 9


# --------------------------------------------------------------------------
# the elimination


def echelon_screen(p):
    """A screen over F_p with only what ``_echelon`` reads."""
    screen = deciders._RankScreen.__new__(deciders._RankScreen)
    screen.p = p
    screen.least = bool if p == 2 else np.min_scalar_type(p - 1)
    screen.inverse = np.array([pow(x, p - 2, p) if x else 0 for x in range(p)], screen.least)
    return screen


def reference_echelon(matrix, p):
    """The reduced row echelon form of one matrix mod p, by hand, one row
    per column: the row with its pivot there, or zero."""
    work = [[int(v) % p for v in row] for row in matrix]
    cols = len(matrix[0])
    pivots = {}
    for c in range(cols):
        done = len(pivots)
        r = next((r for r in range(done, len(work)) if work[r][c]), None)
        if r is None:
            continue
        work[done], work[r] = work[r], work[done]
        inverse = pow(work[done][c], p - 2, p)
        work[done] = [v * inverse % p for v in work[done]]
        for k, row in enumerate(work):
            if k != done and row[c]:
                work[k] = [(a - row[c] * b) % p for a, b in zip(row, work[done])]
        pivots[c] = done
    out = np.zeros((cols, cols), dtype=np.int64)
    for c, r in pivots.items():
        out[c] = work[r]
    return out


def assert_echelon_spans_null_spaces(h, p):
    """``_echelon`` of the matrices ``h`` ([matrix, row, column], given to it
    column-major) is their reduced echelon form, and I - E spans each null
    space, whose size is counted over every vector."""
    screen = echelon_screen(p)
    count, _, cols = h.shape
    vectors = np.array(list(itertools.product(range(p), repeat=cols))).T  # cols × p^cols
    ech = screen._echelon(h.swapaxes(1, 2).astype(screen.least)).astype(np.int64)
    assert ech.shape == (count, cols, cols)
    for matrix, e in zip(h, ech):
        assert np.array_equal(e, reference_echelon(matrix, p))
        null = (np.eye(cols, dtype=np.int64) - e) % p
        assert not (matrix @ null % p).any()
        size = int((~(matrix @ vectors % p).any(axis=0)).sum())  # |null space|, by brute force
        pivots = int(e.any(axis=1).sum())
        assert size == p ** (cols - pivots)
    return ech


# the widest H(p) has 12 columns: gf16_frobenius (F_2^4) at degree 2
ECHELON_PRIMES = {2: 12, 3: 6, 5: 6, 7: 6}


@pytest.mark.parametrize("p", sorted(ECHELON_PRIMES))
def test_echelon_spans_the_null_space_of_every_matrix_of_a_batch(p):
    rng = np.random.default_rng(p)
    cols = 3
    # sparse matrices, so that a column lacks a pivot in some of them only;
    # the first has its only pivot row nonzero in a later pivot-less column
    h = rng.integers(0, p, size=(200, 4, cols)) * (rng.random((200, 4, cols)) < 0.4)
    h[0] = [[1, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
    h[1] = [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert_echelon_spans_null_spaces(h, p)
    for cols in range(1, ECHELON_PRIMES[p] + 1):
        for rows in (1, cols, cols + 3):  # rows below, at and above the columns
            h = rng.integers(0, p, size=(20, rows, cols)) * (rng.random((20, rows, cols)) < 0.5)
            assert_echelon_spans_null_spaces(h, p)


@pytest.mark.parametrize("p", sorted(ECHELON_PRIMES))
def test_echelon_of_zero_single_and_full_rank_batches(p):
    rng = np.random.default_rng(10 + p)
    cols = ECHELON_PRIMES[p]
    # a batch whose every row is zero: no pivot, the whole space is null
    assert not assert_echelon_spans_null_spaces(np.zeros((5, 4, cols), dtype=np.int64), p).any()
    # a single matrix, with more columns than rows
    assert_echelon_spans_null_spaces(rng.integers(0, p, size=(1, 2, cols)), p)
    # full-rank matrices: L·U with unit diagonals, rows shuffled, then rows
    # to spare; their echelon form is the identity
    lower = np.tril(rng.integers(0, p, size=(30, cols, cols)), -1) + np.eye(cols, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(30, cols, cols)), 1) + np.eye(cols, dtype=np.int64)
    full = (lower @ upper % p)[:, rng.permutation(cols)]
    full = np.concatenate([full, rng.integers(0, p, size=(30, 2, cols))], axis=1)
    ech = assert_echelon_spans_null_spaces(full, p)
    assert np.array_equal(ech, np.broadcast_to(np.eye(cols, dtype=np.int64), ech.shape))


def test_echelon_holds_entries_grown_before_their_column_is_reduced():
    # An entry is reduced mod p only when the elimination reaches its column
    # and grows by up to p·(p - 1) at each column before.  Over F_7, rows of
    # a 1 then 6s, each zero left of its 1, grow a row's entries by 42 a
    # column, past uint8 after six columns (up to 294); a dense batch over
    # F_251 passes uint16 after two.
    rng = np.random.default_rng(251)
    stairs = np.triu(np.full((1, 7, 8), 6)) - 5 * np.eye(7, 8, dtype=np.int64)
    for p, h in ((7, stairs), (251, rng.integers(0, 251, size=(50, 14, 12)))):
        screen = echelon_screen(p)
        ech = screen._echelon(h.swapaxes(1, 2).astype(screen.least)).astype(np.int64)
        for matrix, e in zip(h, ech):
            assert np.array_equal(e, reference_echelon(matrix, p))
            assert not (matrix @ ((np.eye(len(e), dtype=np.int64) - e) % p) % p).any()


def hypothesis_kernels(ring, endo, sandwich, ps, lq):
    """For each p of ``ps`` (coefficient tuples, lowest exponent 0), the set
    of q of ``lq`` coefficients, as vectors of F_p^(lq·m) in the ring's prime
    basis coordinates, with p (r x^k) q = 0 for every r of R and k of one
    twist window (pq = 0 without ``sandwich``), by trying every q."""
    prime, _, coords = ring.prime_basis
    m = coords.shape[1]
    element = {tuple(c): x for x, c in enumerate(coords.tolist())}
    vectors = list(itertools.product(range(prime), repeat=lq * m))
    qs = np.array([[element[v[j * m : (j + 1) * m]] for j in range(lq)] for v in vectors])
    add, mul = np.asarray(ring.add_table), np.asarray(ring.mul_table)
    ks = range(endo.preperiod + endo.period) if sandwich else range(1)
    exponents = range(ps.shape[1] + len(ks))
    power = np.asarray(endo.pow_maps)[[endo.reduce_exponent(e) for e in exponents]]
    rs = range(ring.size) if sandwich else [None]
    kernels = []
    for p in ps:
        passing = np.ones(len(qs), dtype=bool)
        for k, r in itertools.product(ks, rs):
            coeff = np.full((len(qs), len(p) + lq - 1), ring.zero)
            for i, a in enumerate(p):
                left = a if r is None else mul[a, power[i, r]]  # a·α^i(r)
                for j in range(lq):
                    term = mul[left, power[i + k, qs[:, j]]]
                    coeff[:, i + j] = add[coeff[:, i + j], term]
            passing &= (coeff == ring.zero).all(axis=1)
        kernels.append({v for v, ok in zip(vectors, passing) if ok})
    return kernels


def span(columns, prime):
    """Every F_p combination of the columns of ``columns``, as tuples."""
    combos = np.array(list(itertools.product(range(prime), repeat=columns.shape[1]))).T
    return {tuple(v) for v in (columns.astype(np.int64) @ combos % prime).T.tolist()}


def entry_twist(name):
    entry = entry_by_name(name)
    return entry.ring, entry.endo


def gf16_frobenius():
    field = make_galois_field(2, 4)
    return field, frobenius(field)


# at degree 2, H(p) has lq·m = 6 columns over F_3^2 (example4, example5_r1)
# and 12 over F_2^4
KERNEL_RINGS = {
    "example4": lambda: entry_twist("example4"),
    "example5_r1": lambda: entry_twist("example5_r1"),
    "gf16_frobenius": gf16_frobenius,
}


@pytest.mark.parametrize("moved", [False, True], ids=["as-built", "zero-moved"])
@pytest.mark.parametrize("name", list(KERNEL_RINGS))
def test_null_spaces_span_the_brute_force_kernel(monkeypatch, name, moved):
    ring, endo = KERNEL_RINGS[name]()
    if moved:
        ring, sigma = zero_moved(ring, seed=len(name))
        endo = transport(sigma, endo)
        assert ring.zero != 0
    # the batches two searches hand the screen (none in a field, whose
    # prefix rule refuses every head), and a seeded batch of any p
    batches = []
    null_spaces = deciders._RankScreen.null_spaces

    def recorded(self, ps, amin, lq, counts):
        batches.append((self.tables.gens is not None, ps.copy(), amin, lq))
        return null_spaces(self, ps, amin, lq, counts)

    with monkeypatch.context() as m:
        m.setattr(deciders._RankScreen, "null_spaces", recorded)
        for prop in (P.ALPHA_SKEW_ARMENDARIZ, P.Q_ALPHA_SKEW_ARMENDARIZ):
            check_property(ring, endo, prop, degree=2)
    assert batches or name == "gf16_frobenius"
    rng = np.random.default_rng(len(name))
    for sandwich in (False, True):
        batches.append((sandwich, rng.integers(0, ring.size, size=(12, 3)), 0, 3))
    prime = ring.prime_basis[0]
    for sandwich, ps, amin, lq in batches:
        assert amin == 0
        screen = deciders._twist_tables(ring, endo, sandwich).screen(ring.prime_basis)
        null = screen.null_spaces(ps, amin, lq, Counter())
        kernels = hypothesis_kernels(ring, endo, sandwich, ps, lq)
        for p, columns, kernel in zip(ps, null, kernels):
            assert span(columns, prime) == kernel, (sandwich, p.tolist())


# --------------------------------------------------------------------------
# the sweep: every endomorphism of small F_p carriers, the screened search
# against the kernel alone, block by block

SWEEP = {
    # example1's ring is Z2 ⊕ Z2
    "example1": lambda: entry_by_name("example1").ring,
    "gf4": lambda: entry_by_name("gf4_frobenius").ring,
    "F2[e]": dual_numbers_f2,
    "null(F2^2)": null_f2_square,
    "example5_r2": lambda: entry_by_name("example5_r2").ring,
    "Z3xZ3": lambda: make_direct_product(make_zmod(3), make_zmod(3)),
    "example4": lambda: entry_by_name("example4").ring,
    "UT2(Z2)": ut2_z2,
}
SWEEP_REQUESTS = [(prop, {"degree": d}) for prop in FAMILY for d in (0, 1, 2)] + [
    (P.LAURENT_Q_ALPHA_SKEW, {"window": (1, 1, 1, 1)}),
    (P.POWERSERIES_Q_ALPHA_SKEW, {"truncation": 2}),
    (P.LAURENT_POWERSERIES_Q_ALPHA_SKEW, {"truncation": 2, "min_exp": -1}),
]
NEEDS_AUTOMORPHISM = (P.LAURENT_Q_ALPHA_SKEW, P.LAURENT_POWERSERIES_Q_ALPHA_SKEW)


def sweep_ring(name, moved):
    ring = SWEEP[name]()
    if moved:
        ring, _ = zero_moved(ring, seed=len(name))
        assert ring.zero != 0
    return ring


def kernel_only(monkeypatch, ring, endo, prop, envelope):
    with monkeypatch.context() as m:
        m.setattr(deciders, "_cleared_shapes", lambda sc, basis, amin, blocks: set())
        return check_property(ring, endo, prop, **envelope)


@pytest.mark.parametrize("moved", [False, True], ids=["as-built", "zero-moved"])
@pytest.mark.parametrize("name", list(SWEEP))
def test_screen_matches_the_kernel_on_every_endomorphism(monkeypatch, name, moved):
    # Besides the verdict and the witness, the screen must be exact: a
    # holding verdict never reaches the kernel, and a failing one reaches it
    # only at the p shape of its witness.  A screen that wrongly refused to
    # clear a shape would give the same verdict, only later.
    ring = sweep_ring(name, moved)
    assert basis_of(ring) is not None
    kernel_shapes = []
    least_violation = deciders._least_violation

    def kernel(sc, amin, p_shape, q_shape):
        kernel_shapes.append(p_shape)
        return least_violation(sc, amin, p_shape, q_shape)

    cleared = failed = 0
    for endo in all_endomorphisms(ring):
        for prop, envelope in SWEEP_REQUESTS:
            if prop in NEEDS_AUTOMORPHISM and not endo.is_automorphism:
                continue
            kernel_shapes.clear()
            with monkeypatch.context() as m:
                m.setattr(deciders, "_least_violation", kernel)
                verdict = check_property(ring, endo, prop, **envelope)
            expected = kernel_only(monkeypatch, ring, endo, prop, envelope)
            case = (endo.images, prop.value, envelope)
            assert verdict == expected, case
            if verdict.holds:
                assert kernel_shapes == [], case
                cleared += 1
            else:
                assert len(set(kernel_shapes)) == 1, case
                assert kernel_shapes[0][0] == len(verdict.witness.p_coeffs), case
                replay_witness(ring, endo, prop, verdict.witness)
                failed += 1
    assert cleared
    null = (np.asarray(ring.mul_table) == ring.zero).all()
    assert failed or null  # in a null ring every property holds


# at two columns _echelon works in uint16 over F_181 and in uint32 over F_193
@pytest.mark.parametrize("n", [181, 193])
def test_screen_matches_the_kernel_on_large_prime_fields(monkeypatch, n):
    ring, _ = zero_moved(make_zmod(n, size_cap=n), seed=n)
    for endo in (identity_endomorphism(ring), zero_endomorphism(ring)):
        for prop in FAMILY:
            verdict = check_property(ring, endo, prop, degree=1, budget=10**10)
            expected = kernel_only(monkeypatch, ring, endo, prop, {"degree": 1, "budget": 10**10})
            assert verdict == expected, (endo.label, prop.value)


SMALL_BATCHES = [
    ("example1", P.ALPHA_SKEW_ARMENDARIZ, {"degree": 2}),
    ("Z3xZ3", P.Q_ALPHA_SKEW_ARMENDARIZ, {"degree": 2}),
    ("F2[e]", P.ALPHA_QUASI_ARMENDARIZ, {"degree": 2}),
    ("gf4", P.LAURENT_Q_ALPHA_SKEW, {"window": (1, 1, 1, 1)}),
]


@pytest.mark.parametrize("name, prop, envelope", SMALL_BATCHES)
def test_screen_batches_of_one_p_match_the_kernel(monkeypatch, name, prop, envelope):
    ring = sweep_ring(name, moved=True)
    for endo in all_endomorphisms(ring):
        if prop in NEEDS_AUTOMORPHISM and not endo.is_automorphism:
            continue
        expected = kernel_only(monkeypatch, ring, endo, prop, envelope)
        with monkeypatch.context() as m:
            m.setattr(deciders, "_RANK_CELLS", 1)
            m.setattr(deciders, "_FIRST_RANK_ROWS", 1)
            assert check_property(ring, endo, prop, **envelope) == expected


def test_prime_basis_is_found_once_per_ring(monkeypatch):
    calls = []
    walk = rings._additive_walk

    def counted(add, zero):
        calls.append(zero)
        return walk(add, zero)

    z2 = make_zmod(2)
    monkeypatch.setattr(rings, "_additive_walk", counted)
    ring = make_direct_product(z2, z2)
    for prop in FAMILY:
        check_property(ring, identity_endomorphism(ring), prop, degree=1)
    assert len(calls) == 1  # at the build; the seven searches walk nothing
    assert ring.prime_basis[:2] == basis_of(ring)[:2]
    assert not ring.prime_basis[2].flags.writeable


def test_screen_hands_its_first_uncleared_shape_to_the_kernel(monkeypatch):
    # example1 is not skew Armendariz at degree 2; its least witness has p of
    # degree 1, so the screen clears degree 0, stops at its first batch with
    # a witness, and the kernel starts at degree 1
    entry = entry_by_name("example1")
    hits, firsts, kernel_shapes = [], [], []
    witnessed, first_uncleared = deciders._RankScreen._witnessed, deciders._RankScreen.first_uncleared
    least_violation = deciders._least_violation

    def batch(self, ps, *args):
        hits.append(witnessed(self, ps, *args).copy())
        return hits[-1]

    def first(self, *args):
        firsts.append(first_uncleared(self, *args))
        return firsts[-1]

    def kernel(sc, amin, p_shape, q_shape):
        kernel_shapes.append(p_shape)
        return least_violation(sc, amin, p_shape, q_shape)

    monkeypatch.setattr(deciders._RankScreen, "_witnessed", batch)
    monkeypatch.setattr(deciders._RankScreen, "first_uncleared", first)
    monkeypatch.setattr(deciders, "_least_violation", kernel)
    verdict = check_property(entry.ring, entry.endo, P.ALPHA_SKEW_ARMENDARIZ, degree=2)
    assert firsts == [1]
    assert hits[-1].any() and not any(h.any() for h in hits[:-1])
    assert set(kernel_shapes) == {(2, True)}
    assert (verdict.witness.p_coeffs, verdict.witness.q_coeffs) == ((1, 1), (2, 1))
    monkeypatch.undo()
    assert verdict == kernel_only(
        monkeypatch, entry.ring, entry.endo, P.ALPHA_SKEW_ARMENDARIZ, {"degree": 2}
    )


def test_screen_counts_of_two_statements_on_one_twist_are_pinned_and_repeat(monkeypatch):
    # alpha-armendariz and alpha-skew-armendariz share the hypothesis pq = 0,
    # so on one twist object the second search reads the null spaces of H(p)
    # that the first eliminated; both hold at degree 1, the screen clearing
    # both p shapes in one batch of 10 p
    scanners = []

    class Recording(deciders._Scanner):
        def __init__(self, *args):
            super().__init__(*args)
            scanners.append(self)

    monkeypatch.setattr(deciders, "_Scanner", Recording)
    entry = entry_by_name("example4")
    for _ in range(2):
        endo = table_endomorphism(entry.ring, entry.endo.images, entry.endo.label)
        for prop in (P.ALPHA_ARMENDARIZ, P.ALPHA_SKEW_ARMENDARIZ):
            assert check_property(entry.ring, endo, prop, degree=1).holds
    counts = [sc.counts for sc in scanners]
    assert counts[0] == counts[2] == {"rank_batches": 1, "screen_p": 10, "null_spaces_built": 10}
    assert counts[1] == counts[3] == {"rank_batches": 1, "screen_p": 10, "null_spaces_reused": 10}


# --------------------------------------------------------------------------
# reach and memory


def test_example3_analogue_at_degree_2_holds_quickly_in_bounded_memory():
    # 25^6 ≈ 2.4·10^8 nominal tuples, over the default budget; the kernel
    # alone took 0.5–1.2 s per property, the screen takes milliseconds
    entry = entry_by_name("example3_analogue")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        for prop in FAMILY:
            verdict = check_property(entry.ring, entry.endo, prop, degree=2, budget=10**9)
            assert verdict.holds, prop
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 20
    assert peak < 4 << 20


def test_screen_batches_stay_within_their_cell_cap():
    # at degree 3 about 16 k p reach the screen: uncapped, its batches grow
    # to 8 k p and the peak to about 22 MB
    entry = entry_by_name("example3_analogue")
    tracemalloc.start()
    try:
        verdict = check_property(
            entry.ring, entry.endo, P.ALPHA_ARMENDARIZ, degree=3, budget=10**15
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak < 4 << 20
