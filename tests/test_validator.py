"""Fast paths of table validation, carrier construction and the element
predicates against slow references.

The references are the per-element loops the vectorised code replaced; they
use only the tables, so they do not share the code they check.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewarm import (
    AxiomError,
    make_direct_product,
    make_galois_field,
    make_isomorphism,
    make_table_ring,
    make_trivial_extension,
    make_zmod,
    random_relabeling,
    regular_bimodule,
    table_endomorphism,
)
from skewarm.deciders import (
    _ELEMENT_ROWS,
    is_commutative,
    is_domain,
    is_reversible,
    is_semicommutative,
    is_symmetric,
)
from skewarm.rings import _irreducible, _poly_divmod, _validate_tables


# --------------------------------------------------------------------------
# reference: the ordered full scan of every axiom instance


def _first_mismatch(a, b):
    bad = np.argwhere(a != b)
    if bad.size == 0:
        return None
    return tuple(int(x) for x in bad[0])


def _reference_validate(n, add, mul, labels):
    for name, t in (("add", add), ("mul", mul)):
        if t.shape != (n, n):
            raise AxiomError(f"{name} table must be {n}x{n}, got {t.shape}")
        if t.min() < 0 or t.max() >= n:
            raise AxiomError(f"{name} table entry out of range 0..{n - 1}")

    if not np.array_equal(add, add.T):
        a, b = _first_mismatch(add, add.T)
        raise AxiomError(
            f"addition not commutative at (a,b)=({labels[a]},{labels[b]})"
        )

    idx = np.arange(n)
    zero_rows = [z for z in range(n) if np.array_equal(add[z], idx)]
    if len(zero_rows) != 1:
        raise AxiomError("addition has no (or no unique) identity element")
    zero = zero_rows[0]

    neg = [-1] * n
    for a in range(n):
        inv = np.flatnonzero(add[a] == zero)
        if inv.size != 1:
            raise AxiomError(f"element {labels[a]} has no unique additive inverse")
        neg[a] = int(inv[0])

    for a in range(n):
        lhs = add[add[a], :]
        rhs = add[a][add]
        m = _first_mismatch(lhs, rhs)
        if m is not None:
            b, c = m
            raise AxiomError(
                f"addition not associative at (a,b,c)=({labels[a]},{labels[b]},{labels[c]})"
            )
    for a in range(n):
        lhs = mul[mul[a], :]
        rhs = mul[a][mul]
        m = _first_mismatch(lhs, rhs)
        if m is not None:
            b, c = m
            raise AxiomError(
                "multiplication not associative at (a,b,c)="
                f"({labels[a]},{labels[b]},{labels[c]}): "
                f"({labels[a]}·{labels[b]})·{labels[c]} = {labels[int(lhs[b, c])]} "
                f"but {labels[a]}·({labels[b]}·{labels[c]}) = {labels[int(rhs[b, c])]}"
            )
    for a in range(n):
        row = mul[a]
        lhs = row[add]
        rhs = add[np.ix_(row, row)]
        m = _first_mismatch(lhs, rhs)
        if m is not None:
            b, c = m
            raise AxiomError(
                "left distributivity fails at (a,b,c)="
                f"({labels[a]},{labels[b]},{labels[c]}): "
                f"{labels[a]}·({labels[b]}+{labels[c]}) = {labels[int(lhs[b, c])]} "
                f"but {labels[a]}·{labels[b]}+{labels[a]}·{labels[c]} = {labels[int(rhs[b, c])]}"
            )
        col = mul[:, a]
        lhs = col[add]
        rhs = add[np.ix_(col, col)]
        m = _first_mismatch(lhs, rhs)
        if m is not None:
            b, c = m
            raise AxiomError(
                "right distributivity fails at (a,b,c)="
                f"({labels[b]},{labels[c]},{labels[a]}): "
                f"({labels[b]}+{labels[c]})·{labels[a]} = {labels[int(lhs[b, c])]} "
                f"but {labels[b]}·{labels[a]}+{labels[c]}·{labels[a]} = {labels[int(rhs[b, c])]}"
            )

    ones = [
        i
        for i in range(n)
        if np.array_equal(mul[i], idx) and np.array_equal(mul[:, i], idx)
    ]
    one = ones[0] if ones else None
    return zero, tuple(neg), one


def _outcome(validate, add, mul):
    n = len(add)
    labels = tuple(f"e{i}" for i in range(n))
    try:
        return validate(n, add.copy(), mul.copy(), labels)
    except AxiomError as err:
        return str(err)


# --------------------------------------------------------------------------
# carriers


def _upper_triangular(m: int):
    """2x2 upper-triangular matrices over Z_m as (a, b, d): noncommutative, unital."""
    elems = list(itertools.product(range(m), repeat=3))
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[tuple((x + y) % m for x, y in zip(e, f))] for f in elems] for e in elems]
    mul = [
        [index[(a * a2 % m, (a * b2 + b * d2) % m, d * d2 % m)] for (a2, b2, d2) in elems]
        for (a, b, d) in elems
    ]
    return np.array(add), np.array(mul)


def _scaled_zmod(n: int, k: int):
    """Z_n with a·b = k·a·b: non-unital unless k is a unit, null multiplication at k = 0."""
    idx = np.arange(n)
    return (idx[:, None] + idx) % n, k * idx[:, None] * idx % n


def _tables(ring):
    return np.array(ring.add_table), np.array(ring.mul_table)


def _constructor_tables():
    z2, z3, z4 = make_zmod(2), make_zmod(3), make_zmod(4)
    return [
        _tables(make_zmod(6)),
        _tables(make_direct_product(z2, z4)),
        _tables(make_trivial_extension(z2, regular_bimodule(z2))),
        _tables(make_trivial_extension(z3, regular_bimodule(z3))),
        _tables(make_galois_field(2, 3)),
        _tables(make_galois_field(3, 2)),
        _upper_triangular(2),
        _scaled_zmod(8, 2),
        _scaled_zmod(6, 3),
        _scaled_zmod(5, 0),
        _scaled_zmod(1, 0),
    ]


CARRIERS = _constructor_tables()


def _relabel(add, mul, perm):
    """Transport the tables through ``perm``, moving the zero off index 0."""
    p = np.asarray(perm)
    if len(p) > 1 and p[0] == 0:
        p = (p + 1) % len(p)
    out = []
    for t in (add, mul):
        moved = np.empty_like(t)
        moved[np.ix_(p, p)] = p[t]
        out.append(moved)
    return out


@st.composite
def relabelled_carriers(draw):
    add, mul = draw(st.sampled_from(CARRIERS))
    perm = draw(st.permutations(range(len(add))))
    return _relabel(add, mul, perm)


@settings(max_examples=60, deadline=None)
@given(tables=relabelled_carriers())
def test_validator_accepts_what_the_full_scan_accepts(tables):
    add, mul = tables
    expected = _outcome(_reference_validate, add, mul)
    assert not isinstance(expected, str)
    assert _outcome(_validate_tables, add, mul) == expected


@settings(max_examples=200, deadline=None)
@given(
    tables=relabelled_carriers(),
    which=st.sampled_from(["add", "add-symmetric", "mul"]),
    data=st.data(),
)
def test_validator_matches_full_scan_on_corrupted_tables(tables, which, data):
    add, mul = tables
    n = len(add)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    shift = data.draw(st.integers(0, n - 1))
    t = mul if which == "mul" else add
    t[i, j] = (t[i, j] + shift) % n
    if which == "add-symmetric":
        t[j, i] = t[i, j]
    assert _outcome(_validate_tables, add, mul) == _outcome(_reference_validate, add, mul)


def _bilinear(k: int, constants):
    """(Z_2)^k with the bilinear product e_i·e_j = constants[i*k + j]: both
    distributive laws hold, associativity depends on the constants."""
    idx = np.arange(2**k)
    bit = [(idx >> i) & 1 for i in range(k)]
    mul = np.zeros((2**k, 2**k), dtype=np.int64)
    for i, j in itertools.product(range(k), repeat=2):
        mul ^= bit[i][:, None] * bit[j][None, :] * constants[i * k + j]
    return idx[:, None] ^ idx, mul


@settings(max_examples=100, deadline=None)
@given(
    constants=st.lists(st.integers(0, 7), min_size=9, max_size=9),
    perm=st.permutations(range(8)),
)
def test_validator_matches_full_scan_on_bilinear_products(constants, perm):
    add, mul = _relabel(*_bilinear(3, constants), perm)
    assert _outcome(_validate_tables, add, mul) == _outcome(_reference_validate, add, mul)


@pytest.mark.parametrize("side", ["left", "right"])
def test_validator_catches_one_sided_distributivity(side):
    # on Z_5, a·b = b for a != 0 (or a·b = a for b != 0): associative and
    # distributive on one side only
    idx = np.arange(5)
    mul = np.where(idx[:, None] != 0, idx, 0)
    if side == "right":
        mul = mul.T
    add, mul = _relabel((idx[:, None] + idx) % 5, mul, [3, 1, 4, 0, 2])
    got = _outcome(_validate_tables, add, mul)
    assert got == _outcome(_reference_validate, add, mul)
    assert got.startswith(("right" if side == "left" else "left") + " distributivity fails")


AXIOM_MESSAGES = (
    "addition not commutative",
    "addition has no (or no unique) identity",
    "no unique additive inverse",
    "addition not associative",
    "multiplication not associative",
    "left distributivity fails",
    "right distributivity fails",
)


def test_single_entry_corruptions_break_each_axiom_in_turn():
    seen = set()
    for add, mul in (
        _relabel(*_upper_triangular(2), [3, 5, 0, 1, 7, 2, 6, 4]),
        _relabel(*_scaled_zmod(4, 0), [2, 0, 3, 1]),
        _relabel(*_tables(make_direct_product(make_zmod(2), make_zmod(3))), range(6)),
    ):
        n = len(add)
        for which, i, j, shift in itertools.product(
            ("add", "add-symmetric", "mul"), range(n), range(n), range(1, n)
        ):
            a, m = add.copy(), mul.copy()
            t = m if which == "mul" else a
            t[i, j] = (t[i, j] + shift) % n
            if which == "add-symmetric":
                t[j, i] = t[i, j]
            got = _outcome(_validate_tables, a, m)
            assert got == _outcome(_reference_validate, a, m)
            if isinstance(got, str):
                seen.update(axiom for axiom in AXIOM_MESSAGES if axiom in got)
    assert seen == set(AXIOM_MESSAGES)


# --------------------------------------------------------------------------
# Galois fields: polynomial long division, one pair at a time


def _reference_galois_field(p, k):
    n = p**k
    modulus = None
    for m in range(n):
        f = [0] * k + [1]
        mm = m
        for i in range(k):
            f[i] = mm % p
            mm //= p
        if _irreducible(f, p):
            modulus = f
            break

    def digits(idx):
        out = []
        for _ in range(k):
            out.append(idx % p)
            idx //= p
        return out

    def index(coeffs):
        out = 0
        for c in reversed(coeffs[:k] + [0] * (k - len(coeffs))):
            out = out * p + c
        return out

    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    labels = []
    for a in range(n):
        da = digits(a)
        labels.append("(" + ",".join(str(c) for c in da) + ")")
        for b in range(n):
            db = digits(b)
            add[a][b] = index([(x + y) % p for x, y in zip(da, db)])
            conv = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
            _, rem = _poly_divmod(conv, modulus, p)
            mul[a][b] = index(rem + [0] * (k - len(rem)))

    mod_str = "x^" + str(k)
    for i in range(k - 1, -1, -1):
        if modulus[i]:
            term = f"{modulus[i]}" if i == 0 else (f"x^{i}" if i > 1 else "x")
            if modulus[i] > 1 and i > 0:
                term = f"{modulus[i]}{term}"
            mod_str += f"+{term}"
    return add, mul, tuple(labels), f"GF({n})[{mod_str}]"


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 5), (2, 8)])
def test_galois_field_matches_polynomial_reference(p, k):
    add, mul, labels, label = _reference_galois_field(p, k)
    field = make_galois_field(p, k)
    assert field.label == label
    assert field.element_labels == labels
    assert field.add_table == tuple(map(tuple, add))
    assert field.mul_table == tuple(map(tuple, mul))


# --------------------------------------------------------------------------
# homomorphism checks and the element predicates


def _map_error(build):
    with pytest.raises(AxiomError) as err:
        build()
    return str(err.value)


def test_non_homomorphism_messages_on_64_elements():
    z64 = make_zmod(64)
    assert _map_error(lambda: table_endomorphism(z64, [2 * x % 64 for x in range(64)])) == (
        "map not multiplicative at (a,b)=(1,1): f(a·b) = 2 but f(a)·f(b) = 4"
    )
    assert _map_error(lambda: table_endomorphism(z64, [x * x % 64 for x in range(64)])) == (
        "map not additive at (a,b)=(1,1): f(a+b) = 4 but f(a)+f(b) = 2"
    )
    # both laws fail at (0,0): the additive one is reported
    assert _map_error(lambda: table_endomorphism(z64, [(x + 2) % 64 for x in range(64)])) == (
        "map not additive at (a,b)=(0,0): f(a+b) = 2 but f(a)+f(b) = 4"
    )
    assert _map_error(lambda: make_isomorphism(z64, z64, [3 * x % 64 for x in range(64)])) == (
        "map not multiplicative at (1,1)"
    )


def _reference_symmetric_witness(ring):
    mul, zero = ring.mul_table, ring.zero
    n = ring.size
    for a in range(n):
        for b in range(n):
            ab, ba = mul[a][b], mul[b][a]
            for c in range(n):
                if mul[ab][c] == zero and mul[ba][c] != zero:
                    return (a, b, c), (mul[ba][c],)
    return None


def _reference_semicommutative_witness(ring):
    mul, zero = ring.mul_table, ring.zero
    n = ring.size
    for a in range(n):
        for b in range(n):
            if mul[a][b] != zero:
                continue
            for r in range(n):
                if mul[mul[a][r]][b] != zero:
                    return (a, b, r), (mul[mul[a][r]][b],)
    return None


def _reference_pair_witness(bad, values):
    """The least (a, b) with ``bad(a, b)``, and its certifying ``values``."""

    def reference(ring):
        for a in range(ring.size):
            for b in range(ring.size):
                if bad(ring, a, b):
                    return (a, b), values(ring, a, b)
        return None

    return reference


ELEMENT_SCANS = [
    (is_symmetric, _reference_symmetric_witness),
    (is_semicommutative, _reference_semicommutative_witness),
    (
        is_domain,
        _reference_pair_witness(
            lambda r, a, b: a != r.zero != b and r.mul(a, b) == r.zero,
            lambda r, a, b: (r.zero,),
        ),
    ),
    (
        is_commutative,
        _reference_pair_witness(
            lambda r, a, b: r.mul(a, b) != r.mul(b, a),
            lambda r, a, b: (r.mul(a, b), r.mul(b, a)),
        ),
    ),
    (
        is_reversible,
        _reference_pair_witness(
            lambda r, a, b: r.mul(a, b) == r.zero != r.mul(b, a),
            lambda r, a, b: (r.mul(b, a),),
        ),
    ),
]


def _scanned_witness(predicate, ring):
    witness = predicate(ring).witness
    if witness is None:
        return None
    # plain ints, as the structured output needs
    assert all(type(x) is int for x in witness.elements + witness.values)
    return witness.elements, witness.values


def _small_rings():
    add, mul = _upper_triangular(2)
    z4 = make_zmod(4)
    return [
        make_table_ring(add, mul),
        make_trivial_extension(z4, regular_bimodule(z4)),
        make_galois_field(2, 2),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symmetric_matches_loop_reference(seed):
    rings = _small_rings()
    for ring in rings:
        relabelled, _ = random_relabeling(ring, seed)
        for r in (ring, relabelled):
            assert _scanned_witness(is_symmetric, r) == _reference_symmetric_witness(r)
    assert not is_symmetric(rings[0]).holds


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_semicommutative_matches_loop_reference(seed):
    rings = _small_rings()
    for ring in rings:
        relabelled, _ = random_relabeling(ring, seed)
        for r in (ring, relabelled):
            got = _scanned_witness(is_semicommutative, r)
            assert got == _reference_semicommutative_witness(r)
    assert not is_semicommutative(rings[0]).holds
    assert is_semicommutative(rings[1]).holds


@settings(max_examples=60, deadline=None)
@given(tables=relabelled_carriers())
def test_element_scans_match_loop_references_on_validator_carriers(tables):
    # zero moved off index 0, non-unital and null multiplications among them
    ring = make_table_ring(*tables)
    for predicate, reference in ELEMENT_SCANS:
        assert _scanned_witness(predicate, ring) == reference(ring)


@pytest.mark.parametrize("predicate, reference", ELEMENT_SCANS[:2])
def test_element_scans_find_a_witness_past_the_first_block(predicate, reference):
    # UT2(Z2) × Z16: every witness has a nonzero first component, so a >= 16
    ring = make_direct_product(make_table_ring(*_upper_triangular(2)), make_zmod(16))
    assert ring.size == 128
    got = _scanned_witness(predicate, ring)
    assert got == reference(ring)
    assert got[0][0] >= _ELEMENT_ROWS
