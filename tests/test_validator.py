"""Fast paths of table validation, carrier construction and the element
predicates against slow references.

The references are the per-element loops the vectorised code replaced; they
use only the tables, so they do not share the code they check.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from skewarm.rings import (
    _additive_walk,
    _irreducible,
    _poly_divmod,
    _scan_axioms,
    _validate,
    all_endomorphisms,
    make_bimodule,
)
from skewarm.corpus import all_entries


def _validate_tables(n, add, mul, labels):
    """The validator under test: (zero, neg_table, one) of ``rings._validate``."""
    return _validate(n, add, mul, labels)[:3]


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


@st.composite
def small_tables(draw):
    """Tables with (R,+) an abelian group of order n <= 9 and the zero moved
    off index 0: a valid ring (some bilinear products are not associative),
    the same with one product entry changed, or Z_n with x·y = x (only left
    distributivity fails) or x·y = y (only right distributivity fails)."""
    kind = draw(st.sampled_from(["ring", "changed", "x·y = x", "x·y = y"]))
    if kind.startswith("x·y"):
        idx = np.arange(draw(st.integers(2, 9)))
        add = (idx[:, None] + idx) % len(idx)
        mul = np.broadcast_to(idx[:, None] if kind == "x·y = x" else idx, add.shape).copy()
    else:
        add, mul = draw(st.one_of(
            st.sampled_from(CARRIERS),
            st.builds(_scaled_zmod, st.integers(1, 9), st.integers(0, 8)),
            st.integers(1, 3).flatmap(lambda k: st.builds(
                _bilinear, st.just(k), st.lists(st.integers(0, 2**k - 1), min_size=k * k,
                                                max_size=k * k))),
        ))
        mul = mul.copy()
        if kind == "changed":
            n = len(add)
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            mul[i, j] = (mul[i, j] + draw(st.integers(1, max(n - 1, 1)))) % n
    return _relabel(add, mul, draw(st.permutations(range(len(add)))))


@settings(max_examples=300, deadline=None)
@given(tables=small_tables())
def test_validator_raises_exactly_when_the_ordered_scan_does(tables):
    # the generator checks must fail exactly when the ordered scan of every
    # triple, which then names the error, finds a violation
    add, mul = tables
    labels = tuple(f"e{i}" for i in range(len(add)))
    try:
        _scan_axioms(add, mul, labels)
        expected = None
    except AxiomError as err:
        expected = str(err)
    got = _outcome(_validate_tables, add, mul)
    assert (got if isinstance(got, str) else None) == expected


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
# additive generators: the closure one queued element at a time


def _reference_additive_generators(add):
    """The least index outside the closure of the generators so far, the
    closure grown by summing one queued element with every closed one."""
    n = len(add)
    inside = np.zeros(n, dtype=bool)
    closed = np.empty(n, dtype=np.int64)  # closed[:k]: all their pairwise sums are taken
    k = 0
    gens = []
    for g in range(n):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        queue = [g]
        while queue:
            z = queue.pop()
            closed[k] = z
            k += 1
            reached = np.zeros(n, dtype=bool)
            reached[add[z, closed[:k]]] = True
            queue.extend(np.flatnonzero(reached & ~inside).tolist())
            inside |= reached
    return gens


@settings(max_examples=60, deadline=None)
@given(tables=relabelled_carriers())
def test_additive_generators_match_one_element_closure(tables):
    # zero moved off index 0, non-unital and null multiplications among them
    add, _ = tables
    expected = _reference_additive_generators(add)
    zero = int(np.flatnonzero((add == np.arange(len(add))).all(axis=1))[0])
    assert _additive_walk(add, zero)[0] == expected
    # validation runs on the least dtype
    assert _additive_walk(add.astype(np.min_scalar_type(len(add) - 1)), zero)[0] == expected


# commutative, with a unique zero and unique inverses, but not associative:
# adding 2 (first table) or 1 (second) is no bijection, so the cosets of the
# walk overlap; in the second, 1's multiples 1, 2, 2 repeat off the span
NOT_A_GROUP = (
    [[0, 1, 2, 3], [1, 0, 1, 3], [2, 1, 0, 1], [3, 3, 1, 0]],
    [[0, 1, 2, 3], [1, 2, 2, 0], [2, 2, 0, 1], [3, 0, 1, 2]],
)


@pytest.mark.parametrize("add", NOT_A_GROUP)
def test_addition_that_is_no_group_ends_in_the_ordered_scan(add):
    add, mul = np.array(add), np.zeros((4, 4), dtype=np.int64)
    assert _additive_walk(add, 0) == ([0, 1, 2, 3], None)
    labels = tuple(f"e{i}" for i in range(4))
    with pytest.raises(AxiomError) as scanned:
        _scan_axioms(add, mul, labels)
    assert "addition not associative" in str(scanned.value)
    assert _outcome(_validate_tables, add, mul) == str(scanned.value)


# --------------------------------------------------------------------------
# bimodules: the ordered scan of every law instance


def _reference_bimodule(ring, add, lact, ract):
    """The first violated bimodule axiom, as make_bimodule words it, from
    loops over every instance in order; None when all hold."""
    m, n = len(add), ring.size
    radd, rmul = ring.add_table, ring.mul_table
    if any(add[a][b] != add[b][a] for a in range(m) for b in range(m)):
        return "bimodule addition not commutative"
    zeros = [z for z in range(m) if list(add[z]) == list(range(m))]
    if len(zeros) != 1:
        return "bimodule addition has no unique identity"
    for a in range(m):
        if list(add[a]).count(zeros[0]) != 1:
            return f"bimodule element m{a} has no unique inverse"
    for a, b, c in itertools.product(range(m), repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return "bimodule addition not associative"
    for r, m1, m2 in itertools.product(range(n), range(m), range(m)):
        if lact[r][add[m1][m2]] != add[lact[r][m1]][lact[r][m2]]:
            return f"left action not additive in the module at (r,m1,m2)=({r},{m1},{m2})"
        if ract[add[m1][m2]][r] != add[ract[m1][r]][ract[m2][r]]:
            return f"right action not additive in the module at (m1,m2,r)=({m1},{m2},{r})"
    for r, s, x in itertools.product(range(n), range(n), range(m)):
        if lact[radd[r][s]][x] != add[lact[r][x]][lact[s][x]]:
            return f"left action not additive in the ring at (r,s,m)=({r},{s},{x})"
        if ract[x][radd[r][s]] != add[ract[x][r]][ract[x][s]]:
            return f"right action not additive in the ring at (m,r,s)=({x},{r},{s})"
        if lact[rmul[r][s]][x] != lact[r][lact[s][x]]:
            return f"left action not associative at (r,s,m)=({r},{s},{x})"
        if ract[x][rmul[r][s]] != ract[ract[x][r]][s]:
            return f"right action not associative at (m,r,s)=({x},{r},{s})"
        if ract[lact[r][x]][s] != lact[r][ract[x][s]]:
            return f"actions not compatible at (r,m,s)=({r},{x},{s})"
    return None


def _bimodule_outcome(ring, add, lact, ract):
    try:
        make_bimodule(ring, add, lact, ract)
    except AxiomError as err:
        return str(err)
    return None


def _ut2():
    return make_table_ring(*_upper_triangular(2), label="UT2(Z2)")


def _regular_tables(ring):
    module = regular_bimodule(ring)
    return [np.array(t) for t in (module.add_table, module.left_action, module.right_action)]


BIMODULE_LAWS = (
    "bimodule addition not commutative",
    "bimodule addition has no unique identity",
    "no unique inverse",
    "bimodule addition not associative",
    "left action not additive in the module",
    "right action not additive in the module",
    "left action not additive in the ring",
    "right action not additive in the ring",
    "left action not associative",
    "right action not associative",
    "actions not compatible",
)


def _corruptions(tables):
    """Single-entry corruptions of each table (addition, left action, right
    action), then every row of the left action copied over another and
    every column of the right action likewise, which keeps the actions
    additive in the module and breaks the ring laws."""
    size = len(tables[0])
    for which, table in enumerate(tables):
        for (i, j), shift in itertools.product(np.ndindex(table.shape), range(1, size)):
            out = [t.copy() for t in tables]
            out[which][i, j] = (out[which][i, j] + shift) % size
            yield out
    for r, s in itertools.permutations(range(len(tables[1])), 2):
        out = [t.copy() for t in tables]
        out[1][r] = out[1][s]
        yield out
        out = [t.copy() for t in tables]
        out[2][:, r] = out[2][:, s]
        yield out


def _twisted_right_action(ring):
    """The regular bimodule with its right action moved through an additive
    bijection tau of M that is not left R-linear: x·s = tau^-1(tau(x)s).
    Both actions are module structures, but they are not compatible."""
    add, lact, ract = _regular_tables(ring)
    # swap the coordinates a and b of (a, b, d) at index 4a + 2b + d
    tau = np.array([4 * ((i >> 1) & 1) + 2 * (i >> 2) + (i & 1) for i in range(8)])
    inverse = np.argsort(tau)
    return add, lact, inverse[ract[tau]]


def _doubled_actions(ring):
    """The regular bimodule with one action taken through r -> r + r, which
    on Z4 is additive but not multiplicative: each action stays additive
    and compatible with the other, and is no longer associative."""
    add, lact, ract = _regular_tables(ring)
    double = ring.add_array.diagonal()
    yield add, lact[double], ract
    yield add, lact, ract[:, double]


def _non_additive_actions(ring):
    """Z4 acting on Z4 by r·x = r·phi(x) with phi = (0, 0, 2, 2), which is
    not additive, and the other action zero: every law holds but the
    additivity in the module of that one action."""
    add, lact, ract = _regular_tables(ring)
    phi = np.array([0, 0, 2, 2])
    yield add, lact[:, phi], np.zeros_like(ract)
    yield add, np.zeros_like(lact), ract[phi]


def test_bimodule_matches_ordered_scan_on_every_corruption():
    seen = set()
    for ring in (make_zmod(4), _ut2()):
        cases = list(_corruptions(_regular_tables(ring)))
        if ring.size == 4:
            cases.extend(_doubled_actions(ring))
            cases.extend(_non_additive_actions(ring))
        else:
            cases.append(_twisted_right_action(ring))
        for add, lact, ract in cases:
            got = _bimodule_outcome(ring, add, lact, ract)
            assert got == _reference_bimodule(ring, add.tolist(), lact.tolist(), ract.tolist())
            if got is not None:
                seen.update(law for law in BIMODULE_LAWS if law in got)
    assert seen == set(BIMODULE_LAWS)


@pytest.mark.parametrize("add", [[[0, 1], [1, 5]], [[0, 1], [1, -1]], [[0, 1, 0], [1, 0, 1]]],
                         ids=["entry-too-large", "entry-negative", "two-by-three"])
def test_bimodule_checks_the_addition_table_shape_and_range_first(add):
    z2 = make_zmod(2)
    _, lact, ract = _regular_tables(z2)
    assert _bimodule_outcome(z2, add, lact, ract) == (
        "bimodule addition must be a 2x2 table with entries in 0..1"
    )


def test_bimodule_checks_one_label_per_element():
    z2 = make_zmod(2)
    with pytest.raises(AxiomError, match=r"^expected 2 labels, got 1$"):
        make_bimodule(z2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 1]], labels=["a"])


@pytest.mark.parametrize(
    "which, name",
    [(0, "addition"), (1, "left action"), (2, "right action")],
)
def test_bimodule_refuses_a_ragged_table_by_name(which, name):
    z2 = make_zmod(2)
    tables = [[[0, 1], [1, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 1]]]
    tables[which] = [[0, 1], [1]]
    assert _bimodule_outcome(z2, *tables) == (
        f"bimodule {name} must be a 2x2 table with entries in 0..1"
    )


@pytest.mark.parametrize("which", ["add", "mul"])
def test_table_ring_refuses_a_ragged_table_by_name(which):
    tables = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
    tables[which] = [[0, 1], [1]]
    with pytest.raises(AxiomError, match=rf"^{which} table must be 2 rows of 2 integers$"):
        make_table_ring(tables["add"], tables["mul"])


def test_bimodule_over_the_zero_ring_checks_that_zero_acts_as_zero():
    # the zero ring has no nonzero additive generator; with 0·x = x on Z2
    # every law holds but (0+0)·x = 0·x + 0·x
    z1 = make_zmod(1)
    add, lact, ract = [[0, 1], [1, 0]], [[0, 1]], [[0], [0]]
    got = _bimodule_outcome(z1, np.array(add), np.array(lact), np.array(ract))
    assert got == _reference_bimodule(z1, add, lact, ract)
    assert got == "left action not additive in the ring at (r,s,m)=(0,0,1)"


@settings(max_examples=80, deadline=None)
@given(which=st.integers(0, 2), data=st.data())
def test_bimodule_matches_ordered_scan_on_z16(which, data):
    ring = make_zmod(16)
    tables = _regular_tables(ring)
    i, j = data.draw(st.integers(0, 15)), data.draw(st.integers(0, 15))
    tables[which][i, j] = (tables[which][i, j] + data.draw(st.integers(1, 15))) % 16
    if data.draw(st.booleans()) and which > 0:  # a row or column copied instead
        tables = _regular_tables(ring)
        if which == 1:
            tables[1][i] = tables[1][j]
        else:
            tables[2][:, i] = tables[2][:, j]
    got = _bimodule_outcome(ring, *tables)
    assert got == _reference_bimodule(ring, *(t.tolist() for t in tables))


@pytest.mark.parametrize("build", [lambda: make_zmod(4), lambda: make_zmod(16), _ut2],
                         ids=["Z4", "Z16", "UT2(Z2)"])
def test_regular_bimodule_passes_the_ordered_scan(build):
    ring = build()
    module = regular_bimodule(ring)
    assert _reference_bimodule(ring, module.add_table, module.left_action,
                               module.right_action) is None
    assert np.array_equal(module.add_table, ring.add_array)
    assert np.array_equal(module.left_action, ring.mul_array)
    assert np.array_equal(module.right_action, ring.mul_array)
    assert module.neg_table == ring.neg_table and module.zero == ring.zero
    for table in (module.add_table, module.left_action, module.right_action):
        assert not table.flags.writeable
    tables = _regular_tables(ring)  # the caller's int64 arrays stay writable
    make_bimodule(ring, *tables)
    assert all(table.flags.writeable for table in tables)


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


def _reference_map_error(domain, codomain, images, iso=False):
    """The error ``table_endomorphism`` (or, with ``iso``, ``make_isomorphism``)
    raises for a map of the right length and range, from a scan of all n^2
    pairs in order; None when it accepts the map."""
    n, f = domain.size, images
    add, mul = domain.add_table, domain.mul_table
    cadd, cmul = codomain.add_table, codomain.mul_table
    labels = domain.element_labels
    if iso and len(set(f)) != n:
        return "map is not a bijection"
    for a, b in itertools.product(range(n), repeat=2):
        for law, op, cop, sign in (("additive", add, cadd, "+"), ("multiplicative", mul, cmul, "·")):
            if f[op[a][b]] != cop[f[a]][f[b]]:
                if iso:
                    return f"map not {law} at ({a},{b})"
                return (
                    f"map not {law} at (a,b)=({labels[a]},{labels[b]}): "
                    f"f(a{sign}b) = {labels[f[op[a][b]]]} but "
                    f"f(a){sign}f(b) = {labels[cop[f[a]][f[b]]]}"
                )
    if iso and f[domain.zero] != codomain.zero:
        return "map does not send zero to zero"
    if iso and None not in (domain.one, codomain.one) and f[domain.one] != codomain.one:
        return "map does not send one to one"
    return None


def _map_outcome(build):
    try:
        build()
    except AxiomError as err:
        return str(err)
    return None


def _additive_map(ring, values):
    """The additive self-map sending the i-th nonzero additive generator to
    ``values[i]``, grown by f(x+g) = f(x) + f(g) from f(0) = 0; None when
    that is not well defined."""
    add = ring.add_table
    gens = [g for g in ring.generators if g != ring.zero]
    f = {ring.zero: ring.zero}
    todo = [ring.zero]
    while todo:
        x = todo.pop()
        for g, v in zip(gens, values):
            y, fy = add[x][g], add[f[x]][v]
            if y not in f:
                f[y] = fy
                todo.append(y)
            elif f[y] != fy:
                return None
    return [f[x] for x in range(ring.size)]


def _assert_map_checks_match_full_scan(ring, images, seed):
    assert _map_outcome(lambda: table_endomorphism(ring, images)) == _reference_map_error(
        ring, ring, images
    )
    # into a relabelled copy, whose generators differ
    other, sigma = random_relabeling(ring, seed)
    moved = [sigma.images[y] for y in images]
    assert _map_outcome(lambda: make_isomorphism(ring, other, moved)) == _reference_map_error(
        ring, other, moved, iso=True
    )


@pytest.mark.parametrize("entry", all_entries(), ids=lambda e: e.name)
def test_every_endomorphism_of_a_corpus_ring_passes_the_full_scan(entry):
    for seed, endo in enumerate(all_endomorphisms(entry.ring)):
        assert _reference_map_error(entry.ring, entry.ring, endo.images) is None
        _assert_map_checks_match_full_scan(entry.ring, endo.images, seed)


@settings(max_examples=150, deadline=None)
@given(
    tables=relabelled_carriers(),
    kind=st.sampled_from(["endomorphism", "random", "permutation", "additive", "changed",
                          "swapped"]),
    data=st.data(),
)
def test_map_checks_match_full_scan(tables, kind, data):
    ring = make_table_ring(*tables)
    n = ring.size
    endos = all_endomorphisms(ring)
    nonzero_gens = [g for g in ring.generators if g != ring.zero]
    outside = [x for x in range(n) if x not in nonzero_gens]
    if kind == "endomorphism":
        images = list(data.draw(st.sampled_from(endos)).images)
        assert _reference_map_error(ring, ring, images) is None
    elif kind == "random":
        images = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    elif kind == "permutation":
        images = data.draw(st.permutations(range(n)))
    elif kind == "additive":
        values = data.draw(st.lists(st.integers(0, n - 1), min_size=len(nonzero_gens),
                                    max_size=len(nonzero_gens)))
        images = _additive_map(ring, values)
        assume(images is not None)
    else:  # an endomorphism changed at one element outside G′
        assume(n > 1)
        images = list(data.draw(st.sampled_from(endos)).images)
        x = data.draw(st.sampled_from(outside))
        if kind == "changed":
            images[x] = (images[x] + data.draw(st.integers(1, n - 1))) % n
        else:
            y = data.draw(st.sampled_from([y for y in range(n) if y != x]))
            images[x], images[y] = images[y], images[x]
    _assert_map_checks_match_full_scan(ring, list(images), data.draw(st.integers(0, 99)))


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


def _lower_column(m: int):
    """The matrices [[0, b], [0, d]] over Z_m as (b, d), with
    (b, d)(b', d') = (b·d', d·d'): noncommutative and semicommutative, but
    not symmetric."""
    b, d = np.divmod(np.arange(m * m), m)
    add = (b[:, None] + b) % m * m + (d[:, None] + d) % m
    mul = b[:, None] * d % m * m + d[:, None] * d % m
    return add, mul


def _upper_row(m: int, k: int):
    """(a, b) in Z_m × Z_k, k | m, with (a, b)(c, d) = (ac, ad):
    noncommutative, symmetric and semicommutative."""
    a, b = np.divmod(np.arange(m * k), k)
    add = (a[:, None] + a) % m * k + (b[:, None] + b) % k
    mul = a[:, None] * a % m * k + a[:, None] * b % k
    return add, mul


def _late_symmetric_witness_ring():
    """_lower_column(2) × _upper_row(8, 4), 128 elements.  The second
    factor is symmetric, so a pair fails only where its first components
    do, and the 32 rows whose first component is zero hold 2,688 pairs
    with ab != ba before the first that fails."""
    first, second = make_table_ring(*_lower_column(2)), make_table_ring(*_upper_row(8, 4))
    return make_direct_product(first, second)


def _law_carriers(seed):
    """Each carrier of the symmetric and semicommutative loop tests as
    built, and moved by a seeded permutation that takes the zero off
    index 0: the small rings, a nonunital noncommutative ring, the zero
    ring, a null multiplication, and a ring whose symmetric witness is
    not its first pair with ab != ba and lies past the scan's first
    block."""
    rings = _small_rings() + [
        make_table_ring(*_lower_column(2)),
        make_table_ring(*_scaled_zmod(1, 0)),
        make_table_ring(*_scaled_zmod(5, 0)),
        _late_symmetric_witness_ring(),
    ]
    rng = np.random.default_rng(seed)
    for ring in rings:
        yield ring
        yield make_table_ring(*_relabel(*_tables(ring), rng.permutation(ring.size)))


def _pairs_apart_before(ring, a, b):
    """How many pairs with xy != yx come before (a, b) in row-major order."""
    apart = ring.mul_array != ring.mul_array.T
    return int(np.count_nonzero(apart[:a]) + np.count_nonzero(apart[a, :b]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symmetric_matches_loop_reference(seed):
    carriers = list(_law_carriers(seed))
    assert any(ring.zero != 0 for ring in carriers)
    for ring in carriers:
        assert _scanned_witness(is_symmetric, ring) == _reference_symmetric_witness(ring)
    assert not is_symmetric(carriers[0]).holds
    # the first pair with ab != ba, (1, 4), is no witness, and the witness
    # lies past the scan's first block
    late = _late_symmetric_witness_ring()
    assert _pairs_apart_before(late, 1, 4) == 0 and late.mul(1, 4) != late.mul(4, 1)
    assert _scanned_witness(is_symmetric, late) == ((32, 64, 32), (64,))
    assert _pairs_apart_before(late, 32, 64) >= _ELEMENT_ROWS * late.size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_semicommutative_matches_loop_reference(seed):
    for ring in _law_carriers(seed):
        got = _scanned_witness(is_semicommutative, ring)
        assert got == _reference_semicommutative_witness(ring)
    ut2, tz4 = _small_rings()[:2]
    assert not is_semicommutative(ut2).holds
    assert is_semicommutative(tz4).holds
    # The greedy generators always hold the least r of a failing pair (ab
    # = 0, arb != 0): the r before it lie in the subgroup a·r·b = 0, so
    # their closure does.  Given the generating set {e22, e11 + e12, e11}
    # instead, the scan must still report r = e12, the least over R.
    e22, e12, e11 = 1, 2, 4
    other = dataclasses.replace(ut2, generators=(e22, ut2.add(e11, e12), e11))
    assert _scanned_witness(is_semicommutative, other) == ((e11, e22, e12), (e12,))
    assert _reference_semicommutative_witness(ut2) == ((e11, e22, e12), (e12,))


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
