"""Finite rings, ideals, bimodules, endomorphisms and isomorphisms as explicit tables.

Elements are dense indices ``0..n-1`` into immutable Cayley tables.  Every
constructor funnels through one exhaustive validator, so a ``FiniteRing``
that exists is guaranteed to satisfy all ring axioms.  Validation is never
sampled: each cubic law reduces to G′, the nonzero additive generators
(|G′| <= log2 n), as flat gathers (a sum x + y read at x·n + y of the
flattened table) on the least-dtype tables.  Light's test and right
distributivity cost O(|G′|·n^2), one generator at a time with
temporaries of O(n^2) size, left distributivity O(|G′|^2·n) and
multiplicative associativity O(|G′|^3); the deciders rely on the
resulting hard guarantees.  A homomorphism is checked on G′ too, in
O(|G′|·n).  A bimodule is checked by arrays the same way.  Only when a
law fails does an ordered scan of every instance run, so the error still
names the least one.  Each ring keeps the validated tables as read-only
numpy arrays, and the constructors, the endomorphism checks and the
deciders read those arrays; the public tuple tables are built from them
only when read.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_SIZE_CAP = 256

_FORBIDDEN_IN_LABELS = (" ", "\t", "\n", "+", "*")

_next_ring_id = itertools.count(1).__next__
_next_endo_id = itertools.count(1).__next__


class RingError(Exception):
    """Base class for all structural errors raised by this package."""


class AxiomError(RingError):
    """A table or map violates an axiom; the message carries the first violating instance."""


class SizeCapError(RingError):
    """A construction would exceed the configured carrier-size cap."""


class CarrierMismatchError(RingError):
    """Two values from different rings (or endomorphisms) were combined."""


def _check_labels(labels: tuple[str, ...]) -> None:
    names = set(labels)
    if len(names) != len(labels):
        raise AxiomError("element labels must be unique")
    # whole-text tests first; a forbidden character or "x^" cannot straddle
    # the NUL between two labels
    text = "\0".join(labels)
    if not ("" in names or "x" in names or "x^" in text
            or any(ch in text for ch in _FORBIDDEN_IN_LABELS)):
        return
    for lab in labels:
        if not lab:
            raise AxiomError("element labels must be nonempty")
        if any(ch in lab for ch in _FORBIDDEN_IN_LABELS):
            raise AxiomError(f"element label {lab!r} contains a forbidden character")
        if lab == "x" or "x^" in lab:
            raise AxiomError(f"element label {lab!r} collides with the polynomial variable")


@dataclass(frozen=True)
class RingElement:
    """An element of a specific ring; arithmetic across rings is rejected."""

    ring: "FiniteRing"
    index: int

    def _same(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if other.ring.ring_id != self.ring.ring_id:
            raise CarrierMismatchError(
                f"elements of {self.ring.label!r} and {other.ring.label!r} cannot be combined"
            )

    def __add__(self, other: "RingElement") -> "RingElement":
        self._same(other)
        return RingElement(self.ring, self.ring.add_table[self.index][other.index])

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._same(other)
        return RingElement(self.ring, self.ring.mul_table[self.index][other.index])

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, self.ring.neg_table[self.index])

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring.ring_id == other.ring.ring_id and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.ring.ring_id, self.index))

    @property
    def label(self) -> str:
        return self.ring.element_labels[self.index]

    def __repr__(self) -> str:
        return self.label


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """A finite ring given by full addition/multiplication tables.

    ``one`` is optional: rings without a two-sided identity are first-class.
    ``add_array`` and ``mul_array`` hold the tables as read-only numpy arrays
    in the least unsigned dtype that holds every index
    (``np.min_scalar_type(n - 1)``).  ``generators`` and ``prime_basis``
    come from the one walk of (R,+) at validation (``_additive_walk``).
    The generators hold the zero when it is the least index, as it is in
    every builtin ring; the law checks skip it (``_nonzero_generators``).
    The public tables ``add_table`` and ``mul_table`` are the same tables
    as tuples of row tuples, and therefore immutable; each is built from its
    array on first read and kept.  Instances compare by identity
    (``ring_id``), never structurally.
    """

    ring_id: int
    size: int
    neg_table: tuple[int, ...]
    zero: int
    one: int | None
    label: str
    element_labels: tuple[str, ...]
    _label_index: dict[str, int] = field(repr=False)
    add_array: np.ndarray = field(repr=False)
    mul_array: np.ndarray = field(repr=False)
    generators: tuple[int, ...] = field(repr=False)
    prime_basis: tuple | None = field(repr=False)

    @functools.cached_property
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        """``add_array`` as row tuples of n² Python ints, built on first
        read and kept.  The structured formats read and write the arrays
        and never read this."""
        return tuple(map(tuple, self.add_array.tolist()))

    @functools.cached_property
    def mul_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.mul_array.tolist()))

    @property
    def is_unital(self) -> bool:
        return self.one is not None

    def elements(self) -> range:
        return range(self.size)

    def element(self, index: int) -> RingElement:
        if not 0 <= index < self.size:
            raise RingError(f"element index {index} out of range for {self.label!r}")
        return RingElement(self, index)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def element_index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise RingError(f"no element labelled {label!r} in {self.label!r}") from None

    def characteristic(self) -> int | None:
        """Additive order of the identity, or None for non-unital rings."""
        if self.one is None:
            return None
        acc = self.one
        for k in range(1, self.size + 1):
            if acc == self.zero:
                return k
            acc = int(self.add_array[acc, self.one])
        raise AxiomError("identity has no additive order")  # pragma: no cover

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, size={self.size})"


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> tuple[int, ...] | None:
    bad = np.argwhere(a != b)
    if bad.size == 0:
        return None
    return tuple(int(x) for x in bad[0])


def _scan_axioms(add: np.ndarray, mul: np.ndarray, labels: tuple[str, ...]) -> None:
    """Check associativity and distributivity at every triple; raise AxiomError
    for the first violation: additive associativity over all (a,b,c) first,
    then multiplicative associativity, then both distributive laws per a.

    Chunked by the first axis so memory stays O(n^2) even at the size cap.
    """
    n = len(add)
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


def _additive_walk(add: np.ndarray, zero: int):
    """One walk of (R,+): ``(generators, prime_basis)``.

    Each generator g is the least index not yet reached (the zero first
    when it is index 0).  Its multiples g, 2g, ... are read from the column
    ``add[:, g]`` until one is reached (in the span, or a repeat), and one
    gather reaches every coset span + c·g.  In a group these are the
    generators of the greedy closure, at most log2 n besides the zero, and
    x = Σ e_i·g_i sits in the final span at Σ e_i·c_1···c_(i-1), e_i below
    c_i, the order of g_i modulo the span before it.  On any table only
    sums of reached elements are marked, so the generators and the zero
    reach every element by table sums.  When cosets overlap, (R,+) is no
    group, and every index is returned, for Light's test to find that.

    ``prime_basis`` is ``(p, basis, coords)`` when every order is one prime
    p and every run of multiples ended at the zero, so that (R,+) is F_p^m,
    else None: the basis is the nonzero generators and ``coords[x]``
    (n × m, read-only, entries in [0, p)) gives x = Σ coords[x][i]·basis[i].
    """
    n = len(add)
    reached = np.arange(n) == zero
    span = np.array([zero])
    gens, runs = [zero] if zero == 0 else [], set()
    while len(span) < n:
        g = int(np.argmin(reached))
        column, multiples, x = add[:, g], [zero], g
        while not reached[x]:
            reached[x] = True
            multiples.append(x)
            x = int(column[x])
        gens.append(g)
        runs.add((len(multiples), x == zero))
        span = add[np.array(multiples)[:, None], span].ravel()
        reached[span] = True
        if np.count_nonzero(reached) != len(span):
            return list(range(n)), None
    p = min(runs)[0] if runs else 0
    if runs != {(p, True)} or not _is_prime(p):
        return gens, None
    basis = [g for g in gens if g != zero]
    coords = np.argsort(span)[:, None] // p ** np.arange(len(basis)) % p
    coords.setflags(write=False)
    return gens, (p, basis, coords)


def _nonzero_generators(gens, zero: int) -> np.ndarray:
    """G′: the additive generators without the zero.  A law whose passing
    elements are closed under + needs no check at the zero: over a group
    of order n >= 2 the sums of G′ alone reach every element, the zero
    too.  The zero ring keeps its one element, so that a bimodule over it
    still has 0·x = 0 checked."""
    nonzero = [g for g in gens if g != zero]
    return np.asarray(nonzero or list(gens), dtype=np.intp)


def _light_test(add: np.ndarray, gens: np.ndarray) -> bool:
    """Light's associativity test with each generator g in the middle:
    (x+g)+y = x+(g+y).  The g that pass are closed under + in any magma,
    and the zero passes, so G′ suffices."""
    return all(np.array_equal(add[add[:, g]], add[:, add[g]]) for g in gens)


def _axioms_hold_on(add: np.ndarray, mul: np.ndarray, gens: np.ndarray) -> bool:
    """Associativity and distributivity, checked on G′ only (see
    ``_validate`` for why that is complete).

    A sum of two products x + y is read from the flat table at x·n + y.
    Right distributivity takes one ``np.take`` per generator, so each
    temporary is a single n × n array; left distributivity takes one of
    |G′| × n × |G′|.
    """
    if not _light_test(add, gens):
        return False
    n = len(add)
    flat_add = add.ravel()
    mul_n = mul.astype(np.intp) * n
    for g in gens:
        # (b+g)·a = b·a + g·a
        if not np.array_equal(mul[add[:, g]], np.take(flat_add, mul_n + mul[g])):
            return False
    g = gens[:, None, None]
    gg = mul[np.ix_(gens, gens)]
    # a·(b+c) = a·b + a·c at [a, b, c], with a, c in G′
    lhs = mul[g, add[:, gens]]
    if not np.array_equal(lhs, np.take(flat_add, mul_n[gens][:, :, None] + gg[:, None, :])):
        return False
    return np.array_equal(mul[gg[:, :, None], gens], mul[g, gg])


def _validate(
    n: int,
    add: np.ndarray,
    mul: np.ndarray,
    labels: tuple[str, ...],
) -> tuple[int, tuple[int, ...], int | None, list[int], tuple | None, np.ndarray, np.ndarray]:
    """Exhaustively check all ring axioms; return (zero, neg_table, one,
    additive generators, prime basis, add, mul), the tables as new arrays in
    the least dtype that holds every index (``np.min_scalar_type(n - 1)``).

    Commutativity, the unique zero and unique inverses of ``+`` are checked
    at every pair.  The cubic axioms are then reduced to G′, the nonzero
    elements of a generating set of (R,+) (``_additive_walk``,
    ``_nonzero_generators``, |G′| <= log2 n), which is complete:

    - Additive associativity (Light's test): the b with (a+b)+c = a+(b+c)
      for all a, c are closed under + in any magma, and b = 0 passes, so
      b in G′ suffices.
    - Right distributivity: once (R,+) is an abelian group, the c with
      (b+c)a = ba+ca for all a, b are closed under +, so c in G′ suffices.
    - Left distributivity: under right distributivity the a with
      a(b+c) = ab+ac for all b and all c in G′ are closed under +, so
      a in G′ suffices; for each a the c that pass are closed under +, so
      c in G′ suffices too.
    - Multiplicative associativity: under both distributive laws
      (ab)c - a(bc) is additive in each argument, so it vanishes everywhere
      iff it vanishes on G′^3.

    When any of these fails, ``_scan_axioms`` checks every triple in order,
    so the error names the first violated axiom and its least instance.
    """

    for name, t in (("add", add), ("mul", mul)):
        if t.shape != (n, n):
            raise AxiomError(f"{name} table must be {n}x{n}, got {t.shape}")
        if t.min() < 0 or t.max() >= n:
            raise AxiomError(f"{name} table entry out of range 0..{n - 1}")
    dtype = np.min_scalar_type(n - 1)
    add, mul = add.astype(dtype), mul.astype(dtype)

    if not np.array_equal(add, add.T):
        a, b = _first_mismatch(add, add.T)
        raise AxiomError(
            f"addition not commutative at (a,b)=({labels[a]},{labels[b]})"
        )

    idx = np.arange(n)
    zero_rows = np.flatnonzero((add == idx).all(axis=1))
    if len(zero_rows) != 1:
        raise AxiomError("addition has no (or no unique) identity element")
    zero = int(zero_rows[0])

    is_zero = add == zero
    no_inverse = np.flatnonzero(is_zero.sum(axis=1) != 1)
    if no_inverse.size:
        raise AxiomError(f"element {labels[no_inverse[0]]} has no unique additive inverse")
    neg = is_zero.argmax(axis=1)

    gens, basis = _additive_walk(add, zero)
    if not _axioms_hold_on(add, mul, _nonzero_generators(gens, zero)):
        _scan_axioms(add, mul, labels)

    ones = np.flatnonzero((mul == idx).all(axis=1) & (mul == idx[:, None]).all(axis=0))
    one = int(ones[0]) if ones.size else None
    return zero, tuple(neg.tolist()), one, gens, basis, add, mul


def _build_ring(
    add_table,
    mul_table,
    labels: tuple[str, ...] | None,
    label: str,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> FiniteRing:
    n = len(add_table)
    if n < 1:
        raise AxiomError("a ring needs at least one element")
    if n > size_cap:
        raise SizeCapError(f"carrier size {n} exceeds the cap of {size_cap}")
    if labels is None:
        labels = tuple(f"e{i}" for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise AxiomError(f"expected {n} labels, got {len(labels)}")
    _check_labels(labels)

    add = _int64(add_table, f"add table must be {n} rows of {n} integers")
    mul = _int64(mul_table, f"mul table must be {n} rows of {n} integers")
    zero, neg, one, gens, basis, add, mul = _validate(n, add, mul, labels)
    add.setflags(write=False)
    mul.setflags(write=False)

    return FiniteRing(
        ring_id=_next_ring_id(),
        size=n,
        neg_table=neg,
        zero=zero,
        one=one,
        label=label,
        element_labels=labels,
        _label_index={lab: i for i, lab in enumerate(labels)},
        add_array=add,
        mul_array=mul,
        generators=tuple(gens),
        prime_basis=basis,
    )


def _int64(table, error: str) -> np.ndarray:
    """``table`` as an int64 array; ``AxiomError(error)`` when numpy cannot
    make one (rows of unequal length, an entry that is no integer)."""
    try:
        return np.asarray(table, dtype=np.int64)
    except (TypeError, ValueError) as err:
        raise AxiomError(error) from err


def make_table_ring(
    add_table,
    mul_table,
    labels=None,
    label: str = "table-ring",
    size_cap: int = DEFAULT_SIZE_CAP,
) -> FiniteRing:
    """Build a ring from explicit tables, failing with the first violated axiom."""
    return _build_ring(add_table, mul_table, labels, label, size_cap)


def make_zmod(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """The ring of integers modulo ``n``."""
    if n < 1:
        raise RingError("modulus must be positive")
    if n > size_cap:
        raise SizeCapError(f"carrier size {n} exceeds the cap of {size_cap}")
    idx = np.arange(n)
    add = (idx[:, None] + idx) % n
    mul = (idx[:, None] * idx) % n
    return _build_ring(add, mul, tuple(str(i) for i in range(n)), f"Z{n}", size_cap)


def make_direct_product(
    r1: FiniteRing, r2: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP
) -> FiniteRing:
    """Componentwise product; the pair (i, j) is flattened as ``i * r2.size + j``."""
    n1, n2 = r1.size, r2.size
    n = n1 * n2
    if n > size_cap:
        raise SizeCapError(f"carrier size {n} exceeds the cap of {size_cap}")

    add = _pair_table(r1.add_array, r2.add_array[None, :, None, :])
    mul = _pair_table(r1.mul_array, r2.mul_array[None, :, None, :])
    labels = tuple(f"({x},{y})" for x in r1.element_labels for y in r2.element_labels)
    return _build_ring(add, mul, labels, f"{r1.label}(+){r2.label}", size_cap)


def _pair_table(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The table of a carrier of pairs (x, y), flattened as ``x * m + y``.

    ``first[x1, x2]`` gives the first component of the entry for the operands
    (x1, y1) and (x2, y2), and ``second`` (broadcastable to axes x1, y1, x2, y2,
    with m = ``second.shape[-1]`` values of y) gives the second.
    """
    m = second.shape[-1]
    n = len(first) * m
    # x * m + y outgrows the operands' compact dtype, so widen first
    return (first.astype(np.intp)[:, None, :, None] * m + second).reshape(n, n)


@dataclass(frozen=True, eq=False)
class Bimodule:
    """A two-sided module over a ring, with explicit action tables: the
    addition (m × m), the left action (n × m) and the right action (m × n)
    as read-only int64 arrays."""

    ring: FiniteRing
    size: int
    add_table: np.ndarray
    neg_table: tuple[int, ...]
    zero: int
    left_action: np.ndarray
    right_action: np.ndarray
    element_labels: tuple[str, ...]
    label: str


def make_bimodule(
    ring: FiniteRing,
    add_table,
    left_action,
    right_action,
    labels=None,
    label: str = "bimodule",
) -> Bimodule:
    """Validate and build a bimodule; all axioms are checked exhaustively.

    The checks run on arrays, the seven action laws on the nonzero additive
    generators of R and of M (``_bimodule_laws_hold``); when a law fails,
    ``_scan_bimodule_laws`` checks every instance in order, so the error
    names the first violated law and its least instance.
    """
    m = len(add_table)
    n = ring.size
    if labels is None:
        labels = tuple(f"m{i}" for i in range(m))
    labels = tuple(str(x) for x in labels)
    if len(labels) != m:
        raise AxiomError(f"expected {m} labels, got {len(labels)}")
    _check_labels(labels)

    add = _check_action_table("addition", add_table, (m, m), m)
    if not np.array_equal(add, add.T):
        raise AxiomError("bimodule addition not commutative")
    idx = np.arange(m)
    zero_rows = np.flatnonzero((add == idx).all(axis=1))
    if len(zero_rows) != 1:
        raise AxiomError("bimodule addition has no unique identity")
    zero = int(zero_rows[0])
    is_zero = add == zero
    no_inverse = np.flatnonzero(is_zero.sum(axis=1) != 1)
    if no_inverse.size:
        raise AxiomError(f"bimodule element {labels[no_inverse[0]]} has no unique inverse")
    neg = is_zero.argmax(axis=1)

    gens = _nonzero_generators(_additive_walk(add, zero)[0], zero)
    if not _light_test(add, gens):
        raise AxiomError("bimodule addition not associative")
    lact = _check_action_table("left action", left_action, (n, m), m)
    ract = _check_action_table("right action", right_action, (m, n), m)
    if not _bimodule_laws_hold(ring, add, gens, lact, ract):
        _scan_bimodule_laws(ring, add.tolist(), lact.tolist(), ract.tolist())
    for table in (add, lact, ract):
        table.setflags(write=False)

    return Bimodule(
        ring=ring,
        size=m,
        add_table=add,
        neg_table=tuple(neg.tolist()),
        zero=zero,
        left_action=lact,
        right_action=ract,
        element_labels=labels,
        label=label,
    )


def _check_action_table(name: str, table, shape: tuple[int, int], m: int) -> np.ndarray:
    """``table`` as an int64 array of its own (the bimodule keeps it read-only),
    once it has the shape and entries in 0..m-1 (M's elements)."""
    error = f"bimodule {name} must be a {shape[0]}x{shape[1]} table with entries in 0..{m - 1}"
    table = _int64(table, error)
    if table.shape != shape or table.min() < 0 or table.max() >= m:
        raise AxiomError(error)
    return table.copy()


def _bimodule_laws_hold(
    ring: FiniteRing, madd: np.ndarray, mgens: np.ndarray, lact: np.ndarray, ract: np.ndarray
) -> bool:
    """The seven action laws, checked on the nonzero additive generators g
    of R and h of M only (``_nonzero_generators``), one generator per
    gather.  With both additions abelian groups this is complete:

    - Additivity: the h with r(x+h) = rx + rh for all r, x are closed under
      +, so h in M's generators suffices; likewise (x+h)r, (r+g)x and x(r+g).
    - Associativity and compatibility: once the four additive laws hold,
      (rg)x - r(gx), x(gs) - (xg)s and (rh)s - r(hs) are additive in g, g
      and h, so generators suffice there too.

    A sum of two module elements x + y is read from the flat table at
    x·m + y.
    """
    radd, rmul = ring.add_array, ring.mul_array
    rgens = _nonzero_generators(ring.generators, ring.zero)
    m = len(madd)
    flat = madd.ravel()
    lact_m, ract_m = lact * m, ract * m
    for h in mgens:
        # r(x+h) = rx + rh, (x+h)r = xr + hr, (rh)s = r(hs)
        if not (
            np.array_equal(lact[:, madd[:, h]], np.take(flat, lact_m + lact[:, h, None]))
            and np.array_equal(ract[madd[:, h]], np.take(flat, ract_m + ract[h]))
            and np.array_equal(ract[lact[:, h]], lact[:, ract[h]])
        ):
            return False
    for g in rgens:
        # (r+g)x = rx + gx, x(r+g) = xr + xg, (rg)x = r(gx), x(gs) = (xg)s
        if not (
            np.array_equal(lact[radd[:, g]], np.take(flat, lact_m + lact[g]))
            and np.array_equal(ract[:, radd[:, g]], np.take(flat, ract_m + ract[:, g, None]))
            and np.array_equal(lact[rmul[:, g]], lact[:, lact[g]])
            and np.array_equal(ract[:, rmul[g]], ract[ract[:, g]])
        ):
            return False
    return True


def _scan_bimodule_laws(ring: FiniteRing, madd: list, lact: list, ract: list) -> None:
    """Check every instance of the seven action laws in order; raise
    AxiomError for the first violation."""
    n, m = ring.size, len(madd)
    radd, rmul = ring.add_table, ring.mul_table
    for r in range(n):
        for m1 in range(m):
            for m2 in range(m):
                if lact[r][madd[m1][m2]] != madd[lact[r][m1]][lact[r][m2]]:
                    raise AxiomError(
                        f"left action not additive in the module at (r,m1,m2)=({r},{m1},{m2})"
                    )
                if ract[madd[m1][m2]][r] != madd[ract[m1][r]][ract[m2][r]]:
                    raise AxiomError(
                        f"right action not additive in the module at (m1,m2,r)=({m1},{m2},{r})"
                    )
    for r in range(n):
        for s in range(n):
            for mm in range(m):
                if lact[radd[r][s]][mm] != madd[lact[r][mm]][lact[s][mm]]:
                    raise AxiomError(
                        f"left action not additive in the ring at (r,s,m)=({r},{s},{mm})"
                    )
                if ract[mm][radd[r][s]] != madd[ract[mm][r]][ract[mm][s]]:
                    raise AxiomError(
                        f"right action not additive in the ring at (m,r,s)=({mm},{r},{s})"
                    )
                if lact[rmul[r][s]][mm] != lact[r][lact[s][mm]]:
                    raise AxiomError(
                        f"left action not associative at (r,s,m)=({r},{s},{mm})"
                    )
                if ract[mm][rmul[r][s]] != ract[ract[mm][r]][s]:
                    raise AxiomError(
                        f"right action not associative at (m,r,s)=({mm},{r},{s})"
                    )
                if ract[lact[r][mm]][s] != lact[r][ract[mm][s]]:
                    raise AxiomError(
                        f"actions not compatible at (r,m,s)=({r},{mm},{s})"
                    )


def regular_bimodule(ring: FiniteRing) -> Bimodule:
    """The ring acting on itself by multiplication on both sides."""
    return make_bimodule(
        ring,
        ring.add_array,
        ring.mul_array,
        ring.mul_array,
        labels=ring.element_labels,
        label=ring.label,
    )


def make_trivial_extension(
    ring: FiniteRing, module: Bimodule, size_cap: int = DEFAULT_SIZE_CAP
) -> FiniteRing:
    """R (+) M with (r1,m1)(r2,m2) = (r1 r2, r1·m2 + m1·r2); the pair (r, m) is
    flattened as ``r * module.size + m``."""
    if module.ring.ring_id != ring.ring_id:
        raise CarrierMismatchError("module is not over the given ring")
    n, m = ring.size, module.size
    size = n * m
    if size > size_cap:
        raise SizeCapError(f"carrier size {size} exceeds the cap of {size_cap}")

    madd, lact, ract = module.add_table, module.left_action, module.right_action
    add = _pair_table(ring.add_array, madd[None, :, None, :])
    # second component r1·m2 + m1·r2, over axes (r1, m1, r2, m2)
    mul = _pair_table(ring.mul_array, madd[lact[:, None, None, :], ract[None, :, :, None]])
    labels = tuple(f"({r},{x})" for r in ring.element_labels for x in module.element_labels)
    return _build_ring(add, mul, labels, f"T({ring.label},{module.label})", size_cap)


@dataclass(frozen=True, eq=False)
class Ideal:
    """A two-sided ideal, stored as the subset of carrier indices."""

    ring: FiniteRing
    members: frozenset[int]


def make_ideal(ring: FiniteRing, members) -> Ideal:
    """Validate closure under addition, negation and two-sided absorption."""
    mem = frozenset(int(x) for x in members)
    for i in mem:
        if not 0 <= i < ring.size:
            raise RingError(f"ideal member {i} out of range")
    labels = ring.element_labels
    if ring.zero not in mem:
        raise AxiomError("ideal does not contain zero")
    for i in mem:
        if ring.neg_table[i] not in mem:
            raise AxiomError(f"ideal not closed under negation at {labels[i]}")
        for j in mem:
            if ring.add_table[i][j] not in mem:
                raise AxiomError(
                    f"ideal not closed under addition at ({labels[i]},{labels[j]})"
                )
    for r in range(ring.size):
        for i in mem:
            if ring.mul_table[r][i] not in mem:
                raise AxiomError(
                    f"ideal does not absorb left multiplication at ({labels[r]},{labels[i]})"
                )
            if ring.mul_table[i][r] not in mem:
                raise AxiomError(
                    f"ideal does not absorb right multiplication at ({labels[i]},{labels[r]})"
                )
    return Ideal(ring=ring, members=mem)


def generated_ideal(ring: FiniteRing, generators) -> Ideal:
    """Smallest two-sided ideal containing the generators (worklist closure)."""
    mem = {ring.zero}
    work = [int(g) for g in generators]
    while work:
        x = work.pop()
        if x in mem:
            continue
        mem.add(x)
        work.append(ring.neg_table[x])
        for y in list(mem):
            work.append(ring.add_table[x][y])
        for r in range(ring.size):
            work.append(ring.mul_table[r][x])
            work.append(ring.mul_table[x][r])
        # re-close sums with the new member
        for y in list(mem):
            work.append(ring.add_table[y][x])
    return make_ideal(ring, mem)


def make_quotient(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, tuple[int, ...]]:
    """Quotient by an ideal; returns (quotient ring, projection index map).

    Coset representatives are the least element index per coset, and the
    quotient carrier lists them in ascending order, so tables are canonical.
    """
    if ideal.ring.ring_id != ring.ring_id:
        raise CarrierMismatchError("ideal is not an ideal of the given ring")
    rep = _coset_reps(ring, ideal)
    reps, pos = np.unique(rep, return_inverse=True)
    proj = tuple(pos.tolist())

    on_reps = np.ix_(reps, reps)
    add = pos[ring.add_array[on_reps]]
    mul = pos[ring.mul_array[on_reps]]
    labels = tuple(ring.element_labels[r] for r in reps.tolist())
    quot = _build_ring(add, mul, labels, f"{ring.label}/I{len(ideal.members)}")
    return quot, proj


def _coset_reps(ring: FiniteRing, ideal: Ideal) -> np.ndarray:
    """rep[a]: the least element index of the coset a + I."""
    return ring.add_array[:, sorted(ideal.members)].min(axis=1)


@dataclass(frozen=True, eq=False)
class Endomorphism:
    """A validated ring endomorphism with its composition-orbit data.

    ``preperiod`` t and ``period`` p are the least pair with
    ``alpha^(t+p) == alpha^t`` as self-maps; they bound every exponent
    quantifier the deciders use.  ``power_map(e)`` reduces any exponent
    (negative exponents only for automorphisms) into the orbit window.
    """

    ring: FiniteRing
    endo_id: int
    images: tuple[int, ...]
    label: str
    is_injective: bool
    is_surjective: bool
    preserves_one: bool | None
    preperiod: int
    period: int
    pow_maps: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def is_automorphism(self) -> bool:
        return self.is_injective

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(self.ring.size))

    def apply(self, x: int) -> int:
        return self.images[x]

    def reduce_exponent(self, e: int) -> int:
        """Map any exponent to the equivalent one in ``[0, preperiod + period)``."""
        t, p = self.preperiod, self.period
        if e >= t:
            return t + (e - t) % p
        if e >= 0:
            return e
        if not self.is_injective:
            raise RingError(
                f"negative power {e} of a non-invertible endomorphism {self.label!r}"
            )
        return e % p  # automorphisms have preperiod 0

    def power_map(self, e: int) -> tuple[int, ...]:
        return self.pow_maps[self.reduce_exponent(e)]

    def power_apply(self, e: int, x: int) -> int:
        return self.pow_maps[self.reduce_exponent(e)][x]

    def __repr__(self) -> str:
        return f"Endomorphism({self.label!r} on {self.ring.label!r})"


def _orbit(images: tuple[int, ...], n: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    seen: dict[tuple[int, ...], int] = {}
    maps: list[tuple[int, ...]] = []
    m = tuple(range(n))
    k = 0
    while m not in seen:
        seen[m] = k
        maps.append(m)
        m = tuple(images[x] for x in m)
        k += 1
    t = seen[m]
    p = k - t
    return t, p, tuple(maps[: t + p])


def _first_non_homomorphic(
    domain: FiniteRing, codomain: FiniteRing, images: tuple[int, ...]
) -> tuple[bool, int, int] | None:
    """The least (a,b) with f(a+b) != f(a)+f(b) or f(a·b) != f(a)·f(b), as
    (additive failure?, a, b); the additive law is reported first at a tie.

    Both laws are first tested with b in G′ only (``_nonzero_generators``),
    in O(|G′|·n).  That is complete: the b at which additivity holds for
    every a are closed under +, and once f is additive, so are the b at
    which multiplicativity holds.  Only when that test fails are all n^2
    pairs scanned for the least failure.
    """
    f = np.asarray(images)
    flat_add, flat_mul = codomain.add_array.ravel(), codomain.mul_array.ravel()
    g = _nonzero_generators(domain.generators, domain.zero)
    pairs = f[:, None] * codomain.size + f[g]  # (f(a), f(g)) in the flat tables
    if np.array_equal(f[domain.add_array[:, g]], np.take(flat_add, pairs)) and np.array_equal(
        f[domain.mul_array[:, g]], np.take(flat_mul, pairs)
    ):
        return None
    pairs = f[:, None] * codomain.size + f
    not_additive = f[domain.add_array] != np.take(flat_add, pairs)
    not_multiplicative = f[domain.mul_array] != np.take(flat_mul, pairs)
    a, b = np.argwhere(not_additive | not_multiplicative)[0].tolist()
    return bool(not_additive[a, b]), a, b


def table_endomorphism(
    ring: FiniteRing, images, label: str = "endo"
) -> Endomorphism:
    """Validate a self-map as a ring endomorphism and compute its orbit."""
    imgs = tuple(int(x) for x in images)
    if len(imgs) != ring.size:
        raise AxiomError(f"expected {ring.size} images, got {len(imgs)}")
    for x in imgs:
        if not 0 <= x < ring.size:
            raise AxiomError(f"image {x} out of range")
    failure = _first_non_homomorphic(ring, ring, imgs)
    if failure is not None:
        labels, add, mul = ring.element_labels, ring.add_table, ring.mul_table
        additive, a, b = failure
        if additive:
            raise AxiomError(
                f"map not additive at (a,b)=({labels[a]},{labels[b]}): "
                f"f(a+b) = {labels[imgs[add[a][b]]]} but f(a)+f(b) = {labels[add[imgs[a]][imgs[b]]]}"
            )
        raise AxiomError(
            f"map not multiplicative at (a,b)=({labels[a]},{labels[b]}): "
            f"f(a·b) = {labels[imgs[mul[a][b]]]} but f(a)·f(b) = {labels[mul[imgs[a]][imgs[b]]]}"
        )
    injective = len(set(imgs)) == ring.size
    preserves = None if ring.one is None else imgs[ring.one] == ring.one
    t, p, maps = _orbit(imgs, ring.size)
    return Endomorphism(
        ring=ring,
        endo_id=_next_endo_id(),
        images=imgs,
        label=label,
        is_injective=injective,
        is_surjective=injective,  # the two coincide on a finite carrier
        preserves_one=preserves,
        preperiod=t,
        period=p,
        pow_maps=maps,
    )


def identity_endomorphism(ring: FiniteRing) -> Endomorphism:
    return table_endomorphism(ring, range(ring.size), "id")


def zero_endomorphism(ring: FiniteRing) -> Endomorphism:
    return table_endomorphism(ring, [ring.zero] * ring.size, "zero")


def all_endomorphisms(ring: FiniteRing) -> list[Endomorphism]:
    """Every ring endomorphism, in lexicographic order of the images of the
    additive generators.

    An additive map is fixed by the images of the nonzero generators of
    (R,+), so the search backtracks over those images, extending each choice
    additively over the span reached so far and dropping it at the first
    clash.  Multiplication is biadditive, so the map is multiplicative once
    f(g·h) = f(g)·f(h) on every pair of generators; a pair is checked as
    soon as the image of g·h is known.
    """
    add, mul = ring.add_array, ring.mul_array
    n, zero = ring.size, ring.zero
    gens = _nonzero_generators(ring.generators, zero).tolist()
    found = []

    def extend(images: np.ndarray, i: int) -> None:
        if i == len(gens):
            label = f"endo{len(found)}"
            found.append(table_endomorphism(ring, images.tolist(), label))
            return
        g = gens[i]
        span = np.flatnonzero(images >= 0)
        for v in range(n):
            new = images.copy()
            prev, prev_img = span, images[span]
            while True:  # the cosets span + c·g, c = 1, 2, ..., until span again
                cur, cur_img = add[prev, g], add[prev_img, v]
                if new[cur[0]] >= 0:
                    break
                new[cur] = cur_img
                prev, prev_img = cur, cur_img
            if not np.array_equal(new[cur], cur_img):
                continue
            done = gens[: i + 1]
            if all(
                new[mul[a, b]] < 0 or new[mul[a, b]] == mul[new[a], new[b]]
                for a in done
                for b in done
            ):
                extend(new, i + 1)

    start = np.full(n, -1, dtype=np.int64)
    start[zero] = zero
    extend(start, 0)
    return found


def endo_orbit(alpha: Endomorphism) -> tuple[int, int]:
    """The (preperiod, period) pair of the endomorphism's power sequence."""
    return alpha.preperiod, alpha.period


@dataclass(frozen=True, eq=False)
class RingIsomorphism:
    """A validated bijective ring homomorphism between two rings."""

    domain: FiniteRing
    codomain: FiniteRing
    images: tuple[int, ...]

    def apply(self, x: int) -> int:
        return self.images[x]

    def inverse(self) -> "RingIsomorphism":
        inv = [0] * self.domain.size
        for x, y in enumerate(self.images):
            inv[y] = x
        return RingIsomorphism(self.codomain, self.domain, tuple(inv))


def make_isomorphism(
    domain: FiniteRing, codomain: FiniteRing, images
) -> RingIsomorphism:
    imgs = tuple(int(x) for x in images)
    if domain.size != codomain.size or len(imgs) != domain.size:
        raise AxiomError("an isomorphism needs equal carrier sizes")
    if len(set(imgs)) != domain.size:
        raise AxiomError("map is not a bijection")
    failure = _first_non_homomorphic(domain, codomain, imgs)
    if failure is not None:
        additive, a, b = failure
        raise AxiomError(f"map not {'additive' if additive else 'multiplicative'} at ({a},{b})")
    if imgs[domain.zero] != codomain.zero:
        raise AxiomError("map does not send zero to zero")
    if domain.one is not None and codomain.one is not None:
        if imgs[domain.one] != codomain.one:
            raise AxiomError("map does not send one to one")
    return RingIsomorphism(domain, codomain, imgs)


def transport(sigma: RingIsomorphism, alpha: Endomorphism) -> Endomorphism:
    """Conjugate an endomorphism through an isomorphism: sigma∘alpha∘sigma⁻¹."""
    if alpha.ring.ring_id != sigma.domain.ring_id:
        raise CarrierMismatchError("endomorphism is not over the isomorphism's domain")
    inv = sigma.inverse()
    images = [sigma.apply(alpha.apply(inv.apply(s))) for s in range(sigma.codomain.size)]
    return table_endomorphism(sigma.codomain, images, f"transport({alpha.label})")


def product_endomorphism(
    product_ring: FiniteRing, alpha1: Endomorphism, alpha2: Endomorphism
) -> Endomorphism:
    """The componentwise map (x1, x2) -> (alpha1(x1), alpha2(x2)) on a direct product.

    ``product_ring`` must be ``make_direct_product(alpha1.ring, alpha2.ring)``
    (same flattening); the result is validated like any endomorphism.
    """
    n1, n2 = alpha1.ring.size, alpha2.ring.size
    if product_ring.size != n1 * n2:
        raise CarrierMismatchError("product ring size does not match the factors")
    images = [0] * product_ring.size
    for i in range(n1):
        for j in range(n2):
            images[i * n2 + j] = alpha1.images[i] * n2 + alpha2.images[j]
    return table_endomorphism(
        product_ring, images, f"({alpha1.label},{alpha2.label})"
    )


def induced_endomorphism(
    alpha: Endomorphism,
    ideal: Ideal,
    quotient: tuple[FiniteRing, tuple[int, ...]] | None = None,
) -> Endomorphism:
    """The map a+I -> alpha(a)+I on R/I; requires alpha(I) ⊆ I.

    ``quotient`` may pass a prebuilt ``make_quotient`` result so the induced
    map lives on an existing quotient object.
    """
    ring = alpha.ring
    if ideal.ring.ring_id != ring.ring_id:
        raise CarrierMismatchError("ideal is not over the endomorphism's ring")
    outside = [i for i in sorted(ideal.members) if alpha.images[i] not in ideal.members]
    if outside:
        raise AxiomError(
            f"endomorphism does not preserve the ideal: image of "
            f"{ring.element_labels[outside[0]]} lies outside it"
        )
    if quotient is None:
        quotient = make_quotient(ring, ideal)
    quot, proj = quotient
    reps = np.unique(_coset_reps(ring, ideal)).tolist()
    images = [proj[alpha.images[reps[x]]] for x in range(quot.size)]
    return table_endomorphism(quot, images, f"induced({alpha.label})")


def relabel_ring(
    ring: FiniteRing, perm, label: str | None = None
) -> tuple[FiniteRing, RingIsomorphism]:
    """Transport the tables through a carrier permutation; returns (ring, iso)."""
    p = tuple(int(x) for x in perm)
    n = ring.size
    if sorted(p) != list(range(n)):
        raise AxiomError("relabelling must be a permutation of the carrier")
    to_new = np.asarray(p)
    inv = np.argsort(to_new)
    on_old = np.ix_(inv, inv)
    add = to_new[ring.add_array[on_old]]
    mul = to_new[ring.mul_array[on_old]]
    labels = [""] * n
    for i in range(n):
        labels[p[i]] = ring.element_labels[i]
    # the source ring passed its own cap, so keep a cap that admits its size
    out = _build_ring(add, mul, tuple(labels), label or f"{ring.label}~", max(n, DEFAULT_SIZE_CAP))
    return out, make_isomorphism(ring, out, p)


def random_relabeling(
    ring: FiniteRing, seed: int, label: str | None = None
) -> tuple[FiniteRing, RingIsomorphism]:
    """A seeded structure-preserving relabelling of the carrier."""
    rnd = random.Random(seed)
    perm = list(range(ring.size))
    rnd.shuffle(perm)
    return relabel_ring(ring, perm, label)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    # dense little-endian coefficients over Z_p, den monic
    num = num[:]
    deg_d = len(den) - 1
    out = [0] * max(len(num) - deg_d, 0)
    for k in range(len(num) - deg_d - 1, -1, -1):
        coef = num[k + deg_d]
        out[k] = coef
        for i, c in enumerate(den):
            num[k + i] = (num[k + i] - coef * c) % p
    while num and num[-1] == 0:
        num.pop()
    return out, num


def _irreducible(f: list[int], p: int) -> bool:
    k = len(f) - 1
    for deg in range(1, k // 2 + 1):
        for m in range(p**deg):
            g = [0] * deg + [1]
            mm = m
            for i in range(deg):
                g[i] = mm % p
                mm //= p
            _, rem = _poly_divmod(f[:], g, p)
            if not rem:
                return False
    return True


@functools.cache
def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The lexicographically least monic irreducible of degree k over Z_p,
    little-endian (compared from the constant term up)."""
    for m in range(p**k):
        f = [0] * k + [1]
        mm = m
        for i in range(k):
            f[i] = mm % p
            mm //= p
        if _irreducible(f, p):
            return tuple(f)
    raise AssertionError("degree-k irreducibles always exist")  # pragma: no cover


def make_galois_field(p: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """GF(p^k) with a deterministic modulus: the lexicographically least monic
    irreducible of degree k (coefficients compared from the constant term up).

    Element index encodes coefficients little-endian in base p, so 0 is zero
    and 1 is one; for k >= 2 element labels are the coefficient tuples.
    """
    if not _is_prime(p):
        raise RingError(f"{p} is not prime")
    if k < 1:
        raise RingError("exponent must be at least 1")
    n = p**k
    if n > size_cap:
        raise SizeCapError(f"carrier size {n} exceeds the cap of {size_cap}")
    if k == 1:
        ring = make_zmod(p, size_cap)
        return replace(ring, ring_id=_next_ring_id(), label=f"GF({p})")

    modulus = _least_irreducible(p, k)
    idx = np.arange(n)
    weight = p ** np.arange(k)
    digit = idx[:, None] // weight % p  # digit[a, i]: coefficient of x^i in a
    labels = tuple("(" + ",".join(map(str, row)) + ")" for row in digit.tolist())
    # a = a_0 + x·(a div p), so each table is built one coefficient at a
    # time: round i gives it on the p^i elements of degree below i
    zp = np.arange(p)
    add = np.zeros((1, 1), dtype=np.intp)
    for _ in range(k):  # a + b = (a_0 + b_0) mod p + x·(a div p + b div p)
        add = _pair_table(add, ((zp[:, None] + zp) % p)[None, :, None, :])
    # scale[c, b] = c·b for c in Z_p
    scale = np.arange(p)[:, None, None] * digit % p @ weight
    # x·b: shift the coefficients up, then replace x^k by -(modulus - x^k)
    minus_low = sum((-c) % p * int(w) for c, w in zip(modulus, weight))
    times_x = add[idx % weight[-1] * p, scale[digit[:, -1], minus_low]]
    # Horner: a·b = a_0·b + x·((a div p)·b), the sum read from the flat table
    flat_add = add.ravel()
    mul = np.zeros((1, n), dtype=np.intp)  # 0·b
    for i in range(1, k + 1):
        a = np.arange(p**i)
        mul = np.take(flat_add, scale[a % p] * n + times_x[mul[a // p]])

    mod_str = "x^" + str(k)
    for i in range(k - 1, -1, -1):
        if modulus[i]:
            term = f"{modulus[i]}" if i == 0 else (f"x^{i}" if i > 1 else "x")
            if modulus[i] > 1 and i > 0:
                term = f"{modulus[i]}{term}"
            mod_str += f"+{term}"
    return _build_ring(add, mul, labels, f"GF({n})[{mod_str}]", size_cap)


def frobenius(field_ring: FiniteRing) -> Endomorphism:
    """The map x -> x^p where p is the (prime) characteristic."""
    p = field_ring.characteristic()
    if p is None:
        raise RingError("frobenius needs a unital ring")
    if not _is_prime(p):
        raise RingError(f"characteristic {p} is not prime")
    n = field_ring.size
    k = 0
    nn = n
    while nn % p == 0:
        nn //= p
        k += 1
    if nn != 1 or k < 1:
        raise RingError(f"carrier size {n} is not a power of the characteristic {p}")
    every = np.arange(n)
    images = every
    for _ in range(p - 1):
        images = field_ring.mul_array[images, every]
    return table_endomorphism(field_ring, images.tolist(), "frobenius")
