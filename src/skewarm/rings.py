"""Finite rings, ideals, bimodules, endomorphisms and isomorphisms as explicit tables.

Elements are dense indices ``0..n-1`` into immutable Cayley tables.  Every
constructor funnels through one exhaustive validator, so a ``FiniteRing``
that exists is guaranteed to satisfy all ring axioms.  Validation is never
sampled: at desk scale the O(n^3) checks are cheap and the deciders rely on
the resulting hard guarantees.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

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
    if len(set(labels)) != len(labels):
        raise AxiomError("element labels must be unique")
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
    Tables are tuples and therefore immutable; instances compare by identity
    (``ring_id``), never structurally.
    """

    ring_id: int
    size: int
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]
    zero: int
    one: int | None
    label: str
    element_labels: tuple[str, ...]
    _label_index: dict[str, int] = field(repr=False)

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
            acc = self.add_table[acc][self.one]
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


def _additive_generators(add: np.ndarray) -> list[int]:
    """A generating set of the commutative magma (R,+), picked greedily: the
    least index outside the closure of the generators taken so far.

    In a group each new generator at least doubles the closure, so there are
    at most log2(n) of them.  Work is O(n^2): every pair of closed elements
    is summed once.
    """
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


def _axioms_hold_on(add: np.ndarray, mul: np.ndarray, gens: list[int]) -> bool:
    """Associativity and distributivity, checked on the additive generators
    only (see ``_validate_tables`` for why that is complete)."""
    for g in gens:
        # Light's test with g in the middle: (x+g)+y = x+(g+y)
        if not np.array_equal(add[add[:, g]], add[:, add[g]]):
            return False
    for g in gens:
        # a·(b+g) = a·b + a·g, and (b+g)·a = b·a + g·a
        if not np.array_equal(mul[:, add[:, g]], add[mul, mul[:, g, None]]):
            return False
        if not np.array_equal(mul[add[:, g]], add[mul, mul[None, g]]):
            return False
    g = np.asarray(gens)
    gg = mul[np.ix_(g, g)]
    return np.array_equal(mul[gg[:, :, None], g], mul[g[:, None, None], gg])


def _validate_tables(
    n: int,
    add: np.ndarray,
    mul: np.ndarray,
    labels: tuple[str, ...],
) -> tuple[int, tuple[int, ...], int | None]:
    """Exhaustively check all ring axioms; return (zero, neg_table, one).

    Commutativity, the unique zero and unique inverses of ``+`` are checked
    at every pair.  The cubic axioms are then reduced to a generating set G
    of (R,+) (``_additive_generators``, |G| <= log2 n), which is complete:

    - Additive associativity (Light's test): the b with (a+b)+c = a+(b+c)
      for all a, c are closed under + in any magma, so b in G suffices.
    - Distributivity: once (R,+) is an abelian group, the c with
      a(b+c) = ab+ac for all a, b are closed under +, so c in G suffices;
      the same holds for the right law.
    - Multiplicative associativity: under both distributive laws
      (ab)c - a(bc) is additive in each argument, so it vanishes everywhere
      iff it vanishes on G^3.

    When any of these fails, ``_scan_axioms`` checks every triple in order,
    so the error names the first violated axiom and its least instance.
    """

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
    zero_rows = np.flatnonzero((add == idx).all(axis=1))
    if len(zero_rows) != 1:
        raise AxiomError("addition has no (or no unique) identity element")
    zero = int(zero_rows[0])

    is_zero = add == zero
    no_inverse = np.flatnonzero(is_zero.sum(axis=1) != 1)
    if no_inverse.size:
        raise AxiomError(f"element {labels[no_inverse[0]]} has no unique additive inverse")
    neg = is_zero.argmax(axis=1)

    if not _axioms_hold_on(add, mul, _additive_generators(add)):
        _scan_axioms(add, mul, labels)

    ones = np.flatnonzero((mul == idx).all(axis=1) & (mul == idx[:, None]).all(axis=0))
    one = int(ones[0]) if ones.size else None
    return zero, tuple(neg.tolist()), one


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

    add = np.asarray(add_table, dtype=np.int64)
    mul = np.asarray(mul_table, dtype=np.int64)
    zero, neg, one = _validate_tables(n, add, mul, labels)

    return FiniteRing(
        ring_id=_next_ring_id(),
        size=n,
        add_table=tuple(map(tuple, add.tolist())),
        mul_table=tuple(map(tuple, mul.tolist())),
        neg_table=neg,
        zero=zero,
        one=one,
        label=label,
        element_labels=labels,
        _label_index={lab: i for i, lab in enumerate(labels)},
    )


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

    add = _pair_table(np.asarray(r1.add_table), np.asarray(r2.add_table)[None, :, None, :])
    mul = _pair_table(np.asarray(r1.mul_table), np.asarray(r2.mul_table)[None, :, None, :])
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
    return (first[:, None, :, None] * m + second).reshape(n, n)


@dataclass(frozen=True, eq=False)
class Bimodule:
    """A two-sided module over a ring, with explicit action tables."""

    ring: FiniteRing
    size: int
    add_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]
    zero: int
    left_action: tuple[tuple[int, ...], ...]
    right_action: tuple[tuple[int, ...], ...]
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
    """Validate and build a bimodule; all axioms are checked exhaustively."""
    m = len(add_table)
    n = ring.size
    if labels is None:
        labels = tuple(f"m{i}" for i in range(m))
    labels = tuple(str(x) for x in labels)
    _check_labels(labels)

    add = np.asarray([[int(x) for x in row] for row in add_table], dtype=np.int64)
    if not np.array_equal(add, add.T):
        raise AxiomError("bimodule addition not commutative")
    idx = np.arange(m)
    zero_rows = [z for z in range(m) if np.array_equal(add[z], idx)]
    if len(zero_rows) != 1:
        raise AxiomError("bimodule addition has no unique identity")
    zero = zero_rows[0]
    neg = []
    for a in range(m):
        inv = np.flatnonzero(add[a] == zero)
        if inv.size != 1:
            raise AxiomError(f"bimodule element {labels[a]} has no unique inverse")
        neg.append(int(inv[0]))
    for a in range(m):
        if not np.array_equal(add[add[a], :], add[a][add]):
            raise AxiomError("bimodule addition not associative")

    lact = [[int(x) for x in row] for row in left_action]
    ract = [[int(x) for x in row] for row in right_action]
    radd = ring.add_table
    rmul = ring.mul_table
    madd = [[int(x) for x in row] for row in add]

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

    return Bimodule(
        ring=ring,
        size=m,
        add_table=tuple(tuple(row) for row in madd),
        neg_table=tuple(neg),
        zero=zero,
        left_action=tuple(tuple(row) for row in lact),
        right_action=tuple(tuple(row) for row in ract),
        element_labels=labels,
        label=label,
    )


def regular_bimodule(ring: FiniteRing) -> Bimodule:
    """The ring acting on itself by multiplication on both sides."""
    return make_bimodule(
        ring,
        ring.add_table,
        ring.mul_table,
        ring.mul_table,
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

    madd = np.asarray(module.add_table)
    lact, ract = np.asarray(module.left_action), np.asarray(module.right_action)
    add = _pair_table(np.asarray(ring.add_table), madd[None, :, None, :])
    # second component r1·m2 + m1·r2, over axes (r1, m1, r2, m2)
    mul = _pair_table(
        np.asarray(ring.mul_table), madd[lact[:, None, None, :], ract[None, :, :, None]]
    )
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
    n = ring.size
    rep = [-1] * n
    for a in range(n):
        rep[a] = min(ring.add_table[a][i] for i in ideal.members)
    reps = sorted(set(rep))
    rep_pos = {r: k for k, r in enumerate(reps)}
    proj = tuple(rep_pos[rep[a]] for a in range(n))

    on_reps = np.ix_(reps, reps)
    add = np.asarray(proj)[np.asarray(ring.add_table)[on_reps]]
    mul = np.asarray(proj)[np.asarray(ring.mul_table)[on_reps]]
    labels = tuple(ring.element_labels[r] for r in reps)
    quot = _build_ring(add, mul, labels, f"{ring.label}/I{len(ideal.members)}")
    return quot, proj


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

    def inverse_images(self) -> tuple[int, ...]:
        if not self.is_injective:
            raise RingError(f"endomorphism {self.label!r} is not invertible")
        inv = [0] * self.ring.size
        for x, y in enumerate(self.images):
            inv[y] = x
        return tuple(inv)

    def same_map(self, other: "Endomorphism") -> bool:
        return self.ring.ring_id == other.ring.ring_id and self.images == other.images

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
    (additive failure?, a, b); the additive law is reported first at a tie."""
    f = np.asarray(images)
    pairs = (f[:, None], f[None, :])
    dom_add, dom_mul = np.asarray(domain.add_table), np.asarray(domain.mul_table)
    if codomain is domain:  # table_endomorphism: convert each table once
        cod_add, cod_mul = dom_add, dom_mul
    else:
        cod_add, cod_mul = np.asarray(codomain.add_table), np.asarray(codomain.mul_table)
    not_additive = f[dom_add] != cod_add[pairs]
    not_multiplicative = f[dom_mul] != cod_mul[pairs]
    bad = np.argwhere(not_additive | not_multiplicative)
    if bad.size == 0:
        return None
    a, b = bad[0].tolist()
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
    labels = ring.element_labels
    add, mul = ring.add_table, ring.mul_table
    failure = _first_non_homomorphic(ring, ring, imgs)
    if failure is not None:
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
    reps = sorted(set(min(ring.add_table[a][i] for i in ideal.members) for a in range(ring.size)))
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
    add = to_new[np.asarray(ring.add_table)[on_old]]
    mul = to_new[np.asarray(ring.mul_table)[on_old]]
    labels = [""] * n
    for i in range(n):
        labels[p[i]] = ring.element_labels[i]
    out = _build_ring(add, mul, tuple(labels), label or f"{ring.label}~")
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
        return FiniteRing(
            ring_id=_next_ring_id(),
            size=ring.size,
            add_table=ring.add_table,
            mul_table=ring.mul_table,
            neg_table=ring.neg_table,
            zero=ring.zero,
            one=ring.one,
            label=f"GF({p})",
            element_labels=ring.element_labels,
            _label_index=dict(ring._label_index),
        )

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
    assert modulus is not None  # degree-k irreducibles always exist

    idx = np.arange(n)
    weight = p ** np.arange(k)
    digit = idx[:, None] // weight % p  # digit[a, i]: coefficient of x^i in a
    labels = tuple("(" + ",".join(map(str, row)) + ")" for row in digit.tolist())
    add = np.zeros((n, n), dtype=np.int64)
    for i in range(k):
        add += (digit[:, None, i] + digit[None, :, i]) % p * weight[i]
    # scale[c, b] = c·b for c in Z_p
    scale = np.arange(p)[:, None, None] * digit % p @ weight
    # x·b: shift the coefficients up, then replace x^k by -(modulus - x^k)
    minus_low = sum((-c) % p * int(w) for c, w in zip(modulus, weight))
    times_x = add[idx % weight[-1] * p, scale[digit[:, -1], minus_low]]
    # a·b = sum over j of a_j·(x^j·b), accumulated one coefficient of a at a time
    mul = np.zeros((n, n), dtype=np.int64)
    power = idx  # x^j·b for every b
    for j in range(k):
        mul = add[mul, scale[digit[:, j, None], power]]
        power = times_x[power]

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
    images = []
    for x in range(n):
        acc = x
        for _ in range(p - 1):
            acc = field_ring.mul_table[acc][x]
        images.append(acc)
    return table_endomorphism(field_ring, images, "frobenius")
