"""Exhaustive deciders for element-level ring predicates and Armendariz-type
polynomial conditions, with proof-carrying witnesses.

Polynomial properties are decided by bounded exhaustive search: a verdict is
either ``HoldsUpTo(envelope)`` — a verified finite statement about the
searched envelope, never a claim about all degrees — or ``Fails`` with a
witness that replays bit-exactly through the public skew-polynomial
arithmetic.  Enumeration order is fixed (degree blocks, then coefficient
tuples lexicographically from the lowest index), so the returned witness is
always the least one and verdicts are schedule-independent.

Each polynomial variant is stated once, in ``_STATEMENTS``; the search and
``replay_witness`` both read it.  The plain, Laurent and series deciders
check their arguments and price the search against the tuple budget from
its longest shapes alone (``over_budget``), then hand the one ``_search``
their blocks of (p, q) shapes and base exponents.  Every sandwich
hypothesis uses the twist exponents of one orbit window
(``_TwistTables.orbit``).  Each element property's violation is one formula in
``_ELEMENT_LAWS``, which both its predicate and replay evaluate.

One rule says what each property reads of α, and every entry point that
takes α asks it (``_twist_for``): ``rigid`` and every statement not
``alpha_free`` refuse a missing α or one over another ring; the others
ignore whatever α is given.  So a decider, its replay, ``skewarm check``
and ``skewarm replay`` refuse the same requests.

The search takes p a level at a time, a level being the p whose first
nonzero coefficient sits at one position, in batches across heads against
one list of q: those whose head the prefix rule lets some head of the
level meet (``_least_violation``); a head it refuses outright is never
built.  One table of the prefix rule serves both ends of p and q
(``_TwistTables.head_tables``): the lowest and the highest coefficient of
p (r x^k) q are each a single term, of the heads and of the last nonzero
coefficients (the tops).  So on exact shapes a top of p that meets no
q, or a top of q that no top of p meets, is never built either; on free
shapes a p whose top meets no q is dropped.  The q are built in bounded
chunks in the enumeration order (``_tuple_chunks``).  A step's (p × q)
mask keeps the pairs that violate the conclusion and whose q head and q
top p's head and top allow; the prefix rule and the hypothesis only drop
pairs that fail the hypothesis, and the conclusion only pairs that
satisfy it, so none can drop a witness.  The surviving pairs are tested
in row-major order, so within a chunk the first is the least; across
chunks a p that hits later beats a larger p that hit earlier.
``_conclusion_violation`` then names the violated instance.  The plain
hypothesis pq = 0 is the sandwich with the single left factor a and
k = 0, so the kernel, the rank screen and the naming read their tables
from one left-factor table (``_TwistTables.left``); a sandwich table
takes r over the additive generators of R only, at most log2 |R| of
them.

The statements of one kind of hypothesis differ only in the twist of their
conclusion, so everything a search derives from the ring, the twist and the
kind of hypothesis is one ``_TwistTables`` per twist object and kind, shared
by every search on that object: the annihilators, the left factors, the
prefix rule's tables, the products, the q chunks, and the rank screen's
coordinates, tables and null spaces of H(p).  The conclusion's tables are
kept there too, keyed by its reduced twist exponents.  Each store is keyed
by all else its entries depend on, the batching bounds included, and all
of them together hold at most ``_MEMO_CELLS`` cells.  The tables live in a
``weakref.WeakKeyDictionary`` keyed by the twist, so they go with it.  A
search (``_Scanner``) keeps only its statement and its counts.

When (R,+) is the vector space F_p^m, a rank screen (``_RankScreen``) runs
first.  It takes the p shapes in block order and decides by linear algebra
over F_p, without listing q, whether some p of the shape meets some q of
the shape's blocks in a witness.  A shape it clears holds no witness, so
skipping its blocks changes neither the verdict nor the least witness.  At
the first shape it does not clear the screen stops, and that block and
every later one go to the kernel, which names the least witness as before.
Other carriers skip the screen.  The tuple budget still prices every
nominal tuple, screened or not.
"""

from __future__ import annotations

import enum
import math
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .rings import (
    Endomorphism,
    FiniteRing,
    RingElement,
    RingError,
    _nonzero_generators,
    identity_endomorphism,
)
from .skewpoly import (
    LaurentSkewPoly,
    SkewPoly,
    TruncatedSkewSeries,
    forall_sandwich_zero,
    forall_sandwich_zero_laurent,
    forall_sandwich_zero_series,
    skew_mul,
)

DEFAULT_TUPLE_BUDGET = 10**8


# Digits of the longest price a message prints in full: Python's default
# limit on converting an int to a string.
_PRICE_DIGITS = 4300


class BudgetExceededError(RingError):
    """The search space, n^length nominal coefficient tuples, is larger than
    the configured tuple budget.  ``space`` is that number, or None when it
    has more than ``_PRICE_DIGITS`` digits; the message then words it as
    n^length."""

    def __init__(self, n: int, length: int, budget: int):
        self.space = n**length if length * math.log10(n) < _PRICE_DIGITS else None
        self.budget = budget
        price = f"{n}^{length}" if self.space is None else self.space
        super().__init__(
            f"search space of {price} coefficient tuples exceeds the budget of {budget}"
        )


class PropertyId(enum.Enum):
    REDUCED = "reduced"
    DOMAIN = "domain"
    COMMUTATIVE = "commutative"
    SEMICOMMUTATIVE = "semicommutative"
    REVERSIBLE = "reversible"
    SYMMETRIC = "symmetric"
    RIGID = "rigid"
    ARMENDARIZ = "armendariz"
    ALPHA_ARMENDARIZ = "alpha-armendariz"
    ALPHA_SKEW_ARMENDARIZ = "alpha-skew-armendariz"
    QUASI_ARMENDARIZ = "quasi-armendariz"
    Q_ALPHA_ARMENDARIZ = "q-alpha-armendariz"
    Q_ALPHA_SKEW_ARMENDARIZ = "q-alpha-skew-armendariz"
    ALPHA_QUASI_ARMENDARIZ = "alpha-quasi-armendariz"
    LAURENT_Q_ALPHA_SKEW = "laurent-q-alpha-skew"
    POWERSERIES_Q_ALPHA_SKEW = "powerseries-q-alpha-skew"
    LAURENT_POWERSERIES_Q_ALPHA_SKEW = "laurent-powerseries-q-alpha-skew"


class _Statement(NamedTuple):
    """What one polynomial variant says about (p, q), read by the search and
    by replay.  ``kind`` is the witness kind ("poly", "laurent", "series").
    With ``sandwich`` the hypothesis is p R[x;α] q = 0 and the conclusion
    a·r·α^t(b) = 0 for every r, else pq = 0 and a·α^t(b) = 0, for every
    coefficient a of p, at exponent e, and b of q; ``twist`` gives t: "zero"
    (t = 0), "exponent" (t = e) or "orbit" (every distinct power of α).  An
    ``alpha_free`` variant twists by the identity whatever α is given."""

    kind: str
    sandwich: bool
    twist: str
    alpha_free: bool = False

    def twist_at(self, e: int) -> int | None:
        """The one t against a coefficient at exponent e; None for "orbit"."""
        return {"zero": 0, "exponent": e}.get(self.twist)

    def twists(self, e: int, orbit) -> tuple[int, ...]:
        t = self.twist_at(e)
        return tuple(orbit) if t is None else (t,)


_STATEMENTS = {
    PropertyId.ARMENDARIZ: _Statement("poly", False, "zero", alpha_free=True),
    PropertyId.ALPHA_ARMENDARIZ: _Statement("poly", False, "zero"),
    PropertyId.ALPHA_SKEW_ARMENDARIZ: _Statement("poly", False, "exponent"),
    PropertyId.QUASI_ARMENDARIZ: _Statement("poly", True, "zero", alpha_free=True),
    PropertyId.Q_ALPHA_ARMENDARIZ: _Statement("poly", True, "zero"),
    PropertyId.Q_ALPHA_SKEW_ARMENDARIZ: _Statement("poly", True, "exponent"),
    PropertyId.ALPHA_QUASI_ARMENDARIZ: _Statement("poly", True, "orbit"),
    PropertyId.LAURENT_Q_ALPHA_SKEW: _Statement("laurent", True, "exponent"),
    PropertyId.POWERSERIES_Q_ALPHA_SKEW: _Statement("series", True, "exponent"),
    PropertyId.LAURENT_POWERSERIES_Q_ALPHA_SKEW: _Statement("series", True, "exponent"),
}
FAMILY_PROPERTIES = frozenset(p for p, s in _STATEMENTS.items() if s.kind == "poly")
# The envelope argument of ``check_property`` that each kind of polynomial
# property needs, and what it is called when it is missing.
_NEEDS = {
    "poly": ("degree", "a degree bound"),
    "laurent": ("window", "a window (m,n,t,s)"),
    "series": ("truncation", "a truncation order"),
}


def envelope_args(prop: PropertyId) -> tuple[str, ...]:
    """The envelope arguments of ``check_property`` that ``prop`` reads:
    none for an element property, else the one its kind needs (``_NEEDS``)
    and, for the Laurent series, ``min_exp``."""
    if prop not in _STATEMENTS:
        return ()
    need = _NEEDS[_STATEMENTS[prop].kind][0]
    return (need, "min_exp") if prop is PropertyId.LAURENT_POWERSERIES_Q_ALPHA_SKEW else (need,)


@dataclass(frozen=True)
class Envelope:
    """The exact quantifier window a verdict speaks about."""

    degree: int | None = None
    window: tuple[int, int, int, int] | None = None
    truncation: int | None = None
    min_exp: int | None = None
    exhaustive: bool = False

    def describe(self) -> str:
        if self.exhaustive:
            return "exhaustive"
        if self.window is not None:
            return "window (m,n,t,s)=" + ",".join(str(x) for x in self.window)
        if self.truncation is not None:
            if self.min_exp is not None and self.min_exp < 0:
                return f"truncated at x^{self.truncation}, exponents from {self.min_exp}"
            return f"truncated at x^{self.truncation}"
        return f"degree <= {self.degree}"


@dataclass(frozen=True)
class Witness:
    """A concrete certificate of a property violation.

    For polynomial properties, ``p``/``q`` are coefficient tuples (with
    ``p_min``/``q_min`` base exponents), ``pair`` is the violated coefficient
    pair as actual exponents, ``monomial`` is ``(r, e)`` with r the sandwich
    element of the conclusion and e the twist exponent applied to q's
    coefficient, and ``offending`` is the nonzero product value.  For element
    predicates, ``elements`` are the violating elements and ``values`` the
    products that certify the violation.
    """

    kind: str  # "poly" | "laurent" | "series" | "elements"
    p_coeffs: tuple[int, ...] | None = None
    p_min: int = 0
    q_coeffs: tuple[int, ...] | None = None
    q_min: int = 0
    order: int | None = None
    pair: tuple[int, int] | None = None
    monomial: tuple[int, int] | None = None
    offending: int | None = None
    elements: tuple[int, ...] | None = None
    values: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of one bounded property check."""

    prop: PropertyId
    ring_label: str
    endo_label: str | None
    envelope: Envelope
    witness: Witness | None

    @property
    def holds(self) -> bool:
        return self.witness is None

    def describe(self) -> str:
        state = "holds" if self.holds else "fails"
        endo = f", {self.endo_label}" if self.endo_label else ""
        return f"{self.prop.value} on {self.ring_label}{endo} [{self.envelope.describe()}]: {state}"


def _verdict(prop, ring, endo, envelope, witness=None) -> Verdict:
    return Verdict(
        prop=prop,
        ring_label=ring.label,
        endo_label=endo.label if endo is not None else None,
        envelope=envelope,
        witness=witness,
    )


# --------------------------------------------------------------------------
# element-level predicates (always exhaustive)

_EXH = Envelope(exhaustive=True)


# Each element property states its violation once, as a formula
# (ring, alpha, elements) -> the values that certify the violation, or None
# when the elements violate nothing.  The predicates name their witness's
# values by it, and replay recomputes them by it.

def _reduced(ring, alpha, els):
    (a,) = els
    v = int(ring.mul_array[a, a])
    return (v,) if a != ring.zero and v == ring.zero else None


def _domain(ring, alpha, els):
    a, b = els
    v = int(ring.mul_array[a, b])
    return (v,) if ring.zero not in (a, b) and v == ring.zero else None


def _commutative(ring, alpha, els):
    a, b = els
    ab, ba = int(ring.mul_array[a, b]), int(ring.mul_array[b, a])
    return (ab, ba) if ab != ba else None


def _semicommutative(ring, alpha, els):
    a, b, r = els
    mul = ring.mul_array
    v = int(mul[mul[a, r], b])
    return (v,) if mul[a, b] == ring.zero and v != ring.zero else None


def _reversible(ring, alpha, els):
    a, b = els
    ab, ba = int(ring.mul_array[a, b]), int(ring.mul_array[b, a])
    return (ba,) if ab == ring.zero and ba != ring.zero else None


def _symmetric(ring, alpha, els):
    a, b, c = els
    mul = ring.mul_array
    v = int(mul[mul[b, a], c])
    return (v,) if mul[mul[a, b], c] == ring.zero and v != ring.zero else None


def _rigid(ring, alpha, els):
    (r,) = els
    v = int(ring.mul_array[r, alpha.images[r]])
    return (v,) if r != ring.zero and v == ring.zero else None


class _ElementLaw(NamedTuple):
    """An element property's formula and replay's messages: ``claim`` when
    the violation does not reproduce, ``recorded`` (``claim`` if None) when
    the recorded values differ."""

    values: Callable
    claim: str
    recorded: str | None = None


_ELEMENT_LAWS = {
    PropertyId.REDUCED: _ElementLaw(_reduced, "a^2 = 0 with a != 0 did not reproduce"),
    PropertyId.DOMAIN: _ElementLaw(_domain, "ab = 0 with a, b != 0 did not reproduce"),
    PropertyId.COMMUTATIVE: _ElementLaw(_commutative, "ab != ba did not reproduce"),
    PropertyId.SEMICOMMUTATIVE: _ElementLaw(
        _semicommutative, "ab = 0 with arb != 0 did not reproduce", "recorded product differs"
    ),
    PropertyId.REVERSIBLE: _ElementLaw(_reversible, "ab = 0 with ba != 0 did not reproduce"),
    PropertyId.SYMMETRIC: _ElementLaw(
        _symmetric, "abc = 0 with bac != 0 did not reproduce", "recorded product differs"
    ),
    PropertyId.RIGID: _ElementLaw(_rigid, "r·alpha(r) = 0 with r != 0 did not reproduce"),
}
ELEMENT_PROPERTIES = frozenset(_ELEMENT_LAWS)


def _element_verdict(prop, ring, alpha, elements) -> Verdict:
    """Holds when ``elements`` is None, else fails at them with the values
    the property's formula certifies."""
    if elements is None:
        return _verdict(prop, ring, alpha, _EXH)
    values = _ELEMENT_LAWS[prop].values(ring, alpha, elements)
    w = Witness(kind="elements", elements=elements, values=values)
    return _verdict(prop, ring, alpha, _EXH, w)


def _first_scalar(ring: FiniteRing, products: np.ndarray) -> tuple[int] | None:
    """The least nonzero x with ``products[x]`` zero, or None: one pass
    over x·x (reduced) or x·α(x) (rigid) for every element x."""
    hits = np.flatnonzero(products == ring.zero)
    hits = hits[hits != ring.zero]
    return (int(hits[0]),) if hits.size else None


def is_reduced(ring: FiniteRing) -> Verdict:
    """No nonzero a with a^2 = 0 (equivalent to having no nonzero nilpotents)."""
    squares = ring.mul_array.diagonal()
    return _element_verdict(PropertyId.REDUCED, ring, None, _first_scalar(ring, squares))


def _first_pair(mask: np.ndarray) -> tuple[int, int] | None:
    """The least (a, b), in row-major order, with ``mask[a, b]`` set."""
    hits = np.flatnonzero(mask)
    if not hits.size:
        return None
    a, b = divmod(int(hits[0]), mask.shape[1])
    return a, b


def is_domain(ring: FiniteRing) -> Verdict:
    zero = ring.zero
    kills = ring.mul_array == zero
    kills[zero, :] = kills[:, zero] = False
    return _element_verdict(PropertyId.DOMAIN, ring, None, _first_pair(kills))


def is_commutative(ring: FiniteRing) -> Verdict:
    mul = ring.mul_array
    return _element_verdict(PropertyId.COMMUTATIVE, ring, None, _first_pair(mul != mul.T))


# The symmetric scan takes its pairs in blocks of ``_ELEMENT_ROWS`` × n,
# as many as 16 full rows hold: a block gathers that many bit-packed kill
# sets of ceil(n/8) bytes, 128 KB at the size cap.
_ELEMENT_ROWS = 16


def _kill_sets(ring: FiniteRing) -> np.ndarray:
    """kills[x]: the c with x·c = 0, as a bit-packed row (bit c of the row)."""
    return np.packbits(ring.mul_array == ring.zero, axis=1)


def _first_bit(row: np.ndarray) -> int:
    return int(np.flatnonzero(np.unpackbits(row))[0])


def is_semicommutative(ring: FiniteRing) -> Verdict:
    """ab = 0 implies a r b = 0 for every r.  Given ab = 0, the r with
    a·r·b = 0 form an additive subgroup, so r runs over G′, the nonzero
    additive generators (``rings._nonzero_generators``), only: at most
    log2 n of them, n × |G′| kill sets of ceil(n/8) bytes, 64 KB at the
    size cap.  The witness's r is still the least over all of R."""
    mul, zero = ring.mul_array, ring.zero
    kills = _kill_sets(ring)
    gens = _nonzero_generators(ring.generators, zero)
    # bit b of bad[a]: a·b = 0 but (a·g)·b != 0 for some generator g
    bad = kills & ~np.bitwise_and.reduce(kills[mul[:, gens]], axis=1)
    hit = np.flatnonzero(bad.any(axis=1))
    if not hit.size:
        return _element_verdict(PropertyId.SEMICOMMUTATIVE, ring, None, None)
    a = int(hit[0])
    b = _first_bit(bad[a])
    r = int(np.flatnonzero(mul[mul[a], b] != zero)[0])
    return _element_verdict(PropertyId.SEMICOMMUTATIVE, ring, None, (a, b, r))


def is_reversible(ring: FiniteRing) -> Verdict:
    mul, zero = ring.mul_array, ring.zero
    pair = _first_pair((mul == zero) & (mul.T != zero))
    return _element_verdict(PropertyId.REVERSIBLE, ring, None, pair)


def _nth_pair(mask: np.ndarray, k: int) -> tuple[int, int]:
    """The k-th (a, b), counting from 0 in row-major order, with ``mask[a, b]`` set."""
    ends = np.cumsum(np.count_nonzero(mask, axis=1))
    a = int(np.searchsorted(ends, k, side="right"))
    b = np.flatnonzero(mask[a])[k - (int(ends[a - 1]) if a else 0)]
    return a, int(b)


def is_symmetric(ring: FiniteRing) -> Verdict:
    """abc = 0 implies bac = 0.  A pair with ab = ba cannot fail, so only
    the pairs with ab != ba are scanned, in row-major order and blocks of
    ``_ELEMENT_ROWS`` × n pairs."""
    mul = ring.mul_array
    kills = _kill_sets(ring)
    apart = mul != mul.T
    ab, ba = mul[apart], mul.T[apart]
    step = _ELEMENT_ROWS * ring.size
    for lo in range(0, ab.size, step):
        # bit c of bad[i]: (a·b)·c = 0 but (b·a)·c != 0, at pair lo + i
        bad = kills[ba[lo : lo + step]]
        np.invert(bad, out=bad)
        bad &= kills[ab[lo : lo + step]]
        hit = np.flatnonzero(bad.any(axis=1))
        if hit.size:
            abc = *_nth_pair(apart, lo + int(hit[0])), _first_bit(bad[hit[0]])
            return _element_verdict(PropertyId.SYMMETRIC, ring, None, abc)
    return _element_verdict(PropertyId.SYMMETRIC, ring, None, None)


def is_rigid(ring: FiniteRing, alpha: Endomorphism) -> Verdict:
    """r·alpha(r) = 0 forces r = 0."""
    alpha = _twist_for(ring, alpha, PropertyId.RIGID)
    products = ring.mul_array[np.arange(ring.size), alpha.images]
    return _element_verdict(PropertyId.RIGID, ring, alpha, _first_scalar(ring, products))


def _twist_for(
    ring: FiniteRing, alpha: Endomorphism | None, prop: PropertyId
) -> Endomorphism | None:
    """The endomorphism ``prop`` is read over.  A property that reads α
    (``rigid`` and every statement not ``alpha_free``) needs ``alpha``, over
    ``ring``; the others ignore it: a polynomial statement twists by the
    identity and an element law by None."""
    stmt = _STATEMENTS.get(prop)
    if prop is not PropertyId.RIGID and (stmt is None or stmt.alpha_free):
        return None if stmt is None else identity_endomorphism(ring)
    if alpha is None:
        raise RingError(f"{prop.value} needs an endomorphism")
    if alpha.ring.ring_id != ring.ring_id:
        raise RingError("endomorphism is not over the given ring")
    return alpha


# --------------------------------------------------------------------------
# enumeration helpers
#
# Coefficient tuples of one shape (length, and the ascending values its last
# entry may take: every value for a free shape, nonzero ones for an exact
# shape) are enumerated in one fixed order: grouped into levels by the
# position f of their first nonzero coefficient, highest f first; within a
# level by that head value, then by the tail after it as a base-n numeral,
# except that the last digit runs over the allowed last values only.  When
# the zero is index 0 this is raw lexicographic order.

# Bounds on the kernel's memory: cells (entries) of one q chunk, and of the
# (p × q) conclusion mask and the (pairs × generators) hypothesis arrays of
# one kernel step.
_CHUNK_CELLS = 1 << 22
_PAIR_CELLS = 1 << 16
# The room of one twist's shared stores (``_TwistTables``): the cells they
# may hold together.
_MEMO_CELLS = 1 << 24
# Bound on the cells of one batch of the rank screen: p times the entries of
# H(p) and of K(p) applied to the null vectors of H(p).  Its batches double
# in size from the first, up to that bound.
_RANK_CELLS = 1 << 17
_FIRST_RANK_ROWS = 32
_INT64_MAX = np.iinfo(np.int64).max


def _tails_per_head(n: int, width: int, n_lasts: int) -> int:
    """How many tuples of one level share one head value and have ``width``
    coefficients after it, the last of them one of ``n_lasts`` values."""
    return n ** (width - 1) * n_lasts if width else 1


def _level(n, length, lasts, f, heads):
    """Level f of a shape whose last coefficient is in ``lasts``, keeping
    the head values ``heads``: the heads it keeps (at f = length - 1 the
    head is the last coefficient, so those in ``lasts``), its rows, and the
    rows that ``lasts`` leaves out of the level with every nonzero last
    value.  A free shape's ``lasts`` is every value and leaves none out."""
    width = length - 1 - f
    kept = heads if width else np.intersect1d(heads, lasts, assume_unique=True)
    rows = len(kept) * _tails_per_head(n, width, len(lasts))
    # an exact shape's lasts are nonzero, at most n - 1 of them; a free one's are all n
    every = len(heads) * _tails_per_head(n, width, max(n - 1, len(lasts)))
    return kept, rows, every - rows


def _level_rows(n, length, lasts, zero, f, heads, lo, hi, dtype):
    """Rows ``lo:hi`` of level f (first nonzero coefficient at position f)
    of the enumeration order when only the ascending head values ``heads``
    (as ``_level`` keeps them) and last values ``lasts`` are kept: row k
    has head ``heads[k // size]`` and tail number ``k % size`` (see
    ``_tuple_chunks``)."""
    size = _tails_per_head(n, length - 1 - f, len(lasts))
    # a row number never reaches 2**63, so a larger size only means h = 0
    h, t = np.divmod(np.arange(lo, hi, dtype=np.int64), min(size, _INT64_MAX))
    rows = np.full((hi - lo, length), zero, dtype=dtype)
    rows[:, f] = heads[h]
    if f < length - 1:
        t, d = np.divmod(t, len(lasts))
        rows[:, -1] = lasts[d]
    for c in range(length - 2, f, -1):
        t, rows[:, c] = np.divmod(t, n)
    return rows


def _levels(n, length, lasts, heads):
    """The levels of a shape whose first nonzero coefficient, at position
    f, is in ``heads(f)`` and whose last coefficient is in ``lasts``
    (ascending arrays), highest f first, each as f and what ``_level``
    gives."""
    return [(f, *_level(n, length, lasts, f, heads(f))) for f in range(length - 1, -1, -1)]


def _tuple_chunks(n, length, lasts, zero, levels, step, dtype):
    """The nonzero tuples of one shape, with its ``levels`` (``_levels``)
    and last values ``lasts``, in the enumeration order, as arrays of at
    most ``step`` rows.  The kept rows of a level are numbered head by head
    and last value by last value, so the rows with another head or another
    last value are never built.  One table of the prefix rule
    (``_TwistTables.head_tables``) serves both ends: it gives the heads at
    the low end and the last values at the top.
    """
    pieces, rows = [], 0
    for f, level_heads, total, _ in levels:
        lo = 0
        while lo < total:
            hi = min(total, lo + step - rows)
            pieces.append(_level_rows(n, length, lasts, zero, f, level_heads, lo, hi, dtype))
            rows, lo = rows + hi - lo, hi
            if rows == step:
                yield np.concatenate(pieces)
                pieces, rows = [], 0
    if pieces:
        yield np.concatenate(pieces)


class _TwistTables:
    """What every search derives from one ring, twist and hypothesis kind
    (pq = 0 or p R[x;α] q = 0), shared by all the searches on one twist
    object (``_twist_tables``).

    ``orbit`` holds the exponents of every distinct power of the twist.
    The plain hypothesis pq = 0 is the sandwich p (r x^k) q = 0 with the
    single left factor a of p's coefficient and k = 0, so every table is
    built from one left-factor table, ``left(e)``, with no other branch.  A
    sandwich takes k over ``ks`` = ``orbit`` on every envelope (see
    ``skewpoly._forall_sandwich_zero``) and r over ``gens``, the nonzero
    additive generators of R: each coefficient of p (r x^k) q, and each
    a·r·b, is additive in r, so it vanishes for every r iff it vanishes for
    every generator.  The plain hypothesis takes ``ks`` = ``range(1)`` and
    no ``gens``.  Every table is read from the ring's read-only arrays
    (``FiniteRing.add_array``/``mul_array``, in the least unsigned dtype
    that holds every element index), and the twist's powers are converted
    to that dtype.

    The stores (the prefix rule's ``head_tables``, ``products``, the
    conclusion's ``bad_table``s, the q chunks of ``candidates``, and the
    rank screen's ``hypothesis_table``s, ``conclusion_table``s and null
    spaces of H(p)) are keyed by everything else their entries depend on,
    the batching bounds they were built under included.  They
    keep an entry while ``room`` allows: ``_MEMO_CELLS`` cells over all of
    them, each entry in the least dtype that holds it.  The tables hold the
    twist only by a weak reference, so they go when the twist goes.
    """

    def __init__(self, ring: FiniteRing, endo: Endomorphism, sandwich: bool):
        self._endo = weakref.ref(endo)
        self.orbit = range(endo.preperiod + endo.period)
        self.n = ring.size
        self.zero = ring.zero
        self.surjective = endo.is_surjective
        self.dtype = ring.mul_array.dtype
        self.add_np = ring.add_array
        self.mul_np = ring.mul_array
        self.pow_np = np.asarray(endo.pow_maps, dtype=self.dtype)
        if sandwich:
            self.gens = _nonzero_generators(ring.generators, ring.zero)
            self.ks = self.orbit
        else:
            self.gens, self.ks = None, range(1)
        factors = self.left(0)
        # ann[a, b]: a·R·b = 0 (a·b = 0 for pq = 0); α^0 is the identity
        self.ann = (self.mul_np[factors] == self.zero).all(axis=1)
        # columns of the hypothesis arrays: one per left factor
        self.width = factors.shape[1]
        self.room = _MEMO_CELLS
        self._allowed: dict = {}
        self._products: dict = {}
        self._bad: dict = {}
        self._chunks: dict = {}
        self._screen = None

    def keep(self, store: dict, key, value, cells: int):
        """``value``, kept in ``store`` under ``key`` if its ``cells`` fit
        the room left."""
        if cells <= self.room:
            self.room -= cells
            store[key] = value
        return value

    def red(self, e: int) -> int:
        return self._endo().reduce_exponent(e)

    def left(self, e: int) -> np.ndarray:
        """left[a, g]: the left factors of the hypothesis terms from a
        coefficient a of p at exponent e, a·α^e(g) for each generator g of a
        sandwich, or the single column a for pq = 0."""
        if self.gens is None:
            return np.arange(self.n, dtype=self.dtype)[:, None]
        return self.mul_np[:, self.power_row(e)[self.gens]]

    def power_row(self, e: int) -> np.ndarray:
        return self.pow_np[self.red(e)]

    def candidates(self, length: int, lasts: np.ndarray, allowed: np.ndarray, counts):
        """The rows of the largest chunk of every q of one shape whose head
        value ``allowed`` keeps and whose last coefficient is in ``lasts``,
        and a function giving those chunks, each with the first and the last
        nonzero coefficient of each of its q, in enumeration order.  The
        chunks of one head set, last set and chunk size are kept for later
        calls while the room allows; otherwise each call of the function
        builds them afresh, one at a time.  ``counts`` counts the chunks
        built and reused, and the q that ``lasts`` leaves out."""
        step = max(1, _CHUNK_CELLS // max(self.n, length))
        key = (length, lasts.tobytes(), step, allowed.tobytes())
        heads = np.flatnonzero(allowed).astype(self.dtype)
        levels = _levels(self.n, length, lasts, lambda f: heads)
        rows = sum(level[2] for level in levels)
        counts["q_tops_refused"] += sum(level[3] for level in levels)

        def chunks():
            for qs in _tuple_chunks(self.n, length, lasts, self.zero, levels, step, self.dtype):
                counts["q_chunks_built"] += 1
                at, nonzero = np.arange(len(qs)), qs != self.zero
                last = length - 1 - nonzero[:, ::-1].argmax(axis=1)
                yield qs, qs[at, nonzero.argmax(axis=1)], qs[at, last]

        def reread():
            for chunk in self._chunks[key]:
                counts["q_chunks_reused"] += 1
                yield chunk

        cells = rows * (length + 2)
        if key not in self._chunks and cells <= self.room:  # list them only if kept
            self.keep(self._chunks, key, list(chunks()), cells)
        return min(rows, step), reread if key in self._chunks else chunks

    def head_tables(self, e: int):
        """The prefix rule at exponent e: ``allowed[a, v]`` says whether a q
        with first nonzero coefficient v may pass the hypothesis against a p
        whose first nonzero coefficient a sits at exponent e, and ``heads``
        lists the a with some v.  Row and column zero are all False.  Built
        once for each class of exponents that share them.

        The lowest coefficient of p (r x^k) q is the single term
        a·α^e(r)·α^(e+k)(v) (a·α^e(v) for pq = 0), so a nonzero value there
        fails the hypothesis; the rule therefore only drops failing pairs.
        For a surjective twist α^e(r) ranges over R, so the sandwich rule is
        a·R·α^k(v) = 0 over one period of k and does not depend on e; the
        rule for pq = 0 does.

        One table serves both ends: the highest nonzero coefficient of
        p (r x^k) q is the same single term of p's last nonzero coefficient
        a, at exponent e, and q's last nonzero coefficient v.  So read at
        the exponent of p's last nonzero coefficient, ``allowed[a, v]`` says
        which tops may meet, and ``heads`` which tops of p meet any q.
        """
        surj = self.gens is not None and self.surjective
        key = None if surj else self.red(e)
        if key in self._allowed:
            return self._allowed[key]
        tab = np.ones((self.n, self.n), dtype=bool)
        if surj:
            for row in self.pow_np:
                tab &= self.ann[:, row]
        else:
            terms = self.mul_np[self.left(e)]  # [a, g, v]: left[a, g]·v
            for k in self.ks:
                tab &= (terms[:, :, self.power_row(e + k)] == self.zero).all(axis=1)
        tab[:, self.zero] = tab[self.zero] = False
        heads = np.flatnonzero(tab.any(axis=1)).astype(self.dtype)
        return self.keep(self._allowed, key, (tab, heads), tab.size + heads.size)

    def products(self, e: int, k: int) -> np.ndarray:
        """prod[g, a·n + b]: left[a, g]·α^(e+k)(b), the term of p (g x^k) q
        from a coefficient a of p at exponent e and b of q, one row per left
        factor (``left``): a·α^e(g)·α^(e+k)(b) per generator g, or the
        single a·α^e(b) for pq = 0."""
        key = (self.red(e), self.red(e + k))
        if key in self._products:
            return self._products[key]
        left = self.left(e).T
        prod = self.mul_np[left[:, :, None], self.power_row(e + k)].reshape(len(left), -1)
        return self.keep(self._products, key, prod, prod.size)

    def bad_table(self, twists: tuple[int, ...]) -> np.ndarray:
        """bad[a, b]: a coefficient b of q violates a conclusion with the
        reduced twist exponents ``twists`` (``_Scanner.twists``) against a
        coefficient a of p, whatever their exponents.  Row and column zero
        are all False."""
        if twists in self._bad:
            return self._bad[twists]
        bad = ~self.ann[:, self.pow_np[list(twists)]].all(axis=1)
        return self.keep(self._bad, twists, bad, bad.size)

    def screen(self, basis) -> _RankScreen:
        """The rank screen over ``basis`` (``FiniteRing.prime_basis``),
        made on first use."""
        if self._screen is None:
            self._screen = _RankScreen(self, *basis)
        return self._screen


# The shared tables of each live twist object, by hypothesis kind (whether
# it is a sandwich); an entry goes with its twist.
_SHARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _twist_tables(ring: FiniteRing, endo: Endomorphism, sandwich: bool) -> _TwistTables:
    """The shared tables of ``endo`` and the kind of hypothesis, made on
    first use."""
    kinds = _SHARED.setdefault(endo, {})
    if sandwich not in kinds:
        kinds[sandwich] = _TwistTables(ring, endo, sandwich)
    return kinds[sandwich]


class _Scanner:
    """One decider call: its statement and its counts.

    Everything the search derives from the ring, the twist and the kind of
    hypothesis is ``tables`` (``_TwistTables``), shared with every other
    search on the same twist object while that object lives, so a second
    statement on one twist, such as α-skew after α-Armendariz, reuses the
    first one's tables, q chunks and null spaces.  The conclusion's tables
    are shared there too, keyed by its twists at each exponent
    (``twists``), which is all they depend on beyond the hypothesis kind.

    ``counts`` keeps what the search did, deterministically and outside any
    verdict.  The kernel's: "p_batches", "steps" (p batch × q chunk),
    "q_chunks_built", "q_chunks_reused" (read from the shared memo),
    "mask_cells", the pairs ``_passing`` tested and passed
    ("pairs_tested", "pairs_passed"), and the p and q rows the prefix rule
    at the top refused ("p_tops_refused", "q_tops_refused").  The rank
    screen's: "rank_batches", the p it tested ("screen_p") and the p it
    skipped by their top ("screen_tops_refused"), and of those tested the p
    whose null space of H(p) it eliminated ("null_spaces_built") or read
    from the shared store ("null_spaces_reused").
    """

    def __init__(self, ring: FiniteRing, endo: Endomorphism, variant: PropertyId):
        self.statement = _STATEMENTS[variant]
        self.tables = _twist_tables(ring, endo, self.statement.sandwich)
        self.counts = Counter()

    def twists(self, e: int) -> tuple[int, ...]:
        """The twist exponents of the conclusion for a coefficient of p at
        exponent e, reduced into the orbit window."""
        tables = self.tables
        return tuple(tables.red(t) for t in self.statement.twists(e, tables.orbit))

    def bad_table(self, e: int) -> np.ndarray:
        """The shared ``bad_table`` of the conclusion at exponent e."""
        return self.tables.bad_table(self.twists(e))


class _RankScreen:
    """Clears whole p shapes over an F_p carrier without listing q.

    Fix p.  Its hypothesis and its conclusion are additive in q, so the q
    that pass the hypothesis form a subgroup Q(p), those that satisfy the
    conclusion a subgroup C(p), and p has a witness iff Q(p) ⊄ C(p).  When
    (R,+) is F_p^m (``FiniteRing.prime_basis``), a q of L coefficients is a
    vector of F_p^(mL): Q(p) is the null space of the hypothesis matrix
    H(p), and C(p) holds the q whose every coefficient is in the null space
    of the conclusion matrix K(p).  Both are gathered from m × m tables:
    the block of H(p) at product coefficient i + j, q coefficient j,
    sandwich generator g and twist k is the matrix of
    b ↦ a_i·α^e(g)·α^(e+k)(b) with e the exponent of a_i (of b ↦ a_i·α^e(b)
    for pq = 0), and K(p) stacks the matrices of b ↦ a_i·g·α^t(b) (of
    b ↦ a_i·α^t(b)) over p's coefficients, the twists t and the g.

    H and K are linear in p as well, so one p per F_p^× multiple is tested;
    the p whose head or top the prefix rule refuses have Q(p) = 0 and are
    skipped.

    One screen serves every search on its twist tables: H(p), its tables and
    its null spaces belong to the hypothesis, K(p)'s tables to the
    conclusion's twists, and all are kept in the tables' stores.
    """

    def __init__(self, tables: _TwistTables, p: int, basis: list[int], coords: np.ndarray):
        # a weak reference, as the tables hold the screen: without a cycle
        # both go as soon as their twist does, not at the next collection
        self.tables, self.p = weakref.proxy(tables), p
        # the stores keep the least dtype that holds [0, p)
        self.least = bool if p == 2 else np.min_scalar_type(p - 1)
        self.basis = np.asarray(basis, dtype=np.intp)
        self.m = len(basis)
        self.coords = coords.astype(self.least)
        lead = coords[np.arange(tables.n), (coords != 0).argmax(axis=1)]
        self.canonical = lead == 1  # heads whose first nonzero coordinate is 1
        self.inverse = np.array([pow(x, p - 2, p) if x else 0 for x in range(p)], self.least)
        self._hyp: dict = {}
        self._con: dict = {}
        self._null: dict = {}

    def hypothesis_table(self, e: int, k: int) -> np.ndarray:
        """tab[a, j, g]: the image of the j-th basis element under
        b ↦ a·α^e(g)·α^(e+k)(b) (under b ↦ a·α^e(b) for pq = 0), so each
        map's matrix is stored column-major."""
        tables = self.tables
        key = (tables.red(e), tables.red(e + k))
        if key in self._hyp:
            return self._hyp[key]
        prod = tables.products(e, k).reshape(-1, tables.n, tables.n)
        tab = self.coords[prod[:, :, self.basis].transpose(1, 2, 0)]
        return tables.keep(self._hyp, key, tab, tab.size)

    def conclusion_table(self, twists: tuple[int, ...]) -> np.ndarray:
        """tab[a]: the matrices of b ↦ a·g·α^t(b) (of b ↦ a·α^t(b)) for a
        coefficient a of p, stacked over the reduced twist exponents t in
        ``twists`` (``_Scanner.twists``) and the g, reduced to their echelon
        form of m rows.  They are the hypothesis tables at exponent 0 and
        twist t."""
        if twists in self._con:
            return self._con[twists]
        tab = np.stack([self.hypothesis_table(0, t) for t in twists], axis=2)
        tab = self._echelon(tab.reshape(self.tables.n, self.m, -1))
        return self.tables.keep(self._con, twists, tab, tab.size)

    def first_uncleared(self, sc: _Scanner, amin: int, shapes, lq: int) -> int:
        """The index in ``shapes`` of the first p shape (lowest exponent
        ``amin``) with a p that meets a nonzero q of at most ``lq``
        coefficients in a witness of ``sc``'s statement, or ``len(shapes)``.

        The p of every shape are taken in order as one stream, each padded
        with zero coefficients on top to the longest shape, which changes
        neither H(p) nor K(p).  The stream is decided in batches whose size
        doubles from ``_FIRST_RANK_ROWS``, so a witness early on ends the
        screen cheaply; the first batch with one ends it."""
        tables = self.tables
        width = max(lp for lp, _ in shapes)
        # per p: H(p), and K(p) times the null vectors' coefficients
        cells = (len(tables.ks) * (width + lq - 1) * tables.width + width * lq) * self.m * lq * self.m
        cap = max(1, _RANK_CELLS // cells)

        def heads(f):
            allowed = tables.head_tables(amin + f)[1]
            return allowed[self.canonical[allowed]]

        def stream():
            for index, (lp, exact) in enumerate(shapes):
                if exact:
                    lasts = tables.head_tables(amin + lp - 1)[1]
                else:
                    lasts = np.arange(tables.n, dtype=tables.dtype)
                levels = _levels(tables.n, lp, lasts, heads)
                sc.counts["screen_tops_refused"] += sum(level[3] for level in levels)
                chunks = _tuple_chunks(tables.n, lp, lasts, tables.zero, levels, cap, tables.dtype)
                for chunk in chunks:
                    if not exact:  # Q(p) = 0 when p's last nonzero coefficient meets no q
                        keep = _tops(tables, chunk, amin).any(axis=1)
                        sc.counts["screen_tops_refused"] += len(chunk) - int(keep.sum())
                        chunk = chunk[keep]
                    ps = np.full((len(chunk), width), tables.zero, dtype=tables.dtype)
                    ps[:, :lp] = chunk
                    yield ps, np.full(len(chunk), index)

        for ps, index in _doubling_batches(stream(), _FIRST_RANK_ROWS, cap):
            sc.counts.update(rank_batches=1, screen_p=len(ps))
            hit = self._witnessed(sc, ps, amin, lq)
            if hit.any():
                return int(index[hit.argmax()])
        return len(shapes)

    def _witnessed(self, sc: _Scanner, ps: np.ndarray, amin: int, lq: int) -> np.ndarray:
        """Which p of ``ps`` have Q(p) ⊄ C(p) for ``sc``'s statement."""
        m = self.m
        count, lp = ps.shape
        null = self.null_spaces(ps, amin, lq, sc.counts)
        con = [self.conclusion_table(sc.twists(amin + i))[ps[:, i]] for i in range(lp)]
        # Q(p) ⊆ C(p) iff K(p) kills every coefficient of every null vector
        coeffs = null.reshape(count, lq, m, -1).swapaxes(1, 2).reshape(count, m, -1)
        kills = np.matmul(np.concatenate(con, axis=1), coeffs, dtype=np.int32)
        return (kills % self.p).any(axis=(1, 2))

    def null_spaces(self, ps: np.ndarray, amin: int, lq: int, counts) -> np.ndarray:
        """null[x]: a matrix whose columns span Q(ps[x]) = ker H(ps[x]), for
        p of lowest exponent ``amin`` and q of ``lq`` coefficients.  Read
        from the store under a key of all it depends on, or eliminated and
        kept while the room allows; ``counts`` counts the p of each."""
        key = (amin, lq, ps.shape[1], ps.tobytes())
        if key in self._null:
            counts["null_spaces_reused"] += len(ps)
            return self._null[key]
        tables, m = self.tables, self.m
        count, lp = ps.shape
        # column-major: [p, q coefficient, basis element, rows of H(p)]
        hyp = np.zeros((count, lq, m, len(tables.ks), lp + lq - 1, tables.width, m), dtype=self.least)
        for x, k in enumerate(tables.ks):
            for i in range(lp):
                block = self.hypothesis_table(amin + i, k)[ps[:, i]]
                for j in range(lq):
                    hyp[:, j, :, x, i + j] = block
        hyp = self._echelon(hyp.reshape(count, lq * m, -1))
        null = ((np.eye(lq * m, dtype=np.int32) - hyp) % self.p).astype(self.least)
        counts["null_spaces_built"] += count
        return tables.keep(self._null, key, null, null.size + ps.size)

    def _echelon(self, h: np.ndarray) -> np.ndarray:
        """The reduced row echelon form of each matrix of ``h`` (mod p), given
        column-major as [matrix, column, row], one row per column: the row
        with its pivot there, or zero.  With E that form, the columns of
        I - E span the null space.  Each column step updates the contiguous
        rows of every later column in place."""
        p = self.p
        count, cols, _ = h.shape
        nonzero = np.flatnonzero(h.any(axis=(0, 1)))  # a row zero in every matrix adds nothing
        rows = len(nonzero)
        # Over F_p an entry is reduced only when its column is reached, and
        # grows by at most p·(p - 1) a step before then.  The extra zero row
        # stands in as the pivot row of a matrix with no pivot in a column.
        dtype = bool if p == 2 else np.min_scalar_type(p - 1 + cols * p * (p - 1))
        x = np.zeros((count, cols, rows + 1), dtype)
        x[:, :, :rows] = h[:, :, nonzero]
        at = np.arange(count)
        free = np.ones((count, rows + 1), dtype=bool)
        pivot = np.full((count, cols), rows)  # the row that holds each column's pivot
        for c in range(cols):
            col = x[:, c]
            if p > 2:
                col %= p
            cand = (col != 0) & free
            has = cand.any(axis=1)
            if not has.any():
                continue
            r = np.where(has, cand.argmax(axis=1), rows)
            row = x[at, c:, r]  # zero left of c
            if p == 2:
                x[:, c:] ^= row[:, :, None] & col[:, None, :]
            else:
                row = row % p * self.inverse[row[:, 0]][:, None] % p
                x[:, c:] += row[:, :, None] * (p - col)[:, None, :]
            x[at, c:, r] = row
            free[at, r] = False
            pivot[:, c] = r
        return (x[at[:, None], :, pivot] % p).astype(self.least)


def _doubling_batches(pieces, first: int, cap: int):
    """The rows of ``pieces`` (tuples of arrays that share their first axis)
    regrouped into batches of ``first``, 2·``first``, 4·``first``, ... rows,
    none over ``cap``."""
    held, count, want = [], 0, min(first, cap)
    for piece in pieces:
        lo = 0
        while lo < len(piece[0]):
            hi = lo + want - count
            held.append([a[lo:hi] for a in piece])
            count += len(held[-1][0])
            lo = hi
            if count == want:
                yield [np.concatenate(parts) for parts in zip(*held)]
                held, count, want = [], 0, min(2 * want, cap)
    if held:
        yield [np.concatenate(parts) for parts in zip(*held)]


def _cleared_shapes(sc: _Scanner, basis, amin: int, blocks) -> set:
    """The p shapes, from the first on, that the rank screen clears; empty
    unless (R,+) is F_p^m, when ``basis`` (``FiniteRing.prime_basis``) is
    set.  Every p shape of the deciders meets the same q shapes, which hold
    every nonzero q up to the longest one, and a shorter q is a longer one
    with zero coefficients on top; so the screen tests every p against every
    q of that longest length."""
    if basis is None:
        return set()
    shapes = list(dict.fromkeys(p for p, _ in blocks))
    lq = max(q_len for _, (q_len, _) in blocks)
    first = sc.tables.screen(basis).first_uncleared(sc, amin, shapes, lq)
    return set(shapes[:first])


def _least_violation(sc: _Scanner, amin: int, p_shape, q_shape):
    """The least (p, q) of one block, as coefficient tuples, that passes the
    hypothesis and violates the conclusion, or None.

    The p are taken a level at a time (first nonzero coefficient at position
    f), in batches across heads, against one list of q: those whose head
    some head of the level allows by the prefix rule (a head that allows
    none is never built).  The rule read at the top does the same for the
    last coefficients of exact shapes: a p top that meets no q top, and a q
    top that no p top meets, is never built.  On free shapes each p is
    dropped when its last nonzero coefficient meets no q.  Both shapes of a
    block are exact (``family_blocks``) or both free.  A batch times the
    rows of a q chunk stays within ``_PAIR_CELLS`` unless a single p exceeds
    it (``_least_in_batch``).
    """
    tables = sc.tables
    lp, exact = p_shape
    if exact:  # both shapes, as in every block of ``family_blocks``
        top, p_lasts = tables.head_tables(amin + lp - 1)
        q_lasts = np.flatnonzero(top.any(axis=0)).astype(tables.dtype)
    else:
        p_lasts = q_lasts = np.arange(tables.n, dtype=tables.dtype)
    for f in range(lp - 1, -1, -1):
        allowed, heads = tables.head_tables(amin + f)
        heads, total, refused = _level(tables.n, lp, p_lasts, f, heads)
        sc.counts["p_tops_refused"] += refused
        if not total:
            continue
        q_heads = allowed[heads].any(axis=0)
        chunk_rows, chunks = tables.candidates(q_shape[0], q_lasts, q_heads, sc.counts)
        if not chunk_rows:
            continue
        batch = max(1, _PAIR_CELLS // chunk_rows)
        for lo in range(0, total, batch):
            hi = min(total, lo + batch)
            ps = _level_rows(tables.n, lp, p_lasts, tables.zero, f, heads, lo, hi, tables.dtype)
            if exact:
                tops = top[ps[:, -1]]
            else:  # drop the p whose last nonzero coefficient meets no q
                tops = _tops(tables, ps, amin)
                keep = tops.any(axis=1)
                sc.counts["p_tops_refused"] += len(ps) - int(keep.sum())
                ps, tops = ps[keep], tops[keep]
                if not len(ps):
                    continue
            sc.counts["p_batches"] += 1
            hit = _least_in_batch(sc, ps, tops, f, amin, allowed, chunks())
            if hit is not None:
                return hit
    return None


def _tops(tables: _TwistTables, ps: np.ndarray, amin: int) -> np.ndarray:
    """tops[x, v]: the prefix rule read at the top of ``ps[x]``, of a free
    shape with lowest exponent ``amin``: whether a q whose last nonzero
    coefficient is v may pass the hypothesis against it.  It is the row of
    p's last nonzero coefficient in ``head_tables(E)``, E being that
    coefficient's exponent."""
    last = ps.shape[1] - 1 - (ps[:, ::-1] != tables.zero).argmax(axis=1)
    tops = np.empty((len(ps), tables.n), dtype=bool)
    for i in range(ps.shape[1]):
        at = last == i
        tops[at] = tables.head_tables(amin + i)[0][ps[at, i]]
    return tops


def _least_in_batch(sc: _Scanner, ps: np.ndarray, tops, f: int, amin: int, allowed, chunks):
    """The least (p, q) with p in ``ps`` (rows of one level, in order, with
    their rows ``tops`` of the rule at the top) and (q, q head, q top) in
    ``chunks``, or None.  The chunks come in enumeration order, so once a p
    has hit, only the p before it need the later chunks."""
    best = None
    for qs, qh, qt in chunks:
        cut = len(ps) if best is None else best[0]
        if not cut:
            break
        hit = _least_in_chunk(sc, ps[:cut], tops[:cut], f, amin, allowed, qs, qh, qt)
        if hit is not None:
            best = hit[0], qs[hit[1]]
    if best is None:
        return None
    return tuple(ps[best[0]].tolist()), tuple(best[1].tolist())


def _least_in_chunk(sc: _Scanner, ps: np.ndarray, tops, f: int, amin: int, allowed, qs, qh, qt):
    """Indices (into ``ps``, ``qs``) of the least pair that passes the
    hypothesis and violates the conclusion, or None.

    The conclusion mask ORs the ``bad_table`` rows of p's coefficients into
    one row per p and reads it at q's coefficients; the prefix rule then
    keeps only the pairs whose q head ``qh`` p's head allows (``allowed``)
    and whose q top ``qt`` p's top allows (``tops``).  The surviving pairs,
    in row-major order, go to ``_passing`` in slices that keep the
    (pairs × generators) arrays within ``_PAIR_CELLS``; the first pair to
    pass is the least.
    """
    bad = sc.bad_table(amin + f)[ps[:, f]]
    for i in range(f + 1, ps.shape[1]):
        bad = bad | sc.bad_table(amin + i)[ps[:, i]]
    mask = bad[:, qs[:, 0]]
    for j in range(1, qs.shape[1]):
        mask |= bad[:, qs[:, j]]
    mask &= allowed[ps[:, f]][:, qh]
    mask &= tops[:, qt]
    sc.counts.update(steps=1, mask_cells=mask.size)
    hits = np.flatnonzero(mask)  # several times faster than np.nonzero of a 2-d mask
    step = max(1, _PAIR_CELLS // max(1, sc.tables.width))
    for lo in range(0, len(hits), step):
        pi, qi = np.divmod(hits[lo : lo + step], len(qs))
        ok = _passing(sc.tables, ps, f, amin, qs, pi, qi)
        sc.counts.update(pairs_tested=len(pi), pairs_passed=len(ok))
        if len(ok):
            return pi[ok[0]], qi[ok[0]]
    return None


def _passing(tables: _TwistTables, ps, f: int, amin: int, qs, pi, qi) -> np.ndarray:
    """The indices of the pairs (ps[pi], qs[qi]) that pass the hypothesis,
    in order, for pairs that pass the prefix rule.

    The hypothesis is tested one product coefficient at a time, dropping the
    pairs that fail after each.  Coefficient e of p (g x^k) q is the sum
    over i + j = e of a_i·α^(amin+i)(g)·α^(amin+i+k)(b_j) (``products``), a
    |G| × pairs array over the generators g; the plain hypothesis pq = 0 is
    the same sum with the single left factor a_i and k = 0.  Tables are read
    by flat index a·n + b (``take``), several times faster than by index
    pairs; the indices are formed in place, in the least dtype that holds
    n² - 1.
    """
    n, add, zero = tables.n, tables.add_np.ravel(), tables.zero
    lp, lq = ps.shape[1], qs.shape[1]
    index = np.min_scalar_type(n * n - 1)
    pa, qb = ps.T.astype(index), qs.T
    pa *= n  # pa[i]: n times coefficient i of every p
    idx = np.arange(len(pi))
    for k in tables.ks:
        # coefficient f is p's head times q's first coefficient: zero if that
        # is zero, and zero by the prefix rule if it is q's head
        for e in range(f + 1, lp + lq - 1):
            s = None
            for i in range(max(f, e - lq + 1), min(lp, e + 1)):
                flat = pa[i][pi]
                flat += qb[e - i][qi]
                t = tables.products(amin + i, k).take(flat, axis=1)
                if s is None:
                    s = t
                else:
                    flat = s.astype(index)
                    flat *= n
                    flat += t
                    s = add.take(flat)
            keep = (s == zero).all(axis=0)
            if not keep.all():
                idx, pi, qi = idx[keep], pi[keep], qi[keep]
                if not len(idx):
                    return idx
    return idx


def _conclusion_violation(sc: _Scanner, ap, amin, bq, bmin):
    """First violated conclusion instance in (i, j, t, r) order, or None.

    Exponents are the actual ones (``amin``/``bmin`` shifted); the returned
    monomial records the conclusion's sandwich element (the least r) and
    twist exponent, or is None for a conclusion without one.
    """
    tables = sc.tables
    mul, zero = tables.mul_np, tables.zero
    for i, a in enumerate(ap):
        ei = amin + i
        bad = sc.bad_table(ei)[a]  # row and column zero are all False
        for j, b in enumerate(bq):
            if not bad[b]:
                continue
            for t in sc.statement.twists(ei, tables.orbit):
                tb = tables.power_row(t)[b]
                if not sc.statement.sandwich:
                    if mul[a, tb] != zero:
                        return (ei, bmin + j), None, int(mul[a, tb])
                    continue
                vals = mul[mul[a], tb]  # a·r·α^t(b) for every r
                hit = np.flatnonzero(vals != zero)
                if hit.size:
                    return (ei, bmin + j), (int(hit[0]), t), int(vals[hit[0]])
    return None


def family_blocks(degree: int) -> list:
    """The (p shape, q shape) blocks of the bounded-degree search, in order."""
    shapes = [(d + 1, True) for d in range(degree + 1)]
    return [(p, q) for p in shapes for q in shapes]


def over_budget(n: int, length: int, budget: int) -> bool:
    """Whether a search's n^length nominal (p, q) tuples, ``length`` the
    coefficients of its longest p and q shapes together, exceed the tuple
    budget.  This is the one price of a search; n^length is formed only
    when its size in bits leaves the answer open."""
    if n > 1 and length * (n.bit_length() - 1) >= budget.bit_length():
        return True  # n^length >= 2^(length·floor(log2 n)) > |budget|
    return n**length > budget


def _require_budget(n: int, length: int, budget: int) -> None:
    """Refuse a search over the budget (``over_budget``), before any block
    or table is built."""
    if over_budget(n, length, budget):
        raise BudgetExceededError(n, length, budget)


def _search(ring, alpha, prop, envelope, blocks, p_min, q_min, order=None) -> Verdict:
    """The one search behind every polynomial decider: the least witness in
    (block, p, q) order.  ``blocks`` lists (p shape, q shape) pairs, a shape
    being (number of coefficients, whether the last is nonzero); ``p_min``
    and ``q_min`` are the lowest exponents, ``order`` a series' truncation.
    The deciders check the budget first (``_require_budget``)."""
    sc = _Scanner(ring, alpha, prop)
    cleared = _cleared_shapes(sc, ring.prime_basis, p_min, blocks)
    for p_shape, q_shape in blocks:
        if p_shape in cleared:
            continue
        hit = _least_violation(sc, p_min, p_shape, q_shape)
        if hit is not None:
            ap, bq = hit
            pair, mono, off = _conclusion_violation(sc, ap, p_min, bq, q_min)
            w = Witness(
                kind=sc.statement.kind,
                p_coeffs=ap,
                p_min=p_min,
                q_coeffs=bq,
                q_min=q_min,
                order=order,
                pair=pair,
                monomial=mono,
                offending=off,
            )
            return _verdict(prop, ring, alpha, envelope, w)
    return _verdict(prop, ring, alpha, envelope)


def check_armendariz_family(
    ring: FiniteRing,
    alpha: Endomorphism | None,
    degree: int,
    variant: PropertyId,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> Verdict:
    """Decide one polynomial Armendariz-type variant up to a degree bound.

    Searches every pair (p, q) of nonzero polynomials of degree <= ``degree``
    satisfying the variant's hypothesis and checks the variant's conclusion
    on every coefficient pair, returning the least witness on failure.
    """
    if variant not in FAMILY_PROPERTIES:
        raise RingError(f"{variant.value} is not a bounded-degree polynomial property")
    if degree < 0:
        raise RingError("degree bound must be nonnegative")
    alpha = _twist_for(ring, alpha, variant)
    _require_budget(ring.size, 2 * (degree + 1), budget)
    blocks = family_blocks(degree)
    return _search(ring, alpha, variant, Envelope(degree=degree), blocks, 0, 0)


def check_laurent_q_alpha_skew(
    ring: FiniteRing,
    alpha: Endomorphism,
    window: tuple[int, int, int, int],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> Verdict:
    """Laurent variant: p has exponents in [-m, n], q in [-t, s]; the
    hypothesis sandwiches r x^k over one twist period (negative k add
    nothing for an automorphism) and the conclusion is
    a_i R alpha^i(b_j) = 0 at the actual exponents."""
    prop = PropertyId.LAURENT_Q_ALPHA_SKEW
    alpha = _twist_for(ring, alpha, prop)
    if not alpha.is_automorphism:
        raise RingError("the Laurent decider needs an automorphism")
    m, nn, t, s = (int(x) for x in window)
    if min(m, nn, t, s) < 0:
        raise RingError("window entries must be nonnegative")
    _require_budget(ring.size, m + nn + t + s + 2, budget)
    blocks = [((m + nn + 1, False), (t + s + 1, False))]
    return _search(ring, alpha, prop, Envelope(window=(m, nn, t, s)), blocks, -m, -t)


def check_powerseries_q_alpha_skew(
    ring: FiniteRing,
    alpha: Endomorphism,
    truncation: int,
    laurent: bool = False,
    min_exp: int | None = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> Verdict:
    """Truncated power-series variant: both series have their coefficients
    free on [min_exp, truncation) and zero beyond, the sandwich hypothesis is
    evaluated exactly on these finite supports, and the conclusion ranges
    over every stored coefficient pair.  The verdict is explicitly a
    statement about that coefficient window, never about full series.
    """
    prop = PropertyId.POWERSERIES_Q_ALPHA_SKEW
    if laurent:
        prop = PropertyId.LAURENT_POWERSERIES_Q_ALPHA_SKEW
    alpha = _twist_for(ring, alpha, prop)
    if truncation < 1:
        raise RingError("truncation order must be at least 1")
    lo = 0
    if laurent:
        lo = -1 if min_exp is None else int(min_exp)
        if lo >= 0:
            raise RingError("the Laurent series variant needs a negative lower exponent")
        if not alpha.is_automorphism:
            raise RingError("negative exponents need an automorphism")
    width = truncation - lo
    if width < 1:
        raise RingError("empty coefficient window")
    _require_budget(ring.size, 2 * width, budget)
    envelope = Envelope(truncation=truncation, min_exp=lo if laurent else None)
    blocks = [((width, False), (width, False))]
    return _search(ring, alpha, prop, envelope, blocks, lo, lo, order=truncation)


def check_property(
    ring: FiniteRing,
    alpha: Endomorphism | None,
    prop: PropertyId,
    degree: int | None = None,
    window: tuple[int, int, int, int] | None = None,
    truncation: int | None = None,
    min_exp: int | None = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> Verdict:
    """Dispatch a property id to its decider with the matching envelope."""
    if prop in ELEMENT_PROPERTIES:
        if prop is PropertyId.RIGID:
            return is_rigid(ring, alpha)
        fn = {
            PropertyId.REDUCED: is_reduced,
            PropertyId.DOMAIN: is_domain,
            PropertyId.COMMUTATIVE: is_commutative,
            PropertyId.SEMICOMMUTATIVE: is_semicommutative,
            PropertyId.REVERSIBLE: is_reversible,
            PropertyId.SYMMETRIC: is_symmetric,
        }[prop]
        return fn(ring)
    kind = _STATEMENTS[prop].kind
    need, what = _NEEDS[kind]
    if {"degree": degree, "window": window, "truncation": truncation}[need] is None:
        raise RingError(f"{prop.value} needs {what}")
    if kind == "poly":
        return check_armendariz_family(ring, alpha, degree, prop, budget)
    if kind == "laurent":
        return check_laurent_q_alpha_skew(ring, alpha, window, budget)
    return check_powerseries_q_alpha_skew(
        ring,
        alpha,
        truncation,
        laurent=prop is PropertyId.LAURENT_POWERSERIES_Q_ALPHA_SKEW,
        min_exp=min_exp,
        budget=budget,
    )


# --------------------------------------------------------------------------
# witness replay and the coefficient-chain helper

def twisted_chain_product(polys: list[SkewPoly], indices: list[int]) -> RingElement:
    """The product a1[i1] · alpha^(i1)(a2[i2]) · alpha^(i1+i2)(a3[i3]) · ...

    One coefficient is taken from each polynomial; the accumulated twist of
    each factor is the sum of the earlier indices.
    """
    if not polys:
        raise RingError("need at least one polynomial")
    if len(polys) != len(indices):
        raise RingError("need one coefficient index per polynomial")
    ring, endo = polys[0].ring, polys[0].endo
    acc = None
    shift = 0
    for p, i in zip(polys, indices):
        if p.ring.ring_id != ring.ring_id or p.endo.images != endo.images:
            raise RingError("polynomials live over different carriers")
        if not 0 <= i <= p.degree:
            raise RingError(f"coefficient index {i} out of range for {p.render()}")
        c = endo.power_apply(shift, p.coeffs[i])
        acc = c if acc is None else ring.mul_table[acc][c]
        shift += i
    return ring.element(acc)


_WITNESS_CLASSES = {"poly": SkewPoly, "laurent": LaurentSkewPoly, "series": TruncatedSkewSeries}


def _witness_polys(ring, endo, witness: Witness):
    cls = _WITNESS_CLASSES.get(witness.kind)
    if cls is None:
        raise RingError(f"witness kind {witness.kind!r} has no polynomials")
    order = witness.order if cls is TruncatedSkewSeries else None
    p = cls._of(ring, endo, witness.p_min, witness.p_coeffs, order)
    q = cls._of(ring, endo, witness.q_min, witness.q_coeffs, order)
    return p, q


class ReplayMismatch(RingError):
    """Witness replay reproduced a different value than the recorded one."""


def replay_witness(
    ring: FiniteRing, alpha: Endomorphism | None, prop: PropertyId, witness: Witness
) -> None:
    """Re-derive a witness's hypothesis and violation through the public
    arithmetic; raises ReplayMismatch unless both reproduce exactly."""
    if prop in ELEMENT_PROPERTIES:
        els = witness.elements or ()
        for e in els:
            if not 0 <= e < ring.size:
                raise RingError(f"witness element {e} out of range")
        alpha = _twist_for(ring, alpha, prop)
        law = _ELEMENT_LAWS[prop]
        values = law.values(ring, alpha, els)
        if values is None:
            raise ReplayMismatch(law.claim)
        if values != (witness.values or ()):
            raise ReplayMismatch(law.recorded or law.claim)
        return

    stmt = _STATEMENTS[prop]
    if witness.kind != stmt.kind:
        raise RingError(f"a {prop.value} witness has kind {stmt.kind!r}, not {witness.kind!r}")
    alpha = _twist_for(ring, alpha, prop)
    for c in (witness.p_coeffs or ()) + (witness.q_coeffs or ()):
        if not 0 <= c < ring.size:
            raise RingError(f"witness coefficient {c} out of range")
    p, q = _witness_polys(ring, alpha, witness)

    if not stmt.sandwich:
        hypothesis, holds = "hypothesis pq = 0", skew_mul(p, q).is_zero
    else:
        hypothesis, quantifier = {
            "poly": ("hypothesis p R[x;alpha] q = 0", forall_sandwich_zero),
            "laurent": ("Laurent hypothesis", forall_sandwich_zero_laurent),
            "series": ("series hypothesis", forall_sandwich_zero_series),
        }[stmt.kind]
        holds = quantifier(p, q)
    if not holds:
        raise ReplayMismatch(f"{hypothesis} did not reproduce")

    if witness.pair is None or witness.offending is None:
        raise ReplayMismatch("witness lacks a violated pair")
    i, j = witness.pair
    a = p.coefficient(i)
    b = q.coefficient(j)
    expected = stmt.twist_at(i)  # None: the property claims every twist exponent
    mul, zero = ring.mul_table, ring.zero
    if not stmt.sandwich:
        v = mul[a][alpha.power_apply(expected, b)]
    else:
        if witness.monomial is None:
            raise ReplayMismatch("witness lacks the conclusion's sandwich element")
        r, e = witness.monomial
        if not 0 <= r < ring.size:
            raise RingError(f"witness sandwich element {r} out of range")
        if expected is not None and e != expected:
            raise ReplayMismatch(
                f"twist exponent {e} does not match the property (expected {expected})"
            )
        v = mul[mul[a][r]][alpha.power_apply(e, b)]
    if v == zero:
        raise ReplayMismatch("recorded violation evaluates to zero")
    if v != witness.offending:
        raise ReplayMismatch(
            f"offending value mismatch: recorded {ring.element_labels[witness.offending]}, "
            f"recomputed {ring.element_labels[v]}"
        )
