"""Exhaustive deciders for element-level ring predicates and Armendariz-type
polynomial conditions, with proof-carrying witnesses.

Polynomial properties are decided by bounded exhaustive search: a verdict is
either ``HoldsUpTo(envelope)`` — a verified finite statement about the
searched envelope, never a claim about all degrees — or ``Fails`` with a
witness that replays bit-exactly through the public skew-polynomial
arithmetic.  Enumeration order is fixed (degree blocks, then coefficient
tuples lexicographically from the lowest index), so the returned witness is
always the least one and verdicts are schedule-independent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product

import numpy as np

from .rings import Endomorphism, FiniteRing, RingElement, RingError, identity_endomorphism
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


class BudgetExceededError(RingError):
    """The search space is larger than the configured tuple budget."""

    def __init__(self, space: int, budget: int):
        self.space = space
        self.budget = budget
        super().__init__(
            f"search space of {space} coefficient tuples exceeds the budget of {budget}"
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


ELEMENT_PROPERTIES = frozenset(
    {
        PropertyId.REDUCED,
        PropertyId.DOMAIN,
        PropertyId.COMMUTATIVE,
        PropertyId.SEMICOMMUTATIVE,
        PropertyId.REVERSIBLE,
        PropertyId.SYMMETRIC,
        PropertyId.RIGID,
    }
)

# variants whose hypothesis is the plain product pq = 0
_PLAIN_HYP = frozenset(
    {
        PropertyId.ARMENDARIZ,
        PropertyId.ALPHA_ARMENDARIZ,
        PropertyId.ALPHA_SKEW_ARMENDARIZ,
    }
)
# variants whose hypothesis is p R[x;alpha] q = 0
_SANDWICH_HYP = frozenset(
    {
        PropertyId.QUASI_ARMENDARIZ,
        PropertyId.Q_ALPHA_ARMENDARIZ,
        PropertyId.Q_ALPHA_SKEW_ARMENDARIZ,
        PropertyId.ALPHA_QUASI_ARMENDARIZ,
    }
)
FAMILY_PROPERTIES = _PLAIN_HYP | _SANDWICH_HYP
# properties that ignore the endomorphism (the twist is the identity)
_ALPHA_FREE = frozenset({PropertyId.ARMENDARIZ, PropertyId.QUASI_ARMENDARIZ})


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


def is_reduced(ring: FiniteRing) -> Verdict:
    """No nonzero a with a^2 = 0 (equivalent to having no nonzero nilpotents)."""
    mul, zero = ring.mul_table, ring.zero
    for a in range(ring.size):
        if a != zero and mul[a][a] == zero:
            w = Witness(kind="elements", elements=(a,), values=(mul[a][a],))
            return _verdict(PropertyId.REDUCED, ring, None, _EXH, w)
    return _verdict(PropertyId.REDUCED, ring, None, _EXH)


def is_domain(ring: FiniteRing) -> Verdict:
    mul, zero = ring.mul_table, ring.zero
    for a in range(ring.size):
        if a == zero:
            continue
        row = mul[a]
        for b in range(ring.size):
            if b != zero and row[b] == zero:
                w = Witness(kind="elements", elements=(a, b), values=(row[b],))
                return _verdict(PropertyId.DOMAIN, ring, None, _EXH, w)
    return _verdict(PropertyId.DOMAIN, ring, None, _EXH)


def is_commutative(ring: FiniteRing) -> Verdict:
    mul = ring.mul_table
    for a in range(ring.size):
        for b in range(ring.size):
            if mul[a][b] != mul[b][a]:
                w = Witness(kind="elements", elements=(a, b), values=(mul[a][b], mul[b][a]))
                return _verdict(PropertyId.COMMUTATIVE, ring, None, _EXH, w)
    return _verdict(PropertyId.COMMUTATIVE, ring, None, _EXH)


def is_semicommutative(ring: FiniteRing) -> Verdict:
    """ab = 0 implies a r b = 0 for every r."""
    mul, zero = ring.mul_table, ring.zero
    for a in range(ring.size):
        row = mul[a]
        for b in range(ring.size):
            if row[b] != zero:
                continue
            for r in range(ring.size):
                v = mul[row[r]][b]
                if v != zero:
                    w = Witness(kind="elements", elements=(a, b, r), values=(v,))
                    return _verdict(PropertyId.SEMICOMMUTATIVE, ring, None, _EXH, w)
    return _verdict(PropertyId.SEMICOMMUTATIVE, ring, None, _EXH)


def is_reversible(ring: FiniteRing) -> Verdict:
    mul, zero = ring.mul_table, ring.zero
    for a in range(ring.size):
        for b in range(ring.size):
            if mul[a][b] == zero and mul[b][a] != zero:
                w = Witness(kind="elements", elements=(a, b), values=(mul[b][a],))
                return _verdict(PropertyId.REVERSIBLE, ring, None, _EXH, w)
    return _verdict(PropertyId.REVERSIBLE, ring, None, _EXH)


def is_symmetric(ring: FiniteRing) -> Verdict:
    """abc = 0 implies bac = 0."""
    mul = np.asarray(ring.mul_table)
    kills = mul == ring.zero  # kills[x, c]: x·c = 0
    for a in range(ring.size):
        # over (b, c): (a·b)·c = 0 but (b·a)·c != 0
        bad = np.argwhere(kills[mul[a]] & ~kills[mul[:, a]])
        if bad.size:
            b, c = bad[0].tolist()
            ba = ring.mul(b, a)
            w = Witness(kind="elements", elements=(a, b, c), values=(ring.mul(ba, c),))
            return _verdict(PropertyId.SYMMETRIC, ring, None, _EXH, w)
    return _verdict(PropertyId.SYMMETRIC, ring, None, _EXH)


def is_rigid(ring: FiniteRing, alpha: Endomorphism) -> Verdict:
    """r·alpha(r) = 0 forces r = 0."""
    _require_over(ring, alpha)
    mul, zero = ring.mul_table, ring.zero
    for r in range(ring.size):
        if r != zero and mul[r][alpha.images[r]] == zero:
            w = Witness(kind="elements", elements=(r,), values=(mul[r][alpha.images[r]],))
            return _verdict(PropertyId.RIGID, ring, alpha, _EXH, w)
    return _verdict(PropertyId.RIGID, ring, alpha, _EXH)


def _require_over(ring: FiniteRing, alpha: Endomorphism) -> None:
    if alpha.ring.ring_id != ring.ring_id:
        raise RingError("endomorphism is not over the given ring")


# --------------------------------------------------------------------------
# enumeration helpers

def _iter_tuples(n: int, length: int, last_nonzero: bool, zero: int, allow=None):
    """Nonzero coefficient tuples of a given length in lexicographic order.

    ``zero`` is the ring's zero element index (not necessarily 0, e.g. after
    a relabelling).  Tuples are grouped by the position of their first
    nonzero coefficient, zero-prefixed groups first; when zero is index 0 —
    true for every standard constructor — this is exactly raw lexicographic
    order.  ``last_nonzero`` restricts to exact-degree tuples.
    ``allow(pos, value)`` is consulted once per (first-nonzero position,
    value) and may veto the whole subtree; it must only veto tuples that
    cannot satisfy the caller's hypothesis, so pruning never changes which
    witness is found first.
    """
    values = [v for v in range(n) if v != zero]
    for f in range(length - 1, -1, -1):
        prefix = (zero,) * f
        tail = length - 1 - f
        for v in values:
            if allow is not None and not allow(f, v):
                continue
            head = prefix + (v,)
            if tail == 0:
                yield head
            elif last_nonzero:
                if tail == 1:
                    for last in values:
                        yield head + (last,)
                else:
                    for mid in product(range(n), repeat=tail - 1):
                        for last in values:
                            yield head + mid + (last,)
            else:
                for rest in product(range(n), repeat=tail):
                    yield head + rest


def _strip(coeffs: tuple[int, ...], zero: int) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == zero:
        out.pop()
    return tuple(out)


class _Scanner:
    """Shared tables and caches for one decider invocation."""

    def __init__(self, ring: FiniteRing, endo: Endomorphism):
        self.ring = ring
        self.endo = endo
        self.n = ring.size
        self.add = ring.add_table
        self.mul = ring.mul_table
        self.zero = ring.zero
        self.bound = endo.preperiod + endo.period
        self.period = endo.period
        self.pow_maps = endo.pow_maps
        self.red = endo.reduce_exponent
        self.nonzero = [r for r in range(ring.size) if r != ring.zero]
        self._ann = None
        self._allow_cache: dict = {}

    def annihilates(self, a: int, b: int) -> bool:
        """Whether a·R·b = 0 (precomputed bitmap)."""
        if self._ann is None:
            n, mul, zero = self.n, self.mul, self.zero
            nz = self.nonzero
            ann = []
            for x in range(n):
                rowset = 0
                row = mul[x]
                for y in range(n):
                    if all(mul[row[r]][y] == zero for r in nz):
                        rowset |= 1 << y
                ann.append(rowset)
            self._ann = ann
        return bool(self._ann[a] >> b & 1)

    def power(self, e: int, x: int) -> int:
        return self.pow_maps[self.red(e)][x]


def _budget_guard(space: int, budget: int) -> None:
    if space > budget:
        raise BudgetExceededError(space, budget)


def _plain_product_zero(sc: _Scanner, ap, bq) -> bool:
    """Early-exit check that the skew product of two coefficient tuples is zero."""
    add, mul, zero = sc.add, sc.mul, sc.zero
    dp, dq = len(ap) - 1, len(bq) - 1
    pm = [sc.pow_maps[sc.red(i)] for i in range(dp + 1)]
    for e in range(dp + dq + 1):
        s = zero
        for i in range(max(0, e - dq), min(dp, e) + 1):
            a = ap[i]
            if a == zero:
                continue
            b = bq[e - i]
            if b == zero:
                continue
            s = add[s][mul[a][pm[i][b]]]
        if s != zero:
            return False
    return True


def _sandwich_all_zero(sc: _Scanner, ap, amin, bq, bmin, ks) -> bool:
    """Whether p (r x^k) q = 0 for all r != 0 and all k in ``ks``.

    Products are exact; ``amin``/``bmin`` are the exponents of the first
    coefficients (negative only for automorphisms).
    """
    add, mul, zero = sc.add, sc.mul, sc.zero
    nonzero_r = sc.nonzero
    lb = len(bq)
    red, pow_maps = sc.red, sc.pow_maps
    asupp = [(i, a) for i, a in enumerate(ap) if a != zero]
    width = len(ap) + lb - 1
    for k in ks:
        rows = []
        for i, a in asupp:
            pa = pow_maps[red(amin + i)]
            pb = pow_maps[red(amin + i + k)]
            rows.append((i, a, pa, [pb[b] for b in bq]))
        for r in nonzero_r:
            buckets = [zero] * width
            for i, a, pa, tw in rows:
                u = mul[a][pa[r]]
                if u == zero:
                    continue
                urow = mul[u]
                for j in range(lb):
                    tb = tw[j]
                    if tb != zero:
                        e = i + j
                        buckets[e] = add[buckets[e]][urow[tb]]
            for x in buckets:
                if x != zero:
                    return False
    return True


def _first_nonzero(t, zero: int) -> int:
    for i, v in enumerate(t):
        if v != zero:
            return i
    return -1


def _conclusion_violation(sc: _Scanner, variant, ap, amin, bq, bmin, tset):
    """First violated conclusion instance in (i, j, t, r) order, or None.

    Exponents are the actual ones (``amin``/``bmin`` shifted); the returned
    monomial records the conclusion's sandwich element and twist exponent.
    """
    mul, zero = sc.mul, sc.zero
    nonzero_r = sc.nonzero
    for i, a in enumerate(ap):
        if a == zero:
            continue
        ei = amin + i
        for j, b in enumerate(bq):
            if b == zero:
                continue
            ej = bmin + j
            if variant in (PropertyId.ARMENDARIZ, PropertyId.ALPHA_ARMENDARIZ):
                if mul[a][b] != zero:
                    return (ei, ej), None, mul[a][b]
            elif variant is PropertyId.ALPHA_SKEW_ARMENDARIZ:
                v = mul[a][sc.power(ei, b)]
                if v != zero:
                    return (ei, ej), None, v
            elif variant in (PropertyId.QUASI_ARMENDARIZ, PropertyId.Q_ALPHA_ARMENDARIZ):
                row = mul[a]
                for r in nonzero_r:
                    v = mul[row[r]][b]
                    if v != zero:
                        return (ei, ej), (r, 0), v
            elif variant is PropertyId.ALPHA_QUASI_ARMENDARIZ:
                row = mul[a]
                for t in tset:
                    tb = sc.power(t, b)
                    for r in nonzero_r:
                        v = mul[row[r]][tb]
                        if v != zero:
                            return (ei, ej), (r, t), v
            else:  # the q-alpha-skew family (plain, laurent, series)
                row = mul[a]
                tb = sc.power(ei, b)
                for r in nonzero_r:
                    v = mul[row[r]][tb]
                    if v != zero:
                        return (ei, ej), (r, ei), v
    return None


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
    if variant in _ALPHA_FREE:
        alpha = identity_endomorphism(ring)
    if alpha is None:
        raise RingError(f"{variant.value} needs an endomorphism")
    _require_over(ring, alpha)
    n = ring.size
    _budget_guard(n ** (2 * (degree + 1)), budget)

    sc = _Scanner(ring, alpha)
    envelope = Envelope(degree=degree)
    sandwich_hyp = variant in _SANDWICH_HYP
    ks = range(sc.bound)
    tset = range(sc.bound)
    zero = sc.zero
    mul = sc.mul
    surj = alpha.is_surjective

    def make_allow(a_head: int, imin: int):
        # necessary condition from the single-term lowest coefficient of
        # p (r x^k) q; sound to skip because a pruned pair fails the hypothesis
        cache = sc._allow_cache
        if sandwich_hyp:
            key = (a_head, imin if not surj else 0)

            def allow(_f, v):
                ck = (key, v)
                hit = cache.get(ck)
                if hit is None:
                    if surj:
                        hit = all(sc.annihilates(a_head, sc.power(k, v)) for k in ks)
                    else:
                        pm = sc.pow_maps[sc.red(imin)]
                        hit = all(
                            mul[mul[a_head][pm[r]]][sc.power(imin + k, v)] == zero
                            for k in ks
                            for r in sc.nonzero
                        )
                    cache[ck] = hit
                return hit

        else:
            pm = sc.pow_maps[sc.red(imin)]

            def allow(_f, v):
                return mul[a_head][pm[v]] == zero

        return allow

    for dp in range(degree + 1):
        for dq in range(degree + 1):
            for ap in _iter_tuples(n, dp + 1, last_nonzero=True, zero=zero):
                imin = _first_nonzero(ap, zero)
                allow = make_allow(ap[imin], imin)
                for bq in _iter_tuples(n, dq + 1, last_nonzero=True, zero=zero, allow=allow):
                    if sandwich_hyp:
                        if not _sandwich_all_zero(sc, ap, 0, bq, 0, ks):
                            continue
                    elif not _plain_product_zero(sc, ap, bq):
                        continue
                    hit = _conclusion_violation(sc, variant, ap, 0, bq, 0, tset)
                    if hit is not None:
                        pair, mono, off = hit
                        w = Witness(
                            kind="poly",
                            p_coeffs=_strip(ap, zero),
                            q_coeffs=_strip(bq, zero),
                            pair=pair,
                            monomial=mono,
                            offending=off,
                        )
                        return _verdict(variant, ring, alpha, envelope, w)
    return _verdict(variant, ring, alpha, envelope)


def check_laurent_q_alpha_skew(
    ring: FiniteRing,
    alpha: Endomorphism,
    window: tuple[int, int, int, int],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> Verdict:
    """Laurent variant: p has exponents in [-m, n], q in [-t, s]; the
    hypothesis sandwiches r x^k over a full twist period on both sides of 0
    and the conclusion is a_i R alpha^i(b_j) = 0 at the actual exponents."""
    _require_over(ring, alpha)
    if not alpha.is_automorphism:
        raise RingError("the Laurent decider needs an automorphism")
    m, nn, t, s = (int(x) for x in window)
    if min(m, nn, t, s) < 0:
        raise RingError("window entries must be nonnegative")
    n = ring.size
    lp, lq = m + nn + 1, t + s + 1
    _budget_guard(n**lp * n**lq, budget)

    sc = _Scanner(ring, alpha)
    envelope = Envelope(window=(m, nn, t, s))
    ks = range(-sc.period, sc.period)
    zero = sc.zero

    def make_allow(a_head: int):
        cache = sc._allow_cache

        def allow(_f, v):
            ck = (a_head, v)
            hit = cache.get(ck)
            if hit is None:
                hit = all(
                    sc.annihilates(a_head, sc.pow_maps[e][v]) for e in range(sc.period)
                )
                cache[ck] = hit
            return hit

        return allow

    for ap in _iter_tuples(n, lp, last_nonzero=False, zero=zero):
        imin = _first_nonzero(ap, zero)
        allow = make_allow(ap[imin])
        for bq in _iter_tuples(n, lq, last_nonzero=False, zero=zero, allow=allow):
            if not _sandwich_all_zero(sc, ap, -m, bq, -t, ks):
                continue
            hit = _conclusion_violation(
                sc, PropertyId.LAURENT_Q_ALPHA_SKEW, ap, -m, bq, -t, ()
            )
            if hit is not None:
                pair, mono, off = hit
                w = Witness(
                    kind="laurent",
                    p_coeffs=ap,
                    p_min=-m,
                    q_coeffs=bq,
                    q_min=-t,
                    pair=pair,
                    monomial=mono,
                    offending=off,
                )
                return _verdict(PropertyId.LAURENT_Q_ALPHA_SKEW, ring, alpha, envelope, w)
    return _verdict(PropertyId.LAURENT_Q_ALPHA_SKEW, ring, alpha, envelope)


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
    _require_over(ring, alpha)
    if truncation < 1:
        raise RingError("truncation order must be at least 1")
    if laurent:
        lo = -1 if min_exp is None else int(min_exp)
        if lo >= 0:
            raise RingError("the Laurent series variant needs a negative lower exponent")
        if not alpha.is_automorphism:
            raise RingError("negative exponents need an automorphism")
        prop = PropertyId.LAURENT_POWERSERIES_Q_ALPHA_SKEW
    else:
        lo = 0
        prop = PropertyId.POWERSERIES_Q_ALPHA_SKEW
    width = truncation - lo
    if width < 1:
        raise RingError("empty coefficient window")
    n = ring.size
    _budget_guard(n ** (2 * width), budget)

    sc = _Scanner(ring, alpha)
    envelope = Envelope(truncation=truncation, min_exp=lo if laurent else None)
    zero = sc.zero
    surj = alpha.is_surjective
    ks = range(-sc.period, sc.period) if laurent else range(sc.bound)

    def make_allow(a_head: int, e_head: int):
        cache = sc._allow_cache
        if surj:
            # one full twist period covers every reachable exponent residue
            def allow(_f, v):
                key = (a_head, v)
                hit = cache.get(key)
                if hit is None:
                    hit = all(
                        sc.annihilates(a_head, sc.pow_maps[e][v])
                        for e in range(sc.period)
                    )
                    cache[key] = hit
                return hit

        else:
            pm = sc.pow_maps[sc.red(e_head)]
            mul = sc.mul

            def allow(_f, v):
                key = (a_head, e_head, v)
                hit = cache.get(key)
                if hit is None:
                    hit = all(
                        mul[mul[a_head][pm[r]]][sc.power(e_head + k, v)] == zero
                        for k in ks
                        for r in sc.nonzero
                    )
                    cache[key] = hit
                return hit

        return allow

    for ap in _iter_tuples(n, width, last_nonzero=False, zero=zero):
        ia = _first_nonzero(ap, zero)
        allow = make_allow(ap[ia], lo + ia)
        for bq in _iter_tuples(n, width, last_nonzero=False, zero=zero, allow=allow):
            if not _sandwich_all_zero(sc, ap, lo, bq, lo, ks):
                continue
            hit = _conclusion_violation(sc, prop, ap, lo, bq, lo, ())
            if hit is not None:
                pair, mono, off = hit
                w = Witness(
                    kind="series",
                    p_coeffs=ap,
                    p_min=lo,
                    q_coeffs=bq,
                    q_min=lo,
                    order=truncation,
                    pair=pair,
                    monomial=mono,
                    offending=off,
                )
                return _verdict(prop, ring, alpha, envelope, w)
    return _verdict(prop, ring, alpha, envelope)


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
            if alpha is None:
                raise RingError("rigidity needs an endomorphism")
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
    if prop in FAMILY_PROPERTIES:
        if degree is None:
            raise RingError(f"{prop.value} needs a degree bound")
        return check_armendariz_family(ring, alpha, degree, prop, budget)
    if prop is PropertyId.LAURENT_Q_ALPHA_SKEW:
        if window is None:
            raise RingError("the Laurent property needs a window (m,n,t,s)")
        if alpha is None:
            raise RingError("the Laurent property needs an endomorphism")
        return check_laurent_q_alpha_skew(ring, alpha, window, budget)
    if prop in (
        PropertyId.POWERSERIES_Q_ALPHA_SKEW,
        PropertyId.LAURENT_POWERSERIES_Q_ALPHA_SKEW,
    ):
        if truncation is None:
            raise RingError("series properties need a truncation order")
        if alpha is None:
            raise RingError("series properties need an endomorphism")
        return check_powerseries_q_alpha_skew(
            ring,
            alpha,
            truncation,
            laurent=prop is PropertyId.LAURENT_POWERSERIES_Q_ALPHA_SKEW,
            min_exp=min_exp,
            budget=budget,
        )
    raise RingError(f"unknown property {prop}")  # pragma: no cover


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


def _witness_polys(ring, endo, witness: Witness):
    if witness.kind == "poly":
        if witness.p_min < 0 or witness.q_min < 0:
            raise RingError("plain witnesses cannot have negative exponents")
        zero = ring.zero
        p = SkewPoly(ring, endo, (zero,) * witness.p_min + tuple(witness.p_coeffs))
        q = SkewPoly(ring, endo, (zero,) * witness.q_min + tuple(witness.q_coeffs))
    elif witness.kind == "laurent":
        p = LaurentSkewPoly(ring, endo, witness.p_min, witness.p_coeffs)
        q = LaurentSkewPoly(ring, endo, witness.q_min, witness.q_coeffs)
    elif witness.kind == "series":
        p = TruncatedSkewSeries(ring, endo, witness.p_coeffs, witness.order, witness.p_min)
        q = TruncatedSkewSeries(ring, endo, witness.q_coeffs, witness.order, witness.q_min)
    else:
        raise RingError(f"witness kind {witness.kind!r} has no polynomials")
    return p, q


class ReplayMismatch(RingError):
    """Witness replay reproduced a different value than the recorded one."""


def replay_witness(
    ring: FiniteRing, alpha: Endomorphism | None, prop: PropertyId, witness: Witness
) -> None:
    """Re-derive a witness's hypothesis and violation through the public
    arithmetic; raises ReplayMismatch unless both reproduce exactly."""
    mul, zero = ring.mul_table, ring.zero

    if prop in ELEMENT_PROPERTIES:
        els = witness.elements or ()
        vals = witness.values or ()
        for e in els:
            if not 0 <= e < ring.size:
                raise RingError(f"witness element {e} out of range")
        if prop is PropertyId.REDUCED:
            (a,) = els
            if a == zero or mul[a][a] != zero or vals != (mul[a][a],):
                raise ReplayMismatch("a^2 = 0 with a != 0 did not reproduce")
        elif prop is PropertyId.DOMAIN:
            a, b = els
            if a == zero or b == zero or mul[a][b] != zero:
                raise ReplayMismatch("ab = 0 with a, b != 0 did not reproduce")
        elif prop is PropertyId.COMMUTATIVE:
            a, b = els
            if mul[a][b] == mul[b][a] or vals != (mul[a][b], mul[b][a]):
                raise ReplayMismatch("ab != ba did not reproduce")
        elif prop is PropertyId.SEMICOMMUTATIVE:
            a, b, r = els
            if mul[a][b] != zero or mul[mul[a][r]][b] == zero:
                raise ReplayMismatch("ab = 0 with arb != 0 did not reproduce")
            if vals != (mul[mul[a][r]][b],):
                raise ReplayMismatch("recorded product differs")
        elif prop is PropertyId.REVERSIBLE:
            a, b = els
            if mul[a][b] != zero or mul[b][a] == zero or vals != (mul[b][a],):
                raise ReplayMismatch("ab = 0 with ba != 0 did not reproduce")
        elif prop is PropertyId.SYMMETRIC:
            a, b, c = els
            if mul[mul[a][b]][c] != zero or mul[mul[b][a]][c] == zero:
                raise ReplayMismatch("abc = 0 with bac != 0 did not reproduce")
            if vals != (mul[mul[b][a]][c],):
                raise ReplayMismatch("recorded product differs")
        elif prop is PropertyId.RIGID:
            if alpha is None:
                raise RingError("rigidity replay needs the endomorphism")
            (r,) = els
            if r == zero or mul[r][alpha.images[r]] != zero:
                raise ReplayMismatch("r·alpha(r) = 0 with r != 0 did not reproduce")
        return

    if alpha is None or prop in _ALPHA_FREE:
        alpha = identity_endomorphism(ring)
    for c in (witness.p_coeffs or ()) + (witness.q_coeffs or ()):
        if not 0 <= c < ring.size:
            raise RingError(f"witness coefficient {c} out of range")
    p, q = _witness_polys(ring, alpha, witness)

    if prop in _PLAIN_HYP:
        if not skew_mul(p, q).is_zero:
            raise ReplayMismatch("hypothesis pq = 0 did not reproduce")
    elif prop in _SANDWICH_HYP:
        if not forall_sandwich_zero(p, q):
            raise ReplayMismatch("hypothesis p R[x;alpha] q = 0 did not reproduce")
    elif prop is PropertyId.LAURENT_Q_ALPHA_SKEW:
        if not forall_sandwich_zero_laurent(p, q):
            raise ReplayMismatch("Laurent hypothesis did not reproduce")
    else:
        if not forall_sandwich_zero_series(p, q):
            raise ReplayMismatch("series hypothesis did not reproduce")

    if witness.pair is None or witness.offending is None:
        raise ReplayMismatch("witness lacks a violated pair")
    i, j = witness.pair
    a = p.coefficient(i)
    b = q.coefficient(j)
    if prop in (PropertyId.ARMENDARIZ, PropertyId.ALPHA_ARMENDARIZ):
        v = mul[a][b]
    elif prop is PropertyId.ALPHA_SKEW_ARMENDARIZ:
        v = mul[a][alpha.power_apply(i, b)]
    else:
        if witness.monomial is None:
            raise ReplayMismatch("witness lacks the conclusion's sandwich element")
        r, e = witness.monomial
        if not 0 <= r < ring.size:
            raise RingError(f"witness sandwich element {r} out of range")
        if prop in (PropertyId.QUASI_ARMENDARIZ, PropertyId.Q_ALPHA_ARMENDARIZ):
            expected_e = 0
        elif prop is PropertyId.ALPHA_QUASI_ARMENDARIZ:
            expected_e = e  # the violated twist exponent is part of the claim
        else:
            expected_e = i
        if e != expected_e:
            raise ReplayMismatch(
                f"twist exponent {e} does not match the property (expected {expected_e})"
            )
        v = mul[mul[a][r]][alpha.power_apply(e, b)]
    if v == zero:
        raise ReplayMismatch("recorded violation evaluates to zero")
    if v != witness.offending:
        raise ReplayMismatch(
            f"offending value mismatch: recorded {ring.element_labels[witness.offending]}, "
            f"recomputed {ring.element_labels[v]}"
        )
