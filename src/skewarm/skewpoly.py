"""Skew polynomial, skew Laurent and truncated skew power-series arithmetic.

All values are immutable coefficient sequences over a validated
(ring, endomorphism) pair, multiplied by the twisted monomial law

    (a x^i) (b x^j) = a alpha^i(b) x^(i+j)

with exponents reduced through the endomorphism's orbit data.  Negative
exponents require an automorphism.

The three public classes share one core, ``_Seq``: the sequence
``coeffs`` of the coefficients of x^min_exp, x^(min_exp+1), ... and a
truncation ``order`` (``None`` for an exact value).  The core holds the one
normaliser, ``coefficient``, sum, negation, difference and product (with
the series window rule), equality and ``render``.  Each class adds only
its constructor signature, its own checks (``_admit``) and a ``__mul__``
that calls the one product.  ``SkewPoly`` pins its sequence at x^0 and
keeps the zero coefficients below its lowest term; the Laurent and series
classes strip them into ``min_exp``.  Values are normalised on
construction, so equality is structural.
"""

from __future__ import annotations

import re

from .rings import (
    CarrierMismatchError,
    Endomorphism,
    FiniteRing,
    RingElement,
    RingError,
    _nonzero_generators,
)


def _same_carrier(a, b) -> None:
    if type(a) is not type(b):
        raise CarrierMismatchError(
            f"operands are of different classes ({type(a).__name__} vs {type(b).__name__})"
        )
    if a.ring.ring_id != b.ring.ring_id:
        raise CarrierMismatchError(
            f"operands live over different rings ({a.ring.label!r} vs {b.ring.label!r})"
        )
    if a.endo.images != b.endo.images:
        raise CarrierMismatchError(
            f"operands twist by different endomorphisms ({a.endo.label!r} vs {b.endo.label!r})"
        )


def _coeff_index(ring: FiniteRing, c) -> int:
    if isinstance(c, RingElement):
        if c.ring.ring_id != ring.ring_id:
            raise CarrierMismatchError("coefficient from a different ring")
        return c.index
    c = int(c)
    if not 0 <= c < ring.size:
        raise RingError(f"coefficient index {c} out of range for {ring.label!r}")
    return c


class _Seq:
    """The coefficient sequence behind every public class.

    ``coeffs[k]`` is the coefficient of x^(min_exp + k).  With an ``order``
    the value is a series known exactly below x^order, and coefficients at
    exponents >= order are dropped; ``None`` means exact.  Internally the
    sandwich quantifier also lifts a series to ``order`` None, so that its
    products are exact on the finite support.
    """

    __slots__ = ("ring", "endo", "min_exp", "coeffs", "order")
    # whether the sequence starts at x^0 whatever its lowest term
    _pinned = False

    @classmethod
    def _of(cls, ring, endo, min_exp: int, coeffs, order: int | None = None):
        """A checked value of this class from the coefficients of
        x^min_exp, x^(min_exp+1), ...; one signature for every class."""
        out = object.__new__(cls)
        out._init(ring, endo, min_exp, coeffs, order)
        return out

    def _init(self, ring, endo, min_exp, coeffs, order) -> None:
        """Check the carrier, then the class's own rule on its twist, lowest
        exponent and order (``_admit``), then each coefficient; normalise."""
        if endo.ring.ring_id != ring.ring_id:
            raise CarrierMismatchError("endomorphism is not over the coefficient ring")
        min_exp = int(min_exp)
        order = None if order is None else int(order)
        self._admit(endo, min_exp, order)
        self._set(ring, endo, min_exp, [_coeff_index(ring, c) for c in coeffs], order)

    def _like(self, min_exp: int, cs: list[int], order: int | None) -> "_Seq":
        """A value of this class and carrier from checked indices ``cs``."""
        out = object.__new__(type(self))
        out._set(self.ring, self.endo, min_exp, cs, order)
        return out

    def _set(self, ring, endo, min_exp: int, cs: list[int], order: int | None) -> None:
        """The normaliser: truncate at the order, drop zeros above the top
        term and, unless pinned, below the lowest one."""
        zero = ring.zero
        if order is not None:
            del cs[max(order - min_exp, 0) :]
        while cs and cs[-1] == zero:
            cs.pop()
        if not cs:
            min_exp = 0
        elif self._pinned:
            cs[:0] = [zero] * min_exp
            min_exp = 0
        elif cs[0] == zero:
            lead = next(k for k, c in enumerate(cs) if c != zero)
            del cs[:lead]
            min_exp += lead
        self.ring = ring
        self.endo = endo
        self.min_exp = min_exp
        self.coeffs = tuple(cs)
        self.order = order

    def _term(self, c, k: int) -> "_Seq":
        """c x^k over this value's carrier, in its class and at its order."""
        if k < 0 and self._pinned:
            raise RingError("plain skew polynomials have nonnegative exponents")
        return self._like(k, [_coeff_index(self.ring, c)], self.order)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def coefficient(self, e: int) -> int:
        if self.order is not None and e >= self.order:
            raise RingError(f"coefficient of x^{e} is beyond the truncation order {self.order}")
        k = e - self.min_exp
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def __add__(self, other):
        _same_carrier(self, other)
        lo = min(self.min_exp, other.min_exp)
        out = [self.ring.zero] * (max(self.max_exp, other.max_exp) + 1 - lo)
        add = self.ring.add_table
        for s in (self, other):
            for k, c in enumerate(s.coeffs, s.min_exp - lo):
                out[k] = add[out[k]][c]
        order = None if self.order is None else min(self.order, other.order)
        return self._like(lo, out, order)

    def __neg__(self):
        neg = self.ring.neg_table
        return self._like(self.min_exp, [neg[c] for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def _mul(self, other):
        """The one product: the convolution with the twist alpha^(exponent
        of the left term).  A series is exact on the window both factors
        still determine."""
        _same_carrier(self, other)
        zero, add, mul = self.ring.zero, self.ring.add_table, self.ring.mul_table
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            pm = self.endo.power_map(self.min_exp + i)
            row = mul[a]
            for j, b in enumerate(other.coeffs):
                if b != zero:
                    out[i + j] = add[out[i + j]][row[pm[b]]]
        order = None
        if self.order is not None:
            order = min(self.order + other.min_exp, other.order + self.min_exp)
        return self._like(self.min_exp + other.min_exp, out, order)

    def _key(self) -> tuple:
        return (self.ring.ring_id, self.endo.images, self.min_exp, self.coeffs, self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Seq):
            return NotImplemented
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def render(self) -> str:
        body = _render_terms(self.ring, self.coeffs, self.min_exp)
        return body if self.order is None else f"{body} (mod x^{self.order})"

    def __repr__(self) -> str:
        return self.render()


class SkewPoly(_Seq):
    """A polynomial in R[x;alpha]; the zero polynomial is the empty sequence."""

    __slots__ = ()
    _pinned = True

    def __init__(self, ring: FiniteRing, endo: Endomorphism, coeffs=()):
        self._init(ring, endo, 0, coeffs, None)

    def _admit(self, endo, min_exp, order) -> None:
        if min_exp < 0:
            raise RingError("plain skew polynomials have nonnegative exponents")

    @property
    def degree(self) -> int:
        """len - 1; -1 stands in for the zero polynomial's undefined degree."""
        return len(self.coeffs) - 1

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        return self._mul(other)


class LaurentSkewPoly(_Seq):
    """A polynomial in R[x, x^-1; alpha]; requires an automorphism."""

    __slots__ = ()

    def __init__(self, ring: FiniteRing, endo: Endomorphism, min_exp: int, coeffs=()):
        self._init(ring, endo, min_exp, coeffs, None)

    def _admit(self, endo, min_exp, order) -> None:
        if not endo.is_automorphism:
            raise RingError(
                f"Laurent coefficients need an automorphism, {endo.label!r} is not invertible"
            )

    def __mul__(self, other: "LaurentSkewPoly") -> "LaurentSkewPoly":
        return self._mul(other)


class TruncatedSkewSeries(_Seq):
    """A skew (Laurent) power series known exactly below x^order.

    Coefficients at exponents >= order are silently dropped; mixing two
    different orders keeps the window on which the result is still exact.
    A negative ``min_exp`` requires an automorphism.
    """

    __slots__ = ()

    def __init__(
        self,
        ring: FiniteRing,
        endo: Endomorphism,
        coeffs=(),
        order: int = 1,
        min_exp: int = 0,
    ):
        self._init(ring, endo, min_exp, coeffs, order)

    def _admit(self, endo, min_exp, order) -> None:
        if order is None:
            raise RingError("a truncated series needs an order")
        if min_exp < 0 and not endo.is_automorphism:
            raise RingError("negative exponents need an automorphism")

    def __mul__(self, other: "TruncatedSkewSeries") -> "TruncatedSkewSeries":
        return self._mul(other)


def skew_poly(ring: FiniteRing, endo: Endomorphism, coeffs) -> SkewPoly:
    return SkewPoly(ring, endo, coeffs)


def monomial(ring: FiniteRing, endo: Endomorphism, c, k: int) -> SkewPoly:
    return SkewPoly(ring, endo)._term(c, k)


def laurent_poly(
    ring: FiniteRing, endo: Endomorphism, min_exp: int, coeffs
) -> LaurentSkewPoly:
    return LaurentSkewPoly(ring, endo, min_exp, coeffs)


def laurent_monomial(
    ring: FiniteRing, endo: Endomorphism, c, k: int
) -> LaurentSkewPoly:
    return LaurentSkewPoly(ring, endo, 0)._term(c, k)


def truncated_series(
    ring: FiniteRing, endo: Endomorphism, coeffs, order: int, min_exp: int = 0
) -> TruncatedSkewSeries:
    return TruncatedSkewSeries(ring, endo, coeffs, order, min_exp)


def skew_add(p: SkewPoly, q: SkewPoly) -> SkewPoly:
    """p + q; the one sum of every class."""
    return p + q


def skew_mul(p: SkewPoly, q: SkewPoly) -> SkewPoly:
    """p · q through the class's own ``__mul__``; the one product of every
    class."""
    return p * q


laurent_add = truncated_add = skew_add
laurent_skew_mul = truncated_mul = skew_mul


def truncate_poly(p: SkewPoly, order: int) -> TruncatedSkewSeries:
    return TruncatedSkewSeries(p.ring, p.endo, p.coeffs, order, 0)


def laurent_from_poly(p: SkewPoly) -> LaurentSkewPoly:
    return LaurentSkewPoly(p.ring, p.endo, 0, p.coeffs)


def sandwich(p: SkewPoly, r, k: int, q: SkewPoly) -> SkewPoly:
    """p · (r x^k) · q, computed through the public multiplication; the
    monomial is taken in p's class (and at a series' order)."""
    _same_carrier(p, q)
    return (p * p._term(r, k)) * q


laurent_sandwich = sandwich


def _forall_sandwich_zero(p, q) -> bool:
    """Whether p · h · q = 0 for every h.  By bilinearity of h -> p·h·q the
    monomials r x^k suffice, and since r -> p (r x^k) q is additive, r may
    run over the nonzero additive generators of R only
    (``_nonzero_generators``, at most log2 |R| of them).  The coefficients
    of p (r x^k) q are sums of a_i α^i(r) α^(i+k)(b_j), and
    α^(i+k+period) = α^(i+k) for k >= preperiod, so k + period repeats the
    products of k, shifted: k < preperiod + period decide exactly.  An
    automorphism has preperiod 0, so a negative k adds nothing."""
    _same_carrier(p, q)
    if p.is_zero or q.is_zero:
        return True
    ring, endo = p.ring, p.endo
    gens = _nonzero_generators(ring.generators, ring.zero).tolist()
    for k in range(endo.preperiod + endo.period):
        for r in gens:
            if not sandwich(p, r, k, q).is_zero:
                return False
    return True


def forall_sandwich_zero(p: SkewPoly, q: SkewPoly) -> bool:
    """Whether p · h · q = 0 for every h in R[x;alpha]; exact, not an
    approximation (see ``_forall_sandwich_zero``)."""
    return _forall_sandwich_zero(p, q)


def forall_sandwich_zero_laurent(p: LaurentSkewPoly, q: LaurentSkewPoly) -> bool:
    """Laurent analogue, for h in R[x, x^-1; alpha].  One period of k is
    enough: the twist is an automorphism, so k and k - period give the same
    products shifted by ``period``, and every negative k repeats some k in
    [0, period)."""
    return _forall_sandwich_zero(p, q)


def forall_sandwich_zero_series(
    p: TruncatedSkewSeries, q: TruncatedSkewSeries
) -> bool:
    """Whether p · h · q = 0 for every series h, for finite-support p and q.

    A truncated series stores a finite support, and for finite supports the
    product against any series has finitely many contributions per
    coefficient, so the quantifier reduces exactly to monomial sandwiches
    over one orbit window of twist exponents.  Both series are lifted to
    exact values (``order`` None) first, so products are compared to zero
    exactly, not modulo the truncation order.
    """
    exact = [s._like(s.min_exp, list(s.coeffs), None) for s in (p, q)]
    return _forall_sandwich_zero(*exact)


_TERM_POW_RE = re.compile(r"^(?P<label>.+)\*x\^(?P<exp>-?\d+)$")
_TERM_X_RE = re.compile(r"^(?P<label>.+)\*x$")


def _render_terms(ring: FiniteRing, coeffs: tuple[int, ...], min_exp: int) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == ring.zero:
            continue
        e = min_exp + i
        lab = ring.element_labels[c]
        if e == 0:
            terms.append(lab)
        elif e == 1:
            terms.append(f"{lab}*x")
        else:
            terms.append(f"{lab}*x^{e}")
    if not terms:
        return "0"
    return " + ".join(terms)


def _parse_terms(ring: FiniteRing, text: str) -> dict[int, int]:
    text = text.strip()
    if text.endswith(")") and "(mod x^" in text:
        text = text[: text.rindex("(mod x^")].strip()
    out: dict[int, int] = {}
    if text == "0":
        return out
    seen: set[int] = set()
    for term in text.split(" + "):
        term = term.strip()
        if m := _TERM_POW_RE.match(term):
            lab, e = m.group("label"), int(m.group("exp"))
        elif m := _TERM_X_RE.match(term):
            lab, e = m.group("label"), 1
        else:
            lab, e = term, 0
        idx = ring.element_index(lab)
        if e in seen:
            raise RingError(f"duplicate exponent {e} in {text!r}")
        seen.add(e)
        if idx != ring.zero:
            out[e] = idx
    return out


def _parse(cls, ring: FiniteRing, endo: Endomorphism, text: str):
    terms = _parse_terms(ring, text)
    lo = min(terms, default=0)
    cs = [terms.get(e, ring.zero) for e in range(lo, max(terms, default=-1) + 1)]
    return cls._of(ring, endo, lo, cs)


def parse_poly(ring: FiniteRing, endo: Endomorphism, text: str) -> SkewPoly:
    return _parse(SkewPoly, ring, endo, text)


def parse_laurent(ring: FiniteRing, endo: Endomorphism, text: str) -> LaurentSkewPoly:
    return _parse(LaurentSkewPoly, ring, endo, text)
