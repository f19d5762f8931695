"""Skew polynomial, skew Laurent and truncated skew power-series arithmetic.

All values are immutable coefficient sequences over a validated
(ring, endomorphism) pair, multiplied by the twisted monomial law

    (a x^i) (b x^j) = a alpha^i(b) x^(i+j)

with exponents reduced through the endomorphism's orbit data.  Negative
exponents require an automorphism.  Constructors normalize on exit, so
equality is structural.
"""

from __future__ import annotations

import re

from .rings import (
    CarrierMismatchError,
    Endomorphism,
    FiniteRing,
    RingElement,
    RingError,
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


def _mul_coeffs(
    ring: FiniteRing,
    endo: Endomorphism,
    acoeffs: tuple[int, ...],
    amin: int,
    bcoeffs: tuple[int, ...],
) -> list[int]:
    """Convolution with the twist alpha^(exponent of the left term)."""
    if not acoeffs or not bcoeffs:
        return []
    add = ring.add_table
    mul = ring.mul_table
    zero = ring.zero
    out = [zero] * (len(acoeffs) + len(bcoeffs) - 1)
    for i, a in enumerate(acoeffs):
        if a == zero:
            continue
        pm = endo.power_map(amin + i)
        row = mul[a]
        for j, b in enumerate(bcoeffs):
            if b == zero:
                continue
            out[i + j] = add[out[i + j]][row[pm[b]]]
    return out


def _add_coeffs(
    ring: FiniteRing,
    acoeffs: tuple[int, ...],
    amin: int,
    bcoeffs: tuple[int, ...],
    bmin: int,
) -> tuple[list[int], int]:
    if not acoeffs:
        return list(bcoeffs), bmin
    if not bcoeffs:
        return list(acoeffs), amin
    lo = min(amin, bmin)
    hi = max(amin + len(acoeffs), bmin + len(bcoeffs))
    out = [ring.zero] * (hi - lo)
    for i, a in enumerate(acoeffs):
        out[amin + i - lo] = a
    add = ring.add_table
    for j, b in enumerate(bcoeffs):
        k = bmin + j - lo
        out[k] = add[out[k]][b]
    return out, lo


class SkewPoly:
    """A polynomial in R[x;alpha]; the zero polynomial is the empty sequence."""

    __slots__ = ("ring", "endo", "coeffs")

    def __init__(self, ring: FiniteRing, endo: Endomorphism, coeffs=()):
        if endo.ring.ring_id != ring.ring_id:
            raise CarrierMismatchError("endomorphism is not over the coefficient ring")
        cs = [_coeff_index(ring, c) for c in coeffs]
        while cs and cs[-1] == ring.zero:
            cs.pop()
        self.ring = ring
        self.endo = endo
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """len - 1; -1 stands in for the zero polynomial's undefined degree."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        _same_carrier(self, other)
        out, _ = _add_coeffs(self.ring, self.coeffs, 0, other.coeffs, 0)
        return SkewPoly(self.ring, self.endo, out)

    def __neg__(self) -> "SkewPoly":
        neg = self.ring.neg_table
        return SkewPoly(self.ring, self.endo, [neg[c] for c in self.coeffs])

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        _same_carrier(self, other)
        return SkewPoly(
            self.ring,
            self.endo,
            _mul_coeffs(self.ring, self.endo, self.coeffs, 0, other.coeffs),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return (
            self.ring.ring_id == other.ring.ring_id
            and self.endo.images == other.endo.images
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring.ring_id, self.endo.images, self.coeffs))

    def render(self) -> str:
        return _render_terms(self.ring, self.coeffs, 0)

    def __repr__(self) -> str:
        return self.render()


class LaurentSkewPoly:
    """A polynomial in R[x, x^-1; alpha]; requires an automorphism."""

    __slots__ = ("ring", "endo", "min_exp", "coeffs")

    def __init__(self, ring: FiniteRing, endo: Endomorphism, min_exp: int, coeffs=()):
        if endo.ring.ring_id != ring.ring_id:
            raise CarrierMismatchError("endomorphism is not over the coefficient ring")
        if not endo.is_automorphism:
            raise RingError(
                f"Laurent coefficients need an automorphism, {endo.label!r} is not invertible"
            )
        cs = [_coeff_index(ring, c) for c in coeffs]
        min_exp = int(min_exp)
        while cs and cs[-1] == ring.zero:
            cs.pop()
        while cs and cs[0] == ring.zero:
            cs.pop(0)
            min_exp += 1
        if not cs:
            min_exp = 0
        self.ring = ring
        self.endo = endo
        self.min_exp = min_exp
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def coefficient(self, e: int) -> int:
        k = e - self.min_exp
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def __add__(self, other: "LaurentSkewPoly") -> "LaurentSkewPoly":
        _same_carrier(self, other)
        out, lo = _add_coeffs(
            self.ring, self.coeffs, self.min_exp, other.coeffs, other.min_exp
        )
        return LaurentSkewPoly(self.ring, self.endo, lo, out)

    def __neg__(self) -> "LaurentSkewPoly":
        neg = self.ring.neg_table
        return LaurentSkewPoly(
            self.ring, self.endo, self.min_exp, [neg[c] for c in self.coeffs]
        )

    def __sub__(self, other: "LaurentSkewPoly") -> "LaurentSkewPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentSkewPoly") -> "LaurentSkewPoly":
        _same_carrier(self, other)
        out = _mul_coeffs(self.ring, self.endo, self.coeffs, self.min_exp, other.coeffs)
        return LaurentSkewPoly(
            self.ring, self.endo, self.min_exp + other.min_exp, out
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSkewPoly):
            return NotImplemented
        return (
            self.ring.ring_id == other.ring.ring_id
            and self.endo.images == other.endo.images
            and self.min_exp == other.min_exp
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring.ring_id, self.endo.images, self.min_exp, self.coeffs))

    def render(self) -> str:
        return _render_terms(self.ring, self.coeffs, self.min_exp)

    def __repr__(self) -> str:
        return self.render()


class TruncatedSkewSeries:
    """A skew (Laurent) power series known exactly below x^order.

    Coefficients at exponents >= order are silently dropped; mixing two
    different orders keeps the window on which the result is still exact.
    A negative ``min_exp`` requires an automorphism.
    """

    __slots__ = ("ring", "endo", "min_exp", "order", "coeffs")

    def __init__(
        self,
        ring: FiniteRing,
        endo: Endomorphism,
        coeffs=(),
        order: int = 1,
        min_exp: int = 0,
    ):
        if endo.ring.ring_id != ring.ring_id:
            raise CarrierMismatchError("endomorphism is not over the coefficient ring")
        min_exp = int(min_exp)
        order = int(order)
        if min_exp < 0 and not endo.is_automorphism:
            raise RingError("negative exponents need an automorphism")
        cs = [_coeff_index(ring, c) for c in coeffs]
        cs = cs[: max(order - min_exp, 0)]
        while cs and cs[-1] == ring.zero:
            cs.pop()
        while cs and cs[0] == ring.zero:
            cs.pop(0)
            min_exp += 1
        if not cs:
            min_exp = 0
        self.ring = ring
        self.endo = endo
        self.min_exp = min_exp
        self.order = order
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def coefficient(self, e: int) -> int:
        if e >= self.order:
            raise RingError(f"coefficient of x^{e} is beyond the truncation order {self.order}")
        k = e - self.min_exp
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def __add__(self, other: "TruncatedSkewSeries") -> "TruncatedSkewSeries":
        _same_carrier(self, other)
        out, lo = _add_coeffs(
            self.ring, self.coeffs, self.min_exp, other.coeffs, other.min_exp
        )
        return TruncatedSkewSeries(
            self.ring, self.endo, out, min(self.order, other.order), lo
        )

    def __neg__(self) -> "TruncatedSkewSeries":
        neg = self.ring.neg_table
        return TruncatedSkewSeries(
            self.ring,
            self.endo,
            [neg[c] for c in self.coeffs],
            self.order,
            self.min_exp,
        )

    def __mul__(self, other: "TruncatedSkewSeries") -> "TruncatedSkewSeries":
        _same_carrier(self, other)
        if self.is_zero or other.is_zero:
            # the exactness window still shrinks like a real product
            order = min(self.order + other.min_exp, other.order + self.min_exp)
            return TruncatedSkewSeries(self.ring, self.endo, (), order, 0)
        out = _mul_coeffs(self.ring, self.endo, self.coeffs, self.min_exp, other.coeffs)
        order = min(self.order + other.min_exp, other.order + self.min_exp)
        return TruncatedSkewSeries(
            self.ring, self.endo, out, order, self.min_exp + other.min_exp
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSkewSeries):
            return NotImplemented
        return (
            self.ring.ring_id == other.ring.ring_id
            and self.endo.images == other.endo.images
            and self.order == other.order
            and self.min_exp == other.min_exp
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(
            (self.ring.ring_id, self.endo.images, self.order, self.min_exp, self.coeffs)
        )

    def render(self) -> str:
        body = _render_terms(self.ring, self.coeffs, self.min_exp)
        return f"{body} (mod x^{self.order})"

    def __repr__(self) -> str:
        return self.render()


def skew_poly(ring: FiniteRing, endo: Endomorphism, coeffs) -> SkewPoly:
    return SkewPoly(ring, endo, coeffs)


def monomial(ring: FiniteRing, endo: Endomorphism, c, k: int) -> SkewPoly:
    if k < 0:
        raise RingError("plain skew polynomials have nonnegative exponents")
    return SkewPoly(ring, endo, [ring.zero] * k + [_coeff_index(ring, c)])


def laurent_poly(
    ring: FiniteRing, endo: Endomorphism, min_exp: int, coeffs
) -> LaurentSkewPoly:
    return LaurentSkewPoly(ring, endo, min_exp, coeffs)


def laurent_monomial(
    ring: FiniteRing, endo: Endomorphism, c, k: int
) -> LaurentSkewPoly:
    return LaurentSkewPoly(ring, endo, k, [_coeff_index(ring, c)])


def truncated_series(
    ring: FiniteRing, endo: Endomorphism, coeffs, order: int, min_exp: int = 0
) -> TruncatedSkewSeries:
    return TruncatedSkewSeries(ring, endo, coeffs, order, min_exp)


def skew_add(p: SkewPoly, q: SkewPoly) -> SkewPoly:
    return p + q


def skew_mul(p: SkewPoly, q: SkewPoly) -> SkewPoly:
    return p * q


def laurent_add(p: LaurentSkewPoly, q: LaurentSkewPoly) -> LaurentSkewPoly:
    return p + q


def laurent_skew_mul(p: LaurentSkewPoly, q: LaurentSkewPoly) -> LaurentSkewPoly:
    return p * q


def truncated_add(p: TruncatedSkewSeries, q: TruncatedSkewSeries) -> TruncatedSkewSeries:
    return p + q


def truncated_mul(p: TruncatedSkewSeries, q: TruncatedSkewSeries) -> TruncatedSkewSeries:
    return p * q


def truncate_poly(p: SkewPoly, order: int) -> TruncatedSkewSeries:
    return TruncatedSkewSeries(p.ring, p.endo, p.coeffs, order, 0)


def laurent_from_poly(p: SkewPoly) -> LaurentSkewPoly:
    return LaurentSkewPoly(p.ring, p.endo, 0, p.coeffs)


def sandwich(p: SkewPoly, r, k: int, q: SkewPoly) -> SkewPoly:
    """p · (r x^k) · q, computed through the public multiplication."""
    _same_carrier(p, q)
    return (p * monomial(p.ring, p.endo, r, k)) * q


def laurent_sandwich(
    p: LaurentSkewPoly, r, k: int, q: LaurentSkewPoly
) -> LaurentSkewPoly:
    _same_carrier(p, q)
    return (p * laurent_monomial(p.ring, p.endo, r, k)) * q


def _forall_sandwich_zero(p, q, sandwich_fn) -> bool:
    """Whether p · h · q = 0 for every h, given ``sandwich_fn`` computing
    p · (r x^k) · q.  By bilinearity of h -> p·h·q the monomials r x^k
    suffice.  The coefficients of p (r x^k) q are sums of
    a_i α^i(r) α^(i+k)(b_j), and α^(i+k+period) = α^(i+k) for k >= preperiod,
    so k + period repeats the products of k, shifted: k < preperiod + period
    decide exactly.  An automorphism has preperiod 0, so a negative k adds
    nothing."""
    _same_carrier(p, q)
    if p.is_zero or q.is_zero:
        return True
    ring, endo = p.ring, p.endo
    for k in range(endo.preperiod + endo.period):
        for r in range(ring.size):
            if r != ring.zero and not sandwich_fn(p, r, k, q).is_zero:
                return False
    return True


def forall_sandwich_zero(p: SkewPoly, q: SkewPoly) -> bool:
    """Whether p · h · q = 0 for every h in R[x;alpha]; exact, not an
    approximation (see ``_forall_sandwich_zero``)."""
    return _forall_sandwich_zero(p, q, sandwich)


def forall_sandwich_zero_laurent(p: LaurentSkewPoly, q: LaurentSkewPoly) -> bool:
    """Laurent analogue, for h in R[x, x^-1; alpha].  One period of k is
    enough: the twist is an automorphism, so k and k - period give the same
    products shifted by ``period``, and every negative k repeats some k in
    [0, period)."""
    return _forall_sandwich_zero(p, q, laurent_sandwich)


def forall_sandwich_zero_series(
    p: TruncatedSkewSeries, q: TruncatedSkewSeries
) -> bool:
    """Whether p · h · q = 0 for every series h, for finite-support p and q.

    A truncated series stores a finite support, and for finite supports the
    product against any series has finitely many contributions per
    coefficient, so the quantifier reduces exactly to monomial sandwiches
    over one orbit window of twist exponents; products are compared to zero
    exactly, not modulo the truncation order.
    """
    _same_carrier(p, q)
    ring, endo = p.ring, p.endo
    zero = ring.zero
    if p.min_exp >= 0 and q.min_exp >= 0:
        pp = SkewPoly(ring, endo, (zero,) * p.min_exp + p.coeffs)
        qq = SkewPoly(ring, endo, (zero,) * q.min_exp + q.coeffs)
        return _forall_sandwich_zero(pp, qq, sandwich)
    pp = LaurentSkewPoly(ring, endo, p.min_exp, p.coeffs)
    qq = LaurentSkewPoly(ring, endo, q.min_exp, q.coeffs)
    return _forall_sandwich_zero(pp, qq, laurent_sandwich)


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


def parse_poly(ring: FiniteRing, endo: Endomorphism, text: str) -> SkewPoly:
    terms = _parse_terms(ring, text)
    if not terms:
        return SkewPoly(ring, endo, ())
    if min(terms) < 0:
        raise RingError("negative exponents in a plain polynomial")
    deg = max(terms)
    return SkewPoly(
        ring, endo, [terms.get(i, ring.zero) for i in range(deg + 1)]
    )


def parse_laurent(ring: FiniteRing, endo: Endomorphism, text: str) -> LaurentSkewPoly:
    terms = _parse_terms(ring, text)
    if not terms:
        return LaurentSkewPoly(ring, endo, 0, ())
    lo, hi = min(terms), max(terms)
    return LaurentSkewPoly(
        ring, endo, lo, [terms.get(e, ring.zero) for e in range(lo, hi + 1)]
    )
