"""Named (ring, endomorphism) pairs with frozen expected verdicts, plus the
consistency harness that cross-checks decider outputs against the implication
lattice, isomorphism transport, product closure, and the Laurent/series
correspondences.

Expected outcomes are data: the same entries ship as ``data/corpus.json`` and
double as the regression fixture consumed by the command line ``corpus`` run.
Every expectation carries a provenance tag; ``confirm_witness`` data is
validated by replay as *a* witness, never by equality with the decider's
least witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import deciders as dec
from .deciders import Envelope, PropertyId, Verdict, Witness
from .rings import (
    Endomorphism,
    FiniteRing,
    make_direct_product,
    make_galois_field,
    make_table_ring,
    make_trivial_extension,
    make_zmod,
    frobenius,
    product_endomorphism,
    random_relabeling,
    regular_bimodule,
    table_endomorphism,
    transport,
)
LITERATURE = "literature"
TRIVIAL = "trivial"
COMPUTED = "computed"


@dataclass(frozen=True)
class Expectation:
    prop: PropertyId
    envelope: Envelope
    holds: bool
    provenance: str
    confirm_witness: Witness | None = None


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    ring: FiniteRing
    endo: Endomorphism
    definition: dict
    expected: tuple[Expectation, ...]
    exploratory: bool = False


def _pair_index(n2: int, i: int, j: int) -> int:
    return i * n2 + j


def build_example1() -> CorpusEntry:
    """Z2 (+) Z2 with the coordinate swap: reduced, hence quasi-skew
    Armendariz at every tested bound, yet not skew Armendariz."""
    z2 = make_zmod(2)
    ring = make_direct_product(z2, z2)
    swap = table_endomorphism(
        ring, [_pair_index(2, i % 2, i // 2) for i in range(4)], "swap"
    )
    # (1,0)=2, (0,1)=1; p = (1,0)+(1,0)x, q = (0,1)+(1,0)x violates the skew
    # conclusion at (i,j)=(1,0) with value (1,0)
    skew_wit = Witness(
        kind="poly", p_coeffs=(2, 2), q_coeffs=(1, 2), pair=(1, 0), offending=2
    )
    expected = (
        Expectation(PropertyId.REDUCED, Envelope(exhaustive=True), True, LITERATURE),
        Expectation(
            PropertyId.ALPHA_SKEW_ARMENDARIZ, Envelope(degree=2), False, LITERATURE, skew_wit
        ),
        Expectation(
            PropertyId.ALPHA_SKEW_ARMENDARIZ, Envelope(degree=1), False, COMPUTED
        ),
        Expectation(
            PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, Envelope(degree=2), True, LITERATURE
        ),
        Expectation(PropertyId.RIGID, Envelope(exhaustive=True), False, COMPUTED),
    )
    definition = {
        "kind": "product",
        "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 2}],
        "endomorphism": {"builtin": "swap"},
        "label": "example1",
    }
    return CorpusEntry(
        name="example1",
        description="Z2(+)Z2 with the coordinate swap",
        ring=ring,
        endo=swap,
        definition=definition,
        expected=expected,
    )


def build_example2_quotient() -> CorpusEntry:
    """The 16-element trivial extension T(Z4, Z4) with (a,b) -> (a,-b).

    This is the matrix ring {(a,0;b,a) : a,b in Z4} in pair form; it is not
    quasi-skew Armendariz already at degree 1, with the classical witness
    p = q = (2,0)+(2,1)x.
    """
    z4 = make_zmod(4)
    ring = make_trivial_extension(z4, regular_bimodule(z4))
    neg2 = table_endomorphism(
        ring,
        [_pair_index(4, i // 4, (-(i % 4)) % 4) for i in range(16)],
        "negate-second",
    )
    # indices: (2,0)=8, (2,1)=9, (1,0)=4, (0,2)=2
    qskew_wit = Witness(
        kind="poly",
        p_coeffs=(8, 9),
        q_coeffs=(8, 9),
        pair=(1, 0),
        monomial=(4, 1),
        offending=2,
    )
    reduced_wit = Witness(kind="elements", elements=(8,), values=(0,))
    expected = (
        Expectation(
            PropertyId.REDUCED, Envelope(exhaustive=True), False, COMPUTED, reduced_wit
        ),
        Expectation(
            PropertyId.SEMICOMMUTATIVE, Envelope(exhaustive=True), True, COMPUTED
        ),
        Expectation(
            PropertyId.Q_ALPHA_SKEW_ARMENDARIZ,
            Envelope(degree=1),
            False,
            LITERATURE,
            qskew_wit,
        ),
        Expectation(
            PropertyId.ALPHA_SKEW_ARMENDARIZ, Envelope(degree=1), False, COMPUTED
        ),
    )
    definition = {
        "kind": "trivial_extension",
        "base": {"kind": "zmod", "n": 4},
        "endomorphism": {"builtin": "negate_second_component"},
        "label": "example2",
    }
    return CorpusEntry(
        name="example2",
        description="T(Z4,Z4) with second-component negation",
        ring=ring,
        endo=neg2,
        definition=definition,
        expected=expected,
    )


def _example4_tables(p: int):
    n = p * p
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    labels = []
    for a in range(p):
        for b in range(p):
            labels.append(f"({a},{b})")
    for i in range(n):
        a, b = divmod(i, p)
        for j in range(n):
            c, d = divmod(j, p)
            add[i][j] = ((a + c) % p) * p + (b + d) % p
            mul[i][j] = ((a * c) % p) * p + (a * d) % p
    return add, mul, labels


def build_example4(p: int = 3) -> CorpusEntry:
    """Upper-row matrices {(a,b;0,0) : a,b in F_p} with (a,b) -> (a,-b).

    Has one-sided but no two-sided identity; quasi-Armendariz in both the
    plain and the skew form.  p = 2 is rejected because the sign flip
    degenerates to the identity there.
    """
    if p == 2:
        raise ValueError(
            "p = 2 degenerates the sign flip to the identity; pick an odd prime"
        )
    add, mul, labels = _example4_tables(p)
    ring = make_table_ring(add, mul, labels, label=f"UpperRow(F{p})")
    alpha = table_endomorphism(
        ring,
        [(i // p) * p + (-(i % p)) % p for i in range(p * p)],
        "negate-second",
    )
    comm_wit = Witness(kind="elements", elements=(p, 1), values=(1, 0))
    expected = (
        Expectation(PropertyId.Q_ALPHA_ARMENDARIZ, Envelope(degree=2), True, LITERATURE),
        Expectation(PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, Envelope(degree=2), True, LITERATURE),
        Expectation(
            PropertyId.COMMUTATIVE, Envelope(exhaustive=True), False, COMPUTED, comm_wit
        ),
    )
    definition = {
        "kind": "table",
        "add_table": add,
        "mul_table": mul,
        "labels": labels,
        "endomorphism": {"images": list(alpha.images)},
        "label": "example4",
    }
    return CorpusEntry(
        name="example4",
        description=f"upper-row 2x2 matrices over F{p} with second-entry negation",
        ring=ring,
        endo=alpha,
        definition=definition,
        expected=expected,
    )


def build_example5(p: int = 3) -> tuple[CorpusEntry, CorpusEntry]:
    """The two matrix rings {(0,a;0,b)} and {(0,d;0,0)} over F_p with their
    sign-flip endomorphisms; both satisfy all four Armendariz variants."""
    if p == 2:
        raise ValueError(
            "p = 2 degenerates the sign flips to the identity; pick an odd prime"
        )
    n = p * p
    add1 = [[0] * n for _ in range(n)]
    mul1 = [[0] * n for _ in range(n)]
    labels1 = [f"({a},{b})" for a in range(p) for b in range(p)]
    for i in range(n):
        a, b = divmod(i, p)
        for j in range(n):
            c, d = divmod(j, p)
            add1[i][j] = ((a + c) % p) * p + (b + d) % p
            # [[0,a],[0,b]]·[[0,c],[0,d]] = [[0, a d],[0, b d]]
            mul1[i][j] = ((a * d) % p) * p + (b * d) % p
    r1 = make_table_ring(add1, mul1, labels1, label=f"RightCol(F{p})")
    a1 = table_endomorphism(
        r1, [((-(i // p)) % p) * p + i % p for i in range(n)], "negate-first"
    )

    add2 = [[(i + j) % p for j in range(p)] for i in range(p)]
    mul2 = [[0] * p for _ in range(p)]
    r2 = make_table_ring(add2, mul2, [str(i) for i in range(p)], label=f"Nil(F{p})")
    a2 = table_endomorphism(r2, [(-i) % p for i in range(p)], "negate")

    def expectations() -> tuple[Expectation, ...]:
        return tuple(
            Expectation(prop, Envelope(degree=2), True, LITERATURE)
            for prop in (
                PropertyId.ALPHA_ARMENDARIZ,
                PropertyId.ALPHA_SKEW_ARMENDARIZ,
                PropertyId.Q_ALPHA_ARMENDARIZ,
                PropertyId.Q_ALPHA_SKEW_ARMENDARIZ,
            )
        )

    e1 = CorpusEntry(
        name="example5_r1",
        description=f"right-column 2x2 matrices over F{p} with first-entry negation",
        ring=r1,
        endo=a1,
        definition={
            "kind": "table",
            "add_table": add1,
            "mul_table": mul1,
            "labels": labels1,
            "endomorphism": {"images": list(a1.images)},
            "label": "example5_r1",
        },
        expected=expectations(),
    )
    e2 = CorpusEntry(
        name="example5_r2",
        description=f"zero-multiplication ring on F{p} with negation",
        ring=r2,
        endo=a2,
        definition={
            "kind": "table",
            "add_table": add2,
            "mul_table": mul2,
            "labels": [str(i) for i in range(p)],
            "endomorphism": {"images": list(a2.images)},
            "label": "example5_r2",
        },
        expected=expectations(),
    )
    return e1, e2


def build_field_frobenius(p: int = 2, k: int = 2) -> CorpusEntry:
    """GF(p^k) with the Frobenius map: a domain with a monomorphism, so both
    quasi variants hold at every tested bound."""
    ring = make_galois_field(p, k)
    fr = frobenius(ring)
    expected = (
        Expectation(PropertyId.DOMAIN, Envelope(exhaustive=True), True, TRIVIAL),
        Expectation(PropertyId.REDUCED, Envelope(exhaustive=True), True, TRIVIAL),
        Expectation(PropertyId.RIGID, Envelope(exhaustive=True), True, COMPUTED),
        Expectation(PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, Envelope(degree=2), True, LITERATURE),
        Expectation(PropertyId.Q_ALPHA_ARMENDARIZ, Envelope(degree=2), True, LITERATURE),
    )
    definition = {
        "kind": "galois_field",
        "p": p,
        "k": k,
        "endomorphism": {"builtin": "frobenius"},
        "label": f"gf{p**k}_frobenius",
    }
    return CorpusEntry(
        name=f"gf{p**k}_frobenius",
        description=f"GF({p**k}) with the Frobenius endomorphism",
        ring=ring,
        endo=fr,
        definition=definition,
        expected=expected,
    )


def build_example3_analogue() -> CorpusEntry:
    """Finite stand-in for the trivial extension of Z by Q with halving:
    T(Z5, Z5) with (a,s) -> (a, 3s), 3 being the inverse of 2 mod 5.

    Exploratory: expected outcomes below were computed by these deciders and
    frozen as regression data; none are inherited claims.
    """
    z5 = make_zmod(5)
    ring = make_trivial_extension(z5, regular_bimodule(z5))
    alpha = table_endomorphism(
        ring,
        [_pair_index(5, i // 5, (3 * (i % 5)) % 5) for i in range(25)],
        "halve-second",
    )
    expected = (
        Expectation(PropertyId.REDUCED, Envelope(exhaustive=True), False, COMPUTED,
                    Witness(kind="elements", elements=(1,), values=(0,))),
        Expectation(PropertyId.SEMICOMMUTATIVE, Envelope(exhaustive=True), True, COMPUTED),
        Expectation(PropertyId.ALPHA_SKEW_ARMENDARIZ, Envelope(degree=1), True, COMPUTED),
        Expectation(PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, Envelope(degree=1), True, COMPUTED),
    )
    definition = {
        "kind": "trivial_extension",
        "base": {"kind": "zmod", "n": 5},
        "endomorphism": {"images": list(alpha.images)},
        "label": "example3_analogue",
    }
    return CorpusEntry(
        name="example3_analogue",
        description="T(Z5,Z5) with second-component scaling by the inverse of 2",
        ring=ring,
        endo=alpha,
        definition=definition,
        expected=expected,
        exploratory=True,
    )


def all_entries() -> list[CorpusEntry]:
    e5a, e5b = build_example5()
    return [
        build_example1(),
        build_example2_quotient(),
        build_example4(),
        e5a,
        e5b,
        build_field_frobenius(),
        build_example3_analogue(),
    ]


def entry_by_name(name: str) -> CorpusEntry:
    for entry in all_entries():
        if entry.name == name:
            return entry
    raise KeyError(name)


# --------------------------------------------------------------------------
# running entries and the harness

@dataclass
class Report:
    ok: bool = True
    lines: list[str] = field(default_factory=list)

    def record(self, ok: bool, line: str) -> None:
        self.ok = self.ok and ok
        self.lines.append(("PASS " if ok else "FAIL ") + line)

    def note(self, line: str) -> None:
        self.lines.append("     " + line)

    def extend(self, other: "Report") -> None:
        self.ok = self.ok and other.ok
        self.lines.extend(other.lines)


def _run_expected(entry: CorpusEntry, exp: Expectation, budget: int) -> Verdict:
    env = exp.envelope
    return dec.check_property(
        entry.ring,
        entry.endo,
        exp.prop,
        degree=env.degree,
        window=env.window,
        truncation=env.truncation,
        min_exp=env.min_exp,
        budget=budget,
    )


def run_expectations(
    entry: CorpusEntry, budget: int = dec.DEFAULT_TUPLE_BUDGET
) -> Report:
    """Re-run every frozen expectation of an entry and confirm witnesses."""
    rep = Report()
    for exp in entry.expected:
        verdict = _run_expected(entry, exp, budget)
        ok = verdict.holds == exp.holds
        want = "holds" if exp.holds else "fails"
        rep.record(
            ok,
            f"{entry.name}: {exp.prop.value} [{exp.envelope.describe()}] "
            f"expected {want} ({exp.provenance})",
        )
        if not verdict.holds:
            try:
                dec.replay_witness(entry.ring, entry.endo, verdict.prop, verdict.witness)
            except dec.RingError as err:
                rep.record(False, f"{entry.name}: decider witness replay: {err}")
        if exp.confirm_witness is not None:
            try:
                dec.replay_witness(entry.ring, entry.endo, exp.prop, exp.confirm_witness)
                rep.record(True, f"{entry.name}: recorded witness confirmed by replay")
            except dec.RingError as err:
                rep.record(False, f"{entry.name}: recorded witness rejected: {err}")
    return rep


def _established(
    entry: CorpusEntry, prop: PropertyId, degree: int, budget: int
) -> tuple[str, Verdict | None]:
    """Establish a polynomial hypothesis at a degree bound, exploiting
    monotonicity: a failure at a smaller feasible bound already settles
    failure at the requested one.  Returns (status, verdict) with status in
    {"holds", "fails", "blocked"}."""
    n = entry.ring.size
    feasible = degree
    while feasible >= 0 and dec.search_price(n, dec.family_blocks(feasible)) > budget:
        feasible -= 1
    if feasible < 0:
        return "blocked", None
    verdict = dec.check_armendariz_family(entry.ring, entry.endo, feasible, prop, budget)
    if not verdict.holds:
        return "fails", verdict
    if feasible == degree:
        return "holds", verdict
    return "blocked", verdict


def run_implication_matrix(
    entries: list[CorpusEntry] | None = None,
    degree: int = 2,
    budget: int = dec.DEFAULT_TUPLE_BUDGET,
) -> Report:
    """Evaluate every implication whose hypothesis the deciders establish.

    Rows: rigidity forces reducedness; reduced, rigid, and
    domain-with-monomorphism rings satisfy the quasi skew variant (the domain
    case also the plain quasi variant); a skew (or plain alpha-) Armendariz
    ring with surjective twist satisfies the quasi skew variant; so does a
    semicommutative skew Armendariz ring whose twist fixes the identity.
    Exploratory entries are skipped.  Any violated row is a hard failure.
    """
    rep = Report()
    if entries is None:
        entries = all_entries()
    for entry in entries:
        if entry.exploratory:
            rep.note(f"{entry.name}: exploratory, skipped")
            continue
        ring, alpha = entry.ring, entry.endo
        reduced = dec.is_reduced(ring).holds
        rigid = dec.is_rigid(ring, alpha).holds
        domain = dec.is_domain(ring).holds
        semicomm = dec.is_semicommutative(ring).holds
        fixes_one = ring.is_unital and alpha.preserves_one
        cache: dict[PropertyId, Verdict] = {}

        def conclusion(prop: PropertyId, row: str) -> None:
            if prop not in cache:
                try:
                    cache[prop] = dec.check_property(
                        ring, alpha, prop, degree=degree, budget=budget
                    )
                except dec.BudgetExceededError:
                    cache[prop] = None
            if cache[prop] is None:
                rep.note(
                    f"{entry.name}: {row} => {prop.value} not evaluated (budget)"
                )
                return
            rep.record(
                cache[prop].holds,
                f"{entry.name}: {row} => {prop.value} at degree {degree}",
            )

        if rigid:
            rep.record(reduced, f"{entry.name}: rigid => reduced")
            conclusion(PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, "rigid")
        if reduced:
            conclusion(PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, "reduced")
        if domain and alpha.is_injective:
            conclusion(PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, "domain+mono")
            conclusion(PropertyId.Q_ALPHA_ARMENDARIZ, "domain+mono")

        skew_status, _ = _established(
            entry, PropertyId.ALPHA_SKEW_ARMENDARIZ, degree, budget
        )
        if skew_status == "blocked":
            rep.note(f"{entry.name}: skew-Armendariz hypothesis not established (budget)")
        if skew_status == "holds" and alpha.is_surjective:
            conclusion(PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, "skew-Armendariz+epi")
        if skew_status == "holds" and semicomm and fixes_one:
            conclusion(
                PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, "semicommutative+skew-Armendariz"
            )

        plain_status, _ = _established(
            entry, PropertyId.ALPHA_ARMENDARIZ, degree, budget
        )
        if plain_status == "blocked":
            rep.note(f"{entry.name}: alpha-Armendariz hypothesis not established (budget)")
        if plain_status == "holds" and alpha.is_surjective:
            conclusion(PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, "alpha-Armendariz+epi")

        if alpha.is_automorphism and degree >= 2:
            rep.extend(run_laurent_consistency(entry, degree, budget))
            rep.extend(run_series_consistency(entry, degree + 1, budget))
    return rep


def run_transport_consistency(
    entry: CorpusEntry,
    seeds=range(20),
    degree: int = 1,
    budget: int = dec.DEFAULT_TUPLE_BUDGET,
) -> Report:
    """Relabel the carrier through seeded permutations and check that all
    four transported Armendariz verdicts match the originals."""
    props = (
        PropertyId.ALPHA_ARMENDARIZ,
        PropertyId.ALPHA_SKEW_ARMENDARIZ,
        PropertyId.Q_ALPHA_ARMENDARIZ,
        PropertyId.Q_ALPHA_SKEW_ARMENDARIZ,
    )
    rep = Report()
    originals = {
        prop: dec.check_armendariz_family(entry.ring, entry.endo, degree, prop, budget)
        for prop in props
    }
    for seed in seeds:
        other, sigma = random_relabeling(entry.ring, seed)
        beta = transport(sigma, entry.endo)
        for prop in props:
            moved = dec.check_armendariz_family(other, beta, degree, prop, budget)
            ok = moved.holds == originals[prop].holds
            rep.record(
                ok,
                f"{entry.name}: transport seed {seed}: {prop.value} "
                f"{'holds' if moved.holds else 'fails'} on both sides"
                if ok
                else f"{entry.name}: transport seed {seed}: {prop.value} diverged",
            )
            if not originals[prop].holds and not moved.holds:
                w = originals[prop].witness
                mapped = Witness(
                    kind="poly",
                    p_coeffs=tuple(sigma.apply(c) for c in w.p_coeffs),
                    q_coeffs=tuple(sigma.apply(c) for c in w.q_coeffs),
                    pair=w.pair,
                    monomial=None
                    if w.monomial is None
                    else (sigma.apply(w.monomial[0]), w.monomial[1]),
                    offending=sigma.apply(w.offending),
                )
                try:
                    dec.replay_witness(other, beta, prop, mapped)
                except dec.RingError as err:
                    rep.record(
                        False,
                        f"{entry.name}: transported witness failed to replay: {err}",
                    )
    # compress the (large) per-seed log when everything passed
    if rep.ok:
        n = len(list(seeds))
        rep.lines = [
            f"PASS {entry.name}: verdicts preserved under {n} relabelings "
            f"for all four transported properties (degree {degree})"
        ]
    return rep


def run_product_closure(
    a: CorpusEntry | tuple[FiniteRing, Endomorphism],
    b: CorpusEntry | tuple[FiniteRing, Endomorphism],
    degree: int = 1,
    budget: int = dec.DEFAULT_TUPLE_BUDGET,
) -> Report:
    """If both factors satisfy the (skew) Armendariz property at the bound,
    the direct product with the componentwise map must as well."""
    ra, ea = (a.ring, a.endo) if isinstance(a, CorpusEntry) else a
    rb, eb = (b.ring, b.endo) if isinstance(b, CorpusEntry) else b
    prod = make_direct_product(ra, rb)
    pe = product_endomorphism(prod, ea, eb)
    rep = Report()
    for prop in (PropertyId.ALPHA_ARMENDARIZ, PropertyId.ALPHA_SKEW_ARMENDARIZ):
        va = dec.check_armendariz_family(ra, ea, degree, prop, budget)
        vb = dec.check_armendariz_family(rb, eb, degree, prop, budget)
        if not (va.holds and vb.holds):
            rep.note(
                f"product closure: {prop.value} does not hold on both factors, skipped"
            )
            continue
        vp = dec.check_armendariz_family(prod, pe, degree, prop, budget)
        rep.record(
            vp.holds,
            f"product closure: {prop.value} at degree {degree} on "
            f"{ra.label} x {rb.label}",
        )
    return rep


def _shift_poly_witness(
    alpha: Endomorphism, w: Witness, m: int, t: int
) -> Witness:
    """Shift a quasi-skew witness by x^m on the left of p and x^t on the right
    of q: coefficients of p pick up the twist alpha^m and all exponents move.

    The shift is a formal operation on coefficient sequences (no ring
    identity needed); the violated conclusion instance moves along with it.
    """
    p2 = tuple(alpha.power_apply(m, c) for c in (w.p_coeffs or ()))
    q2 = tuple(w.q_coeffs or ())
    i, j = w.pair
    pair = (i + m, j + t)
    mono = None
    if w.monomial is not None:
        mono = (alpha.power_apply(m, w.monomial[0]), pair[0])
    return Witness(
        kind="laurent" if w.p_min + m < 0 or w.q_min + t < 0 else "poly",
        p_coeffs=p2,
        p_min=w.p_min + m,
        q_coeffs=q2,
        q_min=w.q_min + t,
        pair=pair,
        monomial=mono,
        offending=alpha.power_apply(m, w.offending),
    )


def run_laurent_consistency(
    entry: CorpusEntry, degree: int = 2, budget: int = dec.DEFAULT_TUPLE_BUDGET
) -> Report:
    """Plain vs Laurent deciders agree under the exponent-shift mapping:
    window (1, d-1, 1, d-1) against plain degree d.  On failure each witness
    is shifted into the other envelope and replayed there."""
    rep = Report()
    ring, alpha = entry.ring, entry.endo
    if not alpha.is_automorphism:
        rep.note(f"{entry.name}: twist not invertible, Laurent check skipped")
        return rep
    window = (1, degree - 1, 1, degree - 1)
    try:
        vp = dec.check_armendariz_family(
            ring, alpha, degree, PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, budget
        )
        vl = dec.check_laurent_q_alpha_skew(ring, alpha, window, budget)
    except dec.BudgetExceededError:
        rep.note(
            f"{entry.name}: Laurent window {window} vs plain degree {degree} "
            "not evaluated (budget)"
        )
        return rep
    rep.record(
        vp.holds == vl.holds,
        f"{entry.name}: Laurent window {window} agrees with plain degree {degree} "
        f"({'holds' if vp.holds else 'fails'})",
    )
    m, t = window[0], window[2]
    if not vl.holds:
        shifted = _shift_poly_witness(alpha, vl.witness, m, t)
        try:
            dec.replay_witness(ring, alpha, PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, shifted)
            rep.record(True, f"{entry.name}: shifted Laurent witness replays as plain")
        except dec.RingError as err:
            rep.record(False, f"{entry.name}: shifted Laurent witness rejected: {err}")
    if not vp.holds:
        shifted = _shift_poly_witness(alpha, vp.witness, -m, -t)
        try:
            dec.replay_witness(ring, alpha, PropertyId.LAURENT_Q_ALPHA_SKEW, shifted)
            rep.record(True, f"{entry.name}: plain witness replays in the Laurent window")
        except dec.RingError as err:
            rep.record(False, f"{entry.name}: shifted plain witness rejected: {err}")
    return rep


def run_series_consistency(
    entry: CorpusEntry, truncation: int = 3, budget: int = dec.DEFAULT_TUPLE_BUDGET
) -> Report:
    """Plain vs Laurent truncated-series deciders agree under the x-shift:
    plain order N against Laurent exponents [-1, N-1)."""
    rep = Report()
    ring, alpha = entry.ring, entry.endo
    if not alpha.is_automorphism:
        rep.note(f"{entry.name}: twist not invertible, series check skipped")
        return rep
    try:
        vp = dec.check_powerseries_q_alpha_skew(ring, alpha, truncation, budget=budget)
        vl = dec.check_powerseries_q_alpha_skew(
            ring, alpha, truncation - 1, laurent=True, min_exp=-1, budget=budget
        )
    except dec.BudgetExceededError:
        rep.note(
            f"{entry.name}: Laurent series [-1,{truncation - 1}) vs plain series "
            f"at order {truncation} not evaluated (budget)"
        )
        return rep
    rep.record(
        vp.holds == vl.holds,
        f"{entry.name}: Laurent series [-1,{truncation - 1}) agrees with plain "
        f"series at order {truncation} ({'holds' if vp.holds else 'fails'})",
    )
    return rep
