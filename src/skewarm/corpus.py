"""Named (ring, endomorphism) pairs with frozen expected verdicts, plus the
consistency harness that cross-checks decider outputs against the implication
lattice, isomorphism transport, product closure, and the Laurent/series
correspondences.

The entries are data, defined once in ``data/corpus.json``: ``all_entries``
loads that manifest, the same file the command line ``corpus`` run reads
when no ``--manifest`` is given.  Every expectation carries a provenance
tag; ``confirm_witness`` data is validated by replay as *a* witness, never
by equality with the decider's least witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from . import deciders as dec
from .deciders import PropertyId, Verdict, Witness
from .formats import CorpusEntry, load_manifest
from .rings import (
    Endomorphism,
    FiniteRing,
    make_direct_product,
    product_endomorphism,
    random_relabeling,
    transport,
)


def all_entries() -> list[CorpusEntry]:
    """The built-in entries, loaded afresh from the shipped manifest."""
    with resources.as_file(resources.files("skewarm").joinpath("data/corpus.json")) as path:
        return load_manifest(path)


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


def _replay(rep: Report, ring, alpha, prop, witness, passed: str | None, failed: str) -> None:
    """Replay a witness: record ``failed: <error>`` if it is rejected, else
    ``passed`` unless that is None."""
    try:
        dec.replay_witness(ring, alpha, prop, witness)
    except dec.RingError as err:
        rep.record(False, f"{failed}: {err}")
        return
    if passed is not None:
        rep.record(True, passed)


def _moved(w: Witness, on_p, on_q, m: int = 0, t: int = 0) -> Witness:
    """Carry a polynomial witness across a relation: p's coefficients, the
    sandwich element and the offending value go through ``on_p``, q's through
    ``on_q``; p's exponents and the monomial's twist (that of a_i) move by m,
    q's by t.  The violated conclusion instance moves along with them."""
    return Witness(
        kind="laurent" if w.p_min + m < 0 or w.q_min + t < 0 else "poly",
        p_coeffs=tuple(map(on_p, w.p_coeffs)),
        p_min=w.p_min + m,
        q_coeffs=tuple(map(on_q, w.q_coeffs)),
        q_min=w.q_min + t,
        pair=(w.pair[0] + m, w.pair[1] + t),
        monomial=None if w.monomial is None else (on_p(w.monomial[0]), w.monomial[1] + m),
        offending=on_p(w.offending),
    )


def _agree(rep: Report, left: str, right: str, decide_left, decide_right):
    """Decide both sides of a relation, the right (plain) one first, and
    record whether their verdicts agree.  Returns the verdicts (left,
    right), or None, with a note, when either side is over the budget."""
    try:
        vr = decide_right()
        vl = decide_left()
    except dec.BudgetExceededError:
        rep.note(f"{left} vs {right} not evaluated (budget)")
        return None
    outcome = "holds" if vr.holds else "fails"
    rep.record(vl.holds == vr.holds, f"{left} agrees with {right} ({outcome})")
    return vl, vr


def run_expectations(
    entry: CorpusEntry, budget: int = dec.DEFAULT_TUPLE_BUDGET
) -> Report:
    """Re-run every frozen expectation of an entry and confirm witnesses."""
    rep = Report()
    ring, alpha = entry.ring, entry.endo
    for exp in entry.expected:
        env = exp.envelope
        verdict = dec.check_property(
            ring, alpha, exp.prop, degree=env.degree, window=env.window,
            truncation=env.truncation, min_exp=env.min_exp, budget=budget,
        )
        ok = verdict.holds == exp.holds
        want = "holds" if exp.holds else "fails"
        rep.record(
            ok,
            f"{entry.name}: {exp.prop.value} [{exp.envelope.describe()}] "
            f"expected {want} ({exp.provenance})",
        )
        if not verdict.holds:
            _replay(
                rep, ring, alpha, verdict.prop, verdict.witness, None,
                f"{entry.name}: decider witness replay",
            )
        if exp.confirm_witness is not None:
            _replay(
                rep, ring, alpha, exp.prop, exp.confirm_witness,
                f"{entry.name}: recorded witness confirmed by replay",
                f"{entry.name}: recorded witness rejected",
            )
    return rep


def _established(entry: CorpusEntry, prop: PropertyId, degree: int, budget: int) -> str:
    """Establish a polynomial hypothesis at a degree bound, exploiting
    monotonicity: a failure at a smaller feasible bound already settles
    failure at the requested one.  Returns "holds", "fails" or "blocked"."""
    n = entry.ring.size
    feasible = degree
    if dec.over_budget(n, 2 * (degree + 1), budget):
        # the price grows with the degree, so count up to the last that fits
        feasible = -1
        while not dec.over_budget(n, 2 * (feasible + 2), budget):
            feasible += 1
    if feasible < 0:
        return "blocked"
    verdict = dec.check_armendariz_family(entry.ring, entry.endo, feasible, prop, budget)
    if not verdict.holds:
        return "fails"
    return "holds" if feasible == degree else "blocked"


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
        cache: dict[PropertyId, Verdict | None] = {}

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

        skew_status = _established(entry, PropertyId.ALPHA_SKEW_ARMENDARIZ, degree, budget)
        if skew_status == "blocked":
            rep.note(f"{entry.name}: skew-Armendariz hypothesis not established (budget)")
        if skew_status == "holds" and alpha.is_surjective:
            conclusion(PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, "skew-Armendariz+epi")
        if skew_status == "holds" and semicomm and fixes_one:
            conclusion(
                PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, "semicommutative+skew-Armendariz"
            )

        plain_status = _established(entry, PropertyId.ALPHA_ARMENDARIZ, degree, budget)
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
    seeds = list(seeds)
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
                _replay(
                    rep, other, beta, prop,
                    _moved(originals[prop].witness, sigma.apply, sigma.apply),
                    None, f"{entry.name}: transported witness failed to replay",
                )
    # compress the (large) per-seed log when everything passed
    if rep.ok:
        rep.lines = [
            f"PASS {entry.name}: verdicts preserved under {len(seeds)} relabelings "
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
    verdicts = _agree(
        rep, f"{entry.name}: Laurent window {window}", f"plain degree {degree}",
        lambda: dec.check_laurent_q_alpha_skew(ring, alpha, window, budget),
        lambda: dec.check_armendariz_family(
            ring, alpha, degree, PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, budget
        ),
    )
    if verdicts is None:
        return rep
    vl, vp = verdicts
    m, t = window[0], window[2]
    if not vl.holds:
        _replay(
            rep, ring, alpha, PropertyId.Q_ALPHA_SKEW_ARMENDARIZ,
            _moved(vl.witness, lambda c: alpha.power_apply(m, c), lambda c: c, m, t),
            f"{entry.name}: shifted Laurent witness replays as plain",
            f"{entry.name}: shifted Laurent witness rejected",
        )
    if not vp.holds:
        _replay(
            rep, ring, alpha, PropertyId.LAURENT_Q_ALPHA_SKEW,
            _moved(vp.witness, lambda c: alpha.power_apply(-m, c), lambda c: c, -m, -t),
            f"{entry.name}: plain witness replays in the Laurent window",
            f"{entry.name}: shifted plain witness rejected",
        )
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
    _agree(
        rep, f"{entry.name}: Laurent series [-1,{truncation - 1})",
        f"plain series at order {truncation}",
        lambda: dec.check_powerseries_q_alpha_skew(
            ring, alpha, truncation - 1, laurent=True, min_exp=-1, budget=budget
        ),
        lambda: dec.check_powerseries_q_alpha_skew(ring, alpha, truncation, budget=budget),
    )
    return rep
