import dataclasses
import itertools

import pytest

from skewarm import (
    PropertyId,
    Witness,
    corpus,
    deciders,
    identity_endomorphism,
    make_direct_product,
    make_galois_field,
    make_table_ring,
    make_trivial_extension,
    make_zmod,
    regular_bimodule,
    zero_endomorphism,
)
from skewarm.corpus import (
    all_entries,
    entry_by_name,
    run_expectations,
    run_implication_matrix,
    run_laurent_consistency,
    run_product_closure,
    run_series_consistency,
    run_transport_consistency,
)


NAMES = [
    "example1",
    "example2",
    "example4",
    "example5_r1",
    "example5_r2",
    "gf4_frobenius",
    "example3_analogue",
]


def test_entry_names():
    assert [e.name for e in all_entries()] == NAMES
    assert entry_by_name("example2").ring.size == 16
    with pytest.raises(KeyError):
        entry_by_name("nope")


def test_shipped_twists_keep_their_names():
    # the names every verdict record of the corpus gives its twist
    assert {e.name: e.endo.label for e in all_entries()} == {
        "example1": "swap",
        "example2": "negate_second_component",
        "example4": "negate-second",
        "example5_r1": "negate-first",
        "example5_r2": "negate",
        "gf4_frobenius": "frobenius",
        "example3_analogue": "halve-second",
    }


def test_example3_analogue_is_exploratory():
    entry = entry_by_name("example3_analogue")
    assert entry.exploratory
    assert entry.ring.size == 25
    # the scaling map squares to scaling by 4 and has multiplicative order 4
    assert entry.endo.preperiod == 0 and entry.endo.period == 4


@pytest.mark.parametrize("name", NAMES)
def test_every_expectation_reproduces(name):
    rep = run_expectations(entry_by_name(name))
    assert rep.ok, "\n".join(rep.lines)


def test_expectations_are_deterministic():
    entry = entry_by_name("example2")
    first = run_expectations(entry)
    second = run_expectations(entry)
    assert first.lines == second.lines


def test_implication_matrix_has_zero_violations_at_degree_one():
    rep = run_implication_matrix(degree=1)
    assert rep.ok, "\n".join(l for l in rep.lines if l.startswith("FAIL"))


def test_example2_matrix_rows_are_vacuous():
    # not reduced, not rigid, not a domain, and skew-Armendariz fails,
    # so no implication hypothesis applies to this entry
    rep = run_implication_matrix([entry_by_name("example2")], degree=1)
    assert rep.ok
    assert not any("=>" in line for line in rep.lines if line.startswith("PASS"))


def test_transport_consistency_small():
    for entry in (entry_by_name("example1"), entry_by_name("example2")):
        rep = run_transport_consistency(entry, seeds=range(3), degree=1)
        assert rep.ok, "\n".join(rep.lines)


def test_implication_matrix_reports_blocked_hypotheses():
    # a tiny budget blocks every polynomial hypothesis; rows are skipped,
    # not treated as violations
    rep = run_implication_matrix([entry_by_name("example1")], degree=2, budget=10)
    assert rep.ok
    assert any("not established (budget)" in line for line in rep.lines)


def test_product_closure_skips_when_a_factor_fails():
    rep = run_product_closure(entry_by_name("example1"), entry_by_name("example1"), degree=1)
    # the swap ring fails both Armendariz forms, so nothing is asserted
    assert rep.ok
    assert all("skipped" in line for line in rep.lines)


def test_product_closure_cases():
    z2 = make_zmod(2)
    ide = identity_endomorphism(z2)
    rep = run_product_closure((z2, ide), (z2, ide), degree=1)
    assert rep.ok and len(rep.lines) == 2
    e5b = entry_by_name("example5_r2")
    rep = run_product_closure(e5b, e5b, degree=1)
    assert rep.ok, "\n".join(rep.lines)


def test_laurent_and_series_consistency_quick():
    for entry in (entry_by_name("example1"), entry_by_name("gf4_frobenius")):
        rep = run_laurent_consistency(entry, degree=2)
        assert rep.ok, "\n".join(rep.lines)
        rep = run_series_consistency(entry, truncation=2)
        assert rep.ok, "\n".join(rep.lines)


def test_laurent_consistency_at_degree_one_uses_the_shifted_window():
    # plain degree 1 has the same number of coefficients as window (1,0,1,0)
    rep = run_laurent_consistency(entry_by_name("gf4_frobenius"), degree=1)
    assert rep.ok, "\n".join(rep.lines)
    assert "Laurent window (1, 0, 1, 0) agrees with plain degree 1" in rep.lines[0]


def test_transport_summary_counts_seeds_given_as_an_iterator():
    rep = run_transport_consistency(entry_by_name("example2"), seeds=iter(range(3)), degree=1)
    assert rep.ok and "verdicts preserved under 3 relabelings" in rep.lines[0]


# --------------------------------------------------------------------------
# every comparison of the harness records a FAIL line when its sides differ


def failures(rep):
    assert not rep.ok
    return [line for line in rep.lines if line.startswith("FAIL ")]


def test_a_flipped_expectation_fails():
    entry = entry_by_name("example2")
    exp = next(e for e in entry.expected if e.prop == PropertyId.SEMICOMMUTATIVE)
    flipped = dataclasses.replace(entry, expected=(dataclasses.replace(exp, holds=False),))
    (line,) = failures(run_expectations(flipped))
    assert "semicommutative" in line and "expected fails" in line


def test_a_tampered_recorded_witness_is_rejected():
    entry = entry_by_name("example2")
    exp = next(e for e in entry.expected if e.prop == PropertyId.REDUCED)
    assert exp.confirm_witness.elements == (8,)
    tampered = dataclasses.replace(exp.confirm_witness, elements=(entry.ring.zero,))
    tampered = dataclasses.replace(entry, expected=(dataclasses.replace(exp, confirm_witness=tampered),))
    (line,) = failures(run_expectations(tampered))
    assert "recorded witness rejected" in line


def test_a_transport_that_changes_the_twist_diverges(monkeypatch):
    # the relabelled side gets the zero map in place of the swap's transport
    monkeypatch.setattr(corpus, "transport", lambda sigma, alpha: zero_endomorphism(sigma.codomain))
    rep = run_transport_consistency(entry_by_name("example1"), seeds=range(1), degree=1)
    assert any("transport seed 0" in line and "diverged" in line for line in failures(rep))


def test_a_laurent_verdict_that_disagrees_fails(monkeypatch):
    decide = deciders.check_laurent_q_alpha_skew
    monkeypatch.setattr(
        deciders,
        "check_laurent_q_alpha_skew",
        lambda *args: dataclasses.replace(decide(*args), witness=None),
    )
    (line,) = failures(run_laurent_consistency(entry_by_name("example2"), degree=2))
    assert "Laurent window (1, 1, 1, 1) agrees with plain degree 2 (fails)" in line


def test_a_laurent_series_verdict_that_disagrees_fails(monkeypatch):
    decide = deciders.check_powerseries_q_alpha_skew

    def laurent_holds(*args, laurent=False, **kwargs):
        verdict = decide(*args, laurent=laurent, **kwargs)
        return dataclasses.replace(verdict, witness=None) if laurent else verdict

    monkeypatch.setattr(deciders, "check_powerseries_q_alpha_skew", laurent_holds)
    (line,) = failures(run_series_consistency(entry_by_name("example2"), truncation=2))
    assert "agrees with plain series at order 2 (fails)" in line


def _laurent(entry):
    return run_laurent_consistency(entry, degree=2)


@pytest.mark.parametrize(
    "run, line",
    [
        (run_expectations, "decider witness replay"),
        (lambda e: run_transport_consistency(e, seeds=range(1)), "transported witness failed to replay"),
        (_laurent, "shifted Laurent witness rejected"),
        (_laurent, "shifted plain witness rejected"),
    ],
)
def test_every_relation_records_a_witness_that_fails_to_replay(monkeypatch, run, line):
    def rejected(ring, alpha, prop, witness):
        raise deciders.ReplayMismatch("forced")

    monkeypatch.setattr(deciders, "replay_witness", rejected)
    assert f"FAIL example2: {line}: forced" in failures(run(entry_by_name("example2")))


def test_the_laurent_shift_twists_p_and_moves_both_exponents(monkeypatch):
    # the failing window (1,1,1,1) witness of example2, shifted by x on both
    # sides into R[x;alpha]: p's coefficients pick up alpha (1 -> 3), q's do not
    entry = entry_by_name("example2")
    assert entry.endo.apply(1) == 3
    replay, replayed = deciders.replay_witness, []

    def spy(ring, alpha, prop, witness):
        replayed.append((prop, witness))
        return replay(ring, alpha, prop, witness)

    monkeypatch.setattr(deciders, "replay_witness", spy)
    rep = run_laurent_consistency(entry, degree=2)
    assert rep.ok, "\n".join(rep.lines)
    (shifted,) = [w for prop, w in replayed if prop is PropertyId.Q_ALPHA_SKEW_ARMENDARIZ]
    assert shifted == Witness(
        kind="poly",
        p_coeffs=(0, 3, 8),
        q_coeffs=(0, 1, 8),
        pair=(1, 2),
        monomial=(4, 1),
        offending=2,
    )
    replay(entry.ring, entry.endo, PropertyId.Q_ALPHA_SKEW_ARMENDARIZ, shifted)


# Each corpus ring rebuilt from its mathematical definition, independently of
# the manifest: (ring, images of the twist).  Pairs (a, b) over Z_n sit at
# index n a + b, as in the product and trivial-extension constructors.

def _matrix_ring(elements):
    """The ring of the 2x2 matrices over F3 in ``elements`` (label ->
    matrix, in index order), with the tables of matrix addition and
    multiplication mod 3."""
    mats = list(elements.values())
    index = {m: i for i, m in enumerate(mats)}

    def add(x, y):
        return tuple(tuple((u + v) % 3 for u, v in zip(r, s)) for r, s in zip(x, y))

    def mul(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(2)) % 3 for j in range(2))
            for i in range(2)
        )

    return make_table_ring(
        [[index[add(x, y)] for y in mats] for x in mats],
        [[index[mul(x, y)] for y in mats] for x in mats],
        list(elements),
    )


def _f3_pairs(shape):
    """``shape(a, b)`` labelled (a,b), for (a, b) over F3 at index 3a + b."""
    return {f"({a},{b})": shape(a, b) for a, b in itertools.product(range(3), repeat=2)}


def _pairs(n, twist):
    """Images of (a, b) -> twist(a, b) on pairs over Z_n at index n a + b."""
    return [n * (c % n) + d % n for c, d in (twist(*divmod(i, n)) for i in range(n * n))]


def _trivial_extension(n):
    zn = make_zmod(n)
    return make_trivial_extension(zn, regular_bimodule(zn))


def _gf4():
    ring = make_galois_field(2, 2)
    return ring, [ring.mul(x, x) for x in range(ring.size)]


DERIVED = {
    # Z2 (+) Z2, swap (a, b) -> (b, a)
    "example1": lambda: (
        make_direct_product(make_zmod(2), make_zmod(2)),
        _pairs(2, lambda a, b: (b, a)),
    ),
    # T(Z4, Z4), (a, b) -> (a, -b)
    "example2": lambda: (_trivial_extension(4), _pairs(4, lambda a, b: (a, -b))),
    # (a, b; 0, 0) over F3, (a, b) -> (a, -b)
    "example4": lambda: (
        _matrix_ring(_f3_pairs(lambda a, b: ((a, b), (0, 0)))),
        _pairs(3, lambda a, b: (a, -b)),
    ),
    # (0, a; 0, b) over F3, (a, b) -> (-a, b)
    "example5_r1": lambda: (
        _matrix_ring(_f3_pairs(lambda a, b: ((0, a), (0, b)))),
        _pairs(3, lambda a, b: (-a, b)),
    ),
    # (0, d; 0, 0) over F3, d -> -d
    "example5_r2": lambda: (
        _matrix_ring({str(d): ((0, d), (0, 0)) for d in range(3)}),
        [0, 2, 1],
    ),
    # GF(4), x -> x^2
    "gf4_frobenius": _gf4,
    # T(Z5, Z5), (a, s) -> (a, 3s), 3 being the inverse of 2 mod 5
    "example3_analogue": lambda: (_trivial_extension(5), _pairs(5, lambda a, s: (a, 3 * s))),
}


@pytest.mark.parametrize("name", NAMES)
def test_shipped_rings_match_an_independent_derivation(name):
    entry = entry_by_name(name)
    ring, images = DERIVED[name]()
    assert entry.ring.add_table == ring.add_table
    assert entry.ring.mul_table == ring.mul_table
    assert entry.ring.element_labels == ring.element_labels
    assert list(entry.endo.images) == images


def test_literature_expectations_cover_the_classical_facts():
    e1 = entry_by_name("example1")
    assert any(
        x.prop is PropertyId.REDUCED and x.holds and x.provenance == "literature"
        for x in e1.expected
    )
    e2 = entry_by_name("example2")
    target = [
        x
        for x in e2.expected
        if x.prop is PropertyId.Q_ALPHA_SKEW_ARMENDARIZ and x.provenance == "literature"
    ]
    assert len(target) == 1 and not target[0].holds
    assert target[0].confirm_witness is not None
