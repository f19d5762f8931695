import json
from importlib import resources

import pytest

from skewarm import PropertyId, identity_endomorphism, make_zmod
from skewarm.corpus import (
    all_entries,
    build_example1,
    build_example2_quotient,
    build_example3_analogue,
    build_example4,
    build_example5,
    build_field_frobenius,
    entry_by_name,
    run_expectations,
    run_implication_matrix,
    run_laurent_consistency,
    run_product_closure,
    run_series_consistency,
    run_transport_consistency,
)
from skewarm.formats import corpus_manifest, load_manifest


def test_entry_names():
    names = [e.name for e in all_entries()]
    assert names == [
        "example1",
        "example2",
        "example4",
        "example5_r1",
        "example5_r2",
        "gf4_frobenius",
        "example3_analogue",
    ]
    assert entry_by_name("example2").ring.size == 16
    with pytest.raises(KeyError):
        entry_by_name("nope")


def test_example4_rejects_characteristic_two():
    with pytest.raises(ValueError):
        build_example4(2)
    with pytest.raises(ValueError):
        build_example5(2)


def test_example3_analogue_is_exploratory():
    entry = build_example3_analogue()
    assert entry.exploratory
    assert entry.ring.size == 25
    # the scaling map squares to scaling by 4 and has multiplicative order 4
    assert entry.endo.preperiod == 0 and entry.endo.period == 4


@pytest.mark.parametrize("name", [e.name for e in all_entries()])
def test_every_expectation_reproduces(name):
    rep = run_expectations(entry_by_name(name))
    assert rep.ok, "\n".join(rep.lines)


def test_expectations_are_deterministic():
    entry = build_example2_quotient()
    first = run_expectations(entry)
    second = run_expectations(entry)
    assert first.lines == second.lines


def test_implication_matrix_has_zero_violations_at_degree_one():
    rep = run_implication_matrix(degree=1)
    assert rep.ok, "\n".join(l for l in rep.lines if l.startswith("FAIL"))


def test_example2_matrix_rows_are_vacuous():
    # not reduced, not rigid, not a domain, and skew-Armendariz fails,
    # so no implication hypothesis applies to this entry
    rep = run_implication_matrix([build_example2_quotient()], degree=1)
    assert rep.ok
    assert not any("=>" in line for line in rep.lines if line.startswith("PASS"))


def test_transport_consistency_small():
    for entry in (build_example1(), build_example2_quotient()):
        rep = run_transport_consistency(entry, seeds=range(3), degree=1)
        assert rep.ok, "\n".join(rep.lines)


def test_implication_matrix_reports_blocked_hypotheses():
    # a tiny budget blocks every polynomial hypothesis; rows are skipped,
    # not treated as violations
    rep = run_implication_matrix([build_example1()], degree=2, budget=10)
    assert rep.ok
    assert any("not established (budget)" in line for line in rep.lines)


def test_product_closure_skips_when_a_factor_fails():
    rep = run_product_closure(build_example1(), build_example1(), degree=1)
    # the swap ring fails both Armendariz forms, so nothing is asserted
    assert rep.ok
    assert all("skipped" in line for line in rep.lines)


def test_product_closure_cases():
    z2 = make_zmod(2)
    ide = identity_endomorphism(z2)
    rep = run_product_closure((z2, ide), (z2, ide), degree=1)
    assert rep.ok and len(rep.lines) == 2
    _, e5b = build_example5()
    rep = run_product_closure(e5b, e5b, degree=1)
    assert rep.ok, "\n".join(rep.lines)


def test_laurent_and_series_consistency_quick():
    for entry in (build_example1(), build_field_frobenius()):
        rep = run_laurent_consistency(entry, degree=2)
        assert rep.ok, "\n".join(rep.lines)
        rep = run_series_consistency(entry, truncation=2)
        assert rep.ok, "\n".join(rep.lines)


def test_laurent_consistency_at_degree_one_uses_the_shifted_window():
    # plain degree 1 has the same number of coefficients as window (1,0,1,0)
    rep = run_laurent_consistency(build_field_frobenius(), degree=1)
    assert rep.ok, "\n".join(rep.lines)
    assert "Laurent window (1, 0, 1, 0) agrees with plain degree 1" in rep.lines[0]


def test_manifest_matches_builders():
    with resources.as_file(
        resources.files("skewarm").joinpath("data/corpus.json")
    ) as path:
        shipped = json.loads(path.read_text(encoding="utf-8"))
    assert shipped == corpus_manifest()


def test_manifest_roundtrip_builds_same_rings():
    with resources.as_file(
        resources.files("skewarm").joinpath("data/corpus.json")
    ) as path:
        entries = load_manifest(path)
    by_name = {e.name: e for e in entries}
    for built in all_entries():
        loaded = by_name[built.name]
        assert loaded.ring.size == built.ring.size
        assert loaded.ring.add_table == built.ring.add_table
        assert loaded.ring.mul_table == built.ring.mul_table
        assert loaded.endo.images == built.endo.images
        assert loaded.expected == built.expected


def test_literature_expectations_cover_the_classical_facts():
    e1 = build_example1()
    assert any(
        x.prop is PropertyId.REDUCED and x.holds and x.provenance == "literature"
        for x in e1.expected
    )
    e2 = build_example2_quotient()
    target = [
        x
        for x in e2.expected
        if x.prop is PropertyId.Q_ALPHA_SKEW_ARMENDARIZ and x.provenance == "literature"
    ]
    assert len(target) == 1 and not target[0].holds
    assert target[0].confirm_witness is not None
