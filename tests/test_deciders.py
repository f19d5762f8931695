import itertools

import pytest

from skewarm import (
    BudgetExceededError,
    PropertyId,
    ReplayMismatch,
    Witness,
    check_armendariz_family,
    check_laurent_q_alpha_skew,
    check_powerseries_q_alpha_skew,
    check_property,
    forall_sandwich_zero,
    forall_sandwich_zero_laurent,
    forall_sandwich_zero_series,
    identity_endomorphism,
    is_commutative,
    is_domain,
    is_reduced,
    is_reversible,
    is_rigid,
    is_semicommutative,
    is_symmetric,
    laurent_poly,
    laurent_skew_mul,
    make_galois_field,
    make_zmod,
    frobenius,
    replay_witness,
    skew_mul,
    skew_poly,
    truncated_series,
    twisted_chain_product,
    zero_endomorphism,
)
from skewarm.deciders import ELEMENT_PROPERTIES

P = PropertyId


# ---------------------------------------------------------------- elements

def test_z4_element_predicates(z4):
    assert not is_reduced(z4).holds
    assert is_reduced(z4).witness.elements == (2,)
    assert not is_domain(z4).holds
    assert is_commutative(z4).holds
    assert is_semicommutative(z4).holds
    assert is_reversible(z4).holds
    assert is_symmetric(z4).holds


def test_example1_reduced_and_rigid(z2xz2, swap):
    assert is_reduced(z2xz2).holds
    verdict = is_rigid(z2xz2, swap)
    assert not verdict.holds
    # the cited witness (1,0) also certifies the failure
    replay_witness(z2xz2, swap, P.RIGID, Witness(kind="elements", elements=(2,), values=(0,)))


def test_gf4_predicates(gf4, gf4_frob):
    assert is_domain(gf4).holds
    assert is_reduced(gf4).holds
    assert is_rigid(gf4, gf4_frob).holds


def test_rigid_with_identity_agrees_with_reduced():
    for n in (2, 3, 4, 6, 8):
        ring = make_zmod(n)
        assert is_rigid(ring, identity_endomorphism(ring)).holds == is_reduced(ring).holds


def test_example4_not_commutative():
    from skewarm.corpus import entry_by_name

    e = entry_by_name("example4")
    verdict = is_commutative(e.ring)
    assert not verdict.holds
    # the witness pair cited alongside the construction also violates
    replay_witness(
        e.ring, None, P.COMMUTATIVE, Witness(kind="elements", elements=(3, 1), values=(1, 0))
    )


# ---------------------------------------------------------------- sandwich

def brute_sandwich_oracle(ring, endo, p, q):
    """Independent oracle: enumerate EVERY h of degree <= preperiod + period
    with unrestricted coefficients and test p·h·q = 0 through skew_mul."""
    bound = endo.preperiod + endo.period
    for coeffs in itertools.product(range(ring.size), repeat=bound + 1):
        h = skew_poly(ring, endo, coeffs)
        if not skew_mul(skew_mul(p, h), q).is_zero:
            return False
    return True


def brute_laurent_oracle(ring, endo, p, q):
    """Independent oracle: enumerate EVERY Laurent h with exponents in
    [-period, period), two periods, with unrestricted coefficients and test
    p·h·q = 0 through laurent_skew_mul."""
    period = endo.period
    for coeffs in itertools.product(range(ring.size), repeat=2 * period):
        h = laurent_poly(ring, endo, -period, coeffs)
        if not laurent_skew_mul(laurent_skew_mul(p, h), q).is_zero:
            return False
    return True


def test_monomial_reduction_matches_brute_oracle(z2xz2, swap, gf4, gf4_frob, z4, z4_id):
    pairs = [(z2xz2, swap), (gf4, gf4_frob), (z4, z4_id), (z4, zero_endomorphism(z4))]
    for ring, endo in pairs:
        polys = [
            skew_poly(ring, endo, c)
            for c in itertools.product(range(ring.size), repeat=2)
        ]
        for p in polys:
            for q in polys:
                assert forall_sandwich_zero(p, q) == brute_sandwich_oracle(
                    ring, endo, p, q
                )
    # Laurent polynomials and Laurent series on exponents {-1, 0}: the
    # quantifiers sandwich one period of k, the oracle every h over two
    for ring, endo in pairs[:3]:
        coeffs = list(itertools.product(range(ring.size), repeat=2))
        for cp in coeffs:
            for cq in coeffs:
                expected = brute_laurent_oracle(
                    ring, endo, laurent_poly(ring, endo, -1, cp), laurent_poly(ring, endo, -1, cq)
                )
                assert forall_sandwich_zero_laurent(
                    laurent_poly(ring, endo, -1, cp), laurent_poly(ring, endo, -1, cq)
                ) == expected
                assert forall_sandwich_zero_series(
                    truncated_series(ring, endo, cp, 1, -1), truncated_series(ring, endo, cq, 1, -1)
                ) == expected


# ---------------------------------------------------------------- family

def test_example1_alpha_skew_fails_with_replayable_witness(z2xz2, swap):
    for d in (1, 2):
        verdict = check_armendariz_family(z2xz2, swap, d, P.ALPHA_SKEW_ARMENDARIZ)
        assert not verdict.holds
        replay_witness(z2xz2, swap, verdict.prop, verdict.witness)
    # the documented witness is also a witness (not necessarily the least)
    documented = Witness(
        kind="poly", p_coeffs=(2, 2), q_coeffs=(1, 2), pair=(1, 0), offending=2
    )
    replay_witness(z2xz2, swap, P.ALPHA_SKEW_ARMENDARIZ, documented)


def test_example1_q_alpha_skew_holds(z2xz2, swap):
    assert check_armendariz_family(z2xz2, swap, 2, P.Q_ALPHA_SKEW_ARMENDARIZ).holds


def test_example2_q_alpha_skew_fails_at_degree_one(t_z4, negate_second):
    verdict = check_armendariz_family(t_z4, negate_second, 1, P.Q_ALPHA_SKEW_ARMENDARIZ)
    assert not verdict.holds
    replay_witness(t_z4, negate_second, verdict.prop, verdict.witness)
    # the classical witness p = q = (2,0)+(2,1)x with offending value (0,2)
    classical = Witness(
        kind="poly",
        p_coeffs=(8, 9),
        q_coeffs=(8, 9),
        pair=(1, 0),
        monomial=(4, 1),
        offending=2,
    )
    replay_witness(t_z4, negate_second, P.Q_ALPHA_SKEW_ARMENDARIZ, classical)


def test_specializations_coincide_verdict_for_verdict(z4, z2xz2):
    for ring in (z4, z2xz2):
        ide = identity_endomorphism(ring)
        for d in (0, 1):
            va = check_armendariz_family(ring, ide, d, P.Q_ALPHA_ARMENDARIZ)
            vb = check_armendariz_family(ring, None, d, P.QUASI_ARMENDARIZ)
            assert va.holds == vb.holds and va.witness == vb.witness
            vc = check_armendariz_family(ring, ide, d, P.ALPHA_SKEW_ARMENDARIZ)
            vd = check_armendariz_family(ring, None, d, P.ARMENDARIZ)
            assert vc.holds == vd.holds and vc.witness == vd.witness


def test_degree_zero_terminates_and_matches_direct_check(t_z4, negate_second):
    ring, endo = t_z4, negate_second
    verdict = check_armendariz_family(ring, endo, 0, P.Q_ALPHA_ARMENDARIZ)
    # direct two-element check: hypothesis a r alpha^k(b) = 0 for all r, k
    # already contains the k = 0 conclusion, so degree 0 can never fail
    assert verdict.holds
    for prop in (P.Q_ALPHA_SKEW_ARMENDARIZ, P.ALPHA_QUASI_ARMENDARIZ, P.ARMENDARIZ):
        assert check_armendariz_family(ring, endo, 0, prop).holds


def test_monotonicity_of_failure(t_z4, negate_second):
    v1 = check_armendariz_family(t_z4, negate_second, 1, P.Q_ALPHA_SKEW_ARMENDARIZ)
    v2 = check_armendariz_family(t_z4, negate_second, 2, P.Q_ALPHA_SKEW_ARMENDARIZ)
    assert not v1.holds and not v2.holds
    # no witness lives in the blocks scanned before (deg 1, deg 1)
    assert v1.witness == v2.witness


def test_holding_verdicts_are_downward_monotone(z2xz2, swap):
    assert check_armendariz_family(z2xz2, swap, 2, P.Q_ALPHA_SKEW_ARMENDARIZ).holds
    for d in (0, 1):
        assert check_armendariz_family(z2xz2, swap, d, P.Q_ALPHA_SKEW_ARMENDARIZ).holds


def test_pruning_agrees_across_deciders_with_period_four_twist():
    # the 25-element extension with a period-4 twist exercises multi-residue
    # subtree pruning in the Laurent and series scanners
    from skewarm.corpus import entry_by_name

    entry = entry_by_name("example3_analogue")
    ring, alpha = entry.ring, entry.endo
    vp = check_armendariz_family(ring, alpha, 1, P.Q_ALPHA_SKEW_ARMENDARIZ)
    vl = check_laurent_q_alpha_skew(ring, alpha, (0, 1, 0, 1))
    vs = check_powerseries_q_alpha_skew(ring, alpha, 2)
    assert vp.holds == vl.holds == vs.holds


def test_zero_endomorphism_separates_skew_from_twist_quantified(z4):
    ze = zero_endomorphism(z4)
    assert check_armendariz_family(z4, ze, 1, P.Q_ALPHA_SKEW_ARMENDARIZ).holds
    verdict = check_armendariz_family(z4, ze, 1, P.ALPHA_QUASI_ARMENDARIZ)
    assert not verdict.holds
    # p = x annihilates nothing at twist 0: a_1 R alpha^0(b_0) = R
    assert verdict.witness.p_coeffs == (0, 1)
    assert verdict.witness.monomial[1] == 0
    replay_witness(z4, ze, P.ALPHA_QUASI_ARMENDARIZ, verdict.witness)


def test_alpha_quasi_exponent_window_is_exact(z2xz2, swap):
    # reduced ring with an automorphism: both quasi variants hold
    assert check_armendariz_family(z2xz2, swap, 1, P.ALPHA_QUASI_ARMENDARIZ).holds


def test_budget_guard(t_z4, negate_second):
    with pytest.raises(BudgetExceededError) as err:
        check_armendariz_family(t_z4, negate_second, 9, P.Q_ALPHA_SKEW_ARMENDARIZ)
    assert err.value.space == 16**20
    with pytest.raises(BudgetExceededError):
        check_armendariz_family(
            t_z4, negate_second, 1, P.Q_ALPHA_SKEW_ARMENDARIZ, budget=10
        )


# ---------------------------------------------------------------- laurent

def test_laurent_window_zero_matches_plain(t_z4, negate_second, z2xz2, swap):
    for ring, endo in ((t_z4, negate_second), (z2xz2, swap)):
        vp = check_armendariz_family(ring, endo, 1, P.Q_ALPHA_SKEW_ARMENDARIZ)
        vl = check_laurent_q_alpha_skew(ring, endo, (0, 1, 0, 1))
        assert vp.holds == vl.holds
        if not vl.holds:
            replay_witness(ring, endo, P.LAURENT_Q_ALPHA_SKEW, vl.witness)


def test_laurent_window_with_negative_exponents_fails_on_example2(t_z4, negate_second):
    verdict = check_laurent_q_alpha_skew(t_z4, negate_second, (1, 1, 1, 1))
    assert not verdict.holds
    replay_witness(t_z4, negate_second, verdict.prop, verdict.witness)


def test_laurent_requires_automorphism(z4):
    from skewarm import RingError

    with pytest.raises(RingError):
        check_laurent_q_alpha_skew(z4, zero_endomorphism(z4), (1, 1, 1, 1))


def test_laurent_vacuous_on_zero_ring():
    z1 = make_zmod(1)
    ide = identity_endomorphism(z1)
    assert check_laurent_q_alpha_skew(z1, ide, (1, 1, 1, 1)).holds


# ---------------------------------------------------------------- series

def test_series_at_order_d_plus_one_reproduces_polynomial_verdicts(
    z4, z4_id, z2xz2, swap, t_z4, negate_second
):
    for ring, endo in ((z4, z4_id), (z2xz2, swap), (t_z4, negate_second)):
        for order in (1, 2):
            vs = check_powerseries_q_alpha_skew(ring, endo, order)
            vf = check_armendariz_family(
                ring, endo, order - 1, P.Q_ALPHA_SKEW_ARMENDARIZ
            )
            assert vs.holds == vf.holds


def test_series_fails_on_example2_and_replays(t_z4, negate_second):
    verdict = check_powerseries_q_alpha_skew(t_z4, negate_second, 2)
    assert not verdict.holds
    assert verdict.envelope.truncation == 2
    replay_witness(t_z4, negate_second, verdict.prop, verdict.witness)


def test_series_on_zero_ring_holds_for_all_orders():
    z1 = make_zmod(1)
    ide = identity_endomorphism(z1)
    for order in (1, 2, 3):
        assert check_powerseries_q_alpha_skew(z1, ide, order).holds


def test_laurent_series_variant(z2xz2, swap, t_z4, negate_second):
    assert check_powerseries_q_alpha_skew(z2xz2, swap, 2, laurent=True).holds
    verdict = check_powerseries_q_alpha_skew(t_z4, negate_second, 2, laurent=True)
    assert not verdict.holds
    assert verdict.witness.p_min == -1
    replay_witness(t_z4, negate_second, verdict.prop, verdict.witness)


# ---------------------------------------------------------------- chains

def test_chain_base_cases(z4, z4_id):
    p = skew_poly(z4, z4_id, [2, 2])
    assert twisted_chain_product([p, p], [0, 1]).index == 0
    three = [p, p, p]
    assert (p * p * p).is_zero
    for idxs in itertools.product(range(2), repeat=3):
        assert twisted_chain_product(three, list(idxs)).index == 0


def test_chain_matches_skew_conclusion(gf4, gf4_frob):
    p = skew_poly(gf4, gf4_frob, [2, 3])
    q = skew_poly(gf4, gf4_frob, [1, 2])
    got = twisted_chain_product([p, q], [1, 1])
    assert got.index == gf4.mul(3, gf4_frob.power_apply(1, 2))


def test_chain_index_out_of_range(z4, z4_id):
    p = skew_poly(z4, z4_id, [2, 2])
    from skewarm import RingError

    with pytest.raises(RingError):
        twisted_chain_product([p], [5])


# ---------------------------------------------------------------- replay

def test_replay_rejects_tampered_offending_value(t_z4, negate_second):
    good = Witness(
        kind="poly", p_coeffs=(8, 9), q_coeffs=(8, 9), pair=(1, 0),
        monomial=(4, 1), offending=2,
    )
    replay_witness(t_z4, negate_second, P.Q_ALPHA_SKEW_ARMENDARIZ, good)
    bad = Witness(
        kind="poly", p_coeffs=(8, 9), q_coeffs=(8, 9), pair=(1, 0),
        monomial=(4, 1), offending=0,
    )
    with pytest.raises(ReplayMismatch):
        replay_witness(t_z4, negate_second, P.Q_ALPHA_SKEW_ARMENDARIZ, bad)


def test_replay_rejects_wrong_exponent(t_z4, negate_second):
    wrong = Witness(
        kind="poly", p_coeffs=(8, 9), q_coeffs=(8, 9), pair=(1, 0),
        monomial=(4, 0), offending=2,
    )
    with pytest.raises(ReplayMismatch):
        replay_witness(t_z4, negate_second, P.Q_ALPHA_SKEW_ARMENDARIZ, wrong)


def test_replay_rejects_wrong_recorded_domain_and_rigid_values(z4):
    # 2·2 = 0 in Z4: the value that certifies the zero divisor is 0
    replay_witness(z4, None, P.DOMAIN, Witness(kind="elements", elements=(2, 2), values=(0,)))
    with pytest.raises(ReplayMismatch):
        replay_witness(z4, None, P.DOMAIN, Witness(kind="elements", elements=(2, 2), values=(3,)))
    ze = zero_endomorphism(z4)
    replay_witness(z4, ze, P.RIGID, Witness(kind="elements", elements=(1,), values=(0,)))
    with pytest.raises(ReplayMismatch):
        replay_witness(z4, ze, P.RIGID, Witness(kind="elements", elements=(1,), values=(2,)))


def test_replay_rejects_a_witness_of_another_kind(t_z4, negate_second):
    from skewarm import RingError

    plain = Witness(
        kind="poly", p_coeffs=(8, 9), q_coeffs=(8, 9), pair=(1, 0),
        monomial=(4, 1), offending=2,
    )
    with pytest.raises(RingError, match="kind 'laurent'"):
        replay_witness(t_z4, negate_second, P.LAURENT_Q_ALPHA_SKEW, plain)


def test_replay_rejects_out_of_range_indices(t_z4, negate_second):
    from skewarm import RingError

    broken = Witness(
        kind="poly", p_coeffs=(8, 99), q_coeffs=(8, 9), pair=(1, 0),
        monomial=(4, 1), offending=2,
    )
    with pytest.raises(RingError):
        replay_witness(t_z4, negate_second, P.Q_ALPHA_SKEW_ARMENDARIZ, broken)


def test_check_property_dispatch(z2xz2, swap):
    assert check_property(z2xz2, None, P.REDUCED).holds
    assert check_property(z2xz2, swap, P.RIGID).holds is False
    assert check_property(z2xz2, swap, P.Q_ALPHA_SKEW_ARMENDARIZ, degree=1).holds
    assert check_property(z2xz2, swap, P.LAURENT_Q_ALPHA_SKEW, window=(0, 1, 0, 1)).holds
    assert check_property(z2xz2, swap, P.POWERSERIES_Q_ALPHA_SKEW, truncation=2).holds
    from skewarm import RingError

    with pytest.raises(RingError):
        check_property(z2xz2, swap, P.Q_ALPHA_SKEW_ARMENDARIZ)  # missing degree


# ---------------------------------------------------------------- the twist rule

# the properties of the paper that ignore α; every other one reads (R, α)
IGNORE_ALPHA = {
    P.REDUCED, P.DOMAIN, P.COMMUTATIVE, P.SEMICOMMUTATIVE, P.REVERSIBLE,
    P.SYMMETRIC, P.ARMENDARIZ, P.QUASI_ARMENDARIZ,
}
ENVELOPES = {
    P.LAURENT_Q_ALPHA_SKEW: {"window": (0, 1, 0, 1)},
    P.POWERSERIES_Q_ALPHA_SKEW: {"truncation": 2},
    P.LAURENT_POWERSERIES_Q_ALPHA_SKEW: {"truncation": 1},
}


def _envelope(prop):
    return {} if prop in ELEMENT_PROPERTIES else ENVELOPES.get(prop, {"degree": 1})


def _refusal(call) -> str:
    from skewarm import RingError

    with pytest.raises(RingError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("prop", list(P), ids=lambda p: p.value)
def test_check_and_replay_read_alpha_by_one_rule(t_z4, negate_second, swap, prop):
    # example2 with its own twist, with none, and with the swap of Z2 × Z2:
    # a property that reads α refuses the last two, in check and replay
    # alike; the others decide and replay as with example2's own twist
    envelope = _envelope(prop)
    own = check_property(t_z4, negate_second, prop, **envelope)
    for alpha, message in (
        (None, f"{prop.value} needs an endomorphism"),
        (swap, "endomorphism is not over the given ring"),
    ):
        if prop in IGNORE_ALPHA:
            verdict = check_property(t_z4, alpha, prop, **envelope)
            assert (verdict.holds, verdict.witness) == (own.holds, own.witness)
            if not own.holds:
                replay_witness(t_z4, alpha, prop, own.witness)
            continue
        assert _refusal(lambda: check_property(t_z4, alpha, prop, **envelope)) == message
        if not own.holds:
            assert _refusal(lambda: replay_witness(t_z4, alpha, prop, own.witness)) == message


def test_deciders_that_read_alpha_refuse_none(z4):
    assert _refusal(lambda: check_laurent_q_alpha_skew(z4, None, (1, 1, 1, 1))) == (
        "laurent-q-alpha-skew needs an endomorphism"
    )
    assert _refusal(lambda: check_powerseries_q_alpha_skew(z4, None, 2)) == (
        "powerseries-q-alpha-skew needs an endomorphism"
    )
    assert _refusal(lambda: check_powerseries_q_alpha_skew(z4, None, 2, laurent=True)) == (
        "laurent-powerseries-q-alpha-skew needs an endomorphism"
    )
    assert _refusal(lambda: is_rigid(z4, None)) == "rigid needs an endomorphism"


def test_rigid_replay_refuses_a_twist_over_another_ring(z4, z4_id):
    # 2·2 = 0 in Z4: the least witness under the identity is r = 2, which
    # indexes past the identity of Z2 and which the zero map of Z8 kills
    witness = is_rigid(z4, z4_id).witness
    assert witness.elements == (2,)
    for foreign in (identity_endomorphism(make_zmod(2)), zero_endomorphism(make_zmod(8))):
        assert _refusal(lambda: replay_witness(z4, foreign, P.RIGID, witness)) == (
            "endomorphism is not over the given ring"
        )
