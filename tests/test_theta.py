from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazurtate.curves import curve_by_label
from mazurtate.groupring import quadratic_character
from mazurtate.nt import primes_up_to, units_mod
from mazurtate.theta import (
    adjudicate_norm_relations,
    check_norm_relation,
    integrality_report,
    theta_element,
    twisted_lvalue_avatar,
)


def test_theta_trivial_level(c37, c11, pair37, pair11):
    assert theta_element(c37, 1, pair37).is_zero()  # rank 1 forces L(E,1) = 0
    th = theta_element(c11, 1, pair11)
    assert not th.is_zero()
    # the minus part of r = 0 vanishes
    assert th.minus.coeffs[0] == 0


def test_theta_mod2_is_single_coefficient(c11, pair11):
    th = theta_element(c11, 2, pair11)
    assert list(th.element.coeffs) == [1]
    assert th.element.coeffs[1] == pair11[0].value(Fraction(1, 2)) + pair11[1].value(
        Fraction(1, 2)
    )


def test_theta_mod5_augmentation_matches_norm_relation(c11, pair11):
    # eval at the trivial character must be consistent with the ell = 5
    # relation pi(theta_5) = (a_5 - 2) theta_1, both sides independent
    th5 = theta_element(c11, 5, pair11)
    th1 = theta_element(c11, 1, pair11)
    lhs = th5.augmentation()
    a5 = c11.ap(5)
    assert lhs == (a5 - 2) * th1.element.coeffs[0]


@pytest.mark.parametrize("M", range(1, 31))
def test_conjugation_covariance(M, c11, pair11):
    th = theta_element(c11, M, pair11)
    for a in units_mod(M):
        assert th.element.coeffs[(-a) % M if M > 1 else 0] == (
            th.plus.coeffs[a] - th.minus.coeffs[a]
        )


@pytest.mark.parametrize("M", [1, 4, 7, 12])
def test_augmentation_is_trivial_character_value(M, c11, pair11):
    from mazurtate.groupring import eval_character, trivial_character

    th = theta_element(c11, M, pair11)
    assert eval_character(th.element, trivial_character(M)).rational_value() == (
        th.augmentation()
    )


def test_norm_relation_examples(c11, pair11):
    r1 = check_norm_relation(c11, 1, 3, pair11)
    r2 = check_norm_relation(c11, 1, 7, pair11)
    assert r1.status == "A" and r2.status == "A"
    r3 = check_norm_relation(c11, 3, 3, pair11)
    assert r3.branch == "ell | M" and r3.status == "A"


def test_norm_relation_vacuous_case(c37, pair37):
    # theta_Q(37a1) = 0 makes both variants hold trivially at M = 1
    rep = check_norm_relation(c37, 1, 3, pair37)
    assert rep.status == "indeterminate"


def test_adjudication_small_sweep(c11, c37):
    summary = adjudicate_norm_relations([c11, c37], max_product=40)
    assert summary.consistent and summary.variant == "A"
    assert all(r.status in ("A", "indeterminate") for r in summary.reports)
    assert any(r.status == "A" for r in summary.reports)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["11a1", "37a1"]), st.data())
def test_norm_relation_holds_on_random_good_pairs(label, data):
    # variant A: pi(theta_{M ell}) = (a_ell - sigma_ell - sigma_ell^-1) theta_M
    # for ell not dividing M, a_ell theta_M - nu(theta_{M/ell}) otherwise
    curve = curve_by_label(label)
    ell = data.draw(st.sampled_from([l for l in primes_up_to(400) if curve.conductor % l]))
    M = data.draw(st.integers(1, 400 // ell))
    rep = check_norm_relation(curve, M, ell)
    assert rep.variant_a_holds and rep.witness_a is None
    assert rep.branch == ("ell | M" if M % ell == 0 else "ell good")


def test_twisted_avatar_matches_direct_sum(c11, pair11):
    chi = quadratic_character(5)
    tv = twisted_lvalue_avatar(c11, chi, pair11)
    th5 = theta_element(c11, 5, pair11)
    direct = None
    for a in units_mod(5):
        term = chi(a) * th5.element.coeffs[a]
        direct = term if direct is None else direct + term
    assert tv.value == direct
    assert tv.parity == 1 and tv.omega_sign() == "+"


def test_twisted_avatar_trivial_character(c11, pair11):
    from mazurtate.groupring import trivial_character

    tv = twisted_lvalue_avatar(c11, trivial_character(1), pair11)
    assert tv.value.rational_value() == theta_element(c11, 1, pair11).element.coeffs[0]


def test_twisted_avatar_conjugate_characters(c11, pair11):
    from mazurtate.groupring import all_characters

    chi = next(c for c in all_characters(5) if c.order() == 4)
    v1 = twisted_lvalue_avatar(c11, chi, pair11).value
    v2 = twisted_lvalue_avatar(c11, chi.conjugate(), pair11).value
    assert v1.conj() == v2  # coefficients are rational


def test_integrality_reports(c11, c37, pair11, pair37):
    assert integrality_report(c11, 3, 2, pair11).p_integral
    assert integrality_report(c11, 5, 1, pair11).p_integral
    assert integrality_report(c37, 3, 1, pair37).p_integral


def test_integrality_sees_calibration_denominator(c11):
    # in period-calibrated mode the 11a1 scalar is 1/10, so p = 5 sees
    # one power of 5 in the denominators
    from mazurtate.modsym import calibrate_periods
    from mazurtate.theta import eigen_pair

    plus, minus = eigen_pair(c11)
    lam = calibrate_periods(plus, c11)
    rep = integrality_report(c11, 5, 1, (plus.calibrated(lam), minus.calibrated(lam)))
    assert not rep.p_integral
    assert rep.clearing_exponent == 1
    assert rep.scaling_mode == "period-calibrated"


def test_caches_keyed_by_curve_model_not_label(tmp_path, c11, c37, pair11):
    # a catalog reusing the label 11a1 for the 37a1 model must see 37a1's
    # symbols, not the ones cached for the real 11a1
    from mazurtate.curves import curve_by_label
    from mazurtate.theta import adjudicated_variant, eigen_pair

    assert theta_element(c11, 1, pair11).element.coeffs[0] == 2
    assert adjudicated_variant(c11) == "A"
    catalog = tmp_path / "curves.cat"
    catalog.write_text("11a1 [0,0,1,-1,0] 37 +\n")
    impostor = curve_by_label("11a1", catalog)
    assert theta_element(impostor, 1).is_zero()
    assert eigen_pair(impostor) == eigen_pair(c37)
    assert theta_element(impostor, 7).element == theta_element(c37, 7).element
    assert adjudicated_variant(impostor) == "A"


@pytest.mark.parametrize("M, ell, witness_b", [(2, 2, (1, 14, 12)), (3, 2, (1, 12, 14))])
def test_norm_relation_sides_stay_integral(c11, pair11, M, ell, witness_b):
    # a_ell and ell scale the integer theta elements as ints, not Fractions
    rep = check_norm_relation(c11, M, ell, pair11)
    assert rep.status == "A" and rep.witness_b == witness_b
    assert all(type(v) is int for v in rep.witness_b)
