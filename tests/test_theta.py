import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from groupring_oracle import quadratic_character
from lvalue_oracle import omega_sign

from mazurtate.checks import norm_relations
from mazurtate.curves import curve_by_label
from mazurtate.groupring import norm_map, project
from mazurtate.nt import primes_up_to, units_mod
from mazurtate.theta import (
    check_norm_relation,
    integrality_report,
    theta_element,
    twisted_lvalue_avatar,
)


def test_theta_trivial_level(c37, c11):
    assert theta_element(c37, 1).is_zero()  # rank 1 forces L(E,1) = 0
    th = theta_element(c11, 1)
    assert not th.is_zero()
    # the minus part of r = 0 vanishes
    assert th.minus.coeffs[0] == 0


def test_theta_mod2_is_single_coefficient(c11, pair11):
    th = theta_element(c11, 2)
    assert list(th.element.coeffs) == [1]
    assert th.element.coeffs[1] == pair11[0].value(Fraction(1, 2)) + pair11[1].value(
        Fraction(1, 2)
    )


def test_theta_mod5_augmentation_matches_norm_relation(c11):
    # eval at the trivial character must be consistent with the ell = 5
    # relation pi(theta_5) = (a_5 - 2) theta_1, both sides independent
    th5 = theta_element(c11, 5)
    th1 = theta_element(c11, 1)
    lhs = th5.augmentation()
    a5 = c11.ap(5)
    assert lhs == (a5 - 2) * th1.element.coeffs[0]


@pytest.mark.parametrize("M", range(1, 31))
def test_conjugation_covariance(M, c11):
    th = theta_element(c11, M)
    for a in units_mod(M):
        assert th.element.coeffs[(-a) % M if M > 1 else 0] == (
            th.plus.coeffs[a] - th.minus.coeffs[a]
        )


@pytest.mark.parametrize("M", [1, 4, 7, 12])
def test_augmentation_is_trivial_character_value(M, c11):
    from mazurtate.groupring import eval_character, trivial_character

    th = theta_element(c11, M)
    assert eval_character(th.element, trivial_character(M)).rational_value() == (
        th.augmentation()
    )


def ell_scaled_relation_holds(curve, M, ell):
    """pi(theta_{M ell}) = a_ell theta_M - (sigma_ell + ell sigma_ell^-1) theta_M,
    or a_ell theta_M - ell nu(theta_{M/ell}) when ell | M: the Mazur-Tate
    right side moved by (ell - 1) times its last term."""
    lhs = project(theta_element(curve, M * ell).element, M)
    theta_m = theta_element(curve, M).element
    head = theta_m.scale(curve.ap(ell))
    if M % ell == 0:
        tail = norm_map(theta_element(curve, M // ell).element, M)
    else:
        head = head - theta_m.sigma_shift(ell)
        tail = theta_m.sigma_shift(pow(ell, -1, M))
    return lhs == head - tail.scale(ell)


def test_norm_relation_examples(c11):
    for M, ell in (1, 3), (1, 7):
        rep = check_norm_relation(c11, M, ell)
        assert rep.branch == "ell good" and rep.holds and not rep.vacuous
    r3 = check_norm_relation(c11, 3, 3)
    assert r3.branch == "ell | M" and r3.holds and not r3.vacuous
    # where the last term is not 0, the ell-scaled relation fails
    for M, ell in (1, 3), (1, 7), (3, 3):
        assert not ell_scaled_relation_holds(c11, M, ell)


def test_norm_relation_vacuous_case(c37):
    # theta_Q(37a1) = 0: the last term sigma_3^{-1} theta_1 vanishes at M = 1
    rep = check_norm_relation(c37, 1, 3)
    assert rep.holds and rep.vacuous and rep.witness is None
    assert ell_scaled_relation_holds(c37, 1, 3)


def test_adjudication_small_sweep():
    outputs, (check,) = norm_relations(40)
    assert outputs == {"variant": "A"} and check.status == "pass"
    counts = re.search(r"(\d+) non-vacuous cases \(of (\d+)\)", check.name)
    non_vacuous, cases = map(int, counts.groups())
    assert 0 < non_vacuous < cases


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["11a1", "37a1"]), st.data())
def test_norm_relation_holds_on_random_good_pairs(label, data):
    # Mazur-Tate: pi(theta_{M ell}) = (a_ell - sigma_ell - sigma_ell^-1) theta_M
    # for ell not dividing M, a_ell theta_M - nu(theta_{M/ell}) otherwise
    curve = curve_by_label(label)
    ell = data.draw(st.sampled_from([l for l in primes_up_to(400) if curve.conductor % l]))
    M = data.draw(st.integers(1, 400 // ell))
    rep = check_norm_relation(curve, M, ell)
    assert rep.holds and rep.witness is None
    assert rep.branch == ("ell | M" if M % ell == 0 else "ell good")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["11a1", "37a1"]), st.data())
def test_ell_scaled_relation_holds_only_on_vacuous_cases(label, data):
    curve = curve_by_label(label)
    ell = data.draw(st.sampled_from([l for l in primes_up_to(400) if curve.conductor % l]))
    M = data.draw(st.integers(1, 400 // ell))
    rep = check_norm_relation(curve, M, ell)
    assert rep.holds
    assert ell_scaled_relation_holds(curve, M, ell) == rep.vacuous


def test_twisted_avatar_matches_direct_sum(c11):
    chi = quadratic_character(5)
    tv = twisted_lvalue_avatar(c11, chi)
    th5 = theta_element(c11, 5)
    direct = None
    for a in units_mod(5):
        term = chi(a) * th5.element.coeffs[a]
        direct = term if direct is None else direct + term
    assert tv.value == direct
    assert tv.parity == 1 and omega_sign(tv) == "+"


def test_twisted_avatar_trivial_character(c11):
    from mazurtate.groupring import trivial_character

    tv = twisted_lvalue_avatar(c11, trivial_character(1))
    assert tv.value.rational_value() == theta_element(c11, 1).element.coeffs[0]


def test_twisted_avatar_conjugate_characters(c11):
    from mazurtate.groupring import all_characters

    chi = next(c for c in all_characters(5) if c.order() == 4)
    v1 = twisted_lvalue_avatar(c11, chi).value
    v2 = twisted_lvalue_avatar(c11, chi.conjugate()).value
    assert v1.conj() == v2  # coefficients are rational


def test_integrality_reports(c11, c37):
    assert integrality_report(c11, 3, 2).p_integral
    assert integrality_report(c11, 5, 1).p_integral
    assert integrality_report(c37, 3, 1).p_integral


def test_integrality_sees_calibration_denominator(c11):
    # with the 11a1 scalar 1/10 on the plus part, p = 5 sees one power of 5
    # in the denominators of lam theta^+ + theta^-
    from mazurtate.modsym import calibrate_periods
    from mazurtate.theta import eigen_pair

    lam = calibrate_periods(eigen_pair(c11)[0], c11)
    assert lam == Fraction(1, 10)
    rep = integrality_report(c11, 5, 1, lam)
    assert not rep.p_integral
    assert rep.clearing_exponent == 1
    assert rep.scaling_mode == "plus period-calibrated, minus integral-normalized"
    assert integrality_report(c11, 5, 1).scaling_mode == "integral-normalized"


def test_caches_keyed_by_curve_model_not_label(tmp_path, c11, c37):
    # a catalog reusing the label 11a1 for the 37a1 model must see 37a1's
    # symbols, not the ones cached for the real 11a1
    from mazurtate.curves import curve_by_label
    from mazurtate.theta import eigen_pair

    assert theta_element(c11, 1).element.coeffs[0] == 2
    catalog = tmp_path / "curves.cat"
    catalog.write_text("11a1 [0,0,1,-1,0] 37 +\n")
    impostor = curve_by_label("11a1", catalog)
    assert theta_element(impostor, 1).is_zero()
    assert eigen_pair(impostor) == eigen_pair(c37)
    assert theta_element(impostor, 7).element == theta_element(c37, 7).element


def test_theta_cache_hit_hashes_no_symbol_table(monkeypatch, c11):
    # a hit compares the symbol pair by identity, so it never hashes a table
    from mazurtate.modsym import EigenSymbol

    def unhashable(self):
        raise AssertionError("a theta cache hit hashed an eigen-symbol")

    first = theta_element(c11, 13)
    monkeypatch.setattr(EigenSymbol, "__hash__", unhashable)
    assert theta_element(c11, 13) is first


@pytest.mark.parametrize("M", [1, 2, 3])
def test_norm_relation_fails_on_a_wrong_a_ell(tmp_path, c11, M):
    # a_23 = 0 passes the Hasse bound but 11a1 has a_23 = -1; 23 is above
    # the Hecke bound, so the symbols are 11a1's own and the sides differ
    # by (a_23 - 0) theta_M, read at the first unit where theta_M is not 0
    catalog = tmp_path / "curves.cat"
    catalog.write_text("11a1 [0,-1,1,-10,-20] 11 - rank=0 ap=23:0\n")
    rep = check_norm_relation(curve_by_label("11a1", catalog), M, 23)
    assert not rep.holds
    unit, lhs, rhs = rep.witness
    assert all(type(v) is int for v in rep.witness)
    assert lhs - rhs == c11.ap(23) * theta_element(c11, M).coefficient(unit) != 0
