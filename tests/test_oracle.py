import math

import pytest

from mazurtate.oracle import (
    OracleError,
    consistency_check,
    lvalue_and_period,
    real_period,
)


def test_lvalue_11a1(c11):
    oracle = lvalue_and_period(c11)
    assert abs(oracle.normalized - 0.2) < 1e-6
    assert oracle.tail_bound < 1e-10
    assert oracle.real_components == 1


def test_lvalue_37a1_vanishes(c37):
    oracle = lvalue_and_period(c37)
    assert oracle.lvalue == 0.0  # odd functional equation


def test_period_32a_two_components(c32):
    omega, comps = real_period(c32)
    assert comps == 2
    # lemniscatic value: omega_1 = Gamma(1/4)^2 / (2 sqrt(2 pi)) for y^2 = x^3 - x
    lem = math.gamma(0.25) ** 2 / (2 * math.sqrt(2 * math.pi))
    assert abs(omega - 2 * lem) < 1e-9


def test_oracle_refuses_unknown_sign(c11):
    anon = c11._replace(label="anon", fricke_sign=None, ap_cache={})
    with pytest.raises(OracleError, match="refusing"):
        lvalue_and_period(anon)


def test_consistency_flags_flipped_sign(c37, pair37):
    plus = pair37[0]
    honest = lvalue_and_period(c37)
    assert consistency_check(c37, plus.raw_value(0), honest) == "consistent"
    flipped = lvalue_and_period(c37, fricke=-1)
    assert "inconsistency" in consistency_check(c37, plus.raw_value(0), flipped)


@pytest.mark.parametrize("m,expect_exact", [(5, 5), (13, 0)])
def test_twisted_lvalue_closes_the_loop(m, expect_exact, c11, pair11):
    """chi(theta_m), calibrated, equals the numeric tau(chi) L(E,chi,1)/Omega^+.

    The even quadratic twist by m has root number chi(-N) w(E); for
    m = 13 that sign is -1, so both the numeric twisted L-value and the
    exact character sum are forced to vanish.
    """
    from fractions import Fraction

    from mazurtate.groupring import gauss_sum, quadratic_character
    from mazurtate.theta import theta_element

    lam = Fraction(1, 10)  # 11a1 calibration scalar (criterion 2)
    chi = quadratic_character(m)
    assert chi.parity() == 1
    # tau(chi)^2 = m exactly; for m = 1 mod 4 the positive root is correct
    tau_sq = gauss_sum(chi) * gauss_sum(chi)
    assert tau_sq.rational_value() == m
    th = theta_element(c11, m, pair11)
    from mazurtate.groupring import eval_character

    exact = lam * eval_character(th.element, chi).rational_value()
    assert exact == expect_exact

    w_twist = (1 if pow(-c11.conductor % m, (m - 1) // 2, m) == 1 else -1) * 1
    c = 2 * math.pi / math.sqrt(c11.conductor * m * m)
    total = 0.0
    for n in range(1, 4000):
        if n % m == 0:
            continue
        chin = 1 if pow(n % m, (m - 1) // 2, m) == 1 else -1
        total += chin * c11.an(n) / n * math.exp(-c * n)
    numeric_l = (1 + w_twist) * total
    oracle = lvalue_and_period(c11)
    numeric = math.sqrt(m) * numeric_l / oracle.omega_plus
    assert abs(numeric - float(exact)) < 1e-8
