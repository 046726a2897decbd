from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazurtate.curves import curve_by_label
from mazurtate.modsym import (
    CalibrationError,
    NotNewformError,
    build_space,
    calibrate_periods,
    cusp_count,
    eigen_symbol,
    genus_x0,
    merel_matrices,
    unimodular_path,
    unimodular_path_hj,
    vec_mat,
)
from mazurtate.nt import primes_up_to
from mazurtate.theta import eigen_pair, theta_element


@pytest.mark.parametrize("N,dim", [(11, 3), (37, 5), (15, 5)])
def test_dimension_examples(N, dim):
    assert build_space(N).dimension == dim


@pytest.mark.parametrize("N", range(1, 51))
def test_dimension_formula_all_levels(N):
    space = build_space(N)
    assert space.dimension == 2 * genus_x0(N) + cusp_count(N) - 1


@pytest.mark.parametrize("N", range(1, 51))
def test_manin_relations_annihilate_generators(N):
    space = build_space(N)
    zero = (Fraction(0),) * space.dimension
    for i, (c, d) in enumerate(space.p1_reps):
        r_i = space.reduction[i]
        r_s = space.reduction[space.p1_index(d, -c)]
        assert tuple(a + b for a, b in zip(r_i, r_s)) == zero
        r_t = space.reduction[space.p1_index(d, -c - d)]
        r_t2 = space.reduction[space.p1_index(-c - d, c)]
        assert tuple(a + b + e for a, b, e in zip(r_i, r_t, r_t2)) == zero


@pytest.mark.parametrize("N", [11, 15, 37])
def test_hecke_commutativity(N):
    space = build_space(N)
    good = [ell for ell in (2, 3, 5, 7) if N % ell != 0]
    mats = {ell: space.hecke_matrix(ell) for ell in good}
    from mazurtate.modsym import mat_mul

    for i, l1 in enumerate(good):
        for l2 in good[i + 1 :]:
            assert mat_mul(mats[l1], mats[l2]) == mat_mul(mats[l2], mats[l1])


def test_hecke_rejects_bad_prime():
    with pytest.raises(ValueError, match="unsupported"):
        build_space(11).hecke_matrix(11)


def test_merel_identity():
    assert list(merel_matrices(1)) == [(1, 0, 0, 1)]


def test_eigenvalue_on_cuspidal_part(c11):
    # T_2 on level 11 has eigenvalue -2 on the newform line
    space = build_space(11)
    plus = eigen_symbol(space, c11, +1)
    t2 = space.hecke_matrix(2)
    assert vec_mat(list(plus.vector), t2) == [-2 * v for v in plus.vector]
    t3 = space.hecke_matrix(3)
    assert vec_mat(list(plus.vector), t3) == [-1 * v for v in plus.vector]


@pytest.mark.parametrize("label,sign", [("37a1", 1), ("11a1", -1), ("11a1", 1), ("37a1", -1)])
def test_eigen_symbol_exists_and_is_eigen(label, sign):
    curve = curve_by_label(label)
    space = build_space(curve.conductor)
    eig = eigen_symbol(space, curve, sign)
    star = space.star_matrix()
    assert vec_mat(list(eig.vector), star) == [sign * v for v in eig.vector]
    for ell in primes_up_to(20):
        if curve.conductor % ell == 0:
            continue
        t = space.hecke_matrix(ell)
        assert vec_mat(list(eig.vector), t) == [curve.ap(ell) * v for v in eig.vector]


def test_eigen_symbol_integrality_and_content(pair11, pair37):
    from math import gcd

    for eig in (*pair11, *pair37):
        values = [
            sum(a * b for a, b in zip(eig.vector, red))
            for red in eig.space.reduction
        ]
        assert all(v.denominator == 1 for v in values)
        content = 0
        for v in values:
            content = gcd(content, v.numerator)
        assert content == 1


def test_t5_reproduces_a5_times_output(pair11, c11):
    plus, _ = pair11
    t5 = plus.space.hecke_matrix(5)
    assert vec_mat(list(plus.vector), t5) == [c11.ap(5) * v for v in plus.vector]


@pytest.mark.parametrize("label", ["11a1", "37a1"])
def test_an_multiplicativity_against_hecke_eigenvalues(label):
    # the q-expansion recursion for a_n must agree with the direct T_n
    # eigenvalue on the eigen-symbol, composite n included
    curve = curve_by_label(label)
    space = build_space(curve.conductor)
    plus = eigen_symbol(space, curve, +1)
    for n in range(1, 21):
        if __import__("math").gcd(n, curve.conductor) != 1:
            continue
        tn = space.hecke_matrix(n)
        assert vec_mat(list(plus.vector), tn) == [
            curve.an(n) * v for v in plus.vector
        ]


def test_symbol_values(pair11, pair37):
    plus37, _ = pair37
    assert plus37.value(0) == 0  # rank > 0 forces L(E,1) = 0
    plus11, minus11 = pair11
    r = Fraction(3, 13)
    assert plus11.value(r) == plus11.value(-r)
    assert minus11.value(r) == -minus11.value(-r)
    assert plus11.value(None) == 0  # {i oo -> i oo}


@pytest.mark.parametrize(
    "r", [Fraction(0), Fraction(1, 2), Fraction(3, 7), Fraction(-5, 11), Fraction(22, 7)]
)
def test_path_independence(r, pair11):
    plus, _ = pair11
    space = plus.space
    v1 = space.path_vector(r, unimodular_path)
    v2 = space.path_vector(r, unimodular_path_hj)
    assert v1 == v2


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["11a1", "37a1"]),
    st.sampled_from([0, 1]),
    st.integers(-400, 400),
    st.integers(1, 400),
)
def test_table_values_match_homology_classes(label, part, a, b):
    # the integer table summed along either path equals the eigen vector
    # paired with the dense class of {i.infinity -> a/b}
    sym = eigen_pair(curve_by_label(label))[part]
    space = sym.space
    r = Fraction(a, b)
    for decomp in (unimodular_path, unimodular_path_hj):
        dense = sum(v * w for v, w in zip(sym.vector, space.path_vector(r, decomp)))
        assert sum(sym.table[space.p1_index(c, d)] for c, d in decomp(r)) == dense
        assert sym.raw_value(r) == dense


def test_unimodular_paths_are_unimodular():
    for r in (Fraction(17, 60), Fraction(-9, 31)):
        for decomp in (unimodular_path, unimodular_path_hj):
            syms = decomp(r)
            assert syms  # nonempty and each (c : d) has det-1 witness by construction


def test_oldform_collision_raises():
    # 11a1 viewed at level 22 would be an oldform; build a fake curve with
    # conductor 22 carrying 11a1's eigenvalues to trigger the check
    from mazurtate.curves import CurveData

    fake = CurveData("fake22", (0, -1, 1, -10, -20), 22)
    space = build_space(22)
    with pytest.raises((NotNewformError, ValueError)):
        eigen_symbol(space, fake, +1)


def test_calibration_11a1(pair11, c11):
    plus, _ = pair11
    lam = calibrate_periods(plus, c11)
    assert lam * plus.raw_value(0) == Fraction(1, 5)
    calibrated = plus.calibrated(lam)
    assert calibrated.scaling_mode == "period-calibrated"
    assert calibrated.value(0) == Fraction(1, 5)
    assert plus.scaling_mode == "integral-normalized" and plus.value(0) == 2
    # covariance: scaling the integral vector by 2 halves lambda
    from dataclasses import replace

    doubled = replace(
        plus,
        vector=tuple(2 * v for v in plus.vector),
        table=tuple(2 * v for v in plus.table),
    )
    lam2 = calibrate_periods(doubled, c11)
    assert lam2 == lam / 2


def test_eigen_symbols_are_frozen(pair11):
    plus, _ = pair11
    for name in ("table", "scale", "scaling_mode"):
        with pytest.raises(FrozenInstanceError):
            setattr(plus, name, None)


def test_calibration_leaves_shared_symbols_alone(c11):
    # calibration makes a new symbol; the cached one that every later
    # caller shares stays integral-normalized
    from mazurtate.kurihara import kurihara_number, sieve_admissible

    plus = eigen_pair(c11)[0]
    plus.calibrated(calibrate_periods(plus, c11))
    fresh = curve_by_label("11a1")
    assert eigen_pair(fresh)[0].scaling_mode == "integral-normalized"
    assert theta_element(fresh, 1).element.coeffs[0] == 2
    aset = sieve_admissible(fresh, 3, 1, 200)
    assert kurihara_number(fresh, 1, 3, 1, aset).value.residue == 2


def test_calibration_37a1_undetermined(pair37, c37):
    plus, _ = pair37
    with pytest.raises(CalibrationError, match="undetermined"):
        calibrate_periods(plus, c37)
