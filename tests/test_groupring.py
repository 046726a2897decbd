import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from groupring_oracle import quadratic_character, unit_decompose

from mazurtate.arith import CycElt, ModulusMismatch, cyc_embed
from mazurtate.groupring import (
    GroupRingElement,
    _primitive_core,
    all_characters,
    eval_character,
    gauss_sum,
    kolyvagin_derivative,
    norm_map,
    project,
    telescoping_check,
    trivial_character,
)
from mazurtate.nt import (
    divisors,
    euler_phi,
    is_primitive_root,
    primes_up_to,
    unit_group_generators,
    units_mod,
)


def test_project_identity_element():
    x = GroupRingElement.delta(15, 1)
    assert project(x, 5) == GroupRingElement.delta(5, 1)


def test_project_norm_is_degree():
    x = GroupRingElement.delta(5, 1)
    assert project(norm_map(x, 15), 5) == x.scale(2)  # phi(15)/phi(5) = 2


def test_project_constant_counts_fibers():
    allones = GroupRingElement.group_sum(15)
    proj = project(allones, 5)
    assert all(v == 2 for v in proj.coeffs.values())


def test_norm_map_from_trivial_level():
    nu = norm_map(GroupRingElement(1, {0: 3}), 5)
    assert all(v == 3 for v in nu.coeffs.values())


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_norm_additive_and_degree_property(data):
    m = data.draw(st.sampled_from([2, 3, 4, 5, 6, 7, 9, 10, 12]))
    mult = data.draw(st.sampled_from([2, 3, 5, 7]))
    coeffs_x = {a: data.draw(st.integers(-9, 9)) for a in units_mod(m)}
    coeffs_y = {a: data.draw(st.integers(-9, 9)) for a in units_mod(m)}
    x = GroupRingElement(m, coeffs_x)
    y = GroupRingElement(m, coeffs_y)
    target = m * mult
    assert norm_map(x + y, target) == norm_map(x, target) + norm_map(y, target)
    degree = euler_phi(target) // euler_phi(m)
    assert project(norm_map(x, target), m) == x.scale(degree)


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ({1: 0, 2: 0, 3: 0, 5: 0}, "5 is not a unit mod 5"),
        ({1: 0, 2: 0}, r"coefficients missing for units \[3, 4\]"),
        # 1 and 6 collide mod 5: four keys, three units, so 4 is missing
        ({1: 0, 6: 0, 2: 0, 3: 0}, r"coefficients missing for units \[4\]"),
    ],
    ids=["non-unit", "missing", "colliding"],
)
def test_constructor_refuses_bad_keys(coeffs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GroupRingElement(5, coeffs)


def test_constructor_reduces_keys_mod_m():
    # a key past m counts as its residue; when two collide, the later one wins
    x = GroupRingElement(5, {1: 0, 2: 0, 3: 0, 4: 0, 6: 1, -1: 7})
    assert x.coeffs == {1: 1, 2: 0, 3: 0, 4: 7}


@pytest.mark.parametrize(
    "build",
    [
        lambda: GroupRingElement(0, {}),
        lambda: GroupRingElement(-5, {1: 1, 2: 1, 3: 1, 4: 1}),
        lambda: norm_map(GroupRingElement.delta(5, 1), 0),
        lambda: project(GroupRingElement.delta(5, 1), 0),
        lambda: GroupRingElement.delta(0, 1),
    ],
    ids=["zero", "negative", "norm-to-zero", "project-to-zero", "delta-to-zero"],
)
def test_modulus_below_one_refused(build):
    with pytest.raises(ValueError, match="^modulus must be >= 1$"):
        build()


def test_coefficients_are_ints():
    with pytest.raises(TypeError, match="sigma_2"):
        GroupRingElement(5, {1: 0, 2: Fraction(1, 2), 3: 0, 4: 0})
    with pytest.raises(TypeError):
        GroupRingElement.group_sum(5).scale(Fraction(1, 2))


def test_delta_refuses_non_unit():
    with pytest.raises(ValueError, match="not a unit"):
        GroupRingElement.delta(6, 2)


def test_modulus_mismatch_raises():
    with pytest.raises(ModulusMismatch):
        project(GroupRingElement.delta(15, 1), 4)
    with pytest.raises(ModulusMismatch):
        norm_map(GroupRingElement.delta(15, 1), 20)


# --- characters --------------------------------------------------------------


def test_eval_trivial_character_is_augmentation():
    x = GroupRingElement(5, {1: 2, 2: -1, 3: 7, 4: 1})
    assert eval_character(x, trivial_character(5)) == CycElt.rational(9)
    assert x.augmentation() == 9


def test_eval_character_on_delta():
    chi = quadratic_character(5)
    for a in units_mod(5):
        assert eval_character(GroupRingElement.delta(5, a), chi) == chi(a)


def test_quadratic_orthogonality():
    chi = quadratic_character(5)
    assert eval_character(GroupRingElement.group_sum(5), chi).is_zero()


def test_eval_character_commutes_with_projection():
    chi = quadratic_character(5)
    rng = random.Random(7)
    coeffs = {a: rng.randint(-5, 5) for a in units_mod(15)}
    x = GroupRingElement(15, coeffs)
    assert eval_character(project(x, 5), chi) == eval_character(x, chi)


def _eval_character_oracle(x, chi):
    """sum_a v_a chi_f(a), one CycElt product and add per unit in a common field."""
    L = chi.order()
    chi_f = _primitive_core(chi)
    total = CycElt.zero(L)
    for a, v in x.coeffs.items():
        total = total + cyc_embed(chi_f(a), L) * v
    return total


def _characters_through(m):
    """Every character whose conductor divides m: mod each divisor of m, and mod 2m."""
    chars = [chi for d in divisors(m) for chi in all_characters(d)]
    return chars + [chi for chi in all_characters(2 * m) if m % chi.conductor() == 0]


_CHARACTERS_THROUGH = {m: _characters_through(m) for m in (5, 9, 12, 15, 16, 21)}


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_eval_character_matches_cycelt_sum(data):
    m = data.draw(st.sampled_from(sorted(_CHARACTERS_THROUGH)))
    x = GroupRingElement(m, {a: data.draw(st.integers(-50, 50)) for a in units_mod(m)})
    for chi in _CHARACTERS_THROUGH[m]:
        got, want = eval_character(x, chi), _eval_character_oracle(x, chi)
        assert got == want and got.conductor == want.conductor


def test_gauss_sum_matches_cycelt_sum():
    for d in range(1, 31):
        for chi in all_characters(d):
            if not chi.is_primitive():
                continue
            L = math.lcm(d, chi.order())
            want = CycElt.zero(L)
            for a in units_mod(d):
                want = want + cyc_embed(chi(a), L) * CycElt.zeta(L, a * (L // d))
            got = gauss_sum(chi)
            assert got == want and got.conductor == want.conductor


@pytest.mark.parametrize("m", range(1, 41))
def test_character_table_matches_unit_decomposition(m):
    e = math.lcm(*(order for _, order in unit_group_generators(m)))
    units = units_mod(m)
    for chi in all_characters(m):
        values = {
            a: sum(x * t for x, t in zip(unit_decompose(a, m), chi.exponents)) % e
            for a in units
        }
        assert all(chi.value_exponent(a) == values[a] for a in units)
        assert chi.conductor() == next(
            d for d in divisors(m) if all(values[a] == 0 for a in units if (a - 1) % d == 0)
        )
        core = _primitive_core(chi)
        assert all(core(a) == chi(a) for a in units)
        for a in range(m):
            if math.gcd(a, m) != 1:
                with pytest.raises(ValueError, match="not a unit"):
                    chi(a)


def test_character_parity_and_conductor():
    chi = quadratic_character(5)
    assert chi.parity() == 1  # -1 = 4 is a square mod 5
    chi3 = quadratic_character(3)
    assert chi3.parity() == -1
    # imprimitive character mod 9 of order 2 does not exist; mod 12 exists
    prim = [c for c in all_characters(9) if c.is_primitive()]
    assert len(prim) == 4  # the order-6 and order-3 characters of conductor 9


def test_gauss_sum_quadratic_mod5():
    chi = quadratic_character(5)
    tau = gauss_sum(chi)
    assert tau * tau == CycElt.rational(5, tau.conductor)


@pytest.mark.parametrize("d", range(1, 14))
def test_gauss_sum_conjugate_identity(d):
    for chi in all_characters(d):
        if not chi.is_primitive():
            continue
        prod = gauss_sum(chi) * gauss_sum(chi.conjugate())
        assert prod == CycElt.rational(chi.parity() * d, prod.conductor)


def test_gauss_sum_requires_primitive():
    imprim = next(
        c for c in all_characters(6) if not c.is_primitive() and c.is_trivial()
    )
    with pytest.raises(ValueError, match="primitive"):
        gauss_sum(imprim)


def test_gauss_sum_trivial_modulus():
    assert gauss_sum(trivial_character(1)) == CycElt.one(1)


# --- Kolyvagin derivative -----------------------------------------------------


def test_kolyvagin_derivative_ell3():
    d3 = kolyvagin_derivative(3, 2)
    assert d3.coeffs == {1: Fraction(0), 2: Fraction(1)}


def test_kolyvagin_derivative_ell5_identity():
    d5 = kolyvagin_derivative(5, 2)
    lhs = d5.sigma_shift(2) - d5
    rhs = GroupRingElement.delta(5, 1).scale(4) - GroupRingElement.group_sum(5)
    assert lhs == rhs


def test_kolyvagin_derivative_validates_eta():
    with pytest.raises(ValueError, match="primitive root"):
        kolyvagin_derivative(7, 2)  # 2 has order 3 mod 7


@pytest.mark.parametrize("ell", [ell for ell in primes_up_to(100) if ell > 2])
def test_telescoping_identity_all_primitive_roots(ell):
    etas = [e for e in range(2, ell) if is_primitive_root(e, ell)]
    assert etas
    for eta in etas:
        assert telescoping_check(ell, eta)
