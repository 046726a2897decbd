import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazurtate.arith import (
    CycElt,
    ConductorMismatch,
    NonOrdinaryPrime,
    Rat,
    cyc_embed,
    cyclotomic_polynomial,
    hensel_unit_root,
    reduce_mod_cyclotomic,
)
from mazurtate.nt import divisors, euler_phi

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
).filter(lambda x: True)


def test_rat_is_reduced_with_positive_denominator():
    x = Rat(6, -4)
    assert x.denominator > 0
    assert gcd(abs(x.numerator), x.denominator) == 1
    assert x == Rat(-3, 2)


@given(a=rationals, b=rationals)
@settings(max_examples=100)
def test_rat_field_properties(a, b):
    if b != 0:
        assert (a * b) / b == a
    assert a + (-a) == 0


# --- cyclotomic examples -----------------------------------------------------


def test_cyc_mul_zeta4_squared_is_minus_one():
    z4 = CycElt.zeta(4)
    assert z4 * z4 == CycElt.rational(-1, 4)


def test_cyc_mul_zeta3_squared():
    z3 = CycElt.zeta(3)
    # Phi_3 = x^2 + x + 1, so z^2 = -1 - z
    assert z3 * z3 == CycElt(3, [Fraction(-1), Fraction(-1)])


def test_zeta12_cubed_equals_embedded_zeta4():
    z12 = CycElt.zeta(12)
    lhs = z12**3
    rhs = cyc_embed(CycElt.zeta(4), 12)
    assert lhs == rhs
    # and reduction-oracle sanity: x^3 has degree below phi(12) = 4, so
    # it is its own remainder modulo Phi_12
    assert reduce_mod_cyclotomic([0, 0, 0, 1], 12) == [0, 0, 0, 1]
    assert lhs.coords == (0, 0, 0, 1)


def test_cyc_embed_identity_and_conductor_checks():
    one = CycElt.one(3)
    assert cyc_embed(one, 6) == CycElt.one(6)
    z3 = CycElt.zeta(3)
    z6 = CycElt.zeta(6)
    assert cyc_embed(z3, 6) == z6 * z6
    minus_one = CycElt.rational(-1, 2)
    assert cyc_embed(minus_one, 4) == CycElt.rational(-1, 4)
    with pytest.raises(ConductorMismatch):
        cyc_embed(z3, 4)
    with pytest.raises(ConductorMismatch):
        z3 * CycElt.zeta(4)


small_cyc = st.builds(
    lambda L, coords: CycElt(L, [Fraction(c, 3) for c in coords[: euler_phi(L)]]),
    st.sampled_from([3, 4, 5, 8, 12]),
    st.lists(st.integers(-6, 6), min_size=12, max_size=12),
)


@given(x=small_cyc, y=small_cyc, z=small_cyc)
@settings(max_examples=60, deadline=None)
def test_cyc_mul_commutative_associative(x, y, z):
    L = lcm(x.conductor, lcm(y.conductor, z.conductor))
    x, y, z = cyc_embed(x, L), cyc_embed(y, L), cyc_embed(z, L)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


@given(x=small_cyc, y=small_cyc)
@settings(max_examples=40, deadline=None)
def test_cyc_embed_is_ring_hom(x, y):
    L = lcm(x.conductor, y.conductor)
    target = L * 2
    xe, ye = cyc_embed(x, L), cyc_embed(y, L)
    assert cyc_embed(xe * ye, target) == cyc_embed(xe, target) * cyc_embed(ye, target)
    assert cyc_embed(xe + ye, target) == cyc_embed(xe, target) + cyc_embed(ye, target)


@pytest.mark.parametrize("L", range(1, 31))
def test_zeta_power_and_minimal_polynomial(L):
    z = CycElt.zeta(L)
    assert z**L == CycElt.one(L)
    for j in range(-L, 2 * L):
        assert CycElt.zeta(L, j).coords == tuple(oracle_table(L)[j % L])
    phi = cyclotomic_polynomial(L)
    value = CycElt.zero(L)
    for i, c in enumerate(phi):
        if c:
            value = value + (z**i) * c
    assert value.is_zero()


def test_cyc_inverse_roundtrip():
    x = CycElt.zeta(7, 3) + CycElt.rational(Fraction(2, 5), 7)
    assert x * x.inverse() == CycElt.one(7)
    assert CycElt.zeta(9, 1) * CycElt.zeta(9, 8) == CycElt.one(9)
    assert CycElt.zeta(9, 1).inverse() == CycElt.zeta(9, 8)
    z = CycElt.zeta(9, 1) + CycElt.rational(5, 9)
    assert z.conj() != z and z.conj().conj() == z
    with pytest.raises(ZeroDivisionError):
        CycElt.zero(5).inverse()


# --- the integer kernel against the Fraction power-reduction table ----------


@lru_cache(maxsize=None)
def oracle_table(L: int) -> list[list[Fraction]]:
    """Row j: Fraction coordinates of z^j mod Phi_L, for 0 <= j < max(2 phi(L), L).

    Built by z^j = z * z^{j-1}, eliminating the z^phi term through Phi_L.
    """
    phi = euler_phi(L)
    phi_poly = cyclotomic_polynomial(L)
    rows = []
    for j in range(max(2 * phi, L)):
        if j < phi:
            row = [Fraction(0)] * phi
            row[j] = Fraction(1)
        else:
            row = [Fraction(0)] + rows[j - 1]
            top = row.pop()
            for i in range(phi):
                row[i] -= top * phi_poly[i]
        rows.append(row)
    return rows


def oracle_combine(L: int, terms) -> tuple[Fraction, ...]:
    """sum c z^j over (c, j) pairs, read from the table."""
    table = oracle_table(L)
    out = [Fraction(0)] * euler_phi(L)
    for c, j in terms:
        for i, r in enumerate(table[j % L]):
            out[i] += c * r
    return tuple(out)


def oracle_mul(x: CycElt, y: CycElt) -> tuple[Fraction, ...]:
    return oracle_combine(
        x.conductor,
        [(a * b, i + j) for i, a in enumerate(x.coords) for j, b in enumerate(y.coords)],
    )


@st.composite
def same_field(draw, conductors=(1, 2, 6, 9, 10, 12, 18, 25)):
    """Three elements of one Q(zeta_L), including L > 2 phi(L) and non-squarefree L."""
    L = draw(st.sampled_from(conductors))
    coords = st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=euler_phi(L),
        max_size=euler_phi(L),
    )
    return tuple(CycElt(L, draw(coords)) for _ in range(3))


def generic_remainder(poly: list[int], L: int) -> list[int]:
    """The remainder modulo Phi_L by cancelling every term past phi(L), top down."""
    phi_poly = cyclotomic_polynomial(L)
    phi = len(phi_poly) - 1
    poly = list(poly)
    for j in range(len(poly) - 1, phi - 1, -1):
        top = poly[j]
        for i, c in enumerate(phi_poly[:phi]):
            poly[j - phi + i] -= top * c
    return (poly + [0] * phi)[:phi]


@pytest.mark.parametrize("L", range(1, 41))
def test_folded_reduction_matches_generic_remainder(L):
    # every length 0..3L: past 2L a term folds twice, which an upward fold
    # onto already folded terms would lose
    rng = random.Random(L)
    for n in range(3 * L + 1):
        poly = [rng.randint(-(2**40), 2**40) for _ in range(n)]
        assert reduce_mod_cyclotomic(list(poly), L) == generic_remainder(poly, L)


@given(xs=same_field(), j=st.integers(1, 10**6), m=st.sampled_from([2, 3]))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_fraction_oracle(xs, j, m):
    x, y, z = xs
    L = x.conductor
    assert (x * y).coords == oracle_mul(x, y)
    assert (x * y + z).coords == tuple(a + b for a, b in zip(oracle_mul(x, y), z.coords))
    while gcd(j, L) != 1:
        j += 1
    assert x.galois(j).coords == oracle_combine(L, [(c, i * j) for i, c in enumerate(x.coords)])
    assert x.conj().conj() == x
    assert cyc_embed(x, m * L).coords == oracle_combine(
        m * L, [(c, i * m) for i, c in enumerate(x.coords)]
    )
    if not x.is_zero():
        assert oracle_mul(x, x.inverse()) == CycElt.one(L).coords
    for e in (x, x * y, x.galois(j), cyc_embed(x, m * L)):
        assert e.den > 0 and gcd(e.den, *e.num) == 1
        assert e.coords == tuple(Fraction(c, e.den) for c in e.num)


def test_equal_elements_share_canonical_form():
    half = CycElt.rational(Fraction(1, 2), 5)
    same = [
        CycElt(5, [Fraction(2, 4), 0, 0, 0]),
        CycElt(5, [Fraction(3, 6), Fraction(0, 7), 0, 0]),
        CycElt.rational(Fraction(1, 6), 5) * 3,
        CycElt.one(5) - half,
        (half + CycElt.zeta(5)) - CycElt.zeta(5),
    ]
    for x in same:
        assert (x.num, x.den) == ((1, 0, 0, 0), 2)
        assert x == half and hash(x) == hash(half)
    thirds = CycElt(5, [Fraction(1, 3)] * 4)
    zero = thirds - CycElt(5, [Fraction(2, 6)] * 4)
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1)
    assert zero == CycElt.zero(5) and hash(zero) == hash(CycElt.zero(5))


@settings(max_examples=60, deadline=None)
@given(
    L=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12]),
    k=st.sampled_from([1, 2, 3, 4, 5, 6]),
    nums=st.lists(st.integers(-9, 9), min_size=12, max_size=12),
    den=st.integers(1, 6),
)
def test_equal_across_conductors_means_equal_hash(L, k, nums, den):
    # == embeds both sides into the lcm conductor, so the hash must not
    # depend on the conductor an element is written in
    a = CycElt(L, [Fraction(n, den) for n in nums[: euler_phi(L)]])
    b = cyc_embed(a, L * k)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    if a.is_rational():
        assert a == a.rational_value() and hash(a) == hash(a.rational_value())


def test_units_of_different_conductors_are_one_set_element():
    assert CycElt.one(3) == CycElt.one(6)
    assert len({CycElt.one(3), CycElt.one(6), CycElt.rational(1, 12), 1}) == 1


# --- hensel lifting -----------------------------------------------------------


def test_hensel_examples():
    # two Newton steps from 1 mod 5; exhaustive-search oracle mod 25
    assert hensel_unit_root(1, 5, 2) == 21  # mod 25
    roots = [x for x in range(25) if (x * x - x + 5) % 25 == 0 and x % 5 != 0]
    assert roots == [21]
    # exhaustive root search of X^2 + X mod 3 (a_p = 2: X^2 - 2X + 3 = X^2 + X mod 3)
    assert hensel_unit_root(2, 3, 1) == 2  # mod 3
    roots3 = [x for x in range(3) if (x * x - 2 * x + 3) % 3 == 0 and x % 3 != 0]
    assert roots3 == [2]


def test_hensel_non_ordinary():
    with pytest.raises(NonOrdinaryPrime, match="non-ordinary"):
        hensel_unit_root(3, 3, 1)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_hensel_root_property(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    k = data.draw(st.integers(1, 8))
    a_p = data.draw(
        st.integers(-int(2 * p**0.5), int(2 * p**0.5)).filter(lambda a: a % p != 0)
    )
    alpha, pk = hensel_unit_root(a_p, p, k), p**k
    assert 0 <= alpha < pk
    assert (alpha * alpha - a_p * alpha + p) % pk == 0
    assert gcd(alpha, pk) == 1


@pytest.mark.parametrize("L", [1, 2, 12, 105, 210, 385])
def test_cyclotomic_polynomials_multiply_back_to_x_to_the_l_minus_1(L):
    # Phi_L comes from integer divisions; the product over d | L multiplies
    # them back (Phi_105 is the first with a coefficient -2)
    prod = [1]
    for d in divisors(L):
        phi = cyclotomic_polynomial(d)
        assert len(phi) == euler_phi(d) + 1 and phi[-1] == 1
        out = [0] * (len(prod) + len(phi) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(phi):
                out[i + j] += a * b
        prod = out
    assert prod == [-1] + [0] * (L - 1) + [1]
    assert -2 in cyclotomic_polynomial(105)
