import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from padic_oracle import (
    modint_chain_layers,
    sparse_layer,
    synthetic_tower,
    taylor_shift_oracle,
    unstable_tower,
)

from mazurtate.arith import ModInt, NonOrdinaryPrime
from mazurtate.curves import curve_by_label
from mazurtate.groupring import GroupRingElement, all_characters, trivial_character
from mazurtate.nt import units_mod
from mazurtate.padic import (
    PrecisionError,
    _taylor_shift,
    _teichmuller,
    interpolate_character,
    interpolate_trivial,
    iwasawa_invariants,
    layer_polynomial,
    stabilize,
)


@pytest.fixture(scope="module")
def tower_11_3(c11):
    return stabilize(c11, 3, 6, 4)


def scaled(tower, s):
    """Synthetic tower with every layer (and theta_Q) multiplied by s."""
    return tower._replace(
        curve_label=f"{tower.curve_label}*{s}",
        layers={n: x.map_coeffs(lambda v: v * s) for n, x in tower.layers.items()},
        theta_q=tower.theta_q * s,
        variant="synthetic",
    )


def test_stabilize_example_alpha(c11):
    tower = stabilize(c11, 5, 2, 2)
    assert tower.alpha == ModInt(21, 25)
    assert tower.is_projective()


def test_projectivity_defining_instance(tower_11_3):
    from mazurtate.groupring import first_mismatch, project

    lhs = project(tower_11_3.layer(2), 3)
    assert first_mismatch(lhs, tower_11_3.layer(1)) is None


def test_stabilize_rejects_bad_and_nonordinary(c11):
    with pytest.raises(NonOrdinaryPrime):
        stabilize(c11, 11, 2, 2)  # 11 | N
    # 37a1 has a_3 = -3, so 3 is non-ordinary (supersingular)
    from mazurtate.curves import curve_by_label

    with pytest.raises(NonOrdinaryPrime, match="non-ordinary"):
        stabilize(curve_by_label("37a1"), 3, 2, 2)


def test_stabilize_refuses_calibrated_symbols(c11, pair11):
    # lambda = 1/10 is 3-integral, so only the normalization check stops a
    # tower that would reduce Fractions as if they were integers
    from mazurtate.modsym import calibrate_periods

    plus, minus = pair11
    calibrated = (plus.calibrated(calibrate_periods(plus, c11)), minus)
    with pytest.raises(ValueError, match="integral-normalized"):
        stabilize(c11, 3, 4, 2, variant="A", pair=calibrated)


@pytest.mark.parametrize("variant", ["A", "B"])
@pytest.mark.parametrize(
    "label, p, k, n_max",
    [
        ("11a1", 3, 1, 4),
        ("11a1", 3, 8, 5),
        ("11a1", 5, 3, 3),
        ("11a1", 7, 2, 3),
        ("37a1", 5, 4, 3),
    ],
)
def test_stabilize_matches_modint_chain(label, p, k, n_max, variant):
    curve = curve_by_label(label)
    tower = stabilize(curve, p, k, n_max, variant=variant)
    oracle = modint_chain_layers(curve, p, k, n_max, variant)
    assert tower.layers.keys() == oracle.keys()
    for n, layer in tower.layers.items():
        assert layer.modulus == oracle[n].modulus == p**n
        assert layer.coeffs == oracle[n].coeffs  # ModInt equality: residue and modulus


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 8))
def test_towers_projective_for_random_k(c11, k):
    tower = stabilize(c11, 3, k, 4)
    assert tower.is_projective()
    assert interpolate_trivial(tower).holds


def test_wrong_variant_is_not_projective(c11):
    tower_b = stabilize(c11, 3, 4, 3, variant="B")
    assert not tower_b.is_projective()


def test_interpolate_trivial(c11):
    tower = stabilize(c11, 3, 4, 3)
    rep = interpolate_trivial(tower)
    assert rep.holds
    # (1 - 1/alpha)^2 theta_Q, recomputed here independently
    one = ModInt(1, 81)
    expected = (one - tower.alpha.inverse()) ** 2 * ModInt(2, 81)  # theta_Q(11a1) = 2
    assert rep.expected == expected
    # augmentation is layer-independent
    assert len({aug.residue for _, aug in rep.per_layer}) == 1


def test_interpolate_trivial_rank_one_zero(c37):
    tower = stabilize(c37, 5, 4, 2)
    rep = interpolate_trivial(tower)
    assert rep.holds
    assert rep.expected == ModInt(0, 625)


def test_interpolate_character_order3(c11, tower_11_3):
    chis = [c for c in all_characters(9) if c.is_primitive()]
    for chi in chis:
        rep = interpolate_character(tower_11_3, chi, c11)
        assert rep.holds
        conj = interpolate_character(tower_11_3, chi.conjugate(), c11)
        assert conj.holds
        assert conj.lhs == rep.lhs.conj()
        assert rep.lhs.den == rep.rhs.den == 1  # integral lifts
    # a layer off by 1 at sigma_1 breaks the congruence
    layers = dict(tower_11_3.layers)
    coeffs = dict(layers[2].coeffs)
    coeffs[1] = coeffs[1] + 1
    layers[2] = GroupRingElement(9, coeffs)
    broken = tower_11_3._replace(layers=layers)
    assert not interpolate_character(broken, chis[0], c11).holds


def test_interpolate_character_routes_trivial(c11, tower_11_3):
    rep = interpolate_character(tower_11_3, trivial_character(1), c11)
    assert rep.holds  # TrivialInterpolationReport


def test_interpolate_character_conductor_checks(c11, tower_11_3):
    from mazurtate.groupring import quadratic_character

    with pytest.raises(ValueError, match="not a power"):
        interpolate_character(tower_11_3, quadratic_character(5), c11)


# --- Iwasawa invariants --------------------------------------------------------


def test_iwasawa_invariants_11a1_p3(tower_11_3):
    inv = iwasawa_invariants(tower_11_3)
    assert (inv.lambda_, inv.mu) == (0, 0)
    assert inv.stable


@pytest.mark.parametrize(
    "label, p, k, n, lam_mu, components",
    [
        ("11a1", 3, 8, 7, (0, 0), {0: (0, 0), 1: (0, 0)}),
        ("11a1", 5, 4, 3, (0, 2), {0: (0, 2), 1: (0, 0), 2: (0, 2), 3: (0, 0)}),
        (
            "11a1", 7, 3, 4, (0, 0),
            {0: (0, 0), 1: (0, 0), 2: (0, 0), 3: (1, 0), 4: (0, 0), 5: (0, 0)},
        ),
        ("37a1", 5, 4, 4, (1, 0), {0: (1, 0), 1: (1, 0), 2: (0, 0), 3: (1, 0)}),
    ],
    ids=["11a1-p3", "11a1-p5", "11a1-p7", "37a1-p5"],
)
def test_component_invariants_pinned(label, p, k, n, lam_mu, components):
    # recorded with one schoolbook layer polynomial per component and layer
    inv = iwasawa_invariants(stabilize(curve_by_label(label), p, k, n))
    assert (inv.lambda_, inv.mu) == lam_mu
    assert (inv.layer, inv.precision, inv.stable) == (n, k, True)
    assert inv.component_invariants == components
    assert inv.unstable_components == ()
    assert inv.normalization == "integral-normalized"


def _teichmuller_oracle(a, p, m):
    x = a % m
    while pow(x, p, m) != x:
        x = pow(x, p, m)
    return x


@pytest.mark.parametrize("p, n_max", [(3, 6), (5, 4), (7, 3)])
def test_teichmuller_matches_oracle_on_every_unit(p, n_max):
    for n in range(1, n_max + 1):
        for a in units_mod(p**n):
            assert _teichmuller(a, p, p**n) == _teichmuller_oracle(a, p, p**n)


SHIFT_MODULI = [3**8, 5**6, 7**4, 3**20]


@pytest.mark.parametrize("pk", SHIFT_MODULI)
@pytest.mark.parametrize("d", [1, 2, 63, 64, 65, 128, 129])
def test_taylor_shift_matches_binomial_sums(d, pk):
    rng = random.Random(d * pk)
    for c in ([rng.randrange(pk) for _ in range(d)], [pk - 1] * d):
        assert _taylor_shift(c, pk) == taylor_shift_oracle(c, pk)


@settings(max_examples=6, deadline=None)
@given(
    st.integers(1, 2200),
    st.sampled_from(SHIFT_MODULI),
    st.sampled_from(["random", "sparse", "max"]),
    st.integers(0, 2**32 - 1),
)
@example(2187, 3**20, "max", 0)
def test_taylor_shift_matches_binomial_sums_random_length(d, pk, fill, seed):
    rng = random.Random(seed)
    if fill == "max":
        c = [pk - 1] * d  # the largest slot values the packing must hold
    else:
        density = 1.0 if fill == "random" else 0.05
        c = [rng.randrange(pk) if rng.random() < density else 0 for _ in range(d)]
    assert _taylor_shift(c, pk) == taylor_shift_oracle(c, pk)


def schoolbook_layer_polynomial(tower, n, component=0):
    """Oracle for layer_polynomial: one pass per component, binomials term by term."""
    p, pk = tower.p, tower.pk
    pn = p**n
    gamma_order = p ** (n - 1)
    gamma = (1 + p) % pn
    gamma_pows = {}
    acc = 1
    for j in range(gamma_order):
        gamma_pows[acc] = j
        acc = (acc * gamma) % pn
    c = [0] * gamma_order
    for a, v in tower.layers[n].coeffs.items():
        t = _teichmuller_oracle(a, p, pn)
        principal = (a * pow(t, -1, pn)) % pn
        j = gamma_pows[principal]
        w = pow(_teichmuller_oracle(a, p, pk), component, pk) if component else 1
        c[j] = (c[j] + w * v.residue) % pk
    # expand sum c_j (1+T)^j
    coeffs = [0] * gamma_order
    for j, cj in enumerate(c):
        if cj == 0:
            continue
        for i in range(j + 1):
            coeffs[i] = (coeffs[i] + cj * comb(j, i)) % pk
    return [ModInt(v, pk) for v in coeffs]


# the oracle is quadratic in the degree p^(n-1), so layers stop at degree 243
MAX_LAYER = {3: 6, 5: 4, 7: 3}


@st.composite
def synthetic_layers(draw):
    p = draw(st.sampled_from(sorted(MAX_LAYER)))
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, MAX_LAYER[p]))
    fill = draw(st.sampled_from(["random", "sparse", "max"]))
    return p, k, n, fill, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(synthetic_layers())
@example((3, 8, 6, "max", 0))
def test_layer_polynomial_matches_schoolbook(case):
    p, k, n, fill, seed = case
    pk, rng = p**k, random.Random(seed)
    if fill == "max":
        # c_j = p^k - 1 for every j: the largest unreduced shift coefficients
        coeffs = {a: pk - 1 if a % p == 1 else 0 for a in units_mod(p**n)}
    else:
        density = 1.0 if fill == "random" else 0.05
        coeffs = {
            a: rng.randrange(pk) if rng.random() < density else 0 for a in units_mod(p**n)
        }
    layer = GroupRingElement(p**n, {a: ModInt(v, pk) for a, v in coeffs.items()})
    tower = synthetic_tower(p, k, {n: layer})
    for component in range(p - 1):
        assert layer_polynomial(tower, n, component) == schoolbook_layer_polynomial(
            tower, n, component
        )


def test_layer_polynomial_matches_schoolbook_on_11a1(tower_11_3):
    for n in range(1, tower_11_3.n_max + 1):
        for component in range(2):
            assert layer_polynomial(tower_11_3, n, component) == (
                schoolbook_layer_polynomial(tower_11_3, n, component)
            )


def newton_polygon_lambda_mu(poly, p, k):
    """Oracle: lambda/mu from the lower convex hull of (i, v_p(c_i)).

    mu is the hull's minimal height; lambda the horizontal extent of its
    strictly decreasing part (= zeros of positive valuation after
    removing p^mu).
    """

    def val(c):
        if c.residue % p**k == 0:
            return k
        v = 0
        r = c.residue
        while r % p == 0:
            r //= p
            v += 1
        return v

    pts = [(i, val(c)) for i, c in enumerate(poly)]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    mu = min(y for _, y in pts)
    lam = next(x for x, y in hull if y == mu)
    return lam, mu


def test_newton_polygon_oracle_agreement(tower_11_3):
    inv = iwasawa_invariants(tower_11_3)
    poly = layer_polynomial(tower_11_3, tower_11_3.n_max)
    lam, mu = newton_polygon_lambda_mu(poly, 3, 6)
    assert (lam, mu) == (inv.lambda_, inv.mu)


def test_scaling_covariance(tower_11_3):
    inv = iwasawa_invariants(tower_11_3)
    by_p = iwasawa_invariants(scaled(tower_11_3, 3))
    assert (by_p.lambda_, by_p.mu) == (inv.lambda_, inv.mu + 1)
    by_unit = iwasawa_invariants(scaled(tower_11_3, 2))
    assert (by_unit.lambda_, by_unit.mu) == (inv.lambda_, inv.mu)


def test_unit_constant_tower_has_zero_invariants():
    p, k = 3, 5
    pk = p**k
    layers = {
        n: GroupRingElement.delta(p**n, 1, ModInt(2, pk), ModInt(0, pk))
        for n in range(1, 5)
    }
    tower = synthetic_tower(p, k, layers)._replace(theta_q=ModInt(2, pk))
    assert tower.is_projective()
    inv = iwasawa_invariants(tower)
    assert (inv.lambda_, inv.mu) == (0, 0)


def test_precision_error_when_mu_exceeds_k(tower_11_3):
    saturated = scaled(tower_11_3, 3**6)
    with pytest.raises(PrecisionError):
        iwasawa_invariants(saturated)


def test_unstable_reading_is_returned_not_raised():
    inv = iwasawa_invariants(unstable_tower())
    assert (inv.lambda_, inv.mu, inv.layer, inv.precision) == (0, 1, 3, 4)
    assert not inv.stable
    assert inv.unstable_components == (0, 1)
    assert inv.component_invariants == {0: (0, 1), 1: (0, 1)}


def test_unstable_nontrivial_component_is_listed():
    # sigma_1 + sigma_26 weights: component 0 reads 2 - 1 = 1, component 1
    # reads 2 + 1 = 3 at layer 3, against 2 and 2 at layer 2
    p, k = 3, 4
    layers = {n: sparse_layer(p, k, n, {1: 2}) for n in (1, 2)}
    layers[3] = sparse_layer(p, k, 3, {1: 2, 26: p**k - 1})
    inv = iwasawa_invariants(synthetic_tower(p, k, layers))
    assert (inv.lambda_, inv.mu, inv.stable) == (0, 0, True)
    assert inv.unstable_components == (1,)
    assert inv.component_invariants == {0: (0, 0), 1: (0, 1)}


def test_min_layers_requirement(c11):
    tower = stabilize(c11, 3, 4, 2)
    with pytest.raises(PrecisionError, match="3 layers"):
        iwasawa_invariants(tower)
