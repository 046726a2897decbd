import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qseries_oracle import (
    canonical,
    dlog_gamma_terms,
    gamma_core_product,
    schoolbook_inverse,
    schoolbook_mul,
    schoolbook_power,
    termwise_add,
)
from tate_oracle import TateExpansion, gamma_tate, theta_numerator_tate

from mazurtate import qexp
from mazurtate.arith import CycElt, cyc_embed
from mazurtate.nt import euler_phi
from mazurtate.qexp import (
    GatedFeatureError,
    QExpError,
    QSeries,
    TorsionPoint,
    ZetaParameterError,
    check_c_relation,
    dlog_d_eisenstein,
    eisenstein_00,
    f_series,
    rationalized_eisenstein,
    rationalized_g_qexp,
    siegel_theta_qexp,
    siegel_theta_relative,
    theta_lead_exponent,
    validate_zeta_parameters,
    zeta_modular_form,
)

# ---------------------------------------------------------------------------
# QSeries ring mechanics


def _series(grid, start, ints, trunc, conductor=1):
    return QSeries(
        grid, start, [CycElt.rational(v, conductor) for v in ints], trunc, conductor
    )


def test_inverse_and_log_exp_roundtrip():
    u = _series(1, 0, [1, -1], 6)  # 1 - q
    inv = u.inverse()
    assert [(e, c.rational_value()) for e, c in inv.terms()] == [
        (F(i), F(1)) for i in range(6)
    ]
    assert (u * inv) == QSeries.one(1, 6)
    log = u.log_unit()
    assert log.coefficient(3) == CycElt.rational(F(-1, 3))
    assert log.exp_positive() == u


def test_power_negative_and_zero():
    u = _series(1, 1, [2, 1], 8)  # 2q + q^2
    assert (u**0) == QSeries.one(1, 7)
    prod = (u**-2) * (u**2)
    assert prod == QSeries.one(1, prod.trunc_exponent)


series_strategy = st.builds(
    lambda grid, start, ints, pad: _series(
        grid, start, ints or [1], start + len(ints or [1]) + pad
    ),
    st.sampled_from([1, 2, 3]),
    st.integers(-4, 4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.integers(0, 3),
)


@given(x=series_strategy, y=series_strategy)
@settings(max_examples=80, deadline=None)
def test_truncation_bookkeeping(x, y):
    from math import lcm

    g = lcm(x.grid, y.grid)
    xr, yr = x.refine(g), y.refine(g)
    s = x + y
    assert s.trunc * g // s.grid == min(xr.trunc, yr.trunc)
    if not (x.is_zero() or y.is_zero()):
        p = x * y
        expected = min(xr.trunc + yr.start, yr.trunc + xr.start)
        assert p.trunc * g // p.grid == expected
        assert p.lead_exponent == xr.lead_exponent + yr.lead_exponent or p.is_zero()


@given(x=series_strategy)
@settings(max_examples=40, deadline=None)
def test_inverse_is_two_sided(x):
    if x.is_zero():
        return
    prod = x * x.inverse()
    one = QSeries.one(prod.grid, prod.trunc_exponent, prod.conductor)
    assert prod == one


# numerator bounds on both sides of the Kronecker selection rule: 2^400
# against at most 12 terms always takes the coefficient loop
WIDTHS = [5, 2**24, 2**400]
DENOMINATORS = [1, 1, 2, 9, 35, 2**61 - 1]


def _draw_series(data, L, grid, max_terms=10, monomial_lead=False):
    phi = euler_phi(L)
    width = data.draw(st.sampled_from(WIDTHS))
    sparse = data.draw(st.booleans())
    coeffs = []
    for i in range(data.draw(st.integers(1, max_terms))):
        if i and sparse and data.draw(st.integers(0, 2)):
            coeffs.append(CycElt.zero(L))
            continue
        nums = data.draw(st.lists(st.integers(-width, width), min_size=phi, max_size=phi))
        if i == 0 and not any(nums):
            nums[0] = -width
        den = data.draw(st.sampled_from(DENOMINATORS))
        if i == 0 and monomial_lead:
            lead = CycElt.zeta(L, data.draw(st.integers(0, L - 1)))
            coeffs.append(lead * F(nums[0] or width, den))
            continue
        coeffs.append(CycElt(L, [F(v, den) for v in nums]))
    start = data.draw(st.integers(-3, 3))
    trunc = start + len(coeffs) + data.draw(st.integers(0, 3))
    return QSeries(grid, start, coeffs, trunc, L)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_product_matches_schoolbook_oracle(data):
    L = data.draw(st.sampled_from([1, 5, 7, 12, 35]))
    x = _draw_series(data, L, data.draw(st.sampled_from([1, 2])))
    y = _draw_series(data, L, data.draw(st.sampled_from([1, 3])))
    assert canonical(x * y) == canonical(schoolbook_mul(x, y))
    assert canonical(y * x) == canonical(schoolbook_mul(y, x))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_newton_inverse_matches_schoolbook_oracle(data):
    L = data.draw(st.sampled_from([1, 5, 7, 12, 35]))
    # a dense lead in Q(zeta_35) has an inverse of 24 times its height,
    # which both inverses read the same way; keep it a monomial there
    x = _draw_series(
        data, L, data.draw(st.sampled_from([1, 2])), max_terms=12, monomial_lead=L == 35
    )
    assert canonical(x.inverse()) == canonical(schoolbook_inverse(x))


def _dense_series(bits: int, terms: int = 12) -> QSeries:
    """terms dense coefficients in Q(zeta_7) with numerators up to 2^bits - 1."""
    coeffs = [
        CycElt(7, [(-1) ** (i + k) * (2**bits - 1 - k) for k in range(6)]) for i in range(terms)
    ]
    return QSeries(1, 0, coeffs, terms, 7)


@pytest.mark.parametrize(
    "bits, terms, loop", [(8, 12, False), (16, 1, False), (17, 1, True), (1024, 12, True)]
)
def test_product_selection_rule(monkeypatch, bits, terms, loop):
    # Kronecker iff bits(max|x|) + bits(max|y|) <= 32 min(n, len x, len y)
    calls = []
    inner = qexp._coefficient_loop
    monkeypatch.setattr(
        qexp, "_coefficient_loop", lambda *args: calls.append(args) or inner(*args)
    )
    x = _dense_series(bits, terms)
    assert canonical(x * x) == canonical(schoolbook_mul(x, x))
    assert bool(calls) == loop


def test_square_packs_once(monkeypatch):
    calls = []
    inner = qexp._pack
    monkeypatch.setattr(qexp, "_pack", lambda *args: calls.append(args) or inner(*args))
    x, y = _dense_series(8), _dense_series(8)  # equal values, distinct objects
    assert canonical(x * x) == canonical(schoolbook_mul(x, x))
    assert len(calls) == 1
    calls.clear()
    assert canonical(x * y) == canonical(schoolbook_mul(x, x))
    assert len(calls) == 2


def test_row_series_product_and_sum_make_no_cycelt(monkeypatch):
    # both sides of the product rule: the packed product and the loop
    narrow, wide = _dense_series(8), _dense_series(1024)
    theta = siegel_theta_qexp(TorsionPoint(1, 2, 7), 5, 4)
    calls = []
    inner = CycElt._make
    monkeypatch.setattr(
        CycElt, "_make", staticmethod(lambda *args: calls.append(args) or inner(*args))
    )
    results = [narrow * theta, wide * wide, narrow + theta, wide - narrow]
    assert not calls
    monkeypatch.undo()
    assert canonical(results[0]) == canonical(schoolbook_mul(narrow, theta))
    assert canonical(results[1]) == canonical(schoolbook_mul(wide, wide))
    assert canonical(results[2]) == canonical(termwise_add(narrow, theta))


def _assert_canonical(x):
    # den > 0, gcd(den, every entry) = 1, no zero row at either end, and
    # the CycElt view reads the rows over den
    assert x.den > 0
    assert gcd(x.den, *(v for r in x.rows for v in r)) == 1
    if x.rows:
        assert any(x.rows[0]) and any(x.rows[-1])
        assert x.start + len(x.rows) <= x.trunc
    else:
        assert x.start == x.trunc and x.den == 1
    phi = euler_phi(x.conductor)
    assert all(len(r) == phi for r in x.rows)
    assert list(x.coeffs) == [CycElt(x.conductor, [F(v, x.den) for v in r]) for r in x.rows]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_row_form_stays_canonical(data):
    L = data.draw(st.sampled_from([1, 5, 7, 12]))
    x = _draw_series(data, L, data.draw(st.sampled_from([1, 2])), max_terms=6)
    y = _draw_series(
        data, data.draw(st.sampled_from([1, 5, L])), data.draw(st.sampled_from([1, 3])),
        max_terms=6,
    )
    scalar = data.draw(
        st.sampled_from([0, -3, F(7, 12), CycElt.zeta(5, 2) * F(-2, 3), CycElt.zero(L)])
    )
    neg_y = QSeries(y.grid, y.start, [-c for c in y.coeffs], y.trunc, y.conductor)
    cut = F(data.draw(st.integers(x.start - 1, x.trunc)), x.grid)
    results = [
        x + y,
        x - y,
        x.scale(scalar),
        x.shift(F(data.draw(st.integers(-3, 3)), x.grid)),
        x.truncate(cut),
        x.refine(6 * x.grid),
        x * y,
    ]
    for r in results:
        _assert_canonical(r)
    assert canonical(results[0]) == canonical(termwise_add(x, y))
    assert canonical(results[1]) == canonical(termwise_add(x, neg_y))
    s = scalar if isinstance(scalar, CycElt) else CycElt.rational(scalar)
    f = lcm(x.conductor, s.conductor)
    scaled = [cyc_embed(c, f) * cyc_embed(s, f) for c in x.coeffs]
    assert canonical(results[2]) == canonical(QSeries(x.grid, x.start, scaled, x.trunc, f))


def test_product_wide_and_narrow_inside_siegel_workload(monkeypatch):
    # c-relation's ** 121 powers outgrow the packed product, the Siegel
    # pullback does not, so one job runs both sides of the rule
    calls = []
    inner = qexp._coefficient_loop
    monkeypatch.setattr(
        qexp, "_coefficient_loop", lambda *args: calls.append(args) or inner(*args)
    )
    siegel_theta_qexp(TorsionPoint(1, 2, 7), 5, 16)
    assert not calls
    assert check_c_relation(TorsionPoint(0, 1, 5), 7, 11, 12).holds
    assert calls


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_power_matches_repeated_schoolbook_products(data):
    wide = data.draw(st.booleans())
    L = data.draw(st.sampled_from([1, 5, 7, 12]))
    x = _draw_series(data, L, data.draw(st.sampled_from([1, 2])), max_terms=8)
    # Miller's recurrence iff |m| width(x) > 32 n; m = 0 is always narrow
    ms = [m for m in range(-3, 131) if (m != 0 and x._wide(m)) == wide]
    assume(ms)
    m = data.draw(st.sampled_from(ms))
    assert canonical(x**m) == canonical(schoolbook_power(x, m))


def _spy(monkeypatch, name):
    calls = []
    inner = getattr(QSeries, name)
    monkeypatch.setattr(QSeries, name, lambda *args: calls.append(args) or inner(*args))
    return calls


@pytest.mark.parametrize(
    "bits, terms, m, wide",
    [
        (15, 1, 2, False),  # width 15 + 1: 2 * 16 = 32 <= 32 * 1
        (16, 1, 2, True),  # 2 * 17 = 34 > 32
        (31, 1, -1, False),  # the inverse: 32 <= 32
        (32, 1, -1, True),
        (8, 12, 25, False),  # 25 * 9 = 225 <= 384
        (8, 12, 49, True),  # 49 * 9 = 441 > 384
        (8, 12, -49, True),
    ],
)
def test_power_selection_rule(monkeypatch, bits, terms, m, wide):
    # Miller's recurrence iff |m| (bits(max|num|) + bits(den)) > 32 n
    calls = _spy(monkeypatch, "_miller_power")
    x = _dense_series(bits, terms)
    got = x.inverse() if m == -1 else x**m
    assert canonical(got) == canonical(schoolbook_power(x, m))
    assert bool(calls) == wide


def test_power_paths_inside_siegel_workload(monkeypatch):
    # siegel's ** 25 stays packed, all six powers of c-relation (** 49,
    # ** 121) take the recurrence, and no inverse of either is wide
    calls = _spy(monkeypatch, "_miller_power")
    siegel_theta_qexp(TorsionPoint(1, 2, 7), 5, 16)
    assert not calls
    assert check_c_relation(TorsionPoint(0, 1, 5), 7, 11, 12).holds
    assert sorted(m for _, m in calls) == [49, 49, 49, 121, 121, 121]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_triple_product_gamma_matches_binomial_product(data):
    N = data.draw(st.sampled_from([1, 2, 3, 5, 7, 12, 35]))
    grid = data.draw(st.sampled_from([1, N]))
    b = data.draw(st.integers(0, N - 1))
    rel = data.draw(st.integers(1, 6 * grid))
    for a in range(grid):
        if a == 0 and b % N == 0:  # gamma(1) = 0, refused by the pullback
            continue
        s = F(a, grid)
        got = qexp._gamma_core(s, b, N, grid, rel)
        assert canonical(got) == canonical(gamma_core_product(s, b, N, grid, rel))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_dlog_rows_match_term_by_term_sum(data):
    N = data.draw(st.sampled_from([2, 3, 5, 7, 12]))
    grid = N * data.draw(st.sampled_from([1, 2]))
    a = data.draw(st.sampled_from([0, data.draw(st.integers(1, N - 1))]))
    pt = TorsionPoint(a, data.draw(st.integers(1 if a == 0 else 0, N - 1)), N)
    k = data.draw(st.integers(1, 4))
    prec = F(data.draw(st.integers(1, 6 * grid)), grid)
    got = qexp._dlog_gamma_pullback(k, pt, prec, grid)
    assert canonical(got) == canonical(dlog_gamma_terms(k, pt, prec, grid))


def test_cyc_power_multiplications(monkeypatch):
    x = CycElt(7, [F(1, 2), -1, 0, 3, 0, 1])
    expected = [CycElt.one(7)]
    for _ in range(9):
        expected.append(expected[-1] * x)
    calls = []
    inner = CycElt.__mul__
    monkeypatch.setattr(CycElt, "__mul__", lambda a, b: calls.append(1) or inner(a, b))
    for n, want in enumerate(expected):
        calls.clear()
        assert x**n == want
        # one squaring per bit below the top, one product per extra set bit
        assert len(calls) == max(0, n.bit_length() - 1) + max(0, bin(n).count("1") - 1)
    assert x**-3 * expected[3] == CycElt.one(7)


def test_dlog_pullback_tabulates_the_roots_of_unity(monkeypatch):
    calls = []
    inner = CycElt.zeta
    monkeypatch.setattr(
        CycElt, "zeta", staticmethod(lambda L, j=1: calls.append(j) or inner(L, j))
    )
    s = dlog_d_eisenstein(TorsionPoint(1, 2, 7), 5, 3, 12)
    assert len(calls) <= 2 * 7 and not s.is_zero()


# ---------------------------------------------------------------------------
# Theta pullbacks


def test_theta_leading_coefficient_hand_expansion():
    # (alpha, beta) = (0, 1/N): q^0 layer is (1-t)^{c^2}/(1-t^c) at t = zeta^b,
    # times the (-t)^{(c-c^2)/2} prefactor
    N, c = 5, 7
    pt = TorsionPoint(0, 1, N)
    th = siegel_theta_qexp(pt, c, 10)
    z = CycElt.zeta(N)
    m = (c - c * c) // 2
    expected = (
        CycElt.rational(-1 if m % 2 else 1, N)
        * CycElt.zeta(N, m)
        * (CycElt.one(N) - z) ** (c * c)
        * (CycElt.one(N) - z**c).inverse()
    )
    assert th.lead_exponent == theta_lead_exponent(pt, c) == (c * c - 1) // 12
    assert th.lead_coefficient() == expected


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7, 8, 9, 10, 11, 12])
def test_theta_coefficients_integral(N):
    from math import gcd

    # the c-unit is a unit of the ring of integers: denominators never appear
    c = next(cc for cc in (5, 7, 11, 13, 17, 19, 23) if gcd(cc, 6 * N) == 1)
    for pt in (TorsionPoint(0, 1, N), TorsionPoint(1, 0, N), TorsionPoint(1, 1, N)):
        th = siegel_theta_relative(pt, c, 5)
        for _, coeff in th.terms():
            assert all(v.denominator == 1 for v in coeff.coords)


def test_theta_exponent_parity_well_defined():
    # c odd makes (c - c^2)/2 and (c^2-1)/12 integral: exponents on the 1/N grid
    pt = TorsionPoint(1, 2, 5)
    th = siegel_theta_qexp(pt, 7, 6)
    assert all((e * 5).denominator == 1 for e, _ in th.terms())


def test_theta_gcd_violations():
    with pytest.raises(QExpError):
        siegel_theta_qexp(TorsionPoint(0, 1, 5), 5, 4)  # gcd(c, N) > 1
    with pytest.raises(QExpError):
        siegel_theta_qexp(TorsionPoint(0, 1, 5), 9, 4)  # gcd(c, 6) > 1
    with pytest.raises(QExpError):
        siegel_theta_qexp(TorsionPoint(0, 0, 5), 7, 4)


def test_siegel_unit_ramification():
    # alpha = 0: no fractional powers
    s = siegel_theta_qexp(TorsionPoint(0, 1, 5), 7, 8)
    assert s.grid == 1
    # alpha = 1/3: exponents in (1/3) Z, both point components honored
    s3 = siegel_theta_qexp(TorsionPoint(1, 0, 3), 5, 4)
    assert s3.grid == 3
    assert any((e * 3).denominator == 1 and (e * 1).denominator != 1 for e, _ in s3.terms())


def test_theta_norm_relation_under_division():
    """Multiplying the c-theta over the division preimages of a point
    reproduces the c-theta at the point (the norm-invariance property)."""
    a_div = 2
    base = TorsionPoint(0, 1, 5)
    c = 7
    prec = F(5)
    target = siegel_theta_qexp(base, c, prec)
    product = None
    for j in range(a_div):
        for jp in range(a_div):
            w = TorsionPoint(
                base.a + j * base.level, base.b + jp * base.level, base.level * a_div
            )
            factor = siegel_theta_qexp(w, c, prec)
            product = factor if product is None else product * factor
    agree, wit = product.agreement(target)
    assert agree, wit


def test_divisor_degree_at_q0():
    # (1-t)-order of the q^0 layer (1-t)^{c^2} (1-t^c)^{-1} is c^2 - 1
    from mazurtate.arith import poly_divmod_exact

    for c in (5, 7):
        num = [1]
        for _ in range(c * c):
            num = [a - b for a, b in zip(num + [0], [0] + num)]  # times (1 - t)
        den = [1] + [0] * (c - 1) + [-1]
        order = 0
        poly = num
        while True:
            q, r = poly_divmod_exact(poly, [1, -1])
            if r:
                break
            poly, order = q, order + 1
        order_den = 0
        poly = den
        while True:
            q, r = poly_divmod_exact(poly, [1, -1])
            if r:
                break
            poly, order_den = q, order_den + 1
        assert order - order_den == c * c - 1


# ---------------------------------------------------------------------------
# Rationalized g and the c, d relation


def test_rationalized_g_c_independence():
    pt = TorsionPoint(0, 1, 5)
    g1 = rationalized_g_qexp(pt, 10, 11)
    g2 = rationalized_g_qexp(pt, 10, 31)
    assert g1.lead_exponent == g2.lead_exponent == F(1, 12)
    agree, wit = g1.unit.agreement(g2.unit)
    assert agree, wit


def test_rationalized_g_validations():
    pt = TorsionPoint(0, 1, 5)
    with pytest.raises(QExpError, match="1 mod N"):
        rationalized_g_qexp(pt, 6, 7)
    with pytest.raises(QExpError):
        rationalized_g_qexp(pt, 6, 6)


def test_rationalized_g_root_power_roundtrip():
    pt = TorsionPoint(0, 2, 5)
    c = 11
    g = rationalized_g_qexp(pt, 8, c)
    theta = siegel_theta_relative(pt, c, 8)
    unit = theta.shift(-theta.lead_exponent).scale(theta.lead_coefficient().inverse())
    assert (g.unit ** (c * c - 1)) == unit


def test_log_exp_roundtrip_on_unit_series():
    pt = TorsionPoint(0, 1, 5)
    theta = siegel_theta_relative(pt, 7, 8)
    unit = theta.shift(-theta.lead_exponent).scale(theta.lead_coefficient().inverse())
    assert unit.log_unit().exp_positive() == unit


def test_c_relation_exact():
    rep = check_c_relation(TorsionPoint(0, 1, 5), 7, 11, 8)
    assert rep.holds
    rep2 = check_c_relation(TorsionPoint(1, 2, 5), 7, 11, 5)
    assert rep2.holds


def test_c_relation_trivial_and_symmetric():
    pt = TorsionPoint(0, 1, 5)
    assert check_c_relation(pt, 7, 7, 6).holds  # c = d: both sides equal
    r1 = check_c_relation(pt, 7, 11, 6)
    r2 = check_c_relation(pt, 11, 7, 6)
    assert r1.holds and r2.holds


# ---------------------------------------------------------------------------
# Eisenstein series


def test_eisenstein_k1_constant_term_closed_form():
    N, b, c = 5, 2, 7
    e1 = dlog_d_eisenstein(TorsionPoint(0, b, N), c, 1, 8)
    z = CycElt.zeta(N, b)
    zc = CycElt.zeta(N, (b * c) % N)
    one = CycElt.one(N)
    expected = (
        CycElt.rational(F(c - c * c, 2), N)
        - CycElt.rational(c * c, N) * z * (one - z).inverse()
        + CycElt.rational(c, N) * zc * (one - zc).inverse()
    )
    assert e1.coefficient(0) == expected


def test_dlog_two_path_oracle_alpha_zero():
    """The analytic expansion equals the explicit two-variable route:
    expand the product form, apply D termwise, evaluate at t = zeta^b,
    divide.  Pullback and dlog commute only in the t-direction, so this
    comparison needs alpha = 0."""
    N, c, Q = 5, 7, 9
    A = theta_numerator_tate(c, Q)
    B = gamma_tate(Q, c)
    for b in (1, 3):
        da = A.D().evaluate_t_root_of_unity(b, N) * A.evaluate_t_root_of_unity(
            b, N
        ).inverse()
        db = B.D().evaluate_t_root_of_unity(b, N) * B.evaluate_t_root_of_unity(
            b, N
        ).inverse()
        two_var = da - db
        direct = dlog_d_eisenstein(TorsionPoint(0, b, N), c, 1, 8)
        agree, wit = direct.agreement(two_var)
        assert agree, wit


def test_D_composition_random():
    rng = random.Random(5)
    te = TateExpansion(
        {
            (n, m): CycElt.rational(rng.randint(-4, 4))
            for n in range(4)
            for m in range(-3, 4)
        },
        6,
    )
    a, b = 2, 3
    lhs = te
    for _ in range(a + b):
        lhs = lhs.D()
    rhs = te
    for _ in range(a):
        rhs = rhs.D()
    for _ in range(b):
        rhs = rhs.D()
    assert lhs == rhs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_eisenstein_involution(k):
    for pt in (TorsionPoint(0, 1, 5), TorsionPoint(1, 3, 5), TorsionPoint(2, 0, 5)):
        neg = TorsionPoint(-pt.a, -pt.b, 5)
        s1 = dlog_d_eisenstein(pt, 7, k, 6)
        s2 = dlog_d_eisenstein(neg, 7, k, 6)
        want = s2 if k % 2 == 0 else -s2
        assert s1.agreement(want)[0]


def test_eisenstein00_a_independence():
    for k in (1, 3):
        ea = eisenstein_00(k, 5, 2, 15)
        eb = eisenstein_00(k, 5, 3, 15)
        assert ea.agreement(eb)[0]
        assert ea.is_zero()  # odd weight: the torsion sum cancels pairwise


def test_eisenstein00_even_weight_is_classical():
    e4 = eisenstein_00(4, 5, 2, 8)
    c0 = e4.coefficient(0).rational_value()
    assert c0 != 0
    sigma3 = lambda n: sum(d**3 for d in range(1, n + 1) if n % d == 0)
    for n in range(1, 8):
        assert e4.coefficient(n).rational_value() / c0 == 240 * sigma3(n)
    assert eisenstein_00(4, 5, 3, 8).agreement(e4)[0]


def test_eisenstein00_rationality_and_validation():
    with pytest.raises(QExpError):
        eisenstein_00(2, 5, 1, 4)
    with pytest.raises(QExpError):
        eisenstein_00(3, 5, 5, 4)  # (a, c) != 1
    series = eisenstein_00(4, 7, 2, 6)
    assert series.conductor == 1


@pytest.mark.parametrize("c, k", [(1, 3), (1, 4), (-1, 4), (-1, 6)])
def test_rationalized_eisenstein_refuses_c_squared_equal_to_c_to_the_k(c, k):
    # c^2 = c^k leaves nothing to divide by; the refusal must not depend
    # on assertions being enabled
    with pytest.raises(QExpError, match="c\\^2 = c\\^k"):
        rationalized_eisenstein(TorsionPoint(1, 1, 2), k, 4, c=c)


def test_rationalized_eisenstein_odd_weight_at_c_minus_one():
    # c = -1 = 1 mod 2 with k odd gives c^2 - c^k = 2
    e = rationalized_eisenstein(TorsionPoint(1, 1, 2), 3, 4, c=-1)
    assert e == dlog_d_eisenstein(TorsionPoint(1, 1, 2), -1, 3, 4).scale(F(1, 2))


# ---------------------------------------------------------------------------
# F-series and zeta modular forms


def test_f_series_degenerate_level_one():
    for k in (1, 3, 4):
        f = f_series(k, TorsionPoint(0, 0, 1), 6)
        e = rationalized_eisenstein(TorsionPoint(0, 0, 1), k, 6)
        assert f.agreement(e)[0]


def test_f_series_finite_fourier_inversion():
    N, k = 3, 3
    table = {
        (a, b): f_series(k, TorsionPoint(a, b, N), 5)
        for a in range(N)
        for b in range(N)
    }
    for x0, y0 in ((1, 0), (2, 1)):
        acc = None
        for a in range(N):
            for b in range(N):
                term = table[(a, b)].scale(CycElt.zeta(N, a * y0 - b * x0))
                acc = term if acc is None else acc + term
        acc = acc.scale(F(N ** (k - 2)))
        direct = rationalized_eisenstein(TorsionPoint(x0, y0, N), k, 5)
        assert acc.agreement(direct)[0]


def test_f_series_linearity():
    N, k = 3, 3
    f1 = f_series(k, TorsionPoint(1, 0, N), 4)
    f2 = f_series(k, TorsionPoint(0, 1, N), 4)
    # F of a sum of characters = sum of F's: linearity in the zeta-weights
    combo = f1 + f2
    assert combo.agreement(f1 + f2)[0]


def test_f_series_weight_two_gated():
    with pytest.raises(GatedFeatureError):
        f_series(2, TorsionPoint(1, 0, 5), 4)


def test_zeta_parameter_validation():
    validate_zeta_parameters(5, 7, 2, 1, 1)
    with pytest.raises(ZetaParameterError, match="excluded-pair"):
        validate_zeta_parameters(5, 7, 4, 2, 3)
    with pytest.raises(ZetaParameterError, match="M-at-least-2"):
        validate_zeta_parameters(1, 7, 6, 4, 5)
    validate_zeta_parameters(2, 7, 6, 4, 5)
    with pytest.raises(ZetaParameterError, match="r-range"):
        validate_zeta_parameters(5, 7, 4, 0, 3)
    with pytest.raises(ZetaParameterError, match="one-of-them"):
        validate_zeta_parameters(5, 7, 4, 1, 2)


def test_zeta_modular_form_both_branches():
    z = zeta_modular_form(5, 7, 2, 1, 1, 2)
    assert set(z.branches) == {"r'=k-1", "r=k-1"}
    for s in z.branches.values():
        assert s.trunc_exponent == 2
    doubled = zeta_modular_form(5, 7, 2, 1, 1, 2, constant=F(2))
    for name in z.branches:
        assert doubled.branches[name].agreement(
            z.branches[name].scale(F(2))
        )[0]


def test_zeta_modular_form_gated_branch():
    with pytest.raises(GatedFeatureError):
        zeta_modular_form(2, 7, 6, 4, 5, 2)


def test_zeta_product_truncation_rule():
    z = zeta_modular_form(3, 5, 4, 3, 3, 3)
    s = z.branches["r=k-1"]
    assert s.trunc_exponent == 3  # min-propagation from the two factors
