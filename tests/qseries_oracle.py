"""Term-by-term series arithmetic, used only by tests.

Everything here works on ``CycElt`` coefficients one at a time, with the
truncation rules of ``QSeries``: a sum is known to the smaller order, a
product to min(t1 + lead2, t2 + lead1), an inverse or power to as many
terms past its lead as the input.  The fast paths of ``mazurtate.qexp``
are checked against them: sums of integer rows against CycElt sums, the
Kronecker product against the schoolbook one, Miller's power recurrence
against the schoolbook inverse and repeated schoolbook products and its
rational powers against exp(m log u), the triple product's theta times
E^{-1} against the product of binomials, the powers of Euler's E against
schoolbook powers of its binomial product and E^{-1} against the partition
numbers, and the integer-row dlog sums against a dict of ``CycElt`` terms.
The Eisenstein series E^(k), one pullback per point, is checked against
the c-twisted route: two pullbacks at pt and c pt with the k = 1
constant, divided by c^2 - c^k, and E^(k)_{0,0} against the per-point
c-twisted torsion sum.
"""

from __future__ import annotations

from fractions import Fraction

from mazurtate.arith import CycElt, cyc_embed
from mazurtate.qexp import QSeries, TorsionPoint, _rational_part_derivative, _to_idx


def schoolbook_mul(x: QSeries, y: QSeries) -> QSeries:
    x, y = QSeries._common(x, y)
    t = min(x.trunc + y.start, y.trunc + x.start)
    s = x.start + y.start
    if x.is_zero() or y.is_zero():
        return QSeries(x.grid, t, [], t, x.conductor)
    n = t - s
    coeffs = [CycElt.zero(x.conductor) for _ in range(n)]
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            if i + j < n:
                coeffs[i + j] = coeffs[i + j] + a * b
    return QSeries(x.grid, s, coeffs, t, x.conductor)


def termwise_add(x: QSeries, y: QSeries) -> QSeries:
    """x + y, one CycElt sum per exponent below the smaller truncation order."""
    x, y = QSeries._common(x, y)
    t = min(x.trunc, y.trunc)
    s = min(x.start, y.start, t)
    coeffs = [CycElt.zero(x.conductor) for _ in range(t - s)]
    for z in (x, y):
        for i, c in enumerate(z.coeffs, z.start - s):
            if i < t - s:
                coeffs[i] = coeffs[i] + c
    return QSeries(x.grid, s, coeffs, t, x.conductor)


def schoolbook_inverse(x: QSeries) -> QSeries:
    """1/x by the recursion a0 r_i = -sum_{j=1}^{i} a_j r_{i-j}."""
    n = x.trunc - x.start
    a0_inv = x.coeffs[0].inverse()
    rel = [a0_inv]
    for i in range(1, n):
        acc = CycElt.zero(x.conductor)
        for j in range(1, min(i, len(x.coeffs) - 1) + 1):
            acc = acc + x.coeffs[j] * rel[i - j]
        rel.append(-(a0_inv * acc))
    return QSeries(x.grid, -x.start, rel, n - x.start, x.conductor)


def schoolbook_power(x: QSeries, m: int) -> QSeries:
    """x^m as |m| - 1 schoolbook products of x, or of its schoolbook inverse."""
    if m == 0:
        return QSeries.one(x.grid, Fraction(x.trunc - x.start, x.grid), x.conductor)
    base = x if m > 0 else schoolbook_inverse(x)
    out = base
    for _ in range(abs(m) - 1):
        out = schoolbook_mul(out, base)
    return out


def times_exponent(x: QSeries, power: int) -> QSeries:
    """The series with the coefficient at each exponent e multiplied by e^power."""
    coeffs = [c * Fraction(x.start + i, x.grid) ** power for i, c in enumerate(x.coeffs)]
    return QSeries(x.grid, x.start, coeffs, x.trunc, x.conductor)


def log_unit(u: QSeries) -> QSeries:
    """log of a series with constant term 1: the antiderivative of (q d/dq u) / u."""
    assert u.start == 0 and u.lead_coefficient() == CycElt.one(u.conductor)
    # (q d/dq u) / u has no constant term, so no exponent is 0
    return times_exponent(times_exponent(u, 1) * u.inverse(), -1)


def exp_positive(v: QSeries) -> QSeries:
    """exp of a series supported in strictly positive exponents.

    Newton's y <- y (1 + v - log y) doubles the known terms per step.
    """
    assert v.is_zero() or v.start > 0
    g, L, n = v.grid, v.conductor, v.trunc
    y, k = QSeries.one(g, Fraction(1, g), L), 1
    while k < n:
        k = min(2 * k, n)
        y = QSeries(g, 0, y.coeffs, k, L)  # y is exact as a polynomial
        y = y + y * (v.truncate(Fraction(k, g)) - log_unit(y))
    return y


def mul_binomial(x: QSeries, exp_idx: int, coeff: CycElt) -> QSeries:
    """x (1 + coeff q^{exp_idx/grid}), preserving truncation."""
    n = x.trunc - x.start
    coeffs = list(x.coeffs) + [CycElt.zero(x.conductor)] * (n - len(x.coeffs))
    for i in range(n - 1, -1, -1):
        j = i - exp_idx
        if 0 <= j < len(x.coeffs):
            coeffs[i] = coeffs[i] + coeff * x.coeffs[j]
    return QSeries(x.grid, x.start, coeffs, x.trunc, x.conductor)


def partitions(n: int) -> list[int]:
    """p(0), ..., p(n) by Euler's pentagonal recurrence."""
    p = [1]
    for i in range(1, n + 1):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= i:
            sign = 1 if j % 2 else -1
            total += sign * (p[i - g] + (p[i - g - j] if g + j <= i else 0))
            j += 1
        p.append(total)
    return p


def partition_series(grid: int, rel_steps: int) -> QSeries:
    """P = sum_n p(n) q^n = 1/E on the 1/grid grid, known to rel_steps steps."""
    coeffs = [CycElt.zero(1)] * rel_steps
    for n, p in enumerate(partitions((rel_steps - 1) // grid)):
        coeffs[n * grid] = CycElt.rational(p)
    return QSeries(grid, 0, coeffs, rel_steps, 1)


def euler_product(n: int) -> QSeries:
    """E = prod_{k>=1} (1 - q^k) on the integer grid, known to n steps."""
    out = QSeries.one(1, n)
    for k in range(1, n):
        out = mul_binomial(out, k, CycElt.rational(-1))
    return out


def gamma_core_product(s: Fraction, b: int, N: int, grid: int, rel_steps: int) -> QSeries:
    """gamma(zeta_N^b q^s) as prod_{n>=0} (1 - q^n t) prod_{n>=1} (1 - q^n / t)."""
    out = QSeries.one(grid, Fraction(rel_steps, grid), N if N > 1 else 1)
    e = _to_idx(s, grid)
    for n in range(0, rel_steps):
        if e + n * grid < rel_steps:
            out = mul_binomial(out, e + n * grid, -CycElt.zeta(N, b))
        if n and n * grid - e < rel_steps:
            out = mul_binomial(out, n * grid - e, -CycElt.zeta(N, -b))
    return out


def dlog_gamma_terms(k: int, pt: TorsionPoint, prec: Fraction) -> QSeries:
    """D^{k-1} dlog gamma at t = zeta^b q^{a/N}, summed term by term in a dict."""
    N, a, b = pt.level, pt.a, pt.b
    conductor = N if N > 1 else 1
    t_idx = _to_idx(prec, N)
    acc: dict[int, CycElt] = {}

    def add(idx: int, coeff: CycElt):
        acc[idx] = acc[idx] + coeff if idx in acc else coeff

    if a == 0:
        if t_idx > 0:
            add(0, _rational_part_derivative(k, CycElt.zeta(N, b)))
    else:
        for m in range(1, t_idx):
            if m * a < t_idx:
                add(m * a, CycElt.zeta(N, b * m) * -(m ** (k - 1)))
    for n in range(1, t_idx + 1):
        for m in range(1, t_idx + 1):
            e_plus, e_minus = m * (n * N + a), m * (n * N - a)
            if e_plus < t_idx:
                add(e_plus, CycElt.zeta(N, b * m) * -(m ** (k - 1)))
            if e_minus < t_idx:
                add(e_minus, CycElt.zeta(N, -b * m) * (-m) ** (k - 1))
    coeffs = [CycElt.zero(conductor) for _ in range(max(t_idx, 0))]
    for idx, cf in acc.items():
        coeffs[idx] = cyc_embed(cf, conductor)
    return QSeries(N, 0, coeffs, t_idx, conductor)


def c_twisted_eisenstein(pt: TorsionPoint, c: int, k: int, prec: Fraction) -> QSeries:
    """D^{k-1} dlog of the c-theta at pt, from its own two pullbacks.

    c^2 G_k(pt) - c^k G_k(c pt) with G_k the term-by-term dlog sum, plus,
    at k = 1, the constant (c - c^2)/2 + c floor(a c / N): the factor
    (-t)^{(c-c^2)/2} and the floor(a c / N) annulus reductions of c pt.
    """
    N = pt.level
    out = termwise_add(
        dlog_gamma_terms(k, pt, prec).scale(c * c),
        dlog_gamma_terms(k, pt.scaled(c), prec).scale(-(c**k)),
    )
    const = Fraction(c - c * c, 2) + c * (pt.a * c // N)
    if k == 1 and const and prec > 0:
        out = termwise_add(out, QSeries.monomial(CycElt.rational(const, N), 0, N, prec))
    return out


def c_twisted_eisenstein_00(k: int, c: int, a: int, prec: Fraction) -> QSeries:
    """(a^k - 1)^{-1} sum of the c-twisted series over the nonzero a-torsion points."""
    total = None
    for x in range(a):
        for y in range(a):
            if x or y:
                e = c_twisted_eisenstein(TorsionPoint(x, y, a), c, k, prec)
                total = e if total is None else termwise_add(total, e)
    return total.scale(Fraction(1, a**k - 1))


def canonical(x: QSeries):
    """Every stored field of x, so equal values must agree exactly."""
    return (
        x.grid,
        x.start,
        x.trunc,
        x.conductor,
        [(c.conductor, c.num, c.den) for c in x.coeffs],
    )
