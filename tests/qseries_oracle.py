"""Term-by-term series arithmetic, used only by tests.

Everything here works on ``CycElt`` coefficients one at a time, with the
truncation rules of ``QSeries``: a sum is known to the smaller order, a
product to min(t1 + lead2, t2 + lead1), an inverse or power to as many
terms past its lead as the input.  The fast paths of ``mazurtate.qexp``
are checked against them: sums of integer rows against CycElt sums, the
Kronecker product and the Newton inverse against the schoolbook ones, Miller's power recurrence against repeated schoolbook products,
the triple-product gamma against the product of binomials, and the
integer-row dlog sums against a dict of ``CycElt`` terms.
"""

from __future__ import annotations

from fractions import Fraction

from mazurtate.arith import CycElt, cyc_embed
from mazurtate.qexp import QSeries, TorsionPoint, _rational_part_derivative, _to_idx, _zeta


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


def mul_binomial(x: QSeries, exp_idx: int, coeff: CycElt) -> QSeries:
    """x (1 + coeff q^{exp_idx/grid}), preserving truncation."""
    n = x.trunc - x.start
    coeffs = list(x.coeffs) + [CycElt.zero(x.conductor)] * (n - len(x.coeffs))
    for i in range(n - 1, -1, -1):
        j = i - exp_idx
        if 0 <= j < len(x.coeffs):
            coeffs[i] = coeffs[i] + coeff * x.coeffs[j]
    return QSeries(x.grid, x.start, coeffs, x.trunc, x.conductor)


def gamma_core_product(s: Fraction, b: int, N: int, grid: int, rel_steps: int) -> QSeries:
    """gamma(zeta_N^b q^s) as prod_{n>=0} (1 - q^n t) prod_{n>=1} (1 - q^n / t)."""
    out = QSeries.one(grid, Fraction(rel_steps, grid), N if N > 1 else 1)
    e = _to_idx(s, grid)
    for n in range(0, rel_steps):
        if e + n * grid < rel_steps:
            out = mul_binomial(out, e + n * grid, -_zeta(N, b))
        if n and n * grid - e < rel_steps:
            out = mul_binomial(out, n * grid - e, -_zeta(N, -b))
    return out


def dlog_gamma_terms(k: int, pt: TorsionPoint, prec: Fraction, grid: int) -> QSeries:
    """D^{k-1} dlog gamma at t = zeta^b q^{a/N}, summed term by term in a dict."""
    N, a, b = pt.level, pt.a, pt.b
    conductor = N if N > 1 else 1
    t_idx = _to_idx(prec, grid)
    acc: dict[int, CycElt] = {}

    def add(idx: int, coeff: CycElt):
        acc[idx] = acc[idx] + coeff if idx in acc else coeff

    step = grid // N
    if a == 0:
        add(0, _rational_part_derivative(k, _zeta(N, b)))
    else:
        for m in range(1, t_idx):
            if m * a * step < t_idx:
                add(m * a * step, _zeta(N, b * m) * -(m ** (k - 1)))
    for n in range(1, t_idx + 1):
        for m in range(1, t_idx + 1):
            e_plus, e_minus = m * (n * grid + a * step), m * (n * grid - a * step)
            if e_plus < t_idx:
                add(e_plus, _zeta(N, b * m) * -(m ** (k - 1)))
            if e_minus < t_idx:
                add(e_minus, _zeta(N, -b * m) * (-m) ** (k - 1))
    coeffs = [CycElt.zero(conductor) for _ in range(max(t_idx, 0))]
    for idx, cf in acc.items():
        coeffs[idx] = cyc_embed(cf, conductor)
    return QSeries(grid, 0, coeffs, t_idx, conductor)


def canonical(x: QSeries):
    """Every stored field of x, so equal values must agree exactly."""
    return (
        x.grid,
        x.start,
        x.trunc,
        x.conductor,
        [(c.conductor, c.num, c.den) for c in x.coeffs],
    )
