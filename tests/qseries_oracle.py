"""Schoolbook series product and inverse, used only by tests.

Both work term by term on ``CycElt`` coefficients, with the truncation
rules of ``QSeries``: a product is known to min(t1 + lead2, t2 + lead1),
an inverse to as many terms past its lead as the input.  The fast
product (Kronecker substitution) and the Newton inverse are checked
against them.
"""

from __future__ import annotations

from mazurtate.arith import CycElt
from mazurtate.qexp import QSeries


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


def canonical(x: QSeries):
    """Every stored field of x, so equal values must agree exactly."""
    return (
        x.grid,
        x.start,
        x.trunc,
        x.conductor,
        [(c.conductor, c.num, c.den) for c in x.coeffs],
    )
