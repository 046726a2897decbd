"""Numeric oracle for L(E,1) and the real period (floating point lives here only).

L(E,1) is summed as (1 - fricke) * sum a_n/n * exp(-2 pi n / sqrt(N)),
an identity coming from the functional equation; the reported tail bound
uses |a_n| <= n.  The real period Omega^+ = integral of |omega| over
E(R) is computed from the period lattice of the minimal model by the
arithmetic-geometric mean, with the optimal complex square-root choice
handling the one-real-root case.

Nothing downstream consults these floats for exact pass/fail verdicts;
they only calibrate the one rational scalar relating integral-normalized
symbols to the period normalization, and serve as acceptance oracles.
"""

from __future__ import annotations

import cmath
import math

from .curves import CurveData
from .records import Frozen


class OracleError(ValueError):
    pass


class LValueOracle(Frozen):
    __slots__ = ("curve_label", "lvalue", "omega_plus", "tail_bound", "terms", "real_components")

    @property
    def normalized(self) -> float:
        return self.lvalue / self.omega_plus


def lseries_at_one(curve: CurveData, eps: float = 1e-12, fricke: int | None = None):
    """(value, tail_bound, terms) for L(E,1) by the exponential series."""
    if fricke is None:
        fricke = curve.fricke_sign
    if fricke is None:
        raise OracleError(
            f"functional equation sign unknown for {curve.label}; refusing"
        )
    w = -fricke  # sign of the functional equation
    if w == -1:
        return 0.0, 0.0, 0
    c = 2 * math.pi / math.sqrt(curve.conductor)
    n_terms = 10
    while 2 * 2 * math.exp(-c * (n_terms + 1)) / (1 - math.exp(-c)) > eps / 10:
        n_terms += 5
    total = 0.0
    for n in range(1, n_terms + 1):
        total += curve.an(n) / n * math.exp(-c * n)
    tail = 2 * 2 * math.exp(-c * (n_terms + 1)) / (1 - math.exp(-c))
    return 2 * total, tail, n_terms


def _agm(a: complex, b: complex, eps: float = 1e-15) -> complex:
    """Arithmetic-geometric mean with the optimal square-root branch."""
    for _ in range(200):
        if abs(a - b) <= eps * abs(a):
            break
        a1 = (a + b) / 2
        b1 = cmath.sqrt(a * b)
        if abs(a1 - b1) > abs(a1 + b1):
            b1 = -b1
        a, b = a1, b1
    return a


def _cubic_roots(b2: int, b4: int, b6: int) -> list[complex]:
    """Roots of 4x^3 + b2 x^2 + 2 b4 x + b6 via Cardano."""
    # normalize to x^3 + px + q by x = t - b2/12
    a2 = b2 / 4.0
    a1 = b4 / 2.0
    a0 = b6 / 4.0
    p = a1 - a2 * a2 / 3
    q = a0 - a2 * a1 / 3 + 2 * a2**3 / 27
    disc = (q / 2) ** 2 + (p / 3) ** 3
    s = cmath.sqrt(disc)
    u = (-q / 2 + s) ** (1 / 3.0) if abs(-q / 2 + s) > abs(-q / 2 - s) else (
        -q / 2 - s
    ) ** (1 / 3.0)
    if abs(u) < 1e-30:
        roots = [(-q) ** (1 / 3.0) * cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    else:
        v = -p / (3 * u)
        w = cmath.exp(2j * cmath.pi / 3)
        roots = [u + v, u * w + v / w, u * w * w + v * w]
    # one Newton polish pass on the monic cubic
    out = []
    for r in roots:
        for _ in range(5):
            f = r**3 + a2 * r**2 + a1 * r + a0
            df = 3 * r**2 + 2 * a2 * r + a1
            if abs(df) < 1e-30:
                break
            r = r - f / df
        out.append(r)
    return out


def real_period(curve: CurveData) -> tuple[float, int]:
    """(Omega^+, #real components): integral of |omega| over E(R).

    For positive discriminant the lattice is rectangular with real
    half-period pi / AGM(sqrt(e1-e3), sqrt(e1-e2)) and E(R) has two
    components; for negative discriminant the same AGM expression with
    conjugate square roots converges to a real limit and E(R) is
    connected.
    """
    b2, b4, b6, _ = curve.b_invariants()
    roots = _cubic_roots(b2, b4, b6)
    disc = curve.discriminant()
    if disc > 0:
        reals = sorted(r.real for r in roots)
        e3, e2, e1 = reals
        omega1 = math.pi / abs(_agm(math.sqrt(e1 - e3), math.sqrt(e1 - e2)))
        return 2 * omega1, 2
    real_root = min(roots, key=lambda r: abs(r.imag))
    e1 = real_root.real
    e2, e3 = [r for r in roots if r is not real_root]
    m = _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2))
    omega1 = (math.pi / m).real
    return abs(omega1), 1


def lvalue_and_period(curve: CurveData, eps: float = 1e-12, fricke: int | None = None) -> LValueOracle:
    lval, tail, terms = lseries_at_one(curve, eps, fricke)
    omega, components = real_period(curve)
    return LValueOracle(
        curve_label=curve.label,
        lvalue=lval,
        omega_plus=omega,
        tail_bound=tail,
        terms=terms,
        real_components=components,
    )


def consistency_check(curve: CurveData, plus_value_at_zero, oracle: LValueOracle) -> str:
    """Cross-check the exact [0]^+ vanishing against the numeric L-value.

    Returns 'consistent' or a description of the mismatch (e.g. after
    flipping the functional-equation sign by hand).
    """
    exact_zero = plus_value_at_zero == 0
    numeric_zero = abs(oracle.lvalue) <= max(oracle.tail_bound, 1e-9)
    if exact_zero == numeric_zero:
        return "consistent"
    return (
        f"calibration inconsistency: [0]^+ {'=' if exact_zero else '!='} 0 but "
        f"numeric L(E,1) = {oracle.lvalue:.6g} (tail {oracle.tail_bound:.2g})"
    )
