"""Readings of the L-value side, used only by tests.

The exact vanishing of [0]^+ against the numeric L(E,1) of
``mazurtate.oracle``, and the period a twisted value is divided by.
"""

from __future__ import annotations

from mazurtate.curves import CurveData
from mazurtate.oracle import LValueOracle
from mazurtate.theta import TwistedValue


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


def omega_sign(value: TwistedValue) -> str:
    """The sign of the period Omega^+- that the twisted value is divided by."""
    return "+" if value.parity == 1 else "-"
