"""Mazur-Tate theta elements and their exact identities.

theta_M = sum over units a mod M of [a/M] sigma_a, where [r] = [r]^+ +
[r]^- is the sum of the curve's two integral-normalized eigen-symbol
values, so theta_M lies in the integral group ring Z[(Z/M)^x].  For
M = 1 the element is the singleton [0] = [0]^+ (the minus part of r = 0
vanishes by isotypy).  The period normalization is the one rational
scalar lambda of ``modsym.calibrate_periods`` on the + part; it is applied
only where a value is reported in it, by ``ThetaElement.calibrated``, as
the plain coefficient table {a: lambda [a/M]^+ + [a/M]^-} that
``integrality_report(..., lam)`` and ``theta --mode calibrated`` read.  No
rational group-ring element is built.

The projection of theta_{M ell} down one prime level satisfies the
Mazur-Tate relation (Mazur and Tate 1987), which ``check_norm_relation``
checks coefficientwise, the ``norm-relations`` suite of ``checks`` sweeps
over (M, ell) and ``padic.stabilize`` builds every tower on:

  pi(theta_{M ell}) = (a_ell - sigma_ell - sigma_ell^{-1}) theta_M   (ell good, ell not| M)
  pi(theta_{M ell}) = a_ell theta_M - nu(theta_{M/ell})              (ell | M)

Scaling the last term by ell, as in the Euler factor 1 - a_ell x + ell x^2,
moves the right side by (ell - 1) times that term, so where this relation
holds the scaled one holds only where the last term is 0 (a vacuous case).
"""

from __future__ import annotations

from .curves import CurveData
from .groupring import (
    DirichletCharacter,
    GroupRingElement,
    eval_character,
    first_mismatch,
    norm_map,
    project,
)
from .modsym import eigen_pair
from .nt import is_prime, valuation
from .records import Record


class ThetaElement(Record):
    __slots__ = ("curve_label", "modulus", "element", "plus", "minus")

    def coefficient(self, a: int) -> int:
        return self.element.coeffs[a % self.modulus]

    def augmentation(self) -> int:
        return self.element.augmentation()

    def is_zero(self) -> bool:
        return self.element.is_zero()

    def calibrated(self, lam) -> dict:
        """{a: lam [a/M]^+ + [a/M]^-}: the + part in the period normalization lam."""
        minus = self.minus.coeffs
        return {a: lam * v + minus[a] for a, v in self.plus.coeffs.items()}


_theta_cache: dict[tuple, tuple] = {}


def theta_element(curve: CurveData, M: int) -> ThetaElement:
    """The group-ring element sum_a [a/M] sigma_a over (Z/M)^x.

    Cached by the curve model and M next to the symbol pair it was read
    from; a hit needs that very pair (``is``) from ``eigen_pair``, which
    keys on the curve's a_ell, so no lookup hashes a symbol table.
    """
    if M < 1:
        raise ValueError("modulus must be >= 1")
    plus_sym, minus_sym = eigen_pair(curve)
    key = (curve.a_invariants, curve.conductor, M)
    cached = _theta_cache.get(key)
    if cached and cached[0] is plus_sym and cached[1] is minus_sym:
        return cached[2]
    plus = GroupRingElement(M, plus_sym.values_mod(M))
    minus = GroupRingElement(M, minus_sym.values_mod(M))
    theta = ThetaElement(
        curve_label=curve.label, modulus=M, element=plus + minus, plus=plus, minus=minus
    )
    _theta_cache[key] = plus_sym, minus_sym, theta
    return theta


# ---------------------------------------------------------------------------
# Norm relations


class NormRelationReport(Record):
    # branch: "ell | M" or "ell good"; vacuous: the last term,
    # sigma_ell^{-1} theta_M or nu(theta_{M/ell}), is 0
    # witness: (unit, lhs, rhs) at the first unit where the sides differ, or None
    __slots__ = ("curve_label", "M", "ell", "branch", "holds", "vacuous", "witness")


def check_norm_relation(curve: CurveData, M: int, ell: int) -> NormRelationReport:
    """Compare pi(theta_{M ell}) with the Mazur-Tate right side at (M, ell), exactly."""
    if not is_prime(ell):
        raise ValueError(f"{ell} must be prime")
    if curve.conductor % ell == 0:
        raise ValueError(f"{ell} divides the conductor; the relation needs good ell")
    lhs = project(theta_element(curve, M * ell).element, M)
    theta_m = theta_element(curve, M).element
    head = theta_m.scale(curve.ap(ell))
    if M % ell == 0:
        branch = "ell | M"
        tail = norm_map(theta_element(curve, M // ell).element, M)
    else:
        branch = "ell good"
        # sigma_shift is the identity at M = 1, where pow(ell, -1, 1) is 0
        head = head - theta_m.sigma_shift(ell)
        tail = theta_m.sigma_shift(pow(ell, -1, M))
    witness = first_mismatch(lhs, head - tail)
    return NormRelationReport(
        curve.label, M, ell, branch, witness is None, tail.is_zero(), witness
    )


# ---------------------------------------------------------------------------
# Twisted L-value avatars and integrality


class TwistedValue(Record):
    # value: CycElt
    __slots__ = ("curve_label", "character_modulus", "parity", "value")


def twisted_lvalue_avatar(curve: CurveData, chi: DirichletCharacter) -> TwistedValue:
    """chi(theta_d): the exact avatar of tau(chi) L(E, chi_bar, 1) / Omega^{chi(-1)}."""
    d = chi.modulus
    theta = theta_element(curve, d)
    value = eval_character(theta.element, chi)
    return TwistedValue(curve.label, d, chi.parity(), value)


class IntegralityReport(Record):
    # clearing_exponent: minimal e with p^e * coefficients p-integral
    __slots__ = (
        "curve_label", "prime", "level_exponent", "scaling_mode", "p_integral", "clearing_exponent",
    )

    def __str__(self):
        state = "p-integral" if self.p_integral else (
            f"needs p^{self.clearing_exponent} to clear denominators"
        )
        return (
            f"theta({self.curve_label}, {self.prime}^{self.level_exponent}) "
            f"[{self.scaling_mode}]: {state}"
        )


def integrality_report(curve: CurveData, p: int, n: int, lam=None) -> IntegralityReport:
    """p-integrality of theta at modulus p^n, or of lam theta^+ + theta^- given
    the period scalar lam of the + part."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    theta = theta_element(curve, p**n)
    if lam is None:
        coeffs, mode = theta.element.coeffs, "integral-normalized"
    else:
        coeffs, mode = theta.calibrated(lam), "plus period-calibrated, minus integral-normalized"
    # an all-zero theta is p-integral, with clearing exponent 0
    worst = min((valuation(v, p) for v in coeffs.values() if v), default=0)
    return IntegralityReport(
        curve_label=curve.label,
        prime=p,
        level_exponent=n,
        scaling_mode=mode,
        p_integral=worst >= 0,
        clearing_exponent=max(0, -worst),
    )
