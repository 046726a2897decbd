"""Mazur-Tate theta elements and their exact identities.

theta_M = sum over units a mod M of [a/M] sigma_a, where [r] = [r]^+ +
[r]^- is the sum of the two normalized modular-symbol values.  For
M = 1 the element is the singleton [0] = [0]^+ (the minus part of r = 0
vanishes by isotypy).

The projection of theta_{M ell} down one prime level satisfies a
three-term relation.  Two candidate shapes are implemented and checked
coefficientwise:

  variant A:  pi(theta_{M ell}) = (a_ell - sigma_ell - sigma_ell^{-1}) theta_M   (ell good, ell not| M)
              pi(theta_{M ell}) = a_ell theta_M - nu(theta_{M/ell})              (ell | M)
  variant B:  sigma_ell^{-1} replaced by ell * sigma_ell^{-1}, and the
              nu-term scaled by ell, mirroring the degree-2 Euler factor
              1 - a_ell x + ell x^2.

``adjudicate_norm_relations`` sweeps a range of (M, ell) and reports
which variant holds; downstream p-stabilization consumes the verdict.
"""

from __future__ import annotations

from fractions import Fraction

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
from .nt import is_prime
from .records import Record


class ThetaElement(Record):
    __slots__ = ("curve_label", "modulus", "element", "plus", "minus", "scaling_mode")

    def coefficient(self, a: int) -> int | Fraction:
        return self.element.coeffs[a % self.modulus]

    def augmentation(self) -> int | Fraction:
        return self.element.augmentation()

    def is_zero(self) -> bool:
        return self.element.is_zero()


_theta_cache: dict[tuple, ThetaElement] = {}


def theta_element(curve: CurveData, M: int, pair=None) -> ThetaElement:
    """The group-ring element sum_a [a/M] sigma_a over (Z/M)^x.

    Cached by the curve model, M and the symbol pair, which carries its
    own normalization; a pair in two normalizations reports both.
    """
    if M < 1:
        raise ValueError("modulus must be >= 1")
    if pair is None:
        pair = eigen_pair(curve)
    plus_sym, minus_sym = pair
    key = (curve.a_invariants, curve.conductor, M, plus_sym, minus_sym)
    if key in _theta_cache:
        return _theta_cache[key]
    plus = GroupRingElement(M, plus_sym.values_mod(M))
    minus = GroupRingElement(M, minus_sym.values_mod(M))
    if plus_sym.scaling_mode == minus_sym.scaling_mode:
        mode = plus_sym.scaling_mode
    else:
        mode = f"plus {plus_sym.scaling_mode}, minus {minus_sym.scaling_mode}"
    theta = ThetaElement(
        curve_label=curve.label,
        modulus=M,
        element=plus + minus,
        plus=plus,
        minus=minus,
        scaling_mode=mode,
    )
    _theta_cache[key] = theta
    return theta


# ---------------------------------------------------------------------------
# Norm relations


class NormRelationReport(Record):
    # branch: "ell | M" or "ell good"
    # status: "A", "B", "indeterminate", "neither"
    __slots__ = (
        "curve_label", "M", "ell", "branch", "variant_a_holds", "variant_b_holds", "status",
        "witness_a", "witness_b",
    )


def check_norm_relation(curve: CurveData, M: int, ell: int, pair=None) -> NormRelationReport:
    """Evaluate both three-term relation variants at (M, ell), exactly."""
    if not is_prime(ell):
        raise ValueError(f"{ell} must be prime")
    if curve.conductor % ell == 0:
        raise ValueError(f"{ell} divides the conductor; the relation needs good ell")
    if pair is None:
        pair = eigen_pair(curve)
    lhs = project(theta_element(curve, M * ell, pair).element, M)
    theta_m = theta_element(curve, M, pair).element
    a_ell = curve.ap(ell)
    if M % ell == 0:
        branch = "ell | M"
        nu_term = norm_map(theta_element(curve, M // ell, pair).element, M)
        rhs_a = theta_m.scale(a_ell) - nu_term
        rhs_b = theta_m.scale(a_ell) - nu_term.scale(ell)
    else:
        branch = "ell good"
        euler_a = (
            theta_m.scale(a_ell)
            - theta_m.sigma_shift(ell % M if M > 1 else 1)
            - theta_m.sigma_shift(pow(ell, -1, M) if M > 1 else 1)
        )
        euler_b = (
            theta_m.scale(a_ell)
            - theta_m.sigma_shift(ell % M if M > 1 else 1)
            - theta_m.sigma_shift(pow(ell, -1, M) if M > 1 else 1).scale(ell)
        )
        rhs_a, rhs_b = euler_a, euler_b
    wit_a = first_mismatch(lhs, rhs_a)
    wit_b = first_mismatch(lhs, rhs_b)
    a_holds, b_holds = wit_a is None, wit_b is None
    if a_holds and b_holds:
        status = "indeterminate"
    elif a_holds:
        status = "A"
    elif b_holds:
        status = "B"
    else:
        status = "neither"
    return NormRelationReport(
        curve.label, M, ell, branch, a_holds, b_holds, status, wit_a, wit_b
    )


class AdjudicationSummary(Record):
    # variant: the single variant holding in all non-vacuous cases
    __slots__ = ("curve_labels", "max_product", "reports", "variant", "consistent")

    def non_vacuous(self):
        return [r for r in self.reports if r.status in ("A", "B", "neither")]


def adjudicate_norm_relations(curves, max_product: int = 150) -> AdjudicationSummary:
    """Sweep all (M, ell) with good prime ell and M*ell <= max_product."""
    from .nt import primes_up_to

    reports = []
    statuses = set()
    for curve in curves:
        pair = eigen_pair(curve)
        for ell in primes_up_to(max_product):
            if curve.conductor % ell == 0:
                continue
            for M in range(1, max_product // ell + 1):
                rep = check_norm_relation(curve, M, ell, pair)
                reports.append(rep)
                if rep.status != "indeterminate":
                    statuses.add(rep.status)
    variant = statuses.pop() if len(statuses) == 1 else None
    consistent = variant in ("A", "B")
    return AdjudicationSummary(
        tuple(c.label for c in curves), max_product, reports, variant, consistent
    )


_adjudicated_variant: dict[tuple[tuple[int, ...], int], str] = {}


def adjudicated_variant(curve: CurveData) -> str:
    """The relation variant certified for this curve model (cached small sweep)."""
    key = (curve.a_invariants, curve.conductor)
    if key not in _adjudicated_variant:
        summary = adjudicate_norm_relations([curve], max_product=30)
        if not summary.consistent:
            raise AssertionError(
                f"no single relation variant certified for {curve.label}"
            )
        _adjudicated_variant[key] = summary.variant
    return _adjudicated_variant[key]


# ---------------------------------------------------------------------------
# Twisted L-value avatars and integrality


class TwistedValue(Record):
    # value: CycElt
    __slots__ = ("curve_label", "character_modulus", "parity", "value")

    def omega_sign(self) -> str:
        return "+" if self.parity == 1 else "-"


def twisted_lvalue_avatar(curve: CurveData, chi: DirichletCharacter, pair=None) -> TwistedValue:
    """chi(theta_d): the exact avatar of tau(chi) L(E, chi_bar, 1) / Omega^{chi(-1)}."""
    d = chi.modulus
    theta = theta_element(curve, d, pair)
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


def _p_valuation(x: int | Fraction, p: int) -> int:
    if x == 0:
        return 10**9
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def integrality_report(curve: CurveData, p: int, n: int, pair=None) -> IntegralityReport:
    """p-integrality of theta at modulus p^n in the current scaling mode."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    theta = theta_element(curve, p**n, pair)
    worst = min(
        _p_valuation(v, p) for v in theta.element.coeffs.values()
    ) if theta.element.coeffs else 0
    return IntegralityReport(
        curve_label=curve.label,
        prime=p,
        level_exponent=n,
        scaling_mode=theta.scaling_mode,
        p_integral=worst >= 0,
        clearing_exponent=max(0, -worst),
    )
