"""The named identity suites behind ``mazurtate verify``.

Each suite takes its parameters and returns ``(outputs, checks)``: a dict
of named outputs and a list of ``Check`` verdicts.  ``SUITES`` maps a
suite's name to the suite and the ``verify`` options it reads; the CLI
and the acceptance tests run these functions, and nothing else defines
the checks.  Layers are reached through their modules (``padic.stabilize``),
so a caller that rebinds a layer function is seen here too.
"""

from __future__ import annotations

from . import arith, curves, groupring, padic, qexp, theta
from .nt import is_primitive_root, primes_up_to
from .records import Check

_TOWERS = (("11a1", 3), ("11a1", 7), ("37a1", 5))


def norm_relations(max_product: int, catalog=None):
    """The Mazur-Tate relation on 11a1 and 37a1 at every good ell and M ell <= max_product.

    The check passes when every case holds and one is not vacuous (its
    last term is nonzero); a fail names the first failing case in sweep
    order with its (unit, lhs, rhs).
    """
    reports = [
        theta.check_norm_relation(curve, M, ell)
        for curve in (curves.curve_by_label(label, catalog) for label in ("11a1", "37a1"))
        for ell in primes_up_to(max_product) if curve.conductor % ell
        for M in range(1, max_product // ell + 1)
    ]
    non_vac = sum(not r.vacuous for r in reports)
    name = f"single variant across {non_vac} non-vacuous cases (of {len(reports)})"
    bad = next((r for r in reports if not r.holds), None)
    if bad:
        witness = f"{bad.curve_label} M={bad.M} ell={bad.ell}: (unit, lhs, rhs) = {bad.witness}"
        check = Check(name, "fail", witness)
    else:
        check = Check(name, "pass" if non_vac else "vacuous")
    # "A" is the Mazur-Tate relation's name in ``padic`` too
    return {"variant": "A" if check.status == "pass" else None}, [check]


def projectivity(k: int, n_max: int, catalog=None):
    """pi(theta^alpha_{n+1}) = theta^alpha_n mod p^k on three towers."""
    found = []
    for label, p in _TOWERS:
        tower = padic.stabilize(curves.curve_by_label(label, catalog), p, k, n_max)
        found += [
            Check.of(f"{label} p={p}: layer {n+1} -> {n} mod {p}^{k}", ok, wit)
            for n, ok, wit in tower.check_projectivity()
        ]
    if not found:  # n_max = 1 builds one layer, so no pair is compared
        found = [Check(f"layer n+1 -> n mod p^{k}: no pair with n < {n_max}", "vacuous")]
    return {}, found


def interpolation(k: int, n_max: int, catalog=None):
    """The trivial character on three towers, and an order-3 character mod 9 for 11a1."""
    found = []
    for label, p in _TOWERS:
        tower = padic.stabilize(curves.curve_by_label(label, catalog), p, k, min(n_max, 2))
        holds = padic.interpolate_trivial(tower).holds
        found.append(Check.of(f"{label} p={p}: trivial character", holds))
    curve = curves.curve_by_label("11a1", catalog)
    tower = padic.stabilize(curve, 3, k, 2)
    chi = next(c for c in groupring.all_characters(9) if c.is_primitive())
    holds = padic.interpolate_character(tower, chi, curve).holds
    found.append(Check.of("11a1 p=3: order-3 character mod 9", holds))
    return {}, found


def kolyvagin_identity(max_l: int):
    """Kolyvagin's telescoping (sigma_eta - 1) D_ell = (ell - 1) - N_ell, every root eta."""
    pairs = [
        (ell, eta)
        for ell in primes_up_to(max_l) if ell != 2
        for eta in range(2, ell) if is_primitive_root(eta, ell)
    ]
    bad = [pair for pair in pairs if not groupring.telescoping_check(*pair)]
    name = f"(sigma_eta - 1) D_ell = (ell-1) - N_ell for {len(pairs)} pairs (ell <= {max_l})"
    if not pairs:
        return {}, [Check(name, "vacuous")]
    return {}, [Check.of(name, not bad, bad[:3])]


def gauss():
    """tau(chi) tau(chi-bar) = chi(-1) d for the primitive characters of conductor <= 13."""
    bad = []
    total = 0
    for d in range(1, 14):
        for chi in groupring.all_characters(d):
            if not chi.is_primitive():
                continue
            total += 1
            prod = groupring.gauss_sum(chi) * groupring.gauss_sum(chi.conjugate())
            if prod != arith.CycElt.rational(chi.parity() * d, prod.conductor):
                bad.append((d, chi.exponents))
    name = f"tau(chi) tau(chi-bar) = chi(-1) d for {total} primitive chi, d <= 13"
    return {}, [Check.of(name, not bad, bad[:3])]


def siegel_c():
    """The Siegel unit g at 1/5 does not depend on c, and the c,d-relation holds."""
    pt = qexp.TorsionPoint(0, 1, 5)
    g1 = qexp.rationalized_g_qexp(pt, 10, 11)
    g2 = qexp.rationalized_g_qexp(pt, 10, 31)
    agree, wit = g1.unit.agreement(g2.unit)
    rep = qexp.check_c_relation(pt, 7, 11, 8)
    return {}, [
        Check.of(
            "rationalized g unit parts agree (c = 11 vs 31, N = 5, q^10)",
            agree and g1.lead_exponent == g2.lead_exponent,
            wit,
        ),
        Check.of("c,d-symmetric theta relation (c=7, d=11, q^8)", rep.holds, rep.witness),
    ]


def eisenstein_a(prec: int):
    """E^(k)_00 does not depend on the auxiliary a, for k = 1 and 3."""
    if prec <= 0:  # E^(k)_00 has no term below q^0, so nothing is compared
        return {}, [Check(f"E^(k)_00 independent of a: no term below q^{prec}", "vacuous")]
    found = []
    for k in (1, 3):
        ea, eb = (qexp.eisenstein_00(k, 5, a, prec) for a in (2, 3))
        name = f"E^({k})_00 independent of a (a = 2 vs 3, c = 5, q^{prec})"
        found.append(Check.of(name, *ea.agreement(eb)))
    return {}, found


# name -> (suite, the verify options it reads); verify all runs them in this order
SUITES = {
    "norm-relations": (norm_relations, ("max_product", "catalog")),
    "projectivity": (projectivity, ("k", "n_max", "catalog")),
    "interpolation": (interpolation, ("k", "n_max", "catalog")),
    "kolyvagin-identity": (kolyvagin_identity, ("max_l",)),
    "gauss": (gauss, ()),
    "siegel-c": (siegel_c, ()),
    "eisenstein-a": (eisenstein_a, ("prec",)),
}
