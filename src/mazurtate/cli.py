"""Command-line front end.

Subcommands: curve, msym, theta, plfunc, kurihara, qexp, oracle, verify.
Global flags: --catalog <path>, --json, --no-timing.
``verify`` runs the named suites of ``mazurtate.checks``, the same code the
acceptance tests run.
Exit codes: 0 all checks pass or vacuous, 1 check failure, 2 usage or
input error.  Structured output is one JSON object per run with the
fields of the run report; numbers are serialized as decimal strings and
exact rationals as "p/q".
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from fractions import Fraction
from functools import cache

from .nt import primes_up_to
from .records import Check, Record


def _register_lazily(names) -> None:
    """Put each layer in ``sys.modules`` unexecuted; its body runs on first attribute read.

    A command thus compiles and runs only the layers it reaches (``qexp e00``
    none of the symbol layers), while every layer is still found in
    ``sys.modules`` and as an attribute of the package, as after a plain import.
    """
    package = sys.modules[__package__]
    for name in names:
        fullname = f"{__package__}.{name}"
        if fullname in sys.modules:
            continue
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(package, name, module)


# Dependents come before the layers they import from.  perfbench's tracer
# rebinds a wrapped function in every module while its sweep over
# sys.modules loads the lazy ones in this order; a module that loaded after
# the module it imports from was patched would bind the wrapper, and
# uninstall would leave it there.
_register_lazily(("padic", "kurihara", "theta", "modsym", "groupring", "qexp", "arith", "curves"))
from . import curves, kurihara, modsym, padic, qexp, theta  # noqa: E402


class UsageError(ValueError):
    pass


class RunReport(Record):
    __slots__ = ("command", "inputs", "outputs", "checks", "timing")

    def __init__(
        self,
        command: str,
        inputs: dict,
        outputs: dict | None = None,
        checks: list[Check] | None = None,
        timing: float | None = None,
    ):
        self.command = command
        self.inputs = inputs
        self.outputs = {} if outputs is None else outputs
        self.checks = [] if checks is None else checks
        self.timing = timing

    def exit_code(self) -> int:
        return 0 if all(c.status in ("pass", "vacuous") for c in self.checks) else 1


def _ser(x):
    """Serialize values: rationals as 'p/q', numbers as decimal strings."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, float)):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _ser(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_ser(v) for v in x]
    return str(x)


def emit(report: RunReport, args) -> int:
    if args.no_timing:
        report.timing = None
    if args.json:
        obj = {
            "command": report.command,
            "inputs": _ser(report.inputs),
            "outputs": _ser(report.outputs),
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in report.checks
            ],
        }
        if report.timing is not None:
            obj["timing"] = f"{report.timing:.3f}"
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(f"== {report.command}")
        for k, v in report.inputs.items():
            print(f"   {k} = {_ser(v)}")
        for k, v in report.outputs.items():
            print(f"{k}: {_text_block(v)}")
        for c in report.checks:
            mark = {"pass": "ok", "fail": "FAIL", "vacuous": "--"}[c.status]
            extra = f"  [{c.witness}]" if c.witness and c.status == "fail" else ""
            print(f"[{mark:>4}] {c.name}{extra}")
        if report.timing is not None:
            print(f"({report.timing:.3f}s)")
    return report.exit_code()


def _text_block(v):
    v = _ser(v)
    if isinstance(v, dict):
        return "\n" + "\n".join(f"    {k} = {val}" for k, val in v.items())
    if isinstance(v, list):
        return "\n" + "\n".join(f"    {item}" for item in v)
    return v


def _get_curve(label: str, args):
    try:
        return curves.curve_by_label(label, args.catalog)
    except curves.CatalogError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_curve(args) -> RunReport:
    if args.ap_bound < 0:
        raise UsageError(f"--ap-bound must be >= 0, got {args.ap_bound}")
    curve = _get_curve(args.label, args)
    report = RunReport(
        "curve",
        {"label": args.label, "ap_bound": args.ap_bound},
    )
    report.outputs["model"] = (
        f"y^2 + {curve.a1} xy + {curve.a3} y = "
        f"x^3 + {curve.a2} x^2 + {curve.a4} x + {curve.a6}"
    )
    report.outputs["conductor"] = curve.conductor
    report.outputs["discriminant"] = curve.discriminant()
    if curve.fricke_sign is not None:
        report.outputs["fricke"] = curve.fricke_sign
    if curve.known_rank is not None:
        report.outputs["rank"] = curve.known_rank
    ap = {}
    reduction = {}
    factors = {}
    for ell in primes_up_to(args.ap_bound):
        ap[ell] = curve.ap(ell)
        factors[ell] = repr(curves.euler_factor(curve, ell))
        if curve.conductor % ell == 0:
            reduction[ell] = {1: "split multiplicative", -1: "nonsplit multiplicative", 0: "additive"}[
                ap[ell]
            ]
    report.outputs["a_ell"] = ap
    if reduction:
        report.outputs["reduction"] = reduction
    report.outputs["euler_factors"] = factors
    return report


def cmd_msym(args) -> RunReport:
    curve = _get_curve(args.label, args) if args.label else None
    N = curve.conductor if curve else args.level
    if N is None:
        raise UsageError("msym needs --level or a curve label")
    if curve and args.level not in (None, N):
        raise UsageError(f"--level {args.level} is not the conductor {N} of {curve.label}")
    if args.calibrate and not curve:
        raise UsageError("--calibrate needs a curve label")
    space = modsym.build_space(N)
    report = RunReport("msym", {"level": N, "label": args.label})
    report.outputs["dimension"] = space.dimension
    report.outputs["genus"] = modsym.genus_x0(N)
    report.outputs["cusps"] = modsym.cusp_count(N)
    report.checks.append(
        Check.of(
            "dimension = 2g + cusps - 1",
            space.dimension == 2 * modsym.genus_x0(N) + modsym.cusp_count(N) - 1,
        )
    )
    if curve is not None:
        plus, minus = modsym.eigen_pair(curve)
        report.outputs["eigen_plus"] = list(plus.vector)
        report.outputs["eigen_minus"] = list(minus.vector)
        report.outputs["hecke_bound"] = max(plus.hecke_bound, minus.hecke_bound)
        report.outputs["value_plus_at_0"] = plus.value(0)
        if args.calibrate:
            try:
                lam = modsym.calibrate_periods(plus, curve)
                report.outputs["calibration_scalar"] = lam
                report.checks.append(Check("period calibration", "pass"))
            except modsym.CalibrationUndetermined as exc:
                wit = f"L(E,1) = 0 and [0]^+ = 0: {exc}"
                report.checks.append(Check("period calibration", "vacuous", wit))
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                report.checks.append(Check("period calibration", "fail", str(exc)))
    return report


def cmd_theta(args) -> RunReport:
    curve = _get_curve(args.label, args)
    lam = 1
    if args.mode == "calibrated":
        # the engine's theta is integral; the period scalar is applied here, to
        # the + part only (no Omega^- calibration exists): lam theta^+ + theta^-
        lam = modsym.calibrate_periods(modsym.eigen_pair(curve)[0], curve)
    theta_m = theta.theta_element(curve, args.modulus)
    coeffs = theta_m.calibrated(lam)
    report = RunReport(
        "theta", {"label": args.label, "M": args.modulus, "mode": args.mode}
    )
    report.outputs["coefficients"] = {f"sigma_{a}": v for a, v in sorted(coeffs.items())}
    if args.mode == "calibrated":
        report.outputs["normalization"] = {
            "plus": "period-calibrated",
            "minus": modsym.EigenSymbol.scaling_mode,
        }
    report.outputs["augmentation"] = sum(coeffs.values())
    # complex conjugation a |-> -a fixes the + part and negates the - part
    plus, minus, M = theta_m.plus.coeffs, theta_m.minus.coeffs, args.modulus
    cov = all(coeffs[-a % M] == lam * plus[a] - minus[a] for a in coeffs)
    report.checks.append(Check.of("conjugation covariance", cov))
    return report


def cmd_plfunc(args) -> RunReport:
    curve = _get_curve(args.label, args)
    report = RunReport(
        "plfunc",
        {"label": args.label, "p": args.p, "k": args.k, "n_max": args.n_max},
    )
    tower = padic.stabilize(curve, args.p, args.k, args.n_max)
    report.outputs["alpha"] = f"{tower.alpha} mod {tower.pk}"
    report.outputs["variant"] = tower.variant
    report.outputs["layers"] = {
        f"n={n}": {f"sigma_{a}": v for a, v in sorted(x.coeffs.items())}
        for n, x in tower.layers.items()
    }
    for n, ok, wit in tower.check_projectivity():
        report.checks.append(Check.of(f"projectivity layer {n+1} -> {n}", ok, wit))
    interp = padic.interpolate_trivial(tower)
    report.checks.append(
        Check.of(
            "trivial-character interpolation",
            interp.holds,
            f"expected {interp.expected} mod {tower.pk}",
        )
    )
    if args.n_max >= 3:
        try:
            inv = padic.iwasawa_invariants(tower)
            report.outputs["iwasawa"] = {
                "lambda": inv.lambda_,
                "mu": inv.mu,
                "layer": inv.layer,
                "stable": inv.stable,
            }
            report.outputs["normalization"] = {"iwasawa": inv.normalization}
        except padic.PrecisionError as exc:
            report.outputs["iwasawa"] = f"unavailable: {exc}"
    return report


def cmd_kurihara(args) -> RunReport:
    curve = _get_curve(args.label, args)
    report = RunReport(
        "kurihara",
        {
            "label": args.label,
            "p": args.p,
            "k": args.k,
            "bound": args.bound,
            "max_nu": args.nu,
        },
    )
    prime_set = kurihara.sieve_admissible(curve, args.p, args.k, args.bound)
    report.outputs["admissible_primes"] = prime_set.primes
    table = kurihara.nonvanishing_search(prime_set, args.nu)
    report.outputs["table"] = [
        {
            "n": r.n,
            "factors": list(r.factors),
            "value": f"{r.value} mod {table.p**table.k}",
            "unit_class": r.unit_class,
            "vanishes": r.vanishes,
        }
        for r in table.rows
    ]
    report.outputs["summary"] = table.summary()
    return report


def _parse_point(text: str) -> qexp.TorsionPoint:
    try:
        a_s, b_s = text.split(",")
        a_n, a_d = a_s.split("/")
        b_n, b_d = b_s.split("/")
        if a_d != b_d:
            raise ValueError
        return qexp.TorsionPoint(int(a_n), int(b_n), int(a_d))
    except ValueError:
        raise UsageError(f"point must look like a/N,b/N with equal N: {text!r}")


def _series_rows(series):
    return [
        {"exponent": e, "coefficient": list(coords)}
        for e, coords in series.serialized_rows()
    ]


def cmd_qexp(args) -> RunReport:
    if args.weight is None:  # zeta needs 1 <= r <= k-1, so k = 2 with r = 1
        args.weight = 2 if args.target == "zeta" else 1
    if args.c is None:  # g-unit needs c = 1 mod N
        g_unit = args.target == "g-unit"
        args.c = qexp.smallest_unit_scalar(_parse_point(args.point).level) if g_unit else 7
    report = RunReport(
        "qexp",
        {
            "target": args.target,
            "point": args.point,
            "c": args.c,
            "d": args.d,
            "k": args.weight,
            "prec": args.prec,
        },
    )
    # only siegel's --prec is an absolute order, which may lie below 0
    if args.prec < 0 and args.target != "siegel":
        raise UsageError(f"--prec must not be negative, got {args.prec}")
    # these count steps past the lead, so order 0 knows no term
    if args.prec == 0 and args.target in ("g-unit", "c-relation"):
        raise UsageError(f"{args.target} needs --prec > 0, got 0")
    try:
        if args.target == "siegel":
            pt = _parse_point(args.point)
            s = qexp.siegel_theta_qexp(pt, args.c, args.prec)
            lead = qexp.theta_lead_exponent(pt, args.c)
            if args.prec < 0 and args.prec <= lead:
                raise UsageError(f"--prec {args.prec} is negative and not above the lead {lead}")
            report.outputs["grid"] = s.grid
            report.outputs["lead_exponent"] = lead
            report.outputs["truncation"] = s.trunc_exponent
            report.outputs["series"] = _series_rows(s)
        elif args.target == "g-unit":
            pt = _parse_point(args.point)
            g = qexp.rationalized_g_qexp(pt, args.prec, args.c)
            report.outputs["lead_exponent"] = g.lead_exponent
            report.outputs["root_order"] = g.root_order
            report.outputs["lead_base"] = list(g.lead_base.coords)
            report.outputs["unit_series"] = _series_rows(g.unit)
        elif args.target == "eisenstein":
            pt = _parse_point(args.point)
            s = qexp.dlog_d_eisenstein(pt, args.c, args.weight, args.prec)
            report.outputs["series"] = _series_rows(s)
        elif args.target == "e00":
            s = qexp.eisenstein_00(args.weight, args.c, args.aux, args.prec)
            report.outputs["series"] = _series_rows(s)
        elif args.target == "f":
            pt = _parse_point(args.point)
            s = qexp.f_series(args.weight, pt, args.prec)
            report.outputs["series"] = _series_rows(s)
        elif args.target == "zeta":
            z = qexp.zeta_modular_form(
                args.big_m, args.big_n, args.weight, args.r, args.rp, args.prec
            )
            for name, s in z.branches.items():
                report.outputs[f"branch {name}"] = _series_rows(s)
        elif args.target == "c-relation":
            pt = _parse_point(args.point)
            rep = qexp.check_c_relation(pt, args.c, args.d, args.prec)
            report.checks.append(
                Check.of(f"c,d-relation c={args.c} d={args.d}", rep.holds, rep.witness)
            )
        else:
            raise UsageError(f"unknown qexp target {args.target!r}")
    except (qexp.QExpError, qexp.GatedFeatureError, qexp.ZetaParameterError) as exc:
        raise UsageError(str(exc))
    return report


def cmd_verify(args) -> RunReport:
    from .checks import SUITES

    if args.suite not in SUITES and args.suite != "all":
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)} or 'all'"
        )
    if args.prec < 0:
        raise UsageError(f"--prec must not be negative, got {args.prec}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = RunReport("verify", {"suite": args.suite})
    for name in names:
        suite, params = SUITES[name]
        outputs, found = suite(**{param: getattr(args, param) for param in params})
        for k, v in outputs.items():
            report.outputs[f"{name}.{k}"] = v
        for c in found:
            report.checks.append(Check(f"{name}: {c.name}", c.status, c.witness))
    return report


def cmd_oracle(args) -> RunReport:
    from .oracle import lvalue_and_period

    curve = _get_curve(args.label, args)
    oracle = lvalue_and_period(curve)
    report = RunReport("oracle", {"label": args.label})
    report.outputs["lvalue"] = f"{oracle.lvalue:.12g}"
    report.outputs["omega_plus"] = f"{oracle.omega_plus:.12g}"
    report.outputs["ratio"] = f"{oracle.normalized:.12g}"
    report.outputs["tail_bound"] = f"{oracle.tail_bound:.3g}"
    report.outputs["real_components"] = oracle.real_components
    return report


# ---------------------------------------------------------------------------
# Argument parsing


@cache  # parse_args leaves the parser unchanged, so one per process serves every main()
def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a pre-subcommand global flag from being clobbered by
    # the subparser's default; real defaults are filled in main()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--catalog", default=argparse.SUPPRESS, help="curve catalog file"
    )
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="structured output",
    )
    common.add_argument("--no-timing", action="store_true", default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="mazurtate",
        description="Exact modular-symbol, theta-element, p-adic L-function, "
        "Kurihara-number, and q-expansion computations for rational elliptic curves.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("curve", help="model, a_ell table, Euler factors")
    p.add_argument("label")
    p.add_argument("--ap-bound", type=int, default=20)
    p.set_defaults(func=cmd_curve)

    p = add_parser("msym", help="modular symbol space and eigen-symbols")
    p.add_argument("label", nargs="?", default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--calibrate", action="store_true")
    p.set_defaults(func=cmd_msym)

    p = add_parser("theta", help="Mazur-Tate element at a modulus")
    p.add_argument("label")
    p.add_argument("modulus", type=int)
    p.add_argument("--mode", choices=["integral", "calibrated"], default="integral")
    p.set_defaults(func=cmd_theta)

    p = add_parser("plfunc", help="p-stabilized tower and invariants")
    p.add_argument("label")
    p.add_argument("-p", type=int, required=True, dest="p")
    p.add_argument("-k", type=int, default=4, dest="k")
    p.add_argument("-n", type=int, default=3, dest="n_max")
    p.set_defaults(func=cmd_plfunc)

    p = add_parser("kurihara", help="admissible primes and delta_n table")
    p.add_argument("label")
    p.add_argument("-p", type=int, required=True, dest="p")
    p.add_argument("-k", type=int, default=1, dest="k")
    p.add_argument("--bound", type=int, default=200)
    p.add_argument("--nu", type=int, default=1)
    p.set_defaults(func=cmd_kurihara)

    p = add_parser("qexp", help="theta/Siegel/Eisenstein expansions")
    p.add_argument(
        "target",
        choices=["siegel", "g-unit", "eisenstein", "e00", "f", "zeta", "c-relation"],
    )
    p.add_argument("--point", default="0/5,1/5")
    p.add_argument("--c", type=int, default=None, help="7; for g-unit the least c = 1 mod N")
    p.add_argument("--d", type=int, default=11)
    p.add_argument(
        "--weight", "-k", type=int, default=None, help="default 2 for zeta, 1 otherwise"
    )
    p.add_argument("--aux", type=int, default=2)
    p.add_argument("--prec", type=Fraction, default=Fraction(8))
    p.add_argument("--big-m", type=int, default=5)
    p.add_argument("--big-n", type=int, default=7)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--rp", type=int, default=1)
    p.set_defaults(func=cmd_qexp)

    p = add_parser("oracle", help="numeric L(E,1) and real period")
    p.add_argument("label")
    p.set_defaults(func=cmd_oracle)

    p = add_parser("verify", help="named identity suites")
    p.add_argument("suite")
    p.add_argument("--max-l", type=int, default=100, dest="max_l")
    p.add_argument("--max-product", type=int, default=60)
    p.add_argument("-k", type=int, default=4, dest="k")
    p.add_argument("-n", type=int, default=3, dest="n_max")
    p.add_argument("--prec", type=int, default=15)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for name, default in (
        ("catalog", None),
        ("json", False),
        ("no_timing", False),
    ):
        if not hasattr(args, name):
            setattr(args, name, default)
    t0 = time.perf_counter()
    try:
        report = args.func(args)
    except ValueError as exc:  # UsageError, curves.CatalogError and OracleError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.timing = time.perf_counter() - t0
    return emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
