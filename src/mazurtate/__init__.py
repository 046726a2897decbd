"""Exact computations around modular symbols of rational elliptic curves.

The names below are loaded on first access (PEP 562): ``import mazurtate``
imports no submodule, and ``from mazurtate import X`` imports only the
module defining X and what that module needs.
"""

from importlib import import_module

_EXPORTS = {
    "arith": ("CycElt", "Rat", "cyc_embed", "hensel_unit_root"),
    "curves": (
        "CurveData", "EulerFactor", "count_points", "curve_by_label", "euler_factor",
        "load_catalog",
    ),
    "groupring": (
        "DirichletCharacter", "GroupRingElement", "eval_character", "gauss_sum",
        "kolyvagin_derivative", "norm_map", "project",
    ),
    "kurihara": ("kurihara_number", "nonvanishing_search", "sieve_admissible"),
    "modsym": (
        "EigenSymbol", "ModularSymbolSpace", "build_space", "calibrate_periods", "eigen_symbol",
    ),
    "padic": (
        "PadicThetaTower", "interpolate_character", "interpolate_trivial",
        "iwasawa_invariants", "stabilize",
    ),
    "qexp": (
        "QSeries", "TorsionPoint", "check_c_relation", "dlog_d_eisenstein", "eisenstein_00",
        "f_series", "rationalized_g_qexp", "siegel_theta_qexp", "zeta_modular_form",
    ),
    "theta": ("ThetaElement", "check_norm_relation", "theta_element"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
