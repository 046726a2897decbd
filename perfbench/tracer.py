"""Outside-in tracing of mazurtate for the benchmark's traced runs.

The tracer wraps a fixed list of functions and methods of the installed
package, records one span (name, start, end, parent) per call in memory,
and restores every original on ``uninstall``.  Nothing in ``src/`` knows
about it.  Per-layer metrics are sums of span self times (a span's
duration minus the durations of the traced spans nested directly in it)
and call counts.

A module-level function is replaced in every ``mazurtate`` namespace
that bound it, because ``from .theta import theta_element`` copies the
binding (``theta_element`` lives in ``theta``, ``padic``, ``cli`` and the
package itself).  A method is replaced on its class.  Aliases made in a
class body, such as ``__rmul__ = __mul__``, keep the original and are not
traced; for ``CycElt`` and ``QSeries`` they only serve scalar products.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

clock = time.perf_counter

WRAPPED = "__perfbench_span__"


def _eigen_symbol_key(space, curve, sign):
    return (space.N, curve.label, sign)


def _values_mod_key(self, M):
    return (self.space.N, self.curve_label, self.sign, self.scaling_mode, M)


# (module, qualified name, key function for counting distinct arguments)
TARGETS = [
    ("modsym", "ModularSymbolSpace.__init__", None),
    ("modsym", "ModularSymbolSpace.hecke_matrix", None),
    ("modsym", "ModularSymbolSpace.star_matrix", None),
    ("modsym", "ModularSymbolSpace.path_vector", None),
    ("modsym", "eigen_symbol", _eigen_symbol_key),
    ("modsym", "EigenSymbol.values_mod", _values_mod_key),
    ("theta", "theta_element", None),
    ("groupring", "norm_map", None),
    ("groupring", "project", None),
    ("padic", "stabilize", None),
    ("padic", "layer_polynomial", None),
    ("padic", "iwasawa_invariants", None),
    ("kurihara", "sieve_admissible", None),
    ("kurihara", "kurihara_number", None),
    ("curves", "CurveData.ap", None),
    ("arith", "CycElt.__mul__", None),
    ("qexp", "QSeries.__mul__", None),
    ("qexp", "siegel_theta_qexp", None),
    ("qexp", "check_c_relation", None),
    ("qexp", "eisenstein_00", None),
    ("cli", "main", None),
    ("cli", "emit", None),
]

# per-layer metric -> (kind, spans it sums); kinds: self seconds, calls,
# distinct argument keys
LAYER_METRICS = {
    "modsym.space_s": ("self", ["modsym.ModularSymbolSpace.__init__"]),
    "modsym.hecke_s": (
        "self",
        ["modsym.ModularSymbolSpace.hecke_matrix", "modsym.ModularSymbolSpace.star_matrix"],
    ),
    "modsym.eigen_s": ("self", ["modsym.eigen_symbol"]),
    "modsym.eigen_symbol.calls": ("calls", ["modsym.eigen_symbol"]),
    "modsym.eigen_symbol.distinct": ("distinct", ["modsym.eigen_symbol"]),
    "modsym.path_vector_s": ("self", ["modsym.ModularSymbolSpace.path_vector"]),
    "modsym.path_vector.calls": ("calls", ["modsym.ModularSymbolSpace.path_vector"]),
    "modsym.values_mod_s": ("self", ["modsym.EigenSymbol.values_mod"]),
    "modsym.values_mod.calls": ("calls", ["modsym.EigenSymbol.values_mod"]),
    "modsym.values_mod.distinct": ("distinct", ["modsym.EigenSymbol.values_mod"]),
    "theta.theta_element_s": ("self", ["theta.theta_element"]),
    "theta.theta_element.calls": ("calls", ["theta.theta_element"]),
    "groupring.norm_map_s": ("self", ["groupring.norm_map"]),
    "groupring.project_s": ("self", ["groupring.project"]),
    "padic.stabilize_s": ("self", ["padic.stabilize"]),
    "padic.layer_polynomial_s": ("self", ["padic.layer_polynomial"]),
    "padic.layer_polynomial.calls": ("calls", ["padic.layer_polynomial"]),
    "padic.iwasawa_invariants_s": ("self", ["padic.iwasawa_invariants"]),
    "kurihara.sieve_admissible_s": ("self", ["kurihara.sieve_admissible"]),
    "kurihara.kurihara_number_s": ("self", ["kurihara.kurihara_number"]),
    "kurihara.kurihara_number.calls": ("calls", ["kurihara.kurihara_number"]),
    "curves.ap_s": ("self", ["curves.CurveData.ap"]),
    "curves.ap.calls": ("calls", ["curves.CurveData.ap"]),
    "arith.cyc_mul_s": ("self", ["arith.CycElt.__mul__"]),
    "arith.cyc_mul.calls": ("calls", ["arith.CycElt.__mul__"]),
    "qexp.series_mul_s": ("self", ["qexp.QSeries.__mul__"]),
    "qexp.series_mul.calls": ("calls", ["qexp.QSeries.__mul__"]),
    "qexp.siegel_theta_qexp_s": ("self", ["qexp.siegel_theta_qexp"]),
    "qexp.check_c_relation_s": ("self", ["qexp.check_c_relation"]),
    "qexp.eisenstein_00_s": ("self", ["qexp.eisenstein_00"]),
    "cli.main_s": ("self", ["cli.main"]),
    "cli.emit_s": ("self", ["cli.emit"]),
}


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if name == "mazurtate" or name.startswith("mazurtate.")
    ]


class Tracer:
    """Wraps ``TARGETS`` in the imported package and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.keys: dict[str, set] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, keyfn):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack
        )
        keys = self.keys.setdefault(name, set()) if keyfn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(keyfn(*args, **kwargs))
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        setattr(wrapper, WRAPPED, name)
        return wrapper

    def install(self) -> None:
        """Wrap every target; the package must already be imported."""
        modules = _package_modules()
        for module_name, qualname, keyfn in TARGETS:
            owner = sys.modules[f"mazurtate.{module_name}"]
            *class_path, attr = qualname.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr] if class_path else getattr(owner, attr)
            wrapper = self._wrap(original, f"{module_name}.{qualname}", keyfn)
            if class_path:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


def leftover_wrappers() -> list[str]:
    """Names in the package's modules and classes still bound to a wrapper."""
    found = []
    for module in _package_modules():
        for name, value in vars(module).items():
            if hasattr(value, WRAPPED):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [
                    f"{module.__name__}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, WRAPPED)
                ]
    return found


def layer_totals(spans: dict) -> dict[str, dict]:
    """Self seconds, calls and distinct argument keys per span name."""
    names, name, start, end, parent = (
        spans["names"], spans["name"], spans["start"], spans["end"], spans["parent"]
    )
    nested = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            nested[p] += end[i] - start[i]
    totals = {n: {"self": 0.0, "calls": 0, "distinct": 0} for n in names}
    for i, nid in enumerate(name):
        t = totals[names[nid]]
        t["self"] += end[i] - start[i] - nested[i]
        t["calls"] += 1
    for n, count in spans["distinct"].items():
        totals[n]["distinct"] = count
    return totals


def layer_metrics(spans: dict) -> dict[str, float]:
    totals = layer_totals(spans)
    return {
        metric: sum(totals[s][kind] for s in span_names)
        for metric, (kind, span_names) in LAYER_METRICS.items()
    }
