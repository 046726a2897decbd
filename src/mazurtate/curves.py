"""Elliptic-curve catalog: Weierstrass data, point counts, Euler factors.

Curves enter through a small text catalog (see ``load_catalog``); the
conductor and minimal model are trusted inputs.  Fourier coefficients
a_ell = ell + 1 - #E~(F_ell) are computed at every prime by enumerating x
over F_ell and counting y-solutions through a quadratic-residue table,
which keeps everything exact with no dependencies.  At ell | N the count
includes the singular point, and the nonsingular points form G_m, the
norm-one torus or G_a (Silverman, AEC III.2.5), so a_ell = 1, -1 or 0 for
split multiplicative, nonsplit multiplicative or additive reduction.

The catalog's ``fricke`` column stores the Fricke eigenvalue of the
attached newform; the sign of the functional equation of L(E, s) is its
negative.
"""

from __future__ import annotations

import os
import re

from .nt import factorize, is_prime
from .records import Frozen, Record

DEFAULT_COUNT_BOUND = 4000


class CatalogError(ValueError):
    pass


class BoundExceeded(ValueError):
    pass


class CurveData(Record):
    """Integer Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    __slots__ = ("label", "a_invariants", "conductor", "fricke_sign", "known_rank", "ap_cache")

    def __init__(
        self,
        label: str,
        a_invariants: tuple[int, int, int, int, int],
        conductor: int,
        fricke_sign: int | None = None,
        known_rank: int | None = None,
        ap_cache: dict[int, int] | None = None,
    ):
        self.label = label
        self.a_invariants = a_invariants
        self.conductor = conductor
        self.fricke_sign = fricke_sign
        self.known_rank = known_rank
        self.ap_cache = {} if ap_cache is None else ap_cache
        if self.discriminant() == 0:
            raise CatalogError(f"curve {label}: singular model")
        for ell, a in self.ap_cache.items():
            _validate_ap(self, ell, a)

    @property
    def a1(self):
        return self.a_invariants[0]

    @property
    def a2(self):
        return self.a_invariants[1]

    @property
    def a3(self):
        return self.a_invariants[2]

    @property
    def a4(self):
        return self.a_invariants[3]

    @property
    def a6(self):
        return self.a_invariants[4]

    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a_invariants
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def ap(self, ell: int) -> int:
        """a_ell at any prime, memoized: ``count_points`` stores into ``ap_cache``."""
        if ell in self.ap_cache:
            return self.ap_cache[ell]
        return count_points(self, ell)

    def an(self, n: int) -> int:
        """a_n for n >= 1 by multiplicativity and the Hecke recursion."""
        if n < 1:
            raise ValueError("n must be >= 1")
        out = 1
        for ell, e in factorize(n).items():
            out *= self._prime_power_an(ell, e)
        return out

    def _prime_power_an(self, ell: int, e: int) -> int:
        a = self.ap(ell)
        if self.conductor % ell == 0:
            return a**e
        prev, cur = 1, a
        for _ in range(e - 1):
            prev, cur = cur, a * cur - ell * prev
        return cur

    def __eq__(self, other):
        # the same curve, whatever a_ell either record has memoized in ap_cache;
        # defining __eq__ here keeps __hash__ None, so the record stays unhashable
        if other.__class__ is not CurveData:
            return NotImplemented
        fields = ("label", "a_invariants", "conductor", "fricke_sign", "known_rank")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    def __repr__(self):
        return f"CurveData({self.label}, N={self.conductor})"


def _validate_ap(curve: CurveData, ell: int, a: int):
    if curve.conductor % ell == 0:
        if a not in (-1, 0, 1):
            raise CatalogError(
                f"curve {curve.label}: a_{ell} = {a} invalid at a bad prime"
            )
    elif a * a > 4 * ell:
        raise CatalogError(
            f"curve {curve.label}: a_{ell} = {a} violates the Hasse bound"
        )


def count_points(curve: CurveData, ell: int) -> int:
    """a_ell = ell + 1 - #E~(F_ell) at any prime ell, by enumeration over x.

    For each x the number of y with y^2 + (a1 x + a3) y = f(x) is
    1 + chi(disc) where chi is the quadratic character of F_ell, read off
    a precomputed table of squares.  The point at infinity is counted.  At
    ell | N the singular point is counted too, so the result is 1, -1 or 0
    by AEC III.2.5.  Good ell are bounded by ``DEFAULT_COUNT_BOUND``; bad
    ell are not.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if curve.conductor % ell == 0:
        if curve.discriminant() % ell:
            raise CatalogError(
                f"curve {curve.label} is smooth mod {ell}; conductor datum is wrong"
            )
    elif ell > DEFAULT_COUNT_BOUND:
        raise BoundExceeded(
            f"prime {ell} exceeds the enumeration bound {DEFAULT_COUNT_BOUND}"
        )
    if ell in curve.ap_cache:
        return curve.ap_cache[ell]
    a1, a2, a3, a4, a6 = (c % ell for c in curve.a_invariants)
    if ell == 2:
        affine = sum(
            1
            for x in range(2)
            for y in range(2)
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2
            == 0
        )
    else:
        chi = [-1] * ell
        for y in range(1, ell):
            chi[y * y % ell] = 1
        chi[0] = 0
        affine = 0
        for x in range(ell):
            rhs = (x * (x * (x + a2) + a4) + a6) % ell
            lin = (a1 * x + a3) % ell
            disc = (lin * lin + 4 * rhs) % ell
            affine += 1 + chi[disc]
    a = ell + 1 - (affine + 1)
    assert a * a <= 4 * ell, "Hasse bound"
    curve.ap_cache[ell] = a
    return a


class EulerFactor(Frozen):
    """P_ell(x) = det(1 - x Frob_ell), as integer coefficients [1, ...]."""

    __slots__ = ("prime", "coefficients")

    def evaluate(self, x):
        out = 0
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def __repr__(self):
        names = {0: "1", 1: "x", 2: "x^2"}
        terms = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                terms.append(("-" if c < 0 else "+") + f" {mag}{names[i]}")
        return " ".join(terms)


def euler_factor(curve: CurveData, ell: int) -> EulerFactor:
    """1 - a_ell x + ell x^2 at good ell, 1 - a_ell x at bad ell."""
    a = curve.ap(ell)
    if curve.conductor % ell == 0:
        return EulerFactor(ell, (1, -a))
    return EulerFactor(ell, (1, -a, ell))


# ---------------------------------------------------------------------------
# Catalog parsing

_LINE = re.compile(
    r"^(?P<label>\S+)\s+\[(?P<ai>[-0-9,\s]+)\]\s+(?P<N>\d+)\s+(?P<fricke>[-+?])"
    r"(?P<rest>(\s+\S+)*)\s*$"
)


def parse_catalog_line(line: str, lineno: int = 0) -> CurveData:
    m = _LINE.match(line.strip())
    if not m:
        raise CatalogError(f"line {lineno}: cannot parse {line.strip()!r}")
    try:
        ai = tuple(int(c.strip()) for c in m.group("ai").split(","))
    except ValueError as exc:
        raise CatalogError(f"line {lineno}: malformed coefficient list") from exc
    if len(ai) != 5:
        raise CatalogError(
            f"line {lineno}: expected 5 Weierstrass coefficients, got {len(ai)}"
        )
    fricke = {"+": 1, "-": -1, "?": None}[m.group("fricke")]
    rank = None
    ap_cache: dict[int, int] = {}
    for tok in m.group("rest").split():
        if tok.startswith("rank="):
            rank = int(tok[5:])
        elif tok.startswith("ap="):
            for item in tok[3:].split(","):
                ell_s, a_s = item.split(":")
                ap_cache[int(ell_s)] = int(a_s)
        else:
            raise CatalogError(f"line {lineno}: unknown field {tok!r}")
    try:
        return CurveData(
            label=m.group("label"),
            a_invariants=ai,
            conductor=int(m.group("N")),
            fricke_sign=fricke,
            known_rank=rank,
            ap_cache=ap_cache,
        )
    except CatalogError as exc:
        raise CatalogError(f"line {lineno}: {exc}") from exc


def load_catalog(path=None) -> list[CurveData]:
    """Parse a catalog file; with no path, the bundled catalog."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "curves.cat")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    curves = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        curves.append(parse_catalog_line(line, lineno))
    return curves


def curve_by_label(label: str, path=None) -> CurveData:
    for curve in load_catalog(path):
        if curve.label == label:
            return curve
    raise CatalogError(f"unknown curve label {label!r}")
