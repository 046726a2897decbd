"""Elliptic-curve catalog: Weierstrass data, point counts, Euler factors.

Curves enter through a small text catalog (see ``load_catalog``); the
conductor and minimal model are trusted inputs.  Fourier coefficients
a_ell at good primes are computed by enumerating x over F_ell and
counting y-solutions through a quadratic-residue table, which keeps
everything exact with no dependencies.

The catalog's ``fricke`` column stores the Fricke eigenvalue of the
attached newform; the sign of the functional equation of L(E, s) is its
negative.
"""

from __future__ import annotations

import re

from .nt import is_prime
from .records import Frozen, Record

DEFAULT_COUNT_BOUND = 4000


class CatalogError(ValueError):
    pass


class BadPrimeError(ValueError):
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

    def ap(self, ell: int, bound: int = DEFAULT_COUNT_BOUND) -> int:
        """a_ell at any prime, dispatching on reduction type; memoized, as
        ``count_points`` and ``bad_ap`` store into ``ap_cache``."""
        if ell in self.ap_cache:
            return self.ap_cache[ell]
        a = bad_ap(self, ell) if self.conductor % ell == 0 else count_points(
            self, ell, bound
        )
        return a

    def an(self, n: int, bound: int = DEFAULT_COUNT_BOUND) -> int:
        """a_n for n >= 1 by multiplicativity and the Hecke recursion."""
        if n < 1:
            raise ValueError("n must be >= 1")
        out = 1
        for ell, e in _factor(n).items():
            out *= self._prime_power_an(ell, e, bound)
        return out

    def _prime_power_an(self, ell: int, e: int, bound: int) -> int:
        a = self.ap(ell, bound)
        if self.conductor % ell == 0:
            return a**e
        prev, cur = 1, a
        for _ in range(e - 1):
            prev, cur = cur, a * cur - ell * prev
        return cur

    def __repr__(self):
        return f"CurveData({self.label}, N={self.conductor})"


def _factor(n: int) -> dict[int, int]:
    from .nt import factorize

    return factorize(n)


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


def count_points(curve: CurveData, ell: int, bound: int = DEFAULT_COUNT_BOUND) -> int:
    """a_ell = ell + 1 - #E(F_ell) at a good prime, by enumeration over x.

    For each x the number of y with y^2 + (a1 x + a3) y = f(x) is
    1 + chi(disc) where chi is the quadratic character of F_ell, read off
    a precomputed table of squares.  The point at infinity is counted.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if curve.conductor % ell == 0:
        raise BadPrimeError(f"bad prime {ell} for {curve.label} -- use bad_ap")
    if ell > bound:
        raise BoundExceeded(f"prime {ell} exceeds the enumeration bound {bound}")
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
        chi = [0] * ell
        for y in range(1, ell):
            chi[y * y % ell] = 1
        for v in range(1, ell):
            if not chi[v]:
                chi[v] = -1
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


def bad_ap(curve: CurveData, ell: int) -> int:
    """Reduction type at ell | N: 1 split, -1 nonsplit, 0 additive.

    The reduced curve has a unique singular point; the type is decided by
    whether the tangent cone v^2 + a1 uv - (3 x0 + a2) u^2 there splits
    over F_ell.
    """
    if curve.conductor % ell != 0:
        raise BadPrimeError(f"{ell} is a good prime for {curve.label}")
    a1, a2, a3, a4, a6 = (c % ell for c in curve.a_invariants)
    if ell in curve.ap_cache:
        return curve.ap_cache[ell]
    sing = None
    for x in range(ell):
        for y in range(ell):
            f = (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % ell
            if f:
                continue
            fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % ell
            fy = (2 * y + a1 * x + a3) % ell
            if fx == 0 and fy == 0:
                sing = (x, y)
                break
        if sing:
            break
    if sing is None:
        raise BadPrimeError(
            f"curve {curve.label} is smooth mod {ell}; conductor datum is wrong"
        )
    x0, _ = sing
    if ell == 2:
        # char 2: v^2 + a1 uv + c u^2 with c = x0 + a2
        if a1 % 2 == 0:
            a = 0
        else:
            a = 1 if (x0 + a2) % 2 == 0 else -1
    else:
        disc = (a1 * a1 + 4 * a2 + 12 * x0) % ell
        if disc == 0:
            a = 0
        else:
            a = 1 if pow(disc, (ell - 1) // 2, ell) == 1 else -1
    curve.ap_cache[ell] = a
    return a


class EulerFactor(Frozen):
    """P_ell(x) = det(1 - x Frob_ell), as integer coefficients [1, ...]."""

    __slots__ = ("prime", "coefficients")

    def degree(self) -> int:
        return len(self.coefficients) - 1

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


def euler_factor(curve: CurveData, ell: int, bound: int = DEFAULT_COUNT_BOUND) -> EulerFactor:
    """1 - a_ell x + ell x^2 at good ell, 1 - a_ell x at bad ell."""
    if curve.conductor % ell == 0:
        return EulerFactor(ell, (1, -bad_ap(curve, ell)))
    return EulerFactor(ell, (1, -count_points(curve, ell, bound), ell))


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
        from importlib.resources import files

        text = files("mazurtate.data").joinpath("curves.cat").read_text()
    else:
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
