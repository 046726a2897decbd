"""Exact arithmetic foundation: rationals, cyclotomic fields, unit roots.

Conventions
-----------
* ``Rat`` is ``fractions.Fraction`` (always reduced, positive denominator).
* Residues mod p^k are plain ints in [0, p^k); the modulus lives on the
  value that holds them (a tower, a Kurihara number), not on each int.
* ``CycElt`` represents an element of Q(zeta_L) in the power basis
  1, z, ..., z^{phi(L)-1} modulo the L-th cyclotomic polynomial, with
  integer coordinates over one common denominator; Phi_L is monic, so
  every reduction stays in the integers.  Products require equal
  conductors; use ``cyc_embed`` to move into a joint field first.
* ``poly_mac`` and ``cyc_scatter`` are the one kernel on those integer
  rows: ``CycElt`` and ``qexp.QSeries`` both multiply, embed and conjugate
  through them.  ``binary_power`` powers ``CycElt`` only; a series is
  powered by Miller's recurrence in ``qexp``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .nt import divisors, euler_phi, factorize, is_prime

Rat = Fraction


class ConductorMismatch(ValueError):
    pass


class ModulusMismatch(ValueError):
    pass


class NonOrdinaryPrime(ValueError):
    pass


def as_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# Polynomial helpers (dense, exact, lowest degree first)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients of Phi_L: x^L - 1 divided by each Phi_d, d a proper
    divisor of L.  Phi_d is monic, so integer synthetic division leaves the
    quotient in the top of the row and the remainder, zero, below it."""
    if L < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (L - 1) + [1]
    for d in divisors(L)[:-1]:
        den = cyclotomic_polynomial(d)
        m = len(den) - 1
        for i in range(len(num) - 1, m - 1, -1):
            if q := num[i]:
                for j in range(m):
                    num[i - m + j] -= q * den[j]
        assert not any(num[:m]), f"Phi_{d} should divide x^{L}-1 exactly"
        num = num[m:]
    return tuple(num)


@lru_cache(maxsize=None)
def _cyclotomic_tail(L: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(L), the nonzero (i, c) terms of Phi_L below its monic top)."""
    phi_poly = cyclotomic_polynomial(L)
    phi = len(phi_poly) - 1
    return phi, tuple((i, c) for i, c in enumerate(phi_poly[:phi]) if c)


def reduce_mod_cyclotomic(poly: list[int], L: int) -> list[int]:
    """Remainder of an integer polynomial (lowest degree first) modulo Phi_L.

    Phi_L divides x^L - 1, so x^{L+i} first folds onto x^i, from the top
    down so that a term past 2L folds twice; the L - phi(L) top terms left
    are cancelled against the nonzero lower terms of Phi_L (one term for
    prime L).  Phi_L is monic with integer coefficients, so the remainder
    is again integral.  The input list is consumed; the result has phi(L)
    entries.
    """
    phi, tail = _cyclotomic_tail(L)
    for j in range(len(poly) - 1, L - 1, -1):
        poly[j - L] += poly[j]
    del poly[L:]
    for j in range(len(poly) - 1, phi - 1, -1):
        top = poly[j]
        if top:
            base = j - phi
            for i, c in tail:
                poly[base + i] -= top * c
    del poly[phi:]
    poly.extend([0] * (phi - len(poly)))
    return poly


# ---------------------------------------------------------------------------
# The row kernel: power-basis rows of Z[x]/Phi_L, shared by ``CycElt`` and
# ``qexp.QSeries``


def poly_mac(acc: list[int], a, b, f: int = 1) -> list[int]:
    """acc += f a b for polynomials a, b (lowest degree first); returns acc."""
    for i, x in enumerate(a):
        fx = f * x
        if fx:
            for r, y in enumerate(b, i):
                acc[r] += fx * y
    return acc


def cyc_scatter(row, step: int, L: int) -> list[int]:
    """The row under zeta |-> zeta_L^step, reduced modulo Phi_L.

    Coordinate i moves to exponent i step mod L: step = L/L' embeds a row
    of Q(zeta_L') into Q(zeta_L), and a step j prime to L is the Galois
    automorphism zeta |-> zeta^j.
    """
    poly = [0] * L
    for i, c in enumerate(row):
        poly[i * step % L] += c
    return reduce_mod_cyclotomic(poly, L)


def binary_power(x, n: int):
    """x^n for n >= 1: one x * x per bit below the top, one product per further set bit.

    A square is always ``x * x``, so a product that packs its factors
    packs a square once.
    """
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return out


class CycElt:
    """Element of Q(zeta_L) in the power basis modulo Phi_L.

    Stored as integer numerators ``num`` over one denominator ``den`` in
    canonical form (den > 0, gcd(den, *num) == 1), so equal elements have
    equal fields; ``coords`` is the Fraction view of the same coordinates.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coords):
        phi = euler_phi(conductor)
        coords = [as_rat(c) for c in coords]
        if len(coords) != phi:
            raise ValueError(
                f"conductor {conductor} needs {phi} coordinates, got {len(coords)}"
            )
        # lcm of reduced denominators: the numerators share no factor with it
        den = lcm(*(c.denominator for c in coords))
        self.conductor = conductor
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @staticmethod
    def _make(L: int, num, den: int) -> "CycElt":
        """Canonical element num/den of Q(zeta_L), for integers num and den > 0."""
        g = gcd(den, *num)
        x = object.__new__(CycElt)
        x.conductor = L
        x.num = tuple(c // g for c in num) if g > 1 else tuple(num)
        x.den = den // g
        return x

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(L: int = 1) -> "CycElt":
        return CycElt._make(L, (0,) * euler_phi(L), 1)

    @staticmethod
    def one(L: int = 1) -> "CycElt":
        return CycElt.rational(1, L)

    @staticmethod
    def rational(x, L: int = 1) -> "CycElt":
        r = as_rat(x)
        return CycElt._make(
            L, (r.numerator,) + (0,) * (euler_phi(L) - 1), r.denominator
        )

    @staticmethod
    def zeta(L: int, power: int = 1) -> "CycElt":
        """zeta_L^power as an element of Q(zeta_L)."""
        j = power % L
        return CycElt._make(L, reduce_mod_cyclotomic([0] * j + [1], L), 1)

    # -- structure ----------------------------------------------------

    def _coerce(self, other):
        """other as an element of this field, or NotImplemented."""
        if not isinstance(other, CycElt):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return CycElt.rational(other, self.conductor)
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductors {self.conductor} and {other.conductor} differ; "
                "cyc_embed into a common conductor first"
            )
        return other

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return CycElt._make(
                self.conductor, [a + b for a, b in zip(self.num, other.num)], d1
            )
        return CycElt._make(
            self.conductor,
            [a * d2 + b * d1 for a, b in zip(self.num, other.num)],
            d1 * d2,
        )

    __radd__ = __add__

    def __neg__(self):
        return CycElt._make(self.conductor, [-a for a in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, CycElt) and isinstance(other, (int, Fraction)):
            return CycElt._make(
                self.conductor,
                [other.numerator * a for a in self.num],
                self.den * other.denominator,
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod = poly_mac([0] * (2 * len(self.num) - 1), self.num, other.num)
        return CycElt._make(
            self.conductor,
            reduce_mod_cyclotomic(prod, self.conductor),
            self.den * other.den,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return CycElt.one(self.conductor)
        return binary_power(self, n)

    def inverse(self) -> "CycElt":
        """Field inverse: the product of the other Galois conjugates over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in a cyclotomic field")
        L = self.conductor
        rest = CycElt.one(L)
        for j in range(2, L):
            if gcd(j, L) == 1:
                rest = rest * self.galois(j)
        return rest / (self * rest).rational_value()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / as_rat(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- field automorphisms and embeddings ----------------------------

    def galois(self, j: int) -> "CycElt":
        """Image under zeta |-> zeta^j, for j prime to the conductor."""
        L = self.conductor
        if gcd(j, L) != 1:
            raise ValueError(f"{j} does not define an automorphism of Q(zeta_{L})")
        return CycElt._make(L, cyc_scatter(self.num, j, L), self.den)

    def conj(self) -> "CycElt":
        """Complex conjugation zeta |-> zeta^{-1}."""
        return self.galois(-1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycElt.rational(other, self.conductor)
        if not isinstance(other, CycElt):
            return NotImplemented
        x, y = self, other
        if x.conductor != y.conductor:
            L = lcm(x.conductor, y.conductor)
            x, y = cyc_embed(x, L), cyc_embed(y, L)
        return x.num == y.num and x.den == y.den

    def __hash__(self):
        # Tr(x)/phi(L) is the same in every Q(zeta_L') containing x, and is
        # x itself for a rational x, so equal elements hash alike
        weights = _trace_weights(self.conductor)
        return hash(sum(n * w for n, w in zip(self.num, weights) if n) / self.den)

    def __repr__(self):
        if self.is_rational():
            return f"CycElt({self.conductor}; {self.rational_value()})"
        terms = ", ".join(str(c) for c in self.coords)
        return f"CycElt({self.conductor}; [{terms}])"


@lru_cache(maxsize=None)
def _trace_weights(L: int) -> tuple[Fraction, ...]:
    """Tr(zeta_L^i)/phi(L) = mu(m)/phi(m) with m = L/gcd(i, L), for i < phi(L)."""
    def mu(m):
        primes = factorize(m)
        return (-1) ** len(primes) if all(e == 1 for e in primes.values()) else 0

    return tuple(
        Fraction(mu(L // gcd(i, L)), euler_phi(L // gcd(i, L))) for i in range(euler_phi(L))
    )


def cyc_embed(x: CycElt, target: int) -> CycElt:
    """View x in Q(zeta_target); the conductor of x must divide target.

    zeta_L maps to zeta_target^{target/L}, so the map is the identity on
    the underlying field element and a ring homomorphism.
    """
    L = x.conductor
    if target % L != 0:
        raise ConductorMismatch(f"conductor {L} does not divide target {target}")
    if target == L:
        return x
    return CycElt._make(target, cyc_scatter(x.num, target // L, target), x.den)


# ---------------------------------------------------------------------------
# p-adic unit root


def hensel_unit_root(a_p: int, p: int, k: int) -> int:
    """Unit root of X^2 - a_p X + p mod p^k for an odd ordinary prime, in [0, p^k).

    The reduction mod p factors as X(X - a_p), so the unit root starts at
    a_p mod p and Newton's iteration lifts it; the derivative 2X - a_p is
    a unit along the way.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    if k < 1:
        raise ValueError("precision exponent must be >= 1")
    if a_p % p == 0:
        raise NonOrdinaryPrime(f"non-ordinary prime: {p} divides a_p = {a_p}")
    x = a_p % p
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        m = p**prec
        fx = (x * x - a_p * x + p) % m
        dfx = (2 * x - a_p) % m
        x = (x - fx * pow(dfx, -1, m)) % m
    assert (x * x - a_p * x + p) % p**k == 0 and x % p
    return x
