"""Exact arithmetic foundation: rationals, residue rings, cyclotomic fields.

Conventions
-----------
* ``Rat`` is ``fractions.Fraction`` (always reduced, positive denominator).
* ``ModInt`` carries its modulus per value.  Arithmetic between different
  moduli is an error; precision drops only through ``reduce_to``.
* ``CycElt`` represents an element of Q(zeta_L) in the power basis
  1, z, ..., z^{phi(L)-1} modulo the L-th cyclotomic polynomial, with
  integer coordinates over one common denominator; Phi_L is monic, so
  every reduction stays in the integers.  Products require equal
  conductors; use ``cyc_embed`` to move into a joint field first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .nt import divisors, euler_phi, factorize, is_prime
from .records import Frozen

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
# Residue rings


class ModInt(Frozen):
    """An element of Z/modulus, 0 <= residue < modulus."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "residue", residue % modulus)
        object.__setattr__(self, "modulus", modulus)

    def _coerce(self, other) -> "ModInt":
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise ModulusMismatch(
                    f"mixed moduli {self.modulus} and {other.modulus}; "
                    "reduce_to a common modulus explicitly"
                )
            return other
        if isinstance(other, int):
            return ModInt(other, self.modulus)
        if isinstance(other, Fraction):
            return ModInt(
                other.numerator * pow(other.denominator, -1, self.modulus),
                self.modulus,
            )
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.residue + other.residue, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return ModInt(-self.residue, self.modulus)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.residue - other.residue, self.modulus)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.residue * other.residue, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return ModInt(pow(self.residue, n, self.modulus), self.modulus)

    def inverse(self) -> "ModInt":
        return self**-1

    def is_unit(self) -> bool:
        return gcd(self.residue, self.modulus) == 1

    def is_zero(self) -> bool:
        return self.residue == 0

    def reduce_to(self, modulus: int) -> "ModInt":
        """Push the value into Z/modulus; modulus must divide the current one."""
        if self.modulus % modulus != 0:
            raise ModulusMismatch(
                f"cannot reduce mod {self.modulus} to mod {modulus}"
            )
        return ModInt(self.residue % modulus, modulus)

    def __repr__(self):
        return f"{self.residue} mod {self.modulus}"


# ---------------------------------------------------------------------------
# Polynomial helpers (dense, exact, lowest degree first)


def poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_divmod_exact(num, den):
    """Quotient and remainder over Q; den need not be monic."""
    num = [Fraction(x) for x in num]
    den = [Fraction(x) for x in den]
    poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    while len(poly_trim(num)) >= len(den):
        shift = len(num) - len(den)
        factor = num[-1] / lead
        quot[shift] = factor
        for i, b in enumerate(den):
            num[shift + i] -= factor * b
    return poly_trim(quot), poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients of Phi_L, computed by exact division of x^L - 1."""
    if L < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (L - 1) + [1]
    for d in divisors(L):
        if d == L:
            continue
        q, r = poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
        assert not r, f"Phi_{d} should divide x^{L}-1 exactly"
        num = q
    return tuple(int(c) for c in num)


def reduce_mod_cyclotomic(poly: list[int], L: int) -> list[int]:
    """Remainder of an integer polynomial (lowest degree first) modulo Phi_L.

    Phi_L is monic with integer coefficients, so the remainder is again
    integral: each top term is cancelled against the nonzero lower terms
    of Phi_L.  The input list is consumed; the result has phi(L) entries.
    """
    phi_poly = cyclotomic_polynomial(L)
    phi = len(phi_poly) - 1
    tail = [(i, c) for i, c in enumerate(phi_poly[:phi]) if c]
    for j in range(len(poly) - 1, phi - 1, -1):
        top = poly[j]
        if top:
            base = j - phi
            for i, c in tail:
                poly[base + i] -= top * c
    del poly[phi:]
    poly.extend([0] * (phi - len(poly)))
    return poly


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
        prod = [0] * (2 * len(self.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num, i):
                    prod[j] += a * b
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
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

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
        poly = [0] * L
        for i, c in enumerate(self.num):
            poly[i * j % L] += c
        return CycElt._make(L, reduce_mod_cyclotomic(poly, L), self.den)

    def conj(self) -> "CycElt":
        """Complex conjugation zeta |-> zeta^{-1}."""
        return self.galois(-1 % self.conductor) if self.conductor > 2 else self

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
    step = target // L
    poly = [0] * target
    for i, c in enumerate(x.num):
        poly[i * step] = c
    return CycElt._make(target, reduce_mod_cyclotomic(poly, target), x.den)


# ---------------------------------------------------------------------------
# p-adic unit root


def hensel_unit_root(a_p: int, p: int, k: int) -> ModInt:
    """Unit root of X^2 - a_p X + p mod p^k for an odd ordinary prime.

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
    modulus = p**k
    x = a_p % p
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        m = p**prec
        fx = (x * x - a_p * x + p) % m
        dfx = (2 * x - a_p) % m
        x = (x - fx * pow(dfx, -1, m)) % m
    alpha = ModInt(x, modulus)
    assert (alpha * alpha - a_p * alpha + p).is_zero() and alpha.is_unit()
    return alpha
