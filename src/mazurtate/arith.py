"""Exact arithmetic foundation: rationals, residue rings, cyclotomic fields.

Conventions
-----------
* ``Rat`` is ``fractions.Fraction`` (always reduced, positive denominator).
* ``ModInt`` carries its modulus per value.  Arithmetic between different
  moduli is an error; precision drops only through ``reduce_to``.
* ``CycElt`` represents an element of Q(zeta_L) in the power basis
  1, z, ..., z^{phi(L)-1} modulo the L-th cyclotomic polynomial, with
  exact rational coordinates.  Products require equal conductors; use
  ``cyc_embed``/``common_conductor`` to move into a joint field first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .nt import divisors, euler_phi, is_prime

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


@dataclass(frozen=True)
class ModInt:
    """An element of Z/modulus, 0 <= residue < modulus."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "residue", self.residue % self.modulus)

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


@lru_cache(maxsize=None)
def _power_reduction_table(L: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row j: coordinates of z^j in the power basis mod Phi_L, 0 <= j < 2*phi(L)."""
    phi = euler_phi(L)
    phi_poly = cyclotomic_polynomial(L)
    rows = []
    for j in range(2 * phi):
        if j < phi:
            row = [Fraction(0)] * phi
            row[j] = Fraction(1)
        else:
            # z^j = z * z^{j-1}, then eliminate the z^phi term via Phi_L
            prev = list(rows[j - 1])
            shifted = [Fraction(0)] + prev
            top = shifted.pop()
            if top:
                for i in range(phi):
                    shifted[i] -= top * phi_poly[i]
            row = shifted
        rows.append(tuple(row))
    return tuple(rows)


class CycElt:
    """Element of Q(zeta_L) in the power basis modulo Phi_L."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int, coords):
        phi = euler_phi(conductor)
        coords = tuple(as_rat(c) for c in coords)
        if len(coords) != phi:
            raise ValueError(
                f"conductor {conductor} needs {phi} coordinates, got {len(coords)}"
            )
        self.conductor = conductor
        self.coords = coords

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(L: int = 1) -> "CycElt":
        return CycElt(L, (Fraction(0),) * euler_phi(L))

    @staticmethod
    def one(L: int = 1) -> "CycElt":
        phi = euler_phi(L)
        return CycElt(L, (Fraction(1),) + (Fraction(0),) * (phi - 1))

    @staticmethod
    def rational(x, L: int = 1) -> "CycElt":
        phi = euler_phi(L)
        return CycElt(L, (as_rat(x),) + (Fraction(0),) * (phi - 1))

    @staticmethod
    def zeta(L: int, power: int = 1) -> "CycElt":
        """zeta_L^power as an element of Q(zeta_L)."""
        j = power % L
        table = _power_reduction_table(L)
        if j < len(table):
            return CycElt(L, table[j])
        # L can exceed 2 phi(L); finish by binary powering
        out = CycElt(L, table[len(table) - 1])
        j -= len(table) - 1
        z = CycElt(L, table[1])
        while j:
            if j & 1:
                out = out * z
            z = z * z if j > 1 else z
            j >>= 1
        return out

    # -- structure ----------------------------------------------------

    def _check(self, other: "CycElt"):
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductors {self.conductor} and {other.conductor} differ; "
                "cyc_embed into a common conductor first"
            )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coords[0]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycElt.rational(other, self.conductor)
        if not isinstance(other, CycElt):
            return NotImplemented
        self._check(other)
        return CycElt(
            self.conductor, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycElt(self.conductor, tuple(-a for a in self.coords))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycElt.rational(other, self.conductor)
        if not isinstance(other, CycElt):
            return NotImplemented
        self._check(other)
        return CycElt(
            self.conductor, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = as_rat(other)
            return CycElt(self.conductor, tuple(r * a for a in self.coords))
        if not isinstance(other, CycElt):
            return NotImplemented
        self._check(other)
        phi = len(self.coords)
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                prod[i + j] += a * b
        table = _power_reduction_table(self.conductor)
        out = [Fraction(0)] * phi
        for j, cj in enumerate(prod):
            if cj == 0:
                continue
            row = table[j]
            for i in range(phi):
                if row[i]:
                    out[i] += cj * row[i]
        return CycElt(self.conductor, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = CycElt.one(self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "CycElt":
        """Field inverse via the extended Euclidean algorithm mod Phi_L."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in a cyclotomic field")
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        # extended gcd of self (as polynomial) and Phi_L over Q[x]
        r0, r1 = list(self.coords), phi_poly
        s0, s1 = [Fraction(1)], []
        poly_trim(r0)
        while r1:
            q, r = poly_divmod_exact(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_trim(
                [
                    (s0[i] if i < len(s0) else Fraction(0))
                    - sum(
                        q[j] * s1[i - j]
                        for j in range(len(q))
                        if 0 <= i - j < len(s1)
                    )
                    for i in range(max(len(s0), len(q) + len(s1) - 1))
                ]
            )
        # r0 = gcd (a nonzero constant, since Phi_L is irreducible)
        assert len(r0) == 1, "gcd with the cyclotomic polynomial must be a constant"
        c = r0[0]
        phi = len(self.coords)
        coords = [Fraction(0)] * phi
        for i, v in enumerate(s0):
            coords[i] = v / c
        return CycElt(self.conductor, coords)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            r = as_rat(other)
            return self * (1 / r)
        if isinstance(other, CycElt):
            self._check(other)
            return self * other.inverse()
        return NotImplemented

    # -- field automorphisms and embeddings ----------------------------

    def galois(self, j: int) -> "CycElt":
        """Image under zeta |-> zeta^j, for j prime to the conductor."""
        L = self.conductor
        if gcd(j, L) != 1:
            raise ValueError(f"{j} does not define an automorphism of Q(zeta_{L})")
        out = CycElt.zero(L)
        for i, c in enumerate(self.coords):
            if c:
                out = out + CycElt.zeta(L, i * j) * c
        return out

    def conj(self) -> "CycElt":
        """Complex conjugation zeta |-> zeta^{-1}."""
        return self.galois(-1 % self.conductor) if self.conductor > 2 else self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycElt.rational(other, self.conductor)
        if not isinstance(other, CycElt):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coords == other.coords
        from math import lcm

        L = lcm(self.conductor, other.conductor)
        return cyc_embed(self, L).coords == cyc_embed(other, L).coords

    def __hash__(self):
        return hash((self.conductor, self.coords))

    def __repr__(self):
        if self.is_rational():
            return f"CycElt({self.conductor}; {self.coords[0]})"
        terms = ", ".join(str(c) for c in self.coords)
        return f"CycElt({self.conductor}; [{terms}])"


def cyc_mul(x: CycElt, y: CycElt) -> CycElt:
    """Product in Q(zeta_L); conductors must already agree."""
    return x * y


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
    out = CycElt.zero(target)
    for i, c in enumerate(x.coords):
        if c:
            out = out + CycElt.zeta(target, i * step) * c
    return out


def common_conductor(x: CycElt, y: CycElt) -> tuple[CycElt, CycElt]:
    from math import lcm

    L = lcm(x.conductor, y.conductor)
    return cyc_embed(x, L), cyc_embed(y, L)


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
