"""Arithmetic in R[(Z/mZ)^x]: projections, norms, characters, derivatives.

Group elements sigma_a are indexed by the unit residues a of Z/mZ under
the fixed identification a <-> (zeta_m |-> zeta_m^a); for m = 1 the
single residue 0 stands for the identity.  Coefficients are stored
densely (one entry per unit) and may be Fraction, ModInt, or CycElt;
binary operations require equal moduli.

Dirichlet characters are stored by their images on an internally
computed generating set of (Z/dZ)^x, as exponents of a fixed root of
unity of order the group exponent; values are exact ``CycElt`` roots of
unity in the field of the character's order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .arith import CycElt, ModulusMismatch, cyc_embed
from .nt import (
    is_prime,
    is_primitive_root,
    unit_decompose,
    unit_group_generators,
    units_mod,
)
from .records import Frozen


class GroupRingElement:
    """Element of R[(Z/mZ)^x] with dense unit-indexed coefficients."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: dict):
        units = units_mod(modulus)
        normalized = {}
        for a, v in coeffs.items():
            key = a % modulus
            if gcd(key, modulus) != 1:
                raise ValueError(f"{a} is not a unit mod {modulus}")
            normalized[key] = v
        missing = set(units) - set(normalized)
        if missing:
            raise ValueError(f"coefficients missing for units {sorted(missing)}")
        self.modulus = modulus
        self.coeffs = normalized

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(modulus: int, zero_coeff=Fraction(0)) -> "GroupRingElement":
        return GroupRingElement(
            modulus, {a: zero_coeff for a in units_mod(modulus)}
        )

    @staticmethod
    def delta(modulus: int, a: int, one_coeff=Fraction(1), zero_coeff=Fraction(0)):
        """The basis element sigma_a."""
        out = {u: zero_coeff for u in units_mod(modulus)}
        out[a % modulus] = one_coeff
        return GroupRingElement(modulus, out)

    @staticmethod
    def group_sum(modulus: int, one_coeff=Fraction(1)) -> "GroupRingElement":
        """N_m = sum of all sigma_a."""
        return GroupRingElement(modulus, {a: one_coeff for a in units_mod(modulus)})

    # -- basic structure --------------------------------------------------

    def _check(self, other: "GroupRingElement"):
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"group-ring moduli {self.modulus} and {other.modulus} differ"
            )

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(
            self.modulus,
            {a: self.coeffs[a] + other.coeffs[a] for a in self.coeffs},
        )

    def __sub__(self, other):
        self._check(other)
        return GroupRingElement(
            self.modulus,
            {a: self.coeffs[a] - other.coeffs[a] for a in self.coeffs},
        )

    def __neg__(self):
        return GroupRingElement(self.modulus, {a: -v for a, v in self.coeffs.items()})

    def scale(self, scalar) -> "GroupRingElement":
        return GroupRingElement(
            self.modulus, {a: scalar * v for a, v in self.coeffs.items()}
        )

    def sigma_shift(self, s: int) -> "GroupRingElement":
        """Multiplication by the basis element sigma_s."""
        m = self.modulus
        if m == 1:
            return self
        if gcd(s, m) != 1:
            raise ValueError(f"{s} is not a unit mod {m}")
        return GroupRingElement(
            m, {(a * s) % m: v for a, v in self.coeffs.items()}
        )

    def convolve(self, other: "GroupRingElement") -> "GroupRingElement":
        """Full group-ring product."""
        self._check(other)
        m = self.modulus
        out: dict = {}
        for a, va in self.coeffs.items():
            for b, vb in other.coeffs.items():
                key = (a * b) % m
                term = va * vb
                out[key] = out.get(key) + term if key in out else term
        for u in units_mod(m):
            if u not in out:
                out[u] = 0 * next(iter(self.coeffs.values()))
        return GroupRingElement(m, out)

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            return self.convolve(other)
        return self.scale(other)

    __rmul__ = scale

    def augmentation(self):
        """Sum of all coefficients (evaluation at the trivial character)."""
        total = None
        for a in units_mod(self.modulus):
            v = self.coeffs[a]
            total = v if total is None else total + v
        return total

    def conjugation_flip(self) -> "GroupRingElement":
        """The coefficient relabeling a |-> -a (effect of complex conjugation)."""
        m = self.modulus
        return GroupRingElement(m, {(-a) % m: v for a, v in self.coeffs.items()})

    def map_coeffs(self, fn) -> "GroupRingElement":
        return GroupRingElement(self.modulus, {a: fn(v) for a, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return all(_is_zero_coeff(v) for v in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.modulus == other.modulus and all(
            _coeff_eq(self.coeffs[a], other.coeffs[a]) for a in self.coeffs
        )

    def __repr__(self):
        inner = " + ".join(
            f"({v})s{a}" for a, v in sorted(self.coeffs.items()) if not _is_zero_coeff(v)
        )
        return f"GR({self.modulus}; {inner or '0'})"


def _is_zero_coeff(v) -> bool:
    if hasattr(v, "is_zero"):
        return v.is_zero()
    return v == 0


def _coeff_eq(a, b) -> bool:
    return a == b


def first_mismatch(x: GroupRingElement, y: GroupRingElement):
    """Witness for x != y: smallest unit where coefficients differ, or None."""
    x._check(y)
    for a in units_mod(x.modulus):
        if not _coeff_eq(x.coeffs[a], y.coeffs[a]):
            return a, x.coeffs[a], y.coeffs[a]
    return None


# ---------------------------------------------------------------------------
# Level-change maps


def project(x: GroupRingElement, target: int) -> GroupRingElement:
    """Natural projection R[(Z/m)^x] -> R[(Z/target)^x] for target | m."""
    if x.modulus % target != 0:
        raise ModulusMismatch(f"{target} does not divide {x.modulus}")
    out: dict = {}
    for a, v in x.coeffs.items():
        key = a % target
        out[key] = out.get(key) + v if key in out else v
    return GroupRingElement(target, out)


def norm_map(x: GroupRingElement, target: int) -> GroupRingElement:
    """Norm map sending sigma_a to the sum of its lifts mod target, m | target."""
    if target % x.modulus != 0:
        raise ModulusMismatch(f"{x.modulus} does not divide {target}")
    return GroupRingElement(
        target, {b: x.coeffs[b % x.modulus] for b in units_mod(target)}
    )


# ---------------------------------------------------------------------------
# Dirichlet characters


class DirichletCharacter(Frozen):
    """Character of (Z/dZ)^x, stored by exponents on unit-group generators.

    ``exponents[i]`` is t_i with chi(g_i) = zeta_e^{t_i}, where e is the
    exponent of the unit group and g_i runs over its generators (each
    t_i is a multiple of e / order(g_i), which construction validates).
    """

    __slots__ = ("modulus", "exponents")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "exponents", exponents)
        gens = unit_group_generators(modulus)
        if len(exponents) != len(gens):
            raise ValueError(
                f"modulus {modulus} needs {len(gens)} generator images"
            )
        e = self.group_exponent()
        for t, (_, order) in zip(exponents, gens):
            if (t * order) % e != 0:
                raise ValueError(
                    f"exponent {t} incompatible with generator order {order}"
                )

    def group_exponent(self) -> int:
        orders = [o for _, o in unit_group_generators(self.modulus)]
        out = 1
        for o in orders:
            out = lcm(out, o)
        return out

    def order(self) -> int:
        e = self.group_exponent()
        g = e
        for t in self.exponents:
            g = gcd(g, t)
        return e // gcd(e, g) if e > 1 else 1

    def value_exponent(self, a: int) -> int:
        """j with chi(a) = zeta_e^j."""
        if self.modulus == 1:
            return 0
        xs = unit_decompose(a, self.modulus)
        e = self.group_exponent()
        return sum(x * t for x, t in zip(xs, self.exponents)) % e

    def __call__(self, a: int) -> CycElt:
        """chi(a) as an exact root of unity in Q(zeta_order)."""
        o = self.order()
        if o == 1:
            return CycElt.one(1)
        e = self.group_exponent()
        j = self.value_exponent(a)
        assert (j * o) % e == 0
        return CycElt.zeta(o, j * o // e)

    def parity(self) -> int:
        """chi(-1) as +-1."""
        if self.modulus <= 2:
            return 1
        v = self.value_exponent(-1 % self.modulus)
        e = self.group_exponent()
        if v == 0:
            return 1
        assert 2 * v % e == 0, "chi(-1) must be a square root of 1"
        return -1

    def conjugate(self) -> "DirichletCharacter":
        e = self.group_exponent()
        return DirichletCharacter(
            self.modulus, tuple((-t) % e for t in self.exponents)
        )

    def is_trivial(self) -> bool:
        return all(t == 0 for t in self.exponents)

    def factors_through(self, d: int) -> bool:
        """Whether chi is trivial on units congruent to 1 mod d, for d | modulus."""
        m = self.modulus
        assert m % d == 0
        return all(
            self.value_exponent(a) == 0
            for a in units_mod(m)
            if (a - 1) % d == 0
        )

    def conductor(self) -> int:
        from .nt import divisors

        for d in divisors(self.modulus):
            if self.factors_through(d):
                return d
        return self.modulus

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus


def trivial_character(d: int = 1) -> DirichletCharacter:
    return DirichletCharacter(d, tuple(0 for _ in unit_group_generators(d)))


def all_characters(d: int):
    """All characters mod d, enumerated through generator images."""
    gens = unit_group_generators(d)
    e = 1
    for _, o in gens:
        e = lcm(e, o)

    def rec(i, acc):
        if i == len(gens):
            yield DirichletCharacter(d, tuple(acc))
            return
        _, order = gens[i]
        step = e // order
        for k in range(order):
            yield from rec(i + 1, acc + [k * step])

    yield from rec(0, [])


def quadratic_character(d: int) -> DirichletCharacter:
    """The unique primitive quadratic character mod d, when it exists."""
    for chi in all_characters(d):
        if chi.order() == 2 and chi.is_primitive():
            return chi
    raise ValueError(f"no primitive quadratic character mod {d}")


def eval_character(x: GroupRingElement, chi: DirichletCharacter) -> CycElt:
    """sum_a coeff(a) chi(a), exactly, in a cyclotomic field.

    The character is evaluated through its primitive core, which must
    have conductor dividing the modulus of x; coefficients must be
    int, Fraction or CycElt.
    """
    f = chi.conductor()
    if x.modulus % f != 0:
        raise ModulusMismatch(
            f"character conductor {f} does not divide modulus {x.modulus}"
        )
    o = chi.order()
    L = o
    for v in x.coeffs.values():
        if isinstance(v, CycElt):
            L = lcm(L, v.conductor)
        elif not isinstance(v, (int, Fraction)):
            raise TypeError(f"coefficients of type {type(v).__name__} not embeddable")
    total = CycElt.zero(L)
    chi_f = _primitive_core(chi)
    for a, v in x.coeffs.items():
        if _is_zero_coeff(v):
            continue
        cv = cyc_embed(chi_f(a), L)
        if isinstance(v, CycElt):
            total = total + cyc_embed(v, L) * cv
        else:
            total = total + cv * v
    return total


def _primitive_core(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character of conductor f inducing chi."""
    f = chi.conductor()
    m = chi.modulus
    if f == m:
        return chi
    gens_f = unit_group_generators(f)
    e_m = chi.group_exponent()
    e_f = 1
    for _, o in gens_f:
        e_f = lcm(e_f, o)
    exps = []
    for g, _ in gens_f:
        lift = next(a for a in range(g, g + m + 1, f) if gcd(a, m) == 1)
        v = chi.value_exponent(lift % m)
        assert (v * e_f) % e_m == 0, "character value order exceeds target group"
        exps.append(v * e_f // e_m)
    return DirichletCharacter(f, tuple(exps))


def gauss_sum(chi: DirichletCharacter) -> CycElt:
    """tau(chi) = sum chi(a) zeta_d^a for primitive chi of conductor d."""
    d = chi.modulus
    if not chi.is_primitive():
        raise ValueError("gauss_sum needs a primitive character")
    if d == 1:
        return CycElt.one(1)
    o = chi.order()
    L = lcm(d, o)
    total = CycElt.zero(L)
    for a in units_mod(d):
        total = total + cyc_embed(chi(a), L) * CycElt.zeta(L, a * (L // d))
    return total


# ---------------------------------------------------------------------------
# Kolyvagin derivative


def kolyvagin_derivative(ell: int, eta: int) -> GroupRingElement:
    """D_ell = sum_{i=0}^{ell-2} i sigma_{eta^i} over Z[(Z/ell)^x].

    eta must be a primitive root mod ell; the i = 0 term vanishes.
    Satisfies (sigma_eta - 1) D_ell = (ell-1) - N_ell.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if not is_primitive_root(eta, ell):
        raise ValueError(f"{eta} is not a primitive root mod {ell}")
    coeffs = {}
    acc = 1
    for i in range(ell - 1):
        coeffs[acc] = Fraction(i)
        acc = (acc * eta) % ell
    return GroupRingElement(ell, coeffs)


def telescoping_check(ell: int, eta: int) -> bool:
    """(sigma_eta - 1) D_ell == (ell-1) delta_1 - N_ell, exactly."""
    d = kolyvagin_derivative(ell, eta)
    lhs = d.sigma_shift(eta) - d
    rhs = GroupRingElement.delta(ell, 1).scale(Fraction(ell - 1)) - GroupRingElement.group_sum(ell)
    return lhs == rhs
