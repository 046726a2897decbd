"""Arithmetic in Z[(Z/mZ)^x]: projections, norms, characters, derivatives.

Group elements sigma_a are indexed by the unit residues a of Z/mZ under
the fixed identification a <-> (zeta_m |-> zeta_m^a); for m = 1 the
single residue 0 stands for the identity.  Coefficients are ints, stored
densely (one entry per unit): theta values, p-adic tower residues read
mod p^k, Kolyvagin derivatives.  Binary operations require equal moduli.

Dirichlet characters are stored by their images on the generators of
(Z/dZ)^x from ``nt.unit_group_generators``, as exponents of a fixed root
of unity of order the group exponent.  One walk of the generator powers
turns those exponents into a table {a: j} with chi(a) = zeta_e^j, cached
on the character's two fields; values, parity, conductor, primitive core
and Gauss sums are all read from it.  Values are exact ``CycElt`` roots
of unity in the field of the character's order; a character sum adds the
integer coefficients on one row of Z[x]/(x^L - 1), reduced once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .arith import CycElt, ModulusMismatch, reduce_mod_cyclotomic
from .nt import (
    divisors,
    is_prime,
    is_primitive_root,
    unit_group_exponent,
    unit_group_generators,
    units_mod,
)
from .records import Frozen


class GroupRingElement:
    """Element of Z[(Z/mZ)^x] with dense unit-indexed integer coefficients."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: dict):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        normalized = {}
        for a, v in coeffs.items():
            key = a % modulus
            if gcd(key, modulus) != 1:
                raise ValueError(f"{a} is not a unit mod {modulus}")
            if not isinstance(v, int):
                raise TypeError(f"coefficient of sigma_{a} is a {type(v).__name__}, not an int")
            normalized[key] = v
        # the keys are distinct units, so the counts match only when all are present
        units = units_mod(modulus)
        if len(normalized) != len(units):
            missing = sorted(set(units) - normalized.keys())
            raise ValueError(f"coefficients missing for units {missing}")
        self.modulus = modulus
        self.coeffs = normalized

    # -- constructors ---------------------------------------------------

    @staticmethod
    def delta(modulus: int, a: int) -> "GroupRingElement":
        """The basis element sigma_a; a must be a unit mod modulus."""
        out = dict.fromkeys(units_mod(modulus), 0)
        out[a] = 1  # the constructor checks the modulus, then reduces a
        return GroupRingElement(modulus, out)

    @staticmethod
    def group_sum(modulus: int) -> "GroupRingElement":
        """N_m = sum of all sigma_a."""
        return GroupRingElement(modulus, dict.fromkeys(units_mod(modulus), 1))

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

    def scale(self, scalar: int) -> "GroupRingElement":
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

    def augmentation(self) -> int:
        """Sum of all coefficients (evaluation at the trivial character)."""
        return sum(self.coeffs.values())

    def map_coeffs(self, fn) -> "GroupRingElement":
        return GroupRingElement(self.modulus, {a: fn(v) for a, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not any(self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.modulus == other.modulus and all(
            self.coeffs[a] == other.coeffs[a] for a in self.coeffs
        )

    def __repr__(self):
        inner = " + ".join(f"({v})s{a}" for a, v in sorted(self.coeffs.items()) if v)
        return f"GR({self.modulus}; {inner or '0'})"


def first_mismatch(x: GroupRingElement, y: GroupRingElement):
    """Witness for x != y: smallest unit where coefficients differ, or None."""
    x._check(y)
    for a in units_mod(x.modulus):
        if x.coeffs[a] != y.coeffs[a]:
            return a, x.coeffs[a], y.coeffs[a]
    return None


# ---------------------------------------------------------------------------
# Level-change maps


def project(x: GroupRingElement, target: int) -> GroupRingElement:
    """Natural projection Z[(Z/m)^x] -> Z[(Z/target)^x] for target | m."""
    if target < 1:
        raise ValueError("modulus must be >= 1")
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
    Every value is read from ``_value_table`` of these two fields.
    """

    __slots__ = ("modulus", "exponents")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        exponents = tuple(exponents)  # a list would not key the value-table cache
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
        return unit_group_exponent(self.modulus)

    def order(self) -> int:
        e = self.group_exponent()
        return e // gcd(e, *self.exponents)

    def value_exponent(self, a: int) -> int:
        """j with chi(a) = zeta_e^j; a ValueError when a is not a unit."""
        try:
            return _value_table(self.modulus, self.exponents)[a % self.modulus]
        except KeyError:
            raise ValueError(f"{a} is not a unit mod {self.modulus}") from None

    def __call__(self, a: int) -> CycElt:
        """chi(a) as an exact root of unity in Q(zeta_order)."""
        o = self.order()
        return CycElt.zeta(o, self.value_exponent(a) * o // self.group_exponent())

    def parity(self) -> int:
        """chi(-1) as +-1."""
        return -1 if self.value_exponent(-1) else 1

    def conjugate(self) -> "DirichletCharacter":
        e = self.group_exponent()
        return DirichletCharacter(
            self.modulus, tuple((-t) % e for t in self.exponents)
        )

    def is_trivial(self) -> bool:
        return all(t == 0 for t in self.exponents)

    def conductor(self) -> int:
        """The least d | modulus with chi trivial on the units congruent to 1 mod d."""
        table = _value_table(self.modulus, self.exponents)
        return next(
            d for d in divisors(self.modulus)
            if not any(j for a, j in table.items() if (a - 1) % d == 0)
        )

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus


@lru_cache(maxsize=None)
def _value_table(m: int, exponents: tuple[int, ...]) -> dict[int, int]:
    """{a: j} with chi(a) = zeta_e^j for every unit a mod m, one walk of the generator powers.

    Keyed by the character's own fields; ``DirichletCharacter`` reads it and
    never changes it.
    """
    e = unit_group_exponent(m)
    table = {1 % m: 0}
    for (g, order), t in zip(unit_group_generators(m), exponents):
        steps = [(pow(g, k, m), k * t) for k in range(order)]
        table = {a * h % m: (j + s) % e for a, j in table.items() for h, s in steps}
    return table


def trivial_character(d: int = 1) -> DirichletCharacter:
    return DirichletCharacter(d, tuple(0 for _ in unit_group_generators(d)))


def all_characters(d: int):
    """All characters mod d, enumerated through generator images."""
    e = unit_group_exponent(d)
    steps = (range(0, e, e // order) for _, order in unit_group_generators(d))
    return (DirichletCharacter(d, exps) for exps in product(*steps))


def eval_character(x: GroupRingElement, chi: DirichletCharacter) -> CycElt:
    """sum_a coeff(a) chi(a), exactly, in the field of chi's order.

    The character is evaluated through its primitive core, which must
    have conductor dividing the modulus of x.
    """
    chi_f = _primitive_core(chi)
    f = chi_f.modulus
    if x.modulus % f != 0:
        raise ModulusMismatch(
            f"character conductor {f} does not divide modulus {x.modulus}"
        )
    table = _value_table(f, chi_f.exponents)
    o, e = chi_f.order(), chi_f.group_exponent()
    # chi(a) = zeta_e^j = zeta_o^{j o / e}
    return _cyclotomic_sum(o, ((table[a % f] * o // e, v) for a, v in x.coeffs.items()))


def _cyclotomic_sum(L: int, terms) -> CycElt:
    """sum of v zeta_L^j over the (j, v) terms, for integers v: one row, one reduction."""
    row = [0] * L
    for j, v in terms:
        row[j % L] += v
    return CycElt._make(L, reduce_mod_cyclotomic(row, L), 1)


def _primitive_core(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character of conductor f inducing chi."""
    f = chi.conductor()
    m = chi.modulus
    if f == m:
        return chi
    table = _value_table(m, chi.exponents)
    e_m, e_f = unit_group_exponent(m), unit_group_exponent(f)
    # chi is trivial on the units = 1 mod f, so any unit lift of g reads chi(g)
    lifted = (
        next(j for a, j in table.items() if a % f == g) for g, _ in unit_group_generators(f)
    )
    return DirichletCharacter(f, tuple(j * e_f // e_m for j in lifted))


def gauss_sum(chi: DirichletCharacter) -> CycElt:
    """tau(chi) = sum chi(a) zeta_d^a for primitive chi of conductor d."""
    d = chi.modulus
    if not chi.is_primitive():
        raise ValueError("gauss_sum needs a primitive character")
    o, e = chi.order(), chi.group_exponent()
    L = lcm(d, o)
    # chi(a) zeta_d^a = zeta_L^{j L / e + a L / d}, with chi(a) = zeta_e^j
    table = _value_table(d, chi.exponents)
    return _cyclotomic_sum(
        L, ((j * o // e * (L // o) + a * (L // d), 1) for a, j in table.items())
    )


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
        coeffs[acc] = i
        acc = (acc * eta) % ell
    return GroupRingElement(ell, coeffs)


def telescoping_check(ell: int, eta: int) -> bool:
    """(sigma_eta - 1) D_ell == (ell-1) delta_1 - N_ell, exactly."""
    d = kolyvagin_derivative(ell, eta)
    lhs = d.sigma_shift(eta) - d
    rhs = GroupRingElement.delta(ell, 1).scale(ell - 1) - GroupRingElement.group_sum(ell)
    return lhs == rhs
