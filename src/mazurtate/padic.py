"""p-stabilized theta towers, interpolation checks, Iwasawa invariants.

A tower packages theta^alpha_n = alpha^{-n} (theta_{p^n} -
alpha^{-1} nu(theta_{p^{n-1}})) for n = 1..n_max, reduced mod p^k, with
theta_{p^0} taken to be theta_Q in the trivial group ring.  With the
certified three-term relation these layers form a projective system
under the natural projections, which is verified coefficientwise.

Finite layers only: nothing here materializes a power series.  The
lambda/mu reading splits (Z/p^n)^x into its tame (Teichmuller) and
principal parts, maps the trivial-tame component onto a polynomial in
T = gamma - 1 with gamma the image of 1 + p, and reads off

    mu     = min p-valuation of the coefficients,
    lambda = first coefficient index attaining it,

requiring agreement across two consecutive layers before reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .arith import CycElt, ModInt, NonOrdinaryPrime, cyclotomic_polynomial, hensel_unit_root
from .curves import CurveData
from .groupring import DirichletCharacter, GroupRingElement, first_mismatch, norm_map, project
from .nt import euler_phi, is_prime
from .theta import adjudicated_variant, eigen_pair, integrality_report, theta_element


class PrecisionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Cyclotomic coefficients mod p^k (for character-twisted identities)


class CycMod:
    """Element of (Z/p^k)[x]/Phi_L(x): cyclotomic integers at finite precision."""

    __slots__ = ("conductor", "pk", "coords")

    def __init__(self, conductor: int, pk: int, coords):
        phi = euler_phi(conductor)
        coords = tuple(int(c) % pk for c in coords)
        if len(coords) != phi:
            raise ValueError("coordinate length mismatch")
        self.conductor = conductor
        self.pk = pk
        self.coords = coords

    @staticmethod
    def zero(conductor: int, pk: int) -> "CycMod":
        return CycMod(conductor, pk, (0,) * euler_phi(conductor))

    @staticmethod
    def from_cyc(x: CycElt, pk: int) -> "CycMod":
        coords = []
        for c in x.coords:
            coords.append(c.numerator * pow(c.denominator, -1, pk) % pk)
        return CycMod(x.conductor, pk, coords)

    def _check(self, other):
        if self.conductor != other.conductor or self.pk != other.pk:
            raise ValueError("CycMod structure mismatch")

    def __add__(self, other):
        self._check(other)
        return CycMod(
            self.conductor,
            self.pk,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other):
        self._check(other)
        return CycMod(
            self.conductor,
            self.pk,
            tuple(a - b for a, b in zip(self.coords, other.coords)),
        )

    def scale(self, s: int) -> "CycMod":
        return CycMod(self.conductor, self.pk, tuple(s * a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, ModInt):
            if other.modulus != self.pk:
                raise ValueError("modulus mismatch")
            return self.scale(other.residue)
        self._check(other)
        phi = len(self.coords)
        prod = [0] * (2 * phi - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                prod[i + j] = (prod[i + j] + a * b) % self.pk
        phi_poly = cyclotomic_polynomial(self.conductor)
        for j in range(len(prod) - 1, phi - 1, -1):
            top = prod[j]
            if top:
                prod[j] = 0
                for i in range(phi):
                    prod[j - phi + i] = (prod[j - phi + i] - top * phi_poly[i]) % self.pk
        return CycMod(self.conductor, self.pk, prod[:phi])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def conj(self) -> "CycMod":
        L = self.conductor
        out = CycMod.zero(L, self.pk)
        for i, c in enumerate(self.coords):
            if c:
                out = out + CycMod.from_cyc(CycElt.zeta(L, -i % L), self.pk).scale(c)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, CycMod)
            and self.conductor == other.conductor
            and self.pk == other.pk
            and self.coords == other.coords
        )

    def __repr__(self):
        return f"CycMod({self.conductor}; mod {self.pk}; {self.coords})"


# ---------------------------------------------------------------------------
# The tower


@dataclass
class PadicThetaTower:
    curve_label: str
    p: int
    k: int
    alpha: ModInt
    layers: dict[int, GroupRingElement]  # n -> theta^alpha_n over Z/p^k at modulus p^n
    theta_q: ModInt  # theta_Q reduced mod p^k
    n_max: int
    variant: str = "A"

    @property
    def pk(self) -> int:
        return self.p**self.k

    def layer(self, n: int) -> GroupRingElement:
        return self.layers[n]

    def check_projectivity(self) -> list[tuple[int, bool, tuple | None]]:
        """For each 1 <= n < n_max: pi(theta^alpha_{n+1}) == theta^alpha_n."""
        out = []
        for n in range(1, self.n_max):
            lhs = project(self.layers[n + 1], self.p**n)
            wit = first_mismatch(lhs, self.layers[n])
            out.append((n, wit is None, wit))
        return out

    def is_projective(self) -> bool:
        return all(ok for _, ok, _ in self.check_projectivity())

    def scaled(self, s: int) -> "PadicThetaTower":
        """Synthetic tower with every layer (and theta_Q) multiplied by s."""
        return PadicThetaTower(
            curve_label=f"{self.curve_label}*{s}",
            p=self.p,
            k=self.k,
            alpha=self.alpha,
            layers={
                n: x.map_coeffs(lambda v: v * s) for n, x in self.layers.items()
            },
            theta_q=self.theta_q * s,
            n_max=self.n_max,
            variant="synthetic",
        )


def _reduce_theta(curve, M, k_modulus, pair) -> GroupRingElement:
    """theta_M mod k_modulus, from the integer values of integral-normalized symbols."""
    if any(sym.scaling_mode != "integral-normalized" for sym in pair):
        raise ValueError("p-adic towers use integral-normalized symbols")
    theta = theta_element(curve, M, pair)
    return theta.element.map_coeffs(lambda v: ModInt(v, k_modulus))


def stabilize(
    curve: CurveData,
    p: int,
    k: int,
    n_max: int,
    variant: str | None = None,
    pair=None,
) -> PadicThetaTower:
    """Build the p-stabilized tower mod p^k up to layer n_max.

    Requires p odd with good ordinary reduction (p does not divide
    N * a_p).  ``variant`` selects the three-term relation shape feeding
    the stabilization; by default the variant certified by the norm
    relation sweep is consumed.  Only that variant yields a projective
    tower.
    """
    if p == 2 or not is_prime(p):
        raise NonOrdinaryPrime(f"{p} must be an odd prime")
    if curve.conductor % p == 0:
        raise NonOrdinaryPrime(f"{p} divides the conductor of {curve.label}")
    a_p = curve.ap(p)
    if a_p % p == 0:
        raise NonOrdinaryPrime(f"{curve.label} is non-ordinary at {p} (p | a_p)")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if pair is None:
        pair = eigen_pair(curve)
    for n in range(1, n_max + 1):
        rep = integrality_report(curve, p, n, pair)
        if not rep.p_integral:
            raise PrecisionError(str(rep))
    if variant is None:
        variant = adjudicated_variant(curve)
    pk = p**k
    alpha = hensel_unit_root(a_p, p, k)
    alpha_inv = alpha.inverse()
    nu_coeff = alpha_inv if variant == "A" else alpha_inv * p
    theta_q = _reduce_theta(curve, 1, pk, pair).coeffs[0]
    layers: dict[int, GroupRingElement] = {}
    prev = GroupRingElement(1, {0: theta_q})
    alpha_pow = ModInt(1, pk)
    for n in range(1, n_max + 1):
        alpha_pow = alpha_pow * alpha
        cur = _reduce_theta(curve, p**n, pk, pair)
        nu_prev = norm_map(prev, p**n)
        layer = (cur - nu_prev.map_coeffs(lambda v: v * nu_coeff)).map_coeffs(
            lambda v: v * alpha_pow.inverse()
        )
        layers[n] = layer
        prev = cur
    return PadicThetaTower(
        curve_label=curve.label,
        p=p,
        k=k,
        alpha=alpha,
        layers=layers,
        theta_q=theta_q,
        n_max=n_max,
        variant=variant,
    )


# ---------------------------------------------------------------------------
# Interpolation


@dataclass
class TrivialInterpolationReport:
    curve_label: str
    p: int
    k: int
    expected: ModInt  # (1 - 1/alpha)^2 theta_Q
    per_layer: list[tuple[int, ModInt]]
    holds: bool


def interpolate_trivial(tower: PadicThetaTower) -> TrivialInterpolationReport:
    """Augmentation of every layer against (1 - 1/alpha)^2 theta_Q mod p^k."""
    one = ModInt(1, tower.pk)
    factor = one - tower.alpha.inverse()
    expected = factor * factor * tower.theta_q
    per_layer = []
    holds = True
    for n in range(1, tower.n_max + 1):
        aug = tower.layers[n].augmentation()
        per_layer.append((n, aug))
        if aug != expected:
            holds = False
    return TrivialInterpolationReport(
        tower.curve_label, tower.p, tower.k, expected, per_layer, holds
    )


@dataclass
class CharacterInterpolationReport:
    curve_label: str
    p: int
    k: int
    conductor_exponent: int
    lhs: CycMod  # chi(theta^alpha_n)
    rhs: CycMod  # alpha^{-n} chi(theta_{p^n})
    holds: bool


def _eval_character_mod(x: GroupRingElement, chi: DirichletCharacter, pk: int) -> CycMod:
    o = chi.order()
    total = CycMod.zero(o, pk)
    for a, v in x.coeffs.items():
        if not v.is_zero():
            total = total + CycMod.from_cyc(chi(a), pk).scale(v.residue)
    return total


def interpolate_character(
    tower: PadicThetaTower, chi: DirichletCharacter, curve: CurveData | None = None
) -> CharacterInterpolationReport | TrivialInterpolationReport:
    """chi(theta^alpha_n) = alpha^{-n} chi(theta_{p^n}), at precision p^k.

    chi must be primitive of conductor p^n with n <= n_max; the trivial
    character routes to ``interpolate_trivial``.
    """
    if chi.is_trivial():
        return interpolate_trivial(tower)
    p, pk = tower.p, tower.pk
    if not chi.is_primitive():
        raise ValueError("character must be primitive")
    d = chi.modulus
    n = 0
    while d % p == 0:
        d //= p
        n += 1
    if d != 1:
        raise ValueError(f"conductor {chi.modulus} is not a power of {p}")
    if not 1 <= n <= tower.n_max:
        raise ValueError(f"conductor exponent {n} outside tower range")
    lhs = _eval_character_mod(tower.layers[n], chi, pk)
    if curve is None:
        from .curves import curve_by_label

        curve = curve_by_label(tower.curve_label)
    raw = _reduce_theta(curve, p**n, pk, eigen_pair(curve))
    rhs = _eval_character_mod(raw, chi, pk).scale(
        (tower.alpha.inverse() ** n).residue
    )
    return CharacterInterpolationReport(
        tower.curve_label, p, tower.k, n, lhs, rhs, lhs == rhs
    )


# ---------------------------------------------------------------------------
# Iwasawa invariants


def _teichmuller(a: int, p: int, pk: int) -> int:
    x = a % pk
    while True:
        y = pow(x, p, pk)
        if y == x:
            return x
        x = y


def layer_polynomial(
    tower: PadicThetaTower, n: int, component: int = 0
) -> list[ModInt]:
    """Coefficients of the tame-component polynomial in T = gamma - 1.

    The layer at p^n is pushed to the quotient (Z/p^n)^x -> Gal part
    generated by gamma = 1 + p, twisted by the ``component`` power of
    the Teichmuller character, then written as a polynomial of degree
    < p^{n-1} in T.
    """
    p, pk = tower.p, tower.pk
    pn = p**n
    x = tower.layers[n]
    gamma_order = p ** (n - 1)
    # index of the principal part: <a> = gamma^j
    gamma = (1 + p) % pn
    gamma_pows = {}
    acc = 1
    for j in range(gamma_order):
        gamma_pows[acc] = j
        acc = (acc * gamma) % pn
    c = [0] * gamma_order
    for a, v in x.coeffs.items():
        t = _teichmuller(a, p, pn)
        principal = (a * pow(t, -1, pn)) % pn
        j = gamma_pows[principal]
        w = pow(_teichmuller(a, p, pk), component, pk) if component else 1
        c[j] = (c[j] + w * v.residue) % pk
    # expand sum c_j (1+T)^j
    coeffs = [0] * gamma_order
    for j, cj in enumerate(c):
        if cj == 0:
            continue
        for i in range(j + 1):
            coeffs[i] = (coeffs[i] + cj * comb(j, i)) % pk
    return [ModInt(v, pk) for v in coeffs]


def _val(residue: int, p: int, k: int) -> int:
    if residue % p**k == 0:
        return k
    v = 0
    while residue % p == 0:
        residue //= p
        v += 1
    return v


def _read_invariants(poly: list[ModInt], p: int, k: int) -> tuple[int, int]:
    vals = [_val(c.residue, p, k) for c in poly]
    mu = min(vals)
    lam = vals.index(mu)
    return lam, mu


@dataclass
class IwasawaInvariants:
    lambda_: int
    mu: int
    layer: int
    precision: int
    stable: bool
    component_invariants: dict[int, tuple[int, int]] = field(default_factory=dict)


def iwasawa_invariants(tower: PadicThetaTower) -> IwasawaInvariants:
    """Finite-layer lambda/mu of the trivial-tame component.

    Reports the reading at the top layer, requiring equality with the
    layer below; other Teichmuller components are computed alongside.
    """
    if tower.n_max < 3:
        raise PrecisionError("at least 3 layers are needed")
    p, k = tower.p, tower.k
    top = _read_invariants(layer_polynomial(tower, tower.n_max), p, k)
    below = _read_invariants(layer_polynomial(tower, tower.n_max - 1), p, k)
    lam, mu = top
    if mu >= k:
        raise PrecisionError(
            f"precision insufficient: mu >= k = {k} at layer {tower.n_max}"
        )
    stable = top == below
    if not stable:
        raise PrecisionError(
            f"precision insufficient: reading {top} at layer {tower.n_max} "
            f"vs {below} at layer {tower.n_max - 1} has not stabilized"
        )
    components = {}
    for i in range(p - 1):
        ci = _read_invariants(layer_polynomial(tower, tower.n_max, component=i), p, k)
        ci_below = _read_invariants(
            layer_polynomial(tower, tower.n_max - 1, component=i), p, k
        )
        components[i] = ci if ci == ci_below else (-1, -1)
    return IwasawaInvariants(
        lambda_=lam,
        mu=mu,
        layer=tower.n_max,
        precision=k,
        stable=stable,
        component_invariants=components,
    )
