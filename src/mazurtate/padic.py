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

and calls the reading stable when the layer below gives the same.
"""

from __future__ import annotations

from .arith import ModInt, NonOrdinaryPrime, hensel_unit_root
from .curves import CurveData
from .groupring import (
    DirichletCharacter,
    GroupRingElement,
    eval_character,
    first_mismatch,
    norm_map,
    project,
)
from .nt import is_prime
from .records import Record
from .theta import adjudicated_variant, eigen_pair, integrality_report, theta_element


class PrecisionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The tower


class PadicThetaTower(Record):
    # layers: n -> theta^alpha_n over Z/p^k at modulus p^n
    # theta_q: theta_Q reduced mod p^k
    __slots__ = ("curve_label", "p", "k", "alpha", "layers", "theta_q", "n_max", "variant")
    _defaults = {"variant": "A"}

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


def _integral_theta(curve, M, pair) -> GroupRingElement:
    """theta_M with the integer values of integral-normalized symbols."""
    if any(sym.scaling_mode != "integral-normalized" for sym in pair):
        raise ValueError("p-adic towers use integral-normalized symbols")
    return theta_element(curve, M, pair).element


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
    nu = pow(alpha.residue, -1, pk) * (1 if variant == "A" else p)
    prev = _integral_theta(curve, 1, pair)
    theta_q = ModInt(prev.coeffs[0], pk)
    layers: dict[int, GroupRingElement] = {}
    for n in range(1, n_max + 1):
        cur = _integral_theta(curve, p**n, pair)
        lift = norm_map(prev, p**n).coeffs
        scale = pow(alpha.residue, -n, pk)
        layers[n] = GroupRingElement(
            p**n,
            {a: ModInt((v - nu * lift[a]) * scale, pk) for a, v in cur.coeffs.items()},
        )
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


class TrivialInterpolationReport(Record):
    # expected: (1 - 1/alpha)^2 theta_Q
    __slots__ = ("curve_label", "p", "k", "expected", "per_layer", "holds")


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


class CharacterInterpolationReport(Record):
    # integral lifts: the identity is the congruence lhs = rhs mod p^k
    # lhs: chi(theta^alpha_n)
    # rhs: alpha^{-n} chi(theta_{p^n})
    __slots__ = ("curve_label", "p", "k", "conductor_exponent", "lhs", "rhs", "holds")


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
    if curve is None:
        from .curves import curve_by_label

        curve = curve_by_label(tower.curve_label)
    raw = _integral_theta(curve, p**n, eigen_pair(curve))
    lhs = eval_character(tower.layers[n].map_coeffs(lambda v: v.residue), chi)
    rhs = eval_character(raw.map_coeffs(lambda v: v % pk), chi) * (
        tower.alpha.inverse() ** n
    ).residue
    holds = ((lhs - rhs) / pk).den == 1
    return CharacterInterpolationReport(tower.curve_label, p, tower.k, n, lhs, rhs, holds)


# ---------------------------------------------------------------------------
# Iwasawa invariants


def _teichmuller(a: int, p: int, m: int) -> int:
    """omega(a) mod m = p^j, which is a^(p^(j-1)) mod p^j."""
    return pow(a, m // p, m)


_SHIFT_CUTOFF = 64  # below this many terms one Horner int beats the split


def _taylor_shift(c: list[int], pk: int) -> list[int]:
    """sum_j c_j (1+T)^j mod pk, for residues 0 <= c_j < pk.

    Divide and conquer (von zur Gathen and Gerhard, ISSAC 1997): with m
    the largest power of 2 below the length, P = P0 + X^m P1 shifts to
    P0(1+T) + (1+T)^m P1(1+T), one multiply of ints packed in b-byte
    slots and reduced mod pk at once; no slot carries, as each holds at
    most d (pk - 1)^2 + pk < 2^(8 b).  The powers (1+T)^(2^h) come by
    squaring, once per call.  Below the cutoff, n terms run Horner's
    acc -> acc (2^(8 w) + 1) + c_j in one int, whose w-byte slots hold
    sum_j c_j C(j, i) < pk 2^n.
    """
    d = len(c)
    b = (2 * pk.bit_length() + d.bit_length() + 8) // 8

    def pack(xs):
        return int.from_bytes(b"".join([x.to_bytes(b, "little") for x in xs]), "little")

    def unpack(x, n, w=b):
        raw = x.to_bytes(w * n, "little")
        return [int.from_bytes(raw[i : i + w], "little") % pk for i in range(0, w * n, w)]

    def shift(lo, hi):
        n = hi - lo
        if n <= _SHIFT_CUTOFF:
            w, acc = (pk.bit_length() + n + 8) // 8, 0
            for cj in reversed(c[lo:hi]):
                acc += (acc << 8 * w) + cj
            return unpack(acc, n, w)
        m = 1 << ((n - 1).bit_length() - 1)
        return unpack(pack(shift(lo + m, hi)) * squares[m] + pack(shift(lo, lo + m)), n)

    squares = {1: 1 + (1 << 8 * b)}  # m -> packed (1+T)^m mod pk, for m = 2^h < d
    m = 2
    while m < d:
        squares[m] = pack(unpack(squares[m // 2] ** 2, m + 1))
        m *= 2
    return shift(0, d)


def _component_polynomials(tower: PadicThetaTower, n: int, components) -> dict[int, list[int]]:
    """Layer n in T = gamma - 1 mod p^k, one polynomial per Teichmuller component.

    The units are a = omega(r) gamma^j for 0 < r < p and j < p^(n-1), so
    one pass reads row r: the coefficients at omega(r) gamma^j by j.
    Component i adds row r weighted by omega(r)^i mod p^k.
    """
    p, pk = tower.p, tower.pk
    pn = p**n
    coeffs = tower.layers[n].coeffs
    rows = []
    for r in range(1, p):
        a, row = _teichmuller(r, p, pn), []
        for _ in range(p ** (n - 1)):
            row.append(coeffs[a].residue)
            a = a * (1 + p) % pn
        rows.append((_teichmuller(r, p, pk), row))
    polys = {}
    for i in components:
        c = [0] * p ** (n - 1)
        for t, row in rows:
            w = pow(t, i, pk)
            c = [x + w * y for x, y in zip(c, row)]
        polys[i] = _taylor_shift([x % pk for x in c], pk)
    return polys


def layer_polynomial(tower: PadicThetaTower, n: int, component: int = 0) -> list[ModInt]:
    """Coefficients of the tame-component polynomial in T = gamma - 1.

    The layer at p^n is pushed to the quotient (Z/p^n)^x -> Gal part
    generated by gamma = 1 + p, twisted by the ``component`` power of
    the Teichmuller character, then written as a polynomial of degree
    < p^{n-1} in T.
    """
    poly = _component_polynomials(tower, n, [component])[component]
    return [ModInt(v, tower.pk) for v in poly]


def _val(residue: int, p: int, k: int) -> int:
    v = 0
    while v < k and residue % p == 0:
        residue //= p
        v += 1
    return v


def _read_invariants(poly: list[int], p: int, k: int) -> tuple[int, int]:
    vals = [_val(c, p, k) for c in poly]
    mu = min(vals)
    return vals.index(mu), mu


class IwasawaInvariants(Record):
    __slots__ = (
        "lambda_", "mu", "layer", "precision", "stable", "component_invariants",
        "unstable_components", "normalization",
    )

    def __init__(
        self,
        lambda_: int,
        mu: int,
        layer: int,
        precision: int,
        stable: bool,  # the reading agrees with the layer below
        component_invariants: dict[int, tuple[int, int]] | None = None,
        unstable_components: tuple[int, ...] = (),  # components that disagree with the layer below
        normalization: str = "integral-normalized",  # _integral_theta refuses other symbols
    ):
        self.lambda_ = lambda_
        self.mu = mu
        self.layer = layer
        self.precision = precision
        self.stable = stable
        self.component_invariants = {} if component_invariants is None else component_invariants
        self.unstable_components = unstable_components
        self.normalization = normalization


def iwasawa_invariants(tower: PadicThetaTower) -> IwasawaInvariants:
    """Finite-layer lambda/mu of the trivial-tame component.

    Reports the reading at the top layer, stable when it equals the
    layer below; other Teichmuller components are read alongside, and
    those that differ from the layer below are listed as unstable.
    """
    if tower.n_max < 3:
        raise PrecisionError("at least 3 layers are needed")
    p, k = tower.p, tower.k
    top_layer, below_layer = (
        {
            i: _read_invariants(poly, p, k)
            for i, poly in _component_polynomials(tower, n, range(p - 1)).items()
        }
        for n in (tower.n_max, tower.n_max - 1)
    )
    lam, mu = top_layer[0]
    if mu >= k:
        raise PrecisionError(
            f"precision insufficient: mu >= k = {k} at layer {tower.n_max}"
        )
    unstable = tuple(i for i, ci in top_layer.items() if ci != below_layer[i])
    return IwasawaInvariants(
        lambda_=lam,
        mu=mu,
        layer=tower.n_max,
        precision=k,
        stable=0 not in unstable,
        component_invariants=top_layer,
        unstable_components=unstable,
    )
