"""Weight-2 modular symbols for Gamma_0(N) via Manin's presentation.

The space built here is the relative homology H_1(X_0(N), cusps; Q),
presented by Manin symbols (c:d) in P^1(Z/N) modulo the two- and
three-term relations; its dimension is 2g + (#cusps) - 1.  A curve's
eigen-symbol is the linear functional on this space cut out by the
Hecke eigenvalue system, normalized so that its value set is Z with
content 1 ("integral-normalized").  This equals the period-normalized
symbol r |-> {r}^sign / Omega^sign up to one fixed rational scalar,
which ``calibrate_periods`` pins against a numeric L-value oracle when
the true normalization is needed.

Sign conventions.  The star involution is induced by z |-> -z_bar,
acting as (c:d) |-> (-c:d) on Manin symbols; the + part is the one
containing the L-value avatar [0]^+.  The sign of the + functional is
fixed by [0]^+ >= 0 (first nonzero coordinate positive as tiebreak),
the sign of the - functional by its first nonzero coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm

from .curves import CurveData
from .nt import euler_phi, factorize, units_mod


class NotNewformError(ValueError):
    pass


class CalibrationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Genus data for the dimension check


def _legendre_minus1(p: int) -> int:
    if p == 2:
        return 0
    return 1 if p % 4 == 1 else -1


def _legendre_minus3(p: int) -> int:
    if p == 3:
        return 0
    if p == 2:
        return -1
    return 1 if p % 3 == 1 else -1


def index_gamma0(N: int) -> int:
    mu = N
    for p in factorize(N):
        mu = mu // p * (p + 1)
    return mu


def cusp_count(N: int) -> int:
    from .nt import divisors

    return sum(euler_phi(gcd(d, N // d)) for d in divisors(N))


def genus_x0(N: int) -> int:
    mu = index_gamma0(N)
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in factorize(N):
            nu2 *= 1 + _legendre_minus1(p)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in factorize(N):
            nu3 *= 1 + _legendre_minus3(p)
    g12 = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * cusp_count(N)
    assert g12 % 12 == 0
    return g12 // 12


# ---------------------------------------------------------------------------
# Sparse elimination over Q


def _reduce_row(row: dict, pivots: dict) -> dict:
    while True:
        hit = [c for c in row if c in pivots]
        if not hit:
            return row
        for c in hit:
            coeff = row.pop(c)
            for j, v in pivots[c].items():
                if j == c:
                    continue
                row[j] = row.get(j, Fraction(0)) - coeff * v
                if row[j] == 0:
                    del row[j]


def sparse_rref(rows: list[dict]) -> dict[int, dict]:
    """Reduced row echelon form; returns {pivot column: normalized row}."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = _reduce_row(dict(row), pivots)
        if not row:
            continue
        c = min(row)
        lead = row[c]
        row = {j: v / lead for j, v in row.items()}
        for prow in pivots.values():
            if c in prow:
                coeff = prow.pop(c)
                for j, v in row.items():
                    if j == c:
                        continue
                    prow[j] = prow.get(j, Fraction(0)) - coeff * v
                    if prow[j] == 0:
                        del prow[j]
        pivots[c] = row
    return pivots


def left_kernel(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {v : v M = 0} for an n x m matrix given as a list of rows."""
    n = len(mat)
    m = len(mat[0]) if n else 0
    rows = [
        {i: mat[i][j] for i in range(n) if mat[i][j] != 0} for j in range(m)
    ]  # columns of M = rows of M^T
    pivots = sparse_rref(rows)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for pc, prow in pivots.items():
            if f in prow:
                vec[pc] = -prow[f]
        basis.append(vec)
    return basis


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def vec_mat(v, m):
    n = len(v)
    return [sum(v[i] * m[i][j] for i in range(n)) for j in range(n)]


# ---------------------------------------------------------------------------
# Unimodular paths


def unimodular_path(r) -> list[tuple[int, int]]:
    """Manin symbols (c:d) whose classes sum to {i.infinity -> r}.

    Successive convergents p_k/q_k of the continued fraction of r give
    unimodular segments; each contributes the symbol (q_k : D q_{k-1})
    with D = p_k q_{k-1} - p_{k-1} q_k = +-1.
    """
    if r is None:
        return []
    r = Fraction(r)
    x, y = r.numerator, r.denominator
    p_m2, q_m2 = 0, 1
    p_m1, q_m1 = 1, 0
    symbols = []
    while y != 0:
        a = x // y
        p, q = a * p_m1 + p_m2, a * q_m1 + q_m2
        D = p * q_m1 - p_m1 * q
        assert D in (1, -1)
        symbols.append((q, D * q_m1))
        p_m2, q_m2, p_m1, q_m1 = p_m1, q_m1, p, q
        x, y = y, x - a * y
    return symbols


def unimodular_path_hj(r) -> list[tuple[int, int]]:
    """Alternative decomposition via the all-ceilings continued fraction.

    Same endpoint, generally a different chain of unimodular segments;
    used to test that symbol values are path independent.
    """
    if r is None:
        return []
    r = Fraction(r)
    x, y = r.numerator, r.denominator
    p_m2, q_m2 = 0, -1
    p_m1, q_m1 = 1, 0
    symbols = []
    while y != 0:
        a = -((-x) // y)  # ceil(x/y)
        p, q = a * p_m1 - p_m2, a * q_m1 - q_m2
        D = p * q_m1 - p_m1 * q
        assert D in (1, -1)
        symbols.append((q, D * q_m1))
        p_m2, q_m2, p_m1, q_m1 = p_m1, q_m1, p, q
        x, y = y, a * y - x
    return symbols


# ---------------------------------------------------------------------------
# The symbol space


class ModularSymbolSpace:
    """Manin-symbol presentation of H_1(X_0(N), cusps; Q)."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("level must be >= 1")
        self.N = N
        self._build_p1()
        self._build_quotient()
        self._hecke: dict[int, list[list[Fraction]]] = {}
        self._star: list[list[Fraction]] | None = None

    def _build_p1(self):
        N = self.N
        units = units_mod(N) if N > 1 else (1,)
        rep_of: dict[tuple[int, int], tuple[int, int]] = {}
        reps: list[tuple[int, int]] = []
        for c in range(N):
            for d in range(N):
                if gcd(gcd(c, d), N) != 1:
                    continue
                if (c, d) in rep_of:
                    continue
                orbit = {((u * c) % N, (u * d) % N) for u in units}
                rep = min(orbit)
                for x in orbit:
                    rep_of[x] = rep
                reps.append(rep)
        reps.sort()
        self.p1_reps = reps
        index = {rep: i for i, rep in enumerate(reps)}
        self._p1_index = {pair: index[rep] for pair, rep in rep_of.items()}

    def p1_index(self, c: int, d: int) -> int:
        key = (c % self.N, d % self.N)
        try:
            return self._p1_index[key]
        except KeyError:
            raise ValueError(f"({c}:{d}) is not a point of P^1(Z/{self.N})")

    def p1_valid(self, c: int, d: int) -> bool:
        return (c % self.N, d % self.N) in self._p1_index

    def _build_quotient(self):
        n = len(self.p1_reps)
        rows = []
        seen = set()
        for i, (c, d) in enumerate(self.p1_reps):
            j = self.p1_index(d, -c)  # (c:d) S
            key = (i, j) if i <= j else (j, i)
            if key not in seen:
                seen.add(key)
                row: dict[int, Fraction] = {}
                for t in (i, j):
                    row[t] = row.get(t, Fraction(0)) + 1
                rows.append(row)
            j1 = self.p1_index(d, -c - d)  # (c:d) T
            j2 = self.p1_index(-c - d, c)  # (c:d) T^2
            key3 = tuple(sorted((i, j1, j2)))
            if key3 not in seen:
                seen.add(key3)
                row = {}
                for t in (i, j1, j2):
                    row[t] = row.get(t, Fraction(0)) + 1
                rows.append(row)
        pivots = sparse_rref(rows)
        free = [j for j in range(n) if j not in pivots]
        self.free_indices = free
        self.dimension = len(free)
        pos_of = {j: k for k, j in enumerate(free)}
        reduction = []
        for i in range(n):
            vec = [Fraction(0)] * self.dimension
            if i in pivots:
                for j, v in pivots[i].items():
                    if j != i:
                        vec[pos_of[j]] -= v
            else:
                vec[pos_of[i]] = Fraction(1)
            reduction.append(tuple(vec))
        self.reduction = reduction  # generator index -> quotient coordinates

    # -- paths ----------------------------------------------------------

    def path_vector(self, r, decomposition=unimodular_path) -> tuple[Fraction, ...]:
        """Class of {i.infinity -> r} in the quotient basis.

        Symbol values never go through this dense vector (``EigenSymbol``
        sums its integer table along the path); it is the homology-class
        reference those values are checked against.
        """
        vec = [Fraction(0)] * self.dimension
        for c, d in decomposition(r):
            red = self.reduction[self.p1_index(c, d)]
            for t in range(self.dimension):
                if red[t]:
                    vec[t] += red[t]
        return tuple(vec)

    # -- operators --------------------------------------------------------

    def _right_action_matrix(self, mats) -> list[list[Fraction]]:
        dim = self.dimension
        cols = []
        for gen_idx in self.free_indices:
            c, d = self.p1_reps[gen_idx]
            col = [Fraction(0)] * dim
            for p, q, r, s in mats:
                c1, d1 = c * p + d * r, c * q + d * s
                if not self.p1_valid(c1, d1):
                    continue
                red = self.reduction[self.p1_index(c1, d1)]
                for t in range(dim):
                    if red[t]:
                        col[t] += red[t]
            cols.append(col)
        return [[cols[j][i] for j in range(dim)] for i in range(dim)]

    def hecke_matrix(self, n: int) -> list[list[Fraction]]:
        """T_n in the quotient basis (acting on column vectors).

        Primes dividing the level are unsupported (U_ell is out of
        scope); composite n prime to the level is allowed.
        """
        if gcd(n, self.N) != 1:
            raise ValueError(
                f"T_{n} unsupported: {n} shares a factor with the level {self.N}"
            )
        if n not in self._hecke:
            self._hecke[n] = self._right_action_matrix(list(merel_matrices(n)))
        return self._hecke[n]

    def star_matrix(self) -> list[list[Fraction]]:
        """Involution induced by z |-> -z_bar: (c:d) |-> (-c:d)."""
        if self._star is None:
            dim = self.dimension
            cols = []
            for gen_idx in self.free_indices:
                c, d = self.p1_reps[gen_idx]
                cols.append(list(self.reduction[self.p1_index(-c, d)]))
            self._star = [[cols[j][i] for j in range(dim)] for i in range(dim)]
        return self._star

    def __repr__(self):
        return f"ModularSymbolSpace(N={self.N}, dim={self.dimension})"


_space_cache: dict[int, ModularSymbolSpace] = {}


def build_space(N: int) -> ModularSymbolSpace:
    if N not in _space_cache:
        _space_cache[N] = ModularSymbolSpace(N)
    return _space_cache[N]


def merel_matrices(n: int):
    """Merel's right-coset matrices of determinant n acting on Manin symbols."""
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    yield (a, b, 0, d)
                for c in range(1, d):
                    yield (a, 0, c, d)
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        yield (a, b, bc // b, d)


# ---------------------------------------------------------------------------
# Eigen-symbols

GOOD_HECKE_BOUND = 20


@dataclass(frozen=True)
class EigenSymbol:
    """Hecke-eigen functional on a symbol space, one sign at a time.

    ``vector`` is a left eigenvector of the Hecke matrices (a functional
    on the homology space).  ``table`` holds its integer value on each
    P^1(Z/N) element, with content 1, so [r] is the sum of table entries
    along a unimodular path to r.  ``scale`` multiplies every value and
    is fixed with ``scaling_mode`` when the symbol is built: 1 for
    "integral-normalized", the period scalar for "period-calibrated".
    """

    space: ModularSymbolSpace
    curve_label: str
    sign: int
    vector: tuple[Fraction, ...]
    table: tuple[int, ...]
    scale: Fraction = Fraction(1)
    scaling_mode: str = "integral-normalized"
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def raw_value(self, r) -> int:
        """[r] in the integral normalization, whatever the symbol's scale."""
        N, index, table = self.space.N, self.space._p1_index, self.table
        return sum(table[index[c % N, d % N]] for c, d in unimodular_path(r))

    def value(self, r) -> int | Fraction:
        v = self.raw_value(r)
        return v if self.scale == 1 else self.scale * v

    def values_mod(self, M: int) -> dict[int, int | Fraction]:
        """[a/M] for all units a mod M, memoized per denominator."""
        if M not in self._values:
            self._values[M] = {
                a: self.value(Fraction(a, M) if M > 1 else 0) for a in units_mod(M)
            }
        return self._values[M]

    def calibrated(self, lam: Fraction) -> "EigenSymbol":
        """The period-calibrated symbol lam * [r], as a new value."""
        return replace(self, scale=Fraction(lam), scaling_mode="period-calibrated")


def _eigen_kernel(space, curve, sign):
    """Simultaneous left eigenspace of the star involution and all good T_ell.

    All conditions are stacked column-wise into one rectangular system,
    so a single kernel computation cuts out the eigenspace.
    """
    from .nt import primes_up_to

    star = space.star_matrix()
    dim = space.dimension
    stacked = [list(star[i]) for i in range(dim)]
    for i in range(dim):
        stacked[i][i] -= sign
    for ell in primes_up_to(GOOD_HECKE_BOUND):
        if curve.conductor % ell == 0:
            continue
        a_ell = curve.ap(ell)
        t = space.hecke_matrix(ell)
        for i in range(dim):
            row = list(t[i])
            row[i] -= a_ell
            stacked[i].extend(row)
    return left_kernel(stacked)


_eigen_cache: dict[tuple[tuple[int, ...], int, int], EigenSymbol] = {}


def eigen_symbol(space: ModularSymbolSpace, curve: CurveData, sign: int) -> EigenSymbol:
    """Integral-normalized eigen functional of the curve's newform.

    The simultaneous (T_ell, a_ell) eigenspace in the given sign part
    must be one-dimensional; an oldform collision raises
    ``NotNewformError``.  Symbols are cached by the curve model
    (a-invariants and conductor), never by its label.
    """
    if curve.conductor != space.N:
        raise ValueError(
            f"curve {curve.label} has conductor {curve.conductor}, space level {space.N}"
        )
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    key = (curve.a_invariants, curve.conductor, sign)
    if key in _eigen_cache:
        return _eigen_cache[key]
    basis = _eigen_kernel(space, curve, sign)
    if len(basis) != 1:
        raise NotNewformError(
            f"eigenspace for {curve.label} (sign {sign:+d}) has dimension "
            f"{len(basis)}: not new / ambiguous"
        )
    vec = basis[0]
    # scale so that the value set on Manin generators is Z with content 1
    values = [sum(a * b for a, b in zip(vec, red)) for red in space.reduction]
    den = lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    content = gcd(*ints)
    assert content > 0, "eigen functional vanishes on all generators"
    vec = [v * Fraction(den, content) for v in vec]
    table = [v // content for v in ints]
    sym = EigenSymbol(space, curve.label, sign, tuple(vec), tuple(table))
    # sign normalization
    anchor = sym.raw_value(0) if sign == 1 else 0
    if anchor < 0 or (anchor == 0 and next((v for v in vec if v != 0), 1) < 0):
        sym = EigenSymbol(
            space, curve.label, sign, tuple(-v for v in vec), tuple(-v for v in table)
        )
    _eigen_cache[key] = sym
    return sym


def calibrate_periods(eigen: EigenSymbol, curve: CurveData, oracle=None) -> Fraction:
    """Pin the rational scalar matching [0]^+ to the numeric L(E,1)/Omega^+.

    Returns lambda with lambda * [0]^+_integral = L(E,1)/Omega^+ to
    relative 1e-6, as a ratio of integers below 1e6; nothing is mutated,
    and ``eigen.calibrated(lambda)`` gives the period-calibrated symbol.
    A curve with L(E,1) = 0 leaves the scalar undetermined at r = 0.
    """
    if eigen.sign != 1:
        raise CalibrationError("period calibration uses the + eigen-symbol")
    if curve.fricke_sign is None:
        raise CalibrationError("calibration needs the Fricke sign from the catalog")
    if oracle is None:
        from .oracle import lvalue_and_period

        oracle = lvalue_and_period(curve)
    ratio = oracle.lvalue / oracle.omega_plus
    base = eigen.raw_value(0)
    if abs(ratio) <= 1e-9:
        if base != 0:
            raise CalibrationError(
                f"numeric L-value vanishes but [0]^+ = {base} != 0 for {curve.label}"
            )
        raise CalibrationError("calibration undetermined at r=0")
    if base == 0:
        raise CalibrationError(
            f"[0]^+ = 0 but numeric L(E,1)/Omega^+ = {ratio} for {curve.label}"
        )
    target = ratio / float(base)
    lam = _small_rational(target, 10**6)
    if lam is None or abs(float(lam * base) - ratio) > 1e-6 * abs(ratio):
        raise CalibrationError(
            f"no small rational matches {target} for {curve.label}"
        )
    return lam


def _small_rational(x: float, max_den: int) -> Fraction | None:
    frac = Fraction(x).limit_denominator(max_den)
    if frac.denominator > max_den or abs(frac.numerator) > max_den:
        return None
    return frac
