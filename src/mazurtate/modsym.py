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

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from .curves import CurveData
from .nt import divisors, euler_phi, factorize, primes_up_to


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


def _exact(v):
    """An int when v is integral, else the Fraction itself."""
    return v.numerator if v.denominator == 1 else v


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
                row[j] = row.get(j, 0) - coeff * v
                if row[j] == 0:
                    del row[j]


def sparse_rref(rows: list[dict]) -> dict[int, dict]:
    """Reduced row echelon form; returns {pivot column: normalized row}.

    Entries stay ints while every pivot is +-1 and become Fractions only
    where a division needs one.  A pivot row's columns are never below
    its pivot, so the result is the unique RREF of the row space.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = _reduce_row(dict(row), pivots)
        if not row:
            continue
        c = min(row)
        lead = row[c]
        if lead == -1:
            row = {j: -v for j, v in row.items()}
        elif lead != 1:
            row = {j: _exact(Fraction(v) / lead) for j, v in row.items()}
        for prow in pivots.values():
            if c in prow:
                coeff = prow.pop(c)
                for j, v in row.items():
                    if j == c:
                        continue
                    prow[j] = prow.get(j, 0) - coeff * v
                    if prow[j] == 0:
                        del prow[j]
        pivots[c] = row
    return pivots


def left_kernel(mat: list[list]) -> list[list[int]]:
    """Integer basis of {v : v M = 0} for an n x m rational matrix given by rows.

    M is first scaled to integers by its common denominator.  Then
    fraction-free forward elimination of [M | I]: each row is reduced
    against the pivot rows by integer combinations and divided by its
    content; a row whose M part vanishes carries a kernel vector in its
    I part.
    """
    den = lcm(*(x.denominator for entries in mat for x in entries))
    if den > 1:
        mat = [[int(x * den) for x in entries] for entries in mat]
    m = len(mat[0]) if mat else 0
    pivots: dict[int, dict[int, int]] = {}
    basis = []
    for i, entries in enumerate(mat):
        row = {j: x for j, x in enumerate(entries) if x}
        row[m + i] = 1
        while (c := min(row)) < m and c in pivots:
            prow = pivots[c]
            g = gcd(row[c], prow[c])
            a, b = prow[c] // g, row[c] // g
            for j in row.keys() - prow.keys():
                row[j] *= a
            for j, x in prow.items():
                v = a * row.get(j, 0) - b * x
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
            content = gcd(*row.values())
            if content > 1:
                row = {j: x // content for j, x in row.items()}
        if c < m:
            pivots[c] = row
        else:
            vec = [0] * len(mat)
            for j, x in row.items():
                vec[j - m] = x
            basis.append(vec)
    return basis


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


# ---------------------------------------------------------------------------
# The symbol space


class ModularSymbolSpace:
    """Manin-symbol presentation of H_1(X_0(N), cusps; Q).

    ``p1_reps`` lists P^1(Z/N) in lexicographic order, each point by the
    least element (g : x) of its unit orbit; then g = gcd(c, N).
    ``reduction[i]`` is the class of the i-th Manin symbol in the basis
    of free generators ``free_indices``, as a sparse row of (coordinate,
    coefficient) pairs; coefficients are ints unless a level needs a
    denominator.
    """

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("level must be >= 1")
        self.N = N
        self._build_p1()
        self._build_quotient()
        self._hecke: dict[int, list[list]] = {}
        self._star: list[list] | None = None

    def _build_p1(self):
        """Orbit representatives and O(#P^1) index tables (Cremona, ch. 2).

        (0 : d) is (0 : 1).  For a unit c, (c : d) is (1 : d/c), found in
        an N-entry inverse table.  Otherwise, with g = gcd(c, N) and
        m = N/g, the units fixing g are those = 1 mod m, so the orbit of
        (g : x) is every lift of x mod m prime to g; the point is keyed by
        d (c/g)^-1 mod m in an m-entry table for g.
        """
        N = self.N
        self._inv = [pow(c, -1, N) if gcd(c, N) == 1 else 0 for c in range(N)]
        reps = [(0, 1 % N)] + [(1, d) for d in range(N) if N > 1]
        self._blocks: dict[int, list[int | None]] = {}
        for g in divisors(N)[1:-1]:
            m = N // g
            block = self._blocks[g] = [None] * m
            # the least lift of r prime to g; one exists iff gcd(r, g, m) = 1
            for x in sorted(
                next(x for x in range(r, N, m) if gcd(x, g) == 1)
                for r in range(m)
                if gcd(r, g, m) == 1
            ):
                block[x % m] = len(reps)
                reps.append((g, x))
        self.p1_reps = reps

    def p1_index(self, c: int, d: int) -> int:
        N = self.N
        u = self._inv[c % N]
        if u:
            return 1 + d * u % N
        g = gcd(c, N)
        if gcd(g, d) != 1:
            raise ValueError(f"({c}:{d}) is not a point of P^1(Z/{N})")
        if g == N:
            return 0
        m = N // g
        return self._blocks[g][d * pow(c // g % m, -1, m) % m]

    def p1_valid(self, c: int, d: int) -> bool:
        return gcd(c, d, self.N) == 1

    def _build_quotient(self):
        """Quotient by the Manin relations, as the RREF of the relation rows.

        The 2-term relations pair each symbol i with S i: x_i = -x_{S i},
        and x_i = 0 when S fixes i.  Writing the smaller index of a pair
        through the larger one leaves only the 3-term rows to eliminate;
        the pivots of the relation space are the smaller indices plus the
        pivots of those rows, so this is the RREF of all the relations.
        """
        index = self.p1_index
        n = len(self.p1_reps)
        kept: list[tuple[int, int] | None] = [None] * n  # i -> (pair's larger index, sign)
        for i, (c, d) in enumerate(self.p1_reps):
            j = index(d, -c)  # (c:d) S
            if i < j:
                kept[i], kept[j] = (j, -1), (j, 1)
        rows, seen = [], set()
        for i, (c, d) in enumerate(self.p1_reps):
            orbit = (i, index(d, -c - d), index(-c - d, c))  # (c:d) T^k
            if i != min(orbit):
                continue
            row: dict[int, int] = {}
            for t in orbit:
                if kept[t]:
                    j, e = kept[t]
                    row[j] = row.get(j, 0) + e
            key = tuple(sorted((j, e) for j, e in row.items() if e))
            if key and key[0][1] < 0:
                key = tuple((j, -e) for j, e in key)
            if key and key not in seen:
                seen.add(key)
                rows.append(dict(key))
        pivots = sparse_rref(rows)
        free = [j for j in range(n) if kept[j] and kept[j][0] == j and j not in pivots]
        self.free_indices = free
        self.dimension = len(free)
        pos_of = {j: k for k, j in enumerate(free)}
        reduction: list[tuple] = []
        for i in range(n):
            j, e = kept[i] or (None, 0)
            if j in pos_of:
                reduction.append(((pos_of[j], e),))
            elif j is None:
                reduction.append(())
            else:
                row = pivots[j]
                reduction.append(tuple(sorted(
                    (pos_of[f], _exact(-e * v)) for f, v in row.items() if f != j
                )))
        self.reduction = reduction  # generator index -> sparse quotient coordinates

    # -- paths ----------------------------------------------------------

    def path_vector(self, r, decomposition=unimodular_path) -> tuple:
        """Class of {i.infinity -> r} in the quotient basis.

        Symbol values never go through this dense vector (``EigenSymbol``
        sums its integer table along the path); it is the homology-class
        reference those values are checked against.
        """
        vec = [0] * self.dimension
        for c, d in decomposition(r):
            for t, v in self.reduction[self.p1_index(c, d)]:
                vec[t] += v
        return tuple(vec)

    # -- operators --------------------------------------------------------

    def _right_action_matrix(self, mats) -> list[list]:
        """Dense matrix whose k-th column is the image of free generator k.

        Every matrix here has determinant prime to N, so it maps P^1(Z/N)
        to itself.
        """
        rows = [[0] * self.dimension for _ in range(self.dimension)]
        index, reduction = self.p1_index, self.reduction
        for k, gen_idx in enumerate(self.free_indices):
            c, d = self.p1_reps[gen_idx]
            for p, q, r, s in mats:
                for t, v in reduction[index(c * p + d * r, c * q + d * s)]:
                    rows[t][k] += v
        return rows

    def hecke_matrix(self, n: int) -> list[list]:
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

    def star_matrix(self) -> list[list]:
        """Involution induced by z |-> -z_bar: (c:d) |-> (-c:d)."""
        if self._star is None:
            self._star = self._right_action_matrix([(-1, 0, 0, 1)])
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
    vector: tuple[int, ...]
    table: tuple[int, ...]
    scale: Fraction = Fraction(1)
    scaling_mode: str = "integral-normalized"

    def _walk(self, x: int, y: int) -> int:
        """[x/y] for y > 0: the table summed along ``unimodular_path(x/y)``.

        Only the convergent denominators q_k = t_k q_{k-1} + q_{k-2} are
        run, on ints; step k adds (q_k : D q_{k-1}) with D = -1, +1, -1, ...,
        which for a unit q_k is the P^1 point at index 1 + D q_{k-1}/q_k.
        """
        space, table = self.space, self.table
        N, inv = space.N, space._inv
        total, q1, q2, D = 0, 0, 1, -1
        while y:
            t, r = divmod(x, y)
            x, y, q1, q2 = y, r, t * q1 + q2, q1
            u = inv[q1 % N]
            total += table[1 + D * q2 * u % N] if u else table[space.p1_index(q1, D * q2)]
            D = -D
        return total

    def raw_value(self, r) -> int:
        """[r] in the integral normalization, whatever the symbol's scale."""
        if r is None:
            return 0
        r = Fraction(r)
        return self._walk(r.numerator, r.denominator)

    def value(self, r) -> int | Fraction:
        v = self.raw_value(r)
        return v if self.scale == 1 else self.scale * v

    def values_mod(self, M: int) -> dict[int, int | Fraction]:
        """[a/M] for all units a mod M, in increasing order, in a new dict.

        Only a < M/2 is walked: [(M - a)/M] = [-a/M] = sign [a/M].
        """
        if M <= 2:  # the one unit M - 1 is its own mirror
            return {M - 1: self.value(Fraction(M - 1, M))}
        low = [a for a in range(1, (M + 1) // 2) if gcd(a, M) == 1]
        half = [self._walk(a, M) for a in low]
        vals = half + [self.sign * v for v in reversed(half)]
        if self.scale != 1:
            vals = [self.scale * v for v in vals]
        return dict(zip(low + [M - a for a in reversed(low)], vals))

    def calibrated(self, lam: Fraction) -> "EigenSymbol":
        """The period-calibrated symbol lam * [r], as a new value."""
        return replace(self, scale=Fraction(lam), scaling_mode="period-calibrated")


def _eigen_kernel(space, sign, eigenvalues) -> list[list[int]]:
    """Simultaneous left eigenspace of the star involution and all good T_ell.

    Successive restriction: each condition v (A - lambda) = 0 is solved
    on the span of the vectors meeting the earlier ones.  Every good
    ell <= GOOD_HECKE_BOUND, given as (ell, a_ell) in ``eigenvalues``,
    cuts the space, whatever its dimension.
    """
    dim = space.dimension
    conditions = [(space.star_matrix(), sign)] + [
        (space.hecke_matrix(ell), a) for ell, a in eigenvalues
    ]
    basis = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for mat, lam in conditions:
        image = [_combine(v, mat, [-lam * x for x in v]) for v in basis]
        basis = [_combine(ys, basis, [0] * dim) for ys in left_kernel(image)]
    return basis


def _combine(coeffs, rows, acc):
    """acc + sum_i coeffs[i] * rows[i], on dense integer rows."""
    for x, row in zip(coeffs, rows):
        if x:
            acc = [a + x * b for a, b in zip(acc, row)]
    return acc


_eigen_cache: dict[tuple, EigenSymbol] = {}


def eigen_symbol(space: ModularSymbolSpace, curve: CurveData, sign: int) -> EigenSymbol:
    """Integral-normalized eigen functional of the curve's newform.

    The simultaneous (T_ell, a_ell) eigenspace in the given sign part
    must be one-dimensional; an oldform collision raises
    ``NotNewformError``.  Symbols are cached by the curve model
    (a-invariants and conductor) and the a_ell the kernel reads, never by
    its label.
    """
    if curve.conductor != space.N:
        raise ValueError(
            f"curve {curve.label} has conductor {curve.conductor}, space level {space.N}"
        )
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    good = [ell for ell in primes_up_to(GOOD_HECKE_BOUND) if curve.conductor % ell]
    eigenvalues = tuple((ell, curve.ap(ell)) for ell in good)
    key = (curve.a_invariants, curve.conductor, sign, eigenvalues)
    if key in _eigen_cache:
        return _eigen_cache[key]
    basis = _eigen_kernel(space, sign, eigenvalues)
    if len(basis) != 1:
        raise NotNewformError(
            f"eigenspace for {curve.label} (sign {sign:+d}) has dimension "
            f"{len(basis)}: not new / ambiguous"
        )
    vec = basis[0]
    # scale so that the value set on Manin generators is Z with content 1
    values = [sum(vec[t] * v for t, v in red) for red in space.reduction]
    den = lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    content = gcd(*ints)
    assert content > 0, "eigen functional vanishes on all generators"
    vec = [_exact(v * Fraction(den, content)) for v in vec]
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
