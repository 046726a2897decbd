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

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .curves import CurveData
from .nt import divisors, euler_phi, factorize, is_prime, primes_up_to
from .records import Frozen


class NotNewformError(ValueError):
    pass


class CalibrationError(ValueError):
    pass


class CalibrationUndetermined(CalibrationError):
    """L(E,1) = 0 and [0]^+ = 0 agree, but pin no scalar."""


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


def _eliminate(row: dict, c: int, pivot_row: dict) -> None:
    """row -= row[c] * pivot_row, in place; pivot_row holds 1 at c."""
    coeff = row.pop(c)
    for j, v in pivot_row.items():
        if j != c:
            if x := row.get(j, 0) - coeff * v:
                row[j] = x
            else:
                del row[j]


def sparse_rref(rows: list[dict], reduced: bool = True) -> dict[int, dict]:
    """Row echelon form; returns {pivot column: row with 1 there}.

    Forward elimination reduces each row at its leading column only, until
    no pivot is there: an echelon form, with the RREF's pivot set.  If
    ``reduced``, back-substitution in decreasing pivot order, each row
    against the later pivot rows (reduced by then), gives the unique RREF.
    Entries stay ints while every lead is +-1 and become Fractions only
    where a division needs one.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        while row and (c := min(row)) in pivots:
            _eliminate(row, c, pivots[c])
        if row:
            lead = row[c]
            if lead == -1:
                row = {j: -v for j, v in row.items()}
            elif lead != 1:
                row = {j: _exact(Fraction(v) / lead) for j, v in row.items()}
            pivots[c] = row
    for c in sorted(pivots, reverse=True) if reduced else ():
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            _eliminate(row, j, pivots[j])
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
    least element (g : x) of its unit orbit; then g = gcd(c, N).  The free
    generators ``free_indices`` are the kept points that hold no pivot of
    one forward elimination of the 3-term rows.  ``reduction[i]``, built on
    first read from the RREF, is the class of the i-th Manin symbol in that
    basis, as a sparse row of (coordinate, coefficient) pairs; coefficients
    are ints unless a level needs a denominator.  No command reads it: the
    eigen-symbols are built on the sign quotients.
    """

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("level must be >= 1")
        self.N = N
        self._build_p1()
        self.free_indices = self._quotient(None, reduced=False)[0]
        self.dimension = len(self.free_indices)
        self._signed: dict[int, tuple[list[int], list[tuple]]] = {}

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

    @cached_property
    def reduction(self) -> list[tuple]:
        return self._quotient(None)[1]

    def _quotient(self, sign, reduced=True):
        """(free generators, reduction rows) of the quotient by the Manin relations
        and, for sign = +-1, by x_i = sign x_{star i}.  With x_{S i} = -x_i and
        x_{star i} = sign x_i, each point is written through the largest of its
        orbit under <S> or <S, star>, or is 0 if the orbit forces x = -x; those
        and the 3-term rows' pivots are the pivots of the RREF of all relations.
        Unless ``reduced``, the rows are None and the pivots an echelon form's."""
        index = self.p1_index
        n = len(self.p1_reps)
        kept: list = [None] * n  # i -> (its orbit's largest point, sign), () when zero
        for i, (c, d) in enumerate(self.p1_reps):
            if kept[i] is None:  # (c:d) S, star and S star
                star = [(index(-c, d), sign), (index(d, c), -sign)] if sign else []
                orbit = [(i, 1), (index(d, -c), -1), *star]
                coeff = dict(orbit)
                top, zero = max(coeff), len(set(orbit)) > len(coeff)
                for t, e in coeff.items():
                    kept[t] = () if zero else (top, e * coeff[top])
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
        pivots = sparse_rref(rows, reduced)
        free = [j for j in range(n) if kept[j] and kept[j][0] == j and j not in pivots]
        if not reduced:
            return free, None
        pos_of = {j: k for k, j in enumerate(free)}
        reduction: list[tuple] = []  # generator index -> sparse quotient coordinates
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
        return free, reduction

    def sign_quotient(self, sign: int) -> tuple[list[int], list[tuple]]:
        """``_quotient(sign)`` with integer rows: dual to the sign part, a T_ell module."""
        if sign not in self._signed:
            free, reduction = self._quotient(sign)
            den = lcm(*(v.denominator for row in reduction for _, v in row))
            self._signed[sign] = free, [tuple((t, int(v * den)) for t, v in row) for row in reduction]
        return self._signed[sign]

    # -- paths ----------------------------------------------------------

    def path_vector(self, r) -> tuple:
        """Class of {i.infinity -> r} in the quotient basis.

        Symbol values never go through this dense vector (``EigenSymbol``
        sums its integer table along the path); it is the homology-class
        reference those values are checked against.
        """
        vec = [0] * self.dimension
        for c, d in unimodular_path(r):
            for t, v in self.reduction[self.p1_index(c, d)]:
                vec[t] += v
        return tuple(vec)

    # -- operators --------------------------------------------------------

    def _images(self, mats, free, reduction, a: int = 0) -> list[dict]:
        """{coordinate: coefficient} of each free generator's image under
        sum(mats) - a; every matrix has determinant prime to N."""
        index, images = self.p1_index, []
        for gen_idx in free:
            c, d = self.p1_reps[gen_idx]
            col = {t: -a * v for t, v in reduction[gen_idx]} if a else {}
            for p, q, r, s in mats:
                for t, v in reduction[index(c * p + d * r, c * q + d * s)]:
                    col[t] = col.get(t, 0) + v
            images.append(col)
        return images

    def _right_action_matrix(self, mats) -> list[list]:
        """Dense matrix whose k-th column is the image of free generator k."""
        cols = self._images(mats, self.free_indices, self.reduction)
        return [[col.get(t, 0) for col in cols] for t in range(self.dimension)]

    def hecke_matrix(self, ell: int) -> list[list]:
        """T_ell in the quotient basis (acting on column vectors), for a
        prime ell not dividing the level (U_ell is out of scope)."""
        if not is_prime(ell):
            raise ValueError(f"T_{ell} unsupported: {ell} is not prime")
        if self.N % ell == 0:
            raise ValueError(f"T_{ell} unsupported: {ell} divides the level {self.N}")
        return self._right_action_matrix(heilbronn_matrices(ell))

    def star_matrix(self) -> list[list]:
        """Involution induced by z |-> -z_bar: (c:d) |-> (-c:d)."""
        return self._right_action_matrix([(-1, 0, 0, 1)])

    def __repr__(self):
        return f"ModularSymbolSpace(N={self.N}, dim={self.dimension})"


_space_cache: dict[int, ModularSymbolSpace] = {}


def build_space(N: int) -> ModularSymbolSpace:
    if N not in _space_cache:
        _space_cache[N] = ModularSymbolSpace(N)
    return _space_cache[N]


def heilbronn_matrices(ell: int) -> list[tuple[int, int, int, int]]:
    """Cremona's Heilbronn matrices of prime determinant ell: on Manin symbols
    they give T_ell as Merel's matrices do, from fewer of them (Cremona
    1997, 2.4; Merel 1994).  For |r| <= ell/2, one matrix per step of the
    nearest-integer continued fraction of -ell/r, ties rounded away from 0;
    ell = 2 has its own four."""
    if ell == 2:
        return [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    mats = [(1, 0, 0, ell)]
    for r in range(-(ell // 2), ell // 2 + 1):
        x1, x2, y1, y2, a, b = ell, -r, 0, 1, -ell, r
        mats.append((x1, x2, y1, y2))
        while b:
            q = (2 * abs(a) + abs(b)) // (2 * abs(b))
            q = q if (a < 0) == (b < 0) else -q
            a, b = -b, a - b * q
            x1, x2, y1, y2 = x2, q * x2 - x1, y2, q * y2 - y1
            mats.append((x1, x2, y1, y2))
    return mats


# ---------------------------------------------------------------------------
# Eigen-symbols

GOOD_HECKE_BOUND = 20


class EigenSymbol(Frozen):
    """Hecke-eigen functional on a symbol space, one sign at a time, as an integer table.

    ``table`` holds its value on each P^1(Z/N) element, with content 1, so
    [r] is the sum of table entries along a unimodular path to r.  That is
    the type's one normalization, ``scaling_mode``: a caller that needs the
    period normalization multiplies by ``calibrate_periods``'s scalar.
    ``vector``, the table on the free generators, is the same functional on
    the quotient basis, a left eigenvector of the Hecke matrices.
    ``hecke_bound`` is the largest ell whose T_ell cut the kernel, if above 20.
    """

    __slots__ = ("space", "curve_label", "sign", "table", "hecke_bound")
    _defaults = {"hecke_bound": GOOD_HECKE_BOUND}
    scaling_mode = "integral-normalized"

    @property
    def vector(self) -> tuple[int, ...]:
        return tuple(self.table[j] for j in self.space.free_indices)

    def walks(self, M: int, starts) -> list[int]:
        """[a/M] for each start b, where a <= M/2 and a b = +-1 mod M, given
        1 <= b < M prime to M (or M = 1, b = 0, which gives [0]).

        ``unimodular_path(a/M)`` adds (q_k : (-1)^(k+1) q_{k-1}) over the
        convergent denominators 1 = q_0 < q_1 < ... < q_n = M, and
        q_{n-1} = b; read from the top, they are the Euclid remainders of
        (M, b).  So one walk adds table[(x : y)] and steps x, y = y, x % y
        from (M : b) down to (1 : 0); the pairs at even distance from
        (1 : 0) take the factor ``sign``, as table[(c : -d)] = sign
        table[(c : d)] (Cremona 1997, ch. 2).  (1 : 0) itself is P^1 point
        1, as (1 : d) is point 1 + d for N > 1.

        A walk takes Euclid steps only while x >= _TAIL and reads the rest
        from the symbol's tail table (``_tail_tables``), fetched once per
        call.  A pair j steps above the last one stepped is d + j + 1 steps
        above (1 : 0), d that of the pair (x : y) the steps end at, so its
        factor is sign^(d + j + 2) = sign^d sign^j.
        """
        if M < 1:
            raise ValueError("modulus must be >= 1")
        space, table, sign = self.space, self.table, self.sign
        N, inv, index = space.N, space._inv, space.p1_index
        tail, odd = _tail_tables(self, M)
        values = []
        for b in starts:
            x, y = M, b
            acc = 0  # each entry times sign^j, j its distance from the latest pair
            while x >= _TAIL:
                u = inv[x % N]
                acc = sign * acc + (table[1 + y * u % N] if u else table[index(x, y)])
                x, y = y, x % y
            values.append(tail[x][y] + (sign * acc if odd[x][y] else acc))
        return values

    def value(self, r) -> int:
        """[r], brought to a/M with a <= M/2 by [r + 1] = [r] and [-r] = sign [r].

        a and M - a give the same start: the one of +-a^-1 mod M below M/2.
        """
        if r is None:
            return 0
        r = Fraction(r)
        M = r.denominator
        a = r.numerator % M
        b = pow(a, -1, M)
        v = self.walks(M, (min(b, M - b),))[0]
        return v if 2 * a <= M else self.sign * v

    def values_mod(self, M: int) -> dict[int, int]:
        """[a/M] for all units a mod M, in increasing order, in a new dict.

        Only a < M/2 is walked: [(M - a)/M] = [-a/M] = sign [a/M].
        """
        if M < 1:
            raise ValueError("modulus must be >= 1")
        if M <= 2:  # the one unit M - 1 is its own mirror
            return {M - 1: self.value(Fraction(M - 1, M))}
        low = [a for a in range(1, (M + 1) // 2) if gcd(a, M) == 1]
        half = self.walks(M, [min(b := pow(a, -1, M), M - b) for a in low])
        vals = half + [self.sign * v for v in reversed(half)]
        return dict(zip(low + [M - a for a in reversed(low)], vals))


# walks end in a table of the walks from (x : y), 1 <= y < x < _TAIL, one per symbol
_TAIL = 128

# (N, curve label, sign) -> (symbol, tail, odd) of the symbol last walked
_tail_cache: dict[tuple, tuple] = {}


def _tail_tables(sym: EigenSymbol, M: int) -> tuple[list, list]:
    """The symbol's (tail, odd) tables, with rows up to min(M, _TAIL - 1).

    For coprime 1 <= y < x < _TAIL, tail[x][y] is the walk from (x : y), and
    odd[x][y] is 1 when (x : y) is an odd number of steps above (1 : 0)
    (tail[1][0] = sign table[1], odd[1][0] = 0).  (x : y) is one step
    above (y : x % y), and the pairs at even distance take the factor
    sign, so tail[x][y] = table[(x : y)] (times sign if not odd[x][y]) +
    tail[y][x % y].  Rows are added on demand, so walks with small M
    build little.  A hit needs that very symbol (``is``), so no lookup
    hashes a table.
    """
    key = (sym.space.N, sym.curve_label, sym.sign)
    cached = _tail_cache.get(key)
    if not (cached and cached[0] is sym):
        cached = _tail_cache[key] = sym, [[], [sym.sign * sym.table[1]]], [[], bytearray(1)]
    _, tail, odd = cached
    table, sign, index = sym.table, sym.sign, sym.space.p1_index
    for x in range(len(tail), min(M + 1, _TAIL)):
        row, odd_row = [0] * x, bytearray(x)
        for y in range(1, x):
            if gcd(x, y) == 1:
                r = x % y
                odd_row[y] = 1 - odd[y][r]
                v = table[index(x, y)]
                row[y] = (v if odd_row[y] else sign * v) + tail[y][r]
        tail.append(row)
        odd.append(odd_row)
    return tail, odd


_Q = 2**31 - 1  # the eigen kernel's prime
_SLOT = 12  # bytes per packed entry: room for 2^34 products of two residues


def left_kernel_mod_q(rows: list[int], m: int, n: int) -> list[list[int]]:
    """Left kernel mod _Q of the first m of the n slots of packed rows: each
    row adds (_Q - x) times the pivot row of each column holding x, so a slot
    grows by < _Q^2 a pivot and the row is reduced once, to a pivot row (1 at
    its pivot) or, if its first m slots vanish, a kernel vector (the rest)."""
    mask, pivots, kernel = (1 << 8 * _SLOT) - 1, {}, []
    for row in rows:
        for c in sorted(pivots):
            if x := (row >> 8 * _SLOT * c & mask) % _Q:
                row += (_Q - x) * pivots[c]
        data = row.to_bytes(_SLOT * n, "little")
        vals = [int.from_bytes(data[i : i + _SLOT], "little") % _Q for i in range(0, len(data), _SLOT)]
        lead = next((c for c in range(m) if vals[c]), m)
        if lead == m:
            kernel.append(vals[m:])
            continue
        inv = pow(vals[lead], -1, _Q)
        data = b"".join((v * inv % _Q).to_bytes(_SLOT, "little") for v in vals)
        pivots[lead] = int.from_bytes(data, "little")
    return kernel


def _kernel_mod_q(space, free, reduction, eigenvalues) -> list[list[int]] | None:
    """Kernel mod _Q of the T_ell - a_ell read, on rows [T_ell - a | I] packed
    into ints; the next ell is read only while the kernel is wider than a line."""
    d, basis = len(free), None
    for ell, a in eigenvalues:
        rows = [1 << 8 * _SLOT * (d + t) for t in range(d)]
        for k, col in enumerate(space._images(heilbronn_matrices(ell), free, reduction, a)):
            for t, v in col.items():
                rows[t] += v % _Q << 8 * _SLOT * k
        if basis is not None:
            rows = [sum(x * row for x, row in zip(v, rows) if x) for v in basis]
        if len(basis := left_kernel_mod_q(rows, d, 2 * d)) <= 1:
            break
    return basis


def _exact_kernel(space, curve, free, reduction, eigenvalues):
    """Successive restriction over Q with ``left_kernel``, and the largest ell
    read: every (ell, a_ell) given cuts the space, and while it is wider than
    a line so do the good ell up to the Sturm bound [SL_2(Z):Gamma_0(N)]/6."""
    N, d, bound, read = space.N, len(free), GOOD_HECKE_BOUND, dict(eigenvalues)
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    sturm = [ell for ell in primes_up_to(index_gamma0(N) // 6) if ell > bound and N % ell]
    for ell in [*read, *sturm]:
        if ell > GOOD_HECKE_BOUND and len(basis) <= 1:
            break
        bound, a = max(bound, ell), (read[ell] if ell in read else curve.ap(ell))
        images = space._images(heilbronn_matrices(ell), free, reduction, a)
        image = [[sum(v[t] * x for t, x in col.items()) for col in images] for v in basis]
        basis = [_combine(ys, basis, [0] * d) for ys in left_kernel(image)]
    return basis, bound


def _lift(vec: list[int]) -> list[int] | None:
    """Integers = a multiple of vec mod _Q: each entry times the denominators
    before it is read as n/d with |n|, d <= sqrt(_Q/2) (Wang's reconstruction)."""
    den, out = 1, []
    for x in vec:
        r0, r1, s0, s1 = _Q, x * den % _Q, 0, 1
        while 2 * r1 * r1 > _Q:
            r0, r1, s0, s1 = r1, r0 % r1, s1, s0 - r0 // r1 * s1
        if 2 * s1 * s1 > _Q or gcd(r1, s1) != 1:
            return None
        out.append(Fraction(r1, s1 * den))
        den *= abs(s1)
    return [int(v * den) for v in out]


def _certified(space, free, table, eigenvalues) -> bool:
    """Whether sum_M table[x M] = a_ell table[x] for every free x and (ell, a_ell),
    M over ``heilbronn_matrices(ell)``."""
    N, inv, index, reps = space.N, space._inv, space.p1_index, space.p1_reps
    for ell, a in eigenvalues:
        mats = heilbronn_matrices(ell)
        for c, d in (reps[gen] for gen in free):
            total = 0
            for p, q, r, s in mats:
                x, y = c * p + d * r, c * q + d * s
                u = inv[x % N]
                total += table[1 + y * u % N] if u else table[index(x, y)]
            if total != a * table[index(c, d)]:
                return False
    return True


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
    ``NotNewformError``.  It is solved on the sign quotient mod _Q, lifted
    and certified: rank mod _Q <= rank over Q, so a lift that is an exact
    eigenvector for every good ell <= GOOD_HECKE_BOUND spans the eigenspace,
    and an empty kernel mod _Q is empty over Q; else it is solved over Q.
    Symbols are cached by the curve model and the a_ell read, not by label.
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
    free, reduction = space.sign_quotient(sign)
    basis, bound = _kernel_mod_q(space, free, reduction, eigenvalues), GOOD_HECKE_BOUND
    lift = _lift(basis[0]) if basis and len(basis) == 1 else None
    table = lift and [sum(lift[t] * v for t, v in row) for row in reduction]
    if not (table and _certified(space, free, table, eigenvalues)):
        if basis != []:
            basis, bound = _exact_kernel(space, curve, free, reduction, eigenvalues)
        if len(basis) != 1:
            raise NotNewformError(
                f"eigenspace for {curve.label} (sign {sign:+d}) has dimension "
                f"{len(basis)}: not new / ambiguous"
            )
        table = [sum(basis[0][t] * v for t, v in row) for row in reduction]
    content = gcd(*table)
    # sign normalization; [0]^+ is the entry at P^1 point 1 = (1 : 0)
    anchor = table[1] if sign == 1 else 0
    lead = next((table[j] for j in space.free_indices if table[j]), 1)
    if anchor < 0 or (anchor == 0 and lead < 0):
        content = -content
    sym = EigenSymbol(space, curve.label, sign, tuple(v // content for v in table), bound)
    if bound == GOOD_HECKE_BOUND:  # the a_ell read past it are not in the key
        _eigen_cache[key] = sym
    return sym


def eigen_pair(curve: CurveData) -> tuple[EigenSymbol, EigenSymbol]:
    space = build_space(curve.conductor)
    return eigen_symbol(space, curve, +1), eigen_symbol(space, curve, -1)


def calibrate_periods(eigen: EigenSymbol, curve: CurveData) -> Fraction:
    """Pin the rational scalar matching [0]^+ to the numeric L(E,1)/Omega^+.

    Returns lambda with lambda * [0]^+_integral = L(E,1)/Omega^+ to
    relative 1e-6, as a ratio of integers below 1e6; the caller applies it
    (``cli theta --mode calibrated`` prints lambda theta^+ + theta^-).
    A curve with L(E,1) = 0 leaves the scalar undetermined at r = 0 and
    raises ``CalibrationUndetermined``.
    """
    if eigen.sign != 1:
        raise CalibrationError("period calibration uses the + eigen-symbol")
    if curve.fricke_sign is None:
        raise CalibrationError("calibration needs the Fricke sign from the catalog")
    from .oracle import lvalue_and_period

    oracle = lvalue_and_period(curve)
    ratio = oracle.lvalue / oracle.omega_plus
    base = eigen.value(0)
    if abs(ratio) <= 1e-9:
        if base != 0:
            raise CalibrationError(
                f"numeric L-value vanishes but [0]^+ = {base} != 0 for {curve.label}"
            )
        raise CalibrationUndetermined("calibration undetermined at r=0")
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
