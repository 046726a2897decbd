"""Reference constructions for the modular symbol space, used only by tests.

The orbit enumeration of P^1(Z/N), the elimination of all 2- and 3-term
Manin relations at once over ``Fraction``, and dense Hecke matrices built
from dense reduction vectors, acting through Merel's matrices of any
determinant.  They are quadratic in N and slow, and they are the oracles
``ModularSymbolSpace`` is checked against.  The eigen
kernel by exact successive restriction on the full space, with dense star
and Hecke matrices, is the oracle for ``eigen_symbol``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from mazurtate.modsym import GOOD_HECKE_BOUND, EigenSymbol, left_kernel
from mazurtate.nt import primes_up_to, units_mod


def p1_valid(space, c: int, d: int) -> bool:
    """Whether (c : d) is a point of P^1(Z/N), N the level of ``space``."""
    return gcd(c, d, space.N) == 1


def orbit_p1(N: int):
    """P^1(Z/N) by enumerating unit orbits: (sorted reps, {(c, d): index})."""
    units = units_mod(N) if N > 1 else (1,)
    rep_of: dict[tuple[int, int], tuple[int, int]] = {}
    reps: list[tuple[int, int]] = []
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) != 1 or (c, d) in rep_of:
                continue
            orbit = {((u * c) % N, (u * d) % N) for u in units}
            rep = min(orbit)
            for x in orbit:
                rep_of[x] = rep
            reps.append(rep)
    reps.sort()
    index = {rep: i for i, rep in enumerate(reps)}
    return reps, {pair: index[rep] for pair, rep in rep_of.items()}


def orbit_min(N: int, c: int, d: int) -> tuple[int, int]:
    """Least element of the unit orbit of (c : d), by brute force."""
    units = units_mod(N) if N > 1 else (1,)
    return min(((u * c) % N, (u * d) % N) for u in units)


def _reduce_row(row: dict, pivots: dict) -> dict:
    while True:
        hit = [c for c in row if c in pivots]
        if not hit:
            return row
        for c in hit:
            coeff = row.pop(c)
            for j, v in pivots[c].items():
                if j != c:
                    row[j] = row.get(j, Fraction(0)) - coeff * v
                    if row[j] == 0:
                        del row[j]


def fraction_rref(rows: list[dict]) -> dict[int, dict]:
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
                    if j != c:
                        prow[j] = prow.get(j, Fraction(0)) - coeff * v
                        if prow[j] == 0:
                            del prow[j]
        pivots[c] = row
    return pivots


class OracleSpace:
    """The symbol space from every Manin relation, with dense Fraction rows."""

    def __init__(self, N: int):
        self.N = N
        self.p1_reps, self._index = orbit_p1(N)
        n = len(self.p1_reps)
        rows, seen = [], set()
        for i, (c, d) in enumerate(self.p1_reps):
            for rel in ((i, self.p1_index(d, -c)),
                        (i, self.p1_index(d, -c - d), self.p1_index(-c - d, c))):
                key = tuple(sorted(rel))
                if key not in seen:
                    seen.add(key)
                    row: dict[int, Fraction] = {}
                    for t in rel:
                        row[t] = row.get(t, Fraction(0)) + 1
                    rows.append(row)
        pivots = fraction_rref(rows)
        self.free_indices = [j for j in range(n) if j not in pivots]
        self.dimension = len(self.free_indices)
        pos_of = {j: k for k, j in enumerate(self.free_indices)}
        self.reduction = []
        for i in range(n):
            vec = [Fraction(0)] * self.dimension
            if i in pivots:
                for j, v in pivots[i].items():
                    if j != i:
                        vec[pos_of[j]] -= v
            else:
                vec[pos_of[i]] = Fraction(1)
            self.reduction.append(tuple(vec))

    def p1_index(self, c: int, d: int) -> int:
        return self._index[c % self.N, d % self.N]

    def right_action_matrix(self, mats) -> list[list[Fraction]]:
        dim = self.dimension
        nonzero = [[(t, v) for t, v in enumerate(red) if v] for red in self.reduction]
        cols = []
        for gen_idx in self.free_indices:
            c, d = self.p1_reps[gen_idx]
            col = [Fraction(0)] * dim
            for p, q, r, s in mats:
                for t, v in nonzero[self.p1_index(c * p + d * r, c * q + d * s)]:
                    col[t] += v
            cols.append(col)
        return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def merel_matrices(n: int):
    """Merel's right-coset matrices of determinant n acting on Manin symbols
    (Merel 1994); for a prime n they give T_n as ``heilbronn_matrices`` does."""
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


def dense(row, dim: int) -> tuple:
    """A sparse reduction row as a dense coordinate tuple."""
    vec = [0] * dim
    for t, v in row:
        vec[t] += v
    return tuple(vec)


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def vec_mat(v, m):
    n = len(v)
    return [sum(v[i] * m[i][j] for i in range(n)) for j in range(n)]


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


def oracle_eigen_symbol(space, curve, sign) -> tuple[tuple, tuple]:
    """(vector, table) of the eigen-symbol from ``_eigen_kernel`` on the full space.

    The kernel must be a line; its value table is scaled to Z with content
    1 and signed by [0]^+ >= 0 (+) or a positive first coordinate.
    """
    good = [ell for ell in primes_up_to(GOOD_HECKE_BOUND) if space.N % ell]
    (vec,) = _eigen_kernel(space, sign, [(ell, curve.ap(ell)) for ell in good])
    values = [sum(vec[t] * v for t, v in red) for red in space.reduction]
    den = lcm(*(Fraction(v).denominator for v in values))
    ints = [int(v * den) for v in values]
    content = gcd(*ints)
    vec = tuple(Fraction(v * den, content) for v in vec)
    table = tuple(v // content for v in ints)
    anchor = EigenSymbol(space, curve.label, sign, table).value(0) if sign == 1 else 0
    if anchor < 0 or (anchor == 0 and next(v for v in vec if v) < 0):
        vec, table = tuple(-v for v in vec), tuple(-v for v in table)
    return vec, table
