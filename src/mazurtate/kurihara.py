"""Admissible primes, discrete logarithms, and Kurihara numbers.

An admissible prime at level k (for a curve and an odd prime p) is a
prime ell with (ell, Np) = 1, ell = 1 mod p^k and a_ell = ell + 1 mod
p^k.  For a squarefree product n of such primes the Kurihara number is

    delta_n = sum over units a mod n of [a/n]^+ prod_{ell | n}
              log_{eta_ell}(a mod ell)        (in Z/p^k),

with the discrete logs taken to the chosen primitive roots eta_ell and
reduced into Z/p^k through p^k | ell - 1.  Integral-normalized symbols
are used, so a global unit ambiguity multiplies the whole table and the
vanishing pattern is well defined; re-choosing primitive roots likewise
moves each value by a unit only.

``sieve_admissible`` returns the set with the curve, p and k of its
sieve; ``kurihara_number`` and ``nonvanishing_search`` read all three
from it.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import mul

from .curves import CurveData, DEFAULT_COUNT_BOUND
from .modsym import NotNewformError, build_space, eigen_symbol
from .nt import (
    factorize, is_prime, is_primitive_root, primes_up_to, smallest_primitive_root, valuation,
)
from .records import Record


class AdmissibilityError(ValueError):
    pass


class AdmissiblePrimeSet(Record):
    # curve: the CurveData sieved; eta: ell -> chosen primitive root
    __slots__ = ("curve", "p", "k", "bound", "primes", "eta")

    def __contains__(self, ell: int) -> bool:
        return ell in self.primes

    def with_roots(self, eta: dict[int, int]) -> "AdmissiblePrimeSet":
        for ell, root in eta.items():
            if ell not in self.primes:
                raise AdmissibilityError(f"{ell} is not in the admissible set")
            if not is_primitive_root(root, ell):
                raise AdmissibilityError(f"{root} is not a primitive root mod {ell}")
        return self._replace(primes=list(self.primes), eta=self.eta | eta)


def _admissible(curve: CurveData, ell: int, p: int, pk: int) -> bool:
    """For a prime ell: (ell, Np) = 1, ell = 1 mod p^k and a_ell = ell + 1 mod p^k."""
    return (
        (curve.conductor * p) % ell != 0
        and (ell - 1) % pk == 0
        and (curve.ap(ell) - ell - 1) % pk == 0
    )


def sieve_admissible(curve: CurveData, p: int, k: int, bound: int) -> AdmissiblePrimeSet:
    """All admissible primes <= bound, each with its smallest primitive root.

    Bound 0 gives the empty set; a negative bound is refused.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if bound < 0:
        raise AdmissibilityError(f"bound must be >= 0, got {bound}")
    if bound > DEFAULT_COUNT_BOUND:
        raise AdmissibilityError(
            f"bound {bound} exceeds the point-counting limit {DEFAULT_COUNT_BOUND}"
        )
    if k < 1:
        raise AdmissibilityError(f"precision exponent k must be >= 1, got {k}")
    pk = p**k
    primes = []
    eta = {}
    for ell in primes_up_to(bound):
        if _admissible(curve, ell, p, pk):
            primes.append(ell)
            eta[ell] = smallest_primitive_root(ell)
    return AdmissiblePrimeSet(curve, p, k, bound, primes, eta)


class KuriharaNumber(Record):
    # value: delta_n mod p^k, in [0, p^k)
    # ideal_valuation: v_p of I_n = prod (ell-1, 1 - a_ell + ell)
    __slots__ = ("n", "p", "k", "value", "ideal_valuation")

    @property
    def vanishes(self) -> bool:
        return self.value == 0


def ideal_valuation(curve: CurveData, n: int, p: int) -> int:
    """v_p of the product over ell | n of gcd-ideals (ell - 1, 1 - a_ell + ell)."""
    # 1 - a_ell + ell counts the points of E mod ell, the origin among them,
    # so neither generator is 0
    total = 0
    for ell in factorize(n):
        total += min(valuation(ell - 1, p), valuation(1 - curve.ap(ell) + ell, p))
    return total


# the weights W(c) are built for this many c at a time, so no list in
# kurihara_number is longer than one block plus twice the largest ell | n
_WEIGHT_BLOCK = 4096


def kurihara_number(prime_set: AdmissiblePrimeSet, n: int) -> KuriharaNumber:
    """delta_n in Z/p^k for a squarefree product n of admissible primes.

    The curve, p and k are those of ``prime_set``'s sieve, and each
    ell | n must be in the set and admissible for its curve at p^k.  n = 1
    gives [0]^+ mod p^k (the empty product of logs is 1).  For n > 1 the sum
    is indexed by where each walk starts, not by a.  Let
    W(c) = prod_{ell | n} log_ell(c) mod p^k and nu = nu(n).  On an
    admissible ell, p^k is odd and divides ell - 1, so log(-1) =
    (ell - 1)/2 = 0 mod p^k and W(n - c) = W(c); and log(c^-1) = -log(c),
    so W(c^-1) = (-1)^nu W(c).  [n - a] = sign [a] pairs a < n/2 with
    n - a, and [a/n] is the Euclid walk from (n : c), where c < n/2 is
    the one of +-a^-1 (``EigenSymbol.walks``), with W(a) = (-1)^nu W(c);
    a <-> c permutes the units below n/2.  The + symbol has sign 1, hence

        delta_n = 2 (-1)^nu sum_{units c < n/2} W(c) walk(n, c),

    with no modular inverse and one log product per c.  A non-unit c has
    a zero log, so only the c with W(c) != 0 mod p^k are walked, in one
    ``EigenSymbol.walks`` call per block: a walk takes Euclid steps only
    while its larger entry is >= 128 and reads the rest from the symbol's
    tail table, built once per symbol.
    """
    curve, p, k = prime_set.curve, prime_set.p, prime_set.k
    pk = p**k
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        raise AdmissibilityError(f"n = {n} is not squarefree")
    factors = sorted(fac)
    for ell in factors:
        if ell not in prime_set or not _admissible(curve, ell, p, pk):
            raise AdmissibilityError(
                f"{ell} is not an admissible prime of the set for {curve.label}"
                f" at p = {p}, k = {k}"
            )
    plus = eigen_symbol(build_space(curve.conductor), curve, +1)
    if n == 1:
        return KuriharaNumber(n=1, p=p, k=k, value=plus.value(0) % pk, ideal_valuation=0)
    # per-prime log tables reduced into Z/p^k, each repeated so that
    # tile[c % ell + i] = log_ell(c + i) for i < _WEIGHT_BLOCK
    tiles = []
    for ell in factors:
        eta = prime_set.eta[ell]
        table = [0] * ell
        cur = 1
        for x in range(ell - 1):
            table[cur] = x % pk
            cur = (cur * eta) % ell
        tiles.append((ell, table * (_WEIGHT_BLOCK // ell + 2)))
    total, end = 0, (n + 1) // 2
    for start in range(1, end, _WEIGHT_BLOCK):
        stop = min(start + _WEIGHT_BLOCK, end)
        weights = None
        for ell, tile in tiles:
            logs = tile[start % ell : start % ell + stop - start]
            weights = logs if weights is None else [w * x % pk for w, x in zip(weights, logs)]
        starts = compress(range(start, stop), weights)
        total += sum(map(mul, filter(None, weights), plus.walks(n, starts)))
    value = 2 * (-1) ** len(factors) * total % pk
    return KuriharaNumber(n=n, p=p, k=k, value=value, ideal_valuation=ideal_valuation(curve, n, p))


class SearchRow(Record):
    # value: delta_n mod p^k, as in KuriharaNumber
    __slots__ = ("n", "factors", "value", "unit_class", "vanishes")


class NonvanishingTable(Record):
    __slots__ = ("curve_label", "p", "k", "bound", "max_factors", "rows", "found_nonvanishing")

    def summary(self) -> str:
        verdict = (
            "nontrivial: some delta_n != 0"
            if self.found_nonvanishing
            else "all delta_n computed vanish"
        )
        return (
            f"{self.curve_label}, p={self.p}, k={self.k}, nu(n) <= "
            f"{self.max_factors}, primes <= {self.bound}: {verdict}"
        )


def root_number(curve: CurveData) -> int:
    """The sign epsilon with [a/M]^+ = epsilon [(N a)^-1/M]^+ for every M prime to N.

    Read from the curve's own + symbol at M = 2, 3, ... prime to N: the
    first M at which exactly one sign fits every unit fixes it; a symbol
    that is zero mod M fits both, and one that fits neither is refused.
    epsilon is the root number of L(E, s), minus the Fricke eigenvalue
    (Mazur-Tate 1987).  Some M has a nonzero [a/M]^+, since almost every
    twist L(E, chi, 1) is nonzero (Rohrlich 1984), so the walk ends.
    """
    plus = eigen_symbol(build_space(curve.conductor), curve, +1)
    N, M = curve.conductor, 1
    while True:
        M += 1
        if gcd(M, N) > 1:
            continue
        values = plus.values_mod(M)
        fits = [
            s for s in (1, -1)
            if all(v == s * values[pow(N * a, -1, M)] for a, v in values.items())
        ]
        if len(fits) == 1:
            return fits[0]
        if not fits:
            raise NotNewformError(
                f"the + symbol of {curve.label} satisfies no functional equation mod {M}"
            )


def nonvanishing_search(prime_set: AdmissiblePrimeSet, max_factors: int) -> NonvanishingTable:
    """Exhaustive delta_n table over squarefree n with at most max_factors
    factors from ``prime_set``, whose sieve bound the table reports.

    A row with (-1)^nu(n) != epsilon (``root_number``) is written as 0
    without evaluating delta_n, because there delta_n = 0 mod p^k.  Write
    [b/m] for [b/m]^+ and, for a set S of primes dividing m, D_S(m) =
    sum_{units b mod m} [b/m] prod_{ell in S} log_ell(b), so that delta_n =
    D_S(n) with S all of primes(n).  Each ell in the set is admissible for
    its curve at (p, k), checked here.

    * log_ell(-1) = (ell - 1)/2 = 0 mod p^k, as p^k is odd and divides
      ell - 1.
    * D_S(m) = 0 mod p^k for every S strictly inside primes(m), by
      induction on m.  Take ell | m outside S.  f = prod_S log depends on
      b mod m/ell only, and summing [b/m] over the b above c mod m/ell is
      the norm relation pi(theta_m) = (a_ell - sigma_ell - sigma_ell^-1)
      theta_{m/ell} (Mazur-Tate 1987).  So D_S(m) = sum_c [c/(m/ell)]
      (a_ell f(c) - f(ell c) - f(ell^-1 c)).  With a_ell = 2 mod p^k and
      log(ell^+-1 c) = log c +- log ell, the T = S terms cancel and what
      is left is a combination of D_T(m/ell), T strictly inside S, which
      vanish by induction.
    * b -> (N b)^-1 permutes the units mod n and [(N b)^-1/n] = epsilon
      [b/n]; log((N b)^-1) = -log b - log N (the sign of the substitution
      does not matter, as log(-1) = 0).  Expanding the product over ell |
      n, every term but -log b at every ell is a D_S(n) with S strictly
      inside primes(n), so delta_n = epsilon (-1)^nu delta_n mod p^k, and
      p is odd.  For n = 1 this is [0]^+ = epsilon [0]^+.
    """
    if max_factors < 0:
        raise AdmissibilityError(f"max_factors must be >= 0, got {max_factors}")
    curve, p, k = prime_set.curve, prime_set.p, prime_set.k
    pk = p**k
    for ell in prime_set.primes:
        if not (is_prime(ell) and _admissible(curve, ell, p, pk)):
            raise AdmissibilityError(f"{ell} is not admissible for {curve.label} at p = {p}, k = {k}")
    epsilon = root_number(curve)
    rows: list[SearchRow] = []

    def emit(n: int, factors: tuple[int, ...]):
        if (-1) ** len(factors) == epsilon:
            value = kurihara_number(prime_set, n).value
        else:
            value = 0
        v = valuation(value, p) if value else None
        unit_class = "0" if v is None else ("unit" if v == 0 else f"p^{v} * unit")
        rows.append(SearchRow(n, factors, value, unit_class, value == 0))

    def extend(start: int, n: int, factors: tuple[int, ...], depth: int):
        if depth == 0:
            return
        for i in range(start, len(prime_set.primes)):
            ell = prime_set.primes[i]
            emit(n * ell, factors + (ell,))
            extend(i + 1, n * ell, factors + (ell,), depth - 1)

    emit(1, ())
    extend(0, 1, (), max_factors)
    found = any(not r.vanishes for r in rows)
    return NonvanishingTable(
        curve.label, p, k, prime_set.bound, max_factors, rows, found
    )
