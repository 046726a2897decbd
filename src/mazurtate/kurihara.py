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
"""

from __future__ import annotations

from .curves import CurveData, DEFAULT_COUNT_BOUND
from .modsym import EigenSymbol, build_space, eigen_symbol
from .nt import factorize, is_prime, is_primitive_root, primes_up_to, smallest_primitive_root
from .records import Record


class AdmissibilityError(ValueError):
    pass


def _precision_modulus(p: int, k: int) -> int:
    if k < 1:
        raise AdmissibilityError(f"precision exponent k must be >= 1, got {k}")
    return p**k


class AdmissiblePrimeSet(Record):
    # eta: ell -> chosen primitive root
    __slots__ = ("curve_label", "p", "k", "bound", "primes", "eta")

    def __contains__(self, ell: int) -> bool:
        return ell in self.eta

    def with_roots(self, eta: dict[int, int]) -> "AdmissiblePrimeSet":
        for ell, root in eta.items():
            if not is_primitive_root(root, ell):
                raise AdmissibilityError(f"{root} is not a primitive root mod {ell}")
        merged = dict(self.eta)
        merged.update(eta)
        return AdmissiblePrimeSet(
            self.curve_label, self.p, self.k, self.bound, list(self.primes), merged
        )


def sieve_admissible(
    curve: CurveData, p: int, k: int, bound: int, count_bound: int = DEFAULT_COUNT_BOUND
) -> AdmissiblePrimeSet:
    """All admissible primes <= bound, each with its smallest primitive root.

    Bound 0 gives the empty set; a negative bound is refused.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if bound < 0:
        raise AdmissibilityError(f"bound must be >= 0, got {bound}")
    if bound > count_bound:
        raise AdmissibilityError(
            f"bound {bound} exceeds the point-counting limit {count_bound}"
        )
    pk = _precision_modulus(p, k)
    primes = []
    eta = {}
    for ell in primes_up_to(bound):
        if curve.conductor % ell == 0 or ell == p:
            continue
        if (ell - 1) % pk != 0:
            continue
        a_ell = curve.ap(ell, count_bound)
        if (a_ell - ell - 1) % pk != 0:
            continue
        primes.append(ell)
        eta[ell] = smallest_primitive_root(ell)
    return AdmissiblePrimeSet(curve.label, p, k, bound, primes, eta)


class KuriharaNumber(Record):
    # value: delta_n mod p^k, in [0, p^k)
    # ideal_valuation: v_p of I_n = prod (ell-1, 1 - a_ell + ell)
    __slots__ = ("n", "p", "k", "value", "ideal_valuation")

    @property
    def vanishes(self) -> bool:
        return self.value == 0


def _vp(x: int, p: int) -> int:
    if x == 0:
        return 10**9
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def ideal_valuation(curve: CurveData, n: int, p: int) -> int:
    """v_p of the product over ell | n of gcd-ideals (ell - 1, 1 - a_ell + ell)."""
    total = 0
    for ell in factorize(n):
        total += min(_vp(ell - 1, p), _vp(1 - curve.ap(ell) + ell, p))
    return total


# the weights W(c) are built for this many c at a time, so no list in
# kurihara_number is longer than one block plus twice the largest ell | n
_WEIGHT_BLOCK = 4096


def kurihara_number(
    curve: CurveData,
    n: int,
    p: int,
    k: int,
    prime_set: AdmissiblePrimeSet,
    plus_symbol: EigenSymbol | None = None,
) -> KuriharaNumber:
    """delta_n in Z/p^k for a squarefree product n of admissible primes.

    n = 1 gives [0]^+ mod p^k (the empty product of logs is 1).  For
    n > 1 the sum is indexed by where each walk starts, not by a.  Let
    W(c) = prod_{ell | n} log_ell(c) mod p^k and nu = nu(n).  On an
    admissible ell, p^k is odd and divides ell - 1, so log(-1) =
    (ell - 1)/2 = 0 mod p^k and W(n - c) = W(c); and log(c^-1) = -log(c),
    so W(c^-1) = (-1)^nu W(c).  [n - a] = sign [a] pairs a < n/2 with
    n - a, and [a/n] is the Euclid walk from (n : c), where c < n/2 is
    the one of +-a^-1 (``EigenSymbol.walk``), with W(a) = (-1)^nu W(c);
    a <-> c permutes the units below n/2.  Hence

        delta_n = (1 + sign) (-1)^nu sum_{units c < n/2} W(c) walk(n, c),

    with no modular inverse and one log product per c.  A non-unit c has
    a zero log, so only the c with W(c) != 0 mod p^k are walked.
    """
    pk = _precision_modulus(p, k)
    if n == 1:
        factors: list[int] = []
    else:
        fac = factorize(n)
        if any(e > 1 for e in fac.values()):
            raise AdmissibilityError(f"n = {n} is not squarefree")
        factors = sorted(fac)
        for ell in factors:
            if ell not in prime_set:
                raise AdmissibilityError(
                    f"{ell} is not in the admissible set for {curve.label}"
                )
    if plus_symbol is None:
        plus_symbol = eigen_symbol(build_space(curve.conductor), curve, +1)
    if plus_symbol.scaling_mode != "integral-normalized":
        raise AdmissibilityError("Kurihara numbers use integral-normalized symbols")
    if n == 1:
        return KuriharaNumber(n=1, p=p, k=k, value=plus_symbol.walk(1, 0) % pk, ideal_valuation=0)
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
    walk = plus_symbol.walk
    scale = (1 + plus_symbol.sign) * (-1) ** len(factors)
    end = (n + 1) // 2 if scale else 1  # 1 + sign = 0: a minus symbol walks nothing
    total = 0
    for start in range(1, end, _WEIGHT_BLOCK):
        stop = min(start + _WEIGHT_BLOCK, end)
        weights = None
        for ell, tile in tiles:
            logs = tile[start % ell : start % ell + stop - start]
            weights = logs if weights is None else [w * x % pk for w, x in zip(weights, logs)]
        for c, w in zip(range(start, stop), weights):
            if w:
                total += w * walk(n, c)
    return KuriharaNumber(
        n=n, p=p, k=k, value=scale * total % pk, ideal_valuation=ideal_valuation(curve, n, p)
    )


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


def nonvanishing_search(
    curve: CurveData,
    p: int,
    k: int,
    max_factors: int,
    bound: int,
    prime_set: AdmissiblePrimeSet | None = None,
) -> NonvanishingTable:
    """Exhaustive delta_n table over squarefree n with at most max_factors factors."""
    if max_factors < 0:
        raise AdmissibilityError(f"max_factors must be >= 0, got {max_factors}")
    if prime_set is None:
        prime_set = sieve_admissible(curve, p, k, bound)
    plus = eigen_symbol(build_space(curve.conductor), curve, +1)
    rows: list[SearchRow] = []

    def emit(n: int, factors: tuple[int, ...]):
        num = kurihara_number(curve, n, p, k, prime_set, plus)
        res = num.value
        unit_class = "0" if res == 0 else ("unit" if res % p != 0 else f"p^{_vp(res, p)} * unit")
        rows.append(SearchRow(n, factors, num.value, unit_class, num.vanishes))

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
        curve.label, p, k, bound, max_factors, rows, found
    )
