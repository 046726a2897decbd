"""Elementary number-theory helpers shared across the package.

Trial division, primitive roots, and the unit group of Z/mZ as a
product of cyclic factors: its generators and its exponent, from which
``groupring`` tabulates character values.  Moduli stay at desk scale (a
few thousand), so nothing asymptotically clever lives here.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, bound + 1, p))
    return [n for n in range(2, bound + 1) if flags[n]]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(x, p: int) -> int:
    """v_p(x) for a nonzero int or Fraction x and a prime p."""
    if x == 0:
        raise ValueError("the valuation of 0 is infinite")
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=None)
def units_mod(m: int) -> tuple[int, ...]:
    """Canonical list of units of Z/mZ; for m = 1 the single residue 0."""
    if m == 1:
        return (0,)
    return tuple(a for a in range(m) if gcd(a, m) == 1)


def multiplicative_order(a: int, m: int) -> int:
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order = euler_phi(m)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def is_primitive_root(a: int, ell: int) -> bool:
    """Whether a generates (Z/ell)^x for prime ell."""
    if a % ell == 0:
        return False
    return multiplicative_order(a % ell, ell) == ell - 1


@lru_cache(maxsize=None)
def smallest_primitive_root(ell: int) -> int:
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if ell == 2:
        return 1
    for a in range(2, ell):
        if is_primitive_root(a, ell):
            return a
    raise AssertionError("unreachable: every prime has a primitive root")


def _crt_lift(residue: int, q: int, m: int) -> int:
    """The unit mod m that is `residue` mod q and 1 mod m/q, for q || m."""
    rest = m // q
    if rest == 1:
        return residue % m
    inv = pow(q, -1, rest)
    # x = residue + q*t with q*t = 1 - residue (mod rest)
    t = (inv * (1 - residue)) % rest
    return (residue + q * t) % m


@lru_cache(maxsize=None)
def unit_group_generators(m: int) -> tuple[tuple[int, int], ...]:
    """Generators (g, order) of (Z/mZ)^x as a product of cyclic groups.

    Odd prime powers contribute one cyclic factor each; 2^e contributes
    none (e=1), <-1> (e=2), or <-1> x <5> (e>=3).  Every unit mod m is
    a unique product of generator powers within the listed orders.
    """
    if m == 1:
        return ()
    gens: list[tuple[int, int]] = []
    for p, e in sorted(factorize(m).items()):
        q = p**e
        if p == 2:
            if e == 1:
                continue
            gens.append((_crt_lift(q - 1, q, m), 2))
            if e >= 3:
                gens.append((_crt_lift(5, q, m), 2 ** (e - 2)))
        else:
            g = smallest_primitive_root(p)
            if e > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            gens.append((_crt_lift(g, q, m), euler_phi(q)))
    return tuple(gens)


@lru_cache(maxsize=None)
def unit_group_exponent(m: int) -> int:
    """Exponent of (Z/mZ)^x: the lcm of the orders of its generators."""
    return lcm(*(order for _, order in unit_group_generators(m)))
