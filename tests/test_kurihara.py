import functools
import random
import tracemalloc
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazurtate.curves import curve_by_label
from mazurtate.kurihara import (
    AdmissibilityError,
    ideal_valuation,
    kurihara_number,
    nonvanishing_search,
    sieve_admissible,
)
from mazurtate.nt import is_primitive_root
from mazurtate.theta import eigen_pair

# regression fixture: first computed by the full sieve + search run,
# statuses invariant under primitive-root re-choice
ADMISSIBLE_37A1_P3 = [
    7, 31, 43, 67, 73, 109, 157, 181, 199, 211, 241, 271, 337, 367, 373, 409, 463,
]
VANISHING_37A1_P3 = {1, 43, 157, 337}


@pytest.fixture(scope="module")
def aset37(c37):
    return sieve_admissible(c37, 3, 1, 500)


@pytest.fixture(scope="module")
def aset11(c11):
    return sieve_admissible(c11, 3, 1, 500)


def test_sieve_rejects_7_for_11a1(c11, aset11):
    # a_7(11a1) = -2 = 1 mod 3 while ell + 1 = 8 = 2 mod 3
    assert c11.ap(7) == -2
    assert 7 not in aset11.eta


def test_sieve_congruence_by_construction(aset37):
    for ell in aset37.primes:
        assert (ell - 1) % 3 == 0
        assert is_primitive_root(aset37.eta[ell], ell)


def test_sieve_37a1_nonempty_and_frozen(aset37):
    assert aset37.primes == ADMISSIBLE_37A1_P3


def test_sieve_bound_check(c37):
    with pytest.raises(AdmissibilityError, match="bound"):
        sieve_admissible(c37, 3, 1, 10**6)


@pytest.mark.parametrize("k", [0, -1])
def test_precision_exponent_below_one_is_refused(c37, aset37, k):
    # p^0 = 1 and p^-1 = 1/3 would give '0 mod 1' rows that all "vanish"
    with pytest.raises(AdmissibilityError, match="k must be >= 1"):
        sieve_admissible(c37, 3, k, 50)
    with pytest.raises(AdmissibilityError, match="k must be >= 1"):
        kurihara_number(c37, 7, 3, k, aset37)
    with pytest.raises(AdmissibilityError, match="k must be >= 1"):
        nonvanishing_search(c37, 3, k, 2, 50, aset37)


def test_negative_max_factors_is_refused(c37):
    # a negative depth never reached 0: the search walked every subset
    with pytest.raises(AdmissibilityError, match="max_factors"):
        nonvanishing_search(c37, 3, 1, -1, 20)


def test_discrete_log_examples():
    assert discrete_log(7, 3, 4) == 4  # mod 6
    assert pow(3, 4, 7) == 4  # exhaustive witness
    assert discrete_log(101, 2, 1) == 0  # mod 100
    assert discrete_log(101, 2, 2) == 1


def test_discrete_log_bsgs_matches_brute_force():
    ell, eta = 163, 2
    assert is_primitive_root(eta, ell)
    powers = {pow(eta, x, ell): x for x in range(ell - 1)}
    for a in (5, 77, 122, 162):
        assert discrete_log(ell, eta, a) == powers[a]


def test_discrete_log_rejects_bad_inputs():
    with pytest.raises(ValueError):
        discrete_log(7, 3, 0)
    with pytest.raises(ValueError, match="primitive"):
        discrete_log(7, 2, 3)


def test_kurihara_number_n1(c37, c11, aset37, aset11):
    assert kurihara_number(c37, 1, 3, 1, aset37).value == 0
    d = kurihara_number(c11, 1, 3, 1, aset11)
    from mazurtate.theta import eigen_pair

    assert d.value == eigen_pair(c11)[0].value(0) % 3


def test_kurihara_number_validations(c37, aset37):
    with pytest.raises(AdmissibilityError, match="squarefree"):
        kurihara_number(c37, 49, 3, 1, aset37)
    with pytest.raises(AdmissibilityError, match="admissible"):
        kurihara_number(c37, 11, 3, 1, aset37)


def test_ideal_valuation(c37):
    # I_7 = (6, 1 - a_7 + 7): a_7(37a1) = -1, so (6, 9) has v_3 = 1
    assert c37.ap(7) == -1
    assert ideal_valuation(c37, 7, 3) == 1


def test_nonvanishing_table_regression(c37, aset37):
    table = nonvanishing_search(c37, 3, 1, 1, 500, aset37)
    assert table.found_nonvanishing
    got_vanishing = {r.n for r in table.rows if r.vanishes}
    assert got_vanishing == VANISHING_37A1_P3
    # nu = 0 row equals kurihara_number(n=1)
    row0 = next(r for r in table.rows if r.n == 1)
    assert row0.value == kurihara_number(c37, 1, 3, 1, aset37).value
    # determinism under a fixed prime set
    again = nonvanishing_search(c37, 3, 1, 1, 500, aset37)
    assert [(r.n, r.value) for r in again.rows] == [
        (r.n, r.value) for r in table.rows
    ]


def test_vanishing_invariant_under_root_rechoice(c37, aset37):
    rng = random.Random(2024)
    base = {r.n: r.vanishes for r in nonvanishing_search(c37, 3, 1, 1, 500, aset37).rows}
    for _ in range(3):
        eta = {}
        for ell in aset37.primes:
            roots = [x for x in range(2, ell) if is_primitive_root(x, ell)]
            eta[ell] = rng.choice(roots)
        redone = nonvanishing_search(
            c37, 3, 1, 1, 500, aset37.with_roots(eta)
        )
        assert {r.n: r.vanishes for r in redone.rows} == base


def test_composite_n_two_factors(c37, aset37):
    # nu(n) = 2 rows: the product-of-logs weighting over a genuinely
    # composite conductor, re-choice invariance included
    small = aset37.primes[:3]
    rng = random.Random(99)
    values = {}
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            n = small[i] * small[j]
            values[n] = kurihara_number(c37, n, 3, 1, aset37).value
    assert values  # three pairs
    eta = {
        ell: rng.choice([x for x in range(2, ell) if is_primitive_root(x, ell)])
        for ell in aset37.primes
    }
    rechosen = aset37.with_roots(eta)
    for n, v in values.items():
        again = kurihara_number(c37, n, 3, 1, rechosen).value
        assert (again == 0) == (v == 0)


def test_precision_compatibility(c37):
    # reduce from k = 2 to k = 1 agrees with direct computation at k = 1
    aset2 = sieve_admissible(c37, 3, 2, 500)
    assert aset2.primes == [109, 199]  # level-2 subset of the level-1 set
    for n in aset2.primes:
        d2 = kurihara_number(c37, n, 3, 2, aset2)
        aset1 = sieve_admissible(c37, 3, 1, 500).with_roots(aset2.eta)
        d1 = kurihara_number(c37, n, 3, 1, aset1)
        assert d2.value % 3 == d1.value


class _ShiftedValues:
    """Symbol stub whose values at denominator ell are shifted by a constant.

    A constant shift is a full sigma-orbit move; it pairs with the logs to
    c * sum_a log(a) = c (ell-1)(ell-2)/2 = 0 mod p^k on admissible primes,
    so delta_ell must not see it.
    """

    scaling_mode = "integral-normalized"

    def __init__(self, base, shift):
        self.base = base
        self.shift = shift
        self.sign = base.sign

    def half_value(self, a, n):
        return self.base.half_value(a, n) + self.shift

    def walk(self, n, c):
        return self.base.walk(n, c) + self.shift


def test_well_definedness_under_constant_shift(c11, aset11):
    from mazurtate.theta import eigen_pair

    plus = eigen_pair(c11)[0]
    for ell in aset11.primes[:3]:
        # annihilation witness: the full log-orbit sum vanishes mod p^k
        assert (ell - 1) * (ell - 2) // 2 % 3 == 0
        d_orig = kurihara_number(c11, ell, 3, 1, aset11, plus)
        for shift in (1, 7, -4):
            d_shift = kurihara_number(
                c11, ell, 3, 1, aset11, _ShiftedValues(plus, shift)
            )
            assert d_shift.value == d_orig.value


def test_search_keeps_no_per_modulus_state(c37):
    # the search reads each modulus once: no symbol memo and no units_mod
    # cache entry per modulus may outlive it
    from mazurtate.modsym import EigenSymbol
    from mazurtate.nt import units_mod
    from mazurtate.theta import eigen_pair

    before = units_mod.cache_info().currsize
    table = nonvanishing_search(c37, 3, 1, 2, 170)
    assert len(table.rows) == 29
    assert units_mod.cache_info().currsize == before
    assert "_values" not in EigenSymbol.__slots__
    plus = eigen_pair(c37)[0]
    assert plus.values_mod(7) == plus.values_mod(7)
    assert plus.values_mod(7) is not plus.values_mod(7)


def discrete_log(ell: int, eta: int, a: int) -> int:
    """x in [0, ell - 1) with eta^x = a mod ell, by baby-step giant-step.

    Only tests call it: its own three, and the log(-1) identity below,
    which reads a log independently of the tables that ``kurihara_number``
    and ``_delta_by_definition`` tabulate.
    """
    if a % ell == 0:
        raise ValueError(f"{a} is divisible by {ell}")
    if not is_primitive_root(eta, ell):
        raise ValueError(f"{eta} is not a primitive root mod {ell}")
    a %= ell
    order = ell - 1
    m = isqrt(order) + 1
    table = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = (cur * eta) % ell
    giant = pow(eta, -m, ell)
    cur = a
    for i in range(m + 1):
        if cur in table:
            return (i * m + table[cur]) % order
        cur = (cur * giant) % ell
    raise AssertionError("BSGS must find a logarithm for a primitive root")


def _delta_by_definition(plus, n, pk, prime_set):
    """delta_n straight from its definition: every unit, every log."""
    factors = [ell for ell in prime_set.primes if n % ell == 0]
    logs = {
        ell: {pow(prime_set.eta[ell], x, ell): x for x in range(ell - 1)} for ell in factors
    }
    total = 0
    for a, v in plus.values_mod(n).items():
        for ell in factors:
            v *= logs[ell][a % ell]
        total += v
    return total % pk


@functools.cache
def _prime_set(label, p, k):
    return sieve_admissible(curve_by_label(label), p, k, 1000)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["11a1", "37a1", "389a1"]),
    st.sampled_from([3, 5]),
    st.sampled_from([1, 2]),
    st.lists(st.integers(0, 99), max_size=3, unique=True),
)
@example("11a1", 3, 1, [])
@example("37a1", 3, 2, [])
@example("37a1", 3, 2, [0, 1])
@example("11a1", 3, 1, [6, 7])
@example("37a1", 5, 1, [0])
@example("389a1", 3, 1, [0, 1, 2])
@example("389a1", 3, 2, [0, 1, 2])
@example("11a1", 5, 2, [0, 1, 2])
def test_kurihara_number_matches_the_definition(label, p, k, picks):
    # the sum over walk starts c with weight W(c), and its (1 + sign)
    # (-1)^nu factor, must not move delta_n; n is 1 or a product of at
    # most three distinct admissible primes, a prime that would take n
    # past 200,000 left out so that the definition's values_mod stays fast
    curve = curve_by_label(label)
    prime_set = _prime_set(label, p, k)
    primes = prime_set.primes
    n = 1
    for ell in sorted({primes[i % len(primes)] for i in picks} if primes else ()):
        if n * ell <= 200_000:
            n *= ell
    plus = eigen_pair(curve)[0]
    delta = kurihara_number(curve, n, p, k, prime_set, plus)
    assert delta.value == _delta_by_definition(plus, n, p**k, prime_set)


def _rechosen(prime_set, seed):
    rng = random.Random(seed)
    return prime_set.with_roots(
        {
            ell: rng.choice([x for x in range(2, ell) if is_primitive_root(x, ell)])
            for ell in prime_set.primes
        }
    )


@pytest.mark.parametrize(
    "label, p, k", [("37a1", 3, 1), ("37a1", 3, 2), ("389a1", 3, 2), ("11a1", 5, 1), ("11a1", 5, 2)]
)
def test_log_of_minus_one_vanishes_on_admissible_primes(label, p, k):
    # log(-1) = (ell - 1)/2 = 0 mod p^k, whence W(n - c) = W(c)
    prime_set = _prime_set(label, p, k)
    assert prime_set.primes
    for chosen in prime_set, _rechosen(prime_set, 7), _rechosen(prime_set, 8):
        for ell in chosen.primes:
            assert discrete_log(ell, chosen.eta[ell], ell - 1) % p**k == 0


@pytest.mark.parametrize("label, p, k", [("37a1", 3, 1), ("389a1", 3, 2), ("11a1", 5, 1)])
def test_kurihara_number_of_a_minus_symbol_vanishes(label, p, k):
    # [n - a] = -[a] cancels the pairs a, n - a under W(n - c) = W(c):
    # the (1 + sign) factor, which the definition gives too
    curve = curve_by_label(label)
    prime_set = _prime_set(label, p, k)
    minus = eigen_pair(curve)[1]
    assert minus.sign == -1
    first = prime_set.primes[:3]
    for n in 1, first[0], first[0] * first[1], first[0] * first[1] * first[2]:
        assert kurihara_number(curve, n, p, k, prime_set, minus).value == 0
        if n <= 200_000:
            assert _delta_by_definition(minus, n, p**k, prime_set) == 0


def test_kurihara_number_memory_is_bounded_by_one_block(c37, aset37):
    # n = 43 * 109 * 211 = 988,957: a weight list over all c < n/2 would
    # take about 4 MB of pointers; the blocked weights stay far below it
    plus = eigen_pair(c37)[0]
    n = 43 * 109 * 211
    kurihara_number(c37, 43 * 109, 3, 1, aset37, plus)  # warm per-curve caches
    ideal_valuation(c37, n, 3)
    tracemalloc.start()
    try:
        kurihara_number(c37, n, 3, 1, aset37, plus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
