import functools
import random
import tracemalloc
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mazurtate import modsym
from mazurtate import kurihara
from mazurtate.curves import curve_by_label, load_catalog
from mazurtate.kurihara import (
    AdmissibilityError,
    ideal_valuation,
    kurihara_number,
    nonvanishing_search,
    root_number,
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
def test_precision_exponent_below_one_is_refused(c37, k):
    # p^0 = 1 and p^-1 = 1/3 would give '0 mod 1' rows that all "vanish"
    with pytest.raises(AdmissibilityError, match="k must be >= 1"):
        sieve_admissible(c37, 3, k, 50)


def test_negative_max_factors_is_refused(aset37):
    # a negative depth never reached 0: the search walked every subset
    with pytest.raises(AdmissibilityError, match="max_factors"):
        nonvanishing_search(aset37, -1)


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


def test_kurihara_number_n1(c11, aset37, aset11):
    assert kurihara_number(aset37, 1).value == 0
    d = kurihara_number(aset11, 1)
    from mazurtate.theta import eigen_pair

    assert d.value == eigen_pair(c11)[0].value(0) % 3


def test_kurihara_number_validations(aset37):
    with pytest.raises(AdmissibilityError, match="squarefree"):
        kurihara_number(aset37, 49)
    with pytest.raises(AdmissibilityError, match="admissible"):
        kurihara_number(aset37, 11)


def test_ideal_valuation(c37):
    # I_7 = (6, 1 - a_7 + 7): a_7(37a1) = -1, so (6, 9) has v_3 = 1
    assert c37.ap(7) == -1
    assert ideal_valuation(c37, 7, 3) == 1


def test_nonvanishing_table_regression(aset37):
    table = nonvanishing_search(aset37, 1)
    assert table.found_nonvanishing
    got_vanishing = {r.n for r in table.rows if r.vanishes}
    assert got_vanishing == VANISHING_37A1_P3
    # nu = 0 row equals kurihara_number(n=1)
    row0 = next(r for r in table.rows if r.n == 1)
    assert row0.value == kurihara_number(aset37, 1).value
    # determinism under a fixed prime set
    again = nonvanishing_search(aset37, 1)
    assert [(r.n, r.value) for r in again.rows] == [
        (r.n, r.value) for r in table.rows
    ]


def test_vanishing_invariant_under_root_rechoice(aset37):
    rng = random.Random(2024)
    base = {r.n: r.vanishes for r in nonvanishing_search(aset37, 1).rows}
    for _ in range(3):
        eta = {}
        for ell in aset37.primes:
            roots = [x for x in range(2, ell) if is_primitive_root(x, ell)]
            eta[ell] = rng.choice(roots)
        redone = nonvanishing_search(aset37.with_roots(eta), 1)
        assert {r.n: r.vanishes for r in redone.rows} == base


def test_a_root_for_a_prime_outside_the_set_is_refused(c37):
    # 11 is not admissible for 37a1 at p = 3 (3 does not divide 10); a root
    # for it once put 11 "in" the set, and delta_11 then read 2 mod 3
    aset = sieve_admissible(c37, 3, 1, 100)
    with pytest.raises(AdmissibilityError, match="not in the admissible set"):
        aset.with_roots({11: 2})
    rooted = aset._replace(eta=aset.eta | {11: 2})
    assert 11 not in rooted
    with pytest.raises(AdmissibilityError, match="admissible"):
        kurihara_number(rooted, 11)


def test_a_search_refuses_a_prime_that_is_not_admissible(aset37):
    # a set is a record anyone can build; a row skipped by parity must not
    # stand for a prime at which the theorem does not hold
    for extra in 11, 13, 37, 49:
        padded = aset37._replace(primes=aset37.primes + [extra])
        with pytest.raises(AdmissibilityError, match=f"{extra} is not admissible"):
            nonvanishing_search(padded, 1)


def test_table_reports_the_bound_of_the_set_it_read(aset37):
    table = nonvanishing_search(aset37, 1)
    assert table.bound == 500
    assert "primes <= 500" in table.summary()
    assert max(r.n for r in table.rows) == 463


def test_root_number_read_from_the_symbols_is_minus_the_fricke_sign():
    # the first check of the catalog's fricke column against the symbols
    for curve in load_catalog():
        assert root_number(curve) == -curve.fricke_sign, curve.label


class _NoFunctionalEquation:
    # zero mod 2, so neither sign is read there; mod 3, with 11 = 2 and
    # a -> (11 a)^-1 swapping 1 and 2, [1/3] = 1 is neither [2/3] nor -[2/3]
    def values_mod(self, M):
        return {2: {1: 0}, 3: {1: 1, 2: 2}}[M]


def test_root_number_refuses_a_symbol_with_no_functional_equation(c11, monkeypatch):
    monkeypatch.setattr(kurihara, "eigen_symbol", lambda space, curve, sign: _NoFunctionalEquation())
    with pytest.raises(modsym.NotNewformError, match="no functional equation mod 3"):
        root_number(c11)


@pytest.mark.parametrize("label, bound", [("37a1", 170), ("11a1", 300)])
def test_skipping_table_equals_the_table_row_by_row(label, bound):
    # rows of the wrong parity are written as 0 unevaluated; every row must
    # equal kurihara_number, which never skips
    curve = curve_by_label(label)
    aset = sieve_admissible(curve, 3, 1, bound)
    table = nonvanishing_search(aset, 2)
    m = len(aset.primes)
    assert len(table.rows) == 1 + m + m * (m - 1) // 2
    for row in table.rows:
        delta = kurihara_number(aset, row.n)
        assert (row.value, row.vanishes) == (delta.value, delta.vanishes), row.n
        if delta.vanishes:
            assert row.unit_class == "0"


def test_composite_n_two_factors(aset37):
    # nu(n) = 2 rows: the product-of-logs weighting over a genuinely
    # composite conductor, re-choice invariance included
    small = aset37.primes[:3]
    rng = random.Random(99)
    values = {}
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            n = small[i] * small[j]
            values[n] = kurihara_number(aset37, n).value
    assert values  # three pairs
    eta = {
        ell: rng.choice([x for x in range(2, ell) if is_primitive_root(x, ell)])
        for ell in aset37.primes
    }
    rechosen = aset37.with_roots(eta)
    for n, v in values.items():
        again = kurihara_number(rechosen, n).value
        assert (again == 0) == (v == 0)


def test_precision_compatibility(c37):
    # reduce from k = 2 to k = 1 agrees with direct computation at k = 1
    aset2 = sieve_admissible(c37, 3, 2, 500)
    assert aset2.primes == [109, 199]  # level-2 subset of the level-1 set
    for n in aset2.primes:
        d2 = kurihara_number(aset2, n)
        aset1 = sieve_admissible(c37, 3, 1, 500).with_roots(aset2.eta)
        d1 = kurihara_number(aset1, n)
        assert d2.value % 3 == d1.value


def test_well_definedness_under_constant_shift(c11, aset11):
    # a constant shift of every [a/ell]^+ is a full sigma-orbit move; it
    # pairs with the logs to shift * sum_a log(a) = shift (ell-1)(ell-2)/2
    # = 0 mod p^k on admissible primes, so delta_ell must not see it
    from mazurtate.theta import eigen_pair

    plus = eigen_pair(c11)[0]
    for ell in aset11.primes[:3]:
        # annihilation witness: the full log-orbit sum vanishes mod p^k
        assert (ell - 1) * (ell - 2) // 2 % 3 == 0
        d_orig = kurihara_number(aset11, ell)
        logs = {pow(aset11.eta[ell], x, ell): x for x in range(ell - 1)}
        for shift in (1, 7, -4):
            shifted = sum((v + shift) * logs[a] for a, v in plus.values_mod(ell).items())
            assert shifted % 3 == d_orig.value


def test_search_keeps_no_per_modulus_state(c37):
    # the search reads each modulus once: no symbol memo and no units_mod
    # cache entry per modulus may outlive it
    from mazurtate.modsym import EigenSymbol
    from mazurtate.nt import units_mod
    from mazurtate.theta import eigen_pair

    aset = sieve_admissible(c37, 3, 1, 170)
    before = units_mod.cache_info().currsize
    table = nonvanishing_search(aset, 2)
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
    # the sum over walk starts c with weight W(c), and its 2 (-1)^nu
    # factor, must not move delta_n; n is 1 or a product of at
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
    delta = kurihara_number(prime_set, n)
    assert delta.value == _delta_by_definition(plus, n, p**k, prime_set)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["11a1", "37a1", "389a1"]),
    st.sampled_from([3, 5]),
    st.sampled_from([1, 2]),
    st.lists(st.integers(0, 99), max_size=2, unique=True),
)
@example("37a1", 3, 1, [0, 1])
@example("37a1", 5, 1, [0, 2])
@example("11a1", 3, 1, [3])
@example("11a1", 5, 2, [1])
@example("389a1", 3, 2, [0])
@example("389a1", 5, 1, [4])
def test_delta_n_of_the_wrong_parity_vanishes(label, p, k, picks):
    # delta_n = 0 mod p^k when (-1)^nu(n) is not the root number -fricke;
    # n = 1 or a product of at most two admissible primes, kept <= 200,000
    curve = curve_by_label(label)
    prime_set = _prime_set(label, p, k)
    primes = prime_set.primes
    n, nu = 1, 0
    for ell in sorted({primes[i % len(primes)] for i in picks} if primes else ()):
        if n * ell <= 200_000:
            n, nu = n * ell, nu + 1
    assume((-1) ** nu != -curve.fricke_sign)
    assert kurihara_number(prime_set, n).value == 0


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


def test_kurihara_number_memory_is_bounded_by_one_block(c37, aset37):
    # n = 43 * 109 * 211 = 988,957: a weight list over all c < n/2 would
    # take about 4 MB of pointers; the blocked weights stay far below it
    n = 43 * 109 * 211
    kurihara_number(aset37, 43 * 109)  # warm per-curve caches
    ideal_valuation(c37, n, 3)
    tracemalloc.start()
    try:
        kurihara_number(aset37, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_set_whose_curve_was_swapped_is_refused(c11, aset37):
    # 7 is admissible for 37a1 at p = 3 (a_7 = -1) but not for 11a1, where
    # a_7 = -2 and 3 does not divide 8 - (-2)
    swapped = aset37._replace(curve=c11)
    assert 7 in swapped
    with pytest.raises(AdmissibilityError, match="7 is not an admissible prime"):
        kurihara_number(swapped, 7)
    with pytest.raises(AdmissibilityError, match="is not admissible for 11a1"):
        nonvanishing_search(swapped, 1)


def test_kurihara_number_memory_with_a_cold_tail_table(c37, aset37):
    # the same n as above, with the symbol's tail table built inside the
    # traced region: the tail cache is cleared after the warm-up
    n = 43 * 109 * 211
    kurihara_number(aset37, 43 * 109)  # warm per-curve caches
    ideal_valuation(c37, n, 3)
    key = (37, c37.label, 1)
    modsym._tail_cache.clear()
    tracemalloc.start()
    try:
        kurihara_number(aset37, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert modsym._tail_cache[key][0] is eigen_pair(c37)[0]


def test_tail_cache_holds_one_entry_per_symbol(c37):
    # a second search reuses the first one's table: no entry per modulus
    plus = eigen_pair(c37)[0]
    aset = sieve_admissible(c37, 3, 1, 170)
    nonvanishing_search(aset, 2)
    size = len(modsym._tail_cache)
    entry = modsym._tail_cache[(37, c37.label, 1)]
    assert entry[0] is plus and len(entry[1]) == modsym._TAIL
    nonvanishing_search(aset, 2)
    assert len(modsym._tail_cache) == size
    assert modsym._tail_cache[(37, c37.label, 1)] is entry
