from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modsym_oracle import (
    OracleSpace,
    dense,
    fraction_rref,
    mat_mul,
    oracle_eigen_symbol,
    orbit_min,
    orbit_p1,
    p1_valid,
    unimodular_path_hj,
    vec_mat,
)

from mazurtate import modsym
from mazurtate.curves import CurveData, curve_by_label
from mazurtate.modsym import (
    CalibrationError,
    ModularSymbolSpace,
    NotNewformError,
    build_space,
    calibrate_periods,
    cusp_count,
    eigen_symbol,
    genus_x0,
    heilbronn_matrices,
    index_gamma0,
    left_kernel,
    left_kernel_mod_q,
    merel_matrices,
    sparse_rref,
    unimodular_path,
)
from mazurtate.nt import primes_up_to, units_mod
from mazurtate.theta import eigen_pair, theta_element


@pytest.mark.parametrize("N,dim", [(11, 3), (37, 5), (15, 5)])
def test_dimension_examples(N, dim):
    assert build_space(N).dimension == dim


@pytest.mark.parametrize("N", range(1, 51))
def test_dimension_formula_all_levels(N):
    space = build_space(N)
    assert space.dimension == 2 * genus_x0(N) + cusp_count(N) - 1


@pytest.mark.parametrize("N", range(1, 51))
def test_manin_relations_annihilate_generators(N):
    space = build_space(N)
    zero = (Fraction(0),) * space.dimension

    def red(i):
        return dense(space.reduction[i], space.dimension)

    for i, (c, d) in enumerate(space.p1_reps):
        r_i = red(i)
        r_s = red(space.p1_index(d, -c))
        assert tuple(a + b for a, b in zip(r_i, r_s)) == zero
        r_t = red(space.p1_index(d, -c - d))
        r_t2 = red(space.p1_index(-c - d, c))
        assert tuple(a + b + e for a, b, e in zip(r_i, r_t, r_t2)) == zero


@pytest.mark.parametrize("N", [11, 15, 37])
def test_hecke_commutativity(N):
    space = build_space(N)
    good = [ell for ell in (2, 3, 5, 7) if N % ell != 0]
    mats = {ell: space.hecke_matrix(ell) for ell in good}
    for i, l1 in enumerate(good):
        for l2 in good[i + 1 :]:
            assert mat_mul(mats[l1], mats[l2]) == mat_mul(mats[l2], mats[l1])


def test_hecke_rejects_bad_prime():
    with pytest.raises(ValueError, match="unsupported"):
        build_space(11).hecke_matrix(11)


def test_merel_identity():
    assert list(merel_matrices(1)) == [(1, 0, 0, 1)]


@pytest.mark.parametrize("N", [11, 32, 36, 37, 49, 64, 99, 121, 143, 389])
def test_heilbronn_matrices_give_merels_hecke_operator(N):
    space = build_space(N)
    for ell in primes_up_to(50):
        if N % ell:
            assert space._right_action_matrix(heilbronn_matrices(ell)) == space.hecke_matrix(ell)


def test_heilbronn_matrix_counts_and_determinants():
    counts = [len(heilbronn_matrices(ell)) for ell in (2, 3, 5, 7, 11, 13, 17, 19)]
    assert counts == [4, 6, 12, 18, 30, 38, 52, 58]
    for ell in primes_up_to(50):
        assert all(p * s - q * r == ell for p, q, r, s in heilbronn_matrices(ell))


@pytest.mark.parametrize("label", ["11a1", "37a1", "389a1"])
def test_certificate_rejects_a_wrong_eigenvalue(label):
    curve = curve_by_label(label)
    space = build_space(curve.conductor)
    read = [(ell, curve.ap(ell)) for ell in primes_up_to(20) if curve.conductor % ell]
    for sign in (1, -1):
        free, _ = space.sign_quotient(sign)
        table = eigen_symbol(space, curve, sign).table
        assert modsym._certified(space, free, table, read)
        for ell, a in read:
            assert not modsym._certified(space, free, table, [(ell, a + 1)])


def test_eigenvalue_on_cuspidal_part(c11):
    # T_2 on level 11 has eigenvalue -2 on the newform line
    space = build_space(11)
    plus = eigen_symbol(space, c11, +1)
    t2 = space.hecke_matrix(2)
    assert vec_mat(list(plus.vector), t2) == [-2 * v for v in plus.vector]
    t3 = space.hecke_matrix(3)
    assert vec_mat(list(plus.vector), t3) == [-1 * v for v in plus.vector]


@pytest.mark.parametrize("label,sign", [("37a1", 1), ("11a1", -1), ("11a1", 1), ("37a1", -1)])
def test_eigen_symbol_exists_and_is_eigen(label, sign):
    curve = curve_by_label(label)
    space = build_space(curve.conductor)
    eig = eigen_symbol(space, curve, sign)
    star = space.star_matrix()
    assert vec_mat(list(eig.vector), star) == [sign * v for v in eig.vector]
    for ell in primes_up_to(20):
        if curve.conductor % ell == 0:
            continue
        t = space.hecke_matrix(ell)
        assert vec_mat(list(eig.vector), t) == [curve.ap(ell) * v for v in eig.vector]


def test_eigen_symbol_integrality_and_content(pair11, pair37):
    from math import gcd

    for eig in (*pair11, *pair37):
        values = [
            sum(a * b for a, b in zip(eig.vector, dense(red, eig.space.dimension)))
            for red in eig.space.reduction
        ]
        assert all(v.denominator == 1 for v in values)
        content = 0
        for v in values:
            content = gcd(content, v.numerator)
        assert content == 1


def test_t5_reproduces_a5_times_output(pair11, c11):
    plus, _ = pair11
    t5 = plus.space.hecke_matrix(5)
    assert vec_mat(list(plus.vector), t5) == [c11.ap(5) * v for v in plus.vector]


@pytest.mark.parametrize("label", ["11a1", "37a1"])
def test_an_multiplicativity_against_hecke_eigenvalues(label):
    # the q-expansion recursion for a_n must agree with the direct T_n
    # eigenvalue on the eigen-symbol, composite n included
    curve = curve_by_label(label)
    space = build_space(curve.conductor)
    plus = eigen_symbol(space, curve, +1)
    for n in range(1, 21):
        if __import__("math").gcd(n, curve.conductor) != 1:
            continue
        tn = space.hecke_matrix(n)
        assert vec_mat(list(plus.vector), tn) == [
            curve.an(n) * v for v in plus.vector
        ]


def test_symbol_values(pair11, pair37):
    plus37, _ = pair37
    assert plus37.value(0) == 0  # rank > 0 forces L(E,1) = 0
    plus11, minus11 = pair11
    r = Fraction(3, 13)
    assert plus11.value(r) == plus11.value(-r)
    assert minus11.value(r) == -minus11.value(-r)
    assert plus11.value(None) == 0  # {i oo -> i oo}


@pytest.mark.parametrize(
    "r", [Fraction(0), Fraction(1, 2), Fraction(3, 7), Fraction(-5, 11), Fraction(22, 7)]
)
def test_path_independence(r, pair11):
    plus, _ = pair11
    space = plus.space
    v1 = space.path_vector(r, unimodular_path)
    v2 = space.path_vector(r, unimodular_path_hj)
    assert v1 == v2


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["11a1", "37a1"]),
    st.sampled_from([0, 1]),
    st.integers(-400, 400),
    st.integers(1, 400),
)
def test_table_values_match_homology_classes(label, part, a, b):
    # the integer table summed along either path equals the eigen vector
    # paired with the dense class of {i.infinity -> a/b}
    sym = eigen_pair(curve_by_label(label))[part]
    space = sym.space
    r = Fraction(a, b)
    for decomp in (unimodular_path, unimodular_path_hj):
        dense = sum(v * w for v, w in zip(sym.vector, space.path_vector(r, decomp)))
        assert sum(sym.table[space.p1_index(c, d)] for c, d in decomp(r)) == dense
        assert sym.raw_value(r) == dense


def test_unimodular_paths_are_unimodular():
    for r in (Fraction(17, 60), Fraction(-9, 31)):
        for decomp in (unimodular_path, unimodular_path_hj):
            syms = decomp(r)
            assert syms  # nonempty and each (c : d) has det-1 witness by construction


def test_oldform_collision_raises():
    # 11a1 viewed at level 22 would be an oldform; build a fake curve with
    # conductor 22 carrying 11a1's eigenvalues to trigger the check
    fake = CurveData("fake22", (0, -1, 1, -10, -20), 22)
    space = build_space(22)
    with pytest.raises(NotNewformError, match="dimension 2"):
        eigen_symbol(space, fake, +1)


@pytest.mark.parametrize("sign", [1, -1])
def test_last_hecke_prime_still_constrains(sign):
    # 11a3 is isogenous to 11a1 (same a_ell); a_19 alone off by one must
    # empty the eigenspace, so the kernel never stops at dimension 1
    a19 = curve_by_label("11a1").ap(19)
    fake = CurveData("fake11", (0, -1, 1, 0, 0), 11, ap_cache={19: a19 + 1})
    with pytest.raises(NotNewformError, match="dimension 0"):
        eigen_symbol(build_space(11), fake, sign)


def test_eigen_cache_keyed_by_the_eigenvalues_it_reads():
    # 11a1's model with a_19 off by one: once 11a1's symbol is cached, the
    # override must still reach the kernel and empty the eigenspace
    c11 = curve_by_label("11a1")
    space = build_space(11)
    plus = eigen_symbol(space, c11, +1)
    off = CurveData("off19", c11.a_invariants, 11, ap_cache={19: c11.ap(19) + 1})
    with pytest.raises(NotNewformError, match="dimension 0"):
        eigen_symbol(space, off, +1)
    assert eigen_symbol(space, CurveData("copy", c11.a_invariants, 11), +1) is plus


def test_calibration_11a1(pair11, c11):
    plus, _ = pair11
    lam = calibrate_periods(plus, c11)
    assert lam * plus.raw_value(0) == Fraction(1, 5)
    calibrated = plus.calibrated(lam)
    assert calibrated.scaling_mode == "period-calibrated"
    assert calibrated.value(0) == Fraction(1, 5)
    assert plus.scaling_mode == "integral-normalized" and plus.value(0) == 2
    # covariance: scaling the integral vector by 2 halves lambda
    doubled = plus._replace(
        vector=tuple(2 * v for v in plus.vector),
        table=tuple(2 * v for v in plus.table),
    )
    lam2 = calibrate_periods(doubled, c11)
    assert lam2 == lam / 2


def test_calibration_11a3():
    # L(E,1)/Omega^+ = 1/25 for 11a3 and [0]^+ = 2, so lambda = 1/50 exactly
    curve = curve_by_label("11a3")
    plus = eigen_pair(curve)[0]
    assert plus.raw_value(0) == 2
    assert calibrate_periods(plus, curve) == Fraction(1, 50)


def test_eigen_symbols_are_frozen(pair11):
    plus, _ = pair11
    for name in ("table", "scale", "scaling_mode"):
        with pytest.raises(AttributeError):
            setattr(plus, name, None)


def test_calibration_leaves_shared_symbols_alone(c11):
    # calibration makes a new symbol; the cached one that every later
    # caller shares stays integral-normalized
    from mazurtate.kurihara import kurihara_number, sieve_admissible

    plus = eigen_pair(c11)[0]
    plus.calibrated(calibrate_periods(plus, c11))
    fresh = curve_by_label("11a1")
    assert eigen_pair(fresh)[0].scaling_mode == "integral-normalized"
    assert theta_element(fresh, 1).element.coeffs[0] == 2
    aset = sieve_admissible(fresh, 3, 1, 200)
    assert kurihara_number(fresh, 1, 3, 1, aset).value == 2


def test_calibration_37a1_undetermined(pair37, c37):
    plus, _ = pair37
    with pytest.raises(CalibrationError, match="undetermined"):
        calibrate_periods(plus, c37)


# --- the integer kernel against the orbit and Fraction oracles ------------


@pytest.mark.parametrize("N", range(1, 201))
def test_p1_matches_orbit_oracle(N):
    reps, index = orbit_p1(N)
    space = ModularSymbolSpace(N)
    assert space.p1_reps == reps
    pairs = [(c, d) for c in range(N) for d in range(N)]
    assert {cd for cd in pairs if p1_valid(space, *cd)} == index.keys()
    assert {cd: space.p1_index(*cd) for cd in index} == index
    for (c, d), i in list(index.items())[:: max(1, len(index) // 50)]:
        assert space.p1_index(c - 3 * N, d + 2 * N) == i
    for c, d in [cd for cd in pairs if cd not in index][:20]:
        with pytest.raises(ValueError, match="not a point"):
            space.p1_index(c, d)


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(
        st.integers(201, 1200),
        st.sampled_from([243, 256, 343, 360, 625, 720, 729, 1000, 1024, 1089]),
    ),
    st.data(),
)
def test_p1_index_is_orbit_minimum_at_larger_levels(N, data):
    space = ModularSymbolSpace(N)
    reps = space.p1_reps
    assert reps == sorted(set(reps))
    assert len(reps) == index_gamma0(N)  # N prod (1 + 1/p)
    for _ in range(12):
        c = data.draw(st.integers(-2 * N, 2 * N))
        d = data.draw(st.integers(-2 * N, 2 * N))
        if not p1_valid(space, c, d):
            continue
        assert reps[space.p1_index(c, d)] == orbit_min(N, c, d)
    i = data.draw(st.integers(0, len(reps) - 1))
    assert orbit_min(N, *reps[i]) == reps[i]


@pytest.mark.parametrize("N", [*range(1, 121), 389])
def test_quotient_and_hecke_match_fraction_oracle(N):
    space, oracle = ModularSymbolSpace(N), OracleSpace(N)
    assert space.free_indices == oracle.free_indices
    assert [dense(r, space.dimension) for r in space.reduction] == oracle.reduction
    assert all(type(v) is int for row in space.reduction for _, v in row)
    assert space.star_matrix() == oracle.right_action_matrix([(-1, 0, 0, 1)])
    good = [ell for ell in primes_up_to(19) if N % ell != 0]
    for ell in good if N == 389 else good[:1]:
        assert space.hecke_matrix(ell) == oracle.right_action_matrix(
            list(merel_matrices(ell))
        )


def test_exact_path_keeps_denominators():
    # no level checked needs one, but a pivot other than +-1 must still
    # give the exact RREF and an integer kernel
    assert sparse_rref([{0: 2, 1: 1}, {1: 3, 2: -1}]) == {
        0: {0: 1, 2: Fraction(1, 6)},
        1: {1: 1, 2: Fraction(-1, 3)},
    }
    mat = [[Fraction(1, 2), 1], [1, 2], [0, Fraction(2, 3)]]
    basis = left_kernel(mat)
    assert len(basis) == 1 and basis[0] in ([2, -1, 0], [-2, 1, 0])
    assert left_kernel([[1, 0], [0, 1]]) == []


# ---------------------------------------------------------------------------
# Free generators from the echelon pivots; the full reduction rows on demand

_sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 7), st.integers(-3, 3).filter(bool), max_size=4), max_size=8
)


@settings(max_examples=150, deadline=None)
@given(_sparse_rows)
@example([{0: 2, 1: 1}, {1: 3, 2: -1}])
@example([{1: 1, 2: 1}, {0: 1, 1: 1}, {0: 1, 2: -1}])
def test_echelon_pivots_are_the_rref_pivots(rows):
    echelon = sparse_rref(rows, reduced=False)
    assert all(row[c] == 1 and min(row) == c for c, row in echelon.items())
    rref = sparse_rref(rows)
    assert rref == fraction_rref([{j: Fraction(v) for j, v in row.items()} for row in rows])
    assert echelon.keys() == rref.keys()


@pytest.mark.parametrize("N", [*range(1, 401), 997, 5077])
def test_echelon_free_generators_match_the_rref(N):
    space = ModularSymbolSpace(N)
    assert "reduction" not in vars(space)
    assert space.free_indices == space._quotient(None)[0]


def test_cli_and_eigen_pair_leave_the_reduction_rows_unbuilt(monkeypatch, capsys):
    from mazurtate.cli import main

    monkeypatch.setattr(modsym, "_space_cache", {})
    monkeypatch.setattr(modsym, "_eigen_cache", {})
    assert main(["--json", "--no-timing", "msym", "--level", "997"]) == 0
    modsym.eigen_pair(curve_by_label("389a1"))
    spaces = modsym._space_cache
    assert sorted(spaces) == [389, 997]
    assert not any("reduction" in vars(space) for space in spaces.values())
    assert len(spaces[389].reduction) == len(spaces[389].p1_reps)  # built on first read
    assert "reduction" in vars(spaces[389])


def test_space_build_peak_memory_at_9973():
    # the full RREF and a reduction row per point peaked near 25 MB here
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert ModularSymbolSpace(9973).dimension == 1661
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_level_4999_passes_dimension_check(capsys):
    # the orbit enumeration would need a ~25M-entry dict here
    import json

    from mazurtate.cli import main

    assert main(["--json", "--no-timing", "msym", "--level", "4999"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outputs"]["dimension"] == str(2 * genus_x0(4999) + cusp_count(4999) - 1)
    assert out["checks"] == [
        {"name": "dimension = 2g + cusps - 1", "status": "pass", "witness": None}
    ]


# ---------------------------------------------------------------------------
# The Euclid-chain walk behind raw_value and values_mod

def _symbol(label, part):
    return eigen_pair(curve_by_label(label))[part]


def _path_sum(sym, r):
    """[r] as the table summed over the symbol list of ``unimodular_path``."""
    space = sym.space
    return sum(sym.table[space.p1_index(c, d)] for c, d in unimodular_path(r))


_points = st.integers(1, 10**6).flatmap(
    lambda M: st.builds(
        Fraction,
        st.integers(-3 * M, 3 * M) | st.sampled_from([0, -1, -M + 1, M + 1, 2 * M - 1]),
        st.just(M),
    )
)


@pytest.mark.parametrize("part", [0, 1])
@pytest.mark.parametrize("label", ["11a1", "37a1", "389a1"])
def test_table_star_identity(label, part):
    # the chain walk reads (c : d) for the path's (c : -d) at every other step
    sym = _symbol(label, part)
    index, table = sym.space.p1_index, sym.table
    for c, d in sym.space.p1_reps:
        assert table[index(c, -d)] == sym.sign * table[index(c, d)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["11a1", "37a1", "389a1"]),
    st.sampled_from([0, 1]),
    st.none() | _points,
)
@example("11a1", 0, None)
@example("37a1", 1, Fraction(0))
@example("389a1", 0, Fraction(-7, 3))
@example("389a1", 1, Fraction(999_999, 1_000_000))
def test_walk_matches_unimodular_path(label, part, r):
    sym = _symbol(label, part)
    assert sym.raw_value(r) == _path_sum(sym, r)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["11a1", "37a1", "389a1"]),
    st.sampled_from([0, 1]),
    st.integers(1, 5000),
)
@example("11a1", 0, 1)
@example("11a1", 1, 2)
def test_values_mod_star_symmetry(label, part, M):
    # [-r] = sign [r] and [r + 1] = [r], so [(M - a)/M] = sign [a/M]
    sym = _symbol(label, part)
    values = sym.values_mod(M)
    assert list(values) == list(units_mod(M))
    for a, v in values.items():
        assert values[(M - a) % M] == sym.sign * v
        assert v == _path_sum(sym, Fraction(a, M))


@pytest.mark.parametrize("M", [1, 2, 1393, 1963, 12307, 32107])
@pytest.mark.parametrize("label", ["11a1", "37a1"])
def test_values_mod_examples(label, M):
    for sym in _symbol(label, 0), _symbol(label, 1):
        values = sym.values_mod(M)
        assert list(values) == list(units_mod(M))
        assert values == {a: _path_sum(sym, Fraction(a, M)) for a in units_mod(M)}


@pytest.mark.parametrize("M", [1, 2, 35, 1393])
def test_calibrated_values_mod_scales_every_value(pair11, M):
    plus = pair11[0]
    lam = Fraction(3, 7)
    scaled = plus.calibrated(lam).values_mod(M)
    assert scaled == {a: lam * v for a, v in plus.values_mod(M).items()}
    assert list(scaled) == list(units_mod(M))
    assert all(isinstance(v, Fraction) for v in scaled.values())


# ---------------------------------------------------------------------------
# The eigen kernel: sign quotient, kernel mod q, exact certificate

Q = modsym._Q


@pytest.mark.parametrize("N", [*range(1, 121), 389])
def test_sign_quotients_split_the_space(N):
    # each sign quotient is dual to the star eigenspace of that sign, and
    # over Q the two eigenspaces add up to the whole space
    space = build_space(N)
    star = space.star_matrix()
    dims = []
    for sign in (1, -1):
        free, reduction = space.sign_quotient(sign)
        assert all(type(v) is int for row in reduction for _, v in row)
        shifted = [[x - sign * (i == j) for j, x in enumerate(row)] for i, row in enumerate(star)]
        assert len(free) == len(left_kernel(shifted))
        dims.append(len(free))
    assert sum(dims) == space.dimension
    if N == 389:
        assert dims == [33, 32]


def _kernel_mod_q_lifted(mat):
    """left_kernel_mod_q on [M | I], each kernel vector lifted to Z."""
    m = len(mat[0])
    rows = [
        sum((x % Q) << 8 * modsym._SLOT * k for k, x in enumerate(row + [0] * i + [1]))
        for i, row in enumerate(mat)
    ]
    return [modsym._lift(v) for v in left_kernel_mod_q(rows, m, m + len(mat))]


def _rref(vectors):
    return sparse_rref([{j: x for j, x in enumerate(v) if x} for v in vectors])


_small_matrices = st.integers(1, 6).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(-2, 2), min_size=m, max_size=m)
        | st.just([0] * m)
        | st.sampled_from([[1] + [0] * (m - 1), [-2] + [0] * (m - 1)]),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=150, deadline=None)
@given(_small_matrices)
@example([[0, 0], [0, 0]])
@example([[1, 2], [2, 4], [3, 6]])
@example([[0, 1, -1]])
def test_kernel_mod_q_lifts_to_left_kernel(mat):
    # repeated, zero and proportional rows make the matrices rank-deficient
    lifted = _kernel_mod_q_lifted(mat)
    assert all(v is not None for v in lifted)
    assert all(sum(x * row[k] for x, row in zip(v, mat)) == 0 for v in lifted for k in range(len(mat[0])))
    assert _rref(lifted) == _rref(left_kernel(mat))


def test_multiples_of_q_vanish_mod_q_but_not_over_q():
    mat = [[Q, 0], [0, 1], [2 * Q, 3 * Q]]
    assert len(_kernel_mod_q_lifted(mat)) == 2
    assert len(left_kernel(mat)) == 1


@pytest.mark.parametrize("sign", [1, -1])
def test_shift_by_q_takes_the_exact_fallback(monkeypatch, sign):
    # a_ell + q for every ell: every T_ell - a_ell is the true one mod q, so
    # the kernel mod q is the newform's line, but over Q it is empty; the
    # certificate must reject the lift and left_kernel give the answer
    c11 = curve_by_label("11a1")
    fake = CurveData("shifted11", c11.a_invariants, 11)
    fake.ap_cache.update({ell: c11.ap(ell) + Q for ell in primes_up_to(20) if ell != 11})
    calls = []

    def counted(mat):
        calls.append(len(mat))
        return left_kernel(mat)

    monkeypatch.setattr(modsym, "left_kernel", counted)
    with pytest.raises(NotNewformError, match="dimension 0"):
        eigen_symbol(build_space(11), fake, sign)
    assert calls


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("label", ["11a1", "11a3", "37a1", "389a1"])
def test_eigen_symbol_matches_full_space_oracle(label, sign):
    curve = curve_by_label(label)
    space = build_space(curve.conductor)
    sym = eigen_symbol(space, curve, sign)
    assert (sym.vector, sym.table) == oracle_eigen_symbol(space, curve, sign)
    assert all(type(v) is int for v in sym.vector + sym.table)
    assert sym.hecke_bound == 20


@pytest.mark.parametrize("label", ["11a1", "37a1", "389a1"])
def test_eigen_symbol_takes_the_fast_path(monkeypatch, label):
    def refuse(mat):
        raise AssertionError("the exact fallback ran")

    monkeypatch.setattr(modsym, "left_kernel", refuse)
    monkeypatch.setattr(modsym, "_eigen_cache", {})
    curve = curve_by_label(label)
    space = ModularSymbolSpace(curve.conductor)
    for sign in (1, -1):
        assert eigen_symbol(space, curve, sign).table


# 57a1 and 57b1 share a_2 = -2 (a_5 = -3 and 1), so with the cut-off at 2
# each sign's eigenspace is a plane until T_5 splits it
CURVE_57A1 = CurveData("57a1", (0, -1, 1, -2, 2), 57)


@pytest.mark.parametrize("sign", [1, -1])
def test_sturm_bound_continues_past_the_cut_off(monkeypatch, sign):
    space = build_space(57)
    full = eigen_symbol(space, CURVE_57A1, sign)
    monkeypatch.setattr(modsym, "GOOD_HECKE_BOUND", 2)
    cut = eigen_symbol(space, CurveData("57a1", CURVE_57A1.a_invariants, 57), sign)
    assert cut.hecke_bound == 5 and full.hecke_bound == 20
    assert (cut.vector, cut.table) == (full.vector, full.table)


def test_sturm_bound_is_the_last_resort(monkeypatch):
    # the oldform plane of 11a1 at level 22 never splits: the kernel reads
    # good ell up to [SL2(Z) : Gamma_0(22)] / 6 = 6 and still says 2
    monkeypatch.setattr(modsym, "GOOD_HECKE_BOUND", 3)
    read = []
    fake = CurveData("fake22", (0, -1, 1, -10, -20), 22)
    ap = CurveData.ap  # records have no instance dict, so patch the class
    monkeypatch.setattr(CurveData, "ap", lambda self, ell: read.append(ell) or ap(self, ell))
    with pytest.raises(NotNewformError, match="dimension 2"):
        eigen_symbol(build_space(22), fake, 1)
    assert sorted(set(read)) == [3, 5]
