import pytest

from mazurtate import curves
from mazurtate.curves import (
    BadPrimeError,
    BoundExceeded,
    CatalogError,
    bad_ap,
    count_points,
    curve_by_label,
    euler_factor,
    load_catalog,
    parse_catalog_line,
)
from mazurtate.nt import primes_up_to


def brute_force_ap(curve, ell):
    """Oracle: enumerate all affine points of the reduction mod ell."""
    a1, a2, a3, a4, a6 = (c % ell for c in curve.a_invariants)
    affine = sum(
        1
        for x in range(ell)
        for y in range(ell)
        if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % ell == 0
    )
    return ell + 1 - (affine + 1)


def smooth_point_count(curve, ell):
    """Oracle: number of smooth points of the reduction, infinity included."""
    a1, a2, a3, a4, a6 = (c % ell for c in curve.a_invariants)
    smooth = 1
    for x in range(ell):
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % ell:
                continue
            fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % ell
            fy = (2 * y + a1 * x + a3) % ell
            if fx or fy:
                smooth += 1
    return smooth


def test_count_points_37a1_small(c37):
    # 37a1: y^2 + y = x^3 - x; 4 affine points over F_2 plus infinity
    assert count_points(c37, 2) == -2
    assert brute_force_ap(c37, 2) == -2
    assert count_points(c37, 3) == -3
    assert brute_force_ap(c37, 3) == -3


def test_count_points_32a(c32):
    assert count_points(c32, 5) == -2
    assert brute_force_ap(c32, 5) == -2


def test_count_points_rejects_bad_prime_and_bound(c11):
    with pytest.raises(BadPrimeError, match="use bad_ap"):
        count_points(c11, 11)
    with pytest.raises(BoundExceeded):
        count_points(c11, 4007, bound=4000)


@pytest.mark.parametrize(
    "label,ell,expected",
    [("11a1", 11, 1), ("32a", 2, 0), ("37a1", 37, -1)],
)
def test_bad_ap_against_smooth_count_oracle(label, ell, expected):
    curve = curve_by_label(label)
    got = bad_ap(curve, ell)
    assert got == expected
    smooth = smooth_point_count(curve, ell)
    oracle = 1 if smooth == ell - 1 else (-1 if smooth == ell + 1 else 0)
    assert got == oracle


def test_euler_factor_values(c11):
    assert euler_factor(c11, 3).coefficients == (1, 1, 3)  # a_3(11a1) = -1
    assert brute_force_ap(c11, 3) == -1
    assert euler_factor(c11, 11).coefficients == (1, -1)
    for ell in (2, 3, 5, 11):
        assert euler_factor(c11, ell).evaluate(0) == 1


def test_hasse_bound_all_good_primes_up_to_500():
    for label in ("11a1", "32a", "37a1"):
        curve = curve_by_label(label)
        for ell in primes_up_to(500):
            if curve.conductor % ell == 0:
                continue
            a = count_points(curve, ell)
            assert a * a <= 4 * ell


@pytest.mark.parametrize("ell", [97, 37])
def test_ap_is_memoized_in_ap_cache(monkeypatch, ell):
    # count_points (good ell) and bad_ap (ell | N) store into ap_cache, so a
    # second ap(ell) reads the cache and reaches neither
    curve = curve_by_label("37a1")
    a = curve.ap(ell)
    assert curve.ap_cache[ell] == a

    def refuse(*args):
        raise AssertionError(f"a_{ell} computed twice")

    monkeypatch.setattr(curves, "count_points", refuse)
    monkeypatch.setattr(curves, "bad_ap", refuse)
    assert curve.ap(ell) == a


def test_an_multiplicativity(c11):
    # a_{mn} = a_m a_n for coprime m, n; a_{l^2} = a_l^2 - l at good l
    for m, n in [(2, 3), (3, 5), (2, 9), (4, 5)]:
        assert c11.an(m * n) == c11.an(m) * c11.an(n)
    for ell in (2, 3, 5, 7):
        assert c11.an(ell * ell) == c11.ap(ell) ** 2 - ell


# --- catalog ------------------------------------------------------------------


def test_parse_catalog_line_roundtrip():
    cur = parse_catalog_line("37a1 [0,0,1,-1,0] 37 + rank=1", 1)
    assert cur.label == "37a1"
    assert cur.conductor == 37
    assert cur.fricke_sign == 1
    assert cur.known_rank == 1
    assert cur.discriminant() == 37


def test_parse_catalog_ap_seed():
    cur = parse_catalog_line("x [0,-1,1,-10,-20] 11 - ap=2:-2,3:-1", 3)
    assert cur.ap(2) == -2 and cur.ap(3) == -1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CatalogError, match="line 7"):
        parse_catalog_line("bad [1,2] 11 -", 7)
    with pytest.raises(CatalogError, match="singular"):
        parse_catalog_line("sing [0,0,0,0,0] 11 -", 1)
    with pytest.raises(CatalogError, match="Hasse"):
        parse_catalog_line("x [0,0,1,-1,0] 37 + ap=5:9", 1)


def test_bundled_catalog_contains_reference_curves():
    labels = {c.label for c in load_catalog()}
    assert {"11a1", "32a", "37a1"} <= labels
