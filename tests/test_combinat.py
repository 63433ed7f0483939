"""Exact combinatorics: every expected value here comes from an independent
oracle (dynamic programming, naive series multiplication, rational
arithmetic) or from hand evaluation frozen in place."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skcw import combinat


# --- oracles -----------------------------------------------------------------


def dyck_path_count(length: int) -> int:
    """Paths of +-1 steps from 0 to 0 of given length staying nonnegative."""
    heights = {0: 1}
    for _ in range(length):
        nxt: dict[int, int] = {}
        for h, c in heights.items():
            for h2 in (h + 1, h - 1):
                if h2 >= 0:
                    nxt[h2] = nxt.get(h2, 0) + c
        heights = nxt
    return heights.get(0, 0)


def series_g_oracle(max_deg: int) -> list[int]:
    """g(z) = sum_j (number of Dyck paths of length 2j) z^(2j+1)."""
    g = [0] * (max_deg + 1)
    for j in range(max_deg // 2 + 1):
        if 2 * j + 1 <= max_deg:
            g[2 * j + 1] = dyck_path_count(2 * j)
    return g


def poly_power_coeff(base: list[int], r: int, m: int) -> int:
    """Coefficient of z^m in base(z)^r by naive truncated multiplication."""
    prod = [0] * (m + 1)
    prod[0] = 1
    for _ in range(r):
        nxt = [0] * (m + 1)
        for a, ca in enumerate(prod):
            if ca:
                for b, cb in enumerate(base[: m - a + 1]):
                    if cb:
                        nxt[a + b] += ca * cb
        prod = nxt
    return prod[m]


# --- catalan weights ---------------------------------------------------------


def test_catalan_examples():
    assert combinat.catalan_weight(3) == 0
    assert combinat.catalan_weight(0) == 1
    assert combinat.catalan_weight(6) == 5


def test_catalan_matches_dyck_paths():
    for k in range(0, 41, 2):
        assert combinat.catalan_weight(k) == dyck_path_count(k)


def test_catalan_validation():
    with pytest.raises(ValueError):
        combinat.catalan_weight(-1)
    with pytest.raises(OverflowError):
        combinat.catalan_weight(combinat.CATALAN_MAX_K + 2)


# --- generating function coefficients ----------------------------------------


def test_gen_coeff_examples():
    assert combinat.gen_coeff(3, 3) == 1
    assert combinat.gen_coeff(5, 1) == 2
    assert combinat.gen_coeff(5, 3) == 3
    assert combinat.gen_coeff(4, 1) == 0  # opposite parity


def test_gen_coeff_against_naive_series():
    g = series_g_oracle(40)
    for m in range(1, 41):
        for r in range(1, m + 1):
            if (m - r) % 2 == 0:
                assert combinat.gen_coeff(m, r) == poly_power_coeff(g, r, m)


def test_gen_coeff_validation():
    with pytest.raises(ValueError):
        combinat.gen_coeff(3, 4)
    with pytest.raises(ValueError):
        combinat.gen_coeff(0, 0)
    with pytest.raises(OverflowError):
        combinat.gen_coeff(combinat.GEN_COEFF_MAX_M + 2, 1)


# --- Chebyshev polynomials ----------------------------------------------------


def test_chebyshev_small():
    assert combinat.chebyshev_coeffs(0).coeffs == (2,)
    assert combinat.chebyshev_coeffs(1).coeffs == (0, 1)
    assert combinat.chebyshev_coeffs(4).coeffs == (2, 0, -4, 0, 1)


def test_chebyshev_coeffs_are_cached():
    for m in (0, 5, 12):
        assert combinat.chebyshev_coeffs(m) is combinat.chebyshev_coeffs(m)


@given(st.integers(min_value=0, max_value=12))
def test_chebyshev_defining_identity_exact(m):
    """P_m(z + 1/z) = z^m + z^-m checked in exact rational arithmetic."""
    z = Fraction(3, 2)
    x = z + 1 / z
    poly = combinat.chebyshev_coeffs(m)
    value = sum(Fraction(poly[i]) * x**i for i in range(poly.degree + 1))
    assert value == z**m + z**-m


def test_chebyshev_cosine_identity():
    for m in range(21):
        poly = combinat.chebyshev_coeffs(m)
        for theta in (math.pi / 7, math.pi / 3, 1.0):
            assert abs(poly(2 * math.cos(theta)) - 2 * math.cos(m * theta)) <= 1e-9


def test_chebyshev_parity():
    for m in range(1, 15):
        poly = combinat.chebyshev_coeffs(m)
        for i in range(poly.degree + 1):
            if (i - m) % 2 == 1:
                assert poly[i] == 0


# --- cancellation identity -----------------------------------------------------


def test_cancellation_hand_values():
    # k=2: P_4 = x^4 - 4x^2 + 2 -> (-4)*1*1 + 1*2*2 = 0
    assert combinat.cancellation_sum(2) == 0
    # k=3: P_6 = x^6 - 6x^4 + 9x^2 - 2 -> 9*1*1 - 6*2*2 + 1*3*5 = 0
    assert combinat.chebyshev_coeffs(6).coeffs == (-2, 0, 9, 0, -6, 0, 1)
    assert combinat.cancellation_sum(3) == 0
    # the identity starts at k=2; the k=1 sum is P_2[2]*1*psi_2 = 1
    assert combinat.cancellation_sum(1) == 1


def test_cancellation_vanishes_up_to_bound():
    for k in range(2, combinat.CANCELLATION_MAX_K + 1):
        assert combinat.cancellation_sum(k) == 0


def test_cancellation_validation():
    with pytest.raises(ValueError):
        combinat.cancellation_sum(0)
    with pytest.raises(OverflowError):
        combinat.cancellation_sum(combinat.CANCELLATION_MAX_K + 1)


# --- parity identity ------------------------------------------------------------


def test_parity_identity_examples():
    assert combinat.parity_identity_check(4, 2)   # f=2, 2*4/2 = 4 = binom(4,3)
    assert combinat.parity_identity_check(3, 3)   # 1*1 = binom(3,3)
    assert combinat.parity_identity_check(7, 1)   # f(7,1)=5, 5*7 = 35 = binom(7,4)


def test_parity_identity_sweep():
    for m in range(1, 41):
        for r in range(1, m + 1):
            if (m - r) % 2 == 0:
                assert combinat.parity_identity_check(m, r)


def test_parity_identity_rejects_mismatch():
    with pytest.raises(ValueError):
        combinat.parity_identity_check(4, 1)


# --- inverse binomial matrix ------------------------------------------------------


def test_inverse_binomial_examples():
    assert combinat.inverse_binomial_matrix(1).rows == ((1,),)
    assert combinat.inverse_binomial_matrix(2).rows == ((1, 0), (-3, 1))
    assert combinat.inverse_binomial_matrix(3).rows[2] == (5, -5, 1)


def test_inverse_binomial_exact_identity():
    for k in range(1, 16):
        d = combinat.inverse_binomial_matrix(k)
        b = combinat._binomial_matrix(k)
        ident = combinat.LowerTriangularIntMatrix.identity(k)
        assert d.matmul(b) == ident
        assert b.matmul(d) == ident
        for i in range(k):
            poly = combinat.chebyshev_coeffs(2 * i + 1)
            for j in range(i + 1):
                assert d.entry(i, j) == poly[2 * j + 1]


def test_inverse_binomial_validation():
    with pytest.raises(ValueError):
        combinat.inverse_binomial_matrix(0)
    with pytest.raises(OverflowError):
        combinat.inverse_binomial_matrix(combinat.INVERSE_BINOMIAL_MAX_K + 1)


# --- IntPoly type ----------------------------------------------------------------


def test_intpoly_invariants():
    with pytest.raises(ValueError):
        combinat.IntPoly((1, 0))
    p = combinat.IntPoly.from_list([2, 0, -4, 0, 1, 0, 0])
    assert p.coeffs == (2, 0, -4, 0, 1)
    assert p[2] == -4 and p[9] == 0
    assert combinat.IntPoly.from_list([0, 0]).coeffs == ()


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10), st.floats(-2, 2))
def test_intpoly_horner_matches_powers(m, x):
    poly = combinat.chebyshev_coeffs(m)
    direct = sum(poly[i] * x**i for i in range(poly.degree + 1))
    assert poly(x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


# --- exact walk moments of the hollow ensemble ------------------------------------------


# E Tr (A/sqrt n)^j as (n-1) times a polynomial over n^(j/2-1), j = 2..10
WALK_MOMENTS = {
    2: lambda n: Fraction(n - 1),
    4: lambda n: Fraction((n - 1) * (2 * n - 1), n),
    6: lambda n: Fraction((n - 1) * (5 * n**2 - 3 * n + 1), n**2),
    8: lambda n: Fraction((n - 1) * (14 * n**3 - 5 * n**2 + 17 * n - 21), n**3),
    10: lambda n: Fraction(
        (n - 1) * (42 * n**4 + 8 * n**3 + 178 * n**2 - 262 * n + 21), n**4
    ),
}


def walk_moment_oracle(n: int, j: int) -> Fraction:
    """Sum of E prod A over every closed walk of length j on n vertices,
    one walk at a time: (m-1)!! per edge traversed m times, all m even."""
    total = 0
    for walk in itertools.product(range(n), repeat=j):
        mult: dict[tuple[int, int], int] = {}
        for x, y in zip(walk, walk[1:] + walk[:1]):
            if x == y:
                break
            edge = (min(x, y), max(x, y))
            mult[edge] = mult.get(edge, 0) + 1
        else:
            if all(m % 2 == 0 for m in mult.values()):
                total += math.prod(math.prod(range(m - 1, 0, -2)) for m in mult.values())
    return Fraction(total, n ** (j // 2))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 200, 10**6])
def test_walk_moments_equal_the_closed_forms(n):
    moments = combinat.walk_moments(n, combinat.WALK_MOMENT_MAX_J)
    for j, value in enumerate(moments, start=1):
        assert value == (WALK_MOMENTS[j](n) if j % 2 == 0 else 0), j


@pytest.mark.parametrize("n, jmax", [(2, 8), (3, 8), (4, 6)])
def test_walk_moments_match_walk_by_walk_oracle(n, jmax):
    assert combinat.walk_moments(n, jmax) == [
        walk_moment_oracle(n, j) for j in range(1, jmax + 1)
    ]


def test_walk_moment_leading_terms_are_catalan():
    for j in range(2, combinat.WALK_MOMENT_MAX_J + 1, 2):
        poly = combinat.walk_moment_poly(j)
        assert poly.degree == j // 2 + 1
        assert poly[poly.degree] == combinat.catalan_weight(j)


def test_walk_moment_bounds():
    assert combinat.walk_moment_poly(13) == combinat.IntPoly(())
    with pytest.raises(OverflowError):
        combinat.walk_moment_poly(combinat.WALK_MOMENT_MAX_J + 2)
    with pytest.raises(ValueError):
        combinat.walk_moment_poly(0)
    with pytest.raises(ValueError):
        combinat.walk_moments(0, 4)
