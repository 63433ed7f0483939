"""Signed cycles: the depth-first enumeration and the closed-form trace
identities against a naive nested-loop oracle, gauge invariance, and the
spectral-statistic bridge."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skcw import cycles
from skcw.cycles import (
    CycleSeries,
    _walk_sums,
    approx_residual,
    chebyshev_lss,
    chebyshev_trace,
    check_cycle_budget,
    cycle_series,
    exact_centering,
    lss_centering,
    signed_cycle_bruteforce,
    signed_cycle_c1,
)
from skcw.randmat import (
    SeedSpec,
    gauge_conjugate,
    power_traces,
    random_spins,
    sample_gaussian_matrix,
)


def oracle_cycle(a: np.ndarray, k: int) -> float:
    """Sum over ordered tuples of k distinct indices, literally."""
    n = a.shape[0]
    total = 0.0
    for tup in itertools.permutations(range(n), k):
        prod = 1.0
        for x, y in zip(tup, tup[1:] + (tup[0],)):
            prod *= a[x, y]
        total += prod
    return total / n ** (k / 2.0)


def symmetric_int_matrix(n: int, seed: int, hollow: bool = True) -> np.ndarray:
    """Small-integer symmetric matrix: float arithmetic on it is exact."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(n, n)).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    if not hollow:
        a[np.diag_indices(n)] = rng.integers(-3, 4, size=n)
    return a


# --- brute force vs the nested-loop oracle -----------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bruteforce_matches_oracle_exactly_on_integers(n, k):
    if k > n:
        pytest.skip("k exceeds n")
    a = symmetric_int_matrix(n, 100 + n * 10 + k, hollow=False)
    expect = oracle_cycle(a, k)
    assert signed_cycle_bruteforce(a, k, method="dfs") == expect
    assert signed_cycle_bruteforce(a, k) == expect


def test_cycle_series_matches_oracle_exactly_through_the_dfs_tail():
    """kmax = 6 runs the closed forms for k <= 5 and the DFS for k = 6 in
    one series; on small integers every value is exact."""
    a = symmetric_int_matrix(7, 176, hollow=False)
    series = cycle_series(a, 6)
    for k in range(2, 7):
        assert series.value(k) == oracle_cycle(a, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=5, max_value=9), st.integers(min_value=0, max_value=10_000))
def test_closed_forms_equal_dfs_exactly_on_integers(n, seed):
    a = symmetric_int_matrix(n, seed, hollow=seed % 2 == 0)
    for k in (2, 3, 4, 5):
        assert signed_cycle_bruteforce(a, k) == signed_cycle_bruteforce(a, k, method="dfs")


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bruteforce_matches_oracle_on_gaussian(k):
    a = sample_gaussian_matrix(6, SeedSpec(5, k))
    expect = oracle_cycle(a, k)
    assert signed_cycle_bruteforce(a, k, method="dfs") == pytest.approx(expect, rel=1e-12)
    assert signed_cycle_bruteforce(a, k) == pytest.approx(expect, rel=1e-12)


def test_walks_match_dfs_at_moderate_size():
    a = sample_gaussian_matrix(16, SeedSpec(6, 0))
    for k in (2, 3, 4, 5):
        assert signed_cycle_bruteforce(a, k) == pytest.approx(
            signed_cycle_bruteforce(a, k, method="dfs"), rel=1e-10
        )


def test_triangle_hand_value():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    a[0, 2] = a[2, 0] = 2.0
    a[1, 2] = a[2, 1] = 3.0
    assert signed_cycle_bruteforce(a, 3) == pytest.approx(36 / 3**1.5, rel=1e-12)


def test_k2_is_offdiagonal_square_sum():
    a = sample_gaussian_matrix(12, SeedSpec(7, 0))
    n = a.shape[0]
    direct = sum(
        a[i, j] ** 2 for i in range(n) for j in range(n) if i != j
    ) / n
    assert signed_cycle_bruteforce(a, 2) == pytest.approx(direct, rel=1e-12)


def test_bruteforce_validation():
    a = sample_gaussian_matrix(6, SeedSpec(8, 0))
    with pytest.raises(ValueError):
        signed_cycle_bruteforce(a, 1)
    with pytest.raises(ValueError):
        signed_cycle_bruteforce(a, 7)
    with pytest.raises(ValueError):
        signed_cycle_bruteforce(a, 6, budget=10, method="dfs")
    with pytest.raises(ValueError):
        signed_cycle_bruteforce(a, 4, method="bogus")
    with pytest.raises(ValueError):
        signed_cycle_bruteforce(a, 4, method="walks")


def test_budget_gates_each_method_by_its_cost():
    a = sample_gaussian_matrix(30, SeedSpec(8, 1))
    # closed forms cost 2 n^3, the dfs 100 n^k; the budget applies to the method used
    with pytest.raises(ValueError):
        signed_cycle_bruteforce(a, 4, budget=1e3)
    with pytest.raises(ValueError):
        cycle_series(a, 4, budget=1e3)
    assert signed_cycle_bruteforce(a, 4, budget=4 * 30**3 + 1) == pytest.approx(
        signed_cycle_bruteforce(a, 4), rel=1e-15
    )


def test_closed_form_budget_charges_two_products():
    """2 n^3 for k <= 5: n = 585 fits the default budget (min(kmax, 5) n^3
    refused it), n = 800 does not, and k = 6 still pays n^6."""
    a = sample_gaussian_matrix(585, SeedSpec(8, 2))
    assert len(cycle_series(a, 5).values) == 5
    with pytest.raises(ValueError, match="2\\*n\\^3"):
        check_cycle_budget(800, 5)
    with pytest.raises(ValueError, match="n\\^6"):
        check_cycle_budget(40, 6)


def test_c1_examples():
    assert signed_cycle_c1(sample_gaussian_matrix(5, SeedSpec(9, 0), hollow=True)) == 0.0
    assert signed_cycle_c1(np.diag([1.0, 2.0, 3.0])) == pytest.approx(6 / math.sqrt(3))
    assert signed_cycle_c1(np.eye(4)) == 2.0


# --- gauge invariance ---------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gauge_invariance_of_cycles(seed):
    a = sample_gaussian_matrix(10, SeedSpec(11, seed))
    sigma = random_spins(10, SeedSpec(12, seed))
    conj = gauge_conjugate(a, sigma)
    for k in (2, 3, 4, 5):
        assert signed_cycle_bruteforce(conj, k) == pytest.approx(
            signed_cycle_bruteforce(a, k), rel=1e-9, abs=1e-12
        )
    assert signed_cycle_c1(conj) == pytest.approx(signed_cycle_c1(a), rel=1e-12)


# --- cycle series ----------------------------------------------------------------


def test_cycle_series_matches_individual_calls():
    a = sample_gaussian_matrix(20, SeedSpec(13, 0))
    series = cycle_series(a, 5)
    assert series.value(1) == signed_cycle_c1(a)
    for k in range(2, 6):
        assert series.value(k) == pytest.approx(
            signed_cycle_bruteforce(a, k), rel=1e-12
        )
        assert signed_cycle_bruteforce(a, k) == cycle_series(a, k).value(k)
    assert series.centered_value(2) == pytest.approx(series.value(2) - 19, rel=1e-12)
    assert series.centered_value(3) == series.value(3)
    b = sample_gaussian_matrix(7, SeedSpec(13, 1))
    assert signed_cycle_bruteforce(b, 6) == cycle_series(b, 6).value(6)


def test_cycle_series_validation():
    a = sample_gaussian_matrix(4, SeedSpec(14, 0))
    with pytest.raises(ValueError):
        cycle_series(a, 5)
    with pytest.raises(ValueError):
        CycleSeries(n=3, values=(0.0, 0.0, 0.0, 0.0))


# --- spectral statistics ------------------------------------------------------------


def test_lss_equals_cycle_at_k3():
    for seed in range(10):
        a = sample_gaussian_matrix(5, SeedSpec(15, seed), hollow=True)
        assert chebyshev_lss(a, 3) == pytest.approx(
            signed_cycle_bruteforce(a, 3), rel=1e-9, abs=1e-12
        )


def test_lss_hand_values():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert chebyshev_lss(a, 2) == pytest.approx(-3.0, rel=1e-12)
    assert chebyshev_lss(a, 1) == 0.0
    h = sample_gaussian_matrix(30, SeedSpec(16, 0), hollow=True)
    assert chebyshev_lss(h, 1) == 0.0


def test_chebyshev_trace_from_shared_traces_equals_lss_bit_for_bit():
    """One set of power traces up to k=5 serves k=3, 4, 5 exactly as the
    per-k evaluation does."""
    for n in (20, 50, 200):
        a = sample_gaussian_matrix(n, SeedSpec(31, n), hollow=True)
        traces = power_traces(a / math.sqrt(n), 5)
        for k in (3, 4, 5):
            assert chebyshev_trace(traces, n, k) == chebyshev_lss(a, k)


@pytest.mark.parametrize("n", [9, 12, 250])
def test_walk_core_traces_equal_power_traces(n):
    """The traces read from the cycle products equal ``power_traces`` of
    A/sqrt n, and the k = 3 residual vanishes."""
    a = sample_gaussian_matrix(n, SeedSpec(32, n), hollow=True)
    want = power_traces(a / math.sqrt(n), 7)
    for kmax in range(3, 8):
        _, walks = _walk_sums(a, kmax, traces=True)
        got = [t / n ** (j / 2.0) for j, t in enumerate(walks, start=1)]
        np.testing.assert_allclose(got, want[:kmax], rtol=1e-12, atol=1e-12)
    series = cycle_series(a, 7 if n < 10 else 5, traces=True)
    np.testing.assert_allclose(series.traces, want[: series.kmax], rtol=1e-12, atol=1e-12)
    assert abs(series.value(3) - chebyshev_trace(series.traces, n, 3)) <= 1e-12


def test_walk_core_spends_no_product_on_unrequested_traces(monkeypatch):
    """Without traces, a series beyond k = 5 still takes only G = A A and
    G A; the traces up to k = 7 add A^4 and nothing else."""
    calls = []

    class CountingArray(np.ndarray):
        def __matmul__(self, other):
            calls.append(1)
            return np.asarray(self) @ np.asarray(other)

        def __rmatmul__(self, other):
            calls.append(1)
            return np.asarray(other) @ np.asarray(self)

    real = cycles.hollowed
    monkeypatch.setattr(cycles, "hollowed", lambda a: real(a).view(CountingArray))
    a = sample_gaussian_matrix(7, SeedSpec(33, 0), hollow=True)
    assert cycle_series(a, 7).traces == ()
    assert len(calls) == 2
    assert len(cycle_series(a, 7, traces=True).traces) == 7
    assert len(calls) == 2 + 3


def test_traced_series_is_priced_by_the_cycle_budget(monkeypatch):
    """2 * 1600^3 exceeds the default operation budget: traced or not, the
    series refuses before any matrix product.  A budget raised to 1e11
    admits the traced series; no second, hidden budget refuses it."""

    def no_products(m, depth):
        raise AssertionError("matrix product taken")

    monkeypatch.setattr(cycles, "matrix_powers", no_products)
    with pytest.raises(ValueError, match="operation budget"):
        cycle_series(np.zeros((1600, 1600)), 5, traces=True)
    with pytest.raises(ValueError, match="operation budget"):
        cycle_series(np.zeros((1600, 1600)), 5)
    # traces at kmax = 1 still take G = A A, and are charged for it
    with pytest.raises(ValueError, match="operation budget"):
        cycle_series(np.zeros((1600, 1600)), 1, traces=True)
    with pytest.raises(AssertionError, match="matrix product taken"):
        cycle_series(np.zeros((1600, 1600)), 5, budget=1e11, traces=True)


def test_depth_first_terms_are_charged_their_cost(monkeypatch):
    """Each DFS term costs ``DFS_TERM_COST``: n = 30 at k = 6 (minutes of
    pure-Python enumeration) and the n = 15, k = 6 reference are refused at
    the default budget before any term is enumerated."""
    assert cycles.DFS_TERM_COST == 100
    with pytest.raises(ValueError, match="operation budget"):
        check_cycle_budget(30, 6)

    def no_enumeration(at, k):
        raise AssertionError("depth-first enumeration started")

    monkeypatch.setattr(cycles, "_dfs_cycle_sum", no_enumeration)
    a = sample_gaussian_matrix(15, SeedSpec(8, 3))
    with pytest.raises(ValueError, match="operation budget"):
        signed_cycle_bruteforce(a, 6, method="dfs")


def test_lss_requires_hollow():
    with pytest.raises(ValueError):
        chebyshev_lss(np.eye(3), 2)


def test_lss_centering_odd_is_exactly_zero():
    for k in (3, 5):
        est = lss_centering(50, k, reps=1, seed=SeedSpec(17, 0))
        assert est.value == 0.0 and est.stderr == 0.0 and est.replicates == 0


def test_lss_centering_even_matches_exact_mean():
    """The Monte Carlo centering agrees with the exact one at k = 4 and 6."""
    n = 40
    for k in (4, 6):
        est = lss_centering(n, k, reps=600, seed=SeedSpec(18, 0))
        assert est.replicates == 600
        assert abs(est.value - exact_centering(n, k)) < 4 * est.stderr, k


@pytest.mark.parametrize("n", [2, 5, 40, 200])
def test_exact_centering_at_k4_is_one_plus_one_over_n(n):
    """E[Tr P_4(A/sqrt n)] = 1 + 1/n for the hollow Gaussian ensemble: the
    closed walks of length four collapse onto 2n(n-1)(n-2) + 3n(n-1) paired
    patterns, so E Tr(A/sqrt n)^4 = (n-1)(2n-1)/n, and the P_4 = x^4-4x^2+2
    combination leaves 1 + 1/n."""
    assert exact_centering(n, 4) == float(Fraction(n + 1, n))


def test_exact_centering_odd_is_zero_and_even_is_bounded():
    for k in (1, 3, 5, 13):
        assert exact_centering(30, k) == 0.0
    assert exact_centering(30, 2) == -31.0  # P_2 = x^2 - 2: (n - 1) - 2n
    with pytest.raises(OverflowError):
        exact_centering(30, 12)


def test_lss_centering_self_consistency():
    small = lss_centering(30, 4, reps=200, seed=SeedSpec(19, 0))
    large = lss_centering(30, 4, reps=800, seed=SeedSpec(19, 10_000))
    gap = math.hypot(small.stderr, large.stderr)
    assert abs(small.value - large.value) < 4 * gap


def test_lss_centering_validation():
    with pytest.raises(ValueError):
        lss_centering(20, 4, reps=0, seed=SeedSpec(20, 0))


# --- approximation residual ----------------------------------------------------------


def test_residual_zero_at_k3():
    for seed in range(10):
        a = sample_gaussian_matrix(6, SeedSpec(21, seed), hollow=True)
        assert abs(approx_residual(a, 3, 0.0)) < 1e-9


def test_residual_small_at_k5():
    a = sample_gaussian_matrix(60, SeedSpec(22, 0), hollow=True)
    res = approx_residual(a, 5, 0.0)
    assert abs(res) < math.sqrt(2 * 5)


def test_residual_validation():
    a = sample_gaussian_matrix(6, SeedSpec(23, 0), hollow=True)
    with pytest.raises(ValueError):
        approx_residual(a, 2, 0.0)
    with pytest.raises(ValueError, match="zero diagonal"):
        approx_residual(np.eye(6), 4, 0.0)
