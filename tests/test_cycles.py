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

from skcw import combinat, cycles
from skcw.cycles import (
    _walk_sums,
    chebyshev_lss,
    chebyshev_trace,
    check_cycle_budget,
    cycle_series,
    exact_centering,
    lss_centering,
    signed_cycle_bruteforce,
    signed_cycle_c1,
)
from skcw.gibbs import ModelParams, decomposition_residual
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
    a = symmetric_int_matrix(n, 100 + n * 10 + k, hollow=False)
    if k > n:  # no k-cycle of distinct indices: both methods refuse
        for method in ("auto", "dfs"):
            with pytest.raises(ValueError, match="need 2 <= k <= n"):
                signed_cycle_bruteforce(a, k, method=method)
        return
    expect = oracle_cycle(a, k)
    assert signed_cycle_bruteforce(a, k, method="dfs") == expect
    assert signed_cycle_bruteforce(a, k) == expect


def test_dfs_oracle_is_exact_beyond_the_closed_forms():
    """The series stops at the closed forms' k = 5; the DFS reference still
    gives k = 6, and on small integers every value is exact."""
    a = symmetric_int_matrix(7, 176, hollow=False)
    series = cycle_series(a, 5)
    for k in range(2, 6):
        assert series.values[k - 1] == oracle_cycle(a, k)
    assert signed_cycle_bruteforce(a, 6, method="dfs") == oracle_cycle(a, 6)


def test_depth_six_is_refused_before_any_work(monkeypatch):
    """k = 6 is beyond the closed-form bound on the run path: the series,
    the default bruteforce and the guard refuse it with one message,
    before any matrix product or depth-first term, whatever the budget."""

    def no_work(*args):
        raise AssertionError("cycle work started")

    monkeypatch.setattr(cycles, "_gram", no_work)
    monkeypatch.setattr(cycles, "_dfs_cycle_sum", no_work)
    a = symmetric_int_matrix(7, 176)
    for refused in (
        lambda: cycle_series(a, 6),
        lambda: cycle_series(a, 6, budget=math.inf),
        lambda: signed_cycle_bruteforce(a, 6),
        lambda: check_cycle_budget(7, 6),
    ):
        with pytest.raises(ValueError, match="k=6 exceeds the closed-form bound 5"):
            refused()


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
    """2 n^3 at every k <= 5: n = 585 fits the default budget at k = 5
    (min(kmax, 5) n^3 refused it), and at every k n = 793 fits and n = 794
    does not.  Up to k = 2 no product is taken, but the one price keeps the
    series' n x n arrays within memory; k = 6 has no price, it is beyond
    the closed forms."""
    a = sample_gaussian_matrix(585, SeedSpec(8, 2))
    assert len(cycle_series(a, 5).values) == 5
    for kmax in range(1, 6):
        check_cycle_budget(793, kmax)
        with pytest.raises(ValueError, match="2\\*n\\^3"):
            check_cycle_budget(794, kmax)
    with pytest.raises(ValueError, match="closed-form bound"):
        check_cycle_budget(40, 6)


def test_nan_budget_admits_nothing_and_inf_everything():
    for kmax in (1, 2, 5):
        with pytest.raises(ValueError, match="operation budget nan"):
            check_cycle_budget(10, kmax, math.nan)
        check_cycle_budget(10**6, kmax, math.inf)
    a = symmetric_int_matrix(7, 3)
    with pytest.raises(ValueError, match="operation budget nan"):
        signed_cycle_bruteforce(a, 3, budget=math.nan, method="dfs")
    with pytest.raises(ValueError, match="operation budget nan"):
        cycle_series(a, 1, budget=math.nan)


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
    """One matrix gives (kmax,) arrays whose entry k - 1 is C_{n,k}, and
    the default bruteforce reads that entry as a float."""
    a = sample_gaussian_matrix(20, SeedSpec(13, 0))
    series = cycle_series(a, 5)
    assert series.values.shape == series.traces.shape == (5,)
    assert series.values[0] == signed_cycle_c1(a)
    for k in range(2, 6):
        value = signed_cycle_bruteforce(a, k)
        assert type(value) is float and value == series.values[k - 1]
        assert value == cycle_series(a, k).values[k - 1]
    # the decomposition centers C_{n,2} by n - 1 and C_{n,3} not at all
    p = ModelParams(beta=0.2, n=20)
    steps = np.diff([decomposition_residual(p, m, 0.0, series.values) for m in (1, 2, 3)])
    mu2, mu3 = 0.4**2, 0.4**3
    assert steps[0] == pytest.approx(-(2 * mu2 * (series.values[1] - 19) - mu2**2) / 8)
    assert steps[1] == pytest.approx(-(2 * mu3 * series.values[2] - mu3**2) / 12)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
@pytest.mark.parametrize("hollow", [False, True])
def test_stacked_cycle_series_equals_singles(n, hollow):
    """A stack's series are bit for bit those of its matrices alone, at
    every kmax from 1 to 5, on plain and hollow matrices: each row of the
    (B, kmax) arrays a run reads is the (kmax,) arrays of its matrix, and
    one matrix's arrays are row 0 of its one-element stack."""
    a = sample_gaussian_matrix(n, SeedSpec(44, 0), hollow=hollow, count=4)
    for kmax in range(1, min(n, 5) + 1):
        stacked = cycle_series(a, kmax)
        assert stacked.values.shape == stacked.traces.shape == (4, kmax)
        for i, m in enumerate(a):
            single = cycle_series(m, kmax)
            one = cycle_series(m[None], kmax)
            assert single.values.shape == single.traces.shape == (kmax,)
            assert single.values.tobytes() == stacked.values[i].tobytes()
            assert single.traces.tobytes() == stacked.traces[i].tobytes()
            assert one.values.shape == one.traces.shape == (1, kmax)
            assert single.values.tobytes() == one.values[0].tobytes()
            assert single.traces.tobytes() == one.traces[0].tobytes()
    assert signed_cycle_c1(a).tolist() == [signed_cycle_c1(m) for m in a]


@pytest.mark.parametrize("n", [3, 12, 52, 200])
def test_shallower_series_is_a_prefix_of_a_deeper_one(n):
    """Each walk trace has one formula at every kmax, so the values and
    traces at depth k are bit for bit the first k columns at any depth
    K >= k, for a stack and for a single matrix, plain or hollow."""
    top = min(n, 5)
    for hollow in (False, True):
        a = sample_gaussian_matrix(n, SeedSpec(45, 0), hollow=hollow, count=3)
        for x in (a, a[0]):
            series = [cycle_series(x, k) for k in range(1, top + 1)]
            for k, shallow in enumerate(series, start=1):
                for deep in series[k:]:
                    assert shallow.values.tobytes() == deep.values[..., :k].tobytes()
                    assert shallow.traces.tobytes() == deep.traces[..., :k].tobytes()


def test_cycle_series_validation():
    """kmax cannot exceed n (the indices must be distinct), for one matrix
    and for a stack."""
    a = sample_gaussian_matrix(4, SeedSpec(14, 0))
    with pytest.raises(ValueError):
        cycle_series(a, 5)
    for zeros in (np.zeros((3, 3)), np.zeros((2, 3, 3))):
        with pytest.raises(ValueError, match="need 1 <= kmax <= n"):
            cycle_series(zeros, 4)


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
    per-k evaluation does, and the transposed traces of a stack give, in
    one call, each matrix's value bit for bit."""
    for n in (20, 50, 200):
        a = sample_gaussian_matrix(n, SeedSpec(31, n), hollow=True)
        traces = power_traces(a / math.sqrt(n), 5)
        stack = cycle_series(
            sample_gaussian_matrix(n, SeedSpec(31, 0), hollow=True, count=3), 5
        )
        for k in (3, 4, 5):
            assert chebyshev_trace(traces, n, k) == chebyshev_lss(a, k)
            rows = chebyshev_trace(stack.traces.T, n, k)
            assert rows.shape == (3,)
            assert rows.tolist() == [chebyshev_trace(t, n, k) for t in stack.traces]


@pytest.mark.parametrize("n", [9, 12, 250])
def test_walk_core_traces_equal_power_traces(n):
    """The traces read from the cycle products equal ``power_traces`` of
    A/sqrt n, and the k = 3 residual vanishes."""
    a = sample_gaussian_matrix(n, SeedSpec(32, n), hollow=True)
    want = power_traces(a / math.sqrt(n), 5)
    for kmax in range(1, 6):
        _, walks = _walk_sums(a, kmax)
        got = [t / n ** (j / 2.0) for j, t in enumerate(walks, start=1)]
        np.testing.assert_allclose(got, want[:kmax], rtol=1e-12, atol=1e-12)
        assert len(cycle_series(a, kmax).traces) == kmax
    series = cycle_series(a, 5)
    np.testing.assert_allclose(series.traces, want, rtol=1e-12, atol=1e-12)
    assert abs(series.values[2] - chebyshev_trace(series.traces, n, 3)) <= 1e-12


@pytest.mark.parametrize("kmax, products", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)])
def test_walk_core_products_per_kmax(monkeypatch, kmax, products):
    """S_2 = sum a_ij^2 takes no matrix product; k = 3, 4 take the Gram
    product G = A A^T and k = 5 also A^4 = G G^T.  The traces up to kmax
    come from the same products."""
    calls = []
    real = cycles._gram

    def counting_gram(x):
        calls.append(x.shape)
        return real(x)

    monkeypatch.setattr(cycles, "_gram", counting_gram)
    a = sample_gaussian_matrix(7, SeedSpec(33, 0), hollow=True)
    series = cycle_series(a, kmax)
    assert len(series.values) == len(series.traces) == kmax
    assert calls == [(1, 7, 7)] * products


def test_gram_products_are_symmetric_and_equal_general_products():
    """x x^T of one matrix and of each matrix of a stack is exactly
    symmetric, the same bits for a matrix alone and in a stack, and equal
    to the general product to rounding."""
    a = sample_gaussian_matrix(40, SeedSpec(34, 0), hollow=True, count=3)
    g = cycles._gram(a)
    assert np.array_equal(g, g.swapaxes(1, 2))
    for m, gm in zip(a, g):
        assert cycles._gram(m).tobytes() == gm.tobytes()
        np.testing.assert_allclose(gm, m @ m, rtol=1e-12, atol=1e-12)


def test_traced_series_is_priced_by_the_cycle_budget(monkeypatch):
    """Every series carries its traces.  2 * 1600^3 exceeds the default
    operation budget, so a series refuses before taking a product; a budget
    raised to 1e11 admits it, and no second, hidden budget refuses it.  Up
    to kmax = 2 the traces take no product, and the same 2 n^3 price admits
    n = 793 and refuses n = 794."""

    def no_products(x):
        raise AssertionError("matrix product taken")

    monkeypatch.setattr(cycles, "_gram", no_products)
    for kmax in (3, 5):
        with pytest.raises(ValueError, match="operation budget"):
            cycle_series(np.zeros((1600, 1600)), kmax)
    for kmax in (1, 2):
        assert cycle_series(np.zeros((793, 793)), kmax).traces.tolist() == [0.0] * kmax
        with pytest.raises(ValueError, match="operation budget"):
            cycle_series(np.zeros((794, 794)), kmax)
        traces = cycle_series(np.zeros((1600, 1600)), kmax, budget=1e11).traces
        assert traces.tolist() == [0.0] * kmax
    with pytest.raises(AssertionError, match="matrix product taken"):
        cycle_series(np.zeros((1600, 1600)), 5, budget=1e11)


def test_asymmetric_input_refused_before_any_product(monkeypatch):
    """The closed forms hold for a symmetric A only: ``cycle_series`` and the
    default ``signed_cycle_bruteforce`` refuse a matrix or a stack with one
    entry off its mirror, before any product, and the DFS reference still
    sums any square matrix."""
    a = symmetric_int_matrix(6, 40)
    a[1, 4] += 1.0
    stack = np.stack([symmetric_int_matrix(6, 41), a])

    def no_products(x):
        raise AssertionError("matrix product taken")

    monkeypatch.setattr(cycles, "_gram", no_products)
    for refused in (
        lambda: cycle_series(a, 3),
        lambda: cycle_series(stack, 5),
        lambda: cycle_series(a, 1, budget=math.inf),
        lambda: signed_cycle_bruteforce(a, 4),
    ):
        with pytest.raises(ValueError, match="matrix must be exactly symmetric"):
            refused()
    assert signed_cycle_bruteforce(a, 4, method="dfs") == oracle_cycle(a, 4)


def test_hollow_and_plain_draws_give_the_same_cycles():
    """Every input is hollowed before the products, so a hollow draw and
    the plain draw of its stream give the same off-diagonal cycles and the
    same walk traces."""
    plain = cycle_series(sample_gaussian_matrix(9, SeedSpec(35, 0)), 5)
    hollow = cycle_series(sample_gaussian_matrix(9, SeedSpec(35, 0), hollow=True), 5)
    assert np.array_equal(hollow.values[1:], plain.values[1:])
    assert np.array_equal(hollow.traces, plain.traces)


def test_depth_first_terms_are_charged_their_cost(monkeypatch):
    """Each term of the DFS reference costs ``DFS_TERM_COST``: the n = 15,
    k = 6 reference is refused at the default budget before any term is
    enumerated."""
    assert cycles.DFS_TERM_COST == 100

    def no_enumeration(at, k):
        raise AssertionError("depth-first enumeration started")

    monkeypatch.setattr(cycles, "_dfs_cycle_sum", no_enumeration)
    a = sample_gaussian_matrix(15, SeedSpec(8, 3))
    with pytest.raises(ValueError, match="operation budget"):
        signed_cycle_bruteforce(a, 6, method="dfs")


def test_lss_requires_hollow():
    with pytest.raises(ValueError):
        chebyshev_lss(np.eye(3), 2)
    with pytest.raises(ValueError, match="kmax must be positive"):
        chebyshev_lss(sample_gaussian_matrix(5, SeedSpec(3, 0), hollow=True), 0)


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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 50, 100, 200, 1000, 12345])
def test_exact_centering_is_the_rounded_rational_centering(n):
    """The integer sum over n^(k/2) rounds once, as the Chebyshev
    combination of the Fraction moments does: the same float at every k."""
    for k in range(1, combinat.WALK_MOMENT_MAX_J + 1):
        exact = chebyshev_trace(combinat.walk_moments(n, k), n, k)
        assert exact_centering(n, k) == float(exact), k


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
