"""Thermodynamics: enumeration oracles, likelihood-ratio equivalences,
convexity and gauge symmetries, limit-law targets."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skcw import gibbs
from skcw.cycles import cycle_series
from skcw.gibbs import (
    ModelParams,
    check_enumeration,
    clt_targets,
    curie_weiss_tau,
    decomposition_residual,
    exact_log_partition,
    hamiltonian,
    interaction_matrix,
    rn_log_ratio,
    second_moment_target,
)
from skcw.randmat import SeedSpec, gauge_conjugate, random_spins, sample_gaussian_matrix


def spins_iter(n):
    for bits in itertools.product((-1.0, 1.0), repeat=n):
        yield np.array(bits)


def mixture_log_ratio_oracle(a: np.ndarray, params: ModelParams) -> float:
    """Independent route to the log likelihood ratio: average the per-spin
    tilted densities over the hypercube, then divide by the mean-field
    normalizer.  Enumerates all 2^n spin vectors directly."""
    n = params.n
    beta = params.beta
    iu = np.triu_indices(n, 1)
    vals = []
    for sigma in spins_iter(n):
        pair = float(((sigma[:, None] * sigma[None, :]) * a)[iu].sum())
        vals.append(
            2 * beta / math.sqrt(n) * pair
            - 2 * beta**2 / n * len(iu[0])
            + beta * params.J / n * sigma.sum() ** 2
        )
    vals = np.array(vals)
    top = vals.max()
    log_mixture = top + math.log(np.exp(vals - top).sum()) - n * math.log(2)
    return log_mixture - math.log(curie_weiss_tau(n, beta * params.J))


# --- Hamiltonian -----------------------------------------------------------------


def test_hamiltonian_n1():
    a = np.array([[1.7]])
    p = ModelParams(beta=0.3, J=2.0, Jprime=0.5, n=1)
    assert hamiltonian(a, p, np.array([1.0])) == pytest.approx(1.7 + 0.5)
    assert hamiltonian(a, p, np.array([-1.0])) == pytest.approx(1.7 + 0.5)


def test_hamiltonian_n2_hand():
    w = 0.9
    a = np.array([[0.0, w], [w, 0.0]])
    p = ModelParams(beta=0.2, J=0.0, Jprime=0.0, n=2)
    assert hamiltonian(a, p, np.ones(2)) == pytest.approx(2 * w / math.sqrt(2))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=7))
def test_hamiltonian_flip_identity(seed, i):
    n = 8
    a = sample_gaussian_matrix(n, SeedSpec(31, seed))
    p = ModelParams(beta=0.3, J=0.7, Jprime=0.4, n=n)
    sigma = random_spins(n, SeedSpec(32, seed))
    m = interaction_matrix(a, p)
    flipped = sigma.copy()
    flipped[i] = -flipped[i]
    delta = hamiltonian(a, p, flipped) - hamiltonian(a, p, sigma)
    local = -4.0 * sigma[i] * (m[i] @ sigma - m[i, i] * sigma[i])
    assert delta == pytest.approx(local, rel=1e-9, abs=1e-9)


def test_hamiltonian_dimension_mismatch():
    a = sample_gaussian_matrix(4, SeedSpec(33, 0))
    with pytest.raises(ValueError):
        hamiltonian(a, ModelParams(beta=0.1, n=4), np.ones(3))
    with pytest.raises(ValueError):
        hamiltonian(a, ModelParams(beta=0.1, n=5), np.ones(5))


# --- exact log partition -----------------------------------------------------------


def test_log_partition_zero_beta():
    a = sample_gaussian_matrix(9, SeedSpec(34, 0))
    p = ModelParams(beta=0.0, J=1.0, Jprime=0.3, n=9)
    for method in ("split", "gray", "naive"):
        assert exact_log_partition(a, p, method=method) == pytest.approx(0.0, abs=1e-13)


def test_log_partition_n2_logcosh():
    w = 0.8
    a = np.array([[0.0, w], [w, 0.0]])
    p = ModelParams(beta=0.35, J=0.0, Jprime=0.0, n=2)
    expect = math.log(math.cosh(2 * 0.35 * w / math.sqrt(2)))
    for method in ("split", "gray", "naive"):
        assert exact_log_partition(a, p, method=method) == pytest.approx(expect, rel=1e-12)


def test_gray_matches_naive_twenty_instances():
    rng_sizes = [4, 6, 8, 10, 12] * 4
    for idx, n in enumerate(rng_sizes):
        a = sample_gaussian_matrix(n, SeedSpec(35, idx))
        p = ModelParams(beta=0.25, J=1.0, Jprime=0.2, n=n)
        g = exact_log_partition(a, p, method="gray")
        v = exact_log_partition(a, p, method="naive")
        assert g == pytest.approx(v, rel=1e-10)


def test_split_matches_gray():
    for idx, n in enumerate([5, 9, 13, 14]):
        a = sample_gaussian_matrix(n, SeedSpec(36, idx))
        p = ModelParams(beta=0.3, J=0.5, Jprime=0.0, n=n)
        assert exact_log_partition(a, p, method="split") == pytest.approx(
            exact_log_partition(a, p, method="gray"), rel=1e-11
        )


@pytest.mark.parametrize("n", [9, 12, 13])
@pytest.mark.parametrize("scale", [300.0, 1000.0])
def test_split_matches_gray_on_scaled_couplings(scale, n):
    """Far outside the paramagnetic regime a row's largest cross term and
    the largest second-half energy fall in different columns, and the
    split kernel's row sums underflow unless such rows take their own
    exact shift."""
    a = scale * sample_gaussian_matrix(n, SeedSpec(37, n))
    p = ModelParams(beta=0.25, J=1.0, Jprime=0.2, n=n)
    assert exact_log_partition(a, p, method="split") == pytest.approx(
        exact_log_partition(a, p, method="gray"), rel=1e-11
    )


@pytest.mark.parametrize("n", [16, 18])
def test_split_matches_naive_at_chunked_sizes(n):
    a = sample_gaussian_matrix(n, SeedSpec(38, n))
    p = ModelParams(beta=0.3, J=0.5, Jprime=0.1, n=n)
    assert exact_log_partition(a, p, method="split") == pytest.approx(
        exact_log_partition(a, p, method="naive"), rel=1e-11
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 19, 20])
def test_split_matches_naive_at_every_block_shape(n):
    """n = 2 has empty a and u blocks, n = 20 unequal u and w blocks."""
    a = sample_gaussian_matrix(n, SeedSpec(39, n))
    p = ModelParams(beta=0.3, J=0.5, Jprime=0.1, n=n)
    assert exact_log_partition(a, p, method="split") == pytest.approx(
        exact_log_partition(a, p, method="naive"), rel=1e-11
    )


def test_split_block_tables_are_cached_read_only():
    """The block spin tables, their pair tables, whose row i*k + j holds
    s_i * s_j for each row s of a k-column block table, and the transposed
    u and w tables with a row of ones appended."""
    tables = gibbs._block_tables(12)
    pairs = gibbs._pair_tables(12)
    augmented = gibbs._augmented_tables(12)
    assert gibbs._block_tables(12) is tables
    assert gibbs._pair_tables(12) is pairs
    assert gibbs._augmented_tables(12) is augmented
    assert sum(t.shape[1] for t in tables) == 12
    for table, pair in zip(tables, pairs):
        k = table.shape[1]
        assert pair.shape == (k * k, len(table))
        for i, j in itertools.product(range(k), repeat=2):
            assert pair[i * k + j].tolist() == (table[:, i] * table[:, j]).tolist()
    for table, aug in zip(tables[1:], augmented):
        assert aug.tolist() == table.T.tolist() + [[1.0] * len(table)]
    for table in tables + pairs + augmented:
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


@pytest.mark.parametrize("n, free", [(2, (0, 1, 0)), (12, (3, 4, 4)), (16, (5, 5, 5)),
                                     (20, (6, 7, 6)), (24, (7, 8, 8)), (28, (9, 9, 9))])
def test_split_blocks_give_u_the_larger_half(n, free):
    """a takes floor((n-1)/3) free spins beside the pinned one, and u the
    larger half of the rest, so X and V are the larger tables."""
    ta, tu, tw = gibbs._block_tables(n)
    assert (ta.shape[1] - 1, tu.shape[1], tw.shape[1]) == free
    assert (len(ta), len(tu), len(tw)) == tuple(1 << k for k in free)


@pytest.mark.parametrize("n", range(1, 29))
def test_stacked_log_partition_equals_singles(n):
    """A stack's log Z values are bit for bit those of its matrices alone,
    at every block shape up to the enumeration bound, the empty blocks of
    n = 2 and 3 included."""
    a = sample_gaussian_matrix(n, [SeedSpec(40, r) for r in range(3)])
    p = ModelParams(beta=0.3, J=0.5, Jprime=0.1, n=n)
    stacked = exact_log_partition(a, p)
    assert stacked.shape == (3,)
    assert stacked.tolist() == [exact_log_partition(a[i], p) for i in range(3)]


def test_stacked_log_partition_is_independent_of_the_sub_stacks(monkeypatch):
    """The split kernel's sub-stacks, down to one matrix each, leave every
    value unchanged."""
    a = sample_gaussian_matrix(16, [SeedSpec(41, r) for r in range(25)])
    p = ModelParams(beta=0.25, J=1.0, Jprime=0.0, n=16)
    whole = exact_log_partition(a, p)
    monkeypatch.setattr(gibbs, "_SPLIT_ELEMENTS", 1)
    assert exact_log_partition(a, p).tolist() == whole.tolist()
    assert whole.tolist() == [exact_log_partition(m, p) for m in a]


@pytest.mark.parametrize("n, count, cut", [(20, 7, [3, 3, 1]), (16, 25, [21, 4])])
def test_short_last_sub_stack_equals_singles(monkeypatch, n, count, cut):
    """The sub-stacks share work arrays sized for the longest; a shorter
    last one writes only their leading matrices, and every value is still
    its matrix's own."""
    a = sample_gaussian_matrix(n, [SeedSpec(44, r) for r in range(count)])
    p = ModelParams(beta=0.25, J=1.0, Jprime=0.1, n=n)
    lengths = []
    row_sums = gibbs._split_row_sums

    def spy(n, h, *args):
        lengths.append(len(h))
        return row_sums(n, h, *args)

    monkeypatch.setattr(gibbs, "_split_row_sums", spy)
    stacked = exact_log_partition(a, p)
    assert lengths == cut
    assert stacked.tolist() == [exact_log_partition(m, p) for m in a]


@pytest.mark.parametrize("n", [6, 13])
def test_stacked_underflow_fallback_is_per_matrix_and_row(n):
    """One matrix far outside the paramagnetic regime, whose rows need the
    exact-shift fallback, stacked between ordinary ones: every value equals
    its matrix's own, and the scaled one still agrees with the Gray code."""
    seeds = [SeedSpec(42, r) for r in range(4)]
    a = sample_gaussian_matrix(n, seeds)
    a[2] *= 1000.0
    p = ModelParams(beta=0.25, J=1.0, Jprime=0.2, n=n)
    stacked = exact_log_partition(a, p)
    assert stacked.tolist() == [exact_log_partition(m, p) for m in a]
    assert stacked[2] == pytest.approx(exact_log_partition(a[2], p, method="gray"), rel=1e-11)


def test_stacked_oracles_and_decomposition_equal_singles():
    a = sample_gaussian_matrix(8, [SeedSpec(43, r) for r in range(3)])
    p = ModelParams(beta=0.3, J=0.5, Jprime=0.1, n=8)
    for method in ("gray", "naive"):
        stacked = exact_log_partition(a, p, method=method)
        assert stacked.tolist() == [exact_log_partition(m, p, method=method) for m in a]
    log_z = exact_log_partition(a, p)
    for m in range(1, 6):
        stacked = decomposition_residual(a, p, m, log_z)
        singles = [decomposition_residual(a[i], p, m, float(log_z[i])) for i in range(3)]
        assert stacked.tolist() == singles


def test_log_partition_n1():
    a = np.array([[0.4]])
    p = ModelParams(beta=0.25, J=0.0, Jprime=0.7, n=1)
    assert exact_log_partition(a, p) == pytest.approx(0.25 * (0.4 + 0.7))


def brute_force_log_partition(a: np.ndarray, params: ModelParams) -> float:
    """log-sum-exp of beta * hamiltonian over the hypercube, minus n log 2:
    the full M, diagonal included, at every state, sharing no code with
    the methods, which take beta Tr M out of the enumeration."""
    energies = np.array([params.beta * hamiltonian(a, params, s) for s in spins_iter(params.n)])
    top = float(energies.max())
    return top + math.log(np.exp(energies - top).sum()) - params.n * math.log(2.0)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("J, Jprime", [(0.0, 0.0), (1.0, -0.7), (-2.0, 3.0), (0.5, 1e100)])
def test_every_method_matches_the_brute_force_oracle(n, J, Jprime):
    a = sample_gaussian_matrix(n, SeedSpec(47, n))
    p = ModelParams(beta=0.3, J=J, Jprime=Jprime, n=n)
    expect = brute_force_log_partition(a, p)
    for method in ("split", "gray", "naive"):
        assert exact_log_partition(a, p, method=method) == pytest.approx(expect, rel=1e-12)


def test_huge_diagonal_coupling_gives_a_finite_log_partition():
    """J' = 1e100 moves log Z by beta Tr M alone: every method, on one
    matrix and on a stack, gives a finite value with no RuntimeWarning."""
    a = sample_gaussian_matrix(8, SeedSpec(1, 0))
    p = ModelParams(beta=0.2, J=0.0, Jprime=1e100, n=8)
    stack = sample_gaussian_matrix(8, [SeedSpec(1, r) for r in range(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [exact_log_partition(a, p, method=m) for m in ("split", "gray", "naive")]
        stacked = exact_log_partition(stack, p)
    assert all(math.isfinite(v) for v in values)
    assert values == pytest.approx([brute_force_log_partition(a, p)] * 3, rel=1e-12)
    assert stacked[0] == values[0]
    assert stacked.tolist() == [exact_log_partition(m, p) for m in stack]


def test_gauge_invariance_of_log_partition():
    """The hypercube bijection sigma -> sigma_hat * sigma maps the SK energy
    of diag(s)A diag(s) back onto that of A, so Z is invariant for J = 0;
    the uniform coupling (J/n)(sum sigma)^2 breaks the symmetry, so J must
    vanish here (J' is free: the diagonal enters as a constant)."""
    n = 10
    a = sample_gaussian_matrix(n, SeedSpec(37, 0))
    p = ModelParams(beta=0.3, J=0.0, Jprime=0.4, n=n)
    base = exact_log_partition(a, p)
    for seed in range(5):
        sigma = random_spins(n, SeedSpec(38, seed))
        assert exact_log_partition(gauge_conjugate(a, sigma), p) == pytest.approx(
            base, rel=1e-10
        )


@pytest.mark.parametrize("n", range(23, 29))
def test_log_partition_symmetries_where_no_oracle_reaches(n):
    """Above the naive and Gray-code oracles' sizes: a spin permutation
    moves every spin to another block and leaves log Z unchanged, and so
    does gauge conjugation at J = 0, each to rounding."""
    a = sample_gaussian_matrix(n, SeedSpec(48, n))
    perm = np.random.default_rng(n).permutation(n)
    sigma = random_spins(n, SeedSpec(49, n))
    for params, moved in (
        (ModelParams(beta=0.3, J=0.5, Jprime=0.1, n=n), a[np.ix_(perm, perm)]),
        (ModelParams(beta=0.3, J=0.0, Jprime=0.1, n=n), gauge_conjugate(a, sigma)),
    ):
        base, other = exact_log_partition(np.stack([a, moved]), params)
        assert other == pytest.approx(base, rel=1e-13)


def test_gauge_invariance_fails_with_uniform_coupling():
    """Documented limit of the symmetry: with J != 0 the conjugated matrix
    has a genuinely different partition function."""
    n = 10
    a = sample_gaussian_matrix(n, SeedSpec(37, 0))
    p = ModelParams(beta=0.3, J=0.8, Jprime=0.1, n=n)
    sigma = random_spins(n, SeedSpec(38, 0))
    base = exact_log_partition(a, p)
    conj = exact_log_partition(gauge_conjugate(a, sigma), p)
    assert abs(conj - base) > 1e-3


def test_log_partition_convexity_in_beta():
    a = sample_gaussian_matrix(10, SeedSpec(39, 0))
    betas = [0.05, 0.15, 0.25, 0.35, 0.45]
    vals = [
        exact_log_partition(a, ModelParams(beta=b, J=1.0, Jprime=0.0, n=10))
        for b in betas
    ]
    for i in range(len(betas) - 2):
        mid = exact_log_partition(
            a, ModelParams(beta=(betas[i] + betas[i + 2]) / 2, J=1.0, Jprime=0.0, n=10)
        )
        assert mid <= (vals[i] + vals[i + 2]) / 2 + 1e-12


def test_enumeration_bound():
    check_enumeration(28)
    with pytest.raises(ValueError, match="n=29 exceeds the enumeration bound 28"):
        check_enumeration(29)
    a = np.zeros((29, 29))
    with pytest.raises(ValueError):
        exact_log_partition(a, ModelParams(beta=0.1, n=29))
    with pytest.raises(ValueError):
        exact_log_partition(np.zeros((23, 23)), ModelParams(beta=0.1, n=23), method="naive")
    with pytest.raises(ValueError):
        exact_log_partition(
            sample_gaussian_matrix(4, SeedSpec(1, 1)) * math.inf,
            ModelParams(beta=0.1, n=4),
        )


# --- mean-field normalizer ------------------------------------------------------------


def test_tau_hand_values():
    assert curie_weiss_tau(7, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert curie_weiss_tau(2, 0.25) == pytest.approx(0.5 + 0.5 * math.exp(0.5), rel=1e-12)
    assert abs(curie_weiss_tau(10_000, 0.25) - 1 / math.sqrt(0.5)) < 1e-2


# --- likelihood ratio -------------------------------------------------------------------


def test_rn_zero_beta():
    a = sample_gaussian_matrix(7, SeedSpec(41, 0))
    assert rn_log_ratio(a, ModelParams(beta=0.0, J=1.0, Jprime=0.2, n=7)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_rn_matches_mixture_oracle():
    count = 0
    for n in (4, 6, 8, 10, 12):
        for seed in range(4):
            a = sample_gaussian_matrix(n, SeedSpec(42, 100 * n + seed))
            p = ModelParams(beta=0.25, J=0.5, Jprime=0.3, n=n)
            assert rn_log_ratio(a, p) == pytest.approx(
                mixture_log_ratio_oracle(a, p), abs=1e-9
            )
            count += 1
    assert count == 20


def test_rn_density_integrates_to_one():
    n, reps = 12, 1500
    p = ModelParams(beta=0.25, J=0.5, Jprime=0.0, n=n)
    ys = np.array(
        [
            math.exp(rn_log_ratio(sample_gaussian_matrix(n, SeedSpec(43, r)), p))
            for r in range(reps)
        ]
    )
    se = ys.std(ddof=1) / math.sqrt(reps)
    assert abs(ys.mean() - 1.0) < 3 * se


def exact_second_moment_oracle(n: int, beta: float, j: float) -> float:
    """E[(dQ/dP)^2] by exact enumeration: squaring the mixture and taking
    the Gaussian expectation leaves E over two independent uniform spin
    vectors of exp(2 beta^2 T^2/n + beta J U^2/n + beta J V^2/n) with
    T the overlap and U, V the magnetizations, times e^{-2 beta^2}/tau_n^2.
    Grouping sigma' by its plus-counts on and off sigma's plus set gives a
    triple binomial sum."""
    a = 2 * beta**2 / n
    b = beta * j / n
    terms = []
    for p in range(n + 1):
        lbp = math.lgamma(n + 1) - math.lgamma(p + 1) - math.lgamma(n - p + 1)
        u2 = (2 * p - n) ** 2
        for x in range(p + 1):
            lbx = math.lgamma(p + 1) - math.lgamma(x + 1) - math.lgamma(p - x + 1)
            for y in range(n - p + 1):
                lby = (
                    math.lgamma(n - p + 1)
                    - math.lgamma(y + 1)
                    - math.lgamma(n - p - y + 1)
                )
                t = 2 * x - 2 * y + n - 2 * p
                v = 2 * (x + y) - n
                terms.append(
                    lbp + lbx + lby - 2 * n * math.log(2)
                    + a * t * t + b * u2 + b * v * v
                )
        # grouped by sigma's plus-count p; sigma' split as (x, y)
    terms = np.array(terms)
    top = terms.max()
    total = math.exp(top) * float(np.exp(terms - top).sum())
    return math.exp(-2 * beta**2) / curie_weiss_tau(n, beta * j) ** 2 * total


@pytest.mark.slow
def test_rn_second_moment_trend():
    """E[(dQ/dP)^2] is finite, exceeds 1, and moves toward
    exp(-2 beta^2)/sqrt(1-4 beta^2) as n grows.  The movement is checked on
    the exact finite-n values (the drift from n=8 to n=16 is ~1e-3, below
    Monte Carlo resolution at any reasonable replicate count); the sampled
    second moments must agree with the exact values within 4 SE."""
    beta, j = 0.25, 0.5
    target = second_moment_target(beta)
    gaps = [abs(exact_second_moment_oracle(n, beta, j) - target) for n in (8, 12, 16)]
    assert gaps[0] > gaps[1] > gaps[2]
    for n in (8, 12, 16):
        p = ModelParams(beta=beta, J=j, Jprime=0.0, n=n)
        ys = np.array(
            [
                math.exp(rn_log_ratio(sample_gaussian_matrix(n, SeedSpec(44 + n, r)), p))
                for r in range(5000)
            ]
        )
        second = float((ys**2).mean())
        se = float((ys**2).std(ddof=1) / math.sqrt(ys.size))
        assert math.isfinite(second) and second > 1.0
        assert abs(second - exact_second_moment_oracle(n, beta, j)) < 4 * se


# --- limit-law targets -----------------------------------------------------------------


def test_clt_targets_values():
    t = clt_targets(ModelParams(beta=0.25, J=1.0, Jprime=0.0, n=20))
    assert t.limit == pytest.approx(0.0625)
    assert t.mean == pytest.approx(0.0246531, abs=1e-7)
    assert t.variance == pytest.approx(0.0813410, abs=1e-7)


def test_clt_targets_zero_beta_limit():
    t = clt_targets(ModelParams(beta=0.0, J=1.0, Jprime=0.4, n=5))
    assert (t.limit, t.mean, t.variance) == (0.0, 0.0, 0.0)


def test_clt_targets_jprime_equals_j():
    beta, j = 0.3, 1.2
    t = clt_targets(ModelParams(beta=beta, J=j, Jprime=j, n=5))
    expect = -0.5 * math.log(1 - 2 * beta * j) + 0.25 * math.log(1 - 4 * beta**2)
    assert t.mean == pytest.approx(expect, rel=1e-12)


def test_clt_targets_regime_violation():
    with pytest.raises(ValueError):
        clt_targets(ModelParams(beta=0.6, J=0.1, n=5))
    with pytest.raises(ValueError):
        clt_targets(ModelParams(beta=0.4, J=2.0, n=5))


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(beta=-0.1, n=3)
    with pytest.raises(ValueError):
        ModelParams(beta=0.1, n=0)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("beta", "J", "Jprime"):
            with pytest.raises(ValueError, match="must be finite"):
                ModelParams(**{"beta": 0.1, "n": 3, field: bad})
    assert ModelParams(beta=0.49, J=1.0, n=4).paramagnetic
    assert not ModelParams(beta=0.1, J=6.0, n=4).paramagnetic


# --- decomposition ---------------------------------------------------------------------


def test_decomposition_residual_zero_beta():
    a = sample_gaussian_matrix(10, SeedSpec(45, 0))
    p = ModelParams(beta=0.0, J=0.5, Jprime=0.1, n=10)
    assert decomposition_residual(a, p, 4, exact_log_partition(a, p)) == pytest.approx(
        0.0, abs=1e-13
    )


def test_decomposition_residual_refuses_m_below_one():
    a = sample_gaussian_matrix(6, SeedSpec(45, 1))
    p = ModelParams(beta=0.2, n=6)
    with pytest.raises(ValueError, match="need 1 <= kmax <= n"):
        decomposition_residual(a, p, 0, exact_log_partition(a, p))


@pytest.mark.parametrize("n", [9, 12, 40])
def test_decomposition_residual_reads_one_value_per_cycle(n):
    """At every m the residual is its docstring formula evaluated on the
    C_{n,k} of the deepest series, bit for bit: a shallower series is a
    prefix of a deeper one, so every m reads the same cycles."""
    a = sample_gaussian_matrix(n, SeedSpec(48, 0))
    p = ModelParams(beta=0.2, J=0.3, Jprime=-0.4, n=n)
    log_z = 1.25  # any value: the residual only adds it
    top = min(n, 5)
    c = cycle_series(a, top).values
    expected = (log_z + 0.5 * math.log1p(-2.0 * p.beta * p.J) - (n - 1) * p.beta**2
                + p.beta * (p.J - p.Jprime) - p.beta * c[0])
    for m in range(1, top + 1):
        if m >= 2:
            mu = (2.0 * p.beta) ** m
            centered = c[m - 1] - (n - 1) if m == 2 else c[m - 1]
            expected -= (2.0 * mu * centered - mu**2) / (4.0 * m)
        assert decomposition_residual(a, p, m, log_z) == expected


def test_decomposition_residual_is_small():
    p = ModelParams(beta=0.25, J=0.5, Jprime=0.0, n=14)
    res = []
    for r in range(50):
        a = sample_gaussian_matrix(14, SeedSpec(47, r))
        res.append(decomposition_residual(a, p, 4, exact_log_partition(a, p)))
    assert np.var(res, ddof=1) < 0.02


# --- second moment target ----------------------------------------------------------------


def series_second_moment_oracle(beta: float) -> float:
    total = 0.0
    for k in range(2, 4000):
        total += (2 * beta) ** (2 * k) / (2 * k)
    return math.exp(total)


def test_second_moment_values():
    assert second_moment_target(0.0) == pytest.approx(1.0)
    assert second_moment_target(0.25) == pytest.approx(
        math.exp(-0.125) / math.sqrt(0.75), rel=1e-12
    )
    assert second_moment_target(0.25) == pytest.approx(1.019020, abs=1e-6)


@pytest.mark.parametrize("beta", [0.1, 0.25, 0.3, 0.45])
def test_second_moment_series_agreement(beta):
    assert second_moment_target(beta) == pytest.approx(
        series_second_moment_oracle(beta), rel=1e-12
    )


def test_second_moment_regime():
    with pytest.raises(ValueError):
        second_moment_target(0.5)
