"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (run with
``pytest -s`` to see them live).  Exact identity suites run in well under a
second; the Monte Carlo criteria use fixed master seeds so the whole suite
is deterministic.  On a 2-vCPU Xeon VM the suite takes about 5 s: the
free-energy CLT grid (criterion 7) 0.5 s, and the cycle laws (criteria 4
and 5), the longest, 0.7-1.0 s each.
"""

import math

import numpy as np
import pytest

from skcw import combinat
from skcw.cycles import chebyshev_lss, signed_cycle_bruteforce
from skcw.experiments import (
    ExperimentConfig, run_experiment as run_approx, run_experiment as run_clt,
    run_experiment as run_cycles, run_experiment as run_tilted,
    run_experiment as run_decomposition,
)
from skcw.gibbs import (
    ModelParams,
    clt_targets,
    curie_weiss_tau,
    exact_log_partition,
    rn_log_ratio,
    second_moment_target,
)
from skcw.randmat import (
    SeedSpec,
    gauge_conjugate,
    power_traces,
    random_spins,
    sample_gaussian_matrix,
)

from test_gibbs import mixture_log_ratio_oracle, series_second_moment_oracle
from test_cycles import oracle_cycle, symmetric_int_matrix

THREADS = 2


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, f"{criterion}: {detail}"


# -- 1 ------------------------------------------------------------------------


def test_criterion_1_exact_identities():
    cancel_ok = all(combinat.cancellation_sum(k) == 0 for k in range(2, 31))
    parity_ok = all(
        combinat.parity_identity_check(m, r)
        for m in range(1, 41)
        for r in range(1, m + 1)
        if (m - r) % 2 == 0
    )
    inverse_ok = True
    for k in range(1, 16):
        d = combinat.inverse_binomial_matrix(k)  # verifies D*B=I and entries
        b = combinat._binomial_matrix(k)
        inverse_ok &= d.matmul(b) == combinat.LowerTriangularIntMatrix.identity(k)
    cheb_err = max(
        abs(combinat.chebyshev_coeffs(m)(2 * math.cos(t)) - 2 * math.cos(m * t))
        for m in range(21)
        for t in (math.pi / 7, math.pi / 3, 1.0)
    )
    ok = cancel_ok and parity_ok and inverse_ok and cheb_err <= 1e-9
    report(
        "1 exact identities",
        ok,
        f"cancellation 2..30 zero: {cancel_ok}; parity m<=40: {parity_ok}; "
        f"inverse binomial k<=15: {inverse_ok}; max Chebyshev error {cheb_err:.2e}",
    )


# -- 2 ------------------------------------------------------------------------


def test_criterion_2_oracle_equivalences():
    worst_gray = 0.0
    for idx, n in enumerate([4, 5, 6, 7, 8, 9, 10, 11, 12, 4, 5, 6, 7, 8, 9, 10, 11, 12, 6, 8]):
        a = sample_gaussian_matrix(n, SeedSpec(210, idx))
        p = ModelParams(beta=0.25, J=1.0, Jprime=0.3, n=n)
        g = exact_log_partition(a, p, method="gray")
        v = exact_log_partition(a, p, method="naive")
        worst_gray = max(worst_gray, abs(g - v) / max(1.0, abs(v)))
    gray_ok = worst_gray <= 1e-10

    worst_rn = 0.0
    for idx, n in enumerate([4, 6, 8, 10, 12] * 4):
        a = sample_gaussian_matrix(n, SeedSpec(211, idx))
        p = ModelParams(beta=0.25, J=0.5, Jprime=0.2, n=n)
        worst_rn = max(worst_rn, abs(rn_log_ratio(a, p) - mixture_log_ratio_oracle(a, p)))
    rn_ok = worst_rn <= 1e-9

    brute_ok = True
    for n in range(4, 8):
        for k in range(2, min(5, n) + 1):
            a = symmetric_int_matrix(n, 212 + 10 * n + k, hollow=False)
            expect = oracle_cycle(a, k)
            brute_ok &= signed_cycle_bruteforce(a, k, method="dfs") == expect
            brute_ok &= signed_cycle_bruteforce(a, k) == expect

    worst_k3 = 0.0
    for idx in range(10):
        a = sample_gaussian_matrix(8, SeedSpec(213, idx), hollow=True)
        worst_k3 = max(
            worst_k3, abs(signed_cycle_bruteforce(a, 3) - chebyshev_lss(a, 3))
        )
    k3_ok = worst_k3 <= 1e-9

    ok = gray_ok and rn_ok and brute_ok and k3_ok
    report(
        "2 oracle equivalences",
        ok,
        f"gray-vs-naive rel {worst_gray:.2e}; likelihood-ratio mixture abs "
        f"{worst_rn:.2e}; brute-force == nested loop: {brute_ok}; "
        f"C3 vs Tr P3 abs {worst_k3:.2e}",
    )


# -- 3 ------------------------------------------------------------------------


def test_criterion_3_gauge_invariance():
    # Z is gauge invariant for J = 0 (the hypercube bijection cancels the SK
    # term; the uniform coupling is not conjugation covariant); cycles and
    # power traces are invariant for every matrix.
    worst = 0.0
    for idx in range(5):
        n = 10 + idx
        a = sample_gaussian_matrix(n, SeedSpec(310, idx))
        sigma = random_spins(n, SeedSpec(311, idx))
        conj = gauge_conjugate(a, sigma)
        p = ModelParams(beta=0.3, J=0.0, Jprime=0.2, n=n)
        z0 = exact_log_partition(a, p)
        z1 = exact_log_partition(conj, p)
        worst = max(worst, abs(z1 - z0) / max(1.0, abs(z0)))
        for k in range(2, 6):
            c0 = signed_cycle_bruteforce(a, k)
            c1 = signed_cycle_bruteforce(conj, k)
            worst = max(worst, abs(c1 - c0) / max(1.0, abs(c0)))
        t0 = power_traces(a, 8)
        t1 = power_traces(conj, 8)
        worst = max(worst, float(np.max(np.abs(t1 - t0) / np.maximum(1.0, np.abs(t0)))))
    ok = worst <= 1e-9
    report("3 gauge invariance", ok, f"worst relative deviation {worst:.2e}")


# -- 4 ------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_cycle_statistics():
    cfg = ExperimentConfig(
        kind="cycles",
        params=ModelParams(beta=0.0, n=150),
        replicates=1000,
        master_seed=40_2025,
        kmax=4,
        threads=THREADS,
    )
    rep = run_cycles(cfg)
    var3 = rep.summary(150, "cycle_3").variance
    var4 = rep.summary(150, "cycle_4").variance
    corr13 = rep.find_check("corr_1_3", n=150)
    corr14 = rep.find_check("corr_1_4", n=150)
    cov34 = rep.find_check("cov_3_4", n=150)
    ks_ok = all(
        rep.find_check(f"cycle_{k}_ks", n=150).observed > 0.001 for k in (1, 2, 3, 4)
    )
    ok = (
        5.4 <= var3 <= 6.6
        and 7.2 <= var4 <= 8.8
        and corr13.passed
        and corr14.passed
        and cov34.passed
        and ks_ok
    )
    report(
        "4 cycle statistics",
        ok,
        f"Var(C3)={var3:.3f} in [5.4,6.6]; Var(C4)={var4:.3f} in [7.2,8.8]; "
        f"corr(C1,C3)={corr13.observed:.4f}, corr(C1,C4)={corr14.observed:.4f}, "
        f"cov(C3,C4)={cov34.observed:.4f} all within 3 SE; KS p>0.001: {ks_ok}",
    )


# -- 5 ------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_tilted_mean_shift():
    cfg = ExperimentConfig(
        kind="tilted",
        params=ModelParams(beta=0.4, n=150),
        replicates=2000,
        master_seed=50_2025,
        kmax=3,
        threads=THREADS,
    )
    rep = run_tilted(cfg)
    mean3 = rep.summary(150, "cycle_3").mean
    var3 = rep.summary(150, "cycle_3").variance
    ok = abs(mean3 - 0.512) <= 0.15 and abs(var3 - 6.0) <= 0.15 * 6.0
    report(
        "5 tilted mean shift",
        ok,
        f"mean C3 = {mean3:.4f} within 0.15 of 0.512; "
        f"Var(C3) = {var3:.3f} within 15% of 6",
    )


# -- 6 ------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_approximation_theorem():
    cfg = ExperimentConfig(
        kind="approx",
        params=ModelParams(beta=0.0, n=200),
        replicates=500,
        master_seed=60_2025,
        kmax=5,
        n_grid=(50, 100, 200),
        threads=THREADS,
        centering_replicates=1500,
    )
    rep = run_approx(cfg)
    ratio5 = rep.find_check("residual_5_variance_ratio", n=200).observed
    var4 = [rep.summary(n, "residual_4").variance for n in (50, 100, 200)]
    var5 = [rep.summary(n, "residual_5").variance for n in (50, 100, 200)]
    dec4 = var4[0] > var4[1] > var4[2]
    dec5 = var5[0] > var5[1] > var5[2]
    ok = ratio5 < 0.1 and dec4 and dec5
    report(
        "6 approximation theorem",
        ok,
        f"Var(res5)/Var(C5) = {ratio5:.4f} < 0.1 at n=200; residual variance "
        f"k=4 {[f'{v:.4f}' for v in var4]} decreasing: {dec4}; "
        f"k=5 {[f'{v:.4f}' for v in var5]} decreasing: {dec5}",
    )


# -- 7 ------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_free_energy_clt():
    params = ModelParams(beta=0.25, J=1.0, Jprime=0.0, n=20)
    cfg = ExperimentConfig(
        kind="clt",
        params=params,
        replicates=1000,
        master_seed=70_2025,
        n_grid=(12, 16, 20, 24),
        threads=THREADS,
    )
    rep = run_clt(cfg)
    targets = clt_targets(params)
    summ = rep.summary(20, "n_fluct")
    mean_tol = max(0.03, 3 * summ.stderr)
    mean_ok = abs(summ.mean - targets.mean) <= mean_tol
    var_ok = abs(summ.variance - targets.variance) <= 0.20 * targets.variance
    ks_p = rep.find_check("clt_ks", n=20).observed
    trend = rep.find_check("clt_mean_trend")
    ok = mean_ok and var_ok and ks_p > 0.001 and trend.passed
    report(
        "7 free-energy CLT",
        ok,
        f"mean {summ.mean:.5f} vs f1 {targets.mean:.5f} (tol {mean_tol:.4f}); "
        f"variance {summ.variance:.5f} vs alpha1 {targets.variance:.5f} (20%); "
        f"KS p = {ks_p:.4f} > 0.001; trend across (12,16,20,24): {trend.passed}",
    )


# -- 8 ------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_decomposition_theorem():
    cfg = ExperimentConfig(
        kind="decomposition",
        params=ModelParams(beta=0.25, J=0.5, Jprime=0.0, n=16),
        replicates=500,
        master_seed=80_2025,
        m=4,
        n_grid=(12, 16, 20),
        threads=THREADS,
    )
    rep = run_decomposition(cfg)
    res_var = rep.summary(16, "residual").variance
    fluct_var = rep.summary(16, "n_fluct").variance
    trend_vals = [rep.summary(n, "residual").variance for n in (12, 16, 20)]
    dec = trend_vals[0] > trend_vals[1] > trend_vals[2]
    ok = res_var < fluct_var and dec
    report(
        "8 decomposition theorem",
        ok,
        f"Var(residual) = {res_var:.5f} < Var(n(F-b^2)) = {fluct_var:.5f}; "
        f"variance across (12,16,20) = {[f'{v:.5f}' for v in trend_vals]} "
        f"decreasing: {dec}",
    )


# -- 9 ------------------------------------------------------------------------


def test_criterion_9_second_moment_and_tau():
    worst = 0.0
    for beta in (0.1, 0.25, 0.3, 0.45):
        closed = second_moment_target(beta)
        worst = max(worst, abs(closed - series_second_moment_oracle(beta)) / closed)
    series_ok = worst <= 1e-10
    tau = curie_weiss_tau(10_000, 0.25)
    tau_ok = abs(tau - 1.41421) <= 1e-2
    ok = series_ok and tau_ok
    report(
        "9 second moment and tau",
        ok,
        f"closed-form/series rel gap {worst:.2e} <= 1e-10; "
        f"tau_10000(0.25) = {tau:.5f} within 1e-2 of 1.41421",
    )
