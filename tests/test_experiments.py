"""Monte Carlo harness: statistics, calibration, report structure and
reproducibility across worker counts."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skcw import experiments as ex
from skcw import randmat
from skcw.gibbs import ModelParams

PARAMS = ModelParams(beta=0.25, J=1.0, Jprime=0.0, n=10)


# --- summaries ---------------------------------------------------------------


def test_sample_summary():
    xs = [1.0, 2.0, 3.0, 6.0]
    s = ex.SampleSummary.from_samples(xs)
    assert s.count == 4
    assert s.mean == pytest.approx(3.0)
    assert s.variance == pytest.approx(np.var(xs, ddof=1))
    assert s.stderr == pytest.approx(math.sqrt(s.variance / 4))
    assert (s.min, s.max) == (1.0, 6.0)
    with pytest.raises(ValueError):
        ex.SampleSummary.from_samples([1.0])


# --- Kolmogorov-Smirnov -------------------------------------------------------


def test_ks_statistic_range_and_errors():
    rng = np.random.default_rng(0)
    stat, p = ex.ks_test(rng.normal(size=200), 0.0, 1.0)
    assert 0.0 <= stat <= 1.0
    assert 0.0 <= p <= 1.0
    with pytest.raises(ValueError):
        ex.ks_test(rng.normal(size=10), 0.0, 1.0)
    with pytest.raises(ValueError):
        ex.ks_test(rng.normal(size=50), 0.0, 0.0)


def test_ks_detects_shift():
    rng = np.random.default_rng(1)
    stat, p = ex.ks_test(rng.normal(5.0, 1.0, size=2000), 0.0, 1.0)
    assert p < 1e-6
    assert stat > 0.9


def test_ks_accepts_true_null_across_seeds():
    rng = np.random.default_rng(2)
    bad = 0
    for _ in range(50):
        _, p = ex.ks_test(rng.normal(1.0, 2.0, size=10_000), 1.0, 4.0)
        if p <= 0.001:
            bad += 1
    assert bad <= 1


def test_ks_pvalue_calibration_under_null():
    """200 null runs: the p-values should be close to uniform."""
    rng = np.random.default_rng(3)
    ps = np.sort(
        [ex.ks_test(rng.normal(size=500), 0.0, 1.0)[1] for _ in range(200)]
    )
    grid = np.arange(1, 201) / 200.0
    dist = np.max(np.abs(ps - grid))
    assert dist < 0.15


def test_kolmogorov_sf_shape():
    assert ex.kolmogorov_sf(0.0) == 1.0
    assert ex.kolmogorov_sf(-1.0) == 1.0
    # median of the Kolmogorov distribution
    assert ex.kolmogorov_sf(0.82757) == pytest.approx(0.5, abs=1e-3)
    xs = [0.3, 0.6, 0.9, 1.2, 1.5, 2.0]
    vals = [ex.kolmogorov_sf(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_kolmogorov_sf_matches_series_oracle():
    """Both implementation branches against a long alternating series."""
    for x in (0.4, 0.7, 0.9, 1.1, 1.17, 1.19, 1.5, 2.0):
        oracle = sum(
            2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * x * x)
            for j in range(1, 400)
        )
        assert ex.kolmogorov_sf(x) == pytest.approx(oracle, abs=1e-12)


# --- Wasserstein ---------------------------------------------------------------


def test_wasserstein_hand_values():
    assert ex.empirical_wasserstein([1.0, 2.0], [1.0, 2.0], p=1) == 0.0
    assert ex.empirical_wasserstein([0.0, 0.0], [1.0, 1.0], p=2) == pytest.approx(1.0)
    assert ex.empirical_wasserstein([0.0, 2.0], [1.0, 3.0], p=1) == pytest.approx(1.0)


def test_wasserstein_validation():
    with pytest.raises(ValueError):
        ex.empirical_wasserstein([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ex.empirical_wasserstein([1.0], [1.0], p=3)


@settings(max_examples=50)
@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=8),
    st.lists(st.floats(-50, 50), min_size=3, max_size=8),
    st.lists(st.floats(-50, 50), min_size=3, max_size=8),
    st.sampled_from([1, 2]),
)
def test_wasserstein_triangle_inequality(a, b, c, p):
    size = min(len(a), len(b), len(c))
    a, b, c = a[:size], b[:size], c[:size]
    ab = ex.empirical_wasserstein(a, b, p)
    bc = ex.empirical_wasserstein(b, c, p)
    ac = ex.empirical_wasserstein(a, c, p)
    assert ac <= ab + bc + 1e-12


# --- configuration and report plumbing --------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExperimentConfig(kind="bogus", params=PARAMS, replicates=10, master_seed=1)
    with pytest.raises(ValueError, match="unknown experiment kind"):
        # identity reports come from run_identities, never from a config
        ex.ExperimentConfig(kind="identities", params=PARAMS, replicates=10, master_seed=1)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(kind="clt", params=PARAMS, replicates=1, master_seed=1)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(
            kind="clt", params=PARAMS, replicates=5, master_seed=1, n_grid=(12, 10)
        )
    cfg = ex.ExperimentConfig(
        kind="clt", params=PARAMS, replicates=5, master_seed=1, n_grid=(8, 10, 12)
    )
    assert cfg.sizes == (8, 10, 12)
    cfg2 = ex.ExperimentConfig(
        kind="clt", params=PARAMS, replicates=5, master_seed=1, n_grid=(8, 12)
    )
    assert cfg2.sizes == (8, 10, 12)  # headline size joins the grid
    for threads in (0, -1):
        with pytest.raises(ValueError, match="at least 1 thread"):
            ex.ExperimentConfig(
                kind="clt", params=PARAMS, replicates=5, master_seed=1, threads=threads
            )


def test_report_round_trip_and_named_verdicts():
    cfg = ex.ExperimentConfig(kind="clt", params=PARAMS, replicates=50, master_seed=7)
    report = ex.run_clt(cfg)
    for check in list(report.all_checks()):
        assert check.name and check.rule
    blob = json.dumps(report.to_dict(), sort_keys=True)
    back = ex.ExperimentReport.from_dict(json.loads(blob))
    assert back == report
    assert json.dumps(back.to_dict(), sort_keys=True) == blob


def test_report_lookup_helpers():
    cfg = ex.ExperimentConfig(kind="clt", params=PARAMS, replicates=40, master_seed=7)
    report = ex.run_clt(cfg)
    c = report.find_check("clt_mean", n=10)
    assert c.name == "clt_mean"
    assert report.summary(10, "n_fluct").count == 40
    with pytest.raises(KeyError):
        report.find_check("nope")
    with pytest.raises(KeyError):
        report.summary(99, "n_fluct")


def test_schema_version_guard():
    cfg = ex.ExperimentConfig(kind="clt", params=PARAMS, replicates=30, master_seed=7)
    d = ex.run_clt(cfg).to_dict()
    d["schema_version"] = 99
    with pytest.raises(ValueError):
        ex.ExperimentReport.from_dict(d)


def test_raw_samples_kept_on_request():
    cfg = ex.ExperimentConfig(
        kind="clt", params=PARAMS, replicates=25, master_seed=7, keep_raw=True
    )
    report = ex.run_clt(cfg)
    assert report.raw_samples is not None
    assert len(report.raw_samples["10"]["n_fluct"]) == 25
    lean = ex.run_clt(
        ex.ExperimentConfig(kind="clt", params=PARAMS, replicates=25, master_seed=7)
    )
    assert lean.raw_samples is None


def test_reproducibility_across_worker_counts():
    tiny = {
        "clt": dict(params=PARAMS, replicates=30),
        "cycles": dict(params=ModelParams(beta=0.0, n=24), replicates=20, kmax=3),
        "tilted": dict(
            params=ModelParams(beta=0.3, n=12), replicates=20, kmax=3, n_grid=(8,)
        ),
        "approx": dict(
            params=ModelParams(beta=0.0, n=12), replicates=20, kmax=4, n_grid=(8,),
            centering_replicates=10,
        ),
        "decomposition": dict(
            params=ModelParams(beta=0.25, J=0.5, n=10), replicates=20, m=3, n_grid=(8,)
        ),
    }
    for kind, kwargs in tiny.items():
        serial, parallel = _one_and_two_workers(kind, **kwargs)
        assert serial.results == parallel.results, kind
        assert serial.checks == parallel.checks, kind


def _one_and_two_workers(kind, **kwargs):
    run = getattr(ex, f"run_{kind}")
    return [
        run(ex.ExperimentConfig(kind=kind, master_seed=11, threads=t, **kwargs))
        for t in (1, 2)
    ]


@pytest.mark.parametrize(
    "kind, kwargs",
    [
        ("clt", dict(params=ModelParams(beta=0.25, J=1.0, n=20), replicates=4)),
        ("clt", dict(params=ModelParams(beta=0.25, J=1.0, n=24), replicates=4)),
        (
            "approx",
            dict(
                params=ModelParams(beta=0.0, n=200), replicates=4, kmax=5,
                centering_replicates=10,
            ),
        ),
        (
            "cycles",
            dict(params=ModelParams(beta=0.0, n=300), replicates=4, kmax=5, n_grid=(250,)),
        ),
        (
            "approx",
            dict(
                params=ModelParams(beta=0.0, n=250), replicates=4, kmax=5,
                centering_replicates=10,
            ),
        ),
    ],
)
def test_worker_counts_agree_where_parent_blas_is_threaded(kind, kwargs):
    """One worker computes in this process with its multi-threaded BLAS,
    two workers with one BLAS thread each; the values must not move."""
    serial, parallel = _one_and_two_workers(kind, **kwargs)
    assert serial.results == parallel.results
    assert serial.checks == parallel.checks


def _record_pools(monkeypatch, cores):
    """Replace the pool by one that records its worker count and maps in
    this process, and report ``cores`` usable cores; return the record."""
    created = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None, initializer=None):
            assert initializer is ex._keep_freed_memory
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(ex, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(ex, "_usable_cores", lambda: cores)
    return created


def test_one_pool_per_run_never_wider_than_replicates(monkeypatch):
    created = _record_pools(monkeypatch, cores=64)
    grid = dict(kind="clt", params=PARAMS, master_seed=2, n_grid=(6, 8))
    ex.run_clt(ex.ExperimentConfig(replicates=3, threads=64, **grid))
    ex.run_clt(ex.ExperimentConfig(replicates=5, threads=2, **grid))
    ex.run_clt(ex.ExperimentConfig(replicates=5, threads=1, **grid))
    assert created == [3, 2]


def test_pool_never_wider_than_usable_cores(monkeypatch):
    created = _record_pools(monkeypatch, cores=2)
    grid = dict(kind="clt", params=PARAMS, master_seed=2, n_grid=(6, 8))
    report = ex.run_clt(ex.ExperimentConfig(replicates=5, threads=8, **grid))
    monkeypatch.setattr(ex, "_usable_cores", lambda: 1)
    ex.run_clt(ex.ExperimentConfig(replicates=5, threads=8, **grid))
    assert created == [2]  # one usable core computes in this process
    assert report.config["threads"] == 8


def test_usable_cores_falls_back_to_the_cpu_count(monkeypatch):
    assert 1 <= ex._usable_cores() <= (os.cpu_count() or 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert ex._usable_cores() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ex._usable_cores() == 1


def test_pool_workers_keep_freed_memory(monkeypatch):
    """The pool initializer asks glibc to keep freed arrays in the heap (no
    trim, no per-array mmap), and does nothing where there is no mallopt."""
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ex.ctypes, "CDLL", lambda name: Libc())
    ex._keep_freed_memory()
    assert calls == [(-1, 1 << 30), (-3, 1 << 25)]
    monkeypatch.setattr(ex.ctypes, "CDLL", lambda name: object())
    ex._keep_freed_memory()
    assert len(calls) == 2


def test_one_map_per_run_in_grid_order(monkeypatch):
    seen = []
    map_replicates = ex._map_replicates

    def spy(worker, tasks, pool, workers):
        seen.append(list(tasks))
        return map_replicates(worker, tasks, pool, workers)

    monkeypatch.setattr(ex, "_map_replicates", spy)
    cfg = ex.ExperimentConfig(
        kind="clt", params=PARAMS, replicates=3, master_seed=5, n_grid=(6, 8)
    )
    report = ex.run_clt(cfg)
    assert len(seen) == 1
    assert [(t[0], t[-2], t[-1]) for t in seen[0]] == [
        (n, 5, s * 2**32 + r) for s, n in enumerate((6, 8, 10)) for r in range(3)
    ]
    assert [r.n for r in report.results] == [6, 8, 10]
    assert all(r.summaries["n_fluct"].count == 3 for r in report.results)


def _blas_threads():
    return randmat.openblas_function("get_num_threads")()


def _worker_threads():
    """(OpenBLAS threads, OS threads or None without /proc) of this process."""
    task_dir = "/proc/self/task"
    return _blas_threads(), len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None


def test_pool_workers_run_one_blas_thread(monkeypatch):
    if randmat.openblas_function("get_num_threads") is None:
        pytest.skip("numpy does not link OpenBLAS here")
    seen = []
    map_replicates = ex._map_replicates

    def spy(worker, tasks, pool, workers):
        seen.extend(pool.submit(_worker_threads).result() for _ in range(4))
        return map_replicates(worker, tasks, pool, workers)

    monkeypatch.setattr(ex, "_map_replicates", spy)
    monkeypatch.setattr(ex, "_usable_cores", lambda: 2)
    cfg = ex.ExperimentConfig(
        kind="clt", params=PARAMS, replicates=4, master_seed=3, threads=2, n_grid=(8,)
    )
    ex.run_clt(cfg)
    assert [blas for blas, _ in seen] == [1] * 4
    if seen[0][1] is not None:
        assert [os_threads for _, os_threads in seen] == [1] * 4


def test_tilted_spin_vector_checked_at_every_size_first(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("replicates ran before the spin vector was checked")

    monkeypatch.setattr(ex, "_map_replicates", refuse)
    cfg = ex.ExperimentConfig(
        kind="tilted", params=ModelParams(beta=0.2, n=12), replicates=5,
        master_seed=1, kmax=3, n_grid=(8, 12),
    )
    with pytest.raises(ValueError, match="sigma has length 8, expected 12"):
        ex.run_tilted(cfg, np.ones(8))


def test_degenerate_zero_beta_flagged():
    cfg = ex.ExperimentConfig(
        kind="clt",
        params=ModelParams(beta=0.0, J=1.0, Jprime=0.0, n=8),
        replicates=20,
        master_seed=3,
    )
    report = ex.run_clt(cfg)
    assert report.passed
    check = report.find_check("degenerate_zero_beta")
    assert check.passed and check.observed == 0.0


def test_runner_kind_mismatch():
    cfg = ex.ExperimentConfig(kind="clt", params=PARAMS, replicates=10, master_seed=1)
    with pytest.raises(ValueError):
        ex.run_cycles(cfg)
    with pytest.raises(ValueError):
        ex.run_tilted(cfg)
    with pytest.raises(ValueError):
        ex.run_approx(cfg)
    with pytest.raises(ValueError):
        ex.run_decomposition(cfg)


def test_run_identities_passes():
    report = ex.run_identities(30)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {
        "cancellation_sum_zero",
        "parity_identity",
        "inverse_binomial_matrix",
        "chebyshev_evaluation",
    }


def test_tilted_sigma_gauge_statistical_equivalence():
    """Tilted cycle statistics do not depend on the tilt direction."""
    n = 40
    base = dict(
        params=ModelParams(beta=0.4, n=n), replicates=300, master_seed=13, kmax=3
    )
    ones = ex.run_tilted(ex.ExperimentConfig(kind="tilted", **base))
    rng = np.random.default_rng(5)
    sigma = 1.0 - 2.0 * rng.integers(0, 2, size=n)
    mixed = ex.run_tilted(
        ex.ExperimentConfig(kind="tilted", **{**base, "master_seed": 14}), sigma
    )
    s1 = ones.summary(n, "cycle_3")
    s2 = mixed.summary(n, "cycle_3")
    pooled = math.hypot(s1.stderr, s2.stderr)
    assert abs(s1.mean - s2.mean) < 3 * pooled
