"""Monte Carlo harness: statistics, calibration, report structure and
reproducibility across worker counts."""

import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skcw import cli, cycles, randmat
from skcw import experiments as ex
from skcw.gibbs import ModelParams
from skcw.randmat import SeedSpec

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


@pytest.mark.parametrize("kind", ["cycles", "tilted", "approx", "decomposition"])
def test_depth_beyond_the_closed_forms_refused_for_every_kind(kind):
    """Depth 6 is a hard bound, whatever the budget: no engine on the run
    path goes past the closed forms of k <= 5."""
    depth = {"m": 6} if kind == "decomposition" else {"kmax": 6}
    with pytest.raises(ValueError, match="k=6 exceeds the closed-form bound 5"):
        ex.ExperimentConfig(
            kind=kind, params=ModelParams(beta=0.2, n=12), replicates=5,
            master_seed=1, cycle_budget=math.inf, **depth,
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


def refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("kind", ex.KINDS)
def test_every_kind_round_trips_through_strict_json(kind):
    """No NaN or Infinity in any report, an infinite budget included: the
    strict text loads and ``from_dict`` gives the report back."""
    params = ModelParams(beta=0.0 if kind in ("cycles", "approx") else 0.2, n=8)
    cfg = ex.ExperimentConfig(
        kind=kind, params=params, replicates=5, master_seed=3, n_grid=(6, 8),
        kmax=3, m=3, keep_raw=True, cycle_budget=math.inf,
    )
    report = getattr(ex, f"run_{kind}")(cfg)
    text = json.dumps(report.to_dict(), allow_nan=False)
    back = ex.ExperimentReport.from_dict(json.loads(text, parse_constant=refuse_constant))
    assert back == report


def _law(name):
    return [f"{name}_mean", f"{name}_variance", f"{name}_ks"]


_CYCLE_CHECKS = [
    *_law("cycle_1"), *_law("cycle_2"), *_law("cycle_3"), *_law("cycle_4"),
    "corr_1_2", "corr_1_3", "corr_1_4", "cov_2_3", "cov_2_4", "cov_3_4",
]


@pytest.mark.parametrize("kind, extra, per_size, cross", [
    ("clt", {}, {6: _law("clt"), 8: _law("clt")}, ["clt_mean_trend"]),
    ("cycles", {"kmax": 4}, {6: _CYCLE_CHECKS, 8: _CYCLE_CHECKS}, []),
    ("tilted", {"kmax": 4}, {6: _CYCLE_CHECKS, 8: _CYCLE_CHECKS}, []),
    ("approx", {"kmax": 5},
     {6: ["residual_3_exact", "residual_4_mean", "residual_5_mean"],
      8: ["residual_3_exact", "residual_4_mean", "residual_4_variance_ratio",
          "residual_5_mean", "residual_5_variance_ratio"]},
     ["residual_4_variance_trend", "residual_5_variance_trend"]),
    ("decomposition", {"m": 3},
     {6: ["residual_variance_below_fluctuation"],
      8: ["residual_variance_below_fluctuation"]},
     ["residual_variance_trend"]),
])
def test_check_names_of_every_kind(kind, extra, per_size, cross):
    """The full set of check names, in report order, at each size and across
    sizes: the acceptance suite reads several of them by name."""
    cfg = ex.ExperimentConfig(
        kind=kind, params=ModelParams(beta=0.2, n=8), replicates=20, master_seed=4,
        n_grid=(6, 8), **extra,
    )
    report = getattr(ex, f"run_{kind}")(cfg)
    assert {r.n: [c.name for c in r.checks] for r in report.results} == per_size
    assert [c.name for c in report.checks] == cross


@pytest.mark.parametrize("kind", ["clt", "cycles"])
def test_ks_checks_recompute_from_raw_samples(kind):
    """Each KS check of a report is ``ks_test`` of its raw samples against the
    report's targets, to the bit."""
    n = 8
    cfg = ex.ExperimentConfig(
        kind=kind, params=ModelParams(beta=0.2, n=n), replicates=25, master_seed=9,
        kmax=3, keep_raw=True,
    )
    report = getattr(ex, f"run_{kind}")(cfg)
    raw = report.raw_samples[str(n)]
    targets = {t.name: t.value for t in report.targets}
    if kind == "clt":
        laws = {"clt": (raw["n_fluct"], targets["mean"], targets["variance"])}
    else:
        laws = {
            f"cycle_{k}": (
                np.array(raw[f"cycle_{k}"]) - (n - 1 if k == 2 else 0),
                0.0, targets[f"variance_{k}"],
            )
            for k in (1, 2, 3)
        }
    for name, (xs, mean, variance) in laws.items():
        stat, p = ex.ks_test(xs, mean, variance)
        check = report.find_check(f"{name}_ks", n=n)
        assert (check.observed, check.statistic) == (p, stat)


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


def test_reproducibility_across_worker_counts(monkeypatch):
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
        serial, parallel = _one_and_two_workers(monkeypatch, kind, **kwargs)
        assert serial.results == parallel.results, kind
        assert serial.checks == parallel.checks, kind


def _one_and_two_workers(monkeypatch, kind, **kwargs):
    """The run at ``threads`` 1 and 2, with a fork priced at one operation so
    that the second forks whatever its work."""
    monkeypatch.setattr(ex, "FORK_OPERATIONS", 1)
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
def test_worker_counts_agree_where_parent_blas_is_threaded(monkeypatch, kind, kwargs):
    """One worker computes in this process with its multi-threaded BLAS,
    two workers with one BLAS thread each; the values must not move."""
    serial, parallel = _one_and_two_workers(monkeypatch, kind, **kwargs)
    assert serial.results == parallel.results
    assert serial.checks == parallel.checks


def _record_fork_maps(monkeypatch, cores):
    """Replace the fork map by one that records its worker count and maps
    in this process, price a fork at one operation and report ``cores``
    usable cores; return the record."""
    created = []
    monkeypatch.setattr(ex, "FORK_OPERATIONS", 1)

    def recording_fork_map(worker, stacks, workers):
        created.append(workers)
        return [worker(*stack) for stack in stacks]

    monkeypatch.setattr(ex, "_fork_map", recording_fork_map)
    monkeypatch.setattr(ex, "_usable_cores", lambda: cores)
    return created


def test_one_pool_per_run_never_wider_than_replicates(monkeypatch):
    created = _record_fork_maps(monkeypatch, cores=64)
    grid = dict(kind="clt", params=PARAMS, master_seed=2, n_grid=(6, 8))
    ex.run_clt(ex.ExperimentConfig(replicates=3, threads=64, **grid))
    ex.run_clt(ex.ExperimentConfig(replicates=5, threads=2, **grid))
    ex.run_clt(ex.ExperimentConfig(replicates=5, threads=1, **grid))
    assert created == [3, 2]


def test_pool_never_wider_than_usable_cores(monkeypatch):
    created = _record_fork_maps(monkeypatch, cores=2)
    grid = dict(kind="clt", params=PARAMS, master_seed=2, n_grid=(6, 8))
    report = ex.run_clt(ex.ExperimentConfig(replicates=5, threads=8, **grid))
    monkeypatch.setattr(ex, "_usable_cores", lambda: 1)
    ex.run_clt(ex.ExperimentConfig(replicates=5, threads=8, **grid))
    assert created == [2]  # one usable core computes in this process
    assert report.config["threads"] == 8


CLT_GRID_LINE = ["clt", "--n", "20", "--n-grid", "12,16,20,24", "--beta", "0.25",
                 "--J", "1", "--reps", "20", "--threads", "2"]
APPROX_GRID_LINE = ["approx", "--n", "200", "--n-grid", "50,100,200", "--kmax", "5",
                    "--reps", "40", "--centering-reps", "300", "--threads", "2"]
CRITERION_8_LINE = ["decomposition", "--n", "16", "--n-grid", "12,16,20", "--beta",
                    "0.25", "--J", "0.5", "--m", "4", "--reps", "500", "--threads", "2"]
# priced only, never run: 2^27 and 2e9 operations per replicate
CLT_N28_LINE = ["clt", "--n", "28", "--beta", "0.25", "--J", "1", "--reps", "20",
                "--threads", "2"]
CYCLES_N1000_LINE = ["cycles", "--n", "1000", "--kmax", "4", "--budget", "inf",
                     "--reps", "20", "--threads", "2"]
# priced only: acceptance criteria 4-7 at --threads 2
CRITERIA_4_TO_7_LINES = (
    ["cycles", "--n", "150", "--kmax", "4", "--reps", "1000", "--threads", "2"],
    ["tilted", "--n", "150", "--beta", "0.4", "--kmax", "3", "--reps", "2000",
     "--threads", "2"],
    ["approx", "--n", "200", "--n-grid", "50,100,200", "--kmax", "5", "--reps", "500",
     "--centering-reps", "1500", "--threads", "2"],
    [*CLT_GRID_LINE[:-3], "1000", "--threads", "2"],
)


def _config(argv):
    return cli._make_config(cli.build_parser().parse_args(argv))


def _workers(argv):
    cfg = _config(argv)
    return ex._worker_count(cfg, getattr(ex, f"_{cfg.kind}_plan")(cfg))


def _reports_at_one_and_two_threads_without_a_fork(monkeypatch, tmp_path, line):
    """The line's reports at --threads 1 and 2 with two usable cores, the
    echoed threads and the time stamp dropped; a fork fails the test."""
    monkeypatch.setattr(ex, "_usable_cores", lambda: 2)

    def no_fork(worker, stacks, workers):
        raise AssertionError("a run priced below two workers forked")

    monkeypatch.setattr(ex, "_fork_map", no_fork)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        argv = [*line[:-1], threads, "--raw-samples", "--out", str(out)]
        assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_VERDICT)
        report = json.loads(out.read_text())
        assert report["config"].pop("threads") == int(threads)
        report.pop("generated_at")
        reports.append(report)
    return reports


def test_a_run_too_small_to_fork_computes_in_this_process(monkeypatch, tmp_path):
    """The benchmark's clt line at --threads 2 is priced below two workers:
    it never forks, and its report is that of --threads 1 apart from the
    echoed threads and the time stamp."""
    reports = _reports_at_one_and_two_threads_without_a_fork(
        monkeypatch, tmp_path, CLT_GRID_LINE
    )
    assert reports[0] == reports[1]
    assert reports[0]["raw_samples"]["24"]["n_fluct"]


def test_the_approx_benchmark_line_computes_in_this_process(monkeypatch, tmp_path):
    """The benchmark's approx line (7.3e8 operations) at --threads 2 never
    forks either, and gives the report of --threads 1."""
    reports = _reports_at_one_and_two_threads_without_a_fork(
        monkeypatch, tmp_path, APPROX_GRID_LINE
    )
    assert reports[0] == reports[1]
    assert reports[0]["raw_samples"]["200"]["residual_5"]


def test_worker_count_follows_the_priced_rule(monkeypatch):
    """One worker below 2 FORK_OPERATIONS of work, else min(threads,
    replicates, usable cores), with work the replicates times the grid's
    summed price: 2^(n-1) per log Z and 2 n^3 per cycle series."""
    counts = set()
    for line, reps, (threads, cores) in itertools.product(
        (CLT_GRID_LINE, APPROX_GRID_LINE, CRITERION_8_LINE, CLT_N28_LINE,
         CYCLES_N1000_LINE),
        (2, 5, 10, 20, 31, 40, 200, 500, 1000),
        ((1, 2), (2, 2), (2, 8), (8, 8), (64, 4)),
    ):
        monkeypatch.setattr(ex, "_usable_cores", lambda: cores)
        argv = [*line[:-1], str(threads)]
        argv[argv.index("--reps") + 1] = str(reps)
        cfg = _config(argv)
        log_z, series = {"clt": (1, 0), "decomposition": (1, 1)}.get(cfg.kind, (0, 1))
        work = reps * sum(log_z * 2 ** (n - 1) + series * 2 * n**3 for n in cfg.sizes)
        expected = 1 if work < 2 * ex.FORK_OPERATIONS else min(threads, reps, cores)
        assert _workers(argv) == expected, argv
        counts.add(expected)
    # threads (1, 2, 8), usable cores (4) and replicates (5) each bind
    assert counts == {1, 2, 4, 5, 8}


def test_two_cores_fork_the_runs_that_pay_for_it(monkeypatch):
    """With two usable cores the clt and approx benchmark lines (1.8e8 and
    7.3e8 operations) and acceptance criterion 8's config (2.9e8) compute
    in this process, while criteria 4-7 (6.75e9 to 1.35e10) fork two
    workers."""
    monkeypatch.setattr(ex, "_usable_cores", lambda: 2)
    lines = (CLT_GRID_LINE, APPROX_GRID_LINE, CRITERION_8_LINE)
    assert [_workers(argv) for argv in lines] == [1, 1, 1]
    assert [_workers(argv) for argv in CRITERIA_4_TO_7_LINES] == [2, 2, 2, 2]


def test_usable_cores_falls_back_to_the_cpu_count(monkeypatch):
    assert 1 <= ex._usable_cores() <= (os.cpu_count() or 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert ex._usable_cores() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ex._usable_cores() == 1


def test_pool_workers_keep_freed_memory(monkeypatch):
    """Each forked worker asks glibc to keep freed arrays in the heap (no
    trim, no per-array mmap), and does nothing where there is no mallopt."""
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ex.ctypes, "CDLL", lambda name: Libc())
    ex.keep_freed_memory()
    assert calls == [(-1, 1 << 30), (-3, 1 << 25)]
    monkeypatch.setattr(ex.ctypes, "CDLL", lambda name: object())
    ex.keep_freed_memory()
    assert len(calls) == 2


def _replicate_seeds(stacks):
    """(n, SeedSpec) of every replicate of ``stacks``, in their order."""
    return [
        (n, seed.stream(seed.stream_id + i))
        for n, seed, count, *_ in stacks
        for i in range(count)
    ]


def test_one_map_per_run_in_grid_order(monkeypatch):
    seen = []
    stacks = ex._stacks

    def spy(config, size_args, workers):
        seen.append(stacks(config, size_args, workers))
        return seen[-1]

    monkeypatch.setattr(ex, "_stacks", spy)
    cfg = ex.ExperimentConfig(
        kind="clt", params=PARAMS, replicates=3, master_seed=5, n_grid=(6, 8)
    )
    report = ex.run_clt(cfg)
    assert len(seen) == 1
    assert _replicate_seeds(seen[0]) == [
        (n, SeedSpec(5, s * 2**32 + r)) for s, n in enumerate((6, 8, 10)) for r in range(3)
    ]
    assert [r.n for r in report.results] == [6, 8, 10]
    assert all(r.summaries["n_fluct"].count == 3 for r in report.results)


def test_stacks_cut_each_size_by_the_element_cap():
    """Each stack is (n, seed, count, *size args), the count consecutive
    replicates from seed's stream in grid order, at most
    STACK_ELEMENTS // n^2 (and at least one) of them; a size's stack lengths
    differ by at most one, and their number is a multiple of the worker
    count wherever the size has that many replicates."""
    configs = [
        ex.ExperimentConfig(
            kind="cycles", params=ModelParams(beta=0.0, n=200), replicates=150,
            master_seed=5, n_grid=(12, 20, 200),
        ),
        ex.ExperimentConfig(
            kind="cycles", params=ModelParams(beta=0.0, n=300), replicates=3, master_seed=5,
        ),
    ]

    def stacks_of(workers):
        return [
            stack
            for cfg in configs
            for stack in ex._stacks(cfg, [("x", 4)] * len(cfg.sizes), workers)
        ]

    seeds_in_grid_order = [
        (n, SeedSpec(5, s * 2**32 + r))
        for cfg in configs
        for s, n in enumerate(cfg.sizes)
        for r in range(cfg.replicates)
    ]
    for workers in (1, 2, 3):
        stacks = stacks_of(workers)
        assert all(
            type(n) is int and type(seed) is SeedSpec and type(count) is int
            and args == ["x", 4]
            for n, seed, count, *args in stacks
        )
        assert _replicate_seeds(stacks) == seeds_in_grid_order
        for n in (12, 20, 200, 300):
            lengths = [s[2] for s in stacks if s[0] == n]
            assert max(lengths) <= max(1, ex.STACK_ELEMENTS // n**2)
            assert max(lengths) - min(lengths) <= 1
            total = sum(lengths)
            assert len(lengths) % workers == 0 or len(lengths) == total
    assert [s[2] for s in stacks_of(2) if s[0] == 12] == [75, 75]
    assert [s[2] for s in stacks_of(3) if s[0] == 12] == [50, 50, 50]
    assert [s[2] for s in stacks_of(1) if s[0] == 20] == [37, 38, 37, 38]
    assert [s[2] for s in stacks_of(3) if s[0] == 20] == [25] * 6
    assert {s[2] for s in stacks_of(2) if s[0] == 200} == {1}
    assert [s[2] for s in stacks_of(2) if s[0] == 300] == [1, 1, 1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_million_replicates_make_stream_range_stacks(workers):
    """A stack holds one SeedSpec, its first replicate's, and an int count,
    not an object per replicate: the stacks of each size tile the streams
    s * 2^32 + 0 .. R - 1 in grid order, their lengths within one."""
    reps = 10**6
    cfg = ex.ExperimentConfig(
        kind="clt", params=ModelParams(beta=0.2, n=8), replicates=reps, master_seed=5,
        n_grid=(4, 6),
    )
    stacks = ex._stacks(cfg, [(None,)] * len(cfg.sizes), workers)
    assert [n for n, *_ in stacks] == sorted(n for n, *_ in stacks)
    for s, n in enumerate(cfg.sizes):
        ranges = [(seed, count) for m, seed, count, *_ in stacks if m == n]
        assert all(type(seed) is SeedSpec and type(count) is int for seed, count in ranges)
        assert {seed.master_seed for seed, _ in ranges} == {5}
        counts = [count for _, count in ranges]
        starts = [seed.stream_id - s * 2**32 for seed, _ in ranges]
        assert starts == list(itertools.accumulate(counts[:-1], initial=0))
        assert sum(counts) == reps
        assert max(counts) - min(counts) <= 1


@pytest.mark.parametrize("kind", ex.KINDS)
def test_a_worker_returns_one_float_row_per_replicate(kind):
    """Each worker returns one float64 array for its stack, one row per
    replicate, and each row is bit for bit the row of that replicate's
    stack of one."""
    cfg = ex.ExperimentConfig(
        kind=kind, params=ModelParams(beta=0.2, n=8), replicates=3, master_seed=9,
        kmax=4, m=3, sigma="random",
    )
    worker = getattr(ex, f"_{kind}_worker")
    args = getattr(ex, f"_{kind}_plan")(cfg).size_args(8)
    rows = worker(8, SeedSpec(9, 0), 3, *args)
    assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
    assert len(rows) == 3
    for r, row in enumerate(rows):
        single = worker(8, SeedSpec(9, r), 1, *args)
        assert single.shape == (1, *rows.shape[1:])
        assert single[0].tobytes() == row.tobytes()


@pytest.mark.parametrize("kind, kwargs", [
    ("clt", dict(params=ModelParams(beta=0.25, J=1.0, n=16))),
    ("decomposition", dict(params=ModelParams(beta=0.25, J=0.5, n=16), m=4)),
])
def test_stack_grouping_leaves_raw_samples_unchanged(kind, kwargs):
    """At 7 replicates a size is one stack, at 200 its first stack holds 100
    matrices at n = 12 and 50 at n = 16: the first 7 replicates' samples
    are the same bits either way."""
    run = getattr(ex, f"run_{kind}")
    raw = [
        run(ex.ExperimentConfig(
            kind=kind, replicates=reps, master_seed=17, n_grid=(12, 16, 20),
            keep_raw=True, **kwargs,
        )).raw_samples
        for reps in (7, 200)
    ]
    for n, samples in raw[0].items():
        for name, xs in samples.items():
            assert xs == raw[1][n][name][:7], (n, name)


def _blas_threads():
    return randmat.openblas_function("get_num_threads")()


def _worker_threads():
    """(OpenBLAS threads, OS threads or None without /proc) of this process."""
    task_dir = "/proc/self/task"
    return _blas_threads(), len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None


def test_pool_workers_run_one_blas_thread(monkeypatch):
    """Each child of a run's fork map has kept its freed memory and, after
    a Gram product at n = 200, still runs one OpenBLAS thread and one OS
    thread; this process never changes its allocator."""
    if randmat.openblas_function("get_num_threads") is None:
        pytest.skip("numpy does not link OpenBLAS here")
    seen = []
    fork_map = ex._fork_map
    kept = []
    monkeypatch.setattr(ex, "keep_freed_memory", lambda: kept.append(os.getpid()))

    def probe(n, seeds):
        assert kept == [os.getpid()]
        cycles._gram(np.ones((2, 200, 200)))
        return [_worker_threads()]

    def spy(worker, stacks, workers):
        seen.extend(out for outs in fork_map(probe, [(200, [])] * 4, workers) for out in outs)
        return fork_map(worker, stacks, workers)

    monkeypatch.setattr(ex, "_fork_map", spy)
    monkeypatch.setattr(ex, "_usable_cores", lambda: 2)
    monkeypatch.setattr(ex, "FORK_OPERATIONS", 1)
    cfg = ex.ExperimentConfig(
        kind="clt", params=PARAMS, replicates=4, master_seed=3, threads=2, n_grid=(8,)
    )
    ex.run_clt(cfg)
    assert kept == []
    assert [blas for blas, _ in seen] == [1] * 4
    if seen[0][1] is not None:
        assert [os_threads for _, os_threads in seen] == [1] * 4


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _two_worker_clt(monkeypatch, worker):
    """A clt config that forks two workers running ``worker``: the fork is
    priced at one operation, so the worker never runs in this process."""
    monkeypatch.setattr(ex, "_clt_worker", worker)
    monkeypatch.setattr(ex, "_usable_cores", lambda: 2)
    monkeypatch.setattr(ex, "FORK_OPERATIONS", 1)
    return ex.ExperimentConfig(
        kind="clt", params=PARAMS, replicates=4, master_seed=3, threads=2, n_grid=(8,)
    )


def test_a_worker_error_reaches_the_parent_with_its_type(monkeypatch, capsys):
    """A child's ValueError is raised in the parent as a ValueError, the CLI
    turns it into exit 1, and every child is reaped."""

    def refusing_worker(n, seed, count, *args):
        raise ValueError(f"stack at n={n} refused")

    cfg = _two_worker_clt(monkeypatch, refusing_worker)
    with pytest.raises(ValueError, match="stack at n=8 refused"):
        ex.run_clt(cfg)
    _assert_no_child_left()
    argv = ["clt", "--n", "10", "--n-grid", "8", "--beta", "0.25", "--J", "1",
            "--reps", "4", "--seed", "3", "--threads", "2"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "stack at n=8 refused" in capsys.readouterr().err
    _assert_no_child_left()


def test_a_worker_that_exits_without_writing_is_an_error(monkeypatch):
    cfg = _two_worker_clt(monkeypatch, lambda n, seed, count, *args: os._exit(3))
    with pytest.raises(RuntimeError, match="exited without writing its outputs"):
        ex.run_clt(cfg)
    _assert_no_child_left()


def test_an_interrupted_run_kills_and_reaps_its_children(monkeypatch):
    """An interrupt while the parent waits kills the children at once
    instead of waiting out their work."""

    def slow_worker(n, seed, count, *args):
        time.sleep(60)
        return [0.0] * count

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    cfg = _two_worker_clt(monkeypatch, slow_worker)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            ex.run_clt(cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_importing_the_cli_loads_no_process_pool():
    """The fork map needs neither multiprocessing nor concurrent.futures,
    so importing the command line loads neither."""
    src = os.path.dirname(os.path.dirname(ex.__file__))
    code = (
        "import sys, skcw.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_unknown_spin_vector_refused_when_the_config_is_built():
    with pytest.raises(ValueError, match="unknown spin vector 'diagonal'"):
        ex.ExperimentConfig(
            kind="tilted", params=ModelParams(beta=0.2, n=12), replicates=5,
            master_seed=1, kmax=3, sigma="diagonal",
        )


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
    mixed = ex.run_tilted(
        ex.ExperimentConfig(kind="tilted", **{**base, "master_seed": 14, "sigma": "random"})
    )
    s1 = ones.summary(n, "cycle_3")
    s2 = mixed.summary(n, "cycle_3")
    pooled = math.hypot(s1.stderr, s2.stderr)
    assert abs(s1.mean - s2.mean) < 3 * pooled
