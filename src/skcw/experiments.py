"""Replicated Monte Carlo experiments, statistics and machine-readable reports.

The five experiments (clt, cycles, tilted, approx, decomposition) share
one driver, ``_drive``.  Each ``run_*`` names its module-level
``*_worker`` and a ``_Plan`` with what differs: the task arguments, a
per-size builder of summaries, checks and raw samples, the cross-size
checks and the targets.  ``ExperimentConfig`` checks every size of the
grid, and the driver every per-size input, before any sample is drawn.
Replicate r at size index s uses stream_id = s * 2^32 + r under the
configured master seed; the stream id ends every task tuple.

Every comparison is recorded as a named check carrying the rule, the
observed value, the target and the tolerance; a report is never a bare
pass/fail.

The limit theorems hold as n -> infinity and come with no usable rate
constants, so the finite-n tolerances are artifact decisions: mean checks
use max(absolute floor, 3 standard errors), variance checks use relative
bands, and grid runs additionally require the error trend across the
sizes (non-increasing up to one standard error of the difference for
means, decreasing point estimates for residual variances).
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import combinat
from .cycles import (
    DEFAULT_CYCLE_BUDGET,
    chebyshev_trace,
    check_cycle_budget,
    cycle_series,
    exact_centering,
)
from .gibbs import (
    ENUMERATION_MAX_N,
    ModelParams,
    clt_targets,
    decomposition_residual,
    exact_log_partition,
)
from .randmat import (
    SeedSpec,
    all_ones_spins,
    check_spins,
    one_blas_thread,
    sample_gaussian_matrix,
    sample_tilted_matrix,
)

SCHEMA_VERSION = 1
KINDS = ("clt", "cycles", "tilted", "approx", "decomposition")

_STREAM_BLOCK = 1 << 32


# ---------------------------------------------------------------------------
# configuration and report structure


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: ModelParams
    replicates: int
    master_seed: int
    kmax: int = 4
    m: int = 4
    n_grid: tuple[int, ...] | None = None
    threads: int = 1
    keep_raw: bool = False
    centering_replicates: int | None = None
    cycle_budget: float = DEFAULT_CYCLE_BUDGET

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 2:
            raise ValueError(f"need at least 2 replicates, got {self.replicates}")
        if self.threads < 1:
            raise ValueError(f"need at least 1 thread, got {self.threads}")
        if self.n_grid is not None:
            grid = tuple(self.n_grid)
            if list(grid) != sorted(set(grid)):
                raise ValueError("n_grid must be strictly increasing")
            object.__setattr__(self, "n_grid", grid)
        self._check_sizes()

    def _check_sizes(self) -> None:
        """Reject a configuration that would fail partway through its run.

        Every size of the grid is checked here, before any replicate is
        computed.  The hard bounds come first (sizes, regime, enumeration
        bound, kmax or m range, exact-moment bound, centering count), so
        their messages win over that of ``check_cycle_budget``, the one
        compute guard, which comes last.
        """
        smallest, largest = self.sizes[0], self.sizes[-1]
        if smallest < 1:
            raise ValueError(f"sizes must be positive, got n={smallest}")
        if self.kind in ("clt", "decomposition"):
            self.params.require_paramagnetic()
            if largest > ENUMERATION_MAX_N:
                raise ValueError(
                    f"n={largest} exceeds the enumeration bound {ENUMERATION_MAX_N}"
                )
        if self.kind == "clt":
            return
        name = "m" if self.kind == "decomposition" else "kmax"
        depth = getattr(self, name)
        low = 3 if self.kind == "approx" else 1
        if not low <= depth <= smallest:
            raise ValueError(
                f"{self.kind} needs {low} <= {name} <= n at every size, got "
                f"{name}={depth} with smallest n={smallest}"
            )
        if self.kind == "approx":
            largest_even = self.kmax - self.kmax % 2
            if largest_even > combinat.WALK_MOMENT_MAX_J:
                raise ValueError(
                    f"approx needs the exact centering of k={largest_even}, beyond the "
                    f"exact-moment bound {combinat.WALK_MOMENT_MAX_J}"
                )
            # accepted and echoed for existing command lines; the centering
            # is exact, so no sample is drawn from it
            if self.centering_replicates is not None and self.centering_replicates < 1:
                raise ValueError(
                    f"need at least 1 centering replicate, got {self.centering_replicates}"
                )
        check_cycle_budget(largest, depth, self.cycle_budget)

    @property
    def sizes(self) -> tuple[int, ...]:
        if self.n_grid:
            if self.params.n not in self.n_grid:
                return tuple(sorted(set(self.n_grid) | {self.params.n}))
            return self.n_grid
        return (self.params.n,)


@dataclass(frozen=True)
class SampleSummary:
    count: int
    mean: float
    variance: float
    stderr: float
    min: float
    max: float

    @staticmethod
    def from_samples(xs: Sequence[float]) -> "SampleSummary":
        xs = np.asarray(xs, dtype=float)
        if xs.size < 2:
            raise ValueError("need at least two samples")
        var = float(xs.var(ddof=1))
        return SampleSummary(
            count=int(xs.size),
            mean=float(xs.mean()),
            variance=var,
            stderr=math.sqrt(var / xs.size),
            min=float(xs.min()),
            max=float(xs.max()),
        )


@dataclass(frozen=True)
class Check:
    """One named verdict: rule, observed value, target and tolerance.

    ``statistic`` carries the test statistic where one exists (the KS
    supremum distance); the observed value of those checks is the p-value.
    """

    name: str
    rule: str
    observed: float | None
    target: float | None
    tolerance: float | None
    passed: bool
    statistic: float | None = None


@dataclass(frozen=True)
class TargetValue:
    name: str
    value: float
    source: str


@dataclass(frozen=True)
class SizeResult:
    n: int
    summaries: dict[str, SampleSummary]
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    config: dict
    targets: tuple[TargetValue, ...]
    results: tuple[SizeResult, ...]
    checks: tuple[Check, ...]
    passed: bool
    raw_samples: dict | None = None

    def all_checks(self):
        for res in self.results:
            yield from res.checks
        yield from self.checks

    def find_check(self, name: str, n: int | None = None) -> Check:
        if n is None:
            pool = list(self.all_checks())
        else:
            pool = [c for r in self.results if r.n == n for c in r.checks]
        for c in pool:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}" + (f" at n={n}" if n else ""))

    def summary(self, n: int, name: str) -> SampleSummary:
        for res in self.results:
            if res.n == n:
                return res.summaries[name]
        raise KeyError(f"no results for n={n}")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config": self.config,
            "targets": [asdict(t) for t in self.targets],
            "results": [
                {
                    "n": r.n,
                    "summaries": {k: asdict(v) for k, v in r.summaries.items()},
                    "checks": [asdict(c) for c in r.checks],
                }
                for r in self.results
            ],
            "checks": [asdict(c) for c in self.checks],
            "passed": self.passed,
            "raw_samples": self.raw_samples,
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentReport":
        """Inverse of ``to_dict``; a ValueError names what makes ``d`` no report."""
        try:
            if d.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(f"unsupported schema version {d.get('schema_version')!r}")
            if d.get("kind") not in (*KINDS, "identities"):
                raise ValueError(f"not an experiment report: kind {d.get('kind')!r}")
            return ExperimentReport(
                kind=d["kind"],
                config=d["config"],
                targets=tuple(TargetValue(**t) for t in d["targets"]),
                results=tuple(
                    SizeResult(
                        n=r["n"],
                        summaries={
                            k: SampleSummary(**v) for k, v in r["summaries"].items()
                        },
                        checks=tuple(Check(**c) for c in r["checks"]),
                    )
                    for r in d["results"]
                ),
                checks=tuple(Check(**c) for c in d["checks"]),
                passed=d["passed"],
                raw_samples=d.get("raw_samples"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"not an experiment report: {exc!r}") from None


def _config_echo(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["n_grid"] = list(config.n_grid) if config.n_grid else None
    return d


# ---------------------------------------------------------------------------
# statistics


def ks_test(sample: Sequence[float], mean: float, variance: float) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic against Normal(mean, variance),
    with the p-value from the asymptotic Kolmogorov distribution."""
    xs = np.sort(np.asarray(sample, dtype=float))
    if xs.size < 20:
        raise ValueError(f"need at least 20 samples, got {xs.size}")
    if not variance > 0:
        raise ValueError("variance must be positive")
    z = (xs - mean) / math.sqrt(variance)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
    grid = np.arange(1, xs.size + 1) / xs.size
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / xs.size)))
    stat = max(d_plus, d_minus)
    return stat, kolmogorov_sf(math.sqrt(xs.size) * stat)


def kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution."""
    if x <= 0:
        return 1.0
    if x < 1.18:
        # Jacobi theta form, accurate where the alternating series is slow
        t = math.exp(-math.pi**2 / (8.0 * x**2))
        cdf = math.sqrt(2.0 * math.pi) / x * (t + t**9 + t**25 + t**49)
        return max(0.0, min(1.0, 1.0 - cdf))
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j**2 * x**2)
        total += term
        if abs(term) < 1e-16:
            break
    return max(0.0, min(1.0, total))


def empirical_wasserstein(a: Sequence[float], b: Sequence[float], p: int = 1) -> float:
    """W_p between two equal-size empirical distributions via order statistics
    (the optimal coupling in one dimension pairs sorted samples)."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    xs = np.sort(np.asarray(a, dtype=float))
    ys = np.sort(np.asarray(b, dtype=float))
    if xs.size != ys.size:
        raise ValueError(f"size mismatch: {xs.size} vs {ys.size}")
    return float(np.mean(np.abs(xs - ys) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# check builders


def _check_abs(name, rule, observed, target, tolerance) -> Check:
    return Check(
        name=name,
        rule=rule,
        observed=float(observed),
        target=float(target),
        tolerance=float(tolerance),
        passed=bool(abs(observed - target) <= tolerance),
    )


def _check_rel_band(name, rule, observed, target, rel) -> Check:
    return _check_abs(name, rule, observed, target, rel * abs(target))


def _check_pvalue(name, rule, p, floor, statistic) -> Check:
    return Check(
        name=name,
        rule=rule,
        observed=float(p),
        target=None,
        tolerance=float(floor),
        passed=bool(p > floor),
        statistic=float(statistic),
    )


def _trend_check_mean_error(
    name: str, errs: list[float], ses: list[float], sizes: Sequence[int]
) -> Check:
    """Non-increasing |mean - target| across sizes, with one standard error
    of the difference as slack per step."""
    ok = True
    worst = 0.0
    for i in range(len(errs) - 1):
        slack = math.hypot(ses[i], ses[i + 1])
        excess = errs[i + 1] - errs[i] - slack
        worst = max(worst, excess)
        if excess > 0:
            ok = False
    return Check(
        name=name,
        rule=f"|mean error| non-increasing across n={list(sizes)} up to one "
        "standard error of the difference",
        observed=worst,
        target=0.0,
        tolerance=0.0,
        passed=ok,
    )


def _trend_check_decreasing(name: str, values: list[float], sizes, what: str) -> Check:
    ok = all(values[i + 1] < values[i] for i in range(len(values) - 1))
    return Check(
        name=name,
        rule=f"{what} decreasing across n={list(sizes)}",
        observed=max(values) if values else 0.0,
        target=None,
        tolerance=None,
        passed=ok,
    )


# ---------------------------------------------------------------------------
# the experiment driver


def _usable_cores() -> int:
    """Cores this process may run on, the cap on pool workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _keep_freed_memory() -> None:
    """Pool initializer: glibc keeps freed blocks in the heap (no-op without
    ``mallopt``).  Otherwise each n x n array may be unmapped or trimmed and
    fault its pages in again, as the inherited heap happens to decide: the
    ``approx_grid`` workers took 6e3 or 3e4 faults for comment-only edits."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: no trimming below 1 GiB free
        mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD: its largest value, 32 MiB


def _map_replicates(worker: Callable, tasks: list, pool, workers: int) -> list:
    if pool is None:
        return [worker(t) for t in tasks]
    chunk = max(1, len(tasks) // (8 * workers))
    return list(pool.map(worker, tasks, chunksize=chunk))


@dataclass(frozen=True)
class _Plan:
    """What one experiment kind adds to the shared driver.

    ``task_args(n)`` gives the worker arguments that sit between n and
    (master_seed, stream_id) in each task tuple; the driver calls it for
    every size before any replicate runs, so per-size inputs are checked
    there.  ``size_result(n, outputs)`` turns the worker outputs at size n
    into (summaries, checks, raw samples), and
    ``cross_checks(results)`` compares the sizes of a grid run.
    """

    task_args: Callable[[int], tuple]
    size_result: Callable[[int, list], tuple[dict, list, dict]]
    cross_checks: Callable[[list], list] = lambda results: []
    targets: tuple[TargetValue, ...] = ()


def _drive(
    config: ExperimentConfig,
    kind: str,
    worker: Callable,
    plan_for: Callable[[ExperimentConfig], _Plan],
) -> ExperimentReport:
    """Run every replicate of every size and assemble the report.

    The kind is checked before ``plan_for`` builds the plan, so a plan never
    sees another kind's config.  Each ``run_*`` passes its worker by its
    module-level name at call time: the pool pickles it by that name, and a
    wrapper installed under the name (the perfbench tracer) is what runs.

    The tasks of every size, in grid order, go through one map of a pool of
    at most ``threads`` workers, never more than replicates or usable cores.
    The pool is opened after every per-size input is checked and shut down
    before this returns, so the run's resource usage covers its workers.
    The whole run holds this process at one OpenBLAS thread: forked workers
    inherit that count, so ``set_blas_threads`` never has to call the
    setter in them, and the setter would start a BLAS thread server there.
    """
    if config.kind != kind:
        raise ValueError(f"config kind is {config.kind!r}, expected {kind!r}")
    plan = plan_for(config)
    size_args = [plan.task_args(n) for n in config.sizes]
    tasks = [
        (n, *args, config.master_seed, s * _STREAM_BLOCK + r)
        for s, (n, args) in enumerate(zip(config.sizes, size_args))
        for r in range(config.replicates)
    ]
    workers = min(config.threads, config.replicates, _usable_cores())
    if workers > 1:
        # fork, whatever the platform default: the workers must inherit the
        # one-thread BLAS count and any wrapper installed under the worker's
        # module-level name
        pool_context = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_keep_freed_memory,
        )
    else:
        pool_context = contextlib.nullcontext()  # one worker: this process
    results = []
    raw: dict = {}
    with one_blas_thread():
        with pool_context as pool:
            outputs = _map_replicates(worker, tasks, pool, workers)
        reps = config.replicates
        for s, n in enumerate(config.sizes):
            summaries, checks, samples = plan.size_result(
                n, outputs[s * reps:(s + 1) * reps]
            )
            results.append(SizeResult(n=n, summaries=summaries, checks=tuple(checks)))
            if config.keep_raw:
                raw[str(n)] = {name: xs.tolist() for name, xs in samples.items()}
        cross = tuple(plan.cross_checks(results)) if len(results) > 1 else ()
    passed = all(c.passed for r in results for c in r.checks) and all(
        c.passed for c in cross
    )
    return ExperimentReport(
        kind=kind,
        config=_config_echo(config),
        targets=plan.targets,
        results=tuple(results),
        checks=cross,
        passed=passed,
        raw_samples=raw or None,
    )


# ---------------------------------------------------------------------------
# clt: free-energy fluctuations


def _clt_worker(task) -> float:
    n, beta, j, jp, master, stream = task
    a = sample_gaussian_matrix(n, SeedSpec(master, stream))
    params = ModelParams(beta=beta, J=j, Jprime=jp, n=n)
    return exact_log_partition(a, params) - n * beta**2


def _clt_plan(config: ExperimentConfig) -> _Plan:
    params = config.params
    if params.beta == 0.0:
        t = None
        targets = (TargetValue("mean", 0.0, "beta=0 degenerate"),)
    else:
        t = clt_targets(params)
        targets = (
            TargetValue("limit", t.limit, "beta^2"),
            TargetValue("mean", t.mean, "-log(1-2bJ)/2 + b(J'-J) + log(1-4b^2)/4"),
            TargetValue("variance", t.variance, "-b^2 - log(1-4b^2)/2"),
        )

    def size_result(n, outputs):
        xs = np.array(outputs)
        summ = SampleSummary.from_samples(xs)
        if t is None:
            checks = [
                _check_abs(
                    "degenerate_zero_beta",
                    "beta = 0 forces every sample to equal 0 exactly",
                    float(np.max(np.abs(xs))), 0.0, 0.0,
                )
            ]
        else:
            checks = [
                _check_abs(
                    "clt_mean",
                    "sample mean of n(F_n - beta^2) within max(0.03, 3*SE) of f1",
                    summ.mean, t.mean, max(0.03, 3.0 * summ.stderr),
                ),
                _check_rel_band(
                    "clt_variance",
                    "sample variance within 20% of alpha1",
                    summ.variance, t.variance, 0.20,
                ),
            ]
            if xs.size >= 20:
                stat, p = ks_test(xs, t.mean, t.variance)
                checks.append(
                    _check_pvalue(
                        "clt_ks",
                        "KS p-value vs Normal(f1, alpha1) above 0.001",
                        p, 0.001, stat,
                    )
                )
        return {"n_fluct": summ}, checks, {"n_fluct": xs}

    def cross_checks(results):
        if t is None:
            return []
        summs = [r.summaries["n_fluct"] for r in results]
        return [
            _trend_check_mean_error(
                "clt_mean_trend",
                [abs(x.mean - t.mean) for x in summs],
                [x.stderr for x in summs],
                config.sizes,
            )
        ]

    return _Plan(
        lambda n: (params.beta, params.J, params.Jprime),
        size_result, cross_checks, targets,
    )


def run_clt(config: ExperimentConfig) -> ExperimentReport:
    """Free-energy fluctuation law: n (F_n - beta^2) vs Normal(f1, alpha1)."""
    return _drive(config, "clt", _clt_worker, _clt_plan)


# ---------------------------------------------------------------------------
# cycles and tilted: signed-cycle laws


def _cycles_worker(task) -> list[float]:
    n, kmax, budget, master, stream = task
    a = sample_gaussian_matrix(n, SeedSpec(master, stream))
    return list(cycle_series(a, kmax, budget=budget).values)


def _tilted_worker(task) -> list[float]:
    n, kmax, beta, sigma, budget, master, stream = task
    a = sample_tilted_matrix(n, sigma, beta, SeedSpec(master, stream))
    return list(cycle_series(a, kmax, budget=budget).values)


def _cycle_statistics_checks(
    values: np.ndarray, n: int, kmax: int, mean_targets: dict[int, float],
    mean_floor: float, var_rel: float,
) -> tuple[dict[str, SampleSummary], list[Check]]:
    """Shared per-size statistics for the plain and tilted cycle runs.

    ``values`` has one replicate per row and columns C_{n,1}..C_{n,kmax};
    column k=2 is centered by (n-1) before any statistic is formed.
    """
    reps = values.shape[0]
    centered = values.copy()
    if kmax >= 2:
        centered[:, 1] -= n - 1
    summaries = {}
    checks: list[Check] = []
    for k in range(1, kmax + 1):
        name = f"cycle_{k}" + ("_centered" if k == 2 else "")
        summ = SampleSummary.from_samples(centered[:, k - 1])
        summaries[name] = summ
        var_target = 1.0 if k == 1 else 2.0 * k
        checks.append(
            _check_rel_band(
                f"cycle_{k}_variance",
                f"Var(C_{{n,{k}}}) within {100 * var_rel:g}% of {var_target:g}",
                summ.variance, var_target, var_rel,
            )
        )
        mean_target = mean_targets.get(k, 0.0)
        tol = max(mean_floor, 3.0 * summ.stderr)
        checks.append(
            _check_abs(
                f"cycle_{k}_mean",
                f"mean of centered C_{{n,{k}}} within max({mean_floor:g}, 3*SE) "
                f"of {mean_target:g}",
                summ.mean, mean_target, tol,
            )
        )
        if reps >= 20:
            stat, p = ks_test(
                (centered[:, k - 1] - mean_target) / math.sqrt(var_target),
                0.0, 1.0,
            )
            checks.append(
                _check_pvalue(
                    f"cycle_{k}_ks",
                    f"KS p-value of (C_{{n,{k}}} - target)/sqrt({var_target:g}) vs "
                    "N(0,1) above 0.001",
                    p, 0.001, stat,
                )
            )
    # pairwise covariance and correlation with the diagonal statistic
    corr_tol = 3.0 / math.sqrt(reps)
    for k1 in range(1, kmax + 1):
        for k2 in range(k1 + 1, kmax + 1):
            c1 = centered[:, k1 - 1] - mean_targets.get(k1, 0.0)
            c2 = centered[:, k2 - 1] - mean_targets.get(k2, 0.0)
            cov = float(np.cov(c1, c2, ddof=1)[0, 1])
            se = math.sqrt(c1.var(ddof=1) * c2.var(ddof=1) / reps)
            if k1 == 1:
                corr = cov / math.sqrt(c1.var(ddof=1) * c2.var(ddof=1))
                checks.append(
                    _check_abs(
                        f"corr_1_{k2}",
                        f"|corr(C_{{n,1}}, C_{{n,{k2}}})| below 3/sqrt(replicates)",
                        corr, 0.0, corr_tol,
                    )
                )
            else:
                checks.append(
                    _check_abs(
                        f"cov_{k1}_{k2}",
                        f"Cov(C_{{n,{k1}}}, C_{{n,{k2}}}) within 3 SE of 0",
                        cov, 0.0, 3.0 * se,
                    )
                )
    return summaries, checks


def _cycle_plan(
    config: ExperimentConfig, task_args, targets, mean_targets, mean_floor, var_rel
) -> _Plan:
    """Plan of the plain and tilted cycle runs, whose workers return
    C_{n,1..kmax} per replicate."""
    kmax = config.kmax

    def size_result(n, outputs):
        values = np.array(outputs)
        summaries, checks = _cycle_statistics_checks(
            values, n, kmax, mean_targets, mean_floor, var_rel
        )
        return summaries, checks, {
            f"cycle_{k}": values[:, k - 1] for k in range(1, kmax + 1)
        }

    return _Plan(task_args, size_result, targets=targets)


def _cycles_plan(config: ExperimentConfig) -> _Plan:
    return _cycle_plan(
        config,
        lambda n: (config.kmax, config.cycle_budget),
        targets=tuple(
            TargetValue(f"variance_{k}", 1.0 if k == 1 else 2.0 * k, "2k (k>=2), 1 (k=1)")
            for k in range(1, config.kmax + 1)
        ),
        mean_targets={}, mean_floor=0.0, var_rel=0.10,
    )


def run_cycles(config: ExperimentConfig) -> ExperimentReport:
    """Signed-cycle law under the null ensemble: centered C_{n,k} are
    asymptotically independent Normal(0, 2k), independent of C_{n,1}."""
    return _drive(config, "cycles", _cycles_worker, _cycles_plan)


def _tilted_plan(config: ExperimentConfig, sigma) -> _Plan:
    beta = config.params.beta

    def task_args(n):
        if sigma is None:
            sig = all_ones_spins(n)
        else:
            sig = check_spins(sigma(n) if callable(sigma) else sigma)
        if sig.size != n:
            raise ValueError(f"sigma has length {sig.size}, expected {n}")
        return (config.kmax, beta, sig, config.cycle_budget)

    mean_targets = {k: (2.0 * beta) ** k for k in range(2, config.kmax + 1)}
    return _cycle_plan(
        config,
        task_args,
        targets=tuple(
            TargetValue(f"mean_{k}", mean_targets[k], "(2 beta)^k")
            for k in range(2, config.kmax + 1)
        ),
        mean_targets=mean_targets, mean_floor=0.15, var_rel=0.15,
    )


def run_tilted(
    config: ExperimentConfig,
    sigma: np.ndarray | Callable[[int], np.ndarray] | None = None,
) -> ExperimentReport:
    """Cycle law under the tilted ensemble: centered C_{n,k} shift to
    (2 beta)^k with unchanged variance 2k, for any fixed spin vector.

    ``sigma`` is one spin vector, which must then match every size, or a
    function of n giving the vector at each size; the default is all ones.
    """
    return _drive(config, "tilted", _tilted_worker, lambda c: _tilted_plan(c, sigma))


# ---------------------------------------------------------------------------
# approx: cycles against Chebyshev spectral statistics


def _approx_worker(task) -> tuple[list[float], list[float]]:
    """Per replicate: (C_{n,k} for k=3..kmax, Tr P_k(A/sqrt n) for k=3..kmax),
    both from one set of matrix products."""
    n, kmax, budget, master, stream = task
    a = sample_gaussian_matrix(n, SeedSpec(master, stream), hollow=True)
    series = cycle_series(a, kmax, budget=budget, traces=True)
    ks = range(3, kmax + 1)
    return [series.value(k) for k in ks], [chebyshev_trace(series.traces, n, k) for k in ks]


def _approx_plan(config: ExperimentConfig) -> _Plan:
    kmax = config.kmax

    def size_result(n, outputs):
        cyc = np.array([o[0] for o in outputs])
        lss = np.array([o[1] for o in outputs])
        summaries = {}
        checks: list[Check] = []
        samples = {}
        for i, k in enumerate(range(3, kmax + 1)):
            res = cyc[:, i] - (lss[:, i] - exact_centering(n, k))
            samples[f"residual_{k}"] = res
            summaries[f"cycle_{k}"] = SampleSummary.from_samples(cyc[:, i])
            rsum = summaries[f"residual_{k}"] = SampleSummary.from_samples(res)
            if k == 3:
                checks.append(
                    _check_abs(
                        "residual_3_exact",
                        "k=3 residuals vanish identically (within 1e-9)",
                        float(np.max(np.abs(res))), 0.0, 1e-9,
                    )
                )
            else:
                checks.append(
                    _check_abs(
                        f"residual_{k}_mean",
                        f"mean residual at k={k} within 3 SE of 0 (exact centering)",
                        rsum.mean, 0.0, 3.0 * rsum.stderr,
                    )
                )
            if n == config.params.n and k >= 4:
                ratio = rsum.variance / summaries[f"cycle_{k}"].variance
                checks.append(
                    Check(
                        name=f"residual_{k}_variance_ratio",
                        rule=f"Var(residual)/Var(C_{{n,{k}}}) below 0.1 at n={n}",
                        observed=float(ratio),
                        target=0.0,
                        tolerance=0.1,
                        passed=bool(ratio < 0.1),
                    )
                )
        return summaries, checks, samples

    def cross_checks(results):
        return [
            _trend_check_decreasing(
                f"residual_{k}_variance_trend",
                [r.summaries[f"residual_{k}"].variance for r in results],
                config.sizes,
                f"Var(residual_{k})",
            )
            for k in range(4, kmax + 1)
        ]

    return _Plan(lambda n: (kmax, config.cycle_budget), size_result, cross_checks)


def run_approx(config: ExperimentConfig) -> ExperimentReport:
    """Spectral-statistic approximation: residuals C_{n,k} - centered
    Tr P_k(A/sqrt n) per matrix, their variance against Var(C_{n,k}), and
    the shrink across sizes.  The centering E Tr P_k is exact
    (``cycles.exact_centering``); ``config.centering_replicates`` is
    validated and echoed but draws no samples."""
    return _drive(config, "approx", _approx_worker, _approx_plan)


# ---------------------------------------------------------------------------
# decomposition: log Z against its signed-cycle expansion


def _decomposition_worker(task) -> tuple[float, float]:
    n, beta, j, jp, m, budget, master, stream = task
    a = sample_gaussian_matrix(n, SeedSpec(master, stream))
    params = ModelParams(beta=beta, J=j, Jprime=jp, n=n)
    log_z = exact_log_partition(a, params)
    resid = decomposition_residual(a, params, m, log_z=log_z, cycle_budget=budget)
    return resid, log_z - n * beta**2


def _decomposition_plan(config: ExperimentConfig) -> _Plan:
    params = config.params
    degenerate = params.beta == 0.0

    def size_result(n, outputs):
        res = np.array([o[0] for o in outputs])
        fluct = np.array([o[1] for o in outputs])
        rsum = SampleSummary.from_samples(res)
        fsum = SampleSummary.from_samples(fluct)
        if degenerate:
            check = _check_abs(
                "degenerate_zero_beta",
                "beta = 0 forces every residual to equal 0 exactly",
                float(np.max(np.abs(res))), 0.0, 0.0,
            )
        else:
            check = Check(
                name="residual_variance_below_fluctuation",
                rule="Var(residual) < Var(n(F_n - beta^2))",
                observed=rsum.variance,
                target=fsum.variance,
                tolerance=None,
                passed=bool(rsum.variance < fsum.variance),
            )
        summaries = {"residual": rsum, "n_fluct": fsum}
        return summaries, [check], {"residual": res, "n_fluct": fluct}

    def cross_checks(results):
        if degenerate:
            return []
        return [
            _trend_check_decreasing(
                "residual_variance_trend",
                [r.summaries["residual"].variance for r in results],
                config.sizes,
                "Var(residual)",
            )
        ]

    return _Plan(
        lambda n: (params.beta, params.J, params.Jprime, config.m, config.cycle_budget),
        size_result, cross_checks,
    )


def run_decomposition(config: ExperimentConfig) -> ExperimentReport:
    """Signed-cycle decomposition of log Z: the truncated expansion explains
    most of the free-energy fluctuation and its residual shrinks with n."""
    return _drive(config, "decomposition", _decomposition_worker, _decomposition_plan)


def run_identities(max_k: int = 30) -> ExperimentReport:
    """Exact integer identity suite; every check must hold with tolerance 0."""
    bad = [k for k in range(2, max_k + 1) if combinat.cancellation_sum(k) != 0]
    bad_pairs = [
        (m, r)
        for m in range(1, 41)
        for r in range(1, m + 1)
        if (m - r) % 2 == 0 and not combinat.parity_identity_check(m, r)
    ]
    inverse_ok = True
    try:
        for k in range(1, 16):
            combinat.inverse_binomial_matrix(k)
    except AssertionError:
        inverse_ok = False
    worst = 0.0
    for m in range(0, 21):
        poly = combinat.chebyshev_coeffs(m)
        for theta in (math.pi / 7.0, math.pi / 3.0, 1.0):
            worst = max(worst, abs(poly(2.0 * math.cos(theta)) - 2.0 * math.cos(m * theta)))
    checks = [
        _check_abs(
            "cancellation_sum_zero",
            f"sum_r P_2k[2r] r psi_2r = 0 for 2 <= k <= {max_k}",
            len(bad), 0.0, 0.0,
        ),
        _check_abs(
            "parity_identity",
            "f(m,r) m/r = binom(m,(m+r)/2) for all like-parity r <= m <= 40",
            len(bad_pairs), 0.0, 0.0,
        ),
        _check_abs(
            "inverse_binomial_matrix",
            "D B = I exactly and D[i][j] = P_{2i+1}[2j+1] for k <= 15",
            0.0 if inverse_ok else 1.0, 0.0, 0.0,
        ),
        _check_abs(
            "chebyshev_evaluation",
            "|P_m(2 cos t) - 2 cos(m t)| <= 1e-9 for m <= 20",
            worst, 0.0, 1e-9,
        ),
    ]
    return ExperimentReport(
        kind="identities",
        config={"max_k": max_k},
        targets=(),
        results=(),
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
    )
