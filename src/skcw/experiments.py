"""Replicated Monte Carlo experiments, statistics and machine-readable reports.

The five experiments (clt, cycles, tilted, approx, decomposition) share
one driver, ``_drive``.  An ``ExperimentConfig`` is the one input of every
run; the report echoes what its kind reads of it (``KIND_FIELDS``), so a
report re-runs from its ``config`` block.  Each ``run_*`` names its
module-level ``*_worker`` and a ``_Plan`` with what differs: the per-size
worker arguments, a per-size builder of summaries, checks and raw samples,
the cross-size checks and the targets.  ``ExperimentConfig`` checks every
size of the grid, and the driver every per-size input, before any sample
is drawn.  Replicate r at size index s uses stream_id = s * 2^32 + r under
the configured master seed.  The unit of work is a stack: consecutive
replicates of one size, at most ``STACK_ELEMENTS`` matrix entries, passed
as ``worker(n, seed, count, *size args)``: the stack is the ``count``
streams that start at ``seed``, the ``SeedSpec`` of its first replicate.
A worker computes its matrices as one (B, n, n) array and returns one
float array, a row per replicate, each value bit for bit what the replicate
alone gives; the driver concatenates the arrays, and a size reads its rows.
Each plan prices one replicate at size n in the operations of the cycle
budget, and a run whose priced work does not pay for a second worker
(``_worker_count``: below 2^32 operations, which takes in every benchmark
line and criterion 8 but not criteria 4-7) computes in this process, as
with ``threads=1``.  With more than one worker the stacks run in forked
children (``_fork_map``), each size cut so that every child gets the same
share of it.

Every comparison is recorded as a named check carrying the rule, the
observed value, the target and the tolerance; a report is never a bare
pass/fail.

The limit theorems hold as n -> infinity and come with no usable rate
constants, so the finite-n tolerances are artifact decisions: a sample with
a normal limit law gets the mean, variance and KS checks of
``_normal_law_checks``, and grid runs additionally require the error trend
across the sizes (non-increasing up to one standard error of the
difference for means, decreasing point estimates for residual variances).
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import combinat
from .cycles import (
    DEFAULT_CYCLE_BUDGET,
    chebyshev_trace,
    check_cycle_budget,
    cycle_series,
    exact_centering,
    series_price,
)
from .gibbs import (
    ModelParams,
    check_enumeration,
    clt_targets,
    decomposition_residual,
    exact_log_partition,
    log_partition_price,
)
from .randmat import (
    SeedSpec,
    all_ones_spins,
    alternating_spins,
    one_blas_thread,
    random_spins,
    sample_gaussian_matrix,
    sample_tilted_matrix,
)

SCHEMA_VERSION = 1
# the inputs each kind's run reads besides params.n and the fields no kind
# lists (replicates, master_seed, n_grid, threads, keep_raw): the CLI offers,
# and the report echoes, only these
KIND_FIELDS = {
    "clt": ("beta", "J", "Jprime"),
    "cycles": ("kmax", "cycle_budget"),
    "tilted": ("beta", "kmax", "cycle_budget", "sigma"),
    "approx": ("kmax", "cycle_budget", "centering_replicates"),
    "decomposition": ("beta", "J", "Jprime", "m", "cycle_budget"),
}
KINDS = tuple(KIND_FIELDS)
# spin vectors of the tilted law: name -> builder(n, seed)
_SPIN_VECTORS = {
    "ones": lambda n, seed: all_ones_spins(n),
    "alternating": lambda n, seed: alternating_spins(n),
    "random": random_spins,
}
SIGMAS = tuple(_SPIN_VECTORS)

_STREAM_BLOCK = 1 << 32
# at most this many matrix entries (B * n^2) in one stack of replicates:
# 113 matrices at n = 12, 40 at n = 20, and one from n = 91 on, where a
# stacked product runs slower than one matrix at a time
STACK_ELEMENTS = 1 << 14
# a run forks only when its priced work (replicates times the grid's summed
# ``_Plan.price``) reaches two of these.  Each forked child costs 11-16 ms
# of CPU beyond its share, and on the 2-vCPU VM two children often take
# turns on what behaves like one CPU.  A sweep of one worker against two
# (wall ms of ``cli.main``, medians of 16 alternating fresh-process pairs
# over ten minutes, with the pairs two workers won; priced work in brackets):
#   decomposition 12..20, 200 replicates (1.2e8)    44 /   73   0/16
#   clt 12..24, 20 (1.8e8)                          36 /   58   0/16
#   decomposition 12..20, 500 (2.9e8, criterion 8)  91 /  125   1/16
#   approx 50..200, 40 (7.3e8)                      90 /  120   2/16
#   cycles 150, 150 (1.0e9)                        100 /  123   1/16
#   decomposition 12..20, 2000 (1.2e9)             254 /  290   2/16
#   tilted 150, 300 (2.0e9)                        172 /  203   1/16
#   clt 12..24, 250 (2.2e9)                        190 /  226   2/16
#   approx 50..200, 160 (2.9e9)                    260 /  286   3/16
#   cycles 150, 1000 (6.8e9, criterion 4)          496 /  531   3/16
#   clt 12..24, 1000 (8.9e9, criterion 7)          685 /  684   8/16
#   approx 50..200, 500 (9.1e9, criterion 6)       767 /  595  15/16
#   tilted 150, 2000 (1.35e10, criterion 5)       1043 /  634  16/16
# Two workers lost every line below 4e9, so the bar is 2^32 (4.3e9), under
# criterion 4.  Only one worker against two was measured, so a run that
# forks gets its ``threads`` as before, capped by replicates and usable cores
FORK_OPERATIONS = 1 << 31


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
    sigma: str = "ones"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.sigma not in SIGMAS:
            raise ValueError(f"unknown spin vector {self.sigma!r}, not in {SIGMAS}")
        if self.replicates < 2:
            raise ValueError(f"need at least 2 replicates, got {self.replicates}")
        if self.threads < 1:
            raise ValueError(f"need at least 1 thread, got {self.threads}")
        if not self.cycle_budget >= 0:  # NaN fails too
            raise ValueError(f"the operation budget {self.cycle_budget:.3g} is not >= 0")
        if self.n_grid is not None:
            grid = tuple(self.n_grid)
            if list(grid) != sorted(set(grid)):
                raise ValueError("n_grid must be strictly increasing")
            object.__setattr__(self, "n_grid", grid)
        self._check_sizes()

    def _check_sizes(self) -> None:
        """Reject a configuration that would fail partway through its run.

        Every size of the grid is checked here, before any replicate is
        computed.  The hard bounds come first (sizes, regime,
        ``check_enumeration``, energy scale, clt limit variance, kmax or m
        range, centering count), then ``check_cycle_budget``, the one
        compute guard: its closed-form bound on kmax or m, then the
        operation budget at the largest size.
        """
        smallest, largest = self.sizes[0], self.sizes[-1]
        if smallest < 1:
            raise ValueError(f"sizes must be positive, got n={smallest}")
        p = self.params
        if self.kind in ("clt", "decomposition"):
            p.require_paramagnetic()
            check_enumeration(largest)
            # |beta H| <= beta sum |M_ij|, whose J and J' parts are the energy
            # scale beta (|J| (n-1) + |J'|): log Z, its residual and every
            # kernel exponent stay within a few scales of zero.  A summary's
            # variance sums the replicates' squared deviations, each below
            # (2 scale)^2 (at scale 8e304 the samples agree but their mean
            # rounds, and the squared rounding overflowed), so replicates
            # times scale^2 stays within 1e307 and that sum within 4e307
            scale = p.beta * abs(p.J) * (largest - 1) + p.beta * abs(p.Jprime)
            if not self.replicates * scale * scale <= 1e307:
                raise ValueError(
                    f"{self.kind} needs the replicates times (beta (|J| (n-1) + |J'|))^2 "
                    f"within 1e307, got beta={p.beta:g}, J={p.J:g}, J'={p.Jprime:g} "
                    f"at n={largest} with {self.replicates} replicates")
        if self.kind == "clt":
            # the KS test divides by the limit variance, about beta^2
            if p.beta > 0 and not clt_targets(p).variance > 0:
                raise ValueError(
                    f"clt needs a positive limit variance, got 0 at beta={p.beta:g}, "
                    f"J={p.J:g}, J'={p.Jprime:g}")
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
            # accepted and echoed for existing command lines; the centering
            # is exact, so no sample is drawn from it
            if self.centering_replicates is not None and self.centering_replicates < 1:
                raise ValueError(
                    f"need at least 1 centering replicate, got {self.centering_replicates}"
                )
        # the tilted statistics square C_{n,k}, which is near (2 beta)^k, and
        # from kmax = 3 on multiply the variances of C_{n,kmax-1} and C_{n,kmax}
        power = 2 * depth if depth < 3 else 4 * depth - 2
        if self.kind == "tilted" and power * math.log10(max(2 * self.params.beta, 1)) >= 308:
            raise ValueError(f"tilted needs (2 beta)^{power} below 1e308, got "
                             f"beta={self.params.beta:g} with kmax={depth}")
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
        """``schema_version`` and ``asdict`` of the report: the dataclasses
        are the one definition of the format.  ``raw_samples``, already
        plain lists, is passed by reference, because ``asdict`` would take
        longer to deep-copy the samples than ``json.dumps`` takes to write
        them."""
        d = asdict(replace(self, raw_samples=None))
        d.update(schema_version=SCHEMA_VERSION, raw_samples=self.raw_samples)
        return d

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
    """The config as a report echoes it, in strict JSON: only the inputs its
    kind reads (``KIND_FIELDS``), the grid as a list and an infinite budget
    as the string ``"inf"``."""
    read = KIND_FIELDS[config.kind]
    unread = {f for row in KIND_FIELDS.values() for f in row if f not in read}
    d = {k: v for k, v in asdict(config).items() if k not in unread}
    d["params"] = {k: v for k, v in d["params"].items() if k not in unread}
    d["n_grid"] = list(config.n_grid) if config.n_grid else None
    if d.get("cycle_budget") == math.inf:
        d["cycle_budget"] = "inf"
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
        observed=None if observed is None else float(observed),
        target=float(target),
        tolerance=float(tolerance),
        passed=observed is not None and bool(abs(observed - target) <= tolerance),
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


def _normal_law_checks(
    name: str, subject: str, xs: np.ndarray, summ: SampleSummary,
    mean: float, variance: float, mean_floor: float, var_rel: float,
) -> list[Check]:
    """Sample ``xs`` (summarized by ``summ``) against its limit law N(mean,
    variance): the mean within max(mean_floor, 3 SE), the variance within the
    relative band var_rel and, from 20 samples on, the KS p-value above 0.001."""
    checks = [
        _check_abs(
            f"{name}_mean",
            f"mean of {subject} within max({mean_floor:g}, 3*SE) of {mean:g}",
            summ.mean, mean, max(mean_floor, 3.0 * summ.stderr),
        ),
        _check_rel_band(
            f"{name}_variance",
            f"variance of {subject} within {100 * var_rel:g}% of {variance:g}",
            summ.variance, variance, var_rel,
        ),
    ]
    if xs.size >= 20:
        stat, p = ks_test(xs, mean, variance)
        checks.append(
            _check_pvalue(
                f"{name}_ks",
                f"KS p-value of {subject} vs Normal({mean:g}, {variance:g}) above 0.001",
                p, 0.001, stat,
            )
        )
    return checks


def _trend_check_mean_error(
    name: str, errs: list[float], ses: list[float], sizes: Sequence[int]
) -> Check:
    """Non-increasing |mean - target| across sizes, with one standard error
    of the difference as slack per step."""
    excess = [errs[i + 1] - errs[i] - math.hypot(ses[i], ses[i + 1])
              for i in range(len(errs) - 1)]
    worst = max([0.0] + excess)
    return Check(
        name=name,
        rule=f"|mean error| non-increasing across n={list(sizes)} up to one "
        "standard error of the difference",
        observed=worst,
        target=0.0,
        tolerance=0.0,
        passed=worst <= 0.0,
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
    """Cores this process may run on, the cap on forked workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def keep_freed_memory() -> None:
    """Ask glibc to keep freed blocks in the heap (no-op without
    ``mallopt``).  Otherwise each n x n array may be unmapped or trimmed
    and fault its pages in again on the next replicate, as the heap happens
    to decide: the ``approx_grid`` workers took 6e3 or 3e4 faults for
    comment-only edits, and a serial ``approx`` run 5.9e3 where it takes
    9.5e2 with this call.  Run first in each forked worker and by ``cli.main``
    in the program's own process; a library caller's process keeps the
    allocator it was given."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: no trimming below 1 GiB free
        mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD: its largest value, 32 MiB


def _stacks(config: ExperimentConfig, size_args: list, workers: int) -> list[tuple]:
    """The work of a run in grid order, one ``(n, seed, count, *args)``
    tuple per stack, where ``args`` are the size's entry of ``size_args``
    and the stack's replicates are the ``count`` consecutive streams from
    ``seed``, the one ``SeedSpec`` of its first replicate.  Each size is
    cut into stacks whose lengths differ by at most one, each at most
    ``max(1, STACK_ELEMENTS // n^2)`` long, and whose number is the least
    multiple of ``workers`` that allows it (one stack per replicate where
    the size has fewer replicates than that), so stacks dealt out in turn
    give every worker the same share of every size."""
    total = config.replicates
    stacks = []
    for s, (n, args) in enumerate(zip(config.sizes, size_args)):
        cap = max(1, STACK_ELEMENTS // n**2)
        cuts = min(total, workers * -(-total // (cap * workers)))
        for i in range(cuts):
            first = i * total // cuts
            seed = SeedSpec(config.master_seed, s * _STREAM_BLOCK + first)
            stacks.append((n, seed, (i + 1) * total // cuts - first, *args))
    return stacks


def _fork_map(worker: Callable, stacks: list, workers: int) -> list:
    """``[worker(*stack) for stack in stacks]`` in ``workers`` forked children.

    Child w runs stacks w, w + workers, ... and pickles its arrays, or the
    exception it raised, back through a pipe.  The parent reads every pipe,
    then raises the first child's exception with its own type, or
    RuntimeError for a child that exited without writing.  Every child is
    reaped before this returns or raises, and killed first when the parent
    stops reading early (an interrupt).  The worker is not pickled, so the
    children run the very object passed in.
    """
    children = []  # (pid, read end of its pipe)
    read_all = False
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(worker, stacks[w::workers], write_fd)
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
            children.append((pid, read_fd))
        payloads = []
        for _, read_fd in children:
            with os.fdopen(read_fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
        read_all = True
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            if not read_all:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    outputs = [None] * len(stacks)
    for w, payload in enumerate(payloads):
        if not payload:
            raise RuntimeError(f"forked worker {w} exited without writing its outputs")
        error, results = pickle.loads(payload)
        if error is not None:
            raise error
        outputs[w::workers] = results
    return outputs


def _run_child(worker: Callable, stacks: list, write_fd: int) -> None:
    """The whole life of a forked child: run its stacks, write the pickled
    (exception or None, arrays) pair to the pipe and leave by ``os._exit``,
    so it never returns into the parent's stack or runs its exit handlers."""
    try:
        try:
            keep_freed_memory()
            payload = pickle.dumps((None, [worker(*stack) for stack in stacks]))
        except BaseException as exc:
            # one that does not pickle leaves the pipe empty, a RuntimeError
            payload = pickle.dumps((exc, None))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


@dataclass(frozen=True)
class _Plan:
    """What one experiment kind adds to the shared driver.

    ``size_args(n)`` gives the worker arguments that follow
    ``(n, seed, count)`` in every stack of size n; the driver calls it for
    every size before any replicate runs, so the per-size inputs (the
    ``ModelParams`` at n, the spin vector of length n) are built and checked
    there, once per size.
    ``size_result(n, outputs)`` turns the worker rows at size n, one per
    replicate, into (summaries, checks, raw samples), and
    ``cross_checks(results)`` compares the sizes of a grid run.
    ``price(n)`` is what one replicate at size n costs in the operations of
    the cycle budget, which ``_worker_count`` weighs against the price of a
    fork.
    """

    size_args: Callable[[int], tuple]
    price: Callable[[int], float]
    size_result: Callable[[int, np.ndarray], tuple[dict, list, dict]]
    cross_checks: Callable[[list], list] = lambda results: []
    targets: tuple[TargetValue, ...] = ()


def _worker_count(config: ExperimentConfig, plan: _Plan) -> int:
    """Workers of a run: one if its priced work is below two
    ``FORK_OPERATIONS`` (2^32), which did not pay for a second worker in the
    one-against-two sweep of that constant's comment; otherwise
    ``threads``, never more than replicates or usable cores."""
    work = config.replicates * sum(plan.price(n) for n in config.sizes)
    if work < 2 * FORK_OPERATIONS:
        return 1
    return min(config.threads, config.replicates, _usable_cores())


def _drive(
    config: ExperimentConfig,
    kind: str,
    worker: Callable,
    plan_for: Callable[[ExperimentConfig], _Plan],
) -> ExperimentReport:
    """Run every replicate of every size and assemble the report.

    The kind is checked before ``plan_for`` builds the plan, so a plan never
    sees another kind's config.  Each ``run_*`` passes its worker by its
    module-level name at call time, so a wrapper installed under the name
    (the perfbench tracer) is what runs, in this process or in a child.

    The stacks of every size, in grid order (``_stacks``), go through one
    map, ``worker(*stack)`` per stack, over ``_worker_count`` workers:
    one if the run's priced work does not pay for a second, otherwise
    ``threads``, never more than replicates or usable cores.  One worker
    runs in this process, with the stacks and values of ``threads=1``; more
    run in forked children (``_fork_map``), started after every per-size
    input is checked and reaped before this returns, so the run's resource
    usage covers them.  Size s reads rows s * replicates to
    (s + 1) * replicates of the stacks' concatenated arrays.  The whole run
    holds this process at one OpenBLAS thread: the children inherit that
    count, so ``set_blas_threads`` never has to call the setter in them,
    and the setter would start a BLAS thread server there.
    """
    if config.kind != kind:
        raise ValueError(f"config kind is {config.kind!r}, expected {kind!r}")
    plan = plan_for(config)
    size_args = [plan.size_args(n) for n in config.sizes]
    workers = _worker_count(config, plan)
    stacks = _stacks(config, size_args, workers)
    # numpy imports numpy.random on first use; imported here, before the map,
    # forked workers inherit it instead of each paying 14-18 ms, and a
    # serial run's sampling time does not include the import
    import numpy.random  # noqa: F401
    results = []
    raw: dict = {}
    with one_blas_thread():
        if workers == 1:
            per_stack = [worker(*stack) for stack in stacks]
        else:
            per_stack = _fork_map(worker, stacks, workers)
        outputs = np.concatenate(per_stack)
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


def _clt_worker(n: int, seed: SeedSpec, count: int, params: ModelParams) -> np.ndarray:
    a = sample_gaussian_matrix(n, seed, count=count)
    return exact_log_partition(a, params) - n * params.beta**2


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

    def size_result(n, xs):
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
            checks = _normal_law_checks(
                "clt", "n(F_n - beta^2)", xs, summ, t.mean, t.variance, 0.03, 0.20
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
        lambda n: (replace(params, n=n),), log_partition_price, size_result,
        cross_checks, targets,
    )


def run_clt(config: ExperimentConfig) -> ExperimentReport:
    """Free-energy fluctuation law: n (F_n - beta^2) vs Normal(f1, alpha1)."""
    return _drive(config, "clt", _clt_worker, _clt_plan)


# ---------------------------------------------------------------------------
# cycles and tilted: signed-cycle laws


def _cycles_worker(
    n: int, seed: SeedSpec, count: int, kmax: int, budget: float
) -> np.ndarray:
    a = sample_gaussian_matrix(n, seed, count=count)
    return cycle_series(a, kmax, budget=budget).values


def _tilted_worker(
    n: int, seed: SeedSpec, count: int, kmax: int, beta: float, sigma: np.ndarray,
    budget: float,
) -> np.ndarray:
    a = sample_tilted_matrix(n, sigma, beta, seed, count)
    return cycle_series(a, kmax, budget=budget).values


def _cycle_variance(k: int) -> float:
    """Limit variance of C_{n,k}: 1 at k = 1, 2k from k = 2."""
    return 1.0 if k == 1 else 2.0 * k


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
        summ = SampleSummary.from_samples(centered[:, k - 1])
        summaries[f"cycle_{k}" + ("_centered" if k == 2 else "")] = summ
        checks += _normal_law_checks(
            f"cycle_{k}", f"centered C_{{n,{k}}}", centered[:, k - 1], summ,
            mean_targets.get(k, 0.0), _cycle_variance(k), mean_floor, var_rel,
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
                scale = math.sqrt(c1.var(ddof=1) * c2.var(ddof=1))
                # undefined, and so failed, where a column is constant to
                # rounding, as C_{n,2} is under a huge tilt
                corr = cov / scale if scale > 0 else None
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
    config: ExperimentConfig, size_args, targets, mean_targets, mean_floor, var_rel
) -> _Plan:
    """Plan of the plain and tilted cycle runs, whose workers return
    C_{n,1..kmax} in the columns of a replicate's row."""
    kmax = config.kmax

    def size_result(n, values):
        summaries, checks = _cycle_statistics_checks(
            values, n, kmax, mean_targets, mean_floor, var_rel
        )
        return summaries, checks, {
            f"cycle_{k}": values[:, k - 1] for k in range(1, kmax + 1)
        }

    return _Plan(size_args, series_price, size_result, targets=targets)


def _cycles_plan(config: ExperimentConfig) -> _Plan:
    return _cycle_plan(
        config,
        lambda n: (config.kmax, config.cycle_budget),
        targets=tuple(
            TargetValue(f"variance_{k}", _cycle_variance(k), "2k (k>=2), 1 (k=1)")
            for k in range(1, config.kmax + 1)
        ),
        mean_targets={}, mean_floor=0.0, var_rel=0.10,
    )


def run_cycles(config: ExperimentConfig) -> ExperimentReport:
    """Signed-cycle law under the null ensemble: centered C_{n,k} are
    asymptotically independent Normal(0, 2k), independent of C_{n,1}."""
    return _drive(config, "cycles", _cycles_worker, _cycles_plan)


def _tilted_plan(config: ExperimentConfig) -> _Plan:
    beta = config.params.beta
    # random spins use one seed, derived from the master seed, at every size
    seed = SeedSpec(config.master_seed).derived(0x5160)

    mean_targets = {k: (2.0 * beta) ** k for k in range(2, config.kmax + 1)}
    return _cycle_plan(
        config,
        lambda n: (config.kmax, beta, _SPIN_VECTORS[config.sigma](n, seed),
                   config.cycle_budget),
        targets=tuple(
            TargetValue(f"mean_{k}", mean_targets[k], "(2 beta)^k")
            for k in range(2, config.kmax + 1)
        ),
        mean_targets=mean_targets, mean_floor=0.15, var_rel=0.15,
    )


def run_tilted(config: ExperimentConfig) -> ExperimentReport:
    """Cycle law under the tilted ensemble: centered C_{n,k} shift to
    (2 beta)^k with unchanged variance 2k, for any fixed spin vector;
    ``config.sigma`` names the vector built at each size."""
    return _drive(config, "tilted", _tilted_worker, _tilted_plan)


# ---------------------------------------------------------------------------
# approx: cycles against Chebyshev spectral statistics


def _approx_worker(
    n: int, seed: SeedSpec, count: int, kmax: int, budget: float
) -> np.ndarray:
    """Per replicate, one row: C_{n,1..kmax}, then Tr (A/sqrt n)^1..kmax for
    the plan's Tr P_k, both from one set of matrix products."""
    a = sample_gaussian_matrix(n, seed, hollow=True, count=count)
    series = cycle_series(a, kmax, budget=budget)
    return np.hstack([series.values, series.traces])


def _approx_plan(config: ExperimentConfig) -> _Plan:
    kmax = config.kmax

    def size_result(n, outputs):
        traces = outputs[:, kmax:].T
        summaries = {}
        checks: list[Check] = []
        samples = {}
        for k in range(3, kmax + 1):
            cyc = outputs[:, k - 1]
            res = cyc - (chebyshev_trace(traces, n, k) - exact_centering(n, k))
            samples[f"residual_{k}"] = res
            summaries[f"cycle_{k}"] = SampleSummary.from_samples(cyc)
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

    return _Plan(
        lambda n: (kmax, config.cycle_budget), series_price, size_result, cross_checks
    )


def run_approx(config: ExperimentConfig) -> ExperimentReport:
    """Spectral-statistic approximation: residuals C_{n,k} - centered
    Tr P_k(A/sqrt n) per matrix, their variance against Var(C_{n,k}), and
    the shrink across sizes.  The centering E Tr P_k is exact
    (``cycles.exact_centering``); ``config.centering_replicates`` is
    validated and echoed but draws no samples."""
    return _drive(config, "approx", _approx_worker, _approx_plan)


# ---------------------------------------------------------------------------
# decomposition: log Z against its signed-cycle expansion


def _decomposition_worker(
    n: int, seed: SeedSpec, count: int, params: ModelParams, m: int, budget: float
) -> np.ndarray:
    """Per replicate, one row: the residual and n(F_n - beta^2)."""
    a = sample_gaussian_matrix(n, seed, count=count)
    log_z = exact_log_partition(a, params)
    resid = decomposition_residual(a, params, m, log_z, cycle_budget=budget)
    return np.column_stack([resid, log_z - n * params.beta**2])


def _decomposition_plan(config: ExperimentConfig) -> _Plan:
    params = config.params
    degenerate = params.beta == 0.0

    def size_result(n, outputs):
        res, fluct = outputs.T
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
        lambda n: (replace(params, n=n), config.m, config.cycle_budget),
        lambda n: log_partition_price(n) + series_price(n),
        size_result, cross_checks,
    )


def run_decomposition(config: ExperimentConfig) -> ExperimentReport:
    """Signed-cycle decomposition of log Z: the truncated expansion explains
    most of the free-energy fluctuation and its residual shrinks with n."""
    return _drive(config, "decomposition", _decomposition_worker, _decomposition_plan)


def run_identities(max_k: int = combinat.CANCELLATION_MAX_K) -> ExperimentReport:
    """Exact integer identity suite; every check must hold with tolerance 0.
    A max_k outside 2..``CANCELLATION_MAX_K`` is refused before any check."""
    if not 2 <= max_k <= combinat.CANCELLATION_MAX_K:
        raise ValueError(f"need 2 <= max_k <= {combinat.CANCELLATION_MAX_K}, got {max_k}")
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
