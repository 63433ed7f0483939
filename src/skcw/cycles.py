"""Signed cycle statistics and their Chebyshev spectral-statistic approximations.

The signed cycle of length k >= 2 of a symmetric matrix A is

    C_{n,k} = n^(-k/2) * sum A[i0,i1] A[i1,i2] ... A[i(k-1),i0]

over ordered tuples of k *distinct* indices; C_{n,1} = n^(-1/2) Tr A.
Since the indices are distinct, the value only involves off-diagonal
entries, so all cycle routines operate on the hollowed matrix.

``cycle_series`` is the one entry point: every cycle sum, including the
default path of ``signed_cycle_bruteforce``, and every walk trace the
experiments read come from it.  Two evaluations compute the same sum:

* for k <= 5, closed-form trace identities on the hollowed A.  They come
  from the Moebius inversion of walk counts into distinct-index counts:
  S_k is the sum over set partitions of the k cycle positions of
  mu(0, pi) times the closed-walk count of the quotient cycle, and only
  partitions that never merge adjacent positions survive on a hollow
  matrix.  With G = A A and d = diag G:

      S_2 = sum d
      S_3 = <G, A>
      S_4 = <G, G> - 2 d.d + sum a_ij^4
      S_5 = <G A, G> - 5 d.diag(G A) + 5 <A o A o A, G>

* a depth-first enumeration with a visited mask and prefix products
  (the only path for k >= 6, and the reference as
  ``signed_cycle_bruteforce(..., method="dfs")``; n^k terms, each charged
  ``DFS_TERM_COST`` operations).

``check_cycle_budget`` is the one compute guard of every series, traced
or not.

Both agree exactly on small-integer matrices and to float rounding
elsewhere, and are cross-checked in the test suite against an
independent nested-loop oracle.

The spectral side: C_{n,k} for k >= 3 is approximated by the centered
linear spectral statistic Tr P_k(A_hollow / sqrt(n)) built from the
doubled Chebyshev polynomial P_k.  Its power traces Tr A^j are the walk
sums <A^(j//2), A^(j-j//2)> of the same matrix powers the closed forms
use (Tr A^2 .. Tr A^5 are sum d, <G, A>, <G, G> and <G A, G>), so
``cycle_series(..., traces=True)`` returns them with the cycles.  For
k = 3 the two sides agree identically.  The centering E Tr P_k is exact:
zero for odd k by sign symmetry, and for even k the Chebyshev combination
of the exact moments from ``combinat.walk_moments``.  ``chebyshev_lss``
(from ``randmat.power_traces``) and ``lss_centering`` (its Monte Carlo
mean) are the references the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinat import chebyshev_coeffs, walk_moments
from .randmat import (
    SeedSpec,
    hollowed,
    matrix_powers,
    power_traces,
    sample_gaussian_matrix,
)

DEFAULT_CYCLE_BUDGET = 1e9
CLOSED_FORM_KMAX = 5
# operations charged per depth-first term.  A pure-Python term takes as
# long as about 600 to 3400 of the n^3 units of a one-thread BLAS product,
# so this still undercharges, but it caps a default-budget DFS at 1e7 terms
DFS_TERM_COST = 100


def signed_cycle_c1(a: np.ndarray) -> float:
    """n^(-1/2) times the trace of A."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return float(np.trace(a) / np.sqrt(n))


def signed_cycle_bruteforce(
    a: np.ndarray,
    k: int,
    budget: float = DEFAULT_CYCLE_BUDGET,
    method: str = "auto",
) -> float:
    """Exact C_{n,k} for k >= 2.

    ``method`` is ``auto`` (read from ``cycle_series``) or ``dfs`` (force
    the depth-first enumeration, the reference; the budget gates its
    ``DFS_TERM_COST * n^k``, practical only for small n).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if method == "auto":
        return cycle_series(a, k, budget=budget).value(k)
    if method == "dfs":
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        _require_budget(f"{DFS_TERM_COST}*n^{k}", DFS_TERM_COST * n**k, budget)
        return float(_dfs_cycle_sum(hollowed(a), k) / n ** (k / 2.0))
    raise ValueError(f"unknown method {method!r}")


def check_cycle_budget(n: int, kmax: int, budget: float = DEFAULT_CYCLE_BUDGET) -> None:
    """Raise ValueError unless C_{n,2..kmax} fit the operation budget.

    The one compute guard of ``cycle_series``.  The closed-form trace
    identities are charged 2 * n^3 (at most two n x n matrix products,
    G = A A and G A, whatever kmax <= 5 is), and the largest k above 5,
    which only the depth-first enumeration evaluates, DFS_TERM_COST * n^k.

    The walk traces need no price of their own.  They add the powers
    A^4 .. A^ceil(kmax/2) to the closed forms' products: none up to
    kmax = 6, at most two up to kmax = 10, about kmax / 2 beyond.  From
    kmax = 7 on, the DFS charge of the same call exceeds the n^3 of all
    those extra products for every n >= 2.
    """
    if kmax >= 2:
        _require_budget("2*n^3", 2.0 * float(n) ** 3, budget)
    if kmax > CLOSED_FORM_KMAX:
        _require_budget(f"{DFS_TERM_COST}*n^{kmax}", DFS_TERM_COST * n**kmax, budget)


def _require_budget(what: str, cost: float, budget: float) -> None:
    if cost > budget:
        raise ValueError(f"{what} = {cost:.3g} exceeds the operation budget {budget:.3g}")


def _walk_sums(at: np.ndarray, kmax: int, traces: bool = False) -> tuple[list, list]:
    """The walk-product core of the hollow matrix ``at``.

    Returns the distinct-tuple cycle sums [S_2, ..., S_min(kmax, 5)] from
    the closed forms of the module docstring and, with ``traces``, the walk
    traces [Tr A, ..., Tr A^kmax], Tr A^j = <A^(j//2), A^(j-j//2)>.  The
    closed forms need the powers A^2 and, for S_5, A^3; traces beyond
    Tr A^5 add the powers up to A^ceil(kmax/2), so without ``traces`` no
    product is spent on them.
    """
    depth = 2 if kmax < 5 else 3
    if traces:
        depth = max(depth, (kmax + 1) // 2)
    # elementwise sums instead of BLAS dots: the value must not depend on
    # how a multi-threaded BLAS splits the work
    powers = matrix_powers(at, depth)
    g = powers[1]
    d = np.diag(g)
    walks = [0.0, d.sum(), np.sum(g * at)]
    for j in range(4, (kmax if traces else min(kmax, CLOSED_FORM_KMAX)) + 1):
        walks.append(np.sum(powers[j // 2 - 1] * powers[(j + 1) // 2 - 1]))
    sq = at * at
    sums = walks[1:3]
    if kmax >= 4:
        sums.append(walks[3] - 2.0 * np.sum(d * d) + np.sum(sq * sq))
    if kmax >= 5:
        ga = powers[2]
        sums.append(walks[4] - 5.0 * np.sum(d * np.diag(ga)) + 5.0 * np.sum(sq * at * g))
    sums = [float(v) for v in sums[: kmax - 1]]
    return sums, [float(v) for v in walks[:kmax]] if traces else []


def _dfs_cycle_sum(at: np.ndarray, k: int) -> float:
    """Depth-first sum over ordered distinct index tuples with prefix products."""
    n = at.shape[0]
    visited = np.zeros(n, dtype=bool)
    total = 0.0

    def extend(start: int, current: int, depth: int, prefix: float) -> float:
        # ``depth`` vertices chosen beyond the start; prefix holds their edges
        if depth == k - 2:
            # choose the final vertex and close the cycle in one pass
            acc = 0.0
            row = at[current]
            back = at[:, start]
            for j in range(n):
                if not visited[j]:
                    acc += prefix * row[j] * back[j]
            return acc
        acc = 0.0
        row = at[current]
        for j in range(n):
            if visited[j]:
                continue
            p = prefix * row[j]
            if p == 0.0:
                continue
            visited[j] = True
            acc += extend(start, j, depth + 1, p)
            visited[j] = False
        return acc

    for i0 in range(n):
        visited[i0] = True
        total += extend(i0, i0, 0, 1.0)
        visited[i0] = False
    return total


@dataclass(frozen=True)
class CycleSeries:
    """C_{n,k} for k = 1..kmax; ``values[k-1]`` holds C_{n,k}.

    ``traces[j-1]`` holds Tr (A_hollow / sqrt n)^j when the series was
    computed with traces, and ``traces`` is empty otherwise.
    """

    n: int
    values: tuple[float, ...]
    traces: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.values) > self.n:
            raise ValueError("kmax cannot exceed n (indices must be distinct)")

    @property
    def kmax(self) -> int:
        return len(self.values)

    def value(self, k: int) -> float:
        return self.values[k - 1]

    def centered_value(self, k: int) -> float:
        """C_{n,k} - (n-1)*I(k=2)."""
        v = self.values[k - 1]
        if k == 2:
            v -= self.n - 1
        return v


def cycle_series(
    a: np.ndarray, kmax: int, budget: float = DEFAULT_CYCLE_BUDGET, traces: bool = False
) -> CycleSeries:
    """C_{n,1..kmax} in one pass, sharing the matrix products across k.

    With ``traces`` the series also carries Tr (A_hollow / sqrt n)^j for
    j = 1..kmax, read from the same matrix products.  ``check_cycle_budget``
    guards both; a traced series at kmax = 1 still takes G = A A and is
    charged as kmax = 2.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not 1 <= kmax <= n:
        raise ValueError(f"need 1 <= kmax <= n, got kmax={kmax}, n={n}")
    values = [signed_cycle_c1(a)]
    walks: list[float] = []
    if kmax >= 2 or traces:
        check_cycle_budget(n, max(kmax, 2), budget)
        at = hollowed(a)
        sums, walks = _walk_sums(at, kmax, traces)
        sums += [_dfs_cycle_sum(at, k) for k in range(CLOSED_FORM_KMAX + 1, kmax + 1)]
        values += [float(s_k / n ** (k / 2.0)) for k, s_k in enumerate(sums, start=2)]
    return CycleSeries(
        n=n,
        values=tuple(values),
        traces=tuple(float(t / n ** (j / 2.0)) for j, t in enumerate(walks, start=1)),
    )


def chebyshev_lss(a_hollow: np.ndarray, k: int) -> float:
    """Tr P_k(A_hollow / sqrt(n)) via power traces of the rescaled matrix;
    the reference for the walk traces of ``cycle_series``."""
    a_hollow = np.asarray(a_hollow, dtype=float)
    n = a_hollow.shape[0]
    if np.any(np.diag(a_hollow) != 0.0):
        raise ValueError("matrix must have an exactly zero diagonal")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    traces = power_traces(a_hollow / np.sqrt(n), k)
    return chebyshev_trace(traces, n, k)


def chebyshev_trace(traces: np.ndarray, n: int, k: int) -> float:
    """Tr P_k(M) of an n x n matrix M from its power traces (Tr M, ..., Tr M^k).

    One set of traces serves every k up to its length, so callers that
    need several k pay for the matrix products once.  Exact (rational)
    traces give the exact value, rounded once.
    """
    coeffs = chebyshev_coeffs(k)
    value = coeffs[0] * n
    for j in range(1, k + 1):
        if coeffs[j]:
            value += coeffs[j] * traces[j - 1]
    return float(value)


def exact_centering(n: int, k: int) -> float:
    """E[Tr P_k(A_hollow / sqrt(n))] for the n x n hollow Gaussian ensemble.

    The Chebyshev combination of the exact moments E Tr (A_hollow/sqrt n)^j
    (``combinat.walk_moments``), evaluated in rationals and rounded once.
    Zero for odd k (P_k is odd and the ensemble is sign symmetric); even k
    up to ``combinat.WALK_MOMENT_MAX_J``.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k % 2 == 1:
        return 0.0
    return chebyshev_trace(walk_moments(n, k), n, k)


@dataclass(frozen=True)
class CenteringEstimate:
    """Monte Carlo estimate of E[Tr P_k(A_hollow / sqrt(n))]."""

    value: float
    stderr: float
    replicates: int


def lss_centering(n: int, k: int, reps: int, seed: SeedSpec) -> CenteringEstimate:
    """Monte Carlo estimate of the centering that ``exact_centering`` gives
    exactly; the tests use it as the reference.

    Odd k: exactly zero (P_k is odd and the ensemble is sign symmetric);
    no sampling happens.  Even k: mean of the statistic over ``reps``
    freshly sampled hollow matrices, with its standard error.  The matrices
    are drawn from the given seed's streams.
    """
    if k % 2 == 1:
        return CenteringEstimate(0.0, 0.0, 0)
    if reps < 1:
        raise ValueError(f"even k requires reps >= 1, got {reps}")
    vals = np.empty(reps)
    for r in range(reps):
        a = sample_gaussian_matrix(n, seed.stream(seed.stream_id + r), hollow=True)
        vals[r] = chebyshev_lss(a, k)
    stderr = float(vals.std(ddof=1) / np.sqrt(reps)) if reps > 1 else float("inf")
    return CenteringEstimate(float(vals.mean()), stderr, reps)


def approx_residual(
    a_hollow: np.ndarray,
    k: int,
    centering: float,
    budget: float = DEFAULT_CYCLE_BUDGET,
) -> float:
    """C_{n,k} minus the centered spectral statistic; small for large n.

    Identically zero for k = 3 because C_{n,3} = Tr P_3(A_hollow/sqrt(n))
    holds exactly on hollow matrices.  Both sides come from one
    ``cycle_series`` with traces, as in the ``approx`` experiment.
    """
    if k < 3:
        raise ValueError(f"the approximation is defined for k >= 3, got {k}")
    a_hollow = np.asarray(a_hollow, dtype=float)
    if np.any(np.diag(a_hollow) != 0.0):
        raise ValueError("matrix must have an exactly zero diagonal")
    series = cycle_series(a_hollow, k, budget=budget, traces=True)
    return series.value(k) - (chebyshev_trace(series.traces, series.n, k) - centering)
