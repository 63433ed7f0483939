"""Signed cycle statistics and their Chebyshev spectral-statistic approximations.

The signed cycle of length k >= 2 of a symmetric matrix A is

    C_{n,k} = n^(-k/2) * sum A[i0,i1] A[i1,i2] ... A[i(k-1),i0]

over ordered tuples of k *distinct* indices; C_{n,1} = n^(-1/2) Tr A.
Since the indices are distinct, the value only involves off-diagonal
entries, so all cycle routines operate on the hollowed matrix.

Two evaluations compute the same sum:

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
  (the reference and the only path for k >= 6; cost n^k, gated by an
  operation budget).

Both agree exactly on small-integer matrices and to float rounding
elsewhere, and are cross-checked in the test suite against an
independent nested-loop oracle.

The spectral side: C_{n,k} for k >= 3 is approximated by the centered
linear spectral statistic Tr P_k(A_hollow / sqrt(n)) built from the
doubled Chebyshev polynomial P_k.  For k = 3 the two sides agree
identically; for odd k the centering is exactly zero by sign symmetry,
for even k it is estimated by independent Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinat import chebyshev_coeffs
from .randmat import (
    DEFAULT_TRACE_FLOP_BUDGET,
    SeedSpec,
    hollowed,
    one_blas_thread,
    power_traces,
    sample_gaussian_matrix,
)

DEFAULT_CYCLE_BUDGET = 1e9
CLOSED_FORM_KMAX = 5


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

    ``method`` is ``auto`` (the closed forms for k <= 5, the depth-first
    enumeration above, under ``check_cycle_budget``) or ``dfs`` (force the
    depth-first enumeration; the budget gates n^k, practical only for
    small n).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if method == "auto":
        check_cycle_budget(n, k, budget)
        return float(_cycle_sums(hollowed(a), k)[-1] / n ** (k / 2.0))
    if method == "dfs":
        _require_budget(f"n^{k}", float(n) ** k, budget)
        return float(_dfs_cycle_sum(hollowed(a), k) / n ** (k / 2.0))
    raise ValueError(f"unknown method {method!r}")


def check_cycle_budget(n: int, kmax: int, budget: float = DEFAULT_CYCLE_BUDGET) -> None:
    """Raise ValueError unless C_{n,2..kmax} fit the operation budget.

    ``cycle_series`` is charged 2 * n^3 for the closed-form trace
    identities (at most two n x n matrix products, G = A A and G A,
    whatever kmax <= 5 is) and n^k for each k above 5, which only the
    depth-first enumeration evaluates.
    """
    if kmax >= 2:
        _require_budget("2*n^3", 2.0 * float(n) ** 3, budget)
    if kmax > CLOSED_FORM_KMAX:
        _require_budget(f"n^{kmax}", float(n) ** kmax, budget)


def _require_budget(what: str, cost: float, budget: float) -> None:
    if cost > budget:
        raise ValueError(f"{what} = {cost:.3g} exceeds the operation budget {budget:.3g}")


def _cycle_sums(at: np.ndarray, kmax: int) -> list[float]:
    """Unnormalized distinct-tuple cycle sums [S_2, ..., S_kmax] of the
    hollow matrix ``at``: the closed forms of the module docstring for
    k <= 5, the depth-first enumeration for k >= 6."""
    # one BLAS thread and elementwise sums instead of BLAS dots: the value
    # must not depend on how a multi-threaded BLAS splits the work
    with one_blas_thread():
        g = at @ at
        ga = g @ at if kmax >= 5 else None
    d = np.diag(g)
    sq = at * at
    sums = [d.sum(), np.sum(g * at)]
    if kmax >= 4:
        sums.append(np.sum(g * g) - 2.0 * np.sum(d * d) + np.sum(sq * sq))
    if kmax >= 5:
        sums.append(np.sum(ga * g) - 5.0 * np.sum(d * np.diag(ga)) + 5.0 * np.sum(sq * at * g))
    sums += [_dfs_cycle_sum(at, k) for k in range(CLOSED_FORM_KMAX + 1, kmax + 1)]
    return [float(v) for v in sums[: kmax - 1]]


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
    """C_{n,k} for k = 1..kmax; ``values[k-1]`` holds C_{n,k}."""

    n: int
    values: tuple[float, ...]

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


def cycle_series(a: np.ndarray, kmax: int, budget: float = DEFAULT_CYCLE_BUDGET) -> CycleSeries:
    """C_{n,1..kmax} in one pass, sharing the matrix products across k."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if not 1 <= kmax <= n:
        raise ValueError(f"need 1 <= kmax <= n, got kmax={kmax}, n={n}")
    values = [signed_cycle_c1(a)]
    if kmax >= 2:
        check_cycle_budget(n, kmax, budget)
        for k, s_k in enumerate(_cycle_sums(hollowed(a), kmax), start=2):
            values.append(float(s_k / n ** (k / 2.0)))
    return CycleSeries(n=n, values=tuple(values))


def chebyshev_lss(
    a_hollow: np.ndarray,
    k: int,
    flop_budget: float = DEFAULT_TRACE_FLOP_BUDGET,
) -> float:
    """Tr P_k(A_hollow / sqrt(n)) via power traces of the rescaled matrix."""
    a_hollow = np.asarray(a_hollow, dtype=float)
    n = a_hollow.shape[0]
    if np.any(np.diag(a_hollow) != 0.0):
        raise ValueError("matrix must have an exactly zero diagonal")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    traces = power_traces(a_hollow / np.sqrt(n), k, flop_budget=flop_budget)
    return chebyshev_trace(traces, n, k)


def chebyshev_trace(traces: np.ndarray, n: int, k: int) -> float:
    """Tr P_k(M) of an n x n matrix M from its power traces (Tr M, ..., Tr M^k).

    One set of traces serves every k up to its length, so callers that
    need several k pay for the matrix products once.
    """
    coeffs = chebyshev_coeffs(k)
    value = coeffs[0] * n
    for j in range(1, k + 1):
        if coeffs[j]:
            value += coeffs[j] * traces[j - 1]
    return float(value)


@dataclass(frozen=True)
class CenteringEstimate:
    """Monte Carlo estimate of E[Tr P_k(A_hollow / sqrt(n))]."""

    value: float
    stderr: float
    replicates: int


def lss_centering(n: int, k: int, reps: int, seed: SeedSpec) -> CenteringEstimate:
    """Centering for the length-k spectral statistic at size n.

    Odd k: exactly zero (P_k is odd and the ensemble is sign symmetric);
    no sampling happens.  Even k: mean of the statistic over ``reps``
    freshly sampled hollow matrices, with its standard error.  The matrices
    are drawn from the given seed's streams and must never be the matrices
    under test.
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
    holds exactly on hollow matrices.
    """
    if k < 3:
        raise ValueError(f"the approximation is defined for k >= 3, got {k}")
    cyc = signed_cycle_bruteforce(a_hollow, k, budget=budget)
    return cyc - (chebyshev_lss(a_hollow, k) - centering)
