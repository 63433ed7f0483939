"""Signed cycle statistics and their Chebyshev spectral-statistic approximations.

The signed cycle of length k >= 2 of a symmetric matrix A is

    C_{n,k} = n^(-k/2) * sum A[i0,i1] A[i1,i2] ... A[i(k-1),i0]

over ordered tuples of k *distinct* indices; C_{n,1} = n^(-1/2) Tr A.
Since the indices are distinct, the value only involves off-diagonal
entries, so all cycle routines operate on the hollowed matrix.

Two evaluation strategies compute the same sum:

* a depth-first enumeration with a visited mask and prefix products
  (the reference; cost n^k, gated by an operation budget), and
* for k <= 5, a vectorized sweep over the start vertex where the inner
  walk levels are masked matrix-vector products and the few possible
  index coincidences of the remaining levels are subtracted explicitly.

Both agree exactly (up to float associativity) and are cross-checked in
the test suite against an independent nested-loop oracle.

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
    power_traces,
    sample_gaussian_matrix,
)

DEFAULT_CYCLE_BUDGET = 1e9
VECTORIZED_KMAX = 5


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

    ``method`` is one of ``auto`` (vectorized sweep for k <= 5, DFS above),
    ``walks`` (force the vectorized sweep, k <= 5 only) or ``dfs`` (force
    the depth-first enumeration; cost n^k, practical only for small n).
    The budget gates n^k for the DFS path.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if method == "auto":
        method = "walks" if k <= VECTORIZED_KMAX else "dfs"
    if method == "walks":
        if k > VECTORIZED_KMAX:
            raise ValueError(f"vectorized path supports k <= {VECTORIZED_KMAX}")
        check_cycle_budget(n, k, budget)
        sums = _masked_walk_sums(hollowed(a), k)
        return float(sums[k] / n ** (k / 2.0))
    if method == "dfs":
        _require_budget(f"n^{k}", float(n) ** k, budget)
        return float(_dfs_cycle_sum(hollowed(a), k) / n ** (k / 2.0))
    raise ValueError(f"unknown method {method!r}")


def check_cycle_budget(n: int, kmax: int, budget: float = DEFAULT_CYCLE_BUDGET) -> None:
    """Raise ValueError unless C_{n,2..kmax} fit the operation budget.

    ``cycle_series`` pays about min(kmax, 5) * n^3 for the vectorized sweep
    (k matrix-vector passes per start vertex) and n^k for each k above 5,
    which falls back to the depth-first enumeration.
    """
    if kmax >= 2:
        _require_budget(
            f"min(kmax, {VECTORIZED_KMAX})*n^3",
            min(kmax, VECTORIZED_KMAX) * float(n) ** 3,
            budget,
        )
    if kmax > VECTORIZED_KMAX:
        _require_budget(f"n^{kmax}", float(n) ** kmax, budget)


def _require_budget(what: str, cost: float, budget: float) -> None:
    if cost > budget:
        raise ValueError(f"{what} = {cost:.3g} exceeds the operation budget {budget:.3g}")


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


def _masked_walk_sums(at: np.ndarray, kmax: int) -> dict[int, float]:
    """Unnormalized distinct-tuple cycle sums S_k, k = 2..min(kmax, 5).

    For each start vertex i0 the walk levels are matrix-vector products
    against the matrix with row/column i0 masked out (realized by zeroing
    the i0 component between steps); the hollow diagonal already kills
    coincidences of adjacent walk positions, and the remaining non-adjacent
    coincidence patterns (i1=i3 for k=4; i1=i3, i1=i4, i2=i4 and the
    joint i1=i3,i2=i4 for k=5) are subtracted in closed masked form.
    """
    n = at.shape[0]
    kcap = min(kmax, VECTORIZED_KMAX)
    d = np.einsum("ts,ts->t", at, at)
    sums: dict[int, float] = {2: float(d.sum())}
    if kcap < 3:
        return sums
    if kcap >= 5:
        g = at @ at
        diag_cube = np.einsum("ij,ji->i", at, g)
        entry_cube = at**3
    s3 = s4 = s5 = 0.0
    for i0 in range(n):
        u = at[i0]
        y1 = at @ u
        y1[i0] = 0.0
        s3 += u @ y1
        if kcap >= 4:
            y2 = at @ y1
            y2[i0] = 0.0
            diag2 = d - u * u
            s4 += u @ y2 - np.sum(u * u * diag2)
        if kcap >= 5:
            y3 = at @ y2
            c = g[i0]
            diag3 = diag_cube - 2.0 * u * c
            rejoin_13 = np.sum(u * diag2 * y1)
            rejoin_14 = np.sum(u * u * diag3)
            rejoin_24 = u @ (at @ (diag2 * u))
            rejoin_13_24 = u @ (entry_cube @ u)
            s5 += u @ y3 - rejoin_13 - rejoin_14 - rejoin_24 + rejoin_13_24
    sums[3] = float(s3)
    if kcap >= 4:
        sums[4] = float(s4)
    if kcap >= 5:
        sums[5] = float(s5)
    return sums


@dataclass(frozen=True)
class CycleSeries:
    """C_{n,k} for k = 1..kmax with per-k centering bookkeeping.

    ``values[k-1]`` holds C_{n,k}; ``centered[k-1]`` records whether the
    stored value already has (n-1)*I(k=2) subtracted.
    """

    n: int
    values: tuple[float, ...]
    centered: tuple[bool, ...]

    def __post_init__(self):
        if len(self.values) != len(self.centered):
            raise ValueError("values and centering flags must align")
        if len(self.values) > self.n:
            raise ValueError("kmax cannot exceed n (indices must be distinct)")

    @property
    def kmax(self) -> int:
        return len(self.values)

    def value(self, k: int) -> float:
        return self.values[k - 1]

    def centered_value(self, k: int) -> float:
        """C_{n,k} - (n-1)*I(k=2), regardless of the stored convention."""
        v = self.values[k - 1]
        if k == 2 and not self.centered[k - 1]:
            v -= self.n - 1
        return v


def cycle_series(a: np.ndarray, kmax: int, budget: float = DEFAULT_CYCLE_BUDGET) -> CycleSeries:
    """C_{n,1..kmax} in one pass, sharing the walk recursion across k."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if not 1 <= kmax <= n:
        raise ValueError(f"need 1 <= kmax <= n, got kmax={kmax}, n={n}")
    values = [signed_cycle_c1(a)]
    if kmax >= 2:
        check_cycle_budget(n, kmax, budget)
        at = hollowed(a)
        sums = _masked_walk_sums(at, kmax)
        for k in range(2, min(kmax, VECTORIZED_KMAX) + 1):
            values.append(float(sums[k] / n ** (k / 2.0)))
        for k in range(VECTORIZED_KMAX + 1, kmax + 1):
            values.append(signed_cycle_bruteforce(a, k, budget=budget, method="dfs"))
    return CycleSeries(n=n, values=tuple(values), centered=(False,) * kmax)


@dataclass(frozen=True)
class LssEstimate:
    """A centered linear spectral statistic for one cycle length."""

    k: int
    raw_trace: float
    centering: float

    def __post_init__(self):
        if self.k % 2 == 1 and self.centering != 0.0:
            raise ValueError("odd k has exact centering 0")

    @property
    def centered_value(self) -> float:
        return self.raw_trace - self.centering


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
