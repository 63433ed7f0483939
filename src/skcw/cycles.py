"""Signed cycle statistics and their Chebyshev spectral-statistic approximations.

The signed cycle of length k >= 2 of a symmetric matrix A is

    C_{n,k} = n^(-k/2) * sum A[i0,i1] A[i1,i2] ... A[i(k-1),i0]

over ordered tuples of k *distinct* indices; C_{n,1} = n^(-1/2) Tr A.
Since the indices are distinct, the value only involves off-diagonal
entries, so all cycle routines operate on the hollowed matrix.

``cycle_series`` is the one entry point of the run path: every cycle sum,
including the default path of ``signed_cycle_bruteforce``, and every walk
trace the experiments read come from it.  It evaluates closed-form trace
identities on the hollowed A, for 1 <= k <= ``CLOSED_FORM_KMAX`` = 5 and
no further.  They come from the Moebius inversion of walk counts into
distinct-index counts: S_k is the sum over set partitions of the k cycle
positions of mu(0, pi) times the closed-walk count of the quotient cycle,
and only partitions that never merge adjacent positions survive on a
hollow matrix.  A is symmetric, so its powers are Gram products: with
G = A A^T = A^2, A^4 = G G^T, d = diag G and e = diag A^3, the row sums
of G o A,

    S_2 = sum a_ij^2
    S_3 = <G, A>
    S_4 = <G, G> - 2 d.d + sum a_ij^4
    S_5 = <A^4, A> - 5 d.e + 5 <A o A, G o A>

so k <= 2 takes no matrix product, k = 3 and 4 one Gram product and
k = 5 two.  numpy sends a product of an array with its own transpose to
BLAS syrk, which does half the multiply-adds of a general product.  Each
inner product <X, Y> is one BLAS dot per matrix on one BLAS thread, and
each walk trace has one formula at every kmax, so the series at depth k
is bit for bit the first k entries of the series at any deeper kmax.
``randmat.check_matrix`` is the one matrix check (square, finite, exactly
symmetric) and ``check_cycle_budget`` the one compute guard of every
series.  A stack of matrices (B, n, n) takes stacked products and
per-matrix sums along the same axes as one matrix, which runs as a stack
of one, so each of its series is bit for bit the series of its matrix
alone.  Every series comes back as one ``CycleStack`` of arrays: values
and traces of shape (kmax,) for one matrix and (B, kmax) for a stack, the
float-or-array convention of ``gibbs``.

A depth-first enumeration with a visited mask and prefix products is the
reference, reached only as ``signed_cycle_bruteforce(..., method="dfs")``
at any k (n^k terms, each charged ``DFS_TERM_COST`` operations).  The two
agree exactly on small-integer matrices and to float rounding elsewhere,
and are cross-checked in the test suite against an independent
nested-loop oracle.

The spectral side: C_{n,k} for k >= 3 is approximated by the centered
linear spectral statistic Tr P_k(A_hollow / sqrt(n)) built from the
doubled Chebyshev polynomial P_k.  Its power traces Tr A^j are the walk
sums of the same products the closed forms use (Tr A^2 = S_2 = <A, A>,
Tr A^3 = S_3 = <G, A>, Tr A^4 = <G, G> and Tr A^5 = <A^4, A>), so every
series returns them with the cycles.  For k = 3 the two sides agree
identically.  The centering E Tr P_k is exact: zero for odd k by sign
symmetry, and for even k the Chebyshev combination of the exact moments
from ``combinat.walk_moments``.  ``chebyshev_lss`` (from
``randmat.power_traces``) and ``lss_centering`` (its Monte Carlo mean) are
the references the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinat import chebyshev_coeffs, walk_moments
from .randmat import (
    SeedSpec,
    check_matrix,
    hollowed,
    one_blas_thread,
    power_traces,
    sample_gaussian_matrix,
)

DEFAULT_CYCLE_BUDGET = 1e9
CLOSED_FORM_KMAX = 5
# operations charged per depth-first term.  A pure-Python term takes as
# long as about 600 to 3400 of the n^3 units of a one-thread BLAS product,
# so this still undercharges, but it caps a default-budget DFS at 1e7 terms
DFS_TERM_COST = 100


def signed_cycle_c1(a: np.ndarray):
    """n^(-1/2) times the trace of A: a float, or an array for a stack."""
    a = np.asarray(a, dtype=float)
    c1 = np.trace(a, axis1=-2, axis2=-1) / np.sqrt(a.shape[-1])
    return c1 if a.ndim == 3 else float(c1)


def signed_cycle_bruteforce(
    a: np.ndarray,
    k: int,
    budget: float = DEFAULT_CYCLE_BUDGET,
    method: str = "auto",
) -> float:
    """Exact C_{n,k} for k >= 2.

    ``method`` is ``auto`` (read from ``cycle_series``, so k <= 5) or
    ``dfs`` (the depth-first enumeration, the reference at any k; the
    budget gates its ``DFS_TERM_COST * n^k``, practical only for small n).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if method == "auto":
        return float(cycle_series(a, k, budget=budget).values[k - 1])
    if method == "dfs":
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        _require_budget(f"{DFS_TERM_COST}*n^{k}", DFS_TERM_COST * n**k, budget)
        return float(_dfs_cycle_sum(hollowed(a), k) / n ** (k / 2.0))
    raise ValueError(f"unknown method {method!r}")


def check_cycle_budget(n: int, kmax: int, budget: float = DEFAULT_CYCLE_BUDGET) -> None:
    """Raise ValueError unless ``cycle_series`` can give C_{n,1..kmax} and
    the walk traces up to kmax within the operation budget.

    The one compute guard of ``cycle_series``.  A kmax beyond
    ``CLOSED_FORM_KMAX`` is refused first, whatever the budget: no engine
    of the run path goes past the closed forms.  Every series is charged
    ``series_price(n)``.  A budget that is not a number admits nothing,
    and ``inf`` everything.
    """
    if kmax > CLOSED_FORM_KMAX:
        raise ValueError(f"k={kmax} exceeds the closed-form bound {CLOSED_FORM_KMAX}")
    _require_budget("2*n^3", series_price(n), budget)


def series_price(n: int) -> float:
    """Operations charged for one cycle series at size n, whatever kmax:
    2 * n^3, the price of the two general n x n products that kmax 5 once
    took.  Its two Gram products now do half that work, and the price is
    kept so that the default budget still admits n <= 793.  Up to
    kmax = 2 no product is taken, but the series still holds several
    n x n arrays, and the one price keeps those within memory."""
    return 2.0 * float(n) ** 3


def _require_budget(what: str, cost: float, budget: float) -> None:
    # written so that a NaN budget refuses instead of admitting everything
    if not cost <= budget:
        raise ValueError(
            f"{what} = {cost:.3g} is not within the operation budget {budget:.3g}"
        )


def _walk_sums(at: np.ndarray, kmax: int) -> tuple[list, list]:
    """The walk-product core of the symmetric hollow matrix ``at``, or of
    each matrix of a stack (B, n, n), 1 <= kmax <= 5.

    Returns the distinct-tuple cycle sums [S_2, ..., S_kmax] from the
    closed forms of the module docstring and the walk traces
    [Tr A, ..., Tr A^kmax].  Each entry has the shape of ``at`` without its
    last two axes.  Each trace has one formula at every kmax: Tr A^2 =
    <A, A>, Tr A^3 = <G, A>, Tr A^4 = <G, G> and Tr A^5 = <A^4, A>, and
    depth k only adds what k needs, so the result at kmax is bit for bit
    a prefix of the result at any deeper kmax.  Every inner product is one
    BLAS dot per matrix on one BLAS thread (``_inner``), and every other
    sum runs over the last axes in the order of one matrix's sum, so a
    stack's values are bit for bit those of its matrices alone.
    """
    with one_blas_thread():
        walks = [np.zeros(at.shape[:-2]), _inner(at, at)]
        if kmax >= 3:
            g = _gram(at)
            walks.append(_inner(g, at))
        if kmax >= 4:
            walks.append(_inner(g, g))
            aa = np.multiply(at, at)
            fourth = _inner(aa, aa)  # sum a_ij^4
            d = np.diagonal(g, axis1=-2, axis2=-1)
            dd = np.sum(d * d, axis=-1)
        if kmax >= 5:
            ga = np.multiply(g, at)
            e = np.sum(ga, axis=-1)  # diag A^3, the row sums of G o A
            cubes = _inner(aa, ga)  # <A o A, G o A>
            del aa, ga
            walks.append(_inner(_gram(g), at))
    sums = walks[1:min(kmax, 3)]
    if kmax >= 4:
        sums.append(walks[3] - 2.0 * dd + fourth)
    if kmax >= 5:
        sums.append(walks[4] - 5.0 * np.sum(d * e, axis=-1) + 5.0 * cubes)
    return sums, walks[:kmax]


def _gram(x: np.ndarray) -> np.ndarray:
    """x x^T of one matrix or of each matrix of a stack, on one BLAS thread.

    numpy computes a product of an array with its own transpose by syrk and
    copies one triangle into the other, so the result is exactly
    symmetric.  On one thread it has the same bits in every process, and a
    stack makes the same call per matrix as one matrix alone.
    """
    with one_blas_thread():
        return x @ x.swapaxes(-1, -2)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> of each pair of contiguous matrices over their last two axes:
    one BLAS dot per matrix, so a stack makes the same call per matrix as
    one matrix alone.  The caller holds one BLAS thread, so the dot is not
    split across threads."""
    lead = x.shape[:-2]
    return (x.reshape(*lead, 1, -1) @ y.reshape(*lead, -1, 1))[..., 0, 0]


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


@dataclass(frozen=True, eq=False)
class CycleStack:
    """The series of one matrix, or of each matrix of a stack, as arrays:
    ``values[..., k-1]`` holds C_{n,k} and ``traces[..., j-1]``
    Tr (A_hollow / sqrt n)^j, each (kmax,) for one matrix and (B, kmax)
    for a stack."""

    values: np.ndarray
    traces: np.ndarray


def cycle_series(a: np.ndarray, kmax: int, budget: float = DEFAULT_CYCLE_BUDGET):
    """C_{n,1..kmax} and Tr (A_hollow / sqrt n)^1..kmax in one pass, for
    1 <= kmax <= min(n, ``CLOSED_FORM_KMAX``), sharing the matrix products
    across k.  ``randmat.check_matrix`` refuses a matrix that is not
    square, finite and exactly symmetric, and ``check_cycle_budget`` a
    larger kmax or a series beyond the budget, before any product is
    taken.  A matrix whose diagonal is already zero is used as it is,
    without a hollowed copy.

    One ``CycleStack`` comes back, of (kmax,) arrays for one matrix and
    (B, kmax) arrays for a stack (B, n, n), from stacked products and sums:
    one matrix runs as a stack of one, and every row of a stack is bit for
    bit the series of its matrix alone.  The budget prices one matrix: the
    caller bounds the stack.
    """
    a = check_matrix(a)
    n = a.shape[-1]
    if not 1 <= kmax <= n:
        raise ValueError(f"need 1 <= kmax <= n, got kmax={kmax}, n={n}")
    check_cycle_budget(n, kmax, budget)
    stack = a if a.ndim == 3 else a[None]
    if np.diagonal(stack, axis1=-2, axis2=-1).any():
        at = hollowed(stack)
    else:
        at = np.ascontiguousarray(stack)
    sums, walks = _walk_sums(at, kmax)
    values = [signed_cycle_c1(stack)]
    values += [s_k / n ** (k / 2.0) for k, s_k in enumerate(sums, start=2)]
    traces = [t / n ** (j / 2.0) for j, t in enumerate(walks, start=1)]
    values, traces = np.stack(values, axis=1), np.stack(traces, axis=1)
    if a.ndim == 2:
        values, traces = values[0], traces[0]
    return CycleStack(values, traces)


def chebyshev_lss(a_hollow: np.ndarray, k: int) -> float:
    """Tr P_k(A_hollow / sqrt(n)) via power traces of the rescaled matrix;
    the reference for the walk traces of ``cycle_series``."""
    a_hollow = np.asarray(a_hollow, dtype=float)
    n = a_hollow.shape[0]
    if np.any(np.diag(a_hollow) != 0.0):
        raise ValueError("matrix must have an exactly zero diagonal")
    traces = power_traces(a_hollow / np.sqrt(n), k)
    return float(chebyshev_trace(traces, n, k))


def chebyshev_trace(traces: np.ndarray, n: int, k: int):
    """Tr P_k(M) of an n x n matrix M from its power traces (Tr M, ..., Tr M^k).

    One set of traces serves every k up to its length, so callers that
    need several k pay for the matrix products once.  A stack's traces,
    transposed to (kmax, B), give B values, each by its matrix's operations
    alone.  Exact (rational) traces give the exact value, unrounded.
    """
    coeffs = chebyshev_coeffs(k)
    value = coeffs[0] * n
    for j in range(1, k + 1):
        if coeffs[j]:
            value += coeffs[j] * traces[j - 1]
    return value


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
    return float(chebyshev_trace(walk_moments(n, k), n, k))


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
