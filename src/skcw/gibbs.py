"""Thermodynamics of the SK-plus-Curie-Weiss model on the hypercube.

The interaction matrix is M = A/sqrt(n) + J/n off the diagonal and
M_ii = A_ii/sqrt(n) + J'/n on it; the Hamiltonian is H(sigma) =
<sigma, M sigma> with sigma in {-1,+1}^n, and

    Z_n(beta) = 2^-n sum_sigma exp(beta H(sigma)),
    F_n(beta) = log(Z_n(beta)) / n.

In the paramagnetic regime (beta < 1/2 and beta*J < 1/2) the centered,
rescaled free energy n*(F_n - beta^2) is asymptotically Gaussian with

    mean     f1     = -log(1 - 2 beta J)/2 + beta (J' - J) + log(1 - 4 beta^2)/4,
    variance alpha1 = -beta^2 - log(1 - 4 beta^2)/2,

and log Z_n decomposes into signed cycles: the residual returned by
``decomposition_residual`` tends to zero in probability.

Exact log partition functions are available for n up to the fixed
enumeration bound ``ENUMERATION_MAX_N`` = 28, which ``check_enumeration``
guards for every caller, via three interchangeable methods:

* ``split`` (default) -- factored three-block enumeration.  Spin 0 is
  pinned by the global flip symmetry and the other n-1 spins form blocks
  a, u and w of about (n-1)/3 each.  The cross terms between a and the
  other two blocks are linear in u and in w, so every row a of the sum
  factors into exp-tables X[a, u] and Y[a, w] (each shifted to peak at 1
  in closed form) around V[u, w] = exp(e_uw - max e_uw), and all rows are
  one matrix product ((X @ V) * Y).sum(1) on one BLAS thread.  This is the
  weighted-triangle reduction of R. Williams (TCS 2005): about
  3 * 2^(2(n-1)/3) exponentials and one 2^(n-1) multiply-add GEMM instead
  of 2^(n-1) exponentials.  The block spin tables are cached per size,
  read-only.  A row whose sum underflows is recomputed with its exact
  shift.  A stack of matrices (B, n, n) runs as one kernel call per
  sub-stack whose X, V and Y hold at most ``_SPLIT_ELEMENTS`` elements,
  and each value is bit for bit that of its matrix alone;
* ``gray``  -- serial Gray-code traversal flipping one spin per step with
  O(n) local-field updates and an online running-max log-sum-exp;
* ``naive`` -- literal re-evaluation of <sigma, M sigma> per state
  (oracle grade, small n only).

All three agree to float rounding; ``split`` exists because the serial
traversal is too slow in Python for the replicated experiments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cycles import DEFAULT_CYCLE_BUDGET, cycle_series
from .randmat import one_blas_thread

ENUMERATION_MAX_N = 28
# A row sum of the split kernel is a sum of products of factors in (0, 1];
# each product and partial sum is correctly rounded unless it falls below
# the normal range (2.2e-308), and a row has fewer than 2^19 terms at
# n <= 28, so underflow moves a row sum by less than 1e-301.  Against a sum
# at or above this floor that is far below rounding; a smaller row sum is
# recomputed with its exact shift.
_ROW_FLOOR = 1e-250
# at most this many elements of X, V and Y together in one sub-stack of the
# split kernel: 64 matrices at n = 12, ten at n = 16 and one from n = 20 on.
# Sub-stacks of 2^16 elements ran slower at n = 16 and 20 than 2^14 or 2^15:
# their arrays no longer stay in cache
_SPLIT_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature, couplings and system size (beta, J, J', n)."""

    beta: float = 0.0
    J: float = 0.0
    Jprime: float = 0.0
    n: int = 1

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.beta, self.J, self.Jprime)):
            raise ValueError(
                f"beta, J and J' must be finite, got {self.beta}, {self.J}, {self.Jprime}"
            )
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")

    @property
    def paramagnetic(self) -> bool:
        return self.beta < 0.5 and self.beta * self.J < 0.5

    def require_paramagnetic(self) -> None:
        if not self.paramagnetic:
            raise ValueError(
                f"parameters beta={self.beta}, J={self.J} violate the "
                "paramagnetic regime (need beta < 1/2 and beta*J < 1/2)"
            )


@dataclass(frozen=True)
class CltTargets:
    """Limit law of n*(F_n - limit): Normal(mean, variance)."""

    limit: float
    mean: float
    variance: float


def interaction_matrix(a: np.ndarray, params: ModelParams) -> np.ndarray:
    """M of one matrix, or of each matrix of a stack (B, n, n)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if a.ndim not in (2, 3) or a.shape[-2:] != (n, n) or n != params.n:
        raise ValueError(f"matrix shape {a.shape} does not match n={params.n}")
    m = a / np.sqrt(n) + params.J / n
    diag = np.arange(n)
    m[..., diag, diag] = a[..., diag, diag] / np.sqrt(n) + params.Jprime / n
    return m


def hamiltonian(a: np.ndarray, params: ModelParams, sigma: np.ndarray) -> float:
    """<sigma, M sigma>: off-diagonal pairs counted twice, diagonal once."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (params.n,):
        raise ValueError(f"sigma has shape {sigma.shape}, expected ({params.n},)")
    m = interaction_matrix(a, params)
    return float(sigma @ (m @ sigma))


def _spin_table(nbits: int) -> np.ndarray:
    """2^nbits x nbits array of +-1 rows; row b holds the bits of b."""
    states = np.arange(1 << nbits, dtype=np.uint32)
    return 1.0 - 2.0 * ((states[:, None] >> np.arange(nbits)) & 1).astype(float)


@functools.cache
def _block_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only spin tables of the split kernel's three blocks at size n.

    Spin 0 is pinned to +1 by the global flip symmetry and the other n-1
    are split into blocks a, u and w of floor((n-1)/3), then
    floor((n-1-|a|)/2) and the remaining spins, in index order.  The a
    table carries the pinned spin as a leading column of ones.  Every table
    has at most 2^ceil((n-1)/3) rows (2^9 at n = 28), so caching all sizes
    costs little.
    """
    na = (n - 1) // 3
    p = (n - 1 - na) // 2
    tables = (
        np.hstack([np.ones((1 << na, 1)), _spin_table(na)]),
        _spin_table(p),
        _spin_table(n - 1 - na - p),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _log_partition_split(m: np.ndarray, beta: float) -> np.ndarray:
    """log Z of each matrix M of the stack ``m`` (B, n, n), n >= 2, by the
    three-block factored enumeration, in sub-stacks whose X, V and Y hold
    at most ``_SPLIT_ELEMENTS`` elements together (at least one matrix)."""
    n = m.shape[-1]
    ta, tu, tw = _block_tables(n)
    per_matrix = ta.shape[0] * (tu.shape[0] + tw.shape[0]) + tu.shape[0] * tw.shape[0]
    step = max(1, _SPLIT_ELEMENTS // per_matrix)
    return np.concatenate(
        [_log_partition_split_stack(m[i:i + step], beta) for i in range(0, len(m), step)]
    )


def _log_partition_split_stack(m: np.ndarray, beta: float) -> np.ndarray:
    """Three-block factored enumeration of a stack; spin 0 pinned to +1 by
    symmetry.

    With s = (a, u, w) over the blocks of ``_block_tables``, beta*H is
    e_a(a) + cu(a) . u + cw(a) . w + e_uw(u, w): the cross terms are linear
    in u and in w, so for each row a the sum over (u, w) factors as

        sum_uw X[a, u] V[u, w] Y[a, w],  X = exp(cu(a) . u - |cu(a)|_1),
        Y = exp(cw(a) . w - |cw(a)|_1),  V = exp(e_uw - max e_uw),

    each factor peaking at 1.  All rows of a matrix are one matrix product
    ((X @ V) * Y).sum(1), followed by a log-sum-exp over the rows.  Every
    step runs on the stack's leading axis and reduces along the same
    contiguous axis as for one matrix, and numpy's stacked matmul makes the
    same BLAS call per matrix, so each value is bit for bit that of a
    stack of one.
    """
    n = m.shape[-1]
    ta, tu, tw = _block_tables(n)
    # spins [0, ka) are a with the pinned spin 0, [ka, kw) u, [kw, n) w
    ka = ta.shape[1]
    kw = ka + tu.shape[1]
    bm = beta * m
    with one_blas_thread():
        h = ta @ bm[:, :ka]
        e_a = (h[:, :, :ka] * ta).sum(axis=2)
        cu = 2.0 * h[:, :, ka:kw]
        cw = 2.0 * h[:, :, kw:]
        su = np.abs(cu).sum(axis=2)
        sw = np.abs(cw).sum(axis=2)
        g = tu @ bm[:, ka:kw, ka:]
        e_uw = 2.0 * (g[:, :, kw - ka :] @ tw.T)
        e_uw += (g[:, :, : kw - ka] * tu).sum(axis=2)[:, :, None]
        e_uw += ((tw @ bm[:, kw:, kw:]) * tw).sum(axis=2)[:, None, :]
        top_uw = e_uw.max(axis=(1, 2))
        x = cu @ tu.T
        x -= su[:, :, None]
        np.exp(x, out=x)
        y = cw @ tw.T
        y -= sw[:, :, None]
        np.exp(y, out=y)
        xv = x @ np.exp(e_uw - top_uw[:, None, None])
    xv *= y
    sums = xv.sum(axis=2)
    row_log = e_a + su + sw + top_uw[:, None] + np.log(np.maximum(sums, _ROW_FLOOR))
    # X, Y and V each peak at 1 but possibly in different cells, so a row's
    # largest term, and with it the row sum, can underflow far outside the
    # paramagnetic regime; such rows are summed again with their exact shift
    for b, i in zip(*np.nonzero(sums < _ROW_FLOOR)):
        exact = e_uw[b] + (cu[b, i] @ tu.T)[:, None] + cw[b, i] @ tw.T
        top_i = float(exact.max())
        row_log[b, i] = e_a[b, i] + top_i + math.log(float(np.exp(exact - top_i).sum()))
    top = row_log.max(axis=1)
    totals = np.exp(row_log - top[:, None]).sum(axis=1)
    # the pinned spin accounts for half the cube; sigma -> -sigma is exact.
    # math.log per matrix, as for one matrix alone: numpy's vector log need
    # not round the same way
    return np.array([
        t + math.log(2.0 * s) - n * math.log(2.0)
        for t, s in zip(top.tolist(), totals.tolist())
    ])


def _log_partition_gray(m: np.ndarray, beta: float) -> float:
    """Gray-code traversal: one spin flip per step, O(n) field update,
    online log-sum-exp with a running maximum."""
    n = m.shape[0]
    sigma = np.ones(n)
    fields = m @ sigma
    energy = float(sigma @ fields)
    running_max = beta * energy
    running_sum = 1.0
    diag = np.diag(m)
    for step in range(1, 1 << n):
        i = (step & -step).bit_length() - 1
        energy += -4.0 * sigma[i] * (fields[i] - diag[i] * sigma[i])
        fields -= 2.0 * sigma[i] * m[:, i]
        sigma[i] = -sigma[i]
        x = beta * energy
        if x <= running_max:
            running_sum += math.exp(x - running_max)
        else:
            running_sum = running_sum * math.exp(running_max - x) + 1.0
            running_max = x
    return running_max + math.log(running_sum) - n * math.log(2.0)


def _log_partition_naive(m: np.ndarray, beta: float) -> float:
    n = m.shape[0]
    table = _spin_table(n)
    energies = beta * ((table @ m) * table).sum(axis=1)
    top = float(energies.max())
    return top + math.log(np.exp(energies - top).sum()) - n * math.log(2.0)


def check_enumeration(n: int) -> None:
    """The one guard of exact log Z: refuse n beyond ``ENUMERATION_MAX_N``."""
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"n={n} exceeds the enumeration bound {ENUMERATION_MAX_N}")


def exact_log_partition(a: np.ndarray, params: ModelParams, method: str = "split"):
    """log Z_n(beta) by exhaustive enumeration of the hypercube: a float for
    one matrix, an array of B values for a stack (B, n, n).

    Refuses n beyond ``ENUMERATION_MAX_N`` (``check_enumeration``) rather
    than subsampling.  A stack builds M and checks it once; ``split`` then
    runs on sub-stacks, the oracles matrix by matrix.  Every value equals
    that of its matrix alone, bit for bit.
    """
    check_enumeration(params.n)
    m = interaction_matrix(a, params)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite interaction matrix")
    stack = m if m.ndim == 3 else m[None]
    if params.n == 1:
        values = params.beta * stack[:, 0, 0]
    elif method == "split":
        values = _log_partition_split(stack, params.beta)
    elif method == "gray":
        values = np.array([_log_partition_gray(mi, params.beta) for mi in stack])
    elif method == "naive":
        if params.n > 22:
            raise ValueError("the naive method materializes 2^n states; n <= 22 only")
        values = np.array([_log_partition_naive(mi, params.beta) for mi in stack])
    else:
        raise ValueError(f"unknown method {method!r}")
    return values if m.ndim == 3 else float(values[0])


def curie_weiss_tau(n: int, beta_j: float) -> float:
    """tau_n = 2^-n sum_j binom(n,j) exp(beta_j (2j-n)^2 / n).

    The mean-field normalizer; tends to 1/sqrt(1 - 2 beta_j) for
    beta_j < 1/2.  Evaluated with log-space binomials, so large n is fine.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    j = np.arange(n + 1, dtype=float)
    log_binom = np.array(
        [
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            for k in range(n + 1)
        ]
    )
    log_terms = log_binom - n * math.log(2.0) + beta_j * (2.0 * j - n) ** 2 / n
    top = float(np.max(log_terms))
    return float(math.exp(top) * np.exp(log_terms - top).sum())


def rn_log_ratio(a: np.ndarray, params: ModelParams) -> float:
    """Log likelihood ratio of the planted mixture law against the null law.

    Closed form: an affine shift of log Z_n,

        -log tau_n - (n-1) beta^2 + beta J - beta/sqrt(n) * Tr A
        - beta J' + log Z_n(beta).

    Integrates to one over the null ensemble.
    """
    n = params.n
    beta = params.beta
    log_z = exact_log_partition(a, params)
    tau = curie_weiss_tau(n, beta * params.J)
    diag_sum = float(np.trace(a))
    return (
        -math.log(tau)
        - (n - 1) * beta**2
        + beta * params.J
        - beta * diag_sum / math.sqrt(n)
        - beta * params.Jprime
        + log_z
    )


def clt_targets(params: ModelParams) -> CltTargets:
    """Limit beta^2 and the Gaussian (mean, variance) of n*(F_n - beta^2)."""
    params.require_paramagnetic()
    beta, j, jp = params.beta, params.J, params.Jprime
    variance = -(beta**2) - 0.5 * math.log1p(-4.0 * beta**2)
    mean = (
        -0.5 * math.log1p(-2.0 * beta * j)
        + beta * (jp - j)
        + 0.25 * math.log1p(-4.0 * beta**2)
    )
    return CltTargets(limit=beta**2, mean=mean, variance=variance)


def decomposition_residual(
    a: np.ndarray,
    params: ModelParams,
    m: int,
    log_z,
    cycle_budget: float = DEFAULT_CYCLE_BUDGET,
):
    """Residual of the signed-cycle decomposition of log Z_n, truncated at m:

        log Z + log(1 - 2 beta J)/2 - (n-1) beta^2 + beta (J - J')
        - beta C_{n,1}
        - sum_{k=2..m} [2 (2 beta)^k (C_{n,k} - (n-1) I(k=2)) - (2 beta)^(2k)] / (4k).

    ``log_z`` is log Z_n(beta) of ``a``, which the caller has evaluated
    (``exact_log_partition``).  The cycles come from ``cycle_series``, so
    1 <= m <= 5.  For a stack (B, n, n), ``log_z`` holds the B values and
    the B residuals are returned as an array.
    """
    n = params.n
    beta = params.beta
    series = cycle_series(a, m, budget=cycle_budget)
    stacked = isinstance(series, list)
    # cycles[k - 1] holds C_{n,k} of every matrix
    cycles = np.array([s.values for s in (series if stacked else [series])]).T
    residual = (
        log_z
        + 0.5 * math.log1p(-2.0 * beta * params.J)
        - (n - 1) * beta**2
        + beta * (params.J - params.Jprime)
        - beta * cycles[0]
    )
    for k in range(2, m + 1):
        mu = (2.0 * beta) ** k
        centered = cycles[k - 1] - (n - 1) if k == 2 else cycles[k - 1]
        residual -= (2.0 * mu * centered - mu**2) / (4.0 * k)
    return residual if stacked else float(residual[0])


def second_moment_target(beta: float) -> float:
    """exp(-2 beta^2) / sqrt(1 - 4 beta^2) for 0 <= beta < 1/2.

    The closed form of exp(sum_{k>=2} (4 beta^2)^k / (2k)); the tests
    (acceptance criterion 9) compare it with the summed series.
    """
    if not 0 <= beta < 0.5:
        raise ValueError(f"need 0 <= beta < 1/2, got {beta}")
    return math.exp(-2.0 * beta**2) / math.sqrt(1.0 - 4.0 * beta**2)
