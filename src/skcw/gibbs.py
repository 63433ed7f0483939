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

Exact log partition functions are available for n up to the enumeration
bound (default 28) via three interchangeable methods:

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
  shift;
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


@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature, couplings and system size (beta, J, J', n)."""

    beta: float
    J: float = 0.0
    Jprime: float = 0.0
    n: int = 1

    def __post_init__(self):
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
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or n != params.n:
        raise ValueError(f"matrix shape {a.shape} does not match n={params.n}")
    m = a / np.sqrt(n) + params.J / n
    np.fill_diagonal(m, np.diag(a) / np.sqrt(n) + params.Jprime / n)
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


def _log_partition_split(m: np.ndarray, beta: float) -> float:
    """Three-block factored enumeration; spin 0 pinned to +1 by symmetry.

    With s = (a, u, w) over the blocks of ``_block_tables``, beta*H is
    e_a(a) + cu(a) . u + cw(a) . w + e_uw(u, w): the cross terms are linear
    in u and in w, so for each row a the sum over (u, w) factors as

        sum_uw X[a, u] V[u, w] Y[a, w],  X = exp(cu(a) . u - |cu(a)|_1),
        Y = exp(cw(a) . w - |cw(a)|_1),  V = exp(e_uw - max e_uw),

    each factor peaking at 1.  All rows are one matrix product
    ((X @ V) * Y).sum(1), followed by a log-sum-exp over the rows.
    """
    n = m.shape[0]
    ta, tu, tw = _block_tables(n)
    # spins [0, ka) are a with the pinned spin 0, [ka, kw) u, [kw, n) w
    ka = ta.shape[1]
    kw = ka + tu.shape[1]
    bm = beta * m
    with one_blas_thread():
        h = ta @ bm[:ka]
        e_a = (h[:, :ka] * ta).sum(axis=1)
        cu = 2.0 * h[:, ka:kw]
        cw = 2.0 * h[:, kw:]
        su = np.abs(cu).sum(axis=1)
        sw = np.abs(cw).sum(axis=1)
        g = tu @ bm[ka:kw, ka:]
        e_uw = 2.0 * (g[:, kw - ka :] @ tw.T)
        e_uw += (g[:, : kw - ka] * tu).sum(axis=1)[:, None]
        e_uw += ((tw @ bm[kw:, kw:]) * tw).sum(axis=1)
        top_uw = float(e_uw.max())
        x = cu @ tu.T
        x -= su[:, None]
        np.exp(x, out=x)
        y = cw @ tw.T
        y -= sw[:, None]
        np.exp(y, out=y)
        xv = x @ np.exp(e_uw - top_uw)
    xv *= y
    sums = xv.sum(axis=1)
    row_log = e_a + su + sw + top_uw + np.log(np.maximum(sums, _ROW_FLOOR))
    # X, Y and V each peak at 1 but possibly in different cells, so a row's
    # largest term, and with it the row sum, can underflow far outside the
    # paramagnetic regime; such rows are summed again with their exact shift
    for i in np.flatnonzero(sums < _ROW_FLOOR):
        exact = e_uw + (cu[i] @ tu.T)[:, None] + cw[i] @ tw.T
        top_i = float(exact.max())
        row_log[i] = e_a[i] + top_i + math.log(float(np.exp(exact - top_i).sum()))
    top = float(row_log.max())
    # the pinned spin accounts for half the cube; sigma -> -sigma is exact
    return top + math.log(2.0 * float(np.exp(row_log - top).sum())) - n * math.log(2.0)


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


def exact_log_partition(
    a: np.ndarray,
    params: ModelParams,
    method: str = "split",
    max_n: int = ENUMERATION_MAX_N,
) -> float:
    """log Z_n(beta) by exhaustive enumeration of the hypercube.

    Refuses n beyond ``max_n`` (default 28) rather than subsampling.
    """
    if params.n > max_n:
        raise ValueError(
            f"n={params.n} exceeds the enumeration bound {max_n}; "
            "raise max_n explicitly to insist"
        )
    m = interaction_matrix(a, params)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite interaction matrix")
    if params.n == 1:
        return params.beta * float(m[0, 0])
    if method == "split":
        return _log_partition_split(m, params.beta)
    if method == "gray":
        return _log_partition_gray(m, params.beta)
    if method == "naive":
        if params.n > 22:
            raise ValueError("the naive method materializes 2^n states; n <= 22 only")
        return _log_partition_naive(m, params.beta)
    raise ValueError(f"unknown method {method!r}")


def free_energy(
    a: np.ndarray,
    params: ModelParams,
    method: str = "split",
    max_n: int = ENUMERATION_MAX_N,
) -> float:
    return exact_log_partition(a, params, method=method, max_n=max_n) / params.n


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


def rn_log_ratio(a: np.ndarray, params: ModelParams, method: str = "split") -> float:
    """Log likelihood ratio of the planted mixture law against the null law.

    Closed form: an affine shift of log Z_n,

        -log tau_n - (n-1) beta^2 + beta J - beta/sqrt(n) * Tr A
        - beta J' + log Z_n(beta).

    Integrates to one over the null ensemble.
    """
    n = params.n
    beta = params.beta
    log_z = exact_log_partition(a, params, method=method)
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
    method: str = "split",
    cycle_budget: float = DEFAULT_CYCLE_BUDGET,
    log_z: float | None = None,
) -> float:
    """Residual of the signed-cycle decomposition of log Z_n, truncated at m:

        log Z + log(1 - 2 beta J)/2 - (n-1) beta^2 + beta (J - J')
        - beta C_{n,1}
        - sum_{k=2..m} [2 (2 beta)^k (C_{n,k} - (n-1) I(k=2)) - (2 beta)^(2k)] / (4k).

    ``log_z`` may be supplied when the caller already evaluated it.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    n = params.n
    beta = params.beta
    if log_z is None:
        log_z = exact_log_partition(a, params, method=method)
    series = cycle_series(a, m, budget=cycle_budget)
    residual = (
        log_z
        + 0.5 * math.log1p(-2.0 * beta * params.J)
        - (n - 1) * beta**2
        + beta * (params.J - params.Jprime)
        - beta * series.value(1)
    )
    for k in range(2, m + 1):
        mu = (2.0 * beta) ** k
        residual -= (2.0 * mu * series.centered_value(k) - mu**2) / (4.0 * k)
    return residual


def second_moment_target(beta: float, tol: float = 1e-12) -> float:
    """exp(-2 beta^2) / sqrt(1 - 4 beta^2) for beta < 1/2.

    Internally re-derived as exp(sum_{k>=2} (4 beta^2)^k / (2k)) and the two
    routes are required to agree to ``tol``.
    """
    if not 0 <= beta < 0.5:
        raise ValueError(f"need 0 <= beta < 1/2, got {beta}")
    closed = math.exp(-2.0 * beta**2) / math.sqrt(1.0 - 4.0 * beta**2)
    x = 4.0 * beta**2
    series = 0.0
    term = x
    k = 1
    while True:
        k += 1
        term *= x
        incr = term / (2.0 * k)
        series += incr
        if incr < 1e-18 * max(series, 1.0):
            break
    via_series = math.exp(series)
    if abs(closed - via_series) > tol * closed:
        raise AssertionError(
            f"closed form {closed!r} and series {via_series!r} disagree"
        )
    return closed
