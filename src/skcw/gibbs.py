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

* ``split`` (default) -- vectorized half/half enumeration over the two
  half-cube spin tables, using the global flip symmetry to halve the work.
  beta is folded into the half energies and the cross coupling block; each
  chunk of first-half rows is one matrix product against the second-half
  spins, shifted per row by its closed-form maximum, exponentiated in place
  and reduced by one matrix-vector product with exp(e_b - max e_b).  A row
  whose sum underflows is recomputed with its exact shift;
* ``gray``  -- serial Gray-code traversal flipping one spin per step with
  O(n) local-field updates and an online running-max log-sum-exp;
* ``naive`` -- literal re-evaluation of <sigma, M sigma> per state
  (oracle grade, small n only).

All three agree to float rounding; ``split`` exists because the serial
traversal is too slow in Python for the replicated experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycles import DEFAULT_CYCLE_BUDGET, cycle_series

ENUMERATION_MAX_N = 28
_SPLIT_CHUNK = 1 << 22
# A row sum of the split kernel above this floor has every term within
# 1e-16 of its largest one in the normal float range (2^13 terms at most).
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


def _log_partition_split(m: np.ndarray, beta: float) -> float:
    """Half/half vectorized enumeration; last spin pinned to +1 by symmetry.

    For half-cube spin rows sa[i] and sb[j], beta*H = e_a[i] + e_b[j] +
    cross[i] . sb[j].  Row i of a chunk is shifted by its largest cross
    term, exponentiated in place and reduced against v = exp(e_b - max e_b)
    in one matrix-vector product; a log-sum-exp over the rows finishes.
    """
    n = m.shape[0]
    na = n // 2
    nb = n - na
    sa = _spin_table(na)
    # free spins of the second half, the pinned spin, and a column of ones
    # that carries the row shift into the matrix product
    sb_aug = np.hstack([_spin_table(nb - 1), np.ones((1 << (nb - 1), 2))])
    sb = sb_aug[:, :-1]
    e_a = beta * ((sa @ m[:na, :na]) * sa).sum(axis=1)
    e_b = beta * ((sb @ m[na:, na:]) * sb).sum(axis=1)
    cross = sa @ (2.0 * beta * m[:na, na:])
    # max_j cross[i] . sb[j] in closed form: every free sign matches cross[i]
    shift = np.abs(cross[:, :-1]).sum(axis=1) + cross[:, -1]
    cross_aug = np.hstack([cross, -shift[:, None]])
    top_b = float(e_b.max())
    v = np.exp(e_b - top_b)
    row_log = np.empty(sa.shape[0])
    rows_per_chunk = min(sa.shape[0], max(1, _SPLIT_CHUNK // sb.shape[0]))
    buffer = np.empty((rows_per_chunk, sb.shape[0]))
    for lo in range(0, sa.shape[0], rows_per_chunk):
        hi = min(lo + rows_per_chunk, sa.shape[0])
        block = np.matmul(cross_aug[lo:hi], sb_aug.T, out=buffer[: hi - lo])
        np.exp(block, out=block)
        sums = block @ v
        row_log[lo:hi] = np.log(np.maximum(sums, _ROW_FLOOR))
        # The largest cross term and the largest e_b may sit in different
        # columns; then the row sum underflows and loses its digits.  Such
        # rows (never seen on paramagnetic inputs) take their own exact shift.
        low = lo + np.flatnonzero(sums < _ROW_FLOOR)
        if low.size:
            exact = np.matmul(cross[low], sb.T, out=buffer[: low.size])
            exact += e_b
            exact_max = exact.max(axis=1, keepdims=True)
            exact -= exact_max
            np.exp(exact, out=exact)
            row_log[low] = (
                exact_max[:, 0] + np.log(exact.sum(axis=1)) - shift[low] - top_b
            )
    row_log += e_a + shift + top_b
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
