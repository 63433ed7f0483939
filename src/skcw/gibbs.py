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
guards for every caller.  As sigma_i^2 = 1, the diagonal of M adds beta
Tr M to beta H at every state: it is added once, and three interchangeable
methods enumerate the hollow M (at n = 1, the empty enumeration):

* ``split`` (default) -- factored three-block enumeration.  Spin 0 is
  pinned by the global flip symmetry and the other n-1 spins form blocks
  a, u and w of about (n-1)/3 each, u taking the larger half after a.  The
  cross terms between a and the other two blocks are linear in u and in
  w, so every row a of the sum factors into exp-tables X[a, u] and Y[a, w]
  (each shifted to peak at 1 in closed form) around V[u, w] =
  exp(e_uw - c), with c a closed-form bound on e_uw, and all rows are one
  matrix product ((X @ V) * Y).sum(1) on one BLAS thread.  This is the
  weighted-triangle reduction of R. Williams (TCS 2005): about
  3 * 2^(2(n-1)/3) exponentials and one 2^(n-1) multiply-add GEMM instead
  of 2^(n-1) exponentials.  Each exponent, shift included, is one product
  with a table cached per size, read-only, so no elementwise pass but the
  exponential touches a table before the GEMM.  A row whose sum underflows
  is recomputed with its exact shift.  A stack of matrices (B, n, n) forms
  its coefficients in one pass and its tables in sub-stacks whose X, V and
  Y hold at most ``_SPLIT_ELEMENTS`` elements, all sub-stacks writing into
  one set of work arrays, and each value is bit for bit that of its matrix
  alone;
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

from .randmat import check_matrix, hollowed, one_blas_thread

ENUMERATION_MAX_N = 28
# A row sum of the split kernel is a sum of the 2^(|u| + |w|) products
# X V Y, each factor at most 1 up to rounding: 2^18 terms at n = 28 (blocks
# of 9), 2^21 at n = 32.  Each product and partial sum is correctly rounded
# unless it falls below the normal range (2.2e-308), where it loses at most
# 2^-1075 (2.5e-324); a row takes fewer than 2^(|u| + |w| + 2) such
# operations, so underflow moves a row sum by less than 1e-317 at n <= 28
# (and less than 1e-301 while a row has fewer than 2^50 terms).  Against a
# sum at or above this floor that is far below rounding; a smaller row sum
# is recomputed with its exact shift.
_ROW_FLOOR = 1e-250
# at most this many elements of X, V and Y together in one sub-stack of the
# split kernel: 128 matrices at n = 12, 21 at n = 16, 3 at n = 20 and one
# from n = 24 on.  Larger sub-stacks pay less per-call overhead, but their
# arrays pass glibc's 128 KiB mmap threshold: allocated per sub-stack, they
# faulted their pages in again every time (a library caller's
# ``decomp_serial`` run took 13.6e3 faults at 2^16 and 1.4e3 at 2^15), which
# the one work buffer of ``_log_partition_split`` avoids.  2^17 changes
# nothing from n = 24 on and raised the benchmark's peak RSS by 0.3 to
# 0.9 MB
_SPLIT_ELEMENTS = 1 << 16
# The exponents of X, Y and V are at most 0, but a product and a sum round
# the same terms in different orders.  A matrix's exponents are sums of at
# most 11 terms no larger than twice its shifts |cu|_1, |cw|_1 and c, so
# below a shift of 2^50 each rounds by at most a few units, harmless to
# exp, and is left as it is; above it the rounding can exceed 1 and reach
# exp's overflow at 709 (+16384 at a shift of 1.3e20), so those matrices'
# exponents are clamped at 0.
_CLAMP_SHIFT = 2.0**50


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
    ceil((n-1-|a|)/2) and the remaining spins, in index order: u takes the
    larger half, so the (rows_a, rows_u) table X and the (rows_u, rows_w)
    table V are the larger ones and Y and X @ V the smaller.  The a table
    carries the pinned spin as a leading column of ones.  Every table has
    at most 2^ceil((n-1)/3) rows (2^9 at n = 28), so caching all sizes
    costs little.
    """
    na = (n - 1) // 3
    nu = (n - na) // 2
    tables = (
        np.hstack([np.ones((1 << na, 1)), _spin_table(na)]),
        _spin_table(nu),
        _spin_table(n - 1 - na - nu),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def _pair_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only pair tables of the blocks of ``_block_tables(n)``.

    For a block table t with k columns, the pair table has shape
    (k^2, rows) and holds t[r, i] * t[r, j] in row i*k + j, column r, so
    the flattened k x k block of beta*M times the pair table is the block's
    quadratic form at every row of t.
    """
    tables = tuple(
        (t[:, :, None] * t[:, None, :]).reshape(len(t), -1).T.copy()
        for t in _block_tables(n)
    )
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def _augmented_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only transposed u and w spin tables of ``_block_tables(n)``,
    each with a row of ones appended: (k + 1, rows).  A coefficient row
    [c, s] times such a table is c . t + s at every row t of the block, so
    a shift rides in the product as one more column."""
    tables = tuple(np.vstack([t.T, np.ones((1, len(t)))]) for t in _block_tables(n)[1:])
    for table in tables:
        table.flags.writeable = False
    return tables


def _quadratic_forms(block: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """s . B s at every row s of a block table, for each k x k block B of
    the stack ``block``: one (1, k^2) by (k^2, rows) product per matrix,
    whose bits do not depend on the stack's length."""
    return (block.reshape(len(block), 1, -1) @ pairs)[:, 0]


def _log_partition_split(m: np.ndarray, beta: float) -> np.ndarray:
    """log Z of each hollow matrix M of the stack ``m`` (B, n, n) by the
    three-block factored enumeration; spin 0 pinned to +1 by symmetry.

    With s = (a, u, w) over the blocks of ``_block_tables``, beta*H is
    e_a(a) + cu(a) . u + cw(a) . w + e_uw(u, w), with e_uw =
    2 u . B_uw w + q_u(u) + q_w(w): the cross terms are linear in u and in
    w, so for each row a the sum over (u, w) factors as

        sum_uw X[a, u] V[u, w] Y[a, w],  X = exp(cu(a) . u - |cu(a)|_1),
        Y = exp(cw(a) . w - |cw(a)|_1),  V = exp(e_uw - c),

    with c = max q_u + max q_w + 2 sum |B_uw|, a bound on e_uw, so every
    factor is at most 1.  Each exponent is one product whose shift rides
    in it: X and Y are the rows [cu, -|cu|_1] and [cw, -|cw|_1] of H times
    the ``_augmented_tables``, and V is L @ R with L = [2 tu B_uw, q_u, 1]
    and R = [tw^T; 1; q_w - c].  The quadratic terms e_a, q_u and q_w are
    one product each with the ``_pair_tables``.  All rows of a matrix are
    one matrix product ((X @ V) * Y).sum(1), followed by a log-sum-exp over
    the rows.

    The coefficients (H, the quadratic terms, c) are formed once for the
    whole stack; the tables, in sub-stacks whose X, V and Y hold at most
    ``_SPLIT_ELEMENTS`` elements together (at least one matrix), by
    ``_split_row_sums``.  Every array is carved from one buffer allocated
    here, the sub-stacks' work arrays sized for the longest, so no
    sub-stack faults in fresh pages; Y takes no slot of its own, as it
    reuses X's memory.  Every step runs on the stack's
    leading axis and reduces along the same contiguous axis as for one
    matrix, and numpy's stacked matmul makes the same BLAS call per matrix,
    so each value is bit for bit that of a stack of one.
    """
    b, n = len(m), m.shape[-1]
    ta, tu, tw = _block_tables(n)
    qa, qu, qw = _pair_tables(n)
    aug_u, aug_w = _augmented_tables(n)
    # spins [0, ka) are a with the pinned spin 0, [ka, kw) u, [kw, n) w
    ka = ta.shape[1]
    kw = ka + tu.shape[1]
    ku = kw - ka
    rows_a, rows_u, rows_w = len(ta), len(tu), len(tw)
    per_matrix = rows_a * (rows_u + rows_w) + rows_u * rows_w
    step = max(1, _SPLIT_ELEMENTS // per_matrix)
    cap = min(b, step)
    shapes = [(b, ka, n - ka + 2), (b, rows_a, n - ka + 2), (cap, rows_u, n - kw + 2),
              (cap, n - kw + 2, rows_w), (cap, rows_a, rows_u), (cap, rows_u, rows_w),
              (cap, rows_a, rows_w)]
    sizes = [math.prod(shape) for shape in shapes]
    # one allocation: freed whole, it raises glibc's dynamic mmap and trim
    # thresholds above the whole set, so a process that keeps the default
    # allocator reuses the heap on its next call instead of faulting it in
    parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes[:-1]))
    cross, h, *work = (part.reshape(shape) for part, shape in zip(parts, shapes))
    bm = beta * m
    # 2 B_au and 2 B_aw with a zero column after each, so that one product
    # per matrix writes cu and cw into H beside the columns of their shifts
    cross[:, :, ku] = cross[:, :, -1] = 0.0
    np.multiply(bm[:, :ka, ka:kw], 2.0, out=cross[:, :, :ku])
    np.multiply(bm[:, :ka, kw:], 2.0, out=cross[:, :, ku + 1:-1])
    b_uw2 = 2.0 * bm[:, ka:kw, kw:]
    with one_blas_thread():
        e_a = _quadratic_forms(bm[:, :ka, :ka], qa)
        np.matmul(ta, cross, out=h)
        su = np.abs(h[:, :, :ku]).sum(axis=2)
        sw = np.abs(h[:, :, ku + 1:-1]).sum(axis=2)
        np.negative(su, out=h[:, :, ku])
        np.negative(sw, out=h[:, :, -1])
        q_u = _quadratic_forms(bm[:, ka:kw, ka:kw], qu)
        q_w = _quadratic_forms(bm[:, kw:, kw:], qw)
        c = q_u.max(axis=1) + q_w.max(axis=1) + np.abs(b_uw2).sum(axis=(1, 2))
        q_w -= c[:, None]
        largest = np.maximum(np.maximum(su, sw).max(axis=1), c)
        huge = (largest > _CLAMP_SHIFT)[:, None, None]
        left, right = work[:2]
        left[:, :, -1] = 1.0
        right[:, :-1] = aug_w
        sums = np.empty((b, rows_a))
        for i in range(0, b, step):
            j = min(b, i + step)
            _split_row_sums(
                n, h[i:j], b_uw2[i:j], q_u[i:j], q_w[i:j], huge[i:j], work, sums[i:j]
            )
    shift = e_a + su + sw + c[:, None]
    # the log of each row's mean term: 1 / (rows_u rows_w) is a power of 2,
    # so the scaling is exact, and at beta = 0, where every term is 1, each
    # row's log is exactly 0
    row_log = shift + np.log(np.maximum(sums, _ROW_FLOOR) * (1.0 / (rows_u * rows_w)))
    # X, Y and V are each at most 1 but may peak in different cells, so a
    # row's largest term, and with it the row sum, can underflow far outside
    # the paramagnetic regime; such a row is summed again with its exact
    # shift, from the same coefficients: the log of its terms X V Y is
    # e_uw - c + log X + log Y
    for k, i in zip(*np.nonzero(sums < _ROW_FLOOR)):
        terms = ((tu @ b_uw2[k]) @ tw.T + q_u[k][:, None] + q_w[k]
                 + (h[k, i, :ku + 1] @ aug_u)[:, None] + h[k, i, ku + 1:] @ aug_w)
        top_i = float(terms.max())
        row_log[k, i] = shift[k, i] + top_i + math.log(float(np.exp(terms - top_i).mean()))
    top = row_log.max(axis=1)
    totals = np.exp(row_log - top[:, None]).sum(axis=1)
    # the pinned spin accounts for half the cube (sigma -> -sigma is exact),
    # so 2^n = 2 rows_a rows_u rows_w and log Z is the log of the rows' mean.
    # math.log per matrix, as for one matrix alone: numpy's vector log need
    # not round the same way
    return np.array([t + math.log(s / rows_a) for t, s in zip(top.tolist(), totals.tolist())])


def _split_row_sums(
    n, h, b_uw2, q_u, q_w, huge: np.ndarray, work: list, sums: np.ndarray
) -> None:
    """The row sums ((X @ V) * Y).sum(1) of one sub-stack at size n into
    ``sums``, from its coefficient rows ``h``, 2 B_uw, q_u and q_w - c (the
    docstring of ``_log_partition_split``), through the first len(h)
    matrices of the ``work`` arrays L, R, X, V and X @ V, whose shared
    column of ones in L and augmented w table in R are already written.
    Y is written into X's memory once X @ V has read X: it has rows_w <=
    rows_u columns, so it fits.  ``huge``, a (len(h), 1, 1) mask, marks the
    matrices whose exponents are clamped at 0 (``_CLAMP_SHIFT``)."""
    tu = _block_tables(n)[1]
    aug_u, aug_w = _augmented_tables(n)
    ku = tu.shape[1]
    left, right, x, v, xv = (w[:len(h)] for w in work)
    np.matmul(tu, b_uw2, out=left[:, :, :-2])
    left[:, :, -2] = q_u
    right[:, -1] = q_w
    np.matmul(h[:, :, :ku + 1], aug_u, out=x)
    _clamped_exp(x, huge)
    np.matmul(left, right, out=v)
    _clamped_exp(v, huge)
    np.matmul(x, v, out=xv)
    y = x.reshape(-1)[:xv.size].reshape(xv.shape)
    np.matmul(h[:, :, ku + 1:], aug_w, out=y)
    _clamped_exp(y, huge)
    xv *= y
    np.sum(xv, axis=2, out=sums)


def _clamped_exp(exponents: np.ndarray, huge: np.ndarray) -> None:
    """exp of a stack of exponents in place, those of the matrices that
    ``huge`` marks first clamped at 0 (``_CLAMP_SHIFT``)."""
    if huge.any():
        np.minimum(exponents, 0.0, out=exponents, where=huge)
    np.exp(exponents, out=exponents)


def _log_partition_gray(m: np.ndarray, beta: float) -> float:
    """Gray-code traversal of a hollow M: one spin flip per step, O(n)
    field update, online log-sum-exp with a running maximum."""
    n = m.shape[0]
    sigma = np.ones(n)
    fields = m @ sigma
    energy = float(sigma @ fields)
    running_max = beta * energy
    running_sum = 1.0
    for step in range(1, 1 << n):
        i = (step & -step).bit_length() - 1
        energy -= 4.0 * sigma[i] * fields[i]
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


def log_partition_price(n: int) -> int:
    """Operations of one exact log Z at size n, in the units of the cycle
    budget: the 2^(n-1) multiply-adds of the split kernel's GEMM X @ V,
    one per state with spin 0 pinned.  Its exponentials, about
    3 * 2^(2(n-1)/3), are a smaller term from n = 8 on."""
    return 1 << (n - 1)


def exact_log_partition(a: np.ndarray, params: ModelParams, method: str = "split"):
    """log Z_n(beta) by exhaustive enumeration of the hypercube: a float for
    one matrix, an array of B values for a stack (B, n, n).

    Refuses n beyond ``ENUMERATION_MAX_N`` (``check_enumeration``) rather
    than subsampling, and, for every method, a matrix that
    ``randmat.check_matrix`` refuses.  A stack is checked and builds M
    once; the methods run on its hollow coupling (``split`` on sub-stacks,
    the oracles matrix by matrix) and beta Tr M is added to each value,
    bit for bit that of its matrix alone.
    """
    check_enumeration(params.n)
    m = interaction_matrix(check_matrix(a), params)
    stack = m if m.ndim == 3 else m[None]
    # sigma_i^2 = 1: the diagonal adds beta Tr M at every state
    constant = params.beta * np.trace(stack, axis1=1, axis2=2)
    stack = hollowed(stack)
    if method == "split":
        values = _log_partition_split(stack, params.beta)
    elif method == "gray":
        values = np.array([_log_partition_gray(mi, params.beta) for mi in stack])
    elif method == "naive":
        if params.n > 22:
            raise ValueError("the naive method materializes 2^n states; n <= 22 only")
        values = np.array([_log_partition_naive(mi, params.beta) for mi in stack])
    else:
        raise ValueError(f"unknown method {method!r}")
    values += constant
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


def decomposition_residual(params: ModelParams, m: int, log_z, cycles):
    """Residual of the signed-cycle decomposition of log Z_n, truncated at m:

        log Z + log(1 - 2 beta J)/2 - (n-1) beta^2 + beta (J - J')
        - beta C_{n,1}
        - sum_{k=2..m} [2 (2 beta)^k (C_{n,k} - (n-1) I(k=2)) - (2 beta)^(2k)] / (4k).

    ``log_z`` is log Z_n(beta) of one matrix (``exact_log_partition``) and
    ``cycles`` its C_{n,1..K} for some K >= m (the ``values`` of its
    ``cycle_series``); for a stack of B matrices, B values of log Z and a
    (B, K) array of cycles give the B residuals as an array.  Refuses m
    outside 1..K, and log Z and cycles of different matrix counts, before
    any arithmetic.
    """
    cycles = np.asarray(cycles, dtype=float)
    if cycles.ndim not in (1, 2) or np.shape(log_z) != cycles.shape[:-1]:
        raise ValueError(
            f"need one log Z and (K,) cycles, or B of each as (B,) and (B, K), got "
            f"log Z of shape {np.shape(log_z)} and cycles of shape {cycles.shape}")
    if not 1 <= m <= cycles.shape[-1]:
        raise ValueError(f"need 1 <= m <= {cycles.shape[-1]}, the cycles given, got m={m}")
    n = params.n
    beta = params.beta
    # cycles[k - 1] holds C_{n,k} of the matrix, or of every matrix
    cycles = cycles.T
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
    return residual if cycles.ndim == 2 else float(residual)


def second_moment_target(beta: float) -> float:
    """exp(-2 beta^2) / sqrt(1 - 4 beta^2) for 0 <= beta < 1/2.

    The closed form of exp(sum_{k>=2} (4 beta^2)^k / (2k)); the tests
    (acceptance criterion 9) compare it with the summed series.
    """
    if not 0 <= beta < 0.5:
        raise ValueError(f"need 0 <= beta < 1/2, got {beta}")
    return math.exp(-2.0 * beta**2) / math.sqrt(1.0 - 4.0 * beta**2)
