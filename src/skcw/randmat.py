"""Reproducible sampling of the Gaussian coupling matrices and trace utilities.

Matrices are plain symmetric ``numpy`` arrays.  Three ensembles:

* plain      -- i.i.d. standard normal strict upper triangle and diagonal;
* hollow     -- same upper triangle, diagonal identically zero;
* tilted     -- strict upper triangle N(2*beta*sigma_i*sigma_j/sqrt(n), 1)
  for a fixed spin vector sigma, diagonal standard normal.

Reproducibility contract: a ``SeedSpec`` (master_seed, stream_id) keys a
Philox counter-based bit generator, and entries are drawn with numpy's
ziggurat ``standard_normal`` in a pinned order (strict upper triangle
row-major first, then the diagonal).  The same SeedSpec therefore yields
bit-identical matrices regardless of scheduling or worker count, and
distinct stream_ids yield independent streams.  A SeedSpec and a
``count`` sample a stack (count, n, n) from the count consecutive streams
that start at the SeedSpec's, each matrix bit for bit the one its stream
alone gives, so how replicates are grouped into stacks moves no value.  A
stack costs one Philox and one state dict, re-keyed in place per stream,
and one gather that places every stream's draws.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@functools.cache
def openblas_function(action: str):
    """The ``action`` entry point (``set_num_threads``, ``get_num_threads``)
    of the OpenBLAS that numpy's core module links, or None without one.

    Symbol lookup through the core module's handle also searches the
    libraries it depends on; the names cover the scipy-openblas build of
    the numpy wheels, ILP64 builds and a plain system OpenBLAS.
    """
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for name in (
        f"scipy_openblas_{action}64_",
        f"openblas_{action}64_",
        f"openblas_{action}",
    ):
        fn = getattr(lib, name, None)
        if fn is not None:
            if action == "set_num_threads":
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
            else:
                fn.argtypes = []
                fn.restype = ctypes.c_int
            return fn
    return None


def set_blas_threads(count: int) -> int | None:
    """Set the OpenBLAS thread count; return the previous count, or None
    (and change nothing) when numpy does not link OpenBLAS.

    The setter is called only when the count changes.  In a forked child
    it starts OpenBLAS's thread server again even when asked for the count
    the child already has, so a forked worker that inherits one BLAS thread
    would otherwise run a second OS thread beside its own.
    """
    get_threads = openblas_function("get_num_threads")
    set_threads = openblas_function("set_num_threads")
    if get_threads is None or set_threads is None:
        return None
    before = get_threads()
    if before != count:
        set_threads(count)
    return before


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the count.

    A multi-threaded OpenBLAS product splits its output across threads,
    and at some sizes (n = 250 and 300 with 2 threads, not n = 200) the
    split changes the last bits of the result; on one thread a product
    has the same value in the main process and in a forked worker.
    """
    before = set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_blas_threads(before)


def _mix64(x: int, salt: int) -> int:
    """splitmix64 finalizer; derives well-separated 64-bit keys."""
    z = (x + salt * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream identity: (master_seed, stream_id) -> Philox key."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._key()))

    def _key(self) -> np.ndarray:
        return np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )

    def stream(self, stream_id: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, stream_id)

    def derived(self, salt: int) -> "SeedSpec":
        """Independent substream family (fresh master, stream reset to 0)."""
        return SeedSpec(_mix64(self.master_seed, salt), 0)


def sample_gaussian_matrix(
    n: int, seed: SeedSpec, hollow: bool = False, count: int | None = None
) -> np.ndarray:
    """Symmetric n x n matrix with i.i.d. standard normal upper triangle.

    ``hollow=True`` sets the diagonal to exactly zero (the matrix entering
    the spectral statistics); otherwise the diagonal is standard normal.

    With ``count=None`` one matrix (n, n) is drawn from the stream of
    ``seed``; with a ``count`` of at least 1, a stack (count, n, n) from
    the streams ``seed.stream_id``, ``seed.stream_id + 1``, ... of its
    master seed.  Each stream's normals are drawn into one row of a draw
    array, the strict upper triangle (row-major, the order of
    ``np.triu_indices``) and then the diagonal, or a zero in its place when
    hollow, and one gather through the cached ``_gather_index`` places
    every row, so every matrix of a stack is bit for bit the one its stream
    alone gives.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if count is not None and count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rows = 1 if count is None else count
    upper = n * (n - 1) // 2
    draws = np.empty((rows, upper + 1 if hollow else upper + n))
    if hollow:
        draws[:, upper] = 0.0
    # one Philox per call, re-keyed per stream by writing the key of one
    # state dict in place: constructing a Philox seeds it from OS entropy
    # first, which cost more than a whole draw at n = 12, and a fresh state
    # dict per stream cost a third of a draw.  The state is that of a fresh
    # Philox (counter zero, empty output buffer), so each stream draws what
    # its ``generator()`` draws
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bits)
    key = np.zeros(2, dtype=np.uint64)
    key[0] = seed.master_seed & _MASK64
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for stream, row in enumerate(draws, start=seed.stream_id):
        key[1] = stream & _MASK64
        bits.state = state
        rng.standard_normal(out=row[:upper] if hollow else row)
    a = np.take(draws, _gather_index(n, hollow), axis=1).reshape(rows, n, n)
    return a[0] if count is None else a


# a run samples at the few sizes of its grid; the bound keeps a long-lived
# process from holding the indices of every size it ever drew
@functools.lru_cache(maxsize=8)
def _gather_index(n: int, hollow: bool) -> np.ndarray:
    """Read-only position, in a draw row of ``sample_gaussian_matrix``, of
    each entry of the n x n matrix in row-major order, cached per size:
    entry (i, j) with i < j reads the strict upper triangle's row-major
    position (the order of ``np.triu_indices``), (j, i) the same position,
    and the diagonal reads the draws after the triangle, or the one zero
    after it when hollow.  ``np.take`` through it returns a C-contiguous
    stack in one pass, where two scatters and a diagonal write took three."""
    rows, cols = np.triu_indices(n, 1)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    diag = np.arange(n)
    index[diag, diag] = rows.size if hollow else rows.size + diag
    index = index.ravel()
    index.flags.writeable = False
    return index


def sample_tilted_matrix(
    n: int, sigma: np.ndarray, beta: float, seed: SeedSpec, count: int | None = None
) -> np.ndarray:
    """Symmetric matrix with off-diagonal means 2*beta*sigma_i*sigma_j/sqrt(n).

    The noise is drawn exactly as in ``sample_gaussian_matrix`` (shared seed
    and beta=0 reproduce it bit for bit); the mean shift is added to the
    strict upper triangle and mirrored.  The diagonal is standard normal,
    untouched by the tilt.  A ``count`` gives a stack (count, n, n) of the
    count consecutive streams from ``seed``, each matrix shifted alike.
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    sigma = check_spins(sigma)
    if sigma.size != n:
        raise ValueError(f"sigma has length {sigma.size}, expected {n}")
    a = sample_gaussian_matrix(n, seed, count=count)
    shift = (2.0 * beta / np.sqrt(n)) * np.outer(sigma, sigma)
    np.fill_diagonal(shift, 0.0)
    a += shift
    return a


# the guard of ``power_traces``: at most this many (kmax * n^3) operations
TRACE_FLOP_BUDGET = 2e10


def power_traces(m: np.ndarray, kmax: int) -> np.ndarray:
    """(Tr M, Tr M^2, ..., Tr M^kmax) from the powers M^1..M^ceil(kmax/2).

    Tr M^k = <M^(k//2), (M^(k - k//2))^T>, so kmax = 5 takes two matrix
    products instead of four; the transpose keeps this exact for a
    non-symmetric M.  Each power is one general product M^(j-1) @ M on one
    BLAS thread, so the traces are the same in every process.

    The test reference for the walk traces of ``cycles.cycle_series``, so
    it shares none of the code of their Gram products; it keeps its own
    guard, ``TRACE_FLOP_BUDGET`` on about kmax * n^3.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if kmax < 1:
        raise ValueError(f"kmax must be positive, got {kmax}")
    flops = kmax * m.shape[0] ** 3
    if flops > TRACE_FLOP_BUDGET:
        raise ValueError(
            f"kmax*n^3 = {flops:.3g} exceeds the flop budget {TRACE_FLOP_BUDGET:g}"
        )
    powers = [m]
    with one_blas_thread():
        while len(powers) < (kmax + 1) // 2:
            powers.append(powers[-1] @ m)
    traces = np.empty(kmax)
    traces[0] = np.trace(m)
    for k in range(2, kmax + 1):
        traces[k - 1] = np.sum(powers[k // 2 - 1] * powers[(k + 1) // 2 - 1].T)
    return traces


def hollowed(a: np.ndarray) -> np.ndarray:
    """Copy of a, one matrix or a stack (..., n, n), with the diagonal set
    to zero."""
    out = np.array(a, dtype=float, copy=True)
    diag = np.arange(out.shape[-1])
    out[..., diag, diag] = 0.0
    return out


def gauge_conjugate(a: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """diag(sigma) @ a @ diag(sigma); leaves traces, cycles and Z invariant."""
    sigma = check_spins(sigma)
    return sigma[:, None] * a * sigma[None, :]


def check_spins(sigma) -> np.ndarray:
    """Validate and return a float spin vector with entries exactly +-1."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1:
        raise ValueError("spin vector must be one-dimensional")
    if not np.all(np.abs(sigma) == 1.0):
        raise ValueError("spin entries must be exactly -1 or +1")
    return sigma


def check_matrix(a) -> np.ndarray:
    """Validate and return a float matrix (n, n), or stack (B, n, n), that
    is square, finite and exactly symmetric: the one matrix check of exact
    log Z, the cycle series and the text format, made before any product."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if not (a == a.swapaxes(-1, -2)).all():
        raise ValueError("matrix must be exactly symmetric")
    return a


def all_ones_spins(n: int) -> np.ndarray:
    return np.ones(n)


def alternating_spins(n: int) -> np.ndarray:
    s = np.ones(n)
    s[1::2] = -1.0
    return s


def random_spins(n: int, seed: SeedSpec) -> np.ndarray:
    rng = seed.generator()
    return 1.0 - 2.0 * rng.integers(0, 2, size=n).astype(float)


def save_matrix_text(a: np.ndarray, path) -> None:
    """Write one matrix that ``check_matrix`` admits in the plain-text
    exchange format.

    Line 1 is the dimension n; line 1+i (1-based i <= n) holds the entries
    A[i-1, i-1:] (diagonal first, then the rest of row i-1's upper triangle)
    separated by single spaces, printed with repr precision so the file
    round-trips bit for bit.
    """
    a = check_matrix(a)
    if a.ndim != 2:
        raise ValueError("one matrix per file, not a stack")
    n = len(a)
    lines = [str(n)]
    for i in range(n):
        lines.append(" ".join(repr(float(x)) for x in a[i, i:]))
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_matrix_text(path) -> np.ndarray:
    """Inverse of ``save_matrix_text``: a ValueError for text that is no
    matrix ``check_matrix`` admits, an empty file included."""
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} data rows, found {len(lines) - 1}")
    a = np.zeros((n, n))
    for i in range(n):
        row = [float(tok) for tok in lines[i + 1].split()]
        if len(row) != n - i:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n - i}")
        a[i, i:] = row
        a[i:, i] = row
    return check_matrix(a)
