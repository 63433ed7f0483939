"""Exact integer combinatorics behind the cycle variances and the
Chebyshev inversion.

Everything in this module is computed with Python's arbitrary-precision
integers (rationals where a quotient appears), so results are exact.  The
quantities:

* ``catalan_weight(k)``   -- the (k/2)-th Catalan number for even k, else 0.
* ``gen_coeff(m, r)``     -- coefficient of z^m in g(z)^r where
  g(z) = (1 - sqrt(1 - 4 z^2)) / (2 z) = z + z^3 + 2 z^5 + 5 z^7 + ...
* ``chebyshev_coeffs(m)`` -- the doubled Chebyshev polynomial P_m with
  P_m(z + 1/z) = z^m + z^-m, equivalently P_m(2 cos t) = 2 cos(m t).
* ``cancellation_sum(k)`` -- sum_{r=1..k} P_2k[2r] * r * psi_2r, which
  vanishes for every k >= 2 (the even-trace cancellation identity).
* ``inverse_binomial_matrix(k)`` -- exact inverse of the odd-power binomial
  matrix; its entries are odd-degree Chebyshev coefficients.
* ``walk_moment_poly(j)`` / ``walk_moments(n, jmax)`` -- the exact finite-n
  moments E Tr (A/sqrt n)^j of the hollow Gaussian ensemble, from the
  closed-walk shapes whose edges are all traversed an even number of times.

Supported bounds are enforced up front (``OverflowError``) so that callers
never trigger runaway computations; Python integers themselves do not wrap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

GEN_COEFF_MAX_M = 60
CANCELLATION_MAX_K = 30
CATALAN_MAX_K = 2 * CANCELLATION_MAX_K
INVERSE_BINOMIAL_MAX_K = 30
# the walk shapes grow like Bell numbers: on one core j = 10 takes about
# 20 ms, j = 12 about 0.2 s and j = 14 about 3 s
WALK_MOMENT_MAX_J = 10


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; ``coeffs[i]`` is the coefficient of x^i.

    The trailing coefficient is nonzero unless the polynomial is zero.
    ``poly[i]`` returns the coefficient of x^i (0 beyond the degree).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")

    @staticmethod
    def from_list(coeffs: Sequence[int]) -> "IntPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(int(c) for c in cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative power")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class LowerTriangularIntMatrix:
    """Exact lower triangular integer matrix, stored as row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != k:
                raise ValueError("rows must all have the matrix dimension")
            if any(row[j] != 0 for j in range(i + 1, k)):
                raise ValueError("entries above the diagonal must be zero")

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def matmul(self, other: "LowerTriangularIntMatrix") -> "LowerTriangularIntMatrix":
        k = self.size
        if other.size != k:
            raise ValueError("dimension mismatch")
        rows = tuple(
            tuple(
                sum(self.rows[i][t] * other.rows[t][j] for t in range(k))
                for j in range(k)
            )
            for i in range(k)
        )
        return LowerTriangularIntMatrix(rows)

    @staticmethod
    def identity(k: int) -> "LowerTriangularIntMatrix":
        return LowerTriangularIntMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        )


def catalan_weight(k: int) -> int:
    """Return 0 for odd k and binom(k, k/2) / (k/2 + 1) for even k >= 0."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k > CATALAN_MAX_K:
        raise OverflowError(f"k={k} exceeds the supported bound {CATALAN_MAX_K}")
    if k % 2 == 1:
        return 0
    h = k // 2
    return math.comb(k, h) // (h + 1)


def _series_g(max_deg: int) -> list[int]:
    """Coefficients of g(z) = sum_j Cat_j z^(2j+1) up to degree max_deg."""
    g = [0] * (max_deg + 1)
    j = 0
    while 2 * j + 1 <= max_deg:
        g[2 * j + 1] = math.comb(2 * j, j) // (j + 1)
        j += 1
    return g


def gen_coeff(m: int, r: int) -> int:
    """Coefficient of z^m in g(z)^r, for 1 <= r <= m <= 60.

    m and r of opposite parity give 0.  Computed by truncated power-series
    multiplication; ``parity_identity_check`` compares the result with its
    closed form.
    """
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got m={m}, r={r}")
    if m > GEN_COEFF_MAX_M:
        raise OverflowError(f"m={m} exceeds the supported bound {GEN_COEFF_MAX_M}")
    if (m - r) % 2 == 1:
        return 0
    g = _series_g(m)
    prod = [0] * (m + 1)
    prod[0] = 1
    for _ in range(r):
        nxt = [0] * (m + 1)
        for a, ca in enumerate(prod):
            if ca == 0:
                continue
            for b in range(1, m - a + 1, 2):
                if g[b]:
                    nxt[a + b] += ca * g[b]
        prod = nxt
    return prod[m]


@functools.cache
def chebyshev_coeffs(m: int) -> IntPoly:
    """Doubled Chebyshev polynomial P_m via P_0=2, P_1=x, P_{m+1}=x P_m - P_{m-1}.

    Cached per m; the result is immutable, so callers share it.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m == 0:
        return IntPoly((2,))
    prev, cur = [2], [0, 1]
    for _ in range(m - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return IntPoly.from_list(cur)


def cancellation_sum(k: int) -> int:
    """Exact value of sum_{r=1..k} P_2k[2r] * r * psi_2r.

    Zero for every k >= 2; the k=1 sum is 1 (the identity only enters the
    even-trace inversion where k >= 2).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > CANCELLATION_MAX_K:
        raise OverflowError(f"k={k} exceeds the supported bound {CANCELLATION_MAX_K}")
    poly = chebyshev_coeffs(2 * k)
    return sum(poly[2 * r] * r * catalan_weight(2 * r) for r in range(1, k + 1))


def parity_identity_check(m: int, r: int) -> bool:
    """True iff gen_coeff(m, r) * m / r == binom(m, (m+r)/2), exactly."""
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got m={m}, r={r}")
    if (m - r) % 2 == 1:
        raise ValueError(f"m={m} and r={r} must have the same parity")
    lhs = Fraction(gen_coeff(m, r) * m, r)
    rhs = Fraction(math.comb(m, (m + r) // 2))
    return lhs == rhs


def _binomial_matrix(k: int) -> LowerTriangularIntMatrix:
    """Row i, column j (0-based) holds binom(2i+1, i+j+1) for j <= i.

    This is the matrix expressing odd powers in the doubled-Chebyshev
    basis: x^(2i+1) = sum_j binom(2i+1, i+j+1) P_{2j+1}(x).
    """
    rows = tuple(
        tuple(math.comb(2 * i + 1, i + j + 1) if j <= i else 0 for j in range(k))
        for i in range(k)
    )
    return LowerTriangularIntMatrix(rows)


def inverse_binomial_matrix(k: int) -> LowerTriangularIntMatrix:
    """Exact inverse D of the odd-power binomial matrix of size k.

    Verifies D * B == I and that D[i][j] equals the coefficient of
    x^(2j+1) in P_{2i+1}(x) before returning.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > INVERSE_BINOMIAL_MAX_K:
        raise OverflowError(
            f"k={k} exceeds the supported bound {INVERSE_BINOMIAL_MAX_K}"
        )
    b = _binomial_matrix(k)
    # Forward substitution; the unit diagonal keeps every entry an integer.
    inv = [[0] * k for _ in range(k)]
    for i in range(k):
        inv[i][i] = 1
        for j in range(i):
            s = sum(b.entry(i, t) * inv[t][j] for t in range(j, i))
            inv[i][j] = -s
    d = LowerTriangularIntMatrix(tuple(tuple(row) for row in inv))
    if d.matmul(b) != LowerTriangularIntMatrix.identity(k):
        raise AssertionError("inverse verification failed")
    for i in range(k):
        poly = chebyshev_coeffs(2 * i + 1)
        for j in range(k):
            expect = poly[2 * j + 1] if j <= i else 0
            if d.entry(i, j) != expect:
                raise AssertionError(
                    f"entry ({i},{j}) does not match the Chebyshev coefficient"
                )
    return d


@functools.cache
def walk_moment_poly(j: int) -> IntPoly:
    """Integer polynomial N_j with E Tr (A/sqrt n)^j = N_j(n) / n^(j/2).

    A is the hollow Gaussian ensemble: symmetric, zero diagonal, i.i.d.
    standard normal strict upper triangle.  A closed walk
    i_0 -> i_1 -> ... -> i_(j-1) -> i_0 contributes E prod A[i_t, i_(t+1)],
    which is prod (m-1)!! over its unordered edges traversed m times when
    every m is even, and 0 otherwise; odd j therefore gives the zero
    polynomial.  The walks are grouped by shape, the restricted-growth
    string that labels each vertex by the order of its first visit.  No
    step stays at a vertex (the diagonal is zero), the wrap-around step
    included, and a shape with v labels is realised by the
    (n)_v = n (n-1) ... (n-v+1) walks on distinct vertices.  A shape with
    even multiplicities has at most j/2 edges, so at most j/2 + 1 labels,
    and a partial string is dropped once its odd-multiplicity edges
    outnumber the steps left to pair them.  Each j is enumerated on first
    use and cached.
    """
    if j < 1:
        raise ValueError(f"j must be positive, got {j}")
    if j % 2 == 1:
        return IntPoly(())
    if j > WALK_MOMENT_MAX_J:
        raise OverflowError(f"j={j} exceeds the supported bound {WALK_MOMENT_MAX_J}")
    max_label = j // 2
    by_vertices = [0] * (max_label + 2)
    labels = [0] * j
    mult: dict[tuple[int, int], int] = {}

    def extend(t: int, used: int, odd: int) -> None:
        # labels[:t] are placed, ``used`` distinct labels among them, and
        # ``odd`` of their t-1 edges have odd multiplicity; step t goes to
        # labels[t], and step j wraps around to label 0
        prev = labels[t - 1]
        closing = t == j
        for lab in (0,) if closing else range(min(used, max_label) + 1):
            if lab == prev:
                continue
            edge = (min(prev, lab), max(prev, lab))
            m = mult.get(edge, 0) + 1
            mult[edge] = m
            now_odd = odd + 1 if m % 2 else odd - 1
            if closing:
                if now_odd == 0:
                    by_vertices[used] += math.prod(
                        math.prod(range(c - 1, 0, -2)) for c in mult.values()
                    )
            elif now_odd <= j - t:  # j - t steps remain, the wrap-around included
                labels[t] = lab
                extend(t + 1, max(used, lab + 1), now_odd)
            mult[edge] = m - 1

    extend(1, 1, 0)
    numerator = [0] * len(by_vertices)
    falling = [1]  # coefficients of (n)_v
    for v, weight in enumerate(by_vertices):
        for d, c in enumerate(falling):
            numerator[d] += weight * c
        falling = [a - v * b for a, b in zip([0] + falling, falling + [0])]
    return IntPoly.from_list(numerator)


def walk_moments(n: int, jmax: int) -> list[Fraction]:
    """[E Tr (A/sqrt n)^j for j = 1..jmax] of the n x n hollow Gaussian
    ensemble, exactly; see ``walk_moment_poly``."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    out = []
    for j in range(1, jmax + 1):
        poly = walk_moment_poly(j)
        value = sum(c * n**d for d, c in enumerate(poly.coeffs))
        out.append(Fraction(value, n ** (j // 2)))
    return out
