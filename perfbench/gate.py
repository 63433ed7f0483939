"""Replicate-level correctness gate behind ``failed_fraction``.

A replicate is one (size n, replicate r) row of a report's raw samples.
It fails when any of its values differs from the expected value by more
than ``REL_TOL`` relative (with an absolute floor of ``REL_TOL`` for
values below 1 in magnitude: the k=3 approximation residuals are zero up
to rounding).  Expected values come from three sources:

* the stored reference of the workload, for the default seed only;
* the first iteration of the same run (iterations repeat one seed, and
  the traced single-worker iteration must agree with the timed one);
* oracle spot checks for any seed, on a few replicates per size whose
  matrices are regenerated through the stream contract
  ``SeedSpec(master, s * 2**32 + r)``: the Gray-code ``log Z`` at
  n <= 16 and the DFS cycle sums where n^k is small.

Even-k ``approx`` residuals are compared after subtracting their per-size
sample mean, so replacing the Monte Carlo centering by an exact one is not
a failure while any other change of value still is.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
GRAY_MAX_N = 16
DFS_MAX_TERMS = 2e5
_STREAM_BLOCK = 1 << 32


def comparable(kind: str, raw: dict) -> dict:
    """{(n, key): array} from a report's raw samples, ready to compare."""
    out = {}
    for n_str, per_n in raw.items():
        n = int(n_str)
        for key, vals in per_n.items():
            arr = np.asarray(vals, dtype=float)
            if kind == "approx" and key.startswith("residual_") and int(key[9:]) % 2 == 0:
                arr = arr - arr.mean()
            out[(n, key)] = arr
        if kind == "decomposition" and {"residual", "n_fluct"} <= set(per_n):
            out[(n, "residual_minus_n_fluct")] = out[(n, "residual")] - out[(n, "n_fluct")]
    return out


def _close(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) <= REL_TOL * np.maximum(1.0, np.abs(want))


def mismatched(got: dict, want: dict) -> set:
    """Replicates (n, r) whose values in ``got`` disagree with ``want``.

    ``want`` maps (n, key) to either a full array or a {r: value} dict of
    spot values.
    """
    bad = set()
    for (n, key), expected in want.items():
        values = got.get((n, key))
        if isinstance(expected, dict):
            rows = list(expected)
            if values is None or max(rows) >= len(values):
                bad |= {(n, r) for r in rows}
                continue
            ok = _close(values[rows], [expected[r] for r in rows])
        else:
            rows = list(range(len(expected)))
            if values is None or len(values) != len(expected):
                bad |= {(n, r) for r in rows}
                continue
            ok = _close(values, expected)
        bad |= {(n, r) for r, good in zip(rows, ok) if not good}
    return bad


def _spot_rows(reps: int) -> list[int]:
    return sorted({0, reps // 2, reps - 1})


def _lss_oracle(a_hollow: np.ndarray, k: int) -> float:
    """Tr P_k(A/sqrt n) from the eigenvalues: P_k(x) = 2 T_k(x/2)."""
    lam = np.linalg.eigvalsh(a_hollow / math.sqrt(a_hollow.shape[0]))
    return float(2.0 * np.polynomial.chebyshev.chebval(lam / 2.0, [0] * k + [1]).sum())


def oracle_values(kind: str, flags: dict, seed: int, sizes, reps: int) -> dict:
    """Spot values {(n, key): {r: value}} from the repo's test oracles."""
    from skcw.cycles import signed_cycle_bruteforce
    from skcw.gibbs import ModelParams, exact_log_partition
    from skcw.randmat import SeedSpec, sample_gaussian_matrix

    beta = float(flags.get("beta", 0.0))
    j = float(flags.get("J", 0.0))
    jp = float(flags.get("Jprime", 0.0))
    out: dict = {}
    for s, n in enumerate(sizes):
        for r in _spot_rows(reps):
            stream = SeedSpec(seed, s * _STREAM_BLOCK + r)
            if kind == "clt" and n <= GRAY_MAX_N:
                a = sample_gaussian_matrix(n, stream)
                log_z = exact_log_partition(a, ModelParams(beta, j, jp, n), method="gray")
                out.setdefault((n, "n_fluct"), {})[r] = log_z - n * beta**2
            elif kind == "approx":
                a = sample_gaussian_matrix(n, stream, hollow=True)
                for k in range(3, int(flags["kmax"]) + 1, 2):
                    if float(n) ** k <= DFS_MAX_TERMS:
                        cyc = signed_cycle_bruteforce(a, k, method="dfs")
                        out.setdefault((n, f"residual_{k}"), {})[r] = cyc - _lss_oracle(a, k)
            elif kind == "decomposition" and float(n) ** int(flags["m"]) <= DFS_MAX_TERMS:
                a = sample_gaussian_matrix(n, stream)
                # residual - n_fluct depends on the cycles only, not on log Z
                part = (n * beta**2 + 0.5 * math.log1p(-2.0 * beta * j)
                        - (n - 1) * beta**2 + beta * (j - jp)
                        - beta * float(np.trace(a)) / math.sqrt(n))
                for k in range(2, int(flags["m"]) + 1):
                    mu = (2.0 * beta) ** k
                    cyc = signed_cycle_bruteforce(a, k, method="dfs") - (n - 1) * (k == 2)
                    part -= (2.0 * mu * cyc - mu**2) / (4.0 * k)
                out.setdefault((n, "residual_minus_n_fluct"), {})[r] = part
                if n <= GRAY_MAX_N:
                    log_z = exact_log_partition(a, ModelParams(beta, j, jp, n), method="gray")
                    out.setdefault((n, "n_fluct"), {})[r] = log_z - n * beta**2
    return out
