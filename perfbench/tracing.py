"""Spans around calls into the skcw layers, and the per-layer metrics built from them.

The child runner calls ``install`` after importing ``skcw.cli`` and before
``cli.main``.  Every target below is replaced at *every* name it is bound
under in the loaded ``skcw.*`` modules, because the modules import
functions by name (``from .cycles import cycle_series``), so patching only
the defining module would miss most calls.  Targets that no longer exist
are skipped and listed; their time then shows up as the unaccounted share.

Spans stay in memory as ``[layer, start, end, parent, replicate, n, k]``
rows and are written once, when the run ends.  ``replicate`` is the
stream id of the replicate being computed (the last element of the task
tuple a ``*_worker`` function receives), or -1 outside any replicate.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

SPAN_FIELDS = ("layer", "start", "end", "parent", "replicate", "n", "k")

_STATS = (
    "ks_test", "kolmogorov_sf", "empirical_wasserstein", "SampleSummary.from_samples",
    "_check_abs", "_check_rel_band", "_check_pvalue", "_trend_check_mean_error",
    "_trend_check_decreasing", "_cycle_statistics_checks",
)

# (layer, defining module, attribute path)
TARGETS = (
    ("gibbs.log_partition", "skcw.gibbs", "exact_log_partition"),
    ("gibbs.decomposition_residual", "skcw.gibbs", "decomposition_residual"),
    ("cycles.cycle_series", "skcw.cycles", "cycle_series"),
    ("cycles.lss_centering", "skcw.cycles", "lss_centering"),
    ("cycles.chebyshev_lss", "skcw.cycles", "chebyshev_lss"),
    ("randmat.sample", "skcw.randmat", "sample_gaussian_matrix"),
    ("randmat.sample", "skcw.randmat", "sample_tilted_matrix"),
    ("randmat.power_traces", "skcw.randmat", "power_traces"),
    ("combinat.chebyshev_coeffs", "skcw.combinat", "chebyshev_coeffs"),
    *(("experiments.stats", "skcw.experiments", name) for name in _STATS),
    ("cli", "skcw.cli", "build_parser"),
    ("cli", "skcw.cli", "_Parser.parse_args"),
    ("cli", "skcw.cli", "_make_config"),
    ("cli", "skcw.cli", "_report_exit"),
)
# run_* functions and their per-replicate *_worker functions are found by name
DRIVER_LAYER = "experiments.driver"


def _size_of(layer, args, kwargs):
    """(n, k) recorded on a span, where the layer has them."""
    try:
        if layer == "gibbs.log_partition":
            params = args[1] if len(args) > 1 else kwargs["params"]
            return params.n, 0
        if layer in ("cycles.cycle_series", "randmat.power_traces"):
            k = args[1] if len(args) > 1 else kwargs["kmax"]
            return len(args[0]), int(k)
    except (IndexError, KeyError, AttributeError, TypeError):
        pass
    return 0, 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.bindings: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._replicate = -1

    def wrap(self, layer, fn, worker=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n, k = _size_of(layer, args, kwargs)
            outer = self._replicate
            if worker and args and isinstance(args[0], tuple):
                self._replicate = int(args[0][-1])
            row = [layer, 0.0, 0.0, stack[-1] if stack else -1, self._replicate, n, k]
            stack.append(len(spans))
            spans.append(row)
            row[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()
                self._replicate = outer

        return traced

    def _rebind(self, orig, wrapped, label):
        """Replace ``orig`` at every module-level name bound to it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "skcw" or mod_name.startswith("skcw.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self.bindings.append(f"{mod_name}.{attr} -> {label}")

    def install(self) -> None:
        for layer, mod_name, path in TARGETS:
            mod = sys.modules.get(mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            if owner_name:
                # class attribute: patch the class itself
                static = isinstance(raw, staticmethod)
                wrapped = self.wrap(layer, raw.__func__ if static else raw)
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
                self.bindings.append(f"{mod_name}.{path} -> {layer}")
            else:
                self._rebind(raw, self.wrap(layer, raw), layer)
        experiments = sys.modules.get("skcw.experiments")
        for attr, value in list(vars(experiments).items() if experiments else ()):
            if callable(value) and (attr.startswith("run_") or attr.endswith("_worker")):
                wrapped = self.wrap(DRIVER_LAYER, value, worker=attr.endswith("_worker"))
                self._rebind(value, wrapped, DRIVER_LAYER)


# ---------------------------------------------------------------------------
# per-layer metrics (parent side)

LOGZ_SIZES = (12, 16, 20, 24)
CYCLE_SIZES = ((50, 5), (100, 5), (200, 5), (12, 4), (16, 4), (20, 4))
SELF_LAYERS = (
    "gibbs.log_partition", "gibbs.decomposition_residual", "cycles.cycle_series",
    "cycles.lss_centering", "cycles.chebyshev_lss", "randmat.sample",
    "randmat.power_traces", "combinat.chebyshev_coeffs", "experiments.stats",
    DRIVER_LAYER, "cli",
)
CALL_LAYERS = (
    "gibbs.log_partition", "cycles.cycle_series", "cycles.chebyshev_lss",
    "randmat.sample", "randmat.power_traces", "combinat.chebyshev_coeffs",
)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [row[2] - row[1] for row in spans]
    for row in spans:
        if row[3] >= 0:
            own[row[3]] -= row[2] - row[1]
    return own


def iteration_layers(spans) -> dict:
    """Per-layer counts and self times of one traced iteration."""
    own = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in SELF_LAYERS}
    out.update({f"{layer}.calls": 0 for layer in CALL_LAYERS})
    out["gibbs.log_partition.states"] = 0
    out["randmat.power_traces.gflop"] = 0.0
    out["cycles.lss_centering.matrices"] = 0
    layer_of = [row[0] for row in spans]
    for i, (layer, _, _, parent, _, n, k) in enumerate(spans):
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own[i]
        if layer in CALL_LAYERS:
            out[f"{layer}.calls"] += 1
        if layer == "gibbs.log_partition" and n > 1:
            out["gibbs.log_partition.states"] += 1 << (n - 1)
        elif layer == "randmat.power_traces":
            out["randmat.power_traces.gflop"] += 2.0 * n**3 * max(k - 1, 0) / 1e9
        elif layer == "randmat.sample" and parent >= 0:
            if layer_of[parent] == "cycles.lss_centering":
                out["cycles.lss_centering.matrices"] += 1
    out["_accounted_s"] = sum(own)
    return out


def _percentile(xs, q):
    if not xs:
        return 0.0
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(traced, untraced_walls, serial_config: bool) -> tuple[dict, dict]:
    """Per-layer metrics over the traced iterations of one run.

    ``traced`` is a list of (spans, wall_s, report_bytes).  Counts and self
    times are medians over iterations; per-size latencies pool every call.
    Returns (metrics, diagnostics).
    """
    per_iter = [iteration_layers(spans) for spans, _, _ in traced]
    keys = [k for k in per_iter[0] if not k.startswith("_")]
    metrics = {k: statistics.median(it[k] for it in per_iter) for k in keys}
    logz: dict[int, list[float]] = {}
    cyc: dict[tuple[int, int], list[float]] = {}
    for spans, _, _ in traced:
        for layer, start, end, _, _, n, k in spans:
            if layer == "gibbs.log_partition":
                logz.setdefault(n, []).append(1e3 * (end - start))
            elif layer == "cycles.cycle_series":
                cyc.setdefault((n, k), []).append(1e3 * (end - start))
    for n in LOGZ_SIZES:
        metrics[f"gibbs.log_partition.n{n}.p50_ms"] = _percentile(logz.get(n, []), 0.5)
        metrics[f"gibbs.log_partition.n{n}.p90_ms"] = _percentile(logz.get(n, []), 0.9)
    for n, k in CYCLE_SIZES:
        metrics[f"cycles.cycle_series.n{n}_k{k}.p50_ms"] = _percentile(cyc.get((n, k), []), 0.5)
    traced_wall = statistics.median(wall for _, wall, _ in traced)
    untraced_wall = statistics.median(untraced_walls)
    accounted = statistics.median(it["_accounted_s"] for it in per_iter)
    metrics["cli.report_bytes"] = statistics.median(b for _, _, b in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unaccounted_share"] = max(traced_wall - accounted, 0.0) / traced_wall
    # the untraced run is like-for-like only when it is single-process too
    ratio = traced_wall / untraced_wall
    metrics["experiments.parallel_speedup"] = 0.0 if serial_config else ratio
    metrics["trace.overhead_share"] = ratio - 1.0 if serial_config else 0.0
    diagnostics = {"traced_wall_s": traced_wall, "accounted_s": accounted,
                   "untraced_wall_s": untraced_wall}
    return metrics, diagnostics
