"""The benchmark tracer wraps skcw functions by name; every name must exist."""

import importlib.util
import inspect
import sys
from pathlib import Path

import skcw.cli  # noqa: F401  (loads every skcw module the tracer patches)
from skcw import experiments

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves():
    """Resolve each ``perfbench/tracing.TARGETS`` entry as ``install`` does,
    without installing anything, so a rename fails here and not only in
    the benchmark's "missing targets" line."""
    spec = importlib.util.spec_from_file_location("_skcw_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, mod_name, path in tracing.TARGETS:
        owner_name, _, attr = path.rpartition(".")
        mod = sys.modules.get(mod_name)
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or inspect.getattr_static(owner, attr, None) is None:
            missing.append(f"{mod_name}.{path}")
    assert missing == []


def test_every_kind_has_the_driver_names_the_tracer_finds():
    """The tracer finds the driver layer by name, ``run_*`` and ``*_worker``,
    and reports nothing when a kind's function goes by another name."""
    for kind in experiments.KINDS:
        assert callable(getattr(experiments, f"run_{kind}", None)), kind
        assert callable(getattr(experiments, f"_{kind}_worker", None)), kind
