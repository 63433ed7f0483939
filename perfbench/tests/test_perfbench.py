"""Tests of the benchmark itself: tiny smoke runs, metric names, the gate.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "clt_grid": {"n": "8", "n-grid": "6,8", "reps": "20"},
    "approx_grid": {"n": "16", "n-grid": "10,16", "reps": "20", "centering-reps": "20"},
    "decomp_serial": {"n": "10", "n-grid": "8,10", "reps": "20"},
}


def tiny(name):
    workload = run.WORKLOADS[name]
    flags = dict(workload.flags)
    flags.update(TINY[name])
    return replace(workload, flags=tuple(flags.items()))


def tiny_values(workload, seed=run.DEFAULT_SEED):
    """Comparable raw values of one tiny run."""
    run.RUN_DIR.mkdir(exist_ok=True)
    tmp = run.RUN_DIR / f"test-{workload.name}"
    tmp.mkdir(exist_ok=True)
    out = tmp / "report.json"
    result = run.run_child(workload.argv(seed, str(out)), False, tmp, 60.0)
    values = run.load_values(workload, result, out)
    shutil.rmtree(tmp)
    assert values is not None, result
    return values


def printed_result(capsys, workload, trace, result):
    run.print_result(workload, run.DEFAULT_SEED, trace, result)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(name, capsys):
    workload = tiny(name)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(workload, run.DEFAULT_SEED, 0.0, trace)
        line = printed_result(capsys, workload, trace, result)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["metrics"]["trace.unaccounted_share"]["value"] < 0.5


@pytest.mark.parametrize("name, key", [("clt_grid", "n_fluct"), ("approx_grid", "residual_4"),
                                       ("decomp_serial", "residual")])
def test_perturbed_reference_fails_replicates(name, key, capsys):
    workload = tiny(name)
    values = tiny_values(workload)
    n = workload.sizes[-1]
    reference = {k: v.copy() for k, v in values.items()}
    assert gate.mismatched(values, reference) == set()
    reference[(n, key)][3] *= 1.0 + 1e-6
    assert gate.mismatched(values, reference) == {(n, 3)}
    result = run.measure(workload, run.DEFAULT_SEED, 0.0, False, reference=reference)
    line = printed_result(capsys, workload, False, result)
    assert line["failed"] > 0 and not line["correct"]


def test_even_k_residuals_are_compared_after_centering():
    raw = {"10": {"residual_3": [0.0, 0.0], "residual_4": [1.0, 2.0]}}
    shifted = {"10": {"residual_3": [0.0, 0.0], "residual_4": [1.5, 2.5]}}
    want = gate.comparable("approx", raw)
    assert gate.mismatched(gate.comparable("approx", shifted), want) == set()
    shifted["10"]["residual_3"][1] = 0.5
    assert gate.mismatched(gate.comparable("approx", shifted), want) == {(10, 1)}


@pytest.mark.parametrize("name", sorted(TINY))
def test_oracle_spot_checks_catch_a_wrong_value(name):
    workload = tiny(name)
    values = tiny_values(workload, seed=7)
    oracle = gate.oracle_values(workload.command, dict(workload.flags), 7,
                                workload.sizes, workload.reps)
    assert oracle and gate.mismatched(values, oracle) == set()
    (n, key), rows = next(iter(oracle.items()))
    values[(n, key)] = values[(n, key)] + np.where(np.arange(workload.reps) == min(rows), 1e-6, 0.0)
    assert gate.mismatched(values, oracle) == {(n, min(rows))}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "clt_grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
