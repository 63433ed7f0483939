"""Front end: dispatch, exit codes, report round trips, determinism."""

import json

import numpy as np
import pytest

from skcw import experiments
from skcw.cli import EXIT_OK, EXIT_USAGE, EXIT_VERDICT, main
from skcw.gibbs import ModelParams
from skcw.randmat import load_matrix_text


def run(argv):
    return main(argv)


@pytest.fixture
def no_compute(monkeypatch):
    """Fail the test if any replicate or centering is computed."""

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the command line was rejected")

    monkeypatch.setattr(experiments, "_map_replicates", refuse)
    monkeypatch.setattr(experiments, "exact_centering", refuse)


def test_identities_exits_zero(tmp_path):
    out = tmp_path / "ident.json"
    assert run(["identities", "--max-k", "30", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["schema_version"] == 1


def test_clt_small_run_and_report_round_trip(tmp_path, capsys):
    out = tmp_path / "clt.json"
    argv = [
        "clt", "--n", "10", "--beta", "0.25", "--J", "1", "--Jprime", "0",
        "--reps", "80", "--seed", "42", "--out", str(out),
    ]
    assert run(argv) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["kind"] == "clt"
    assert data["config"]["master_seed"] == 42
    assert {t["name"] for t in data["targets"]} == {"limit", "mean", "variance"}
    assert run(["report", "--in", str(out)]) == EXIT_OK
    assert "PASS clt_mean" in capsys.readouterr().out


def test_seed_determines_bytes_modulo_timestamp(tmp_path):
    args = [
        "clt", "--n", "8", "--beta", "0.2", "--J", "0.5",
        "--reps", "40", "--seed", "9",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("generated_at"), db.pop("generated_at")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_regime_violation_exits_one(capsys):
    code = run(["clt", "--n", "8", "--beta", "0.6", "--J", "1", "--reps", "20"])
    assert code == EXIT_USAGE
    assert "paramagnetic" in capsys.readouterr().err


def test_unknown_flag_exits_one():
    assert run(["clt", "--n", "8", "--beta", "0.2", "--bogus"]) == EXIT_USAGE


def test_missing_required_flag_exits_one():
    assert run(["clt", "--beta", "0.2"]) == EXIT_USAGE


def test_unknown_subcommand_exits_one():
    assert run(["frobnicate"]) == EXIT_USAGE


def test_enumeration_bound_exits_one(capsys):
    code = run(["clt", "--n", "30", "--beta", "0.2", "--J", "0.5", "--reps", "2"])
    assert code == EXIT_USAGE
    assert "enumeration bound" in capsys.readouterr().err


def test_sample_round_trip(tmp_path):
    out = tmp_path / "m.txt"
    assert run(["sample", "--n", "6", "--seed", "3", "--hollow", "--out", str(out)]) == EXIT_OK
    a = load_matrix_text(out)
    assert a.shape == (6, 6)
    assert np.all(np.diag(a) == 0.0)
    assert np.array_equal(a, a.T)


def test_free_energy_payload(tmp_path):
    out = tmp_path / "fe.json"
    argv = ["free-energy", "--n", "10", "--beta", "0.25", "--J", "1",
            "--seed", "4", "--out", str(out)]
    assert run(argv) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["free_energy"] == pytest.approx(data["log_partition"] / 10)
    assert data["n_fluct"] == pytest.approx(data["log_partition"] - 10 * 0.25**2)
    assert data["targets"]["mean"] == pytest.approx(0.0246531, abs=1e-6)


def test_cycles_subcommand_small(tmp_path):
    out = tmp_path / "cyc.json"
    argv = ["cycles", "--n", "30", "--reps", "40", "--seed", "2",
            "--kmax", "3", "--out", str(out)]
    code = run(argv)
    assert code in (EXIT_OK, EXIT_VERDICT)  # bands are calibrated for n=150
    data = json.loads(out.read_text())
    assert data["kind"] == "cycles"
    assert "cycle_3" in data["results"][0]["summaries"]


def test_csv_raw_samples(tmp_path):
    out = tmp_path / "r.json"
    argv = ["decomposition", "--n", "10", "--beta", "0.25", "--J", "0.5",
            "--reps", "25", "--seed", "6", "--m", "3",
            "--out", str(out), "--format", "csv", "--raw-samples"]
    assert run(argv) == EXIT_OK
    csv_path = tmp_path / "r.json.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,replicate,n_fluct,residual"
    assert len(lines) == 1 + 25


def test_tilted_subcommand(tmp_path):
    out = tmp_path / "t.json"
    argv = ["tilted", "--n", "40", "--beta", "0.4", "--reps", "150", "--seed", "8",
            "--kmax", "2", "--sigma", "alternating", "--out", str(out)]
    code = run(argv)
    assert code in (EXIT_OK, EXIT_VERDICT)
    data = json.loads(out.read_text())
    assert data["kind"] == "tilted"


def test_report_on_failing_verdicts_exits_two(tmp_path):
    out = tmp_path / "cyc.json"
    # tiny run; the 10% variance bands are calibrated for n=150 and will
    # typically fail here, exercising the verdict exit code
    argv = ["cycles", "--n", "20", "--reps", "25", "--seed", "1",
            "--kmax", "4", "--out", str(out)]
    code = run(argv)
    data = json.loads(out.read_text())
    assert (code == EXIT_OK) == data["passed"]
    assert run(["report", "--in", str(out)]) == code


@pytest.mark.parametrize(
    "argv, message",
    [
        (["clt", "--n", "10", "--beta", "0.2", "--J", "0.5", "--n-grid", "29"],
         "enumeration bound"),
        (["clt", "--n", "10", "--beta", "0.2", "--n-grid", "0,10"], "positive"),
        (["decomposition", "--n", "12", "--beta", "0.2", "--J", "0.5",
          "--n-grid", "12,30"], "enumeration bound"),
        (["cycles", "--n", "10", "--kmax", "4", "--n-grid", "3,10"], "kmax=4"),
        (["tilted", "--n", "10", "--beta", "0.2", "--kmax", "3", "--n-grid", "2,10"],
         "kmax=3"),
        (["approx", "--n", "10", "--kmax", "4", "--n-grid", "3,10"], "kmax=4"),
        (["approx", "--n", "10", "--kmax", "2"], "kmax"),
        (["decomposition", "--n", "10", "--beta", "0.2", "--m", "4",
          "--n-grid", "3,10"], "m=4"),
        (["cycles", "--n", "40", "--kmax", "6", "--n-grid", "8,40"],
         "operation budget"),
        (["cycles", "--n", "30", "--kmax", "4", "--n-grid", "10,30", "--budget", "1e4"],
         "operation budget"),
        (["approx", "--n", "20", "--kmax", "4", "--n-grid", "10,20",
          "--centering-reps", "-5"], "centering replicate"),
        (["approx", "--n", "1600", "--kmax", "5", "--n-grid", "10,1600"],
         "operation budget"),
        (["clt", "--n", "10", "--beta", "0.2", "--threads", "0"], "at least 1 thread"),
        (["cycles", "--n", "10", "--kmax", "3", "--threads", "-1"], "at least 1 thread"),
        (["approx", "--n", "12", "--kmax", "12", "--budget", "1e14"],
         "exact-moment bound"),
        # 100 per depth-first term: minutes and seconds per replicate
        (["cycles", "--n", "30", "--kmax", "6"], "operation budget"),
        (["approx", "--n", "12", "--kmax", "7"], "operation budget"),
    ],
)
def test_whole_grid_validated_before_any_compute(no_compute, capsys, argv, message):
    assert run(argv + ["--reps", "5"]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_raised_budget_admits_large_approx_grids():
    """The operation budget is the only guard: raised, it admits a traced
    approx grid that a hidden trace budget used to refuse."""
    config = experiments.ExperimentConfig(
        kind="approx", params=ModelParams(beta=0.0, n=1600),
        replicates=5, master_seed=1, n_grid=(10, 1600), kmax=5, cycle_budget=1e11,
    )
    assert config.sizes == (10, 1600)


def test_report_rejects_what_is_not_a_report(tmp_path, capsys):
    """One error line and exit 1, not a traceback."""
    fe = tmp_path / "fe.json"
    assert run(["free-energy", "--n", "8", "--beta", "0.2", "--out", str(fe)]) == EXIT_OK
    bare = tmp_path / "bare.json"
    bare.write_text('{"schema_version": 1}')
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for path, message in ((fe, "kind 'free-energy'"), (bare, "kind None"),
                          (listed, "AttributeError")):
        capsys.readouterr()
        assert run(["report", "--in", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


@pytest.mark.parametrize("sigma", ["ones", "alternating", "random"])
def test_tilted_grid_builds_spins_per_size(tmp_path, sigma):
    out = tmp_path / "t.json"
    argv = ["tilted", "--n", "20", "--beta", "0.2", "--n-grid", "10,20",
            "--reps", "20", "--kmax", "3", "--sigma", sigma, "--out", str(out)]
    assert run(argv) in (EXIT_OK, EXIT_VERDICT)
    assert [r["n"] for r in json.loads(out.read_text())["results"]] == [10, 20]


def test_csv_without_out_is_usage_error(no_compute, capsys):
    argv = ["cycles", "--n", "12", "--reps", "20", "--kmax", "3", "--format", "csv"]
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err
