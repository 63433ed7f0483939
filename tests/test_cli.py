"""Front end: dispatch, exit codes, report round trips, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skcw import combinat, experiments, gibbs, randmat
from skcw.cli import EXIT_OK, EXIT_USAGE, EXIT_VERDICT, build_parser, main
from skcw.gibbs import ModelParams
from skcw.randmat import load_matrix_text


def run(argv):
    return main(argv)


def refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.fixture
def no_compute(monkeypatch):
    """Fail the test if any replicate, centering or free-energy log Z is computed."""

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the command line was rejected")

    monkeypatch.setattr(experiments, "_stacks", refuse)
    monkeypatch.setattr(experiments, "exact_centering", refuse)
    monkeypatch.setattr(gibbs, "exact_log_partition", refuse)


def test_identities_exits_zero(tmp_path):
    out = tmp_path / "ident.json"
    assert run(["identities", "--max-k", "30", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text(), parse_constant=refuse_constant)
    assert data["passed"] is True
    assert data["schema_version"] == 1


def test_a_false_identity_is_a_failed_check_not_a_crash(tmp_path, monkeypatch):
    """The kernels do not check themselves: the suite reports the fault."""
    series_g = combinat._series_g

    def off_by_one(max_deg):
        g = series_g(max_deg)
        if max_deg >= 7:
            g[7] += 1  # the z^7 coefficient of g is Catalan(3) = 5
        return g

    monkeypatch.setattr(combinat, "_series_g", off_by_one)
    report = experiments.run_identities()
    assert not report.passed
    assert {c.name for c in report.checks if not c.passed} == {"parity_identity"}
    out = tmp_path / "ident.json"
    assert run(["identities", "--out", str(out)]) == EXIT_VERDICT
    data = json.loads(out.read_text(), parse_constant=refuse_constant)
    assert data["passed"] is False


@pytest.mark.parametrize("max_k", ["-5", "1", "31"])
def test_identities_refuses_max_k_outside_the_cancellation_range(max_k, monkeypatch, capsys):
    """A range with no k to check is a usage error, not a vacuous pass."""

    def refuse(*args):
        raise AssertionError("computed before max_k was refused")

    monkeypatch.setattr(combinat, "cancellation_sum", refuse)
    monkeypatch.setattr(combinat, "parity_identity_check", refuse)
    assert run(["identities", "--max-k", max_k]) == EXIT_USAGE
    assert "need 2 <= max_k <= 30" in capsys.readouterr().err


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_help_shows_each_flags_real_default(capsys, kind):
    assert run([kind, "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: None)" not in text
    if "cycle_budget" in experiments.KIND_TABLE[kind].fields:
        assert "(default: 1000000000.0)" in text


HELP_TEXT = Path(__file__).resolve().parent / "data" / "help_text.json"


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse lays help out differently from Python 3.13 on")
@pytest.mark.parametrize("command", ["skcw", *experiments.KINDS])
def test_help_text_is_the_stored_text(monkeypatch, capsys, command):
    """``skcw --help`` and each experiment subcommand's ``--help`` print the
    stored text, at an 80-column terminal."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "skcw" else [command, "--help"]
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == json.loads(HELP_TEXT.read_text())[command]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, beta", [(2, 0.4), (12, 0.4), (28, 0.4), (12, 3.0)])
@pytest.mark.parametrize("name, sign", [("J", 1.0), ("J", -1.0), ("Jprime", 1.0),
                                        ("Jprime", -1.0)])
def test_free_energy_runs_to_its_energy_scale_bound_and_refuses_beyond(
        request, capsys, n, beta, name, sign):
    """A coupling of either sign whose energy scale beta (|J| (n-1) + |J'|)
    is just within 1e307 gives a finite log Z without a numpy warning; one
    just beyond is refused in one error line before log Z is enumerated."""
    per_unit = beta * (n - 1 if name == "J" else 1)
    inside = ["free-energy", "--n", str(n), "--beta", str(beta), f"--{name}",
              repr(sign * 0.99e307 / per_unit)]
    assert run(inside) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert math.isfinite(json.loads(out, parse_constant=refuse_constant)["log_partition"])
    request.getfixturevalue("no_compute")
    assert run(inside[:-1] + [repr(sign * 1.01e307 / per_unit)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: free-energy needs beta (|J| (n-1) + |J'|)")


@pytest.mark.parametrize("n", [2, 3, 12])
@pytest.mark.parametrize("J_part", [0.0, 2e305, -2e305])
def test_free_energy_runs_to_its_n_fluct_bound_and_refuses_beyond(
        request, capsys, n, J_part):
    """With n beta^2 = 1.75e308, a J' < 0 that puts n beta^2 - log Z just
    within 1.8e308 gives a finite n_fluct without a numpy warning; one just
    beyond is refused in one error line before log Z is enumerated.  log Z
    is at most beta (J' + the largest J part of H), ``J_part`` here: J (n-1)
    with J > 0, -J (n - n % 2) / n with J < 0."""
    beta = math.sqrt(1.75e308 / n)
    J = J_part / beta / (n - 1 if J_part >= 0 else (n - n % 2) / n)
    argv = ["free-energy", "--n", str(n), "--beta", repr(beta), "--J", repr(J), "--Jprime"]
    big = sys.float_info.max

    def line(share):  # beta J' = n beta^2 - share * big - J_part, without overflow
        return argv + [repr((n * beta**2 - big - (share - 1) * big - J_part) / beta)]

    assert run(line(0.99)) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert math.isfinite(json.loads(out, parse_constant=refuse_constant)["n_fluct"])
    request.getfixturevalue("no_compute")
    assert run(line(1.01)) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: free-energy needs n beta^2 - log Z below 1.8e308")


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
        # the grid is priced at its largest size
        (["cycles", "--n", "8", "--kmax", "5", "--n-grid", "8,1600"],
         "operation budget"),
        (["cycles", "--n", "30", "--kmax", "4", "--n-grid", "10,30", "--budget", "1e4"],
         "operation budget"),
        (["approx", "--n", "20", "--kmax", "4", "--n-grid", "10,20",
          "--centering-reps", "-5"], "centering replicate"),
        (["approx", "--n", "1600", "--kmax", "5", "--n-grid", "10,1600"],
         "operation budget"),
        (["clt", "--n", "10", "--beta", "0.2", "--threads", "0"], "at least 1 thread"),
        (["cycles", "--n", "10", "--kmax", "3", "--threads", "-1"], "at least 1 thread"),
        # beyond the closed forms, whatever the budget: no engine on the run path
        (["approx", "--n", "12", "--kmax", "12", "--budget", "1e14"],
         "closed-form bound"),
        # 2 n^3 at every k, with or without a matrix product
        (["cycles", "--n", "40000", "--kmax", "2"], "operation budget"),
        (["tilted", "--n", "800", "--beta", "0.2", "--kmax", "3"], "operation budget"),
        # a depth-first enumeration took seconds to minutes per replicate here
        (["cycles", "--n", "30", "--kmax", "6"], "closed-form bound"),
        (["approx", "--n", "12", "--kmax", "7"], "closed-form bound"),
        # a NaN budget refuses instead of switching the guard off
        (["cycles", "--n", "30", "--kmax", "4", "--budget", "nan"], "operation budget nan"),
        (["clt", "--n", "8", "--beta", "0.2", "--Jprime", "nan"], "must be finite"),
        (["tilted", "--n", "20", "--beta", "nan", "--kmax", "3"], "must be finite"),
        (["clt", "--n", "8", "--beta", "inf"], "must be finite"),
        (["decomposition", "--n", "8", "--beta", "0.2", "--J", "inf"], "must be finite"),
        # a kind has no flag for what it does not read
        pytest.param(["cycles", "--n", "8", "--Jprime", "inf", "--kmax", "3"],
                     "unrecognized arguments", id="argv24-must be finite"),
        pytest.param(["clt", "--n", "8", "--beta", "0.2", "--budget", "nan"],
                     "unrecognized arguments", id="argv25-operation budget nan"),
        pytest.param(["clt", "--n", "8", "--beta", "0.2", "--budget", "-1"],
                     "unrecognized arguments", id="argv26-operation budget -1"),
        (["cycles", "--n", "794", "--kmax", "2"], "operation budget"),
        # (2 beta)^k overflows the statistics
        (["tilted", "--n", "6", "--beta", "1e100", "--kmax", "4"], "beta=1e+100 with kmax=4"),
        (["tilted", "--n", "6", "--beta", "1e50", "--kmax", "3"], "beta=1e+50 with kmax=3"),
    ],
)
def test_whole_grid_validated_before_any_compute(no_compute, capsys, argv, message):
    assert run(argv + ["--reps", "5"]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_huge_diagonal_coupling_runs_to_a_strict_json_report(capsys):
    """J' enters log Z as the constant beta Tr M, so at J' = 1e100 the run
    ends with a report; its verdicts may fail."""
    code = run(["clt", "--n", "8", "--beta", "0.2", "--Jprime", "1e100", "--reps", "3"])
    assert code in (EXIT_OK, EXIT_VERDICT)
    data = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
    assert data["kind"] == "clt"


@pytest.mark.parametrize("text", ["-1e-3", "-2.5E+1", "-.5", "-1", "-inf"])
def test_a_negative_number_in_any_float_notation_is_a_value(text):
    argv = ["clt", "--n", "4", "--beta", "0.2", "--J", text, "--Jprime", text]
    for parser in (build_parser(), build_parser("clt")):
        args = parser.parse_args(argv)
        assert args.J == args.Jprime == float(text)


def test_a_dash_word_after_a_flag_is_still_a_flag(capsys):
    assert run(["clt", "--n", "4", "--beta", "0.2", "--J", "-x"]) == EXIT_USAGE
    assert "argument --J: expected one argument" in capsys.readouterr().err


# command lines at the edges of what the flags admit: sizes 1 to 3, beta 0,
# kmax = n, negative values in every float notation, huge couplings and
# tilts, every kind of budget, a repeated grid size, seeds outside
# [0, 2^64), the largest energy scale clt admits at 2 and 25 replicates, a
# beta whose limit variance rounds to 0 and couplings whose shifts in the
# split log Z kernel pass gibbs._CLAMP_SHIFT at n = 24 and 28; each runs to
# a report or is refused with one error line before any replicate runs
_EDGE_RUNS = [
    "clt --n 1 --beta 0.2", "clt --n 2 --beta 0", "clt --n 3 --beta 0.2 --n-grid 1,2,3",
    "decomposition --n 1 --beta 0.2 --m 1", "decomposition --n 3 --beta 0 --m 3",
    "cycles --n 1 --kmax 1", "cycles --n 2 --kmax 2", "cycles --n 3 --kmax 3",
    "tilted --n 1 --beta 0.2 --kmax 1", "tilted --n 3 --beta 0 --kmax 3",
    "approx --n 3 --kmax 3", "approx --n 5 --kmax 5",
    "clt --n 4 --beta 0.2 --J -1e-3", "clt --n 4 --beta 0.2 --Jprime -2.5E+1",
    "clt --n 4 --beta 0.2 --J -.5", "clt --n 8 --beta 0.2 --Jprime 1e100",
    "clt --n 8 --beta 0.2 --Jprime -1e100", "clt --n 8 --beta 0.2 --J -1e100",
    "decomposition --n 8 --beta 0.2 --Jprime 1e100 --J -1e-3",
    "tilted --n 6 --beta 1e40 --kmax 2", "tilted --n 6 --beta 1e40 --kmax 2 --reps 30",
    "tilted --n 6 --beta 3e30 --kmax 3 --reps 30", "cycles --n 4 --budget inf",
    "clt --n 4 --beta 0.2 --seed -1", "clt --n 4 --beta 0.2 --seed 18446744073709551616",
    "tilted --n 4 --beta 0.2 --sigma random --seed -1",
    "tilted --n 4 --beta 0.2 --sigma random --seed 18446744073709551616",
    "clt --n 6 --beta 0.25 --J -1.788e153 --reps 2",
    "clt --n 6 --beta 0.25 --Jprime 8.944e153 --reps 2",
    "clt --n 6 --beta 0.25 --J -5.059e152 --reps 25",
    "clt --n 6 --beta 0.25 --Jprime 2.529e153 --reps 25",
    "clt --n 24 --beta 0.2 --J -3.7e50 --reps 2", "clt --n 24 --beta 0.2 --J -1e100 --reps 2",
    "clt --n 28 --beta 0.2 --J -1e20 --reps 2",
]
# each refused line with the one error line it prints
_EDGE_REFUSALS = [
    ("clt --n 4 --beta -1e-3", "beta must be nonnegative, got -0.001"),
    ("clt --n 8 --beta 0.2 --J 1e100",
     "parameters beta=0.2, J=1e+100 violate the paramagnetic regime "
     "(need beta < 1/2 and beta*J < 1/2)"),
    ("tilted --n 6 --beta 1e100 --kmax 4",
     "tilted needs (2 beta)^14 below 1e308, got beta=1e+100 with kmax=4"),
    ("tilted --n 6 --beta 1e50 --kmax 3",
     "tilted needs (2 beta)^10 below 1e308, got beta=1e+50 with kmax=3"),
    ("cycles --n 4 --budget 0", "2*n^3 = 128 is not within the operation budget 0"),
    ("cycles --n 4 --budget nan", "the operation budget nan is not >= 0"),
    ("cycles --n 4 --budget -1e3", "the operation budget -1e+03 is not >= 0"),
    ("cycles --n 4 --n-grid 4,4", "n_grid must be strictly increasing"),
    ("clt --n 4 --beta 0.2 --n-grid 3,4,4", "n_grid must be strictly increasing"),
    ("clt --n 0 --beta 0.2", "n must be positive, got 0"),
    ("clt --n 6 --beta 0.2 --Jprime 1e308 --reps 25",
     "clt needs the replicates times (beta (|J| (n-1) + |J'|))^2 within 1e307, "
     "got beta=0.2, J=0, J'=1e+308 at n=6 with 25 replicates"),
    ("decomposition --n 6 --beta 0.2 --Jprime 1e308 --reps 25 --m 4",
     "decomposition needs the replicates times (beta (|J| (n-1) + |J'|))^2 within "
     "1e307, got beta=0.2, J=0, J'=1e+308 at n=6 with 25 replicates"),
    ("clt --n 6 --beta 0.49 --J -1e308 --reps 25",
     "clt needs the replicates times (beta (|J| (n-1) + |J'|))^2 within 1e307, "
     "got beta=0.49, J=-1e+308, J'=0 at n=6 with 25 replicates"),
    ("clt --n 6 --beta 1e-170 --reps 25",
     "clt needs a positive limit variance, got 0 at beta=1e-170, J=0, J'=0"),
    # an --out that cannot be written: refused before the run, not after it
    ("clt --n 24 --beta 0.25 --reps 1000 --out /nonexistent/x.json",
     "cannot write '/nonexistent/x.json': no directory '/nonexistent'"),
    ("clt --n 24 --beta 0.25 --reps 1000 --out /", "cannot write '/': it is a directory"),
    ("cycles --n 4 --kmax 3 --format csv --out /nonexistent/x.json",
     "cannot write '/nonexistent/x.json': no directory '/nonexistent'"),
    ("approx --n 4 --kmax 3 --format csv --out /", "cannot write '/': it is a directory"),
    # more stored values than experiments.MAX_STORED_VALUES
    ("clt --n 4 --beta 0.2 --reps 50000000",
     "clt would store 50000000 replicates x 1 sizes x 1 columns = 50000000 values, "
     "above the cap of 4194304; at most 4194304 replicates fit"),
    ("approx --n 5 --kmax 5 --reps 1000000000",
     "approx would store 1000000000 replicates x 1 sizes x 10 columns = 10000000000 "
     "values, above the cap of 4194304; at most 419430 replicates fit"),
    ("cycles --n 4 --kmax 2 --n-grid 2,3 --reps 800000",
     "cycles would store 800000 replicates x 3 sizes x 2 columns = 4800000 values, "
     "above the cap of 4194304; at most 699050 replicates fit"),
    # a kmax above the grid's smallest size is refused before the cap is priced
    ("cycles --n 4 --kmax 4 --n-grid 2,3 --reps 500000",
     "cycles needs 1 <= kmax <= n at every size, got kmax=4 with smallest n=2"),
    # the remaining refusals of ExperimentConfig: regime, enumeration bound,
    # depth range, centering count and closed-form bound
    ("clt --n 4 --beta 0.5",
     "parameters beta=0.5, J=0.0 violate the paramagnetic regime "
     "(need beta < 1/2 and beta*J < 1/2)"),
    ("clt --n 29 --beta 0.2", "n=29 exceeds the enumeration bound 28"),
    ("approx --n 5 --kmax 2",
     "approx needs 3 <= kmax <= n at every size, got kmax=2 with smallest n=5"),
    ("approx --n 5 --kmax 3 --centering-reps 0",
     "need at least 1 centering replicate, got 0"),
    ("decomposition --n 4 --beta 0.2 --m 5",
     "decomposition needs 1 <= m <= n at every size, got m=5 with smallest n=4"),
    ("cycles --n 8 --kmax 6", "k=6 exceeds the closed-form bound 5"),
    # n beta^2 beyond the float range: refused before log Z is enumerated
    ("free-energy --n 24 --beta 1e200",
     "free-energy needs n beta^2 below 1.8e308, got beta=1e+200 at n=24"),
    ("free-energy --n 4 --beta 1e154 --J 1",
     "free-energy needs n beta^2 below 1.8e308, got beta=1e+154 at n=4"),
    # an energy scale that overflows the kernel: refused before log Z too
    ("free-energy --n 12 --beta 0.4 --J 1e308",
     "free-energy needs beta (|J| (n-1) + |J'|) within 1e307, got beta=0.4, J=1e+308, "
     "J'=0 at n=12"),
    ("free-energy --n 12 --beta 0.4 --J -1e308",
     "free-energy needs beta (|J| (n-1) + |J'|) within 1e307, got beta=0.4, J=-1e+308, "
     "J'=0 at n=12"),
    # n_fluct = log Z - n beta^2 below the float range: refused before log Z too
    ("free-energy --n 2 --beta 9.4e153 --Jprime -1.06e153",
     "free-energy needs n beta^2 - log Z below 1.8e308, got n beta^2 = 1.767e+308 and "
     "log Z at most -9.964e+306 (beta=9.4e+153, J=0, J'=-1.06e+153 at n=2)"),
]


_EDGE_CASES = [(line, None) for line in _EDGE_RUNS] + _EDGE_REFUSALS


@pytest.mark.parametrize("line, refused", _EDGE_CASES, ids=[
    f"{line}-{refused is not None}" for line, refused in _EDGE_CASES])
def test_edge_case_command_lines_end_in_a_report_or_one_error(request, capsys, line, refused):
    """A line runs to a report, or exits 1 with its one error line."""
    if refused:
        request.getfixturevalue("no_compute")  # refused before any replicate runs
    argv = shlex.split(line)
    if argv[0] in experiments.KINDS and "--reps" not in argv:
        argv += ["--reps", "3"]
    code = run(argv)  # an exception escaping main fails the test
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if refused:
        assert code == EXIT_USAGE
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            f"error: {refused}"]
    else:
        assert code in (EXIT_OK, EXIT_VERDICT), err
        json.loads(out, parse_constant=refuse_constant)


@pytest.mark.parametrize("argv, target, exc", [
    (["clt", "--n", "4", "--beta", "0.2", "--reps", "3"], (experiments, "_stacks"),
     MemoryError()),
    (["sample", "--n", "4"], (randmat, "sample_gaussian_matrix"),
     MemoryError("Unable to allocate 3.35 GiB")),
])
def test_a_memory_error_ends_in_one_error_line(monkeypatch, capsys, argv, target, exc):
    """Running out of memory exits 1 with one error line, not a traceback."""

    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(*target, out_of_memory)
    assert run(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {str(exc) or 'out of memory'}\n"


def test_a_run_beyond_the_stored_values_cap_is_refused_under_a_memory_limit():
    """Under a 1.5 GB address-space limit this line once computed for four
    minutes and then ran out of memory in its KS test; now it is refused
    before any replicate, in one error line that names the replicates."""
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2); "
        "from skcw.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).resolve().parents[1]))
    argv = ["clt", "--n", "4", "--beta", "0.2", "--reps", "50000000"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: clt would store 50000000 replicates x 1 sizes x 1 columns")
    assert f"at most {experiments.MAX_STORED_VALUES} replicates fit" in line


def test_a_constant_cycle_column_fails_its_correlation_check(capsys):
    """Under a huge tilt C_{n,2} is constant to rounding: its correlation
    with C_{n,1} is undefined, a failed check with no observed value."""
    code = run(["tilted", "--n", "6", "--beta", "1e40", "--kmax", "2", "--reps", "3"])
    assert code == EXIT_VERDICT
    data = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
    corr = [c for c in data["results"][0]["checks"] if c["name"] == "corr_1_2"]
    assert corr and corr[0]["observed"] is None and corr[0]["passed"] is False


def test_infinite_budget_written_as_a_string_and_read_back(tmp_path, capsys):
    """Strict JSON has no Infinity: ``--budget inf`` is echoed as "inf"."""
    out = tmp_path / "inf.json"
    argv = ["cycles", "--n", "12", "--kmax", "3", "--reps", "30", "--budget", "inf",
            "--out", str(out)]
    assert run(argv) == EXIT_VERDICT  # the finite-n variances miss at n = 12
    text = out.read_text()
    assert '"cycle_budget": "inf"' in text
    json.loads(text, parse_constant=refuse_constant)
    capsys.readouterr()
    assert run(["report", "--in", str(out)]) == EXIT_VERDICT
    assert capsys.readouterr().out.startswith("kind: cycles\n")


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


@pytest.mark.parametrize("out, make", [
    ("sub", "dir"), ("missing/r.json", None), ("file/r.json", "file"),
    ("r.json", "csv dir"),
])
def test_an_unwritable_out_is_refused_before_any_replicate(
    no_compute, tmp_path, capsys, out, make
):
    """A directory, a missing or non-directory parent, or a directory at
    <out>.csv: one error line, exit 1, and no file is created."""
    if make == "dir":
        (tmp_path / out).mkdir()
    elif make == "file":
        (tmp_path / "file").write_text("")
    elif make == "csv dir":
        (tmp_path / "r.json.csv").mkdir()
    before = sorted(tmp_path.rglob("*"))
    argv = ["clt", "--n", "24", "--beta", "0.25", "--out", str(tmp_path / out),
            "--format", "csv"]
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    assert len(captured.err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, target", [
    (["identities"], (experiments, "run_identities")),
    (["sample", "--n", "4"], (randmat, "sample_gaussian_matrix")),
    (["free-energy", "--n", "4", "--beta", "0.2"], (randmat, "sample_gaussian_matrix")),
])
def test_every_subcommand_refuses_an_unwritable_out_before_its_work(
    monkeypatch, tmp_path, capsys, argv, target
):
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the command line was rejected")

    monkeypatch.setattr(*target, refuse)
    assert run([*argv, "--out", str(tmp_path / "missing" / "x")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exists", [False, True])
def test_an_out_without_write_permission_is_refused(no_compute, tmp_path, monkeypatch,
                                                    capsys, exists):
    """The permission asked of a new file is its directory's, of an existing
    file its own (root passes every such check, so it is simulated)."""
    out = tmp_path / "r.json"
    if exists:
        out.write_text("old")
    asked = []

    def denied(path, mode):
        asked.append((path, mode))
        return False

    monkeypatch.setattr(os, "access", denied)
    assert run(["clt", "--n", "4", "--beta", "0.2", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: cannot write {str(out)!r}: permission denied\n"
    assert asked == [(str(out), os.W_OK) if exists else (str(tmp_path), os.W_OK | os.X_OK)]
    assert sorted(p.name for p in tmp_path.iterdir()) == (["r.json"] if exists else [])


def test_csv_without_out_is_usage_error(no_compute, capsys):
    argv = ["cycles", "--n", "12", "--reps", "20", "--kmax", "3", "--format", "csv"]
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err


@pytest.mark.parametrize("argv", [
    ["clt", "--beta", "0.2", "--J", "0.5"],
    ["cycles", "--kmax", "3", "--budget", "inf"],
    ["tilted", "--beta", "0.3", "--kmax", "3", "--sigma", "ones"],
    ["tilted", "--beta", "0.3", "--kmax", "3", "--sigma", "alternating"],
    ["tilted", "--beta", "0.3", "--kmax", "3", "--sigma", "random"],
    ["approx", "--kmax", "4", "--centering-reps", "3"],
    ["decomposition", "--beta", "0.2", "--J", "0.5", "--m", "3"],
], ids=["clt", "cycles", "tilted-ones", "tilted-alternating", "tilted-random",
        "approx", "decomposition"])
def test_every_report_reruns_from_its_config_echo(tmp_path, argv):
    """The config block names every input the kind reads: the config rebuilt
    from it gives the same report."""
    out = tmp_path / "r.json"
    argv = argv + ["--n", "8", "--n-grid", "6,8", "--reps", "5", "--seed", "4",
                   "--raw-samples", "--out", str(out)]
    assert run(argv) in (EXIT_OK, EXIT_VERDICT)
    written = json.loads(out.read_text())
    written.pop("generated_at")
    echo = dict(written["config"])
    echo["params"] = ModelParams(**echo["params"])
    echo["n_grid"] = tuple(echo["n_grid"])
    if echo.get("cycle_budget") == "inf":
        echo["cycle_budget"] = math.inf
    report = experiments.run_experiment(experiments.ExperimentConfig(**echo))
    assert json.loads(json.dumps(report.to_dict(), allow_nan=False)) == written


@pytest.mark.parametrize("argv", [
    ["cycles", "--n", "12", "--kmax", "3", "--beta", "0.3"],
    ["approx", "--n", "12", "--kmax", "4", "--J", "1"],
    ["tilted", "--n", "12", "--beta", "0.3", "--kmax", "3", "--Jprime", "0.5"],
    ["clt", "--n", "8", "--beta", "0.2", "--budget", "1e9"],
    ["clt", "--n", "8", "--beta", "0.2", "--kmax", "3"],
    ["decomposition", "--n", "8", "--beta", "0.2", "--sigma", "ones"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]))
def test_flag_the_kind_does_not_read_is_refused(no_compute, capsys, argv):
    """An input with no effect on the run is a usage error, not an echo."""
    assert run(argv + ["--reps", "5"]) == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


COMMON_CONFIG_KEYS = {"kind", "params", "replicates", "master_seed", "n_grid", "threads",
                      "keep_raw"}


@pytest.mark.parametrize("argv, config_keys, params_keys", [
    (["clt", "--beta", "0.2"], set(), {"beta", "J", "Jprime"}),
    (["cycles", "--kmax", "3"], {"kmax", "cycle_budget"}, set()),
    (["tilted", "--beta", "0.2", "--kmax", "3"], {"kmax", "cycle_budget", "sigma"},
     {"beta"}),
    (["approx", "--kmax", "4"], {"kmax", "cycle_budget", "centering_replicates"}, set()),
    (["decomposition", "--beta", "0.2", "--m", "3"], {"m", "cycle_budget"},
     {"beta", "J", "Jprime"}),
], ids=["clt", "cycles", "tilted", "approx", "decomposition"])
def test_report_config_names_only_what_the_kind_reads(tmp_path, argv, config_keys,
                                                       params_keys):
    out = tmp_path / "r.json"
    argv = argv + ["--n", "8", "--reps", "5", "--seed", "4", "--out", str(out)]
    assert run(argv) in (EXIT_OK, EXIT_VERDICT)
    config = json.loads(out.read_text())["config"]
    assert set(config) == COMMON_CONFIG_KEYS | config_keys
    assert set(config["params"]) == {"n"} | params_keys


def test_readme_command_lines_parse():
    """Every ``skcw`` line of the README's command-line block is accepted by
    the parser, so the README names no flag the CLI lacks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("    skcw ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def _fresh_interpreter(code, blas_threads=None):
    """Standard output of ``code`` run by a new interpreter that imports
    skcw from this tree, with ``OPENBLAS_NUM_THREADS`` set to
    ``blas_threads`` or, for None, removed from its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


@pytest.mark.parametrize("blas_threads, expected", [(None, 1), ("2", 2)])
def test_the_cli_process_starts_one_blas_thread_unless_told(blas_threads, expected):
    """Imported before numpy, the command line holds OpenBLAS to one thread,
    so no idle BLAS thread runs beside the main one; a count the caller set
    is kept."""
    if randmat.openblas_function("get_num_threads") is None:
        pytest.skip("numpy does not link OpenBLAS here")
    if expected > experiments._usable_cores():
        pytest.skip("OpenBLAS runs no more threads than there are cores")
    code = (
        "import os, skcw.cli; from skcw.randmat import openblas_function; "
        "print(openblas_function('get_num_threads')(), len(os.listdir('/proc/self/task')) "
        "if os.path.isdir('/proc/self/task') else None)"
    )
    blas, os_threads = _fresh_interpreter(code, blas_threads).split()
    assert int(blas) == expected
    if sys.platform.startswith("linux"):
        assert int(os_threads) == expected


def test_importing_the_cli_loads_neither_fractions_nor_decimal():
    """The exact centering sums in integers, so only ``walk_moments``, which
    the tests call, imports ``fractions`` (and with it ``decimal``)."""
    code = (
        "import sys, skcw.cli; "
        "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))"
    )
    assert _fresh_interpreter(code).strip() == "[]"


def test_importing_the_cli_after_numpy_leaves_the_environment_alone():
    code = (
        "import os, numpy; before = dict(os.environ); import skcw.cli; "
        "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    assert _fresh_interpreter(code).split() == ["True", "False"]


def test_main_keeps_freed_memory_once_per_run(monkeypatch, tmp_path):
    """The program's own process keeps its freed arrays, as a forked worker
    does: ``main`` asks once, before the run, however many sizes it has."""
    calls = []
    monkeypatch.setattr(experiments, "keep_freed_memory", lambda: calls.append(1))
    argv = ["clt", "--n", "8", "--n-grid", "6,8", "--beta", "0.2", "--reps", "5",
            "--out", str(tmp_path / "r.json")]
    assert run(argv) in (EXIT_OK, EXIT_VERDICT)
    assert calls == [1]


def _full_parser_output(capsys, argv):
    """(exit code, stdout, stderr) of ``argv`` through the parser with every
    subcommand, as ``main`` would report them."""
    try:
        build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("kind", experiments.KINDS)
@pytest.mark.parametrize("tail", [["--help"], [], ["--n", "8", "--bogus", "1"],
                                  ["--n", "x"], ["--n", "8", "stray"]])
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, kind, tail):
    """``main`` builds only the experiment subcommand it runs; its help and
    every usage error, from the subcommand's parser or the top-level one,
    are the same bytes as with every subcommand built."""
    argv = [kind, *tail]
    want = _full_parser_output(capsys, argv)
    assert want[0] in (EXIT_OK, EXIT_USAGE)
    got = run(argv), *capsys.readouterr()
    assert got == want
    assert want[1] or want[2]


def test_main_builds_only_the_experiment_subcommand_it_runs(monkeypatch, capsys):
    """An experiment subcommand first in argv builds that subparser alone;
    anything else builds every subcommand, so an unknown one still lists
    every choice and ``build_parser()`` still knows them all."""
    built = []
    real = build_parser

    def spy(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr("skcw.cli.build_parser", spy)
    assert run(["decomposition", "--help"]) == EXIT_OK
    assert run(["frobnicate"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert built == ["decomposition", None]
    commands = ("identities", "sample", "free-energy", *experiments.KINDS, "report")
    assert "invalid choice: 'frobnicate' (choose from " + ", ".join(
        f"'{c}'" for c in commands) + ")" in err
    subparsers = [a for a in real()._actions if a.dest == "command"]
    assert list(subparsers[0].choices) == list(commands)


def test_a_serial_run_imports_numpy_random_before_sampling():
    """The driver imports ``numpy.random`` before the map at every worker
    count, so a serial run's first draw does not pay numpy's lazy import and
    the sampling time measures sampling."""
    code = (
        "import sys, skcw.cli, skcw.experiments as e; seen = []; real = "
        "e.sample_gaussian_matrix\n"
        "def spy(*args, **kwargs):\n"
        "    seen.append('numpy.random' in sys.modules); return real(*args, **kwargs)\n"
        "e.sample_gaussian_matrix = spy\n"
        "code = skcw.cli.main(['clt', '--n', '6', '--beta', '0.2', '--reps', '3', "
        "'--threads', '1', '--out', '/dev/null'])\n"
        "print(code in (0, 2), seen[:1])"
    )
    assert _fresh_interpreter(code).split() == ["True", "[True]"]
