"""Command line front end.

Subcommands: identities, sample, free-energy, cycles, clt, tilted, approx,
decomposition, report.  Reports are emitted as strict JSON (stable key
order, schema_version 1, no NaN or Infinity) to --out or standard output;
--format csv, which needs --out, also writes the raw samples to
<out>.csv, one row per replicate.  An --out (or <out>.csv) that cannot be
written is refused before any work is done.
The five experiment subcommands share one path: their flags become an
``ExperimentConfig``, which validates the whole --n-grid before any
replicate runs, and ``experiments.run_<subcommand>`` produces the report
from that config alone.  ``experiments.KIND_FIELDS`` names the inputs each
kind reads: besides the inputs of every run, a subcommand takes flags for
those alone, and its report's ``config`` block echoes those alone.  An
experiment run builds the parser of its own subcommand only; its help and
usage errors are the same bytes as with every subcommand built.

The program sets up its own process for that work.  Importing this
module before numpy sets ``OPENBLAS_NUM_THREADS=1`` unless the caller has
set it, so OpenBLAS starts no idle threads beside the main one (every
product runs on one BLAS thread anyway).  ``main`` first asks glibc to
keep freed arrays in the heap (``experiments.keep_freed_memory``), as the
forked workers do, so a serial run does not fault its pages in again on
every replicate.  A library caller of ``experiments.run_*`` keeps its own
BLAS threads and allocator.

Exit codes: 0 success with all verdicts passing, 2 verdict failure,
1 usage, regime or budget errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from datetime import datetime, timezone

# before numpy loads: OpenBLAS starts its threads then, and its idle ones
# spun for 0.12-0.13 s of CPU in every process
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import experiments, gibbs, randmat
from .cycles import DEFAULT_CYCLE_BUDGET
from .experiments import ExperimentConfig, ExperimentReport
from .gibbs import ModelParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends "(default: ...)" to a flag's help only where the default is set."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", _HelpFormatter)
        super().__init__(*args, **kwargs)
        # a value, not a flag: every negative number float() reads, where
        # argparse's own pattern takes -1 and -.5 but not -1e-3 or -inf
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# the flag of each config field an experiment kind may read
# (experiments.KIND_FIELDS), stored under the field's name
_FIELD_FLAGS = {
    "beta": ("--beta", dict(type=float, required=True, help="inverse temperature")),
    "J": ("--J", dict(type=float, default=0.0, help="uniform coupling")),
    "Jprime": ("--Jprime", dict(type=float, default=0.0, help="diagonal coupling")),
    "kmax": ("--kmax", dict(type=int, help="largest cycle length")),
    "m": ("--m", dict(type=int, default=4, help="cycle truncation depth")),
    "cycle_budget": ("--budget", dict(
        type=float, default=DEFAULT_CYCLE_BUDGET, metavar="BUDGET", help=(
            "the operation budget (inf for none; NaN or negative is refused), the only "
            "compute guard: cycle sums, which stop at k=5, cost 2*n^3 at every k"))),
    "sigma": ("--sigma", dict(choices=experiments.SIGMAS, default="ones", help=(
        "spin vector defining the tilt, built at every size; random draws from a "
        "seed derived from --seed; echoed as config.sigma"))),
    "centering_replicates": ("--centering-reps", dict(type=int, metavar="N", help=(
        "accepted (>= 1) and echoed in the report; the centering is exact, so no "
        "centering samples are drawn"))),
}

# help and flag defaults of each experiment subcommand
_SUBCOMMANDS = {
    "clt": ("free-energy fluctuation experiment", {}),
    "cycles": ("signed-cycle statistics under the null law", {"kmax": 4}),
    "tilted": ("signed-cycle statistics under the tilt", {"kmax": 3}),
    "approx": ("cycle vs spectral-statistic residuals", {"kmax": 5}),
    "decomposition": ("cycle decomposition of log Z", {}),
}


def _add_field_flags(p, fields):
    for field in fields:
        flag, kwargs = _FIELD_FLAGS[field]
        p.add_argument(flag, dest=field, **kwargs)


# every subcommand, in the order the help lists them
_COMMANDS = ("identities", "sample", "free-energy", *experiments.KINDS, "report")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``skcw`` parser with every subcommand, or with only the
    experiment subcommand ``command``.  The latter spells the whole
    subcommand list out as the metavar that the full parser's usage line
    shows, so the top-level usage prints the same bytes either way."""
    parser = _Parser(prog="skcw", description=__doc__.splitlines()[0])
    if command is not None:
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
        _add_experiment_parser(sub, command)
        return parser
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", parents=[], help="run the exact identity suite")
    p.add_argument("--max-k", type=int, default=30,
                   help="largest k for the cancellation identity")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("sample", help="sample a coupling matrix, text format")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--hollow", action="store_true", help="zero diagonal")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("free-energy", help="one exact evaluation of log Z and F_n")
    p.add_argument("--n", type=int, required=True, help="system size")
    _add_field_flags(p, ("beta", "J", "Jprime"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", type=str, default=None)

    for kind in experiments.KINDS:
        _add_experiment_parser(sub, kind)

    p = sub.add_parser("report", help="re-parse, validate and summarize a report")
    p.add_argument("--in", dest="path", type=str, required=True)
    return parser


def _add_experiment_parser(sub, kind: str) -> None:
    help_text, defaults = _SUBCOMMANDS[kind]
    p = sub.add_parser(kind, help=help_text)
    p.add_argument("--n", type=int, required=True, help="system size")
    p.add_argument("--reps", type=int, default=1000, help="Monte Carlo replicates")
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument("--n-grid", type=str, default=None,
                   help="comma-separated sizes for trend checks, e.g. 12,16,20")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per replicate and "
                        "per usable core, each with one BLAS thread; a run "
                        "priced below 2^32 operations, or one worker, "
                        "computes in this process")
    p.add_argument("--out", type=str, default=None, help="report path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv also writes raw samples to <out>.csv (needs --out)")
    p.add_argument("--raw-samples", action="store_true",
                   help="keep per-replicate samples in the report")
    _add_field_flags(p, experiments.KIND_FIELDS[kind])
    p.set_defaults(**defaults)


def _parse_grid(text):
    if not text:
        return None
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --n-grid {text!r}: {exc}") from None


def _emit(payload: dict, out: str | None) -> None:
    payload = dict(payload)
    payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    # strict JSON (RFC 8259): a NaN or infinity raises instead of being
    # written.  No indent keeps json on its C encoder; the separator still
    # puts every element on its own line
    text = json.dumps(
        payload, sort_keys=True, allow_nan=False, separators=(",\n", ": ")
    ) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_raw_csv(report: ExperimentReport, path: str) -> None:
    names = sorted({k for per_n in report.raw_samples.values() for k in per_n})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "replicate"] + names)
        for n_str, per_n in report.raw_samples.items():
            count = len(next(iter(per_n.values())))
            for r in range(count):
                writer.writerow(
                    [n_str, r] + [per_n[name][r] if name in per_n else "" for name in names]
                )


def _check_writable(path: str) -> None:
    """Refuse, before any work and without creating it, an output file that
    cannot be written: a directory, a path whose parent directory is missing
    or not writable, or an existing file that is not writable."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path!r}: it is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValueError(f"cannot write {path!r}: no directory {parent!r}")
    if os.path.exists(path):
        writable = os.access(path, os.W_OK)
    else:
        writable = os.access(parent, os.W_OK | os.X_OK)
    if not writable:
        raise ValueError(f"cannot write {path!r}: permission denied")


def _report_exit(report: ExperimentReport, args) -> int:
    _emit(report.to_dict(), args.out)
    if args.format == "csv":
        _emit_raw_csv(report, args.out + ".csv")
    return EXIT_OK if report.passed else EXIT_VERDICT


def _make_config(args) -> ExperimentConfig:
    # the fields the kind reads, each flag defaulting to the config's default
    read = {f: getattr(args, f) for f in experiments.KIND_FIELDS[args.command]}
    params = {f: read.pop(f) for f in ("beta", "J", "Jprime") if f in read}
    return ExperimentConfig(
        kind=args.command,
        params=ModelParams(n=args.n, **params),
        replicates=args.reps,
        master_seed=args.seed,
        n_grid=_parse_grid(args.n_grid),
        threads=args.threads,
        keep_raw=args.raw_samples or args.format == "csv",
        **read,
    )


def _cmd_experiment(args) -> int:
    if args.format == "csv":
        if not args.out:
            raise ValueError("--format csv needs --out; the samples go to <out>.csv")
        _check_writable(args.out + ".csv")
    report = getattr(experiments, f"run_{args.command}")(_make_config(args))
    return _report_exit(report, args)


def _cmd_identities(args) -> int:
    report = experiments.run_identities(args.max_k)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_VERDICT


def _cmd_sample(args) -> int:
    a = randmat.sample_gaussian_matrix(
        args.n, randmat.SeedSpec(args.seed, args.stream), hollow=args.hollow
    )
    if args.out:
        randmat.save_matrix_text(a, args.out)
    else:
        randmat.save_matrix_text(a, sys.stdout)
    return EXIT_OK


def _cmd_free_energy(args) -> int:
    params = ModelParams(beta=args.beta, J=args.J, Jprime=args.Jprime, n=args.n)
    a = randmat.sample_gaussian_matrix(args.n, randmat.SeedSpec(args.seed, args.stream))
    log_z = gibbs.exact_log_partition(a, params)
    payload = {
        "schema_version": experiments.SCHEMA_VERSION,
        "kind": "free-energy",
        "config": {"n": args.n, "beta": args.beta, "J": args.J,
                   "Jprime": args.Jprime, "seed": args.seed, "stream": args.stream},
        "log_partition": log_z,
        "free_energy": log_z / args.n,
        "n_fluct": log_z - args.n * args.beta**2,
    }
    if params.paramagnetic and args.beta > 0:
        t = gibbs.clt_targets(params)
        payload["targets"] = {"limit": t.limit, "mean": t.mean, "variance": t.variance}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        report = ExperimentReport.from_dict(json.load(fh))
    lines = [f"kind: {report.kind}", f"passed: {report.passed}"]
    for res in report.results:
        for c in res.checks:
            lines.append(f"  n={res.n} {'PASS' if c.passed else 'FAIL'} {c.name}: "
                         f"observed={c.observed!r} target={c.target!r} "
                         f"tolerance={c.tolerance!r}")
    for c in report.checks:
        lines.append(f"  {'PASS' if c.passed else 'FAIL'} {c.name}: "
                     f"observed={c.observed!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_VERDICT


def main(argv=None) -> int:
    experiments.keep_freed_memory()
    argv = sys.argv[1:] if argv is None else list(argv)
    # an experiment run builds its own subcommand alone, a third of the
    # parser's cost; anything else gets every subcommand and its listing
    parser = build_parser(argv[0] if argv and argv[0] in experiments.KINDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {
        "identities": _cmd_identities,
        "sample": _cmd_sample,
        "free-energy": _cmd_free_energy,
        "report": _cmd_report,
    }
    try:
        if getattr(args, "out", None):
            _check_writable(args.out)
        return commands.get(args.command, _cmd_experiment)(args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
