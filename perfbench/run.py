"""skcw benchmark: end-to-end metrics per workload, or per-layer metrics when traced.

    python3 perfbench/run.py --workload clt_grid --seed 1 --seconds 30 --trace 0

Each iteration runs one ``skcw`` command line in a fresh interpreter
(``perfbench/child.py`` calls ``skcw.cli.main(argv)`` with ``--raw-samples
--out <tmp>``), reads the report back through ``ExperimentReport.from_dict``
and gates every replicate (``perfbench/gate.py``).  Iterations repeat one
seed until ``--seconds`` is used up; metrics are medians over iterations.

``--trace 0`` prints wall_s, cpu_s, peak_rss_mb, setup_s and failed_fraction.
``--trace 1`` alternates timed iterations with traced single-worker ones and
prints the per-layer metrics, the layer table and the unaccounted share,
and writes the spans to ``perfbench/_run/``.  The last stdout line is always
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS thread variables are recorded, never set: pinning them would hide the
oversubscription of forked pool workers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / "_run"
REFERENCE_DIR = HERE / "reference"
CHILD = HERE / "child.py"

DEFAULT_SEED = 1
MIN_TIMED = 3
CHILD_TIMEOUT_S = 150.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[tuple[str, str], ...]
    why: str

    def flag(self, name: str, default=None):
        return dict(self.flags).get(name, default)

    @property
    def sizes(self) -> list[int]:
        grid = self.flag("n-grid")
        sizes = {int(x) for x in grid.split(",")} if grid else set()
        return sorted(sizes | {int(self.flag("n"))})

    @property
    def reps(self) -> int:
        return int(self.flag("reps"))

    @property
    def serial(self) -> bool:
        return int(self.flag("threads", "1")) <= 1

    def argv(self, seed: int, out: str | None = None, threads: int | None = None) -> list[str]:
        flags = dict(self.flags)
        if threads is not None:
            flags["threads"] = str(threads)
        argv = [self.command]
        for key, value in flags.items():
            argv += [f"--{key}", value]
        argv += ["--seed", str(seed), "--raw-samples"]
        return argv + (["--out", out] if out else [])


def _workload(name, command, why, **flags):
    items = tuple((key.replace("_", "-"), str(value)) for key, value in flags.items())
    return Workload(name, command, items, why)


# Sizes from the acceptance criteria at reduced replicate counts, so a run
# repeats each command several times and reports a median.
WORKLOADS = {
    w.name: w
    for w in (
        _workload(
            "clt_grid", "clt",
            "log Z enumeration up to n=24 in the process pool; no cycle work",
            n=20, n_grid="12,16,20,24", beta=0.25, J=1, reps=20, threads=2,
        ),
        _workload(
            "approx_grid", "approx",
            "cycle sums at k=5, power traces and the serial Monte Carlo centering; no log Z",
            n=200, n_grid="50,100,200", kmax=5, reps=40, centering_reps=300, threads=2,
        ),
        _workload(
            "decomp_serial", "decomposition",
            "log Z and k<=4 cycles at n<=20 in one process: per-call overhead, no pool",
            n=16, n_grid="12,16,20", beta=0.25, J=0.5, m=4, reps=200, threads=1,
        ),
    )
}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in ((".calls", "count"), (".states", "count"), (".matrices", "count"),
                         ("_ms", "ms"), ("_s", "s"), (".gflop", "GFLOP"),
                         ("_bytes", "bytes"), ("_share", "fraction"), ("_speedup", "x")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


# ---------------------------------------------------------------------------
# machine facts


def _steal_ticks():
    """Cumulative steal ticks of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "skcw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_facts(steal_delta) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "blas": blas,
        "env": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "steal_ticks": steal_delta,
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
    }


# ---------------------------------------------------------------------------
# one iteration


def run_child(argv: list[str], trace: bool, tmp: Path, timeout: float) -> dict:
    """Run ``argv`` through skcw.cli.main in a fresh interpreter."""
    result_path = tmp / "child.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(CHILD), str(ROOT), str(result_path), "1" if trace else "0",
           "--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers share the group
        _, err = proc.communicate()
        err = f"timed out after {timeout:.0f} s\n{err}"
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.exists():
        return {"exit": None, "error": err.strip()[-2000:] or f"exit {proc.returncode}",
                "elapsed": elapsed}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["elapsed"] = elapsed
    return result


def load_values(workload: Workload, result: dict, report_path: Path):
    """Comparable raw values of a finished iteration, or None if it failed.

    Exit 2 is a statistical verdict and still yields values; exit 1 or an
    exception fails every replicate.
    """
    import gate
    from skcw.experiments import ExperimentReport

    if result.get("exit") not in (0, 2):
        return None
    try:
        with open(report_path, encoding="utf-8") as fh:
            data = json.load(fh)
        data.pop("generated_at", None)
        report = ExperimentReport.from_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result["error"] = f"unreadable report: {exc}"
        return None
    if report.kind != workload.command or not report.raw_samples:
        result["error"] = "report has the wrong kind or no raw samples"
        return None
    return gate.comparable(report.kind, report.raw_samples)


def _incomplete(workload: Workload, values: dict) -> set:
    """Replicates missing from the raw samples."""
    bad = set()
    for n in workload.sizes:
        lengths = [len(v) for (m, _), v in values.items() if m == n]
        if not lengths or min(lengths) < workload.reps:
            bad |= {(n, r) for r in range(workload.reps)}
    return bad


# ---------------------------------------------------------------------------
# one run


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict | None = None) -> dict:
    """Iterate ``workload`` for about ``seconds`` and gate every replicate."""
    import gate
    import tracing

    RUN_DIR.mkdir(exist_ok=True)
    expected = workload.reps * len(workload.sizes)
    first = oracle = None
    iterations = []
    attempted = failed = 0
    steal0 = _steal_ticks()
    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp_name:
        tmp = Path(tmp_name)
        report_path = tmp / "report.json"
        while True:
            traced = trace and len(iterations) % 2 == 1
            argv = workload.argv(seed, str(report_path), threads=1 if traced else None)
            report_path.unlink(missing_ok=True)
            budget = CHILD_TIMEOUT_S - (time.perf_counter() - t_start)
            res = run_child(argv, traced, tmp, timeout=max(budget, 1.0))
            res["traced"] = traced
            values = load_values(workload, res, report_path)
            if values is None:
                bad = expected
            else:
                if first is None:
                    first = values
                    oracle = gate.oracle_values(workload.command, dict(workload.flags), seed,
                                                workload.sizes, workload.reps)
                wrong = (_incomplete(workload, values) | gate.mismatched(values, first)
                         | gate.mismatched(values, oracle))
                if reference is not None:
                    wrong |= gate.mismatched(values, reference)
                bad = len(wrong)
            res["failed"] = bad
            attempted += expected
            failed += bad
            iterations.append(res)
            elapsed = time.perf_counter() - t_start
            longest = max(r["elapsed"] for r in iterations[-2:])
            enough = len(iterations) >= (2 if trace else MIN_TIMED)
            if (enough and elapsed + longest > seconds) or elapsed + longest > CHILD_TIMEOUT_S:
                break
    steal1 = _steal_ticks()
    ok = [r for r in iterations if r.get("exit") in (0, 2)]
    timed = [r for r in ok if not r["traced"]]
    result = {
        "correct": failed == 0 and len(ok) == len(iterations),
        "attempted": attempted,
        "failed": failed,
        "iterations": iterations,
        "seconds": time.perf_counter() - t_start,
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
    }
    if not timed or (trace and len(timed) == len(ok)):
        result["correct"] = False
        result["metrics"] = {}
        return result
    if not trace:
        result["metrics"] = {
            name: statistics.median(r[name] for r in (ok if name == "setup_s" else timed))
            for name in E2E_UNITS
        }
        return result
    traced = [(r["spans"], r["wall_s"], r["report_bytes"]) for r in ok if r["traced"]]
    metrics, diagnostics = tracing.layer_metrics(
        traced, [r["wall_s"] for r in timed], workload.serial
    )
    result["metrics"] = metrics
    result["diagnostics"] = diagnostics
    return result


# ---------------------------------------------------------------------------
# output


def _layer_table(result: dict) -> list[str]:
    import tracing

    metrics, diag = result["metrics"], result["diagnostics"]
    wall = diag["traced_wall_s"]
    lines = [f"{'layer':<30} {'self_s':>10} {'share':>7}"]
    for layer in tracing.SELF_LAYERS:
        own = metrics[f"{layer}.self_s"]
        lines.append(f"{layer:<30} {own:>10.4f} {own / wall:>7.1%}")
    lines.append(f"{'wrapped self time':<30} {diag['accounted_s']:>10.4f} "
                 f"{diag['accounted_s'] / wall:>7.1%}")
    lines.append(f"{'unaccounted (gap)':<30} {wall - diag['accounted_s']:>10.4f} "
                 f"{metrics['trace.unaccounted_share']:>7.1%}")
    lines.append(f"{'traced wall (1 worker)':<30} {wall:>10.4f}")
    return lines


def print_result(workload: Workload, seed: int, trace: bool, result: dict) -> None:
    its = result["iterations"]
    print(f"skcw benchmark: workload {workload.name}, seed {seed}, trace {int(trace)}, "
          f"{len(its)} iterations in {result['seconds']:.1f} s")
    print("argv: skcw " + " ".join(workload.argv(seed)))
    for r in its:
        if r.get("error"):
            print(f"iteration error: {r['error']}")
    codes = sorted({r.get("exit") for r in its}, key=str)
    print("exit codes: " + ", ".join(
        f"{c} x{sum(r.get('exit') == c for r in its)}" for c in codes
    ) + " (exit 2 is a statistical verdict, not gated)")
    metrics = result["metrics"]
    if trace and metrics:
        print("\n".join(_layer_table(result)))
    ok = [r for r in its if r.get("exit") in (0, 2)]
    timed = [r for r in ok if not r["traced"]]
    for name, value in metrics.items():
        spread = ""
        if name in E2E_UNITS:
            pool = [r[name] for r in (ok if name == "setup_s" else timed)]
            spread = f"   median of {len(pool)} (min {min(pool):.4g}, max {max(pool):.4g})"
        print(f"{name:<44} {value:>14.6g} {unit_of(name):<8}{spread}")
    fraction = result["failed"] / result["attempted"]
    print(f"{'failed_fraction':<44} {fraction:>14.6g} {'fraction':<8}"
          f"   {result['failed']} of {result['attempted']} replicates failed")
    print("machine: " + json.dumps(machine_facts(result["steal_ticks"]), sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))


def write_spans(workload: Workload, seed: int, result: dict) -> Path:
    import tracing

    path = RUN_DIR / f"spans-{workload.name}-seed{seed}.json"
    traced = [r for r in result["iterations"] if r["traced"] and "spans" in r]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "fields": list(tracing.SPAN_FIELDS),
            "iterations": [{"wall_s": r["wall_s"], "bindings": r["bindings"],
                            "missing": r["missing"], "spans": r["spans"]} for r in traced],
        }, fh)
    return path


def load_reference(workload: Workload) -> dict:
    import gate

    path = REFERENCE_DIR / f"{workload.name}.json"
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["argv"] != workload.argv(DEFAULT_SEED):
        raise ValueError(f"{path} was made for another command line; regenerate it "
                         "with perfbench/write_reference.py")
    return gate.comparable(workload.command, ref["raw_samples"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skcw" / "cli.py").is_file():
        sys.stderr.write(f"error: no skcw sources under {ROOT / 'src'}\n")
        return 1
    if args.seed < 0:
        sys.stderr.write("error: --seed must be nonnegative\n")
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    try:
        reference = load_reference(workload) if args.seed == DEFAULT_SEED else None
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: reference: {exc}\n")
        return 1
    result = measure(workload, args.seed, args.seconds, bool(args.trace), reference)
    if args.trace and result["metrics"]:
        print(f"spans: {write_spans(workload, args.seed, result)}")
        first = next(r for r in result["iterations"] if "bindings" in r)
        print(f"wrapped {len(first['bindings'])} bindings; "
              f"missing targets: {first['missing'] or 'none'}")
    print_result(workload, args.seed, bool(args.trace), result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
