"""Record a baseline: repeated runs of every workload, as the benchmark command runs them.

    python3 perfbench/baseline.py LABEL [--runs 10] [--seconds 40]

Runs ``run.py`` once per seed 1..RUNS for every workload with ``--trace 0``,
then once per workload with ``--trace 1`` at the default seed.  Writes
``perfbench/baseline/LABEL.json`` with every result line and machine line,
and prints, per workload and end-to-end metric, the median, the quartiles
and their distance as a share of the median (``statistics.quantiles``).
"""

import argparse
import json
import statistics
import subprocess
import sys

import run

BASELINE_DIR = run.HERE / "baseline"


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    machine = next(line for line in lines if line.startswith("machine: "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "machine": json.loads(machine[9:])}


def summarize(runs: list[dict]) -> list[dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    rows = []
    for workload in run.WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in mine]
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows.append({"workload": workload, "metric": metric["name"], "unit": metric["unit"],
                         "runs": len(values), "median": statistics.median(values),
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(values),
                         "bound": metric["bound"]})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    runs = []
    for workload in run.WORKLOADS:
        for seed in range(1, args.runs + 1):
            runs.append(one_run(workload, seed, args.seconds, 0))
            print(workload, seed, runs[-1]["result"]["metrics"], flush=True)
    for workload in run.WORKLOADS:
        runs.append(one_run(workload, run.DEFAULT_SEED, args.seconds, 1))
    summary = summarize(runs)
    BASELINE_DIR.mkdir(exist_ok=True)
    path = BASELINE_DIR / f"{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "seconds": args.seconds, "summary": summary,
                   "runs": runs}, fh, indent=1)
        fh.write("\n")
    for row in summary:
        print(f"{row['workload']:<14} {row['metric']:<12} median {row['median']:.4g} "
              f"{row['unit']:<3} q1 {row['q1']:.4g} q3 {row['q3']:.4g} "
              f"spread {row['spread']:.3f} (bound {row['bound']})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
