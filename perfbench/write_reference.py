"""Regenerate the stored reference raw samples of every workload.

    python3 perfbench/write_reference.py [WORKLOAD ...]

Runs each workload once at the default seed and stores its command line
and raw samples in ``perfbench/reference/<workload>.json``.  Do this only
when a change is meant to alter the reported values, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main(names) -> int:
    run.RUN_DIR.mkdir(exist_ok=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
            out = Path(tmp) / "report.json"
            argv = workload.argv(run.DEFAULT_SEED, str(out))
            result = run.run_child(argv, False, Path(tmp), run.CHILD_TIMEOUT_S)
            if result.get("exit") not in (0, 2):
                sys.stderr.write(f"{name}: {result.get('error')}\n")
                return 1
            raw = json.loads(out.read_text())["raw_samples"]
        path = run.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"argv": workload.argv(run.DEFAULT_SEED), "raw_samples": raw}, fh)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
