"""The raw samples of one small run per kind, pinned across versions.

Each line below runs at a fixed seed, and its raw samples must match the
values stored in ``data/pinned_samples.json`` by the rule of the
benchmark's correctness gate (``perfbench/gate.py``): within 1e-9
relative, with an absolute floor of 1e-9 below 1 in magnitude.  A change
meant to alter the values regenerates the file, and says so:

    PYTHONPATH=src python tests/test_pinned_values.py
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from skcw.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "data" / "pinned_samples.json"
LINES = {
    "clt": "clt --n 10 --n-grid 6,8 --beta 0.25 --J 0.5 --Jprime 0.3 --reps 25 --seed 11",
    "cycles": "cycles --n 12 --n-grid 8 --kmax 5 --reps 25 --seed 12",
    "tilted": "tilted --n 12 --beta 0.3 --kmax 4 --sigma random --reps 25 --seed 13",
    "approx": "approx --n 16 --n-grid 8,12 --kmax 5 --reps 25 --seed 14",
    "decomposition": ("decomposition --n 10 --n-grid 8 --beta 0.25 --J 0.5 --Jprime 0.3 "
                      "--m 4 --reps 25 --seed 15"),
}


def _gate():
    spec = importlib.util.spec_from_file_location(
        "_skcw_bench_gate", ROOT / "perfbench" / "gate.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def raw_samples(line: str, out: Path) -> dict:
    """The raw samples of one command line, run in this process."""
    assert main([*line.split(), "--raw-samples", "--out", str(out)]) in (0, 2)
    return json.loads(out.read_text())["raw_samples"]


@pytest.mark.parametrize("kind", LINES)
def test_raw_samples_match_the_pinned_values(kind, tmp_path):
    pinned = json.loads(PINNED.read_text())[kind]
    assert pinned["argv"] == LINES[kind]
    got = raw_samples(LINES[kind], tmp_path / "report.json")
    assert sorted(got) == sorted(pinned["raw_samples"])
    for n, per_n in pinned["raw_samples"].items():
        assert sorted(got[n]) == sorted(per_n), n
    gate = _gate()
    assert gate.REL_TOL == 1e-9

    def arrays(raw):
        return {(int(n), key): np.asarray(xs, dtype=float)
                for n, per_n in raw.items() for key, xs in per_n.items()}

    assert gate.mismatched(arrays(got), arrays(pinned["raw_samples"])) == set()


def write_pinned(tmp: Path) -> None:
    data = {kind: {"argv": line, "raw_samples": raw_samples(line, tmp / f"{kind}.json")}
            for kind, line in LINES.items()}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(data) + "\n")
    print(f"wrote {PINNED}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_pinned(Path(tmp))
    sys.exit(0)
