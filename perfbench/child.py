"""Run one ``skcw`` command line in this fresh interpreter and time it.

    python3 perfbench/child.py ROOT RESULT_JSON TRACE -- SKCW_ARGV...

Imports ``skcw.cli`` from ROOT/src (timed: that is ``setup_s``), optionally
installs the tracer, then calls ``skcw.cli.main(argv)`` and writes the
timings, resource usage, exit code and spans to RESULT_JSON.  BLAS thread
variables are left as the caller's environment has them.
"""

import json
import os
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    root, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import skcw.cli

    setup_s = time.perf_counter() - t0
    if not os.path.abspath(skcw.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"skcw was imported from {skcw.cli.__file__}, not {src}\n")
        return 1
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    error = None
    w0 = time.perf_counter()
    try:
        code = skcw.cli.main(argv)
    except Exception as exc:  # the gate counts a raising run as all-failed
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - w0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    result = {
        "exit": code,
        "error": error,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "report_bytes": os.path.getsize(out) if out and os.path.exists(out) else 0,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["bindings"] = tracer.bindings
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
