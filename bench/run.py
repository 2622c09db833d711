#!/usr/bin/env python3
"""Ensemble benchmark of shbreg: closed-loop workloads with checked outputs.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload ex1-primal --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload oracle-tiny --trace 1 # per-layer table

One client issues passes of the workload back to back for ``--seconds``.
Untraced runs report the end-to-end metrics; traced runs (``--trace 1``)
spend half the time untraced and half with spans recorded, and report the
per-layer metrics and the tracing overhead.  Every output is checked; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Result files (metrics,
per-pass samples, provenance) and span files go to ``bench/out/``.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("ex1-primal", "ex2-entropy", "oracle-tiny", "ex1-pool2")


def import_library():
    """Load shbreg from this checkout's ``src/``, never from anywhere else."""
    pkg = SRC / "shbreg"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no shbreg package under {SRC}; run from a checkout")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import shbreg

    if Path(shbreg.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: shbreg was imported from {shbreg.__file__}, not {pkg}")
    return shbreg


def setup_probe(workload, seed):
    """Body of one set-up sample, run in a fresh interpreter: the timed set-up.

    numpy is imported before the clock starts: its import is most of a fresh
    interpreter's start-up, no change to the library can move it, and on a
    busy host it varies by more than the library's whole set-up.
    """
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import_library()
    from workloads import build_problem

    build_problem(workload, seed)
    print(json.dumps({"s": time.perf_counter() - t0}))


def peak_rss_kb():
    """Peak resident set of this process's memory map (VmHWM).  Not
    ru_maxrss, which after exec keeps the peak of the process that spawned
    this one."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def memory_probe(workload, seed):
    """Body of one memory sample, run in a fresh interpreter: one untraced
    pass, then the peak resident set of this process and of its largest
    pool worker (0 when the workload has no pool)."""
    import_library()
    from workloads import run_pass

    OUT.mkdir(exist_ok=True)
    run_pass(workload, seed, OUT, contextlib.nullcontext)
    print(json.dumps({"self_kb": peak_rss_kb(),
                      "worker_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--memory-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.memory_probe:
        memory_probe(args.workload, args.seed)
        return 0
    import_library()
    import measure

    OUT.mkdir(exist_ok=True)
    session = measure.Session(OUT)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reported = measure.PER_LAYER if args.trace else measure.END_TO_END
    out = {}
    for name in names:
        metrics = measure.run_workload(session, name, args.seed, args.seconds, args.trace)
        for key, unit in reported.items():
            label = key if len(names) == 1 else f"{name}.{key}"
            out[label] = {"value": metrics[key], "unit": unit}
    print(json.dumps({"correct": session.failed == 0, "attempted": len(session.ops),
                      "failed": session.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
