"""Measurement of one workload: timed passes, checks, probes and metrics.

Imported by ``run.py`` once the checkout's ``src/`` is on the path.
"""

import contextlib
import hashlib
import json
import multiprocessing
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import shbreg
from checks import (oracle_errors, reference_errors, reference_stream, simplex_errors,
                    trace_errors)
from shbreg import bundle_norm_sq, run, run_mirror
from tracing import REFERENCE_CAL_S, Calibrator, Tracer, calibrate, pass_layers
from workloads import run_pass, threads_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
SOLVE_SITES = ("harness.monte_carlo", "harness.enumerate_expectation")
MIN_PASSES = 3
# runs in each reference check, and at least two per pool worker: runs
# after the first (of each pool block) and the standard error get checked
REF_RUNS = 3
PROBE_STEPS = 20000
PROBE_PATH = 5000

# name -> unit; the end-to-end metrics come from untraced runs
END_TO_END = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# the per-layer metrics every workload reports in its JSON line; the full
# per-layer table (with layers that run on some workloads only) is printed
# and written to the result file
PER_LAYER = {
    "problems.build_s": "s",
    "linops.norm_s": "s",
    "harness.monte_carlo_s": "s",
    "harness.monte_carlo_calls": "count",
    "harness.self_s": "s",
    "harness.write_csv_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.steps": "count",
    "trace.overhead_frac": "ratio",
}
LAYER_UNITS = {
    **PER_LAYER,
    "solvers.index_stream_s": "s",
    "solvers.index_stream_calls": "count",
    "solvers.run_s": "s",
    "solvers.run_calls": "count",
    "solvers.step_us": "us",
    "solvers.kernel_step_us": "us",
    "solvers.gated_frac": "ratio",
    "mirror.run_s": "s",
    "mirror.run_calls": "count",
    "mirror.step_us": "us",
    "mirror.kernel_step_us": "us",
    "mirror.map_s": "s",
    "mirror.map_calls": "count",
    "mirror.map_us": "us",
    "mirror.gated_frac": "ratio",
    "harness.observe_us": "us",
    "harness.enumerate_s": "s",
    "harness.enumerate_paths": "count",
    "harness.pool_s": "s",
    "harness.pool_blocks": "count",
    "harness.pickle_bytes": "bytes",
    "harness.pool_speedup": "ratio",
    "plots.svg_s": "s",
}


def setup_sample(workload, seed):
    """Seconds of import + problem build + noise synthesis in a fresh
    interpreter, as measured."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["s"]


def memory_sample(workload, seed):
    """Peak resident memory of one pass, run in a fresh interpreter: its own
    peak plus, on the pool, the peak of its largest worker."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--memory-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe failed: {proc.stderr.strip()}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["value"] = (sample["self_kb"] + sample["worker_kb"]) / 1024.0
    return sample


class Session:
    """Operations attempted in one invocation and the checks they failed."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.ops = []  # (operation, [errors])
        self.first_csv = {}  # (problem name, ensemble label) -> (operation, bytes)

    def record(self, name, errors):
        self.ops.append((name, list(errors)))

    @property
    def failed(self):
        return sum(1 for _, errors in self.ops if errors)

    def check_pass(self, tag, plan, res):
        for ens in plan.ensembles:
            errors = trace_errors(res.results[ens.label], ens.spec)
            key = (plan.problem.name, ens.label)
            first = self.first_csv.setdefault(key, (tag, res.csv_bytes[ens.label]))
            if first[1] != res.csv_bytes[ens.label]:
                errors.append(f"CSV differs from the one written by {first[0]}")
            if plan.enumerate:
                exact = res.exact[ens.label]
                self.record(f"{tag}:enumerate_{ens.label}",
                            [] if exact.ndim == 1 and (exact >= 0).all() else
                            ["enumeration is not a nonnegative trace"])
                errors += oracle_errors(res.results[ens.label], exact)
            self.record(f"{tag}:{ens.label}", errors)

    def check_phase(self, plan):
        """Checks that need their own runs: reference recursion, simplex,
        worker-count invariance."""
        os.environ["SHB_THREADS"] = str(plan.threads)
        k = max(REF_RUNS, 2 * plan.threads)
        check_csv = {}
        for ens in plan.ensembles:
            path = self.out_dir / f"check_{plan.workload}_{ens.label}.csv"
            errors, check_csv[ens.label] = reference_errors(ens.spec, ens.base_seed, k, path)
            self.record(f"reference:{ens.label}", errors)
        if plan.regularizer is not None:
            self.record("simplex", simplex_errors(plan))
        if plan.threads > 1:
            os.environ["SHB_THREADS"] = "1"
            for ens in plan.ensembles:
                path = self.out_dir / f"check_{plan.workload}_{ens.label}_serial.csv"
                _, serial = reference_errors(ens.spec, ens.base_seed, k, path)
                self.record(f"workers:{ens.label}", [] if serial == check_csv[ens.label]
                            else ["CSV depends on the worker count"])
            os.environ["SHB_THREADS"] = str(plan.threads)


def run_passes(session, workload, seed, seconds, tag, shims=False, between=None):
    """Passes back to back until they have taken ``seconds`` in all (at least
    MIN_PASSES).

    Each of the benchmark's calls into the library is a root span, bracketed
    by calibrations, of the tracer this returns; with ``shims`` the traced
    mode's shims add the library's own spans.  A pass's ``wall_s`` and
    ``solve_s`` sum its root spans at the reference host speed.  ``between``
    runs after every pass, and its time does not count.
    """
    samples = []
    with Calibrator(threads_of(workload)) as calibrator:
        tracer = Tracer(calibrator)
        with tracer.installed() if shims else contextlib.nullcontext():
            spent = 0.0
            while len(samples) < MIN_PASSES or spent < seconds:
                started = time.perf_counter()
                lo = len(tracer.spans)
                plan, res = run_pass(workload, seed, session.out_dir, tracer.span)
                session.check_pass(f"{tag}{len(samples)}", plan, res)
                roots = [(name, (t1 - t0) * tracer.scale(trace_id))
                         for name, trace_id, parent, t0, t1, _ in tracer.spans[lo:]
                         if parent == -1]
                samples.append({"wall_s": sum(t for _, t in roots),
                                "solve_s": sum(t for name, t in roots if name in SOLVE_SITES),
                                "raw_wall_s": res.wall_s, "steps": res.steps,
                                "csv_bytes": sum(len(b) for b in res.csv_bytes.values()),
                                "spans": (lo, len(tracer.spans))})
                spent += time.perf_counter() - started
                if between:
                    between()
    return plan, samples, tracer


def end_to_end(samples):
    """Wall time and steps/s of a pass at the reference host speed, the
    median over the passes.  See README.md, "Steadiness", for the scaling."""
    wall_s = statistics.median(s["wall_s"] for s in samples)
    steps_per_s = statistics.median(s["steps"] / s["solve_s"] for s in samples)
    return wall_s, steps_per_s


def replay(plan, spec, path, observer):
    """One run of ``spec`` along an explicit index path, through public
    ``run`` or ``run_mirror``."""
    if spec.regularizer is not None:
        run_mirror(plan.problem, spec.data, spec.regularizer, spec.policy, 0,
                   observer=observer, index_path=path)
    else:
        run(plan.problem, spec.data, spec.policy, 0, variant=spec.variant,
            observer=observer, index_path=path)


def kernel_probe(plan):
    """Per-step time of the bare kernel: sample index paths of the workload's
    ensembles (at most PROBE_PATH steps each, PROBE_STEPS per ensemble)
    replayed through public run / run_mirror with a no-op observer; the
    median over replays."""

    def noop(n, x):
        return None

    samples = []
    for ens in plan.ensembles:
        spec = ens.spec
        length = min(spec.n_iters, PROBE_PATH)
        for r in range(PROBE_STEPS // length):
            path = reference_stream(ens.base_seed, r, plan.problem.p, spec.n_iters)[:length]
            t0 = time.perf_counter()
            replay(plan, spec, path, noop)
            samples.append((time.perf_counter() - t0) / length)
    return 1e6 * statistics.median(samples)


def scaled(fn):
    """The time ``fn()`` returns, converted to the reference host speed by
    calibrations before and after the call."""
    before = calibrate()
    elapsed = fn()
    return elapsed * 2 * REFERENCE_CAL_S / (before + calibrate())


def gated_fraction(plan):
    """Share of discrepancy-policy draws whose step the gate zeroed, from a
    replay whose observer evaluates |Kw[i] x - y_i| <= tau * level_i."""
    gated = draws = 0
    for ens in plan.ensembles:
        spec = ens.spec
        if spec.policy.kind != "discrepancy":
            continue
        Kw = plan.problem.bundle.weighted_kernel_matrix
        y = spec.data.values
        floor = spec.policy.tau * spec.policy.per_eq_levels
        for r in range(ens.runs):
            path = reference_stream(ens.base_seed, r, plan.problem.p, spec.n_iters)
            hits = [0]

            def gate(n, x, path=path, hits=hits):
                if n < path.size:
                    i = path[n]
                    if abs(Kw[i] @ x - y[i]) <= floor[i]:
                        hits[0] += 1

            replay(plan, spec, path, gate)
            gated += hits[0]
            draws += path.size
    return gated / draws if draws else None


def measure_untraced(session, workload, seed, seconds):
    # set-up samples spread over the run: the host's speed changes in phases
    # of seconds, and samples taken back to back would all fall in one
    setup = []
    plan, samples, tracer = run_passes(session, workload, seed, seconds, "pass",
                                       between=lambda: setup.append(setup_sample(workload, seed)))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload, seed))
    # set-up is scaled by the host speed over the whole run: one calibration
    # next to a sample is as noisy as the sample (README.md, "Steadiness")
    run_cal_s = statistics.median(tracer.cal.values())
    memory = memory_sample(workload, seed)
    session.check_phase(plan)
    wall_s, steps_per_s = end_to_end(samples)
    metrics = {
        "wall_s": wall_s,
        "steps_per_s": steps_per_s,
        "setup_s": statistics.median(setup) * REFERENCE_CAL_S / run_cal_s,
        "peak_rss_mb": memory["value"],
    }
    detail = {"setup_samples": setup, "run_cal_s": run_cal_s, "memory_sample": memory,
              "passes": samples}
    return plan, metrics, detail


def measure_traced(session, workload, seed, seconds):
    """Half the time untraced (the overhead baseline), half traced, then probes."""
    pool = threads_of(workload) > 1
    _, base, _ = run_passes(session, workload, seed, seconds / 2, "base")
    plan, traced, tracer = run_passes(session, workload, seed, seconds / (4 if pool else 2),
                                      "traced", shims=True)
    serial = None
    if pool:
        # the pool's serial counterpart: same ensembles and seeds, one worker
        _, serial, _ = run_passes(session, "ex1-primal", seed, seconds / 4, "serial")
    kernel_us = scaled(lambda: kernel_probe(plan))
    kernel_traced_us = kernel_us
    if plan.regularizer is not None:
        # the mirror kernel calls the shimmed mirror_map: replay it under the
        # shims too, so observe_us excludes the shim cost
        with Tracer().installed():
            kernel_traced_us = scaled(lambda: kernel_probe(plan))

    def timed_norm():
        t0 = time.perf_counter()
        bundle_norm_sq(plan.problem.bundle)
        return time.perf_counter() - t0

    norm_s = [scaled(timed_norm) for _ in range(5)]
    gated = gated_fraction(plan)
    session.check_phase(plan)

    # per-layer times are medians over the passes at the reference host
    # speed; counts must be the same in every pass
    layers = [pass_layers(tracer, *t["spans"]) for t in traced]
    counts = ("index_stream_calls", "solvers.run_calls", "mirror.run_calls", "mirror.map_calls",
              "monte_carlo_calls", "enumerate_paths", "solvers.run_steps", "mirror.run_steps")
    for key in counts:
        if len({layer[key] for layer in layers}) != 1:
            session.record(f"counter:{key}", [f"{key} differs between passes"])

    def layer_s(key):
        return statistics.median(layer[key] for layer in layers)

    first = layers[0]
    m = {
        "problems.build_s": layer_s("build_s"),
        "linops.norm_s": statistics.median(norm_s),
        "harness.monte_carlo_s": layer_s("monte_carlo_s"),
        "harness.monte_carlo_calls": first["monte_carlo_calls"],
        "harness.self_s": layer_s("monte_carlo_self_s"),
        "harness.write_csv_s": layer_s("write_csv_s"),
        "harness.csv_bytes": traced[0]["csv_bytes"],
        "harness.steps": traced[0]["steps"],
        "trace.overhead_frac": end_to_end(traced)[0] / end_to_end(base)[0] - 1.0,
    }
    layer = "mirror" if plan.regularizer is not None else "solvers"
    if first["index_stream_calls"]:
        m["solvers.index_stream_s"] = layer_s("index_stream_s")
        m["solvers.index_stream_calls"] = first["index_stream_calls"]
    if first[f"{layer}.run_calls"]:
        run_s, steps = layer_s(f"{layer}.run_s"), first[f"{layer}.run_steps"]
        m[f"{layer}.run_s"] = run_s
        m[f"{layer}.run_calls"] = first[f"{layer}.run_calls"]
        m[f"{layer}.step_us"] = 1e6 * run_s / steps
        m["harness.observe_us"] = (1e6 * (run_s - layer_s("index_stream_s")) / steps
                                   - kernel_traced_us)
    m[f"{layer}.kernel_step_us"] = kernel_us
    if gated is not None:
        m[f"{layer}.gated_frac"] = gated
    if first["mirror.map_calls"]:
        m["mirror.map_s"] = layer_s("mirror.map_s")
        m["mirror.map_calls"] = first["mirror.map_calls"]
        m["mirror.map_us"] = 1e6 * m["mirror.map_s"] / m["mirror.map_calls"]
    if first["enumerate_paths"]:
        m["harness.enumerate_s"] = layer_s("enumerate_s")
        m["harness.enumerate_paths"] = first["enumerate_paths"]
    if plan.svg_title:
        m["plots.svg_s"] = layer_s("svg_s")
    if serial:
        blocks = pickled = 0
        for ens in plan.ensembles:
            cuts = np.linspace(0, ens.runs, plan.threads + 1).astype(int)
            n = int(np.count_nonzero(np.diff(cuts)))
            blocks += n
            pickled += n * len(pickle.dumps(ens.spec))
        m["harness.pool_s"] = layer_s("monte_carlo_s")
        m["harness.pool_blocks"] = blocks
        m["harness.pickle_bytes"] = pickled
        m["harness.pool_speedup"] = end_to_end(base)[1] / end_to_end(serial)[1]
    spans_path = session.out_dir / f"{workload}-seed{seed}.spans.csv"
    tracer.write(spans_path)
    detail = {"untraced_passes": base, "serial_passes": serial, "traced_passes": traced,
              "pass_layers": layers, "spans_file": spans_path.name,
              "span_count": len(tracer.spans)}
    return plan, m, detail


def _git_sha():
    # the ceiling keeps git from looking for a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(plan):
    src = hashlib.sha256()
    for path in sorted((SRC / "shbreg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "shbreg": shbreg.__version__,
        "git_sha": _git_sha(),
        "source_sha256": src.hexdigest(),
        "SHB_THREADS": plan.threads,
        "mp_start_method": (multiprocessing.get_start_method(allow_none=True)
                            or multiprocessing.get_all_start_methods()[0]),
        "ensembles": [{"label": e.label, "runs": e.runs, "steps": e.spec.n_iters,
                       "base_seed": e.base_seed} for e in plan.ensembles],
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(session, workload, seed, seconds, trace):
    attempted0, failed0 = len(session.ops), session.failed
    measure_fn = measure_traced if trace else measure_untraced
    plan, metrics, detail = measure_fn(session, workload, seed, seconds)
    attempted = len(session.ops) - attempted0
    failed = session.failed - failed0
    units = LAYER_UNITS if trace else END_TO_END
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{seconds:g} s) ==")
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"  {name:28s} {'n/a' if value is None else _fmt(value):>14s} {unit}")
    print(f"  {'fail_frac':28s} {_fmt(failed / attempted):>14s} "
          f"({failed} of {attempted} operations failed their checks)")
    for name, errors in session.ops[attempted0:]:
        for error in errors:
            print(f"  FAILED {name}: {error}")
    result = {"provenance": provenance(plan), "trace": int(trace), "seconds": seconds,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "attempted": attempted, "failed": failed,
              "failures": [[n, e] for n, e in session.ops[attempted0:] if e],
              "detail": detail}
    with open(session.out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return metrics


