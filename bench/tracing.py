"""Timing for the benchmark: host-speed calibration, spans and per-layer totals.

A span is ``(name, trace_id, parent, start, end, work)``: ``parent`` is the
index of the enclosing span (-1 for a root), every root span opens a new
trace id that its descendants share, and ``work`` is the number of solver
steps (or calls) the span covers.  Spans are kept in memory and written to a
CSV file when the run ends.

Every pass records a span around each of the benchmark's own calls into the
library, traced or not.  Only the traced mode also installs shims on
module globals that the library resolves at call time: ``harness.run`` and
``harness.run_mirror`` (what ``monte_carlo`` and ``enumerate_expectation``
call), ``solvers.index_stream`` and ``mirror.index_stream`` (what ``run`` and
``run_mirror`` call) and ``mirror.mirror_map``.  In a process pool the
workers inherit the shims but their spans stay in the children, so only
parent-side spans are reported.
"""

import contextlib
import csv
import importlib
import multiprocessing
import time

import numpy as np

SHIMS = (
    ("shbreg.harness", "run", "solvers.run"),
    ("shbreg.harness", "run_mirror", "mirror.run"),
    ("shbreg.solvers", "index_stream", "solvers.index_stream"),
    ("shbreg.mirror", "index_stream", "mirror.index_stream"),
    ("shbreg.mirror", "mirror_map", "mirror.map"),
)


def _steps_of(name):
    """Steps a shimmed call covers, read from its arguments; None counts calls."""
    # run(problem, data, policy, n_iters, ...) and
    # run_mirror(problem, data, reg, policy, n_iters, ...)
    pos = {"solvers.run": 3, "mirror.run": 4}.get(name)
    if pos is None:
        return None

    def steps(args, kwargs):
        path = kwargs.get("index_path")
        if path is not None:
            return len(path)
        return kwargs["n_iters"] if "n_iters" in kwargs else args[pos]

    return steps


# host speed the benchmark's times are scaled to: calibrate() takes this long
REFERENCE_CAL_S = 0.0025


class Tracer:
    """In-memory span recorder.

    With a ``calibrate`` callable, every root span is bracketed by two
    calibrations, taken outside its timing, and :meth:`scale` converts the
    times of its trace to the reference host speed.
    """

    def __init__(self, calibrate=None):
        self.spans = []
        self.cal = {}  # trace id -> mean of the calibrations around its root
        self._calibrate = calibrate
        self._cal_before = None
        self._stack = []  # (span index, trace id) of the open spans
        self._traces = 0

    def scale(self, trace_id):
        return REFERENCE_CAL_S / self.cal[trace_id] if self._calibrate else 1.0

    def _open(self):
        if self._stack:
            trace_id = self._stack[-1][1]
            parent = self._stack[-1][0]
        else:
            if self._calibrate:
                self._cal_before = self._calibrate()
            trace_id = self._traces
            self._traces += 1
            parent = -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append((idx, trace_id))
        return idx, trace_id, parent

    def _close(self, idx, trace_id, parent, name, t0, work):
        self.spans[idx] = (name, trace_id, parent, t0, time.perf_counter(), work)
        self._stack.pop()
        if not self._stack and self._calibrate:
            self.cal[trace_id] = (self._cal_before + self._calibrate()) / 2

    @contextlib.contextmanager
    def span(self, name):
        idx, trace_id, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, trace_id, parent, name, t0, 1)

    def wrap(self, name, fn):
        steps = _steps_of(name)
        clock = time.perf_counter

        def shim(*args, **kwargs):
            idx, trace_id, parent = self._open()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, trace_id, parent, name, t0,
                            steps(args, kwargs) if steps else 1)

        return shim

    @contextlib.contextmanager
    def installed(self):
        """Install the shims for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in SHIMS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "trace_id", "parent", "start_s", "end_s", "work",
                          "scale"])
            for k, (name, trace_id, parent, t0, t1, work) in enumerate(self.spans):
                out.writerow([k, name, trace_id, parent, f"{t0:.9f}", f"{t1:.9f}", work,
                              f"{self.scale(trace_id):.6f}"])


_CAL_ROWS = np.random.default_rng(2406).standard_normal((8, 1000))
_CAL_SMALL = np.random.default_rng(16814).standard_normal((3, 8))


def calibrate():
    """Seconds a fixed reference computation takes right now.

    The computation mixes what the workloads do: m=1000 heavy-ball-style
    vector updates, an entropy-style normalised exponential, and many tiny
    numpy calls driven from Python.  It uses numpy only, so no change to the
    library can move it.
    """
    t0 = time.perf_counter()
    x = np.zeros(1000)
    z = np.zeros(1000)
    for k in range(200):
        v = _CAL_ROWS[k % 8]
        r = float(v @ x) - 1.0
        z = z - (1e-4 * r) * v
        x = ((k + 1.0) * x + z) / (k + 2.0)
        if k % 2:
            e = np.exp(x - x.max())
            x = e / float(e.sum())
    seen = {}
    small = np.zeros(8)
    for k in range(300):
        seen[k] = float(_CAL_SMALL[k % 3] @ small) + len(seen)
    return time.perf_counter() - t0


def _calibration_helper(conn):
    while conn.recv():
        conn.send(calibrate())


class Calibrator:
    """Host speed across ``width`` CPUs: :func:`calibrate` run at the same
    time in this process and in ``width - 1`` helper processes, averaged.

    A workload that keeps two worker processes busy is slowed by either
    CPU's contention, so its spans are scaled by both.  Use as a context
    manager; the helpers are stopped and joined on exit.
    """

    def __init__(self, width=1):
        self.width = width
        self._helpers = []

    def __enter__(self):
        # fork like the library's own pool; spawn would also start
        # multiprocessing's resource tracker, which outlives this process
        ctx = multiprocessing.get_context("fork")
        for _ in range(self.width - 1):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_calibration_helper, args=(theirs,))
            proc.start()
            self._helpers.append((proc, mine))
        return self

    def __exit__(self, *exc):
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers = []

    def __call__(self):
        for _, conn in self._helpers:
            conn.send(True)
        times = [calibrate()] + [conn.recv() for _, conn in self._helpers]
        return sum(times) / len(times)


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans, lo, hi):
    """Self time of each span in ``spans[lo:hi]``: its duration minus the part
    of it covered by its direct children."""
    children = {}
    for k in range(lo, hi):
        parent = spans[k][2]
        if parent >= lo:
            children.setdefault(parent, []).append((spans[k][3], spans[k][4]))
    return {k: (spans[k][4] - spans[k][3]) - _union_length(children.get(k, ()))
            for k in range(lo, hi)}


def pass_layers(tracer, lo, hi):
    """Per-layer totals of one pass, from the spans it recorded, at the
    reference host speed."""
    spans = tracer.spans
    selfs = self_times(spans, lo, hi)
    agg = {}
    for k in range(lo, hi):
        name, trace_id, parent, t0, t1, work = spans[k]
        scale = tracer.scale(trace_id)
        a = agg.setdefault(name, {"s": 0.0, "calls": 0, "work": 0, "self_s": 0.0})
        a["s"] += (t1 - t0) * scale
        a["calls"] += 1
        a["work"] += work
        a["self_s"] += selfs[k] * scale

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    enum_runs = sum(1 for k in range(lo, hi) if spans[k][0] == "solvers.run"
                    and spans[k][2] >= lo and spans[spans[k][2]][0]
                    == "harness.enumerate_expectation")
    # index_stream time inside the run spans, so observe_us is the run span
    # per step minus stream set-up and minus the bare kernel
    stream_s = get("solvers.index_stream", "s") + get("mirror.index_stream", "s")
    return {
        "build_s": get("problems.build", "s"),
        "index_stream_s": stream_s,
        "index_stream_calls": get("solvers.index_stream", "calls")
        + get("mirror.index_stream", "calls"),
        "solvers.run_s": get("solvers.run", "s"),
        "solvers.run_calls": get("solvers.run", "calls"),
        "solvers.run_steps": get("solvers.run", "work"),
        "mirror.run_s": get("mirror.run", "s"),
        "mirror.run_calls": get("mirror.run", "calls"),
        "mirror.run_steps": get("mirror.run", "work"),
        "mirror.map_s": get("mirror.map", "s"),
        "mirror.map_calls": get("mirror.map", "calls"),
        "monte_carlo_s": get("harness.monte_carlo", "s"),
        "monte_carlo_calls": get("harness.monte_carlo", "calls"),
        "monte_carlo_self_s": get("harness.monte_carlo", "self_s"),
        "enumerate_s": get("harness.enumerate_expectation", "s"),
        "enumerate_paths": enum_runs,
        "write_csv_s": get("harness.write_csv", "s"),
        "svg_s": get("plots.line_plot_svg", "s"),
    }
