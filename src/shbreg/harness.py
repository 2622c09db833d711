"""Monte Carlo ensembles, exact-expectation oracles, and bound verification.

The quantity the experiments report is the mean squared relative error of
the iterate across independent solver runs on one fixed data set; all
randomness is in the equation draws.  Besides the sampling estimator this
module carries an exact small-instance oracle (full path enumeration), a
constructor for instances whose truth has a known source representation
(so the rate-bound constant is computable, not guessed), semi-convergence
statistics, and a checker that compares an ensemble against a theoretical
bound with Monte Carlo slack.

Every estimator takes its runs from a :class:`shbreg.solvers.RunSpec`, whose
constructor checks their input, and steps them in lockstep blocks through
the one step loop of :mod:`shbreg.solvers`, on one of two paths that a rule
of the problem's shape and the spec picks (``solvers._uses_row_space``):

* primal runs with the l2 metric and ``2 p <= m`` step spectral row
  coordinates ``s``, p-vectors with ``x = x0 + K^T V s``, and record
  ``(||x0 - truth||^2 + s.(2 c + lam s)) / ||truth||^2`` (weighted norms),
  recomputed from ``x`` where cancellation has eaten its digits.  Recorded
  values stay within 1e-9 relative of a single :func:`run`'s errors, and
  the gate decides as :func:`run` does except at draws whose residual lies
  within 1e-9 relative of its floor, after which the two may part;
* all other runs step ``x`` (or a mirror run's dual variable), each run
  bit-identical to a single :func:`run` or :func:`run_mirror` along its
  draws, and one ``_error_functional`` serves :func:`rel_err_sq`, their
  traces and the squared truth norm of every :class:`EnsembleResult`, so
  traces match observer-side :func:`rel_err_sq` calls bit for bit.

On both paths a run's values are bit-identical across every split of the
runs into blocks and every worker count.  :func:`run` and
:func:`run_mirror` are the reference, and always step ``x``.
"""

import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from dataclasses import dataclass

from .problems import ProblemInstance
from .solvers import (RateConstants, RunSpec, _drive, _index_block, _run_block, _system,
                      _uses_row_space, resolve_base_steps)
# not called here: ensembles step blocks of runs through _drive.  The names
# stay importable because bench/tracing.py patches them.
from .solvers import run  # noqa: F401
from .mirror import run_mirror  # noqa: F401

__all__ = [
    "rel_err_sq",
    "EnsembleResult",
    "monte_carlo",
    "stability_gap_ensemble",
    "enumerate_expectation",
    "SourceConditionInstance",
    "source_condition_construct",
    "SemiStats",
    "semi_convergence_stats",
    "BoundReport",
    "bound_check",
    "write_csv",
]

ENUMERATION_GUARD = 1_000_000
# numbers a block of runs may hold at once: per run its n_iters row draws and
# about eight live state vectors (state, gathered rows, temporaries)
BLOCK_ELEMENTS = 1 << 20
# numbers of recorded states a block buffers before it evaluates them at once
RECORD_ELEMENTS = 1 << 15
# a row-space squared error below this fraction of ||x0 - truth||_w^2 has
# lost digits to cancellation and is recomputed from the iterate x
CANCELLATION = 1e-4


def _error_functional(truth, weights, metric):
    """``(denominator, error)``: the truth's squared weighted norm (l2) or the
    integral of its absolute value (l1), and iterate -> squared relative error.

    ``error`` maps an ``(m,)`` iterate to one value and an ``(R, m)`` block to
    R values, each bit-identical to the value of its row on its own.
    """
    if metric == "l2":
        denom = float(weights @ (truth * truth))

        def error(x):
            d = x - truth
            return np.vecdot(d * d, weights) / denom
    elif metric == "l1":
        denom = float(weights @ np.abs(truth))

        def error(x):
            ratio = np.vecdot(np.abs(x - truth), weights) / denom
            # squared as Python floats, whose power rounds a few values
            # differently from numpy's square
            return np.reshape([r**2 for r in np.ravel(ratio).tolist()], np.shape(ratio))
    else:
        raise ValueError("metric must be 'l2' or 'l1'")
    if denom == 0:
        raise ValueError("truth must have positive norm")
    return denom, error


def rel_err_sq(x, truth, grid, norm="l2"):
    """Squared relative error of an iterate against the truth.

    ``l2`` uses the weighted inner product; ``l1`` squares the ratio of the
    quadrature integrals of the absolute values.
    """
    x = np.asarray(x, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if x.shape != truth.shape:
        raise ValueError("iterate and truth must have equal length")
    return float(_error_functional(truth, grid.weights, norm)[1](x))


def _truth_norm_sq(spec):
    """Squared truth norm of the spec's metric, which :func:`bound_check`
    scales a relative trace by: the l2 denominator, or the l1 one squared."""
    denom, _ = _error_functional(spec.problem.truth, spec.problem.grid.weights, spec.metric)
    return denom if spec.metric == "l2" else denom**2


@dataclass(frozen=True)
class EnsembleResult:
    """Pointwise mean and standard error of squared relative errors.

    ``truth_norm_sq`` is stored so bound checks can convert the relative
    trace back to absolute units (the bounds are stated for absolute
    squared errors).
    """

    iters: np.ndarray
    mean_sq_rel_err: np.ndarray
    std_err: np.ndarray
    n_runs: int
    base_seed: int
    truth_norm_sq: float

    def __post_init__(self):
        if not (self.iters.shape == self.mean_sq_rel_err.shape == self.std_err.shape):
            raise ValueError("result vectors must share one length")
        if not (np.isfinite(self.mean_sq_rel_err).all() and np.isfinite(self.std_err).all()):
            raise ValueError("squared errors and standard errors must be finite")
        if np.any(self.mean_sq_rel_err < 0) or np.any(self.std_err < 0):
            raise ValueError("squared errors and standard errors are nonnegative")


def _row_space_error(spec, denom, error):
    """Squared relative l2 error of spectral row coordinates ``s`` (see
    :func:`shbreg.solvers._system`): one value per state of an array of
    them, ``||x - truth||_w^2 / denom`` at ``x = x0 + K^T V s``, that is
    ``(e0 + s.(2 c + lam s)) / denom`` with ``e0 = ||x0 - truth||_w^2`` and
    ``c = V^T Kw (x0 - truth)``.

    A value below ``CANCELLATION * e0`` is recomputed from that state's ``x``
    with ``error``, the primal functional.  Every product here is one dot
    product per state, so no value depends on the block or on the BLAS
    threads.
    """
    problem, bundle = spec.problem, spec.problem.bundle
    K = bundle.kernel_matrix
    lam, V = bundle.gram_eigensystem
    x0 = np.zeros(problem.m) if spec.x0 is None else spec.x0
    d0 = x0 - problem.truth
    # error(x0) * denom, bit for bit, so the start iterate matches the primal path
    e0 = np.vecdot(d0 * d0, problem.grid.weights)
    c2 = 2.0 * np.vecdot(V.T, np.vecdot(bundle.weighted_kernel_matrix, d0))
    low = CANCELLATION * e0

    def measure(s):
        q = lam * s
        q += c2
        sq = e0 + np.vecdot(s, q)
        values = sq / denom
        for at in zip(*np.nonzero(sq < low)):
            values[at] = error(x0 + np.vecdot(K.T, np.vecdot(V, s[at])))
        return values

    return measure


def _trace_context(spec):
    """Per-ensemble constants: recorded indices and their positions, whether
    the runs step in row space, and the squared relative error of an array
    of their states."""
    rec = spec.record_points()
    wanted = {int(v): k for k, v in enumerate(rec)}
    problem = spec.problem
    row_space = _uses_row_space(problem.p, problem.m, spec.metric, spec.regularizer)
    denom, error = _error_functional(problem.truth, problem.grid.weights, spec.metric)
    if row_space:
        error = _row_space_error(spec, denom, error)
    return rec, wanted, row_space, error


def _block_rows(dim, n_iters):
    """Runs per lockstep block: as many as BLOCK_ELEMENTS allows, at least one."""
    return max(1, BLOCK_ELEMENTS // (n_iters + 8 * dim))


def _recorder(wanted, out, measure, name, shape):
    """Observer of a block of runs whose states have ``shape`` ``(R, d)``, and
    the flush to call after the last step.

    The observer copies the state of each recorded step into a buffer of at
    most RECORD_ELEMENTS numbers.  A full buffer, and at the flush the last,
    partial one, goes to ``measure``, ``(R, k, d)`` -> one value per row of
    ``out`` and state, and the values land in the recorded steps' columns
    of ``out``.  Every measure here evaluates each state on its own, so no
    value depends on how many are buffered.  Raises ``ValueError`` naming
    the run (``name(row)``) and the first step whose value is not finite,
    which is how overflow from finite input shows.
    """
    chunk = max(1, min(len(wanted), RECORD_ELEMENTS // (shape[0] * shape[1])))
    buf = np.empty((shape[0], chunk, shape[1]))
    steps = []

    def flush():
        if not steps:
            return
        values = measure(buf[:, :len(steps)])
        bad = ~np.isfinite(values)
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            raise ValueError(f"{name(int(np.argmax(bad[:, k])))} turned non-finite "
                             f"at step {steps[k]}")
        out[:, [wanted[n] for n in steps]] = values
        steps.clear()

    def observer(n, state):
        if n in wanted:
            buf[:, len(steps)] = state
            steps.append(n)
            if len(steps) == chunk:
                flush()

    return observer, flush


def _trace_block(spec, base_seed, start, stop):
    """Error traces of runs ``start..stop-1`` (streams ``(base_seed, r)``), one
    row per run, stepped in lockstep blocks of at most :func:`_block_rows`."""
    rec, wanted, row_space, error = _trace_context(spec)
    problem = spec.problem
    dim = problem.p if row_space else problem.m
    traces = np.empty((stop - start, rec.size))
    rows = _block_rows(dim, spec.n_iters)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        idx = _index_block(base_seed, lo, hi, problem.p, spec.n_iters)
        observer, flush = _recorder(wanted, traces[lo - start:hi - start], error,
                                    lambda k: f"run {(base_seed, lo + k)}", (hi - lo, dim))
        _run_block(spec, idx, observer, row_space)
        flush()
    return traces


def _worker_count(n_runs):
    raw = os.environ.get("SHB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"SHB_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(workers, n_runs))


def _stream_base(base_seed):
    """``base_seed`` as a Python int, checked: the streams ``(base_seed, r)``
    need a nonnegative integer (a Python or numpy int)."""
    try:
        seed = operator.index(base_seed)
        if seed >= 0:
            return seed
    except TypeError:
        pass
    raise ValueError(f"base seed must be a nonnegative integer, got {base_seed!r}")


def _summarize(spec, traces, n_runs, base_seed):
    mean = traces.mean(axis=0)
    if n_runs == 1:
        std_err = np.zeros_like(mean)
    else:
        std_err = traces.std(axis=0, ddof=1) / np.sqrt(n_runs)
        # a constant column has zero sample variance exactly; the rounding of
        # the column mean would otherwise leak into both summaries
        constant = np.ptp(traces, axis=0) == 0
        mean[constant] = traces[0, constant]
        std_err[constant] = 0.0
    return EnsembleResult(
        iters=spec.record_points(),
        mean_sq_rel_err=mean,
        std_err=std_err,
        n_runs=n_runs,
        base_seed=base_seed,
        truth_norm_sq=_truth_norm_sq(spec),
    )


def monte_carlo(spec, n_runs, base_seed):
    """Average squared relative errors over independent runs.

    Run r draws its equation indices from the stream ``(base_seed, r)``, so
    the ensemble is reproducible and independent of execution order;
    ``base_seed`` must be a nonnegative integer (``ValueError`` otherwise,
    before any run).  Runs are stepped in lockstep blocks: the streams of a
    block are drawn together as arrays, each bit-identical to
    :func:`shbreg.solvers.index_stream`, and one pass of the step loop
    advances the whole block as ``(R, d)`` arrays.  On the primal path each
    run of a block performs the same floating-point operations as a single
    :func:`shbreg.solvers.run` (or :func:`shbreg.mirror.run_mirror`) along
    its stream, so its errors are bit-identical to that run's.  Primal l2
    runs with ``2 p <= m`` step in row space instead (see the module
    docstring), where each error stays within 1e-9 relative of that run's,
    gate ties aside.  Block sizes are capped by a fixed element count
    (``BLOCK_ELEMENTS``), so memory stays flat in the number of runs.
    The environment variable ``SHB_THREADS`` caps a process pool that splits
    the runs into contiguous ranges, one per worker; per-run traces are
    stacked in run order before reduction, so the result is identical for
    any worker count (a row-space spec's eigen-decomposition is made once,
    here, and sent to the workers with it).  Invalid input never gets this
    far: ``spec`` checked it when it was built.  A recorded error that turns
    non-finite (overflow from finite input) aborts the whole ensemble,
    serial or pooled, with a ``ValueError`` naming the run's stream key and
    the first such step.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    base_seed = _stream_base(base_seed)
    workers = _worker_count(n_runs)
    if workers == 1:
        traces = _trace_block(spec, base_seed, 0, n_runs)
    else:
        problem = spec.problem
        if _uses_row_space(problem.p, problem.m, spec.metric, spec.regularizer):
            # computed here, once, it travels to the workers with the spec:
            # they run no LAPACK or BLAS-3 call and all share its bits
            problem.bundle.gram_eigensystem
        bounds = np.linspace(0, n_runs, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_trace_block, spec, base_seed, lo, hi)
                       for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
            traces = np.vstack([f.result() for f in futures])
    return _summarize(spec, traces, n_runs, base_seed)


def stability_gap_ensemble(problem, data, policy, n_iters, n_runs, base_seed,
                           variant="shb", record=None):
    """Mean squared weighted gap between noisy- and exact-data runs.

    Each run replays one index path through both right-hand sides, so the
    gap isolates pure noise propagation; run r takes the stream
    ``(base_seed, r)`` as in :func:`monte_carlo`, with the same check of
    ``base_seed``.  The trace is normalized by the squared truth norm,
    matching the units of :class:`EnsembleResult`; :func:`bound_check`
    converts back.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    base_seed = _stream_base(base_seed)
    spec = RunSpec(problem=problem, policy=policy, n_iters=n_iters, data=data,
                   variant=variant, record=record)
    rec, wanted, row_space, _ = _trace_context(spec)
    scale = _truth_norm_sq(spec)
    p = problem.p
    # the exact-data runs step through a second copy of the system, rows
    # p..2p-1, that carries the exact data, so one block holds both halves
    # and each pair takes the same draws in lockstep
    K, Kw, y, base, floor = _system(spec, row_space)
    doubled = (np.vstack([K, K]), np.vstack([Kw, Kw]), np.concatenate([y, problem.exact_data]),
               np.tile(base, 2), None if floor is None else np.tile(floor, 2))
    # the squared weighted norm of a pair's gap d: of d itself, or in row
    # space of K^T V d, which is d.(lam d) and has no cancellation
    gap_weights = problem.bundle.gram_eigensystem[0] if row_space else problem.grid.weights
    dim = p if row_space else problem.m
    traces = np.empty((n_runs, rec.size))
    rows = max(1, _block_rows(dim, n_iters) // 2)
    for lo in range(0, n_runs, rows):
        hi = min(lo + rows, n_runs)
        idx = _index_block(base_seed, lo, hi, p, n_iters)
        half = hi - lo

        def gap(x):
            d = x[:half] - x[half:]
            return np.vecdot(d * d, gap_weights) / scale

        observer, flush = _recorder(wanted, traces[lo:hi], gap,
                                    lambda k: f"run {(base_seed, lo + k)}", (2 * half, dim))
        _drive(doubled, np.vstack([idx, idx + p]), np.zeros((2 * half, dim)),
               spec.variant == "shb", None, observer)
        flush()
    return _summarize(spec, traces, n_runs, base_seed)


def enumerate_expectation(problem, data, policy, n_steps, variant="shb", metric="l2", x0=None):
    """Exact expected squared relative errors over all equiprobable index paths.

    Enumerates the p**n_steps paths of length ``n_steps`` and averages the
    per-step errors exactly; an independent oracle for what
    :func:`monte_carlo` estimates.  Guarded at 10**6 paths.  The paths are
    stepped in lockstep blocks, on the path :func:`monte_carlo` takes, and
    summed in path order.
    """
    p = problem.p
    if p**n_steps > ENUMERATION_GUARD:
        raise ValueError(f"enumeration of {p}**{n_steps} paths exceeds the guard")
    spec = RunSpec(problem=problem, policy=policy, n_iters=n_steps, data=data,
                   variant=variant, metric=metric, x0=x0,
                   record=np.arange(n_steps + 1))
    rec, wanted, row_space, error = _trace_context(spec)
    dim = p if row_space else problem.m
    count = p**n_steps
    # path k in itertools.product order: the base-p digits of k
    place = p ** np.arange(n_steps - 1, -1, -1)
    total = np.zeros(n_steps + 1)
    rows = _block_rows(dim, n_steps)
    for lo in range(0, count, rows):
        idx = (np.arange(lo, min(lo + rows, count))[:, None] // place) % p
        out = np.empty((len(idx), rec.size))
        observer, flush = _recorder(wanted, out, error,
                                    lambda k: f"path {tuple(idx[k].tolist())}", (len(idx), dim))
        _run_block(spec, idx, observer, row_space)
        flush()
        for trace in out:
            total += trace
    return total / count


@dataclass(frozen=True)
class SourceConditionInstance:
    """An instance whose truth is x0 plus an adjoint image, with its m0.

    Because the representer is chosen first, the source energy entering the
    rate bound is exactly computable instead of unknown.
    """

    problem: ProblemInstance
    lambda_dagger: np.ndarray
    x0: np.ndarray
    m0: float


def source_condition_construct(bundle, lambda_dagger, x0, policy):
    """Build an instance with truth = x0 + (adjoint of the stacked map) lambda.

    The exact data is synthesized from the constructed truth, and
    ``m0 = ||x0 - truth||_w^2 + c0 * sum_i lambda_i^2 / eta_i`` is evaluated
    against the policy's steps.  The instance lives on the bundle's grid.
    """
    lam = np.asarray(lambda_dagger, dtype=float)
    if lam.shape != (bundle.p,):
        raise ValueError("need one representer component per equation")
    start = np.zeros(bundle.grid.m) if x0 is None else np.asarray(x0, dtype=float)
    truth = start + bundle.adjoint_all(lam)
    base = resolve_base_steps(policy, bundle)
    constants = RateConstants.for_policy(bundle, policy)
    m0 = bundle.grid.norm_sq(start - truth) + constants.c0 * float(np.sum(lam**2 / base))
    problem = ProblemInstance(
        name="source-condition",
        grid=bundle.grid,
        sample_points=np.arange(bundle.p, dtype=float),
        bundle=bundle,
        truth=truth,
        exact_data=bundle.apply_all(truth),
    )
    return SourceConditionInstance(problem=problem, lambda_dagger=lam, x0=start, m0=m0)


@dataclass(frozen=True)
class SemiStats:
    """Location and depth of an error trace's minimum, and its final value."""

    n_min: int
    err_min: float
    err_final: float


def semi_convergence_stats(trace):
    """Minimum of the mean trace (first index on ties) and its final value."""
    if trace.iters.size == 0:
        raise ValueError("trace is empty")
    k = int(np.argmin(trace.mean_sq_rel_err))
    return SemiStats(
        n_min=int(trace.iters[k]),
        err_min=float(trace.mean_sq_rel_err[k]),
        err_final=float(trace.mean_sq_rel_err[-1]),
    )


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a bound check; violations list (iteration, value, allowance)."""

    passed: bool
    violations: tuple

    def __bool__(self):
        return self.passed


def bound_check(trace, bound_fn):
    """Check a trace against a pointwise bound with Monte Carlo slack.

    The bounds are stated for absolute squared errors, so the stored relative
    trace and its standard error are first scaled by the ensemble's squared
    truth norm.  Passes iff ``value[k] <= bound_fn(iters[k]) + 3 * se[k]`` at
    every recorded iteration; a non-finite allowance (a bound that is NaN or
    infinite) counts as a violation.
    """
    scale = trace.truth_norm_sq
    violations = []
    for k, n in enumerate(trace.iters):
        value = trace.mean_sq_rel_err[k] * scale
        allowance = bound_fn(int(n)) + 3.0 * trace.std_err[k] * scale
        if not (value <= allowance < math.inf):
            violations.append((int(n), float(value), float(allowance)))
    return BoundReport(passed=not violations, violations=tuple(violations))


def write_csv(trace, path):
    """Write a trace as ``iter,mean_sq_rel_err,std_err`` rows (LF endings).

    A file that already holds exactly these bytes is left as it is: reruns
    write the same bytes, and rewriting a file truncates it, which some file
    systems (ext4) answer with a flush on close that costs tens of
    milliseconds where the comparison costs microseconds.
    """
    rows = [f"{int(n)},{mean:.12e},{se:.12e}\n"
            for n, mean, se in zip(trace.iters, trace.mean_sq_rel_err, trace.std_err)]
    content = "".join(["iter,mean_sq_rel_err,std_err\n", *rows]).encode("ascii")
    try:
        with open(path, "rb") as fh:
            if fh.read(len(content) + 1) == content:
                return
    except OSError:
        pass  # missing or unreadable: writing reports what is wrong
    with open(path, "wb") as fh:
        fh.write(content)
