"""Monte Carlo ensembles, exact-expectation oracles, and bound verification.

The quantity the experiments report is the mean squared relative error of
the iterate across independent solver runs on one fixed data set; all
randomness is in the equation draws.  Besides the sampling estimator this
module carries an exact small-instance oracle (full path enumeration), a
constructor for instances whose truth has a known source representation
(so the rate-bound constant is computable, not guessed), semi-convergence
statistics, and a checker that compares an ensemble against a theoretical
bound with Monte Carlo slack.

Every estimator steps its runs in lockstep blocks through the one step loop
of :mod:`shbreg.solvers`, each run bit-identical to a single :func:`run`
along its draws.  One ``_error_functional`` serves :func:`rel_err_sq`, the
traces of :func:`monte_carlo` and :func:`enumerate_expectation` and
``RunSpec.truth_norm_sq``, so traces match observer-side :func:`rel_err_sq`
calls bit for bit; ensembles raise the ``ValueError`` of their runs.
"""

import operator
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from dataclasses import dataclass

from .problems import ProblemInstance
from .solvers import (VARIANTS, RateConstants, _drive, _index_block, _prepare, _primal_start,
                      resolve_base_steps)
from .mirror import _dual_start
# not called here: ensembles step blocks of runs through _drive.  The names
# stay importable because bench/tracing.py patches them.
from .solvers import run  # noqa: F401
from .mirror import run_mirror  # noqa: F401

__all__ = [
    "recorded_iters",
    "rel_err_sq",
    "RunSpec",
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
# about eight live length-m vectors (state, gathered rows, temporaries)
BLOCK_ELEMENTS = 1 << 20


def recorded_iters(n_iters, dense_until=1000, stride=10):
    """Iteration indices an ensemble records: dense early, strided later.

    Every index up to ``dense_until`` is kept; beyond that every
    ``stride``-th one, plus always the final iterate.
    """
    if n_iters < 0:
        raise ValueError("iteration count must be nonnegative")
    if n_iters <= dense_until:
        return np.arange(n_iters + 1)
    tail = np.arange(dense_until + stride, n_iters + 1, stride)
    return np.unique(np.concatenate([np.arange(dense_until + 1), tail, [n_iters]]))


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


@dataclass(frozen=True)
class RunSpec:
    """Everything one solver run needs, minus its seed.

    ``regularizer`` switches to the dual iteration, which takes no ``x0`` and
    no ``"sgd"`` variant; ``record`` overrides the default recording schedule
    and is stored sorted, without repeats and read-only.  Every field is
    checked here, so a bad spec fails before an ensemble starts.
    """

    problem: ProblemInstance
    policy: object
    n_iters: int
    data: object = None
    variant: str = "shb"
    metric: str = "l2"
    regularizer: object = None
    x0: np.ndarray = None
    record: np.ndarray = None

    def __post_init__(self):
        if self.metric not in ("l2", "l1"):
            raise ValueError("metric must be 'l2' or 'l1'")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.n_iters < 0:
            raise ValueError("iteration count must be nonnegative")
        if self.regularizer is not None and (self.x0 is not None or self.variant != "shb"):
            raise ValueError("dual runs start at zero with momentum: no x0, no 'sgd' variant")
        if self.record is not None:
            rec = np.unique(np.asarray(self.record, dtype=int))
            if rec.size == 0 or rec.min() < 0 or rec.max() > self.n_iters:
                raise ValueError("recorded indices must lie in [0, n_iters]")
            rec.setflags(write=False)
            object.__setattr__(self, "record", rec)

    def record_points(self):
        return recorded_iters(self.n_iters) if self.record is None else self.record

    def truth_norm_sq(self):
        denom, _ = _error_functional(self.problem.truth, self.problem.grid.weights, self.metric)
        return denom if self.metric == "l2" else denom**2


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


def _trace_context(spec):
    """Per-ensemble constants: recorded indices, their positions, the error."""
    rec = spec.record_points()
    wanted = {int(v): k for k, v in enumerate(rec)}
    _, error = _error_functional(spec.problem.truth, spec.problem.grid.weights, spec.metric)
    return rec, wanted, error


def _block_rows(m, n_iters):
    """Runs per lockstep block: as many as BLOCK_ELEMENTS allows, at least one."""
    return max(1, BLOCK_ELEMENTS // (n_iters + 8 * m))


def _recorder(wanted, out, measure, name):
    """Observer of a block that writes ``measure(x)``, one value per run, into
    the column of ``out`` of each recorded step.

    Raises ``ValueError`` naming the run (``name(row)``) and the step when a
    recorded value is not finite, which is how overflow from finite input
    shows.
    """

    def observer(n, x):
        k = wanted.get(n)
        if k is not None:
            values = measure(x)
            bad = ~np.isfinite(values)
            if bad.any():
                raise ValueError(f"{name(int(np.argmax(bad)))} turned non-finite at step {n}")
            out[:, k] = values

    return observer


def _run_block(spec, index_block, observer):
    """Drive the runs of ``spec`` along the rows of ``index_block`` in lockstep,
    with the checks of a single :func:`run` / :func:`run_mirror`."""
    problem = spec.problem
    if spec.regularizer is None:
        v, momentum, read_out = _primal_start(problem, spec.policy, spec.variant, spec.x0)
    else:
        v, momentum, read_out = _dual_start(problem, spec.regularizer, spec.policy)
    prepared = _prepare(problem, spec.data, spec.policy, spec.n_iters, None, index_block)
    return _drive(prepared, np.tile(v, (len(index_block), 1)), momentum, read_out, observer)


def _trace_block(spec, base_seed, start, stop):
    """Error traces of runs ``start..stop-1`` (streams ``(base_seed, r)``), one
    row per run, stepped in lockstep blocks of at most :func:`_block_rows`."""
    rec, wanted, error = _trace_context(spec)
    traces = np.empty((stop - start, rec.size))
    rows = _block_rows(spec.problem.m, spec.n_iters)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        idx = _index_block(base_seed, lo, hi, spec.problem.p, spec.n_iters)
        observer = _recorder(wanted, traces[lo - start:hi - start], error,
                             lambda k: f"run {(base_seed, lo + k)}")
        _run_block(spec, idx, observer)
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
        truth_norm_sq=spec.truth_norm_sq(),
    )


def monte_carlo(spec, n_runs, base_seed):
    """Average squared relative errors over independent runs.

    Run r draws its equation indices from the stream ``(base_seed, r)``, so
    the ensemble is reproducible and independent of execution order;
    ``base_seed`` must be a nonnegative integer (``ValueError`` otherwise,
    before any run).  Runs are stepped in lockstep blocks: the streams of a
    block are drawn together as arrays, each bit-identical to
    :func:`shbreg.solvers.index_stream`, and one pass of the step loop
    advances the whole block as ``(R, m)`` arrays.  Each run of a block
    performs the same floating-point operations as a single
    :func:`shbreg.solvers.run` (or :func:`shbreg.mirror.run_mirror`) along
    its stream, so its errors are bit-identical to that run's; block sizes
    are capped by a fixed element count (``BLOCK_ELEMENTS``), so memory
    stays flat in the number of runs.
    The environment variable ``SHB_THREADS`` caps a process pool that splits
    the runs into contiguous ranges, one per worker; per-run traces are
    stacked in run order before reduction, so the result is identical for
    any worker count.  A failing run aborts the whole ensemble with its own
    exception: invalid input raises the same ``ValueError`` as a single
    :func:`shbreg.solvers.run`, serial or pooled, and a recorded error that
    turns non-finite (overflow from finite input) raises ``ValueError``
    naming the run's stream key and the step.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    base_seed = _stream_base(base_seed)
    workers = _worker_count(n_runs)
    if workers == 1:
        traces = _trace_block(spec, base_seed, 0, n_runs)
    else:
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
    rec, wanted, _ = _trace_context(spec)
    weights = problem.grid.weights
    scale = spec.truth_norm_sq()
    p = problem.p
    v, momentum, _ = _primal_start(problem, policy, variant, None)
    traces = np.empty((n_runs, rec.size))
    rows = max(1, _block_rows(problem.m, n_iters) // 2)
    for lo in range(0, n_runs, rows):
        hi = min(lo + rows, n_runs)
        idx = _index_block(base_seed, lo, hi, p, n_iters)
        K, Kw, y, base, idx, floor = _prepare(problem, data, policy, n_iters, None, idx)
        # the exact-data runs step through a second copy of the system, rows
        # p..2p-1, that carries the exact data, so one block holds both halves
        # and each pair takes the same draws in lockstep
        doubled = (np.vstack([K, K]), np.vstack([Kw, Kw]),
                   np.concatenate([y, problem.exact_data]), np.tile(base, 2),
                   np.vstack([idx, idx + p]), None if floor is None else np.tile(floor, 2))
        half = hi - lo

        def gap(x):
            d = x[:half] - x[half:]
            return np.vecdot(d * d, weights) / scale

        observer = _recorder(wanted, traces[lo:hi], gap, lambda k: f"run {(base_seed, lo + k)}")
        _drive(doubled, np.tile(v, (2 * half, 1)), momentum, None, observer)
    return _summarize(spec, traces, n_runs, base_seed)


def enumerate_expectation(problem, data, policy, n_steps, variant="shb", metric="l2", x0=None):
    """Exact expected squared relative errors over all equiprobable index paths.

    Enumerates the p**n_steps paths of length ``n_steps`` and averages the
    per-step errors exactly; an independent oracle for what
    :func:`monte_carlo` estimates.  Guarded at 10**6 paths.  The paths are
    stepped in lockstep blocks and summed in path order.
    """
    p = problem.p
    if p**n_steps > ENUMERATION_GUARD:
        raise ValueError(f"enumeration of {p}**{n_steps} paths exceeds the guard")
    spec = RunSpec(problem=problem, policy=policy, n_iters=n_steps, data=data,
                   variant=variant, metric=metric, x0=x0,
                   record=np.arange(n_steps + 1))
    rec, wanted, error = _trace_context(spec)
    count = p**n_steps
    # path k in itertools.product order: the base-p digits of k
    place = p ** np.arange(n_steps - 1, -1, -1)
    total = np.zeros(n_steps + 1)
    rows = _block_rows(problem.m, n_steps)
    for lo in range(0, count, rows):
        idx = (np.arange(lo, min(lo + rows, count))[:, None] // place) % p
        out = np.empty((len(idx), rec.size))
        _run_block(spec, idx, _recorder(wanted, out, error,
                                        lambda k: f"path {tuple(idx[k].tolist())}"))
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


def bound_check(trace, bound_fn, slack=0.0, absolute=True):
    """Check a trace against a pointwise bound with Monte Carlo slack.

    Passes iff ``value[k] <= bound_fn(iters[k]) * (1 + slack) + 3 * se[k]``
    at every recorded iteration.  With ``absolute`` (the default) the stored
    relative trace and its standard error are scaled by the ensemble's
    squared truth norm first, since bounds are stated in absolute units.
    """
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    scale = trace.truth_norm_sq if absolute else 1.0
    violations = []
    for k, n in enumerate(trace.iters):
        value = trace.mean_sq_rel_err[k] * scale
        allowance = bound_fn(int(n)) * (1.0 + slack) + 3.0 * trace.std_err[k] * scale
        if value > allowance:
            violations.append((int(n), float(value), float(allowance)))
    return BoundReport(passed=not violations, violations=tuple(violations))


def write_csv(trace, path):
    """Write a trace as ``iter,mean_sq_rel_err,std_err`` rows (LF endings)."""
    with open(path, "w", newline="") as fh:
        fh.write("iter,mean_sq_rel_err,std_err\n")
        for n, mean, se in zip(trace.iters, trace.mean_sq_rel_err, trace.std_err):
            fh.write(f"{int(n)},{mean:.12e},{se:.12e}\n")
