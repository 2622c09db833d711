"""Monte Carlo ensembles, exact-expectation oracles, and bound verification.

The quantity the experiments report is the mean squared relative error of
the iterate across independent solver runs on one fixed data set; all
randomness is in the equation draws.  Besides the sampling estimator this
module carries an exact small-instance oracle (full path enumeration), a
constructor for instances whose truth has a known source representation
(so the rate-bound constant is computable, not guessed), semi-convergence
statistics, and a checker that compares an ensemble against a theoretical
bound with Monte Carlo slack.

One ``_error_functional`` serves :func:`rel_err_sq`, the traces of
:func:`monte_carlo` and :func:`enumerate_expectation` and ``RunSpec.truth_norm_sq``,
so traces match observer-side :func:`rel_err_sq` calls bit for bit; ensembles
raise the ``ValueError`` of their runs.
"""

import itertools
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from dataclasses import dataclass

from .problems import ProblemInstance
from .solvers import RateConstants, index_stream, resolve_base_steps, run
from .mirror import run_mirror

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
    integral of its absolute value (l1), and iterate -> squared relative error."""
    if metric == "l2":
        denom = float(weights @ (truth * truth))

        def error(x):
            d = x - truth
            return float(weights @ (d * d)) / denom
    elif metric == "l1":
        denom = float(weights @ np.abs(truth))

        def error(x):
            return (float(weights @ np.abs(x - truth)) / denom) ** 2
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
    return _error_functional(truth, grid.weights, norm)[1](x)


@dataclass(frozen=True)
class RunSpec:
    """Everything one solver run needs, minus its seed.

    ``regularizer`` switches to the dual iteration, which takes no ``x0`` and
    no ``"sgd"`` variant; ``record`` overrides the default recording schedule.
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
        if self.regularizer is not None and (self.x0 is not None or self.variant != "shb"):
            raise ValueError("dual runs start at zero with momentum: no x0, no 'sgd' variant")

    def record_points(self):
        if self.record is None:
            return recorded_iters(self.n_iters)
        rec = np.unique(np.asarray(self.record, dtype=int))
        if rec.size == 0 or rec.min() < 0 or rec.max() > self.n_iters:
            raise ValueError("recorded indices must lie in [0, n_iters]")
        return rec

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


def _error_trace(spec, ctx, seed=0, index_path=None):
    """Errors of one run at the recorded indices of ``ctx``.  ``run`` and
    ``run_mirror`` are module globals here, which bench/tracing.py patches."""
    rec, wanted, error = ctx
    out = np.empty(rec.size)

    def observer(n, x):
        k = wanted.get(n)
        if k is not None:
            out[k] = error(x)

    if spec.regularizer is not None:
        run_mirror(spec.problem, spec.data, spec.regularizer, spec.policy, spec.n_iters,
                   seed=seed, observer=observer, index_path=index_path)
    else:
        run(spec.problem, spec.data, spec.policy, spec.n_iters, seed=seed,
            variant=spec.variant, x0=spec.x0, observer=observer, index_path=index_path)
    return out


def _trace_block(spec, base_seed, start, stop):
    ctx = _trace_context(spec)
    return np.vstack([_error_trace(spec, ctx, (base_seed, r)) for r in range(start, stop)])


def _worker_count(n_runs):
    raw = os.environ.get("SHB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"SHB_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(workers, n_runs))


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
    the ensemble is reproducible and independent of execution order.  The
    environment variable ``SHB_THREADS`` caps a process pool that fans the
    runs out; per-run traces are stacked in run order before reduction, so
    the result is identical for any worker count.  A failing run aborts the
    whole ensemble with its own exception: invalid input raises the same
    ``ValueError`` as a single :func:`shbreg.solvers.run`, serial or pooled.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
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
    gap isolates pure noise propagation.  The trace is normalized by the
    squared truth norm, matching the units of :class:`EnsembleResult`;
    :func:`bound_check` converts back.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    spec = RunSpec(problem=problem, policy=policy, n_iters=n_iters, data=data,
                   variant=variant, record=record)
    rec = spec.record_points()
    wanted = set(int(v) for v in rec)
    grid = problem.grid
    scale = spec.truth_norm_sq()

    def capture(n, x):
        return x.copy() if n in wanted else None

    traces = np.empty((n_runs, rec.size))
    for r in range(n_runs):
        path = index_stream((base_seed, r), problem.p, n_iters)
        noisy = run(problem, data, policy, n_iters, variant=variant,
                    observer=capture, index_path=path)
        exact = run(problem, None, policy, n_iters, variant=variant,
                    observer=capture, index_path=path)
        traces[r] = [grid.norm_sq(a - b) / scale for a, b in zip(noisy, exact)]
    return _summarize(spec, traces, n_runs, base_seed)


def enumerate_expectation(problem, data, policy, n_steps, variant="shb", metric="l2", x0=None):
    """Exact expected squared relative errors over all equiprobable index paths.

    Enumerates the p**n_steps paths of length ``n_steps`` and averages the
    per-step errors exactly; an independent oracle for what
    :func:`monte_carlo` estimates.  Guarded at 10**6 paths.
    """
    p = problem.p
    if p**n_steps > ENUMERATION_GUARD:
        raise ValueError(f"enumeration of {p}**{n_steps} paths exceeds the guard")
    spec = RunSpec(problem=problem, policy=policy, n_iters=n_steps, data=data,
                   variant=variant, metric=metric, x0=x0,
                   record=np.arange(n_steps + 1))
    ctx = _trace_context(spec)
    total = np.zeros(n_steps + 1)
    for path in itertools.product(range(p), repeat=n_steps):
        total += _error_trace(spec, ctx, index_path=np.asarray(path, dtype=np.intp))
    return total / p**n_steps


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
