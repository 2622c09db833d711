"""Row-action solvers with heavy-ball momentum for ill-posed linear systems.

One iteration touches a single randomly drawn equation.  The momentum
iteration

    x_{n+1} = x_n - alpha_n * eta_i * A_i^*(A_i x_n - y_i) + beta_n (x_n - x_{n-1})

with alpha_n = 1/(n+2) and beta_n = n/(n+2) admits an equivalent
moving-average form

    z_{n+1} = z_n - eta_i * A_i^*(A_i x_n - y_i),
    x_{n+1} = ((n+1) x_n + z_{n+1}) / (n+2),

which is the form :func:`run` carries (z accumulates the corrections, x is a
running average of itself and z).  Setting alpha_n = 1, beta_n = 0 recovers
plain stochastic gradient steps, x_{n+1} = z_{n+1}.  One step loop serves
both variants and the dual iteration of :mod:`shbreg.mirror`, which runs the
same recursion on a dual variable and reads the iterate off through a mirror
map; the direct two-step form is kept only in the tests
(``tests/oracle.py``), as the reference the loop is checked against.  Regularization comes from stopping early:
an a-priori rule maps the noise level to an iteration budget, and a
discrepancy-principle step-size rule freezes updates on equations whose
residual has dropped to the noise floor.
"""

import math

import numpy as np
from dataclasses import dataclass

from .problems import NoisyData

__all__ = [
    "step_coefficients",
    "StepPolicy",
    "resolve_base_steps",
    "index_stream",
    "run",
    "a_priori_stop",
    "RateConstants",
    "stability_bound",
    "rate_bound",
]

VARIANTS = ("shb", "sgd")


def step_coefficients(n):
    """Momentum schedule (alpha_n, beta_n) = (1/(n+2), n/(n+2)) at step ``n``."""
    if n < 0:
        raise ValueError("step index must be nonnegative")
    return 1.0 / (n + 2), n / (n + 2.0)


@dataclass(frozen=True)
class StepPolicy:
    """Step-size rule: constant, or gated by the discrepancy principle.

    The base step for equation i is ``mu0`` divided by a squared operator
    norm: the row's own norm when ``norm_scope == "row"``, the full bundle
    norm when ``norm_scope == "full"`` (the scope a solver needs is resolved
    when a run is set up).  A discrepancy policy additionally zeroes the step
    whenever the drawn equation's residual is at or below ``tau`` times its
    noise level, so converged equations stop injecting noise.
    """

    kind: str
    mu0: float
    tau: float = None
    per_eq_levels: np.ndarray = None
    norm_scope: str = "row"

    def __post_init__(self):
        if self.kind not in ("constant", "discrepancy"):
            raise ValueError("policy kind must be 'constant' or 'discrepancy'")
        if self.norm_scope not in ("row", "full"):
            raise ValueError("norm scope must be 'row' or 'full'")
        if not (self.mu0 > 0 and math.isfinite(self.mu0)):
            raise ValueError("mu0 must be positive and finite")
        if self.kind == "discrepancy":
            if self.tau is None or self.tau < 1:
                raise ValueError("discrepancy policies need tau >= 1")
            if self.per_eq_levels is None:
                raise ValueError("discrepancy policies need per-equation noise levels")
            levels = np.array(self.per_eq_levels, dtype=float)
            if not np.all(levels >= 0):  # also rejects NaN
                raise ValueError("noise levels must be nonnegative")
            levels.setflags(write=False)
            object.__setattr__(self, "per_eq_levels", levels)

    @classmethod
    def constant(cls, mu0, norm_scope="row"):
        return cls(kind="constant", mu0=mu0, norm_scope=norm_scope)

    @classmethod
    def discrepancy(cls, mu0, tau, per_eq_levels, norm_scope="row"):
        return cls(kind="discrepancy", mu0=mu0, tau=tau, per_eq_levels=per_eq_levels,
                   norm_scope=norm_scope)

    @property
    def is_discrepancy(self):
        return self.kind == "discrepancy"


def resolve_base_steps(policy, bundle):
    """Per-equation base steps of ``policy`` against a concrete bundle."""
    if policy.norm_scope == "row":
        norms = bundle.row_norms_sq
        if np.any(norms == 0):
            raise ValueError("cannot form a step size for a zero row")
        return policy.mu0 / norms
    return np.full(bundle.p, policy.mu0 / bundle.full_norm_sq)


def index_stream(seed, p, size):
    """The i.i.d. uniform equation draws of a run.

    Backed by a counter-based generator keyed on ``seed`` (an int or a tuple
    of ints), so ensembles can hand run r the stream ``(base_seed, r)`` and
    stay reproducible and order-independent.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return gen.integers(0, p, size=size)


def _data_vector(problem, data):
    if data is None:
        return problem.exact_data
    if isinstance(data, NoisyData):
        values = data.values  # checked finite when it was built
    else:
        values = np.asarray(data, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("data values must be finite")
    if values.shape != (problem.p,):
        raise ValueError("data must have one entry per equation")
    return values


def _index_block(seeds, p, n_iters):
    """Row draws of a block of runs: row k is the stream of ``seeds[k]``, so a
    run draws the same rows in any block as on its own."""
    idx = np.empty((len(seeds), n_iters), dtype=np.intp)
    for k, seed in enumerate(seeds):
        idx[k] = index_stream(seed, p, n_iters)
    return idx


def _prepare(problem, data, policy, n_iters, seed, index_path):
    """Set-up shared by :func:`run` and :func:`shbreg.mirror.run_mirror`.

    Returns ``(K, Kw, y, base, idx, floor)``: the kernel matrix and its
    weighted form, the data vector, the per-equation base steps, the row
    draws (sampled, or the validated ``index_path``; an ``(R, N)`` block
    holds one run per row) and the gate floor ``tau * per_eq_levels`` (None
    for constant policies).
    """
    if n_iters < 0:
        raise ValueError("iteration count must be nonnegative")
    y = _data_vector(problem, data)
    p = problem.p
    base = resolve_base_steps(policy, problem.bundle)
    if index_path is None:
        idx = index_stream(seed, p, n_iters)
    else:
        idx = np.asarray(index_path, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= p):
            raise ValueError("index path entries must lie in [0, p)")
    floor = None
    if policy.is_discrepancy:
        if policy.per_eq_levels.shape != (p,):
            raise ValueError("policy noise levels must have one entry per equation")
        floor = policy.tau * policy.per_eq_levels
    bundle = problem.bundle
    return bundle.kernel_matrix, bundle.weighted_kernel_matrix, y, base, idx, floor


def _drive(prepared, v, momentum, read_out, observer):
    """The step loop of every solver in the package.

    ``v`` is the starting variable (the primal iterate, or the dual variable
    of a mirror run) and also starts the accumulator of row corrections.
    Momentum runs replace ``v`` by the running average of itself and the
    accumulator; plain-gradient runs take the accumulator itself.  The
    iterate is ``v``, or ``read_out(v)`` when a mirror map is given.  ``v``
    is updated in place, so callers hand over an array of their own.

    A single run has ``v`` of shape ``(m,)`` and row draws ``idx`` of shape
    ``(N,)``.  A block of R runs has ``v`` of shape ``(R, m)`` and ``idx`` of
    shape ``(R, N)``, and the loop steps all of them at once; the observer
    then sees ``(R, m)`` iterates.  Every run of a block follows the same
    floating-point operations as on its own (one BLAS dot per row, the same
    elementwise updates), so its iterates are bit-identical to a single run
    along its row of ``idx``, whatever the block size.
    """
    K, Kw, y, base, idx, floor = prepared
    acc = v.copy()
    x = v if read_out is None else read_out(v)

    collected = []

    def emit(n, current):
        if observer is None:
            collected.append(current.copy())
        else:
            value = observer(n, current)
            if value is not None:
                collected.append(value)

    emit(0, x)
    # column n holds the rows drawn at step n: a scalar for a single run,
    # one entry per run for a block
    cols = idx.T
    for n in range(cols.shape[0]):
        i = cols[n]
        residual = np.vecdot(Kw[i], x) - y[i]
        gated = floor is not None and abs(residual) <= floor[i]
        # the transposes scale each gathered row by its own run's factor and
        # keep the result C-ordered
        if isinstance(gated, np.ndarray):
            # a gated block: the runs whose residual is at or below the noise
            # floor keep their accumulator untouched, the others step
            live = np.flatnonzero(~gated)
            acc[live] -= (K[i[live]].T * (base[i[live]] * residual[live])).T
        elif not gated:
            # a single run off the gate, or a block without a gate
            acc -= (K[i].T * (base[i] * residual)).T
        if momentum:
            # v = ((n + 1) v + acc) / (n + 2), in place
            v *= n + 1.0
            v += acc
            v /= n + 2.0
        else:
            v = acc
        x = v if read_out is None else read_out(v)
        emit(n + 1, x)
    return collected


def _primal_start(problem, policy, variant, x0):
    """Checks of :func:`run` before set-up: returns ``(v, momentum, read_out)``."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if policy.mu0 >= 1:
        raise ValueError("this solver family needs mu0 < 1")
    if x0 is None:
        x = np.zeros(problem.m)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != problem.grid.nodes.shape:
            raise ValueError("initial guess must be sampled on the grid")
        if not np.isfinite(x).all():
            raise ValueError("initial guess must be finite")
    return x, variant == "shb", None


def run(problem, data, policy, n_iters, seed=0, variant="shb", x0=None, observer=None,
        index_path=None):
    """Drive a solver for ``n_iters`` random-row steps.

    Parameters
    ----------
    problem : ProblemInstance
    data : NoisyData, array, or None
        Right-hand side; None means the exact data.
    policy : StepPolicy
    n_iters : int
    seed : int or tuple
        Seed of the equation-draw stream (ignored when ``index_path`` is given).
    variant : {"shb", "sgd"}
        Momentum iteration or plain stochastic gradient.
    x0 : array, optional
        Initial guess, zero by default.
    observer : callable, optional
        Called as ``observer(n, x)`` at every iterate including n = 0.  The
        array is a live buffer that later steps overwrite; copy it to keep
        it.  Non-None return values are collected and returned.  Without an
        observer the full trajectory of iterate copies is returned.
    index_path : int array, optional
        Replay this explicit sequence of row draws instead of sampling; its
        length overrides ``n_iters``.

    Returns
    -------
    list of observed values, in call order.

    Raises
    ------
    ValueError
        On an unknown variant, ``mu0 >= 1``, a negative ``n_iters``, data
        that is not one finite value per equation, policy noise levels not
        one per equation, an index path outside ``[0, p)``, or an initial
        guess that is not a finite vector on the grid.  All checks run
        before the first step.
    """
    v, momentum, read_out = _primal_start(problem, policy, variant, x0)
    prepared = _prepare(problem, data, policy, n_iters, seed, index_path)
    return _drive(prepared, v, momentum, read_out, observer)


def a_priori_stop(p, total_level):
    """Iteration budget from the noise level: ceil(p / delta) - 1.

    The relative epsilon guards the ceiling against the floating-point
    representation of ``total_level`` (e.g. p = 100, delta = 0.01 must give
    9999, not 10000).
    """
    if p < 1:
        raise ValueError("need at least one equation")
    if total_level <= 0:
        raise ValueError("stopping rule needs a positive noise level")
    q = p / float(total_level)
    return int(math.ceil(q * (1.0 - 1e-12))) - 1


@dataclass(frozen=True)
class RateConstants:
    """Constants entering the error bounds.

    c0       smallest step margin min_i (1 - eta_i ||A_i||^2), in (0, 1]
    eta_bar  largest per-equation step size
    m0       source energy ||x0 - truth||_w^2 + c0 * sum_i lambda_i^2 / eta_i
             (0 when no source representation is in play)
    """

    c0: float
    eta_bar: float
    m0: float = 0.0

    def __post_init__(self):
        if not (0 < self.c0 <= 1):
            raise ValueError("step margin c0 must lie in (0, 1]")
        if self.eta_bar <= 0:
            raise ValueError("largest step must be positive")
        if self.m0 < 0:
            raise ValueError("source energy must be nonnegative")

    @classmethod
    def for_policy(cls, bundle, policy, m0=0.0):
        base = resolve_base_steps(policy, bundle)
        if policy.norm_scope == "row":
            # eta_i ||A_i||^2 == mu0 for every row, exactly
            c0 = 1.0 - policy.mu0
        else:
            c0 = 1.0 - float(np.max(base * bundle.row_norms_sq))
        return cls(c0=c0, eta_bar=float(np.max(base)), m0=m0)


def stability_bound(n, total_level, p, constants):
    """Noise-propagation bound: mean squared gap between noisy- and exact-data
    runs after n steps is at most ``eta_bar * n * delta^2 / (c0 * p)``."""
    if n < 0:
        raise ValueError("step index must be nonnegative")
    return constants.eta_bar * n * total_level**2 / (constants.c0 * p)


def rate_bound(n, p, constants):
    """Exact-data error bound under a source representation of the truth:
    mean squared error after n steps is at most ``p * m0 / (c0 * (n + 1))``."""
    if n < 0:
        raise ValueError("step index must be nonnegative")
    return p * constants.m0 / (constants.c0 * (n + 1.0))
