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
(``tests/oracle.py``), as the reference the loop is checked against.
Regularization comes from stopping early: an a-priori rule maps the noise
level to an iteration budget, and a discrepancy-principle step-size rule
freezes updates on equations whose residual has dropped to the noise floor.

Every primal iterate stays in ``x0 + range(K^T)``, so ensembles of primal
l2 runs with ``2 p <= m`` step the same loop on p-vectors, the spectral row
coordinates of :func:`_system` (the rule is :func:`_uses_row_space`; the
error they record is evaluated in :mod:`shbreg.harness`).  Their recorded
errors agree with the primal path to 1e-9 relative, not bit for bit.
:func:`run` and :func:`shbreg.mirror.run_mirror` always step ``x`` and are
the reference of both paths.
"""

import functools
import math

import numpy as np
from dataclasses import dataclass

from .linops import _frozen_array
from .problems import NoisyData, ProblemInstance

__all__ = [
    "step_coefficients",
    "StepPolicy",
    "resolve_base_steps",
    "index_stream",
    "recorded_iters",
    "RunSpec",
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


@dataclass(frozen=True, eq=False)
class StepPolicy:
    """Step-size rule: constant, or gated by the discrepancy principle.

    The base step for equation i is ``mu0`` divided by a squared operator
    norm: the row's own norm when ``norm_scope == "row"``, the full bundle
    norm when ``norm_scope == "full"`` (the scope a solver needs is resolved
    when a run is set up).  A discrepancy policy additionally zeroes the step
    whenever the drawn equation's residual is at or below ``tau`` times its
    noise level, so converged equations stop injecting noise.

    Policies compare and hash by identity: their noise levels are an array.
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
            if self.tau is None or not (1 <= self.tau < math.inf):
                raise ValueError("discrepancy policies need a finite tau >= 1")
            if self.per_eq_levels is None:
                raise ValueError("discrepancy policies need per-equation noise levels")
            levels = np.array(self.per_eq_levels, dtype=float)
            if not np.all((levels >= 0) & (levels < math.inf)):
                raise ValueError("noise levels must be nonnegative and finite")
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
    """Per-equation base steps of ``policy`` against a concrete bundle.

    Raises ``ValueError`` for a zero row under row scope and for an all-zero
    kernel under full scope, neither of which has a step size.
    """
    if policy.norm_scope == "row":
        norms = bundle.row_norms_sq
        if np.any(norms == 0):
            raise ValueError("cannot form a step size for a zero row")
        return policy.mu0 / norms
    if not bundle.full_norm_sq > 0:
        raise ValueError("cannot form a full-scope step size for a zero kernel")
    return np.full(bundle.p, policy.mu0 / bundle.full_norm_sq)


def index_stream(seed, p, size):
    """The i.i.d. uniform equation draws of a run.

    Backed by a counter-based generator keyed on ``seed`` (an int or a tuple
    of ints), so ensembles can hand run r the stream ``(base_seed, r)`` and
    stay reproducible and order-independent.

    This is the definition of every stream in the package.  Ensembles draw
    a whole block of streams at once with numpy's own algorithms redone on
    arrays (``_index_block``), and every run that the array form cannot
    reproduce exactly is drawn here instead.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return gen.integers(0, p, size=size)


# numpy's SeedSequence (a pool of four 32-bit words, hashed and mixed) and
# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011), redone on arrays of seeds; every constant is numpy's own
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (INIT_A, MULT_A): mixing entropy into the pool
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # (INIT_B, MULT_B): generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_U16, _U32 = np.uint32(16), np.uint64(32)
_LOW32 = np.uint64(_MASK32)


def _hasher(init, mult):
    """SeedSequence's ``hashmix`` with its running constant ``h``: xor with
    h, multiply by ``h * mult``, which is the constant of the next call."""
    h = init

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = (h * mult) & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> _U16)

    return hashmix


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> _U16)


def _philox_keys(entropy):
    """The two 64-bit Philox keys of each row of ``(R, L)`` uint32 entropy
    words: ``SeedSequence(words).generate_state(2, np.uint64)``."""
    n_words = entropy.shape[1]
    hashmix = _hasher(*_HASH_A)
    pool = [hashmix(entropy[:, i] if i < n_words else np.zeros_like(entropy[:, 0]))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    hashmix = _hasher(*_HASH_B)
    w = [hashmix(word).astype(np.uint64) for word in pool]
    return w[0] | (w[1] << _U32), w[2] | (w[3] << _U32)


def _mulhilo(a, b):
    """High and low words of the 128-bit products of the constant ``a`` and
    the uint64 array ``b``, the high word built from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> _U32
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    carry = (lo_lo >> _U32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    hi = a_hi * b_hi + (lo_hi >> _U32) + (hi_lo >> _U32) + (carry >> _U32)
    return hi, np.uint64(a) * b


def _philox_words(key0, key1, size):
    """The first ``size`` 32-bit outputs of Philox4x64-10 for each key pair,
    as uint64 of shape ``(R, size)``: counters 1, 2, ... give four 64-bit
    words each, and each word splits into two draws, low half first."""
    blocks = -(-size // 8)
    counter = np.arange(1, blocks + 1, dtype=np.uint64)
    zero = np.zeros((key0.size, blocks), dtype=np.uint64)
    ctr = [counter + zero, zero, zero, zero]
    key0, key1 = key0[:, None], key1[:, None]
    for rnd in range(10):
        if rnd:
            key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ key0, lo1, hi0 ^ ctr[3] ^ key1, lo0]
    out = np.stack(ctr, axis=-1).reshape(key0.size, 4 * blocks)
    words = np.empty((key0.size, 8 * blocks), dtype=np.uint64)
    words[:, 0::2] = out & _LOW32
    words[:, 1::2] = out >> _U32
    return words[:, :size]


def _index_block(base_seed, start, stop, p, n_iters):
    """Row draws of runs ``start..stop-1``: row k is
    ``index_stream((base_seed, start + k), p, n_iters)`` bit for bit, so a
    run draws the same rows in any block as on its own.

    The runs are drawn together as arrays, with numpy's Lemire rule
    ``(u * p) >> 32`` on their Philox words.  Runs the array form cannot
    reproduce are drawn by :func:`index_stream` itself: a run with a word
    numpy rejects (low half of ``u * p`` below ``(2**32 - p) % p``) among its
    first ``n_iters``, a run index of 2**32 or more (its seed has one more
    entropy word), and every run when ``p > 2**32`` (numpy's 64-bit path).
    """
    idx = np.empty((stop - start, n_iters), dtype=np.intp)
    vectorized = max(0, min(stop, 2**32) - start) if 1 <= p <= 2**32 else 0
    redraw = np.arange(vectorized, stop - start)
    if vectorized:
        # SeedSequence's little-endian 32-bit words of (base_seed, r)
        seed_words = [base_seed >> shift & _MASK32
                      for shift in range(0, max(base_seed.bit_length(), 1), 32)]
        entropy = np.empty((vectorized, len(seed_words) + 1), dtype=np.uint32)
        entropy[:, :-1] = seed_words
        entropy[:, -1] = np.arange(start, start + vectorized, dtype=np.uint32)
        scaled = _philox_words(*_philox_keys(entropy), n_iters)
        scaled *= np.uint64(p)
        exact = ((scaled & _LOW32) >= np.uint64((2**32 - p) % p)).all(axis=1)
        idx[:vectorized] = scaled >> _U32
        redraw = np.concatenate([np.flatnonzero(~exact), redraw])
    for k in redraw.tolist():
        idx[k] = index_stream((base_seed, start + k), p, n_iters)
    return idx


DENSE_RECORDS = 1000
RECORD_STRIDE = 10


def recorded_iters(n_iters):
    """Iteration indices an ensemble records: dense early, strided later.

    Every index up to ``DENSE_RECORDS`` is kept; beyond that every
    ``RECORD_STRIDE``-th one, plus always the final iterate.
    """
    if n_iters < 0:
        raise ValueError("iteration count must be nonnegative")
    if n_iters <= DENSE_RECORDS:
        return np.arange(n_iters + 1)
    tail = np.arange(DENSE_RECORDS + RECORD_STRIDE, n_iters + 1, RECORD_STRIDE)
    return np.unique(np.concatenate([np.arange(DENSE_RECORDS + 1), tail, [n_iters]]))


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Everything one solver run needs, minus its row draws.

    :func:`run`, :func:`shbreg.mirror.run_mirror` and every ensemble set
    their runs up from a spec, and its constructor is the only check of a
    run's input: bad input raises ``ValueError`` here, before the first step
    and before an ensemble starts a worker.  It rejects

    * a ``metric`` other than ``"l2"`` / ``"l1"``, a ``variant`` other than
      ``"shb"`` / ``"sgd"``, a negative ``n_iters``, and a ``record``
      schedule that is empty or leaves ``[0, n_iters]``;
    * primal runs with ``mu0 >= 1`` or an ``x0`` that is not a finite vector
      on the problem's grid;
    * dual runs (``regularizer`` given) with an ``x0``, the ``"sgd"`` variant,
      a regularizer on another grid, or ``mu0 >= 2 * mu`` under either norm
      scope (a row-scope policy has ``eta_i ||A_i||^2 == mu0``);
    * ``data`` that is not None (the exact data), a :class:`NoisyData` or one
      finite value per equation, and policy noise levels that are not one
      per equation;
    * a zero row under a row-scope policy, and an all-zero kernel under a
      full-scope one, which have no step size.

    ``x0`` and array ``data`` are stored as read-only float arrays, and
    ``record`` sorted, without repeats and read-only.  Specs compare and hash
    by identity, as their array fields have no single truth value.
    """

    problem: ProblemInstance
    policy: StepPolicy
    n_iters: int
    data: object = None
    variant: str = "shb"
    metric: str = "l2"
    regularizer: object = None
    x0: np.ndarray = None
    record: np.ndarray = None

    def __post_init__(self):
        problem, policy, reg = self.problem, self.policy, self.regularizer
        if self.metric not in ("l2", "l1"):
            raise ValueError("metric must be 'l2' or 'l1'")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not self.n_iters >= 0:
            raise ValueError("iteration count must be nonnegative")
        if self.record is not None:
            rec = np.unique(np.asarray(self.record, dtype=int))
            if rec.size == 0 or rec.min() < 0 or rec.max() > self.n_iters:
                raise ValueError("recorded indices must lie in [0, n_iters]")
            rec.setflags(write=False)
            object.__setattr__(self, "record", rec)
        if reg is None:
            if not policy.mu0 < 1:
                raise ValueError("this solver family needs mu0 < 1")
            if self.x0 is not None:
                x0 = _frozen_array(self.x0)
                if x0.shape != problem.grid.nodes.shape:
                    raise ValueError("initial guess must be sampled on the grid")
                if not np.isfinite(x0).all():
                    raise ValueError("initial guess must be finite")
                object.__setattr__(self, "x0", x0)
        else:
            if self.x0 is not None or self.variant != "shb":
                raise ValueError("dual runs start at zero with momentum: no x0, no 'sgd' variant")
            if reg.grid is not problem.grid:
                raise ValueError("regularizer and problem must share the grid")
            if not policy.mu0 < 2 * reg.mu:
                raise ValueError("dual steps need mu0 < 2 * mu for this regularizer")
        if self.data is not None and not isinstance(self.data, NoisyData):
            values = _frozen_array(self.data)
            if not np.isfinite(values).all():
                raise ValueError("data values must be finite")
            object.__setattr__(self, "data", values)
        _, _, y, _, floor = _system(self)  # raises where no step size exists
        if y.shape != (problem.p,):
            raise ValueError("data must have one entry per equation")
        if floor is not None and floor.shape != (problem.p,):
            raise ValueError("policy noise levels must have one entry per equation")

    def record_points(self):
        return recorded_iters(self.n_iters) if self.record is None else self.record


def _uses_row_space(p, m, metric, regularizer):
    """Whether ensembles step runs in row space: the rule of the path.

    Every primal iterate is ``x0 + K^T t`` for some ``t`` in R^p (the
    accumulator has the same form), so an ensemble may step p-vectors
    instead of the m-vectors ``x``: the spectral coordinates ``s = V^T t``
    of :func:`_system`, in which the squared l2 error is a sum of p terms.
    It does for primal runs (no ``regularizer``) with the ``"l2"`` metric
    when ``2 * p <= m``.  On the raised-cosine example with 10-run,
    5000-step ensembles, constant and gated, row space broke even between
    ``2 p = 1.2 m`` and ``1.6 m`` (m = 1000) and near ``2 p = 1.5 m``
    (m = 400), and was 1.2 to 2 times faster at ``2 p <= m``; the margin
    also covers the ``O(p^3)`` eigen-decomposition of the Gram matrix, made
    once per bundle.  The rule looks at the problem's shape and the spec
    only, never at the number of runs, the block size or ``SHB_THREADS``,
    so a run takes the same path in every ensemble.  :func:`run` and
    :func:`shbreg.mirror.run_mirror` always step ``x``: they are the
    reference the row-space path is checked against.
    """
    return regularizer is None and metric == "l2" and 2 * p <= m


def _system(spec, row_space=False):
    """``(K, Kw, y, base, floor)`` of a spec: the kernel matrix and its
    weighted form, the data vector, the per-equation base steps and the gate
    floor ``tau * per_eq_levels`` (None for a constant policy).

    With ``row_space`` the system acts on spectral row coordinates ``s``:
    ``x = x0 + K^T V s``, where ``G = Kw K^T = V diag(lam) V^T``.  ``K`` is
    ``V`` (row i holds the coordinates of the i-th unit vector of R^p),
    ``Kw`` is ``V * lam`` (row i of ``G V``) and ``y`` is ``y - Kw x0``, so
    row i's residual ``(G V s)[i] - (y - Kw x0)[i]`` is ``Kw[i] x - y[i]``.
    """
    bundle, policy = spec.problem.bundle, spec.policy
    data = spec.data.values if isinstance(spec.data, NoisyData) else spec.data
    y = spec.problem.exact_data if data is None else data
    floor = policy.tau * policy.per_eq_levels if policy.is_discrepancy else None
    base = resolve_base_steps(policy, bundle)
    if row_space:
        if spec.x0 is not None:
            y = y - np.vecdot(bundle.weighted_kernel_matrix, spec.x0)
        lam, V = bundle.gram_eigensystem
        return V, V * lam, y, base, floor
    return bundle.kernel_matrix, bundle.weighted_kernel_matrix, y, base, floor


def _drive(system, idx, v, momentum, read_out, observer):
    """The step loop of every solver in the package.

    ``system`` is ``(K, Kw, y, base, floor)`` as :func:`_system` builds it.
    ``v`` is the starting variable (the primal iterate, the spectral row
    coordinates of a row-space run, or the dual variable of a mirror run) and
    also starts the accumulator of row corrections.
    Momentum runs replace ``v`` by the running average of itself and the
    accumulator; plain-gradient runs take the accumulator itself.  The
    iterate is ``v``, or ``read_out(v)`` when a mirror map is given.  ``v``
    is updated in place, so callers hand over an array of their own.

    A single run has ``v`` of shape ``(d,)`` and row draws ``idx`` of shape
    ``(N,)``.  A block of R runs has ``v`` of shape ``(R, d)`` and ``idx`` of
    shape ``(R, N)``, and the loop steps all of them at once; the observer
    then sees ``(R, d)`` iterates.  Every run of a block follows the same
    floating-point operations as on its own (one BLAS dot per row, the same
    elementwise updates), so its iterates are bit-identical to a single run
    along its row of ``idx``, whatever the block size.
    """
    K, Kw, y, base, floor = system
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


def _run_block(spec, idx, observer, row_space=False):
    """Drive the runs of a checked ``spec`` along the row draws ``idx``: one
    run along an ``(N,)`` path, or one run per row of an ``(R, N)`` block.
    Primal runs start at ``x0`` (zero by default), dual runs at a zero dual
    variable read off through the mirror map.  With ``row_space`` (primal runs
    only) the runs step their spectral row coordinates ``s`` from zero (see
    :func:`_system`), and the observer sees ``s``."""
    start, read_out = spec.x0, None
    if row_space:
        start = np.zeros(spec.problem.p)
    elif spec.regularizer is not None:
        # mirror_map is looked up on its module at every call, so a
        # replacement installed there (the traced benchmark counts its calls)
        # is the one the loop calls; imported here because mirror imports
        # this module
        from . import mirror
        read_out = functools.partial(mirror.mirror_map, spec.regularizer)
    if start is None:
        start = np.zeros(spec.problem.m)
    v = np.broadcast_to(start, idx.shape[:-1] + start.shape).copy()
    return _drive(_system(spec, row_space), idx, v, spec.variant == "shb", read_out, observer)


def _single_path(spec, seed, index_path):
    """Row draws of a single run: the stream of ``seed``, or ``index_path``
    checked to be one sequence of rows in ``[0, p)``."""
    p = spec.problem.p
    if index_path is None:
        return index_stream(seed, p, spec.n_iters)
    idx = np.asarray(index_path, dtype=np.intp)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= p)):
        raise ValueError("index path must be one sequence of entries in [0, p)")
    return idx


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
        On every input :class:`RunSpec` rejects, and on an index path that is
        not one sequence of rows in ``[0, p)``.  All checks run before the
        first step.
    """
    spec = RunSpec(problem=problem, policy=policy, n_iters=n_iters, data=data,
                   variant=variant, x0=x0)
    return _run_block(spec, _single_path(spec, seed, index_path), observer)


def a_priori_stop(p, total_level):
    """Iteration budget from the noise level: ceil(p / delta) - 1.

    The relative epsilon guards the ceiling against the floating-point
    representation of ``total_level`` (e.g. p = 100, delta = 0.01 must give
    9999, not 10000).
    """
    if not p >= 1:
        raise ValueError("need at least one equation")
    if not (0 < total_level < math.inf):
        raise ValueError("stopping rule needs a positive, finite noise level")
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
        if not (0 < self.eta_bar < math.inf):
            raise ValueError("largest step must be positive and finite")
        if not (0 <= self.m0 < math.inf):
            raise ValueError("source energy must be nonnegative and finite")

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
