"""Dual (mirror-descent style) heavy-ball iteration with convex regularizers.

When the sought solution carries structure that a plain least-norm iterate
cannot express, the momentum iteration is run on a dual variable xi and the
primal iterate is read off through the mirror map x = grad R*(xi) of a
strongly convex regularizer R.  Two regularizers are provided:

* entropy on the probability simplex: R is the negative Boltzmann-Shannon
  entropy restricted to densities with unit integral (strong convexity
  modulus 1/2); the mirror map is the normalized exponential, so every
  iterate automatically is a strictly positive density;
* quadratic around a center x0 in the weighted geometry (modulus 1), whose
  mirror map is the shift x0 + xi, which reduces the dual iteration exactly
  to the primal momentum iteration started at x0.

The dual iteration has no loop of its own: :func:`run_mirror` checks its
inputs as a :class:`shbreg.solvers.RunSpec` and steps through the same code
as :func:`shbreg.solvers.run`, with the mirror map as the read-out.
Progress toward the truth is measured with the Bregman distance of R.
"""

import math

import numpy as np
from dataclasses import dataclass

from .solvers import RunSpec, _run_block, _single_path
# not called here: run_mirror draws through solvers.index_stream.  The name
# stays importable because bench/tracing.py patches it.
from .solvers import index_stream  # noqa: F401

__all__ = [
    "Regularizer",
    "mirror_map",
    "bregman_distance",
    "rate_envelope",
    "run_mirror",
]


@dataclass(frozen=True)
class Regularizer:
    """A strongly convex penalty with a closed-form mirror map.

    ``mu`` is the strong-convexity modulus that step-size budgets are checked
    against: dual steps need ``mu0 < 2 * mu`` under either norm scope, so base
    steps stay below ``2 * mu / ||A||^2`` (full) or ``2 * mu / ||A_i||^2`` (row).
    """

    kind: str
    grid: object
    mu: float
    x0: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("entropy_simplex", "quadratic"):
            raise ValueError("regularizer kind must be 'entropy_simplex' or 'quadratic'")
        if not (0 < self.mu < math.inf):
            raise ValueError("strong-convexity modulus must be positive and finite")
        if self.kind == "quadratic":
            if self.x0 is None:
                raise ValueError("quadratic regularizers need a center")
            center = np.array(self.x0, dtype=float)
            if center.shape != self.grid.nodes.shape:
                raise ValueError("center must be sampled on the grid")
            center.setflags(write=False)
            object.__setattr__(self, "x0", center)

    @classmethod
    def entropy_on_simplex(cls, grid):
        """Negative entropy restricted to unit-integral densities on ``grid``."""
        return cls(kind="entropy_simplex", grid=grid, mu=0.5)

    @classmethod
    def quadratic(cls, grid, x0):
        """Half squared weighted distance to the center ``x0``."""
        return cls(kind="quadratic", grid=grid, mu=1.0, x0=x0)


def mirror_map(reg, xi):
    """Primal iterate induced by a dual variable: x = grad R*(xi).

    Entropy case: exp(xi) normalized by its quadrature integral, evaluated
    with a max shift so large dual variables cannot overflow (the shift
    cancels in the normalization).  Quadratic case: the center plus xi.
    ``xi`` may hold a block of dual variables as the rows of an ``(R, m)``
    array; each row is mapped on its own, bit for bit as a single ``(m,)``
    one is.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim > 2 or xi.shape[-1:] != reg.grid.nodes.shape:
        raise ValueError("dual variable must be sampled on the grid, one row per run")
    if reg.kind == "quadratic":
        return reg.x0 + xi
    # the transposes apply each row's own max and integral and keep rows C-ordered
    shifted = np.exp((xi.T - xi.max(axis=-1)).T)
    return (shifted.T / np.vecdot(shifted, reg.grid.weights)).T


def bregman_distance(reg, x_bar, x):
    """Bregman distance D(x_bar, x) of the regularizer.

    Entropy case: the Kullback-Leibler form, the quadrature of
    ``x_bar * log(x_bar / x)`` with the convention 0 log 0 = 0; a node where
    ``x`` vanishes but ``x_bar`` does not makes the distance infinite.
    Quadratic case: half the squared weighted distance.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    x = np.asarray(x, dtype=float)
    if reg.kind == "quadratic":
        return 0.5 * reg.grid.norm_sq(x_bar - x)
    carrying = x_bar > 0
    if np.any(carrying & (x <= 0)):
        return math.inf
    integrand = np.zeros_like(x_bar)
    integrand[carrying] = x_bar[carrying] * (np.log(x_bar[carrying]) - np.log(x[carrying]))
    return reg.grid.integrate(integrand)


def rate_envelope(n, p, total_level, m0):
    """Shape of the noisy-data error bound for the dual iteration.

    Returns ``p * m0 / (n+1) + (n+1) * delta^2 / p + delta^2``; the bound is
    this envelope times an instance constant, so checks fit the constant
    rather than hardcode it.  With ``n + 1`` of order ``p / delta`` the
    envelope is O(delta).
    """
    if n < 0:
        raise ValueError("step index must be nonnegative")
    return p * m0 / (n + 1.0) + (n + 1.0) * total_level**2 / p + total_level**2


def run_mirror(problem, data, reg, policy, n_iters, seed=0, observer=None, index_path=None):
    """Drive the dual iteration for ``n_iters`` random-row steps.

    The same contract and the same step loop as :func:`shbreg.solvers.run`
    (observer at every iterate including n = 0 on a live buffer, replayable
    ``index_path``, deterministic given the seed, the same validation before
    the first step): the momentum update is carried in moving-average form
    on the dual variable, which starts at zero, and the primal iterate is
    read off through :func:`mirror_map` after every step.  Both norm scopes
    are checked against the admissible budget ``mu0 < 2 * mu``; a row-scope
    policy has ``eta_i ||A_i||^2 == mu0``, the same budget row by row.

    Raises
    ------
    ValueError
        On every input :class:`shbreg.solvers.RunSpec` rejects for a dual run
        (among them a regularizer on another grid and ``mu0 >= 2 * mu``), and
        on an index path that is not one sequence of rows in ``[0, p)``.
    """
    spec = RunSpec(problem=problem, policy=policy, n_iters=n_iters, data=data, regularizer=reg)
    return _run_block(spec, _single_path(spec, seed, index_path), observer)
