"""Discretized linear operators on a quadrature-weighted function space.

Functions on an interval [a, b] are represented by their values at the nodes
of a trapezoidal quadrature grid, and all inner products carry the quadrature
weights,

    <u, v>_w = sum_j w_j u_j v_j,

so that discrete adjoints and operator norms agree with the continuous ones
in the limit of grid refinement.  Equation i of a first-kind integral system
is the row map

    A_i x = sum_j w_j k_i[j] x[j],

the quadrature approximation of the integral of kappa(s_i, t) x(t) over
[a, b].  An :class:`OperatorBundle` holds a whole system as its packed kernel
matrix, which is what the solvers iterate with; the forward map, the adjoint
and the row and full norms are computed from it and nowhere else, and so is
the Gram matrix of the rows, whose eigenvectors row-space ensembles step in.
:class:`RowOperator` is the input record of one row.
"""

import functools

import numpy as np
from dataclasses import InitVar, dataclass, field

__all__ = ["Grid", "RowOperator", "OperatorBundle", "bundle_norm_sq"]


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Trapezoidal quadrature grid on [a, b].

    Parameters
    ----------
    a, b : float
        Interval endpoints.
    nodes : array, shape (m,)
        Strictly increasing nodes with ``nodes[0] == a`` and ``nodes[-1] == b``.
    weights : array, shape (m,)
        Strictly positive quadrature weights summing to ``b - a``.
    """

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen_array(self.nodes))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        nodes, weights = self.nodes, self.weights
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size < 2:
            raise ValueError("grid needs 1-d nodes and weights of equal length >= 2")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        if abs(nodes[0] - self.a) > 1e-12 * (1.0 + abs(self.a)):
            raise ValueError("first grid node must equal a")
        if abs(nodes[-1] - self.b) > 1e-12 * (1.0 + abs(self.b)):
            raise ValueError("last grid node must equal b")
        if not np.all(weights > 0):  # also rejects NaN
            raise ValueError("quadrature weights must be strictly positive")
        span = self.b - self.a
        if abs(float(weights.sum()) - span) > 1e-12 * abs(span):
            raise ValueError("quadrature weights must sum to b - a")

    @classmethod
    def uniform(cls, a, b, m):
        """Uniform grid of ``m`` nodes with composite-trapezoid weights."""
        if m < 2:
            raise ValueError("a trapezoidal grid needs at least 2 nodes")
        nodes = np.linspace(a, b, m)
        h = (b - a) / (m - 1)
        weights = np.full(m, h)
        weights[0] = weights[-1] = h / 2
        return cls(a=float(a), b=float(b), nodes=nodes, weights=weights)

    @property
    def m(self):
        return self.nodes.size

    def integrate(self, values):
        """Quadrature of sampled values: ``sum_j w_j values[j]``."""
        return float(self.weights @ np.asarray(values, dtype=float))

    def inner(self, u, v):
        """Weighted inner product ``<u, v>_w``."""
        return float(self.weights @ (np.asarray(u, dtype=float) * np.asarray(v, dtype=float)))

    def norm_sq(self, u):
        """Squared weighted norm ``<u, u>_w``."""
        u = np.asarray(u, dtype=float)
        return float(self.weights @ (u * u))

    def norm(self, u):
        return float(np.sqrt(self.norm_sq(u)))


@dataclass(frozen=True)
class RowOperator:
    """Input record of one equation for ``OperatorBundle(rows=...)``: a kernel
    row, frozen and checked to be sampled on ``grid``."""

    kernel_row: np.ndarray
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "kernel_row", _frozen_array(self.kernel_row))
        if self.kernel_row.shape != self.grid.nodes.shape:
            raise ValueError("kernel row length must match the grid")


@dataclass(frozen=True)
class OperatorBundle:
    """The stacked map of a p-equation system, held as its kernel matrix.

    ``rows``, :class:`RowOperator` records on one grid, are stacked once into
    the kernel matrix ``K`` (p x m) and not kept.  The bundle caches ``K``,
    ``K * w`` for the forward map, the squared row norms ``<k_i, k_i>_w``
    (Cauchy-Schwarz is sharp at ``x`` proportional to the row) and
    ``full_norm_sq = bundle_norm_sq(self)``.  The eigen-decomposition of the
    Gram matrix, :attr:`gram_eigensystem`, is built on first use, not at
    construction.
    """

    rows: InitVar[tuple]
    grid: Grid = field(init=False)
    kernel_matrix: np.ndarray = field(init=False)
    weighted_kernel_matrix: np.ndarray = field(init=False)
    row_norms_sq: np.ndarray = field(init=False)
    full_norm_sq: float = field(init=False)

    def __post_init__(self, rows):
        rows = tuple(rows)
        if len(rows) < 1:
            raise ValueError("a bundle needs at least one row")
        grid = rows[0].grid
        if any(r.grid is not grid for r in rows):
            raise ValueError("all rows must share one grid")
        K = _frozen_array(np.vstack([r.kernel_row for r in rows]))
        if not np.isfinite(K).all():
            raise ValueError("kernel matrix must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "kernel_matrix", K)
        object.__setattr__(self, "weighted_kernel_matrix", _frozen_array(K * grid.weights[None, :]))
        # vecdot is bit-identical to grid.norm_sq of each row; (K * K) @ w is not
        object.__setattr__(self, "row_norms_sq", _frozen_array(np.vecdot(K * K, grid.weights)))
        object.__setattr__(self, "full_norm_sq", bundle_norm_sq(self))

    @classmethod
    def from_kernel(cls, kernel, sample_points, grid):
        """Build a bundle by sampling ``kernel(s, t)`` on the mesh.

        ``kernel`` must be vectorized over numpy arrays; row i holds
        ``kernel(sample_points[i], nodes)``.
        """
        s = np.asarray(sample_points, dtype=float)
        K = kernel(s[:, None], grid.nodes[None, :])
        return cls(rows=tuple(RowOperator(K[i], grid) for i in range(s.size)))

    @property
    def p(self):
        return self.kernel_matrix.shape[0]

    @functools.cached_property
    def gram_eigensystem(self):
        """``(lam, V)`` with ``G = V diag(lam) V^T``, ``V`` orthogonal: the
        eigen-decomposition of the Gram matrix ``G = (K * w) K^T`` (p x p),
        ``G[i, j] = <k_i, k_j>_w``, eigenvalues ascending.  ``G`` is positive
        semidefinite, so a negative eigenvalue is rounding and is set to zero.
        Computed once per bundle, on first use, and read-only."""
        # one dot product per entry: its bits do not depend on how many
        # threads the BLAS runs, and no matrix-product buffer is touched
        G = np.vecdot(self.weighted_kernel_matrix[:, None, :], self.kernel_matrix[None, :, :])
        lam, V = np.linalg.eigh(0.5 * (G + G.T))
        lam = np.maximum(lam, 0.0)
        lam.setflags(write=False)
        V.setflags(write=False)
        return lam, V

    def apply_all(self, x):
        """Forward map of every row at once: returns the length-p data vector."""
        return self.weighted_kernel_matrix @ np.asarray(x, dtype=float)

    def adjoint_all(self, v):
        """Adjoint of the stacked map: ``sum_i k_i v[i]``."""
        return self.kernel_matrix.T @ np.asarray(v, dtype=float)


POWER_TOL = 1e-10
POWER_MAX_ITERS = 10_000


def bundle_norm_sq(bundle):
    """Upper estimate of the squared norm of the stacked map.

    Power iteration on the weighted normal operator runs until the Rayleigh
    quotient changes by less than ``POWER_TOL`` relative; the converged
    quotient is returned times a safety factor 1.01, so that step-size
    admissibility checks against it stay strict.  Each call iterates anew
    from a fixed start and returns ``bundle.full_norm_sq``.

    Raises
    ------
    RuntimeError
        If the quotient has not settled after ``POWER_MAX_ITERS`` iterations.
    """
    K, Kw, w = bundle.kernel_matrix, bundle.weighted_kernel_matrix, bundle.grid.weights
    if not np.any(K):
        return 0.0
    rng = np.random.default_rng(1905)
    x = rng.standard_normal(K.shape[1])
    q_prev = -1.0
    for _ in range(POWER_MAX_ITERS):
        g = K.T @ (Kw @ x)  # normal operator in the weighted geometry
        q = float(np.sum(w * x * g) / np.sum(w * x * x))
        scale = float(np.sqrt(np.sum(w * g * g)))
        if scale == 0.0:
            # start vector fell in the null space; redraw
            x = rng.standard_normal(K.shape[1])
            continue
        x = g / scale
        if q_prev >= 0 and abs(q - q_prev) <= POWER_TOL * q:
            return 1.01 * q
        q_prev = q
    raise RuntimeError(
        f"operator norm estimate did not settle within {POWER_MAX_ITERS} power iterations")
