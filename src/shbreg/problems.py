"""Benchmark integral-equation instances and synthetic noisy data.

Two families of first-kind integral equations are provided: a translation
kernel with a raised-cosine bump on [-6, 6] against an oscillatory target,
and a narrow Gaussian kernel on [0, 1] whose target is a probability
density.  Data are point samples at uniformly spaced collocation points,
and noise is additive uniform noise scaled relative to the sup norm of the
exact data, one independent draw per equation.
"""

import io

import numpy as np
from dataclasses import dataclass

from .linops import Grid, OperatorBundle, RowOperator, _frozen_array

__all__ = [
    "ProblemInstance",
    "NoisyData",
    "build_example1",
    "build_example2",
    "random_instance",
    "add_noise",
    "to_text",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A discretized linear system with known ground truth.

    ``exact_data[i]`` is the forward map of ``truth`` through row i; the
    constructor recomputes and checks it so that stored data can never drift
    from the operator.  The bundle must be built on ``grid`` itself.
    """

    name: str
    grid: Grid
    sample_points: np.ndarray
    bundle: OperatorBundle
    truth: np.ndarray
    exact_data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sample_points", _frozen_array(self.sample_points))
        object.__setattr__(self, "truth", _frozen_array(self.truth))
        object.__setattr__(self, "exact_data", _frozen_array(self.exact_data))
        if self.bundle.grid is not self.grid:
            raise ValueError("bundle and problem must share the grid")
        if self.sample_points.size != self.bundle.p:
            raise ValueError("one sample point per equation is required")
        if self.truth.shape != self.grid.nodes.shape:
            raise ValueError("truth must be sampled on the grid")
        if self.exact_data.shape != (self.bundle.p,):
            raise ValueError("exact data must have one entry per equation")
        if not (np.isfinite(self.truth).all() and np.isfinite(self.exact_data).all()):
            # the consistency check below cannot see NaN: every comparison is False
            raise ValueError("truth and exact data must be finite")
        recomputed = self.bundle.apply_all(self.truth)
        scale = 1.0 + np.abs(recomputed)
        if np.any(np.abs(recomputed - self.exact_data) > 1e-12 * scale):
            raise ValueError("exact data is inconsistent with truth under the forward map")

    @property
    def p(self):
        return self.bundle.p

    @property
    def m(self):
        return self.grid.m


@dataclass(frozen=True)
class NoisyData:
    """Perturbed data vector together with its noise budget.

    ``per_eq_levels[i]`` bounds ``|values[i] - exact_data[i]|`` and
    ``total_level`` is the Euclidean aggregate of the per-equation levels.
    """

    values: np.ndarray
    per_eq_levels: np.ndarray
    total_level: float
    rel_level: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        object.__setattr__(self, "per_eq_levels", _frozen_array(self.per_eq_levels))
        if self.values.shape != self.per_eq_levels.shape:
            raise ValueError("values and per-equation levels must align")
        if not np.isfinite(self.values).all():
            raise ValueError("data values must be finite")
        aggregate = float(np.sqrt(np.sum(self.per_eq_levels**2)))
        if abs(self.total_level - aggregate) > 1e-12 * (1.0 + aggregate):
            raise ValueError("total noise level must aggregate the per-equation levels")


def _bump(u):
    # raised cosine supported on |u| < 3, continuous (with its slope) at the cutoff
    return np.where(np.abs(u) < 3.0, 1.0 + np.cos(np.pi * u / 3.0), 0.0)


def kernel_example1(s, t):
    """Translation kernel kappa(s, t) of the first benchmark."""
    return _bump(np.asarray(s, dtype=float) - np.asarray(t, dtype=float))


def truth_example1(t):
    """Ground truth of the first benchmark."""
    t = np.asarray(t, dtype=float)
    return np.sin(np.pi * t / 12.0) + np.sin(np.pi * t / 3.0) + t**2 * (1.0 - t) / 200.0


def kernel_example2(s, t):
    """Narrow Gaussian kernel of the density benchmark."""
    d = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
    return 4.0 * np.exp(-(d**2) / 0.0064)


def build_example1(p, m):
    """First benchmark: raised-cosine translation kernel on [-6, 6].

    Collocation points are uniform on [-6, 6]; the unknown lives on an
    ``m``-node trapezoidal grid over the same interval.
    """
    if p < 2 or m < 2:
        raise ValueError("need at least 2 sample points and 2 grid nodes")
    grid = Grid.uniform(-6.0, 6.0, m)
    s = np.linspace(-6.0, 6.0, p)
    bundle = OperatorBundle.from_kernel(kernel_example1, s, grid)
    truth = truth_example1(grid.nodes)
    return ProblemInstance(
        name="example-1",
        grid=grid,
        sample_points=s,
        bundle=bundle,
        truth=truth,
        exact_data=bundle.apply_all(truth),
    )


def build_example2(p):
    """Density benchmark: Gaussian kernel on [0, 1] with a two-bump density truth.

    The quadrature grid reuses the ``p`` collocation points (the interval is
    split into ``p - 1`` equal subintervals), and the truth is normalized so
    its trapezoidal integral is exactly 1.
    """
    if p < 2:
        raise ValueError("need at least 2 sample points")
    grid = Grid.uniform(0.0, 1.0, p)
    s = grid.nodes
    bundle = OperatorBundle.from_kernel(kernel_example2, s, grid)
    raw = np.exp(-60.0 * (grid.nodes - 0.3) ** 2) + 0.3 * np.exp(-40.0 * (grid.nodes - 0.8) ** 2)
    truth = raw / grid.integrate(raw)
    return ProblemInstance(
        name="example-2",
        grid=grid,
        sample_points=s,
        bundle=bundle,
        truth=truth,
        exact_data=bundle.apply_all(truth),
    )


def random_instance(p, m, seed):
    """Small random test instance: ``p`` dense standard-normal rows on an
    ``m``-node grid over [0, 1] and a standard-normal truth, all drawn from
    the stream keyed ``(seed, 0)``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0))))
    grid = Grid.uniform(0.0, 1.0, m)
    bundle = OperatorBundle(rows=tuple(
        RowOperator(rng.standard_normal(m), grid) for _ in range(p)))
    truth = rng.standard_normal(m)
    return ProblemInstance(name=f"random-{p}x{m}", grid=grid,
                           sample_points=np.arange(p, dtype=float), bundle=bundle,
                           truth=truth, exact_data=bundle.apply_all(truth))


def add_noise(problem, rel_level, seed):
    """Perturb the exact data with independent uniform noise.

    Every equation gets the same level ``rel_level * max_i |y_i|`` and an
    independent uniform draw from [-1, 1); the draw is fully determined by
    ``seed``.  One :class:`NoisyData` is meant to be fixed for a whole
    ensemble of solver runs, whose randomness is in the row draws only.
    """
    if rel_level < 0:
        raise ValueError("relative noise level must be nonnegative")
    y = problem.exact_data
    level = rel_level * float(np.max(np.abs(y)))
    eps = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).uniform(-1.0, 1.0, y.size)
    per_eq = np.full(y.size, level)
    return NoisyData(
        values=y + level * eps,
        per_eq_levels=per_eq,
        total_level=float(np.sqrt(np.sum(per_eq**2))),
        rel_level=float(rel_level),
        seed=int(seed),
    )


def to_text(problem):
    """Serialize a problem to a self-describing text block.

    Header carries name and sizes; the body lists the grid columns
    (node, weight, truth) and the data columns (sample point, exact datum)
    with full float64 precision, suitable for golden-file comparisons.
    """
    buf = io.StringIO()
    buf.write("# shbreg problem v1\n")
    buf.write(f"name {problem.name}\n")
    buf.write(f"a {problem.grid.a:.17e}\n")
    buf.write(f"b {problem.grid.b:.17e}\n")
    buf.write(f"p {problem.p}\n")
    buf.write(f"m {problem.m}\n")
    buf.write("# node weight truth\n")
    for node, weight, value in zip(problem.grid.nodes, problem.grid.weights, problem.truth):
        buf.write(f"{node:.17e} {weight:.17e} {value:.17e}\n")
    buf.write("# sample exact\n")
    for point, datum in zip(problem.sample_points, problem.exact_data):
        buf.write(f"{point:.17e} {datum:.17e}\n")
    return buf.getvalue()
