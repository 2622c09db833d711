import math

import numpy as np
import pytest

from shbreg import (
    Grid,
    Regularizer,
    RunSpec,
    StepPolicy,
    add_noise,
    bregman_distance,
    build_example2,
    index_stream,
    mirror_map,
    monte_carlo,
    random_instance,
    rate_envelope,
    run,
    run_mirror,
)
from shbreg import mirror as mirror_module
from shbreg.solvers import resolve_base_steps

from oracle import trajectory


class TestMirrorMap:
    def test_uniform_density_from_zero(self):
        reg = Regularizer.entropy_on_simplex(Grid.uniform(0.0, 1.0, 11))
        np.testing.assert_allclose(mirror_map(reg, np.zeros(11)), 1.0, rtol=1e-14)

    def test_constant_dual_gives_uniform_density(self):
        grid = Grid.uniform(-6.0, 6.0, 25)
        reg = Regularizer.entropy_on_simplex(grid)
        for c in (-300.0, 0.0, 7.5, 900.0):
            np.testing.assert_allclose(mirror_map(reg, np.full(25, c)), 1.0 / 12.0,
                                       rtol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        grid = Grid.uniform(0.0, 1.0, 40)
        reg = Regularizer.entropy_on_simplex(grid)
        xi = rng.standard_normal(40)
        base = mirror_map(reg, xi)
        for c in (-50.0, 1e-3, 128.0):
            np.testing.assert_allclose(mirror_map(reg, xi + c), base, rtol=1e-13)

    def test_overflow_safe(self):
        grid = Grid.uniform(0.0, 1.0, 5)
        reg = Regularizer.entropy_on_simplex(grid)
        x = mirror_map(reg, np.array([1e4, 0.0, -1e4, 500.0, 9999.0]))
        assert np.all(np.isfinite(x))
        assert grid.integrate(x) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_is_a_shift(self):
        grid = Grid.uniform(0.0, 1.0, 6)
        center = np.linspace(0, 1, 6)
        reg = Regularizer.quadratic(grid, center)
        v = np.full(6, 0.25)
        np.testing.assert_array_equal(mirror_map(reg, v), center + v)
        zero_center = Regularizer.quadratic(grid, np.zeros(6))
        np.testing.assert_array_equal(mirror_map(zero_center, v), v)


class TestDualStep:
    def test_fixed_point(self):
        # data consistent with the uniform density, the first entropy iterate
        problem = build_example2(p=15)
        reg = Regularizer.entropy_on_simplex(problem.grid)
        x0 = mirror_map(reg, np.zeros(problem.m))
        data = problem.bundle.apply_all(x0)
        policy = StepPolicy.constant(0.9, norm_scope="full")
        for x in run_mirror(problem, data, reg, policy, 20, seed=2):
            np.testing.assert_allclose(x, x0, rtol=1e-12)

    def test_zero_step_is_pure_extrapolation(self):
        # equation 1 is always gated: after one live step on equation 0 the
        # dual iterates follow xi_{n+1} = xi_n + beta_n (xi_n - xi_{n-1}); the
        # quadratic map with a zero center reads xi off unchanged
        problem = random_instance(2, 7, seed=5)
        reg = Regularizer.quadratic(problem.grid, np.zeros(7))
        policy = StepPolicy.discrepancy(0.6, 1.0, [0.0, 1e6])
        xi = run_mirror(problem, None, reg, policy, 0, index_path=[0, 1, 1, 1, 1])
        assert np.any(xi[1] != 0.0)
        for n in range(1, 5):
            beta = n / (n + 2.0)
            np.testing.assert_allclose(xi[n + 1], xi[n] + beta * (xi[n] - xi[n - 1]),
                                       rtol=1e-14)

    def test_initial_state_is_zero_dual(self):
        problem = random_instance(2, 9, seed=9)
        center = np.linspace(-1.0, 1.0, 9)
        reg = Regularizer.quadratic(problem.grid, center)
        seen = run_mirror(problem, None, reg, StepPolicy.constant(0.5), 0)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], center)  # x_0 = center + xi_0, xi_0 = 0


class TestBregman:
    def test_distance_to_self_is_zero(self):
        grid = Grid.uniform(0.0, 1.0, 21)
        entropy = Regularizer.entropy_on_simplex(grid)
        quad = Regularizer.quadratic(grid, np.zeros(21))
        density = mirror_map(entropy, np.sin(grid.nodes))
        assert bregman_distance(entropy, density, density) == 0.0
        assert bregman_distance(quad, density, density) == 0.0

    def test_quadratic_constant_offset(self):
        grid = Grid.uniform(0.0, 1.0, 13)
        quad = Regularizer.quadratic(grid, np.zeros(13))
        x = np.zeros(13)
        assert bregman_distance(quad, x + 1.0, x) == pytest.approx(0.5, rel=1e-12)

    def test_entropy_against_analytic_value(self):
        # Linear density 2t against the uniform density on [0, 1]:
        # the divergence integrates 2t log(2t), which is log 2 - 1/2.  The
        # vanishing node exercises the 0 log 0 convention.  Cross-checked
        # with a fine quadrature of the same integrand.
        grid = Grid.uniform(0.0, 1.0, 1001)
        reg = Regularizer.entropy_on_simplex(grid)
        linear = 2.0 * grid.nodes
        uniform = np.ones(1001)
        value = bregman_distance(reg, linear, uniform)
        assert value == pytest.approx(math.log(2.0) - 0.5, abs=1e-4)

        fine = Grid.uniform(0.0, 1.0, 200_001)
        t = fine.nodes
        integrand = np.where(t > 0, 2.0 * t * np.log(np.where(t > 0, 2.0 * t, 1.0)), 0.0)
        oracle = fine.integrate(integrand)
        assert value == pytest.approx(oracle, abs=1e-4)

    def test_entropy_infinite_signal(self):
        # The reference density is positive at a node where the base point
        # vanishes: the divergence is infinite.
        grid = Grid.uniform(0.0, 1.0, 101)
        reg = Regularizer.entropy_on_simplex(grid)
        linear = 2.0 * grid.nodes  # vanishes at t = 0
        uniform = np.ones(101)
        assert bregman_distance(reg, uniform, linear) == math.inf

    def test_nonnegativity_on_random_densities(self):
        rng = np.random.default_rng(31)
        grid = Grid.uniform(0.0, 1.0, 30)
        reg = Regularizer.entropy_on_simplex(grid)
        for _ in range(20):
            a = mirror_map(reg, rng.standard_normal(30))
            b = mirror_map(reg, rng.standard_normal(30))
            assert bregman_distance(reg, a, b) >= -1e-12

    def test_positive_between_distinct_densities(self):
        rng = np.random.default_rng(33)
        grid = Grid.uniform(0.0, 1.0, 30)
        entropy = Regularizer.entropy_on_simplex(grid)
        quad = Regularizer.quadratic(grid, np.zeros(30))
        for _ in range(10):
            a = mirror_map(entropy, rng.standard_normal(30))
            b = mirror_map(entropy, rng.standard_normal(30))
            # strong convexity keeps the divergence well away from zero
            floor = 0.25 * grid.norm_sq(a - b)
            assert bregman_distance(entropy, a, b) > floor * 1e-3
            assert bregman_distance(quad, a, b) == pytest.approx(
                0.5 * grid.norm_sq(a - b), rel=1e-12)


class TestRateEnvelope:
    def test_noise_free_decay(self):
        values = [rate_envelope(n, 10, 0.0, 2.0) for n in range(0, 100, 7)]
        assert all(u > v for u, v in zip(values, values[1:]))

    def test_balanced_iteration_count(self):
        p, delta, m0 = 20, 1e-3, 3.0
        n = int(p / delta) - 1  # n + 1 = p / delta
        assert rate_envelope(n, p, delta, m0) == pytest.approx(
            delta * (m0 + 1.0) + delta**2, rel=1e-9)

    def test_unimodal_in_n(self):
        values = np.array([rate_envelope(n, 5, 1e-2, 1.0) for n in range(3000)])
        drops = np.diff(values) < 0
        # decreasing then increasing: exactly one sign change
        assert drops[0] and not drops[-1]
        assert np.sum(np.diff(drops.astype(int)) != 0) == 1


class TestRunMirror:
    def test_zero_iterations_sees_mirror_of_zero(self):
        problem = build_example2(p=30)
        reg = Regularizer.entropy_on_simplex(problem.grid)
        seen = []
        run_mirror(problem, None, reg, StepPolicy.constant(0.9, norm_scope="full"),
                   0, observer=lambda n, x: seen.append(x.copy()))
        np.testing.assert_array_equal(seen[0], mirror_map(reg, np.zeros(problem.m)))

    def test_simplex_invariants_along_run(self):
        problem = build_example2(p=60)
        reg = Regularizer.entropy_on_simplex(problem.grid)
        data = add_noise(problem, 0.1, seed=3)
        policy = StepPolicy.constant(0.98, norm_scope="full")
        worst = 0.0

        def check(n, x):
            nonlocal worst
            worst = max(worst, abs(problem.grid.integrate(x) - 1.0))
            assert np.all(x >= 0)

        run_mirror(problem, data, reg, policy, 300, seed=4, observer=check)
        assert worst <= 1e-12

    def test_reproducible(self):
        problem = build_example2(p=25)
        reg = Regularizer.entropy_on_simplex(problem.grid)
        data = add_noise(problem, 0.1, seed=1)
        policy = StepPolicy.constant(0.9, norm_scope="full")
        a = run_mirror(problem, data, reg, policy, 40, seed=(3, 1))
        b = run_mirror(problem, data, reg, policy, 40, seed=(3, 1))
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_budget_validation(self):
        problem = build_example2(p=25)
        reg = Regularizer.entropy_on_simplex(problem.grid)  # mu = 1/2
        with pytest.raises(ValueError, match="mu0"):
            run_mirror(problem, None, reg, StepPolicy.constant(1.0, norm_scope="full"), 5)
        # a row-scope policy has eta_i ||A_i||^2 == mu0: the same budget row by row
        for mu0 in (1.0, 5.0):
            with pytest.raises(ValueError, match="mu0"):
                run_mirror(problem, None, reg, StepPolicy.constant(mu0), 5)
        quadratic = Regularizer.quadratic(problem.grid, np.zeros(problem.m))  # mu = 1
        with pytest.raises(ValueError, match="mu0"):
            run_mirror(problem, None, quadratic, StepPolicy.constant(2.0), 5)
        run_mirror(problem, None, reg, StepPolicy.constant(0.99), 5)
        run_mirror(problem, None, quadratic, StepPolicy.constant(1.99), 5)

    def test_modulus_must_be_positive_and_finite(self):
        grid = Grid.uniform(0.0, 1.0, 5)
        # a NaN modulus would let any mu0 through the budget mu0 < 2 * mu
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="modulus"):
                Regularizer(kind="entropy_simplex", grid=grid, mu=bad)

    def test_mirror_map_looked_up_at_call_time(self, monkeypatch):
        # the traced benchmark counts mirror-map calls through a replacement
        # installed on the module: single runs and ensembles must call it
        problem = build_example2(p=12)
        reg = Regularizer.entropy_on_simplex(problem.grid)
        policy = StepPolicy.constant(0.9, norm_scope="full")
        original, shapes = mirror_module.mirror_map, []

        def counting(reg, xi):
            shapes.append(np.shape(xi))
            return original(reg, xi)

        monkeypatch.setattr(mirror_module, "mirror_map", counting)
        run_mirror(problem, None, reg, policy, 4, seed=1)
        assert shapes == [(problem.m,)] * 5
        shapes.clear()
        monte_carlo(RunSpec(problem=problem, policy=policy, n_iters=4, regularizer=reg), 3,
                    base_seed=1)
        assert shapes == [(3, problem.m)] * 5

    def test_matches_single_dual_steps(self):
        problem = build_example2(p=20)
        reg = Regularizer.entropy_on_simplex(problem.grid)
        data = add_noise(problem, 0.2, seed=9)
        policy = StepPolicy.constant(0.9, norm_scope="full")
        etas = resolve_base_steps(policy, problem.bundle)
        path = index_stream((21, 0), problem.p, 30)
        trajectory_run = run_mirror(problem, data, reg, policy, 30, index_path=path)
        reference = trajectory(problem, data.values, etas, path, np.zeros(problem.m),
                               read_out=lambda xi: mirror_map(reg, xi))
        for a, b in zip(trajectory_run, reference):
            gap = problem.grid.norm(a - b)
            assert gap <= 1e-10 * (1.0 + problem.grid.norm(b))

    def test_short_noise_levels_rejected_before_first_step(self):
        problem = build_example2(p=25)
        reg = Regularizer.entropy_on_simplex(problem.grid)
        data = add_noise(problem, 0.1, seed=1)
        policy = StepPolicy.discrepancy(0.9, 1.0, data.per_eq_levels[:20], norm_scope="full")
        seen = []
        # sampled draws reach the missing entries 20..24 ...
        with pytest.raises(ValueError, match="one entry per equation"):
            run_mirror(problem, data, reg, policy, 200, seed=3,
                       observer=lambda n, x: seen.append(n))
        # ... and a path that never reaches them is rejected all the same
        with pytest.raises(ValueError, match="one entry per equation"):
            run_mirror(problem, data, reg, policy, 0, index_path=np.arange(20),
                       observer=lambda n, x: seen.append(n))
        assert seen == []


class TestQuadraticReduction:
    def test_dual_run_reproduces_primal_solver(self):
        problem = random_instance(4, 12, seed=77)
        data = add_noise(problem, 0.05, seed=6)
        rng = np.random.default_rng(13)
        center = 0.1 * rng.standard_normal(12)
        reg = Regularizer.quadratic(problem.grid, center)
        policy = StepPolicy.constant(0.6)  # per-row steps, shared by both runs
        path = index_stream((31, 0), problem.p, 120)
        primal = run(problem, data, policy, 120, x0=center, index_path=path)
        dual = run_mirror(problem, data, reg, policy, 120, index_path=path)
        for a, b in zip(primal, dual):
            gap = problem.grid.norm(a - b)
            assert gap <= 1e-10 * (1.0 + problem.grid.norm(a))
