import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shbreg import (
    Grid,
    NoisyData,
    OperatorBundle,
    ProblemInstance,
    RateConstants,
    RowOperator,
    RunSpec,
    StepPolicy,
    a_priori_stop,
    add_noise,
    index_stream,
    random_instance,
    rate_bound,
    run,
    stability_bound,
    step_coefficients,
)
from shbreg.harness import source_condition_construct
from shbreg.solvers import resolve_base_steps

from oracle import row_apply, trajectory


def scalar_problem(value=1.0, m=3):
    """One equation whose row is 1 on [0, 1]: A x integrates x and ||A||^2 == 1."""
    grid = Grid.uniform(0.0, 1.0, m)
    bundle = OperatorBundle(rows=(RowOperator(np.ones(m), grid),))
    truth = np.full(m, value)
    return ProblemInstance(name="scalar", grid=grid, sample_points=np.zeros(1), bundle=bundle,
                           truth=truth, exact_data=bundle.apply_all(truth))


class TestStepCoefficients:
    def test_first_steps(self):
        assert step_coefficients(0) == (0.5, 0.0)
        assert step_coefficients(2) == (0.25, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            step_coefficients(-1)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_schedule_shape(self, n):
        alpha, beta = step_coefficients(n)
        alpha_next, beta_next = step_coefficients(n + 1)
        assert 0 < alpha <= 0.5 and 0 <= beta < 1
        assert alpha_next < alpha
        assert beta_next > beta
        assert alpha * (n + 2) == pytest.approx(1.0, rel=1e-15)


class TestStepPolicy:
    def test_constant_validation(self):
        with pytest.raises(ValueError):
            StepPolicy.constant(0.0)
        with pytest.raises(ValueError):
            StepPolicy.constant(-0.5)

    def test_discrepancy_validation(self):
        # a NaN tau would make a NaN floor that never gates
        for tau in (0.9, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                StepPolicy.discrepancy(0.6, tau, np.ones(3))
        with pytest.raises(ValueError, match="levels"):
            StepPolicy(kind="discrepancy", mu0=0.6, tau=1.4)
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                StepPolicy.discrepancy(0.6, 1.4, [0.1, bad])

    def test_step_size_gating(self):
        # x0 = 0 and y = 1 give |residual| == 1 at the first draw: a gate floor
        # tau * level of exactly 1 zeroes the step, a floor just below keeps it
        problem = scalar_problem()
        for variant, live in (("shb", 0.25), ("sgd", 0.5)):
            gated = run(problem, None, StepPolicy.discrepancy(0.5, 2.0, [0.5]), 1,
                        variant=variant)
            assert gated[1][0] == 0.0
            stepped = run(problem, None, StepPolicy.discrepancy(0.5, 2.0, [0.49]), 1,
                          variant=variant)
            assert stepped[1][0] == live

    def test_step_size_constant(self):
        grid = Grid.uniform(0.0, 1.0, 3)
        bundle = OperatorBundle(rows=(RowOperator(np.full(3, 2.0), grid),  # <k, k>_w == 4
                                      RowOperator(np.ones(3), grid)))      # <k, k>_w == 1
        np.testing.assert_allclose(resolve_base_steps(StepPolicy.constant(0.6), bundle),
                                   [0.15, 0.6], rtol=1e-15)

    def test_step_size_degenerate_row(self):
        grid = Grid.uniform(0.0, 1.0, 3)
        bundle = OperatorBundle(rows=(RowOperator(np.ones(3), grid),
                                      RowOperator(np.zeros(3), grid)))
        with pytest.raises(ValueError, match="zero row"):
            resolve_base_steps(StepPolicy.constant(0.5), bundle)
        problem = ProblemInstance(name="zero-row", grid=grid, sample_points=np.arange(2.0),
                                  bundle=bundle, truth=np.ones(3),
                                  exact_data=bundle.apply_all(np.ones(3)))
        with pytest.raises(ValueError, match="zero row"):
            run(problem, None, StepPolicy.constant(0.5), 5)

    def test_full_scope_needs_bundle_norm(self):
        problem = random_instance(3, 6, seed=14)
        bundle = problem.bundle
        full = StepPolicy.constant(0.5, norm_scope="full")
        np.testing.assert_array_equal(resolve_base_steps(full, bundle),
                                      np.full(3, 0.5 / bundle.full_norm_sq))
        assert np.all(resolve_base_steps(full, bundle)
                      < resolve_base_steps(StepPolicy.constant(0.5), bundle))


class TestSingleSteps:
    def test_consistent_fixed_point(self):
        problem = scalar_problem(5.0)
        x0 = np.full(3, 5.0)
        for variant in ("shb", "sgd"):
            for x in run(problem, None, StepPolicy.constant(0.7), 5, variant=variant, x0=x0):
                np.testing.assert_array_equal(x, x0)

    def test_zero_step_frozen_momentum(self):
        # every draw gated from the start: the accumulator stays at x0, so the
        # running average stays there up to the rounding of the average
        problem = random_instance(3, 6, seed=15)
        x0 = np.random.default_rng(15).standard_normal(6)
        policy = StepPolicy.discrepancy(0.6, 1.0, np.full(3, 1e6))
        for variant in ("shb", "sgd"):
            for x in run(problem, None, policy, 8, variant=variant, x0=x0):
                np.testing.assert_allclose(x, x0, rtol=1e-14)

    def test_scalar_momentum_iteration(self):
        # A = identity-like row on [0,1], y = 1, x0 = 0, eta = 0.5:
        # first two iterates are 1/4 and 11/24.
        problem = scalar_problem()
        expected = [0.0, 0.25, 11.0 / 24.0]
        for xs in (run(problem, None, StepPolicy.constant(0.5), 2),
                   trajectory(problem, [1.0], [0.5], [0, 0], np.zeros(3))):
            for x, value in zip(xs, expected):
                np.testing.assert_allclose(x, value, rtol=1e-14)

    def test_scalar_sgd_iteration(self):
        problem = scalar_problem()
        expected = [0.0, 0.5, 0.75]
        for xs in (run(problem, None, StepPolicy.constant(0.5), 2, variant="sgd"),
                   trajectory(problem, [1.0], [0.5], [0, 0], np.zeros(3),
                              coefficients=(1.0, 0.0))):
            for x, value in zip(xs, expected):
                np.testing.assert_allclose(x, value, rtol=1e-15)

    def test_moving_average_consistency_invariant(self):
        # z_n = (n+1) x_n - n x_{n-1}, recovered from the iterates, changes by
        # exactly one row correction per step
        problem = random_instance(3, 6, seed=8)
        data = add_noise(problem, 0.05, seed=8)
        policy = StepPolicy.constant(0.4)
        etas = resolve_base_steps(policy, problem.bundle)
        path = index_stream((8, 0), problem.p, 30)
        xs = run(problem, data, policy, 30, x0=np.ones(6), index_path=path)
        z = xs[0]
        for n, i in enumerate(path):
            z_next = (n + 2.0) * xs[n + 1] - (n + 1.0) * xs[n]
            residual = row_apply(problem.bundle, i, xs[n]) - data.values[i]
            correction = -etas[i] * residual * problem.bundle.kernel_matrix[i]
            scale = 1.0 + np.abs(z_next)
            assert np.all(np.abs(z_next - z - correction) <= 1e-10 * scale)
            z = z_next


class TestFormEquivalence:
    def test_two_forms_agree_along_a_path(self):
        problem = random_instance(4, 12, seed=100)
        data = add_noise(problem, 0.05, seed=5)
        policy = StepPolicy.constant(0.6)
        etas = resolve_base_steps(policy, problem.bundle)
        path = index_stream(123, problem.p, 60)
        moving_average = run(problem, data, policy, 60, index_path=path)
        two_step = trajectory(problem, data.values, etas, path, np.zeros(12))
        for a, b in zip(moving_average, two_step):
            gap = problem.grid.norm(a - b)
            assert gap <= 1e-10 * (1.0 + problem.grid.norm(a))


class TestRun:
    def test_zero_iterations_sees_initial_guess(self):
        problem = random_instance(3, 10, seed=1)
        seen = []
        run(problem, None, StepPolicy.constant(0.5), 0,
            observer=lambda n, x: seen.append((n, x.copy())))
        assert len(seen) == 1 and seen[0][0] == 0
        np.testing.assert_array_equal(seen[0][1], np.zeros(10))

    def test_single_equation_ignores_seed(self):
        problem = random_instance(1, 8, seed=2)
        a = run(problem, None, StepPolicy.constant(0.5), 20, seed=1)
        b = run(problem, None, StepPolicy.constant(0.5), 20, seed=999)
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_fixed_seed_reproducible(self):
        problem = random_instance(5, 8, seed=3)
        data = add_noise(problem, 0.1, seed=1)
        a = run(problem, data, StepPolicy.constant(0.6), 50, seed=(7, 0))
        b = run(problem, data, StepPolicy.constant(0.6), 50, seed=(7, 0))
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_run_matches_single_steps(self):
        # a gated run: the reference applies the gate |A_i x - y_i| <= tau * level
        # itself, and the path must hit both sides of it
        problem = random_instance(4, 9, seed=4)
        data = add_noise(problem, 0.02, seed=2)
        policy = StepPolicy.discrepancy(0.7, 40.0, data.per_eq_levels)
        etas = resolve_base_steps(policy, problem.bundle)
        floor = policy.tau * policy.per_eq_levels
        path = index_stream((11, 0), problem.p, 40)
        trajectory_run = run(problem, data, policy, 40, index_path=path)
        reference = trajectory(problem, data.values, etas, path, np.zeros(9), floor=floor)
        gated = sum(abs(row_apply(problem.bundle, i, reference[n]) - data.values[i]) <= floor[i]
                    for n, i in enumerate(path))
        assert 0 < gated < path.size
        for a, b in zip(trajectory_run, reference):
            gap = problem.grid.norm(a - b)
            assert gap <= 1e-12 * (1.0 + problem.grid.norm(b))

    def test_sgd_variant_matches_single_steps(self):
        problem = random_instance(4, 9, seed=6)
        policy = StepPolicy.constant(0.7)
        etas = resolve_base_steps(policy, problem.bundle)
        path = index_stream((12, 0), problem.p, 25)
        trajectory_run = run(problem, None, policy, 25, variant="sgd", index_path=path)
        reference = trajectory(problem, problem.exact_data, etas, path, np.zeros(9),
                               coefficients=(1.0, 0.0))
        for a, b in zip(trajectory_run, reference):
            gap = problem.grid.norm(a - b)
            assert gap <= 1e-12 * (1.0 + problem.grid.norm(b))

    def test_discrepancy_gate_keeps_averaging_alive(self):
        # When every residual is inside the noise budget the corrections stop
        # but the running average still moves x toward z.
        problem = random_instance(3, 6, seed=7)
        levels = np.full(3, 1e6)  # everything gated off
        policy = StepPolicy.discrepancy(0.6, 1.0, levels)
        x0 = np.ones(6)
        # seed a gap between x and z by one live step first
        live = StepPolicy.constant(0.6)
        trajectory = run(problem, None, live, 1, seed=0, x0=x0)
        primed = run(problem, None, policy, 5, seed=0, x0=trajectory[-1])
        assert all(np.isfinite(x).all() for x in primed)

    def test_mu0_budget_enforced(self):
        problem = random_instance(3, 6, seed=8)
        with pytest.raises(ValueError, match="mu0"):
            run(problem, None, StepPolicy.constant(1.0), 5)

    def test_bad_variant_rejected(self):
        problem = random_instance(3, 6, seed=9)
        with pytest.raises(ValueError, match="variant"):
            run(problem, None, StepPolicy.constant(0.5), 5, variant="nesterov")

    def test_index_path_validation(self):
        problem = random_instance(3, 6, seed=10)
        for path in (np.array([0, 3]), np.zeros((2, 3), dtype=int)):
            with pytest.raises(ValueError, match="index path"):
                run(problem, None, StepPolicy.constant(0.5), 5, index_path=path)

    def test_raw_array_data_accepted(self):
        problem = random_instance(3, 6, seed=13)
        shifted = problem.exact_data + 0.25
        via_array = run(problem, shifted, StepPolicy.constant(0.5), 10, seed=4)
        via_exact = run(problem, None, StepPolicy.constant(0.5), 10, seed=4)
        assert not np.array_equal(via_array[-1], via_exact[-1])
        with pytest.raises(ValueError, match="one entry per equation"):
            run(problem, shifted[:-1], StepPolicy.constant(0.5), 10)

    def test_non_finite_data_rejected(self):
        problem = random_instance(5, 8, seed=16)
        data = problem.exact_data.copy()
        data[3] = np.nan
        seen = []
        with pytest.raises(ValueError, match="finite"):
            run(problem, data, StepPolicy.constant(0.5), 10, observer=lambda n, x: seen.append(n))
        assert seen == []
        with pytest.raises(ValueError, match="finite"):
            NoisyData(values=data, per_eq_levels=np.zeros(5), total_level=0.0, rel_level=0.0,
                      seed=0)
        # an ensemble cannot be set up on it: its spec raises before any run
        # or worker starts, so no NaN row reaches a CSV
        with pytest.raises(ValueError, match="finite"):
            RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=10, data=data)

    def test_non_finite_initial_guess_rejected(self):
        problem = random_instance(3, 6, seed=17)
        for bad in (np.nan, np.inf):
            x0 = np.zeros(6)
            x0[2] = bad
            with pytest.raises(ValueError, match="finite"):
                run(problem, None, StepPolicy.constant(0.5), 5, x0=x0)


class TestStopping:
    def test_known_values(self):
        assert a_priori_stop(100, 0.01) == 9999
        assert a_priori_stop(1, 1.0) == 0
        assert a_priori_stop(100, 0.005) == 19999

    def test_invalid_inputs(self):
        for level in (0.0, np.nan, np.inf):  # an infinite level gave a budget of -1
            with pytest.raises(ValueError, match="noise level"):
                a_priori_stop(10, level)
        with pytest.raises(ValueError):
            a_priori_stop(0, 0.1)

    @given(st.integers(min_value=1, max_value=500),
           st.floats(min_value=1e-5, max_value=10.0))
    def test_monotone_in_noise(self, p, delta):
        assert a_priori_stop(p, delta) <= a_priori_stop(p, delta / 2)
        assert (a_priori_stop(p, delta) + 1) >= p / delta * (1 - 1e-9)


class TestBounds:
    def test_stability_bound_arithmetic(self):
        constants = RateConstants(c0=0.4, eta_bar=0.6)
        assert stability_bound(0, 0.1, 5, constants) == 0.0
        assert stability_bound(10, 0.1, 5, constants) == pytest.approx(0.03)
        assert stability_bound(20, 0.1, 5, constants) == pytest.approx(
            2 * stability_bound(10, 0.1, 5, constants))

    def test_rate_bound_arithmetic(self):
        constants = RateConstants(c0=0.5, eta_bar=0.6, m0=1.0)
        assert rate_bound(0, 1, constants) == pytest.approx(2.0)
        n = 40
        assert rate_bound(2 * n + 1, 1, constants) == pytest.approx(
            rate_bound(n, 1, constants) / 2)
        assert rate_bound(10**9, 1, constants) < 1e-8

    def test_constants_from_constant_policy(self):
        problem = random_instance(5, 16, seed=12)
        constants = RateConstants.for_policy(problem.bundle, StepPolicy.constant(0.6))
        assert constants.c0 == 0.4  # 1 - mu0, exactly
        etas = resolve_base_steps(StepPolicy.constant(0.6), problem.bundle)
        assert constants.eta_bar == etas.max()

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            RateConstants(c0=0.0, eta_bar=1.0)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="largest step"):
                RateConstants(c0=0.5, eta_bar=bad)
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="source energy"):
                RateConstants(c0=0.5, eta_bar=1.0, m0=bad)


class TestExactDataEnergyDecay:
    def test_telescoped_energy_is_nonincreasing_in_expectation(self):
        # On a consistent system with admissible constant steps, the
        # path-expected quantity  E_n = ||z_n - truth||_w^2
        #     + (n/p) sum_i eta_i (A_i x_{n-1} - y_i)^2   is non-increasing.
        rng = np.random.default_rng(55)
        grid = Grid.uniform(0.0, 1.0, 6)
        bundle = OperatorBundle(rows=tuple(
            RowOperator(rng.standard_normal(6), grid) for _ in range(2)))
        policy = StepPolicy.constant(0.6)
        instance = source_condition_construct(bundle, rng.standard_normal(2),
                                              np.zeros(6), policy)
        problem = instance.problem
        etas = resolve_base_steps(policy, bundle)
        p, n_steps = problem.p, 6

        def energy(n, z, x_prev):
            residuals = problem.bundle.apply_all(x_prev) - problem.exact_data
            return (grid.norm_sq(z - problem.truth)
                    + n / p * float(np.sum(etas * residuals**2)))

        totals = np.zeros(n_steps + 1)
        count = 0
        for path in itertools.product(range(p), repeat=n_steps):
            xs = run(problem, None, policy, n_steps, index_path=np.array(path))
            totals[0] += energy(0, xs[0], xs[0])
            for n in range(1, n_steps + 1):
                # z_n = (n+1) x_n - n x_{n-1} is the accumulator of the moving average
                totals[n] += energy(n, (n + 1.0) * xs[n] - n * xs[n - 1], xs[n - 1])
            count += 1
        expected = totals / count
        assert np.all(np.diff(expected) <= 1e-12 * (1 + expected[:-1]))
