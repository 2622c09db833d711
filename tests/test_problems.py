import os

import numpy as np
import pytest

from shbreg import (
    Grid,
    OperatorBundle,
    ProblemInstance,
    RowOperator,
    add_noise,
    build_example1,
    build_example2,
    to_text,
)
from shbreg.problems import kernel_example1, kernel_example2, truth_example1

from oracle import row_apply

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class TestExample1:
    def test_kernel_on_diagonal(self):
        for s in (-6.0, -1.3, 0.0, 4.5):
            assert kernel_example1(s, s) == pytest.approx(2.0, abs=1e-15)

    def test_kernel_vanishes_at_and_beyond_cutoff(self):
        assert kernel_example1(3.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert kernel_example1(-3.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert kernel_example1(5.9, 0.0) == 0.0
        assert kernel_example1(0.0, 4.2) == 0.0

    def test_truth_vanishes_at_origin(self):
        assert truth_example1(0.0) == 0.0

    def test_kernel_symmetry_on_nodes(self):
        problem = build_example1(p=9, m=9)
        t = problem.grid.nodes
        K = kernel_example1(t[:, None], t[None, :])
        np.testing.assert_allclose(K, K.T, rtol=0, atol=1e-15)

    def test_sample_points_uniform(self):
        problem = build_example1(p=5, m=12)
        np.testing.assert_allclose(problem.sample_points, np.linspace(-6, 6, 5))

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            build_example1(p=1, m=100)
        with pytest.raises(ValueError):
            build_example1(p=10, m=1)


class TestExample2:
    def test_kernel_on_diagonal(self):
        for s in (0.0, 0.25, 1.0):
            assert kernel_example2(s, s) == pytest.approx(4.0, abs=1e-15)

    def test_truth_is_a_density(self):
        problem = build_example2(p=300)
        assert problem.grid.integrate(problem.truth) == pytest.approx(1.0, abs=1e-12)
        assert np.all(problem.truth > 0)

    def test_grid_matches_sample_points(self):
        problem = build_example2(p=40)
        assert problem.m == problem.p == 40
        np.testing.assert_array_equal(problem.sample_points, problem.grid.nodes)

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            build_example2(p=1)


class TestProblemConsistency:
    def test_exact_data_matches_forward_map(self):
        problem = build_example1(p=11, m=40)
        for i in range(problem.p):
            recomputed = row_apply(problem.bundle, i, problem.truth)
            assert abs(recomputed - problem.exact_data[i]) <= 1e-12 * (1 + abs(recomputed))

    def test_non_finite_truth_rejected(self):
        grid = Grid.uniform(0.0, 1.0, 4)
        bundle = OperatorBundle(rows=(RowOperator(np.ones(4), grid),))
        for bad in (np.nan, np.inf):
            truth = np.array([1.0, bad, 0.0, 0.0])
            with pytest.raises(ValueError, match="finite"):
                ProblemInstance(name="bad", grid=grid, sample_points=[0.0], bundle=bundle,
                                truth=truth, exact_data=bundle.apply_all(truth))

    def test_bundle_on_another_grid_rejected(self):
        # same size and interval, different weights: the solver would step
        # with one geometry and the errors be measured with the other
        grid = Grid.uniform(0.0, 1.0, 4)
        nodes = np.array([0.0, 0.2, 0.7, 1.0])
        other = Grid(a=0.0, b=1.0, nodes=nodes, weights=np.array([0.1, 0.35, 0.4, 0.15]))
        bundle = OperatorBundle(rows=(RowOperator(np.ones(4), other),))
        truth = np.ones(4)
        with pytest.raises(ValueError, match="share the grid"):
            ProblemInstance(name="bad", grid=grid, sample_points=[0.0], bundle=bundle,
                            truth=truth, exact_data=bundle.apply_all(truth))


class TestNoise:
    def test_zero_level_returns_exact_data(self):
        problem = build_example1(p=7, m=20)
        data = add_noise(problem, 0.0, seed=3)
        np.testing.assert_array_equal(data.values, problem.exact_data)
        assert data.total_level == 0.0

    def test_noise_respects_per_equation_budget(self):
        problem = build_example1(p=25, m=30)
        data = add_noise(problem, 0.3, seed=11)
        assert np.all(np.abs(data.values - problem.exact_data) <= data.per_eq_levels)

    def test_total_level_aggregates(self):
        problem = build_example1(p=16, m=20)
        data = add_noise(problem, 0.05, seed=4)
        level = 0.05 * np.max(np.abs(problem.exact_data))
        assert data.total_level == pytest.approx(4 * level, rel=1e-12)

    def test_same_seed_is_bit_identical(self):
        problem = build_example2(p=30)
        one = add_noise(problem, 0.1, seed=99)
        two = add_noise(problem, 0.1, seed=99)
        assert np.array_equal(one.values, two.values)

    def test_different_seeds_differ(self):
        problem = build_example2(p=30)
        assert not np.array_equal(add_noise(problem, 0.1, seed=1).values,
                                  add_noise(problem, 0.1, seed=2).values)

    def test_negative_level_rejected(self):
        problem = build_example2(p=10)
        with pytest.raises(ValueError):
            add_noise(problem, -0.1, seed=0)


class TestSerialization:
    def test_golden_file(self):
        problem = build_example1(p=7, m=9)
        with open(os.path.join(DATA_DIR, "golden_example1_p7_m9.txt")) as fh:
            assert to_text(problem) == fh.read()

    def test_header_fields(self):
        text = to_text(build_example2(p=12))
        lines = text.splitlines()
        assert lines[0] == "# shbreg problem v1"
        assert lines[1] == "name example-2"
        assert lines[4] == "p 12"
        assert lines[5] == "m 12"
        # grid block has m rows, data block has p rows
        assert len(lines) == 6 + 1 + 12 + 1 + 12
