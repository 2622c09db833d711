import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shbreg import Grid, OperatorBundle, RowOperator, bundle_norm_sq, linops
from shbreg.problems import (
    build_example1,
    build_example2,
    kernel_example1,
    random_instance,
    truth_example1,
)


def bundle_of(K, grid):
    return OperatorBundle(rows=tuple(RowOperator(k, grid) for k in np.atleast_2d(K)))


class TestGrid:
    def test_uniform_weights_sum_to_span(self):
        grid = Grid.uniform(-6.0, 6.0, 1000)
        assert abs(grid.weights.sum() - 12.0) <= 1e-12 * 12.0
        assert grid.nodes[0] == -6.0 and grid.nodes[-1] == 6.0
        assert np.all(grid.weights > 0)

    def test_integrate_linear_exactly(self):
        grid = Grid.uniform(0.0, 1.0, 11)
        # trapezoid is exact on affine integrands
        assert grid.integrate(2.0 * grid.nodes) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError, match="increasing"):
            Grid(a=0.0, b=1.0, nodes=np.array([0.0, 0.7, 0.5, 1.0]),
                 weights=np.full(4, 0.25))

    def test_rejects_wrong_endpoint(self):
        with pytest.raises(ValueError, match="node"):
            Grid(a=0.0, b=1.0, nodes=np.array([0.1, 0.5, 1.0]),
                 weights=np.array([0.25, 0.5, 0.25]))
        for a, b in ((np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                Grid(a=a, b=b, nodes=np.array([0.0, 0.5, 1.0]),
                     weights=np.array([0.25, 0.5, 0.25]))

    def test_rejects_nonpositive_weights(self):
        for weights in ([0.5, 0.0, 0.5], [0.25, np.nan, 0.25], [np.nan, 0.5, 0.5]):
            with pytest.raises(ValueError, match="positive"):
                Grid(a=0.0, b=1.0, nodes=np.array([0.0, 0.5, 1.0]),
                     weights=np.array(weights))

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="sum"):
            Grid(a=0.0, b=1.0, nodes=np.array([0.0, 0.5, 1.0]),
                 weights=np.array([0.5, 0.5, 0.5]))

    def test_nodes_are_immutable(self):
        grid = Grid.uniform(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            grid.nodes[0] = 3.0


class TestRowOperator:
    # the row maps A_i, read off the bundle's apply_all, adjoint_all and row_norms_sq

    def test_apply_constant_kernel(self):
        grid = Grid.uniform(0.0, 1.0, 3)
        bundle = bundle_of(np.ones(3), grid)
        assert bundle.apply_all(np.ones(3))[0] == pytest.approx(1.0, abs=1e-15)

    def test_apply_zero_input(self):
        grid = Grid.uniform(0.0, 1.0, 7)
        bundle = bundle_of(np.sin(grid.nodes), grid)
        assert bundle.apply_all(np.zeros(7))[0] == 0.0

    def test_apply_length_mismatch(self):
        grid = Grid.uniform(0.0, 1.0, 7)
        with pytest.raises(ValueError, match="length"):
            RowOperator(np.ones(6), grid)
        bundle = bundle_of(np.ones(7), grid)
        with pytest.raises(ValueError):
            bundle.apply_all(np.ones(6))

    def test_apply_against_fine_quadrature_oracle(self):
        # Row at sample point 0 of the raised-cosine benchmark, applied to the
        # discretized truth, vs a 10^6-subinterval composite trapezoid of the
        # continuous integrand.
        grid = Grid.uniform(-6.0, 6.0, 1000)
        bundle = bundle_of(kernel_example1(0.0, grid.nodes), grid)
        value = bundle.apply_all(truth_example1(grid.nodes))[0]

        fine = Grid.uniform(-6.0, 6.0, 1_000_001)
        oracle = fine.integrate(kernel_example1(0.0, fine.nodes) * truth_example1(fine.nodes))
        assert abs(value - oracle) <= 1e-6 * abs(oracle)

    def test_adjoint_trivials(self):
        grid = Grid.uniform(0.0, 1.0, 5)
        bundle = bundle_of(np.ones(5), grid)
        assert np.array_equal(bundle.adjoint_all([0.0]), np.zeros(5))
        assert np.array_equal(bundle.adjoint_all([2.0]), np.full(5, 2.0))

    def test_adjoint_duality_identity(self):
        # <A x, v> == <x, A* v>_w for the stacked map
        rng = np.random.default_rng(42)
        grid = Grid.uniform(-2.0, 3.0, 33)
        for p in (1, 2, 5):
            for _ in range(10):
                bundle = bundle_of(rng.standard_normal((p, 33)), grid)
                x = rng.standard_normal(33)
                v = rng.standard_normal(p)
                forward = float(bundle.apply_all(x) @ v)
                backward = grid.inner(x, bundle.adjoint_all(v))
                assert abs(forward - backward) <= 1e-12 * (1.0 + abs(forward))

    def test_norm_sq_constant_kernel(self):
        grid = Grid.uniform(0.0, 1.0, 9)
        bundle = bundle_of(np.stack([np.ones(9), np.zeros(9)]), grid)
        assert bundle.row_norms_sq[0] == pytest.approx(1.0, abs=1e-15)
        assert bundle.row_norms_sq[1] == 0.0

    def test_norm_sq_against_svd_oracle(self):
        # A_i maps the weighted space to R; its norm is the top singular value
        # of the 1 x m matrix (w * k) W^{-1/2} = k sqrt(w).
        rng = np.random.default_rng(7)
        grid = Grid.uniform(0.0, 2.0, 16)
        bundle = bundle_of(rng.standard_normal((4, 16)), grid)
        for k, norm_sq in zip(bundle.kernel_matrix, bundle.row_norms_sq):
            oracle = np.linalg.svd(k[None, :] * np.sqrt(grid.weights), compute_uv=False)[0] ** 2
            assert abs(norm_sq - oracle) <= 1e-10 * oracle

    def test_cauchy_schwarz_sharpness(self):
        rng = np.random.default_rng(3)
        grid = Grid.uniform(0.0, 1.0, 24)
        bundle = bundle_of(rng.standard_normal((3, 24)), grid)
        norms = bundle.row_norms_sq
        for _ in range(20):
            x = rng.standard_normal(24)
            assert np.all(bundle.apply_all(x) ** 2 <= norms * grid.norm_sq(x) * (1 + 1e-12))
        for i, k in enumerate(bundle.kernel_matrix):
            aligned = bundle.apply_all(k)[i] ** 2
            assert aligned == pytest.approx(norms[i] * grid.norm_sq(k), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 12), m=st.integers(2, 400), seed=st.integers(0, 2**32 - 1),
           uniform=st.booleans())
    def test_row_norms_bit_equal_to_grid_norm(self, p, m, seed, uniform):
        # the bundle's vecdot must give grid.norm_sq of each row bit for bit,
        # on uniform and on non-uniform grids
        rng = np.random.default_rng(seed)
        if uniform:
            grid = Grid.uniform(-1.0, 2.0, m)
        else:
            nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, m - 2)), [1.0]])
            assume(np.all(np.diff(nodes) > 0))
            weights = np.empty(m)
            weights[0] = (nodes[1] - nodes[0]) / 2
            weights[-1] = (nodes[-1] - nodes[-2]) / 2
            weights[1:-1] = (nodes[2:] - nodes[:-2]) / 2
            grid = Grid(a=0.0, b=1.0, nodes=nodes, weights=weights)
        bundle = bundle_of(rng.standard_normal((p, m)) * rng.uniform(0.1, 10.0, (p, 1)), grid)
        expected = np.array([grid.norm_sq(k) for k in bundle.kernel_matrix])
        assert np.array_equal(bundle.row_norms_sq, expected)

    def test_row_norms_bit_equal_on_the_examples(self):
        for problem in (build_example1(p=200, m=1000), build_example2(p=400),
                        random_instance(20, 64, seed=0)):
            bundle, grid = problem.bundle, problem.grid
            expected = np.array([grid.norm_sq(k) for k in bundle.kernel_matrix])
            assert np.array_equal(bundle.row_norms_sq, expected)


class TestOperatorBundle:
    def test_rank_one_full_norm(self):
        grid = Grid.uniform(0.0, 1.0, 9)
        bundle = bundle_of(np.ones(9), grid)
        assert bundle.full_norm_sq == pytest.approx(1.01, rel=1e-8)

    def test_duplicated_row_doubles_the_norm(self):
        rng = np.random.default_rng(11)
        grid = Grid.uniform(0.0, 1.0, 12)
        row = rng.standard_normal(12)
        bundle = bundle_of(np.stack([row, row]), grid)
        assert bundle.full_norm_sq == pytest.approx(1.01 * 2 * grid.norm_sq(row), rel=1e-8)

    def test_full_norm_matches_dense_eigen_oracle(self):
        rng = np.random.default_rng(5)
        grid = Grid.uniform(0.0, 1.0, 16)
        bundle = bundle_of(rng.standard_normal((5, 16)), grid)
        top = np.linalg.svd(bundle.kernel_matrix * np.sqrt(grid.weights),
                            compute_uv=False)[0] ** 2
        assert bundle.full_norm_sq >= top
        assert abs(bundle.full_norm_sq - 1.01 * top) <= 0.01 * top

    def test_full_norm_dominates_row_norms(self):
        rng = np.random.default_rng(19)
        grid = Grid.uniform(-1.0, 1.0, 20)
        bundle = bundle_of(rng.standard_normal((7, 20)), grid)
        assert bundle.full_norm_sq >= bundle.row_norms_sq.max()

    def test_full_norm_is_bundle_norm_sq(self):
        for problem in (build_example1(p=40, m=120), random_instance(3, 8, seed=5)):
            assert bundle_norm_sq(problem.bundle) == problem.bundle.full_norm_sq

    def test_apply_all_matches_rows(self):
        rng = np.random.default_rng(23)
        grid = Grid.uniform(0.0, 1.0, 14)
        K = rng.standard_normal((4, 14))
        bundle = bundle_of(K, grid)
        x = rng.standard_normal(14)
        stacked = bundle.apply_all(x)
        for i, k in enumerate(K):
            expected = float(np.sum(grid.weights * k * x))
            assert stacked[i] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_adjoint_all_matches_rows(self):
        rng = np.random.default_rng(29)
        grid = Grid.uniform(0.0, 1.0, 10)
        K = rng.standard_normal((3, 10))
        bundle = bundle_of(K, grid)
        v = rng.standard_normal(3)
        expected = sum(k * v[i] for i, k in enumerate(K))
        np.testing.assert_allclose(bundle.adjoint_all(v), expected, rtol=1e-12)

    def test_rows_are_not_kept(self):
        grid = Grid.uniform(0.0, 1.0, 4)
        bundle = bundle_of(np.ones((2, 4)), grid)
        assert not hasattr(bundle, "rows")
        assert bundle.p == 2 and not bundle.kernel_matrix.flags.writeable

    def test_power_iteration_nonconvergence_raises(self, monkeypatch):
        rng = np.random.default_rng(31)
        grid = Grid.uniform(0.0, 1.0, 16)
        bundle = bundle_of(rng.standard_normal((5, 16)), grid)
        monkeypatch.setattr(linops, "POWER_MAX_ITERS", 1)
        with pytest.raises(RuntimeError, match="did not settle within 1 power"):
            bundle_norm_sq(bundle)

    def test_zero_bundle_norm(self):
        grid = Grid.uniform(0.0, 1.0, 4)
        bundle = bundle_of(np.zeros(4), grid)
        assert bundle.full_norm_sq == 0.0

    @pytest.mark.filterwarnings("error")
    def test_non_finite_kernel_rejected(self):
        # rejected before the power iteration, which would otherwise warn and
        # then fail to settle
        grid = Grid.uniform(0.0, 1.0, 6)
        for bad in (np.nan, np.inf, -np.inf):
            K = np.ones((3, 6))
            K[1, 4] = bad
            with pytest.raises(ValueError, match="finite"):
                bundle_of(K, grid)

        def kernel(s, t):
            return np.where((s == 1.0) & (t == grid.nodes[2]), np.nan, 1.0 + s * t)

        with pytest.raises(ValueError, match="finite"):
            OperatorBundle.from_kernel(kernel, [0.0, 1.0, 2.0], grid)
