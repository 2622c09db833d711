import numpy as np
import pytest

from shbreg import (
    EnsembleResult,
    Grid,
    OperatorBundle,
    ProblemInstance,
    Regularizer,
    RowOperator,
    RunSpec,
    StepPolicy,
    add_noise,
    bound_check,
    enumerate_expectation,
    index_stream,
    monte_carlo,
    random_instance,
    recorded_iters,
    rel_err_sq,
    run,
    semi_convergence_stats,
    source_condition_construct,
    stability_gap_ensemble,
    write_csv,
)
from shbreg import harness, solvers
from shbreg.solvers import resolve_base_steps


def make_trace(iters, means, std_errs=None, truth_norm_sq=1.0):
    iters = np.asarray(iters)
    means = np.asarray(means, dtype=float)
    se = np.zeros_like(means) if std_errs is None else np.asarray(std_errs, dtype=float)
    return EnsembleResult(iters=iters, mean_sq_rel_err=means, std_err=se,
                          n_runs=1, base_seed=0, truth_norm_sq=truth_norm_sq)


def no_work(*args, **kwargs):
    raise AssertionError("an ensemble started work before checking its input")


class TestRecordedIters:
    def test_dense_region(self):
        np.testing.assert_array_equal(recorded_iters(30), np.arange(31))

    def test_strided_tail(self):
        rec = recorded_iters(5000)
        assert rec[0] == 0 and rec[-1] == 5000
        assert np.all(np.diff(rec) > 0)
        assert np.array_equal(rec[:1001], np.arange(1001))
        assert np.all(np.diff(rec[1001:]) == 10)

    def test_tail_always_includes_final(self):
        rec = recorded_iters(1005)  # 1005 is off the stride of 10
        assert rec[-2:].tolist() == [1000, 1005]


class TestRelErr:
    def test_exact_match_is_zero(self):
        grid = Grid.uniform(0.0, 1.0, 9)
        truth = np.sin(grid.nodes) + 2.0
        assert rel_err_sq(truth, truth, grid) == 0.0
        assert rel_err_sq(truth, truth, grid, norm="l1") == 0.0

    def test_zero_iterate_is_one(self):
        grid = Grid.uniform(0.0, 1.0, 9)
        truth = np.cos(grid.nodes)
        assert rel_err_sq(np.zeros(9), truth, grid) == pytest.approx(1.0, rel=1e-12)
        assert rel_err_sq(np.zeros(9), truth, grid, norm="l1") == pytest.approx(1.0, rel=1e-12)

    def test_doubling_is_one(self):
        grid = Grid.uniform(0.0, 1.0, 9)
        truth = np.cos(grid.nodes) + 1.5
        assert rel_err_sq(2 * truth, truth, grid) == pytest.approx(1.0, rel=1e-12)
        assert rel_err_sq(2 * truth, truth, grid, norm="l1") == pytest.approx(1.0, rel=1e-12)

    def test_zero_truth_rejected(self):
        grid = Grid.uniform(0.0, 1.0, 9)
        with pytest.raises(ValueError):
            rel_err_sq(np.ones(9), np.zeros(9), grid)


class TestRunSpec:
    def test_unknown_metric_rejected(self):
        problem = random_instance(2, 6, seed=25)
        for metric in ("linf", "L2", None):
            with pytest.raises(ValueError, match="metric"):
                RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=5,
                        metric=metric)

    def test_dual_run_with_initial_guess_rejected(self):
        problem = random_instance(2, 6, seed=26)
        with pytest.raises(ValueError, match="no x0"):
            RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=5,
                    regularizer=Regularizer.entropy_on_simplex(problem.grid), x0=np.ones(6))

    def test_dual_run_with_sgd_variant_rejected(self):
        problem = random_instance(2, 6, seed=27)
        with pytest.raises(ValueError, match="sgd"):
            RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=5,
                    regularizer=Regularizer.entropy_on_simplex(problem.grid), variant="sgd")

    def test_unknown_variant_rejected(self):
        problem = random_instance(2, 6, seed=28)
        for variant in ("bogus", "SHB", None):
            with pytest.raises(ValueError, match="variant"):
                RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=5,
                        variant=variant)

    def test_negative_iteration_count_rejected(self):
        problem = random_instance(2, 6, seed=29)
        with pytest.raises(ValueError, match="iteration count"):
            RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=-1)

    def test_record_outside_range_rejected(self):
        problem = random_instance(2, 6, seed=30)
        for record in ([], [-1, 3], [0, 10], np.arange(12)):
            with pytest.raises(ValueError, match="recorded indices"):
                RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=9,
                        record=record)

    @pytest.mark.parametrize("case", [
        "primal-mu0", "dual-mu0-full-scope", "dual-mu0-row-scope", "regularizer-on-other-grid",
        "x0-wrong-shape", "x0-not-finite", "data-wrong-length", "data-not-finite",
        "levels-wrong-length", "zero-row", "zero-kernel-full-scope"])
    def test_run_input_rejected_at_construction(self, case, monkeypatch):
        problem = random_instance(3, 6, seed=35)
        entropy = Regularizer.entropy_on_simplex(problem.grid)  # mu = 1/2
        nan = problem.exact_data.copy()
        nan[1] = np.nan
        grid = Grid.uniform(0.0, 1.0, 3)
        zero_row = OperatorBundle(rows=(RowOperator(np.ones(3), grid),
                                        RowOperator(np.zeros(3), grid)))
        zero_kernel = OperatorBundle(rows=(RowOperator(np.zeros(3), grid),) * 2)
        fields, match = {
            "primal-mu0": (dict(policy=StepPolicy.constant(1.0)), "mu0"),
            "dual-mu0-full-scope": (dict(policy=StepPolicy.constant(1.0, norm_scope="full"),
                                         regularizer=entropy), "mu0"),
            "dual-mu0-row-scope": (dict(policy=StepPolicy.constant(1.5), regularizer=entropy),
                                   "mu0"),
            "regularizer-on-other-grid": (dict(regularizer=Regularizer.entropy_on_simplex(
                Grid.uniform(0.0, 1.0, 6))), "share the grid"),
            "x0-wrong-shape": (dict(x0=np.zeros(5)), "sampled on the grid"),
            "x0-not-finite": (dict(x0=np.full(6, np.inf)), "finite"),
            "data-wrong-length": (dict(data=problem.exact_data[:-1]), "one entry per equation"),
            "data-not-finite": (dict(data=nan), "finite"),
            "levels-wrong-length": (dict(policy=StepPolicy.discrepancy(0.5, 1.0, np.ones(2))),
                                    "one entry per equation"),
            "zero-row": (dict(problem=ProblemInstance(
                name="zero-row", grid=grid, sample_points=np.arange(2.0), bundle=zero_row,
                truth=np.ones(3), exact_data=zero_row.apply_all(np.ones(3)))), "zero row"),
            "zero-kernel-full-scope": (dict(problem=ProblemInstance(
                name="zero-kernel", grid=grid, sample_points=np.arange(2.0), bundle=zero_kernel,
                truth=np.ones(3), exact_data=np.zeros(2)),
                policy=StepPolicy.constant(0.5, norm_scope="full")), "zero kernel"),
        }[case]
        fields = {"problem": problem, "policy": StepPolicy.constant(0.5), **fields}
        # checked before an ensemble could start a worker pool
        monkeypatch.setenv("SHB_THREADS", "2")
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_work)
        with pytest.raises(ValueError, match=match):
            monte_carlo(RunSpec(n_iters=5, **fields), 4, base_seed=1)

    def test_one_class_under_every_import_path(self):
        assert RunSpec is harness.RunSpec is solvers.RunSpec

    def test_equality_and_hash_are_identity(self):
        problem = random_instance(2, 6, seed=36)
        levels = np.full(2, 0.1)
        pairs = [(lambda: StepPolicy.discrepancy(0.5, 1.2, levels)),
                 (lambda: Regularizer.quadratic(problem.grid, np.zeros(6))),
                 (lambda: RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=5,
                                  data=problem.exact_data, x0=np.zeros(6)))]
        for make in pairs:
            a, b = make(), make()
            assert a == a and a != b
            assert hash(a) == hash(a) and len({a, b}) == 2

    def test_record_normalized_once(self):
        problem = random_instance(2, 6, seed=31)
        spec = RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=9,
                       record=[9, 0, 4, 4, 2])
        np.testing.assert_array_equal(spec.record, [0, 2, 4, 9])
        assert not spec.record.flags.writeable
        assert spec.record_points() is spec.record
        result = monte_carlo(spec, 2, base_seed=1)
        np.testing.assert_array_equal(result.iters, [0, 2, 4, 9])


class TestMonteCarlo:
    def test_single_run_matches_direct_run(self):
        problem = random_instance(4, 10, seed=20)
        data = add_noise(problem, 0.05, seed=1)
        policy = StepPolicy.constant(0.6)
        x0 = np.linspace(-0.5, 0.5, 10)
        for metric, start in (("l2", None), ("l1", None), ("l2", x0), ("l1", x0)):
            spec = RunSpec(problem=problem, policy=policy, n_iters=30, data=data,
                           metric=metric, x0=start)
            result = monte_carlo(spec, 1, base_seed=5)
            assert np.all(result.std_err == 0.0)

            errors = run(problem, data, policy, 30, seed=(5, 0), x0=start,
                         observer=lambda n, x: rel_err_sq(x, problem.truth, problem.grid,
                                                          metric))
            if metric == "l2":
                # 2p <= m: the ensemble steps row coordinates, to a stated tolerance
                np.testing.assert_allclose(result.mean_sq_rel_err, errors, rtol=1e-9, atol=0)
            else:
                np.testing.assert_array_equal(result.mean_sq_rel_err, np.asarray(errors))

    def test_single_equation_has_no_spread(self):
        problem = random_instance(1, 8, seed=21)
        spec = RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=20)
        result = monte_carlo(spec, 5, base_seed=3)
        assert np.all(result.std_err == 0.0)
        single = monte_carlo(spec, 1, base_seed=3)
        np.testing.assert_array_equal(result.mean_sq_rel_err, single.mean_sq_rel_err)

    def test_deterministic(self):
        problem = random_instance(5, 8, seed=22)
        data = add_noise(problem, 0.1, seed=2)
        spec = RunSpec(problem=problem, policy=StepPolicy.constant(0.6), n_iters=40,
                       data=data)
        a = monte_carlo(spec, 8, base_seed=17)
        b = monte_carlo(spec, 8, base_seed=17)
        np.testing.assert_array_equal(a.mean_sq_rel_err, b.mean_sq_rel_err)
        np.testing.assert_array_equal(a.std_err, b.std_err)

    def test_worker_pool_matches_serial(self, monkeypatch):
        problem = random_instance(4, 8, seed=23)
        data = add_noise(problem, 0.1, seed=3)
        spec = RunSpec(problem=problem, policy=StepPolicy.constant(0.6), n_iters=25,
                       data=data)
        # 6 runs split evenly over three workers, 7 runs unevenly (2, 2, 3)
        for n_runs in (6, 7):
            monkeypatch.setenv("SHB_THREADS", "1")
            serial = monte_carlo(spec, n_runs, base_seed=9)
            monkeypatch.setenv("SHB_THREADS", "3")
            pooled = monte_carlo(spec, n_runs, base_seed=9)
            np.testing.assert_array_equal(serial.mean_sq_rel_err, pooled.mean_sq_rel_err)
            np.testing.assert_array_equal(serial.std_err, pooled.std_err)

    def test_overflow_names_run_and_step(self, monkeypatch):
        problem = random_instance(3, 8, seed=34)
        # finite data, but equation 1 is so large that the first step on it
        # overflows the squared error
        values = problem.exact_data.copy()
        values[1] = 1e300
        spec = RunSpec(problem=problem, policy=StepPolicy.constant(0.6), n_iters=12,
                       data=values, record=np.arange(13))
        first = [np.flatnonzero(index_stream((4, r), 3, 12) == 1) for r in range(5)]
        first = [hits[0] if hits.size else 12 for hits in first]
        step = min(first) + 1
        culprit = first.index(step - 1)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=rf"run \(4, {culprit}\) turned non-finite "
                                                 rf"at step {step}$"):
                monte_carlo(spec, 5, base_seed=4)
            monkeypatch.setenv("SHB_THREADS", "2")
            with pytest.raises(ValueError, match=r"run \(4, \d\) turned non-finite"):
                monte_carlo(spec, 5, base_seed=4)

    def test_bad_run_count(self):
        problem = random_instance(2, 6, seed=24)
        spec = RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=5)
        with pytest.raises(ValueError):
            monte_carlo(spec, 0, base_seed=1)

    def test_bad_base_seed_rejected_before_any_run(self, monkeypatch):
        problem = random_instance(2, 6, seed=25)
        spec = RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=5)
        monkeypatch.setattr(harness, "_trace_block", no_work)
        for threads in ("1", "2"):
            monkeypatch.setenv("SHB_THREADS", threads)
            for bad in (-1, 2.5, np.float64(3.0), "7", None, (1, 2)):
                with pytest.raises(ValueError, match="base seed must be a nonnegative integer"):
                    monte_carlo(spec, 4, base_seed=bad)

    def test_numpy_integer_base_seed_accepted(self):
        problem = random_instance(2, 6, seed=26)
        spec = RunSpec(problem=problem, policy=StepPolicy.constant(0.5), n_iters=5)
        for seed in (3, 2**70 + 1):
            plain = monte_carlo(spec, 3, base_seed=seed)
            if seed < 2**63:
                wide = monte_carlo(spec, 3, base_seed=np.int64(seed))
                assert type(wide.base_seed) is int and wide.base_seed == seed
                np.testing.assert_array_equal(wide.mean_sq_rel_err, plain.mean_sq_rel_err)
            assert plain.base_seed == seed


class TestEnumeration:
    def test_single_equation_equals_deterministic_run(self):
        problem = random_instance(1, 6, seed=30)
        policy = StepPolicy.constant(0.5)
        x0 = np.linspace(0.0, 1.0, 6)
        for metric, start in (("l2", None), ("l1", None), ("l2", x0), ("l1", x0)):
            exact = enumerate_expectation(problem, None, policy, 8, metric=metric, x0=start)
            trace = run(problem, None, policy, 8, x0=start,
                        observer=lambda n, x: rel_err_sq(x, problem.truth, problem.grid,
                                                         metric))
            if metric == "l2":
                # 2p <= m: the paths step row coordinates, to a stated tolerance
                np.testing.assert_allclose(exact, trace, rtol=1e-9, atol=0)
            else:
                np.testing.assert_array_equal(exact, np.asarray(trace))

    def test_zero_steps(self):
        problem = random_instance(3, 6, seed=31)
        exact = enumerate_expectation(problem, None, StepPolicy.constant(0.5), 0)
        assert exact.shape == (1,)
        assert exact[0] == pytest.approx(
            rel_err_sq(np.zeros(6), problem.truth, problem.grid), rel=1e-15)

    def test_guard(self):
        problem = random_instance(3, 6, seed=32)
        with pytest.raises(ValueError, match="guard"):
            enumerate_expectation(problem, None, StepPolicy.constant(0.5), 20)

    def test_sampler_agrees_with_enumeration(self):
        problem = random_instance(3, 8, seed=33)
        data = add_noise(problem, 0.05, seed=4)
        policy = StepPolicy.constant(0.6)
        n_steps = 4
        exact = enumerate_expectation(problem, data, policy, n_steps)
        spec = RunSpec(problem=problem, policy=policy, n_iters=n_steps, data=data,
                       record=np.arange(n_steps + 1))
        mc = monte_carlo(spec, 4000, base_seed=77)
        gap = np.abs(mc.mean_sq_rel_err - exact)
        assert np.all(gap <= 4.0 * mc.std_err + 1e-13)


class TestSourceCondition:
    def test_zero_representer_gives_trivial_instance(self):
        rng = np.random.default_rng(40)
        grid = Grid.uniform(0.0, 1.0, 10)
        bundle = OperatorBundle(rows=tuple(
            RowOperator(rng.standard_normal(10), grid) for _ in range(4)))
        x0 = rng.standard_normal(10)
        instance = source_condition_construct(bundle, np.zeros(4), x0,
                                              StepPolicy.constant(0.6))
        np.testing.assert_array_equal(instance.problem.truth, x0)
        assert instance.m0 == 0.0

    def test_representer_scaling(self):
        rng = np.random.default_rng(41)
        grid = Grid.uniform(0.0, 1.0, 12)
        bundle = OperatorBundle(rows=tuple(
            RowOperator(rng.standard_normal(12), grid) for _ in range(5)))
        lam = rng.standard_normal(5)
        policy = StepPolicy.constant(0.6)
        x0 = np.zeros(12)
        base = source_condition_construct(bundle, lam, x0, policy)
        scaled = source_condition_construct(bundle, 3.0 * lam, x0, policy)
        np.testing.assert_allclose(scaled.problem.truth, 3.0 * base.problem.truth,
                                   rtol=1e-12)
        assert scaled.m0 == pytest.approx(9.0 * base.m0, rel=1e-12)

    def test_m0_formula(self):
        rng = np.random.default_rng(42)
        grid = Grid.uniform(0.0, 1.0, 16)
        bundle = OperatorBundle(rows=tuple(
            RowOperator(rng.standard_normal(16), grid) for _ in range(5)))
        lam = rng.standard_normal(5)
        x0 = rng.standard_normal(16)
        policy = StepPolicy.constant(0.6)
        instance = source_condition_construct(bundle, lam, x0, policy)
        etas = resolve_base_steps(policy, bundle)
        expected = (grid.norm_sq(x0 - instance.problem.truth)
                    + (1 - 0.6) * float(np.sum(lam**2 / etas)))
        assert instance.m0 == pytest.approx(expected, rel=1e-12)

    def test_truth_lies_in_adjoint_range(self):
        rng = np.random.default_rng(43)
        grid = Grid.uniform(0.0, 1.0, 16)
        bundle = OperatorBundle(rows=tuple(
            RowOperator(rng.standard_normal(16), grid) for _ in range(5)))
        lam = rng.standard_normal(5)
        x0 = rng.standard_normal(16)
        instance = source_condition_construct(bundle, lam, x0,
                                              StepPolicy.constant(0.6))
        # weighted least squares of (truth - x0) on the kernel rows
        sqrt_w = np.sqrt(grid.weights)
        design = (bundle.kernel_matrix * sqrt_w).T
        target = (instance.problem.truth - x0) * sqrt_w
        residual = target - design @ np.linalg.lstsq(design, target, rcond=None)[0]
        assert np.linalg.norm(residual) < 1e-10


class TestSemiStats:
    def test_monotone_trace(self):
        trace = make_trace([0, 1, 2, 3], [4.0, 3.0, 2.0, 1.0])
        stats = semi_convergence_stats(trace)
        assert stats.n_min == 3 and stats.err_min == 1.0 and stats.err_final == 1.0

    def test_v_shape(self):
        trace = make_trace([0, 10, 20, 30], [4.0, 1.0, 2.0, 3.0])
        stats = semi_convergence_stats(trace)
        assert stats.n_min == 10 and stats.err_min == 1.0 and stats.err_final == 3.0

    def test_tie_takes_first(self):
        trace = make_trace([0, 5, 10], [1.0, 1.0, 2.0])
        assert semi_convergence_stats(trace).n_min == 0

    def test_appending_larger_values_keeps_minimum(self):
        trace = make_trace([0, 1, 2], [3.0, 1.0, 2.0])
        longer = make_trace([0, 1, 2, 3, 4], [3.0, 1.0, 2.0, 5.0, 9.0])
        assert (semi_convergence_stats(trace).n_min ==
                semi_convergence_stats(longer).n_min == 1)


class TestBoundCheck:
    def test_huge_bound_passes(self):
        trace = make_trace([0, 1, 2], [1.0, 2.0, 3.0])
        assert bound_check(trace, lambda n: 1e300).passed

    def test_zero_bound_lists_every_index(self):
        trace = make_trace([0, 1, 2], [1.0, 2.0, 3.0])
        report = bound_check(trace, lambda n: 0.0)
        assert not report.passed
        assert [v[0] for v in report.violations] == [0, 1, 2]

    def test_absolute_conversion(self):
        # relative mean 0.5 with squared truth norm 4 is an absolute 2.0
        trace = make_trace([0], [0.5], truth_norm_sq=4.0)
        assert bound_check(trace, lambda n: 2.0).passed
        assert not bound_check(trace, lambda n: 1.9).passed

    def test_std_err_slack(self):
        trace = make_trace([0], [1.0], std_errs=[0.1])
        assert bound_check(trace, lambda n: 0.7).passed  # 0.7 + 3 * 0.1 = 1.0
        assert not bound_check(trace, lambda n: 0.69).passed

    def test_non_finite_allowance_is_a_violation(self):
        trace = make_trace([0, 1], [0.0, 0.0])
        for bad in (np.nan, np.inf):
            report = bound_check(trace, lambda n: bad if n == 1 else 1.0)
            assert not report.passed
            assert [v[0] for v in report.violations] == [1]


class TestStabilityGap:
    def test_zero_noise_gives_zero_gap(self):
        problem = random_instance(4, 8, seed=50)
        data = add_noise(problem, 0.0, seed=1)
        trace = stability_gap_ensemble(problem, data, StepPolicy.constant(0.6),
                                       n_iters=20, n_runs=3, base_seed=2)
        np.testing.assert_array_equal(trace.mean_sq_rel_err, 0.0)

    def test_bad_base_seed_rejected_before_any_run(self, monkeypatch):
        problem = random_instance(4, 8, seed=52)
        data = add_noise(problem, 0.2, seed=2)
        monkeypatch.setattr(harness, "_index_block", no_work)
        for bad in (-1, 2.5, "7"):
            with pytest.raises(ValueError, match="base seed must be a nonnegative integer"):
                stability_gap_ensemble(problem, data, StepPolicy.constant(0.6), n_iters=10,
                                       n_runs=4, base_seed=bad)

    def test_gap_starts_at_zero(self):
        problem = random_instance(4, 8, seed=51)
        data = add_noise(problem, 0.2, seed=2)
        trace = stability_gap_ensemble(problem, data, StepPolicy.constant(0.6),
                                       n_iters=10, n_runs=4, base_seed=3)
        assert trace.mean_sq_rel_err[0] == 0.0
        assert np.any(trace.mean_sq_rel_err[1:] > 0)


class TestEnsembleResult:
    def test_non_finite_mean_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                make_trace([0, 200], [0.5, bad])

    def test_non_finite_std_err_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                make_trace([0, 200], [0.5, 0.25], std_errs=[0.0, bad])


class TestCsv:
    def test_format_contract(self, tmp_path):
        trace = make_trace([0, 10], [1.25, 0.5], std_errs=[0.0, 0.125])
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "iter,mean_sq_rel_err,std_err"
        assert lines[1] == "0,1.250000000000e+00,0.000000000000e+00"
        assert lines[2] == "10,5.000000000000e-01,1.250000000000e-01"

    def test_rewrite_of_same_bytes_is_skipped(self, tmp_path, monkeypatch):
        trace = make_trace([0, 10], [1.25, 0.5], std_errs=[0.0, 0.125])
        path = tmp_path / "trace.csv"
        path.write_bytes(b"stale contents that are longer than the trace itself\n" * 4)
        write_csv(trace, path)
        expected = path.read_bytes()
        assert expected == (b"iter,mean_sq_rel_err,std_err\n"
                            b"0,1.250000000000e+00,0.000000000000e+00\n"
                            b"10,5.000000000000e-01,1.250000000000e-01\n")
        # a rerun finds its bytes on disk and does not open the file for writing
        real_open = open
        modes = []

        def spy(file, mode="r", *args, **kwargs):
            modes.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        write_csv(trace, path)
        assert modes and not any(set(mode) & set("wax+") for mode in modes)
        assert path.read_bytes() == expected
        # a file that holds these bytes and more is rewritten
        monkeypatch.undo()
        path.write_bytes(expected + b"1,2,3\n")
        write_csv(trace, path)
        assert path.read_bytes() == expected
