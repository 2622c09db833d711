"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every ensemble is pinned to explicit seeds, so the suite is deterministic;
tolerances are stated inline next to each check.
"""

import time

import numpy as np
import pytest

from shbreg import (
    Grid,
    OperatorBundle,
    RateConstants,
    Regularizer,
    RowOperator,
    RunSpec,
    StepPolicy,
    a_priori_stop,
    add_noise,
    bound_check,
    build_example1,
    build_example2,
    enumerate_expectation,
    index_stream,
    monte_carlo,
    random_instance,
    rate_bound,
    run,
    run_mirror,
    semi_convergence_stats,
    source_condition_construct,
    stability_bound,
    stability_gap_ensemble,
)
from shbreg.solvers import resolve_base_steps

from oracle import trajectory


def _report(num, name, passed, detail, t0, limit):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < limit
    status = "PASS" if (passed and in_time) else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert passed, f"criterion {num:02d} {name}: {detail}"
    assert in_time, f"criterion {num:02d} {name} exceeded {limit}s ({elapsed:.1f}s)"


def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@pytest.fixture(scope="module")
def example1_problem():
    return build_example1(p=200, m=1000)


@pytest.fixture(scope="module")
def example1_const_ensembles(example1_problem):
    """Constant-policy ensembles of the first benchmark at three noise levels."""
    out = {}
    for k, level in enumerate((1e-1, 1e-2, 1e-3)):
        data = add_noise(example1_problem, level, seed=101 + k)
        spec = RunSpec(problem=example1_problem, policy=StepPolicy.constant(0.6),
                       n_iters=5000, data=data)
        out[level] = (data, monte_carlo(spec, 20, base_seed=5000 + k))
    return out


@pytest.fixture(scope="module")
def example2_problem():
    return build_example2(p=400)


def test_criterion_01_form_equivalence():
    t0 = time.perf_counter()
    problem = random_instance(5, 16, seed=11)
    data = add_noise(problem, 1e-2, seed=1)
    policy = StepPolicy.constant(0.6)
    etas = resolve_base_steps(policy, problem.bundle)
    path = index_stream((1, 0), problem.p, 200)
    moving_average = run(problem, data, policy, 200, index_path=path)
    two_step = trajectory(problem, data.values, etas, path, np.zeros(16))
    worst = 0.0
    for a, b in zip(moving_average[1:], two_step[1:]):
        gap = problem.grid.norm(a - b)
        worst = max(worst, gap / (1.0 + problem.grid.norm(a)))
    _report(1, "two-step vs moving-average equivalence", worst <= 1e-10,
            f"max relative gap {worst:.2e} <= 1e-10 over 200 steps", t0, 1.0)


def test_criterion_02_enumeration_vs_monte_carlo():
    t0 = time.perf_counter()
    problem = random_instance(3, 8, seed=202)
    data = add_noise(problem, 0.05, seed=7)
    policy = StepPolicy.constant(0.6)
    worst = 0.0
    for variant in ("shb", "sgd"):
        exact = enumerate_expectation(problem, data, policy, 5, variant=variant)
        spec = RunSpec(problem=problem, policy=policy, n_iters=5, data=data,
                       variant=variant, record=np.arange(6))
        mc = monte_carlo(spec, 100_000, base_seed=2)
        gap = np.abs(mc.mean_sq_rel_err - exact)
        assert np.all(gap <= 4.0 * mc.std_err + 1e-13)
        sigma = np.max(np.where(mc.std_err > 0, gap / np.maximum(mc.std_err, 1e-300), 0.0))
        worst = max(worst, float(sigma))
    _report(2, "exact enumeration vs sampler", worst <= 4.0,
            f"max deviation {worst:.2f} sigma <= 4 (243 paths vs 1e5 runs)", t0, 30.0)


def test_criterion_03_stability_bound():
    t0 = time.perf_counter()
    problem = random_instance(5, 16, seed=303)
    data = add_noise(problem, 1e-2, seed=9)
    policy = StepPolicy.constant(0.6)
    constants = RateConstants.for_policy(problem.bundle, policy)
    assert constants.c0 == pytest.approx(0.4)
    trace = stability_gap_ensemble(problem, data, policy, n_iters=500, n_runs=200,
                                   base_seed=13)
    report = bound_check(
        trace, lambda n: stability_bound(n, data.total_level, problem.p, constants))
    _report(3, "noise-propagation bound", report.passed,
            f"{len(report.violations)} violations over {trace.iters.size} points, "
            "zero multiplicative slack", t0, 60.0)


@pytest.fixture(scope="module")
def source_instance():
    rng = _philox((404, 0))
    grid = Grid.uniform(0.0, 1.0, 64)
    bundle = OperatorBundle(rows=tuple(
        RowOperator(rng.standard_normal(64), grid) for _ in range(20)))
    lam = rng.standard_normal(20)
    policy = StepPolicy.constant(0.6)
    instance = source_condition_construct(bundle, lam, np.zeros(64), policy)
    constants = RateConstants.for_policy(bundle, policy, m0=instance.m0)
    return instance, policy, constants


def test_criterion_04_rate_bound(source_instance):
    t0 = time.perf_counter()
    instance, policy, constants = source_instance
    spec = RunSpec(problem=instance.problem, policy=policy, n_iters=5000)
    trace = monte_carlo(spec, 200, base_seed=44)
    report = bound_check(trace, lambda n: rate_bound(n, instance.problem.p, constants))
    window = (trace.iters >= 500) & (trace.iters <= 5000)
    slope = float(np.polyfit(np.log(trace.iters[window]),
                             np.log(trace.mean_sq_rel_err[window]), 1)[0])
    _report(4, "exact-data rate bound", report.passed and slope <= -0.5,
            f"{len(report.violations)} violations, log-log slope {slope:.2f} <= -0.5",
            t0, 120.0)


def test_criterion_05_noise_level_scaling(source_instance):
    t0 = time.perf_counter()
    instance, policy, _ = source_instance
    problem = instance.problem
    sup = float(np.max(np.abs(problem.exact_data)))
    ratios = []
    for k, delta in enumerate((1e-1, 1e-2, 1e-3)):
        rel = delta / (np.sqrt(problem.p) * sup)
        data = add_noise(problem, rel, seed=500 + k)
        assert data.total_level == pytest.approx(delta, rel=1e-9)
        n_stop = a_priori_stop(problem.p, data.total_level)
        assert n_stop == int(np.ceil(problem.p / delta)) - 1
        spec = RunSpec(problem=problem, policy=policy, n_iters=n_stop, data=data,
                       record=np.array([n_stop]))
        result = monte_carlo(spec, 50, base_seed=55 + k)
        absolute = float(result.mean_sq_rel_err[0]) * result.truth_norm_sq
        ratios.append(absolute / delta)
    spread = max(ratios) / min(ratios)
    _report(5, "O(delta) scaling at the a-priori stop", spread <= 10.0,
            f"error/delta ratios {[f'{r:.2f}' for r in ratios]}, spread {spread:.2f} <= 10",
            t0, 300.0)


def test_criterion_06_semi_convergence_shape(example1_const_ensembles):
    t0 = time.perf_counter()
    stats = {level: semi_convergence_stats(trace)
             for level, (_, trace) in example1_const_ensembles.items()}
    s1, s2, s3 = stats[1e-1], stats[1e-2], stats[1e-3]
    err_ordered = s1.err_min > s2.err_min > s3.err_min
    n_ordered = s1.n_min < s2.n_min < s3.n_min
    blowup = s1.err_final / s1.err_min
    _report(6, "semi-convergence across noise levels",
            err_ordered and n_ordered and blowup > 3.0,
            f"err_min {s1.err_min:.1e}>{s2.err_min:.1e}>{s3.err_min:.1e}, "
            f"n_min {s1.n_min}<{s2.n_min}<{s3.n_min}, "
            f"final/min at 1e-1 = {blowup:.1f} > 3", t0, 300.0)


def test_criterion_07_discrepancy_mitigation(example1_problem, example1_const_ensembles):
    t0 = time.perf_counter()
    data, const_trace = example1_const_ensembles[1e-1]
    dp_policy = StepPolicy.discrepancy(0.6, 1.4, data.per_eq_levels)
    spec = RunSpec(problem=example1_problem, policy=dp_policy, n_iters=5000, data=data)
    dp_trace = monte_carlo(spec, 20, base_seed=6000)
    dp = semi_convergence_stats(dp_trace)
    const = semi_convergence_stats(const_trace)
    dp_flat = dp.err_final <= 2.0 * dp.err_min
    const_diverges = const.err_final >= 3.0 * const.err_min
    _report(7, "discrepancy gating removes the blow-up", dp_flat and const_diverges,
            f"gated final/min {dp.err_final / dp.err_min:.2f} <= 2, "
            f"constant final/min {const.err_final / const.err_min:.2f} >= 3", t0, 300.0)


def test_criterion_08_momentum_vs_plain_gradient(example1_problem):
    t0 = time.perf_counter()
    data = add_noise(example1_problem, 1e-2, seed=142)
    minima = {}
    for j, variant in enumerate(("shb", "sgd")):
        spec = RunSpec(problem=example1_problem, policy=StepPolicy.constant(0.6),
                       n_iters=5000, data=data, variant=variant)
        trace = monte_carlo(spec, 60, base_seed=7000 + j)
        minima[variant] = semi_convergence_stats(trace).err_min
    ratio = max(minima.values()) / min(minima.values())
    _report(8, "momentum comparable to plain gradient", ratio <= 2.0,
            f"best errors {minima['shb']:.2e} vs {minima['sgd']:.2e}, "
            f"ratio {ratio:.2f} <= 2", t0, 300.0)


def test_criterion_09_entropy_dual_iteration(example2_problem):
    t0 = time.perf_counter()
    problem = example2_problem
    reg = Regularizer.entropy_on_simplex(problem.grid)
    data = add_noise(problem, 0.1, seed=11)
    n_iters = 200_000
    record = np.unique(np.concatenate(
        [np.arange(0, 1001), np.arange(1200, n_iters + 1, 200)]))

    # simplex invariants along one full-length gated run
    worst_integral = 0.0
    worst_min = 0.0

    def invariants(n, x):
        nonlocal worst_integral, worst_min
        worst_integral = max(worst_integral, abs(problem.grid.integrate(x) - 1.0))
        worst_min = min(worst_min, float(x.min()))

    dp_policy = StepPolicy.discrepancy(0.98, 1.0, data.per_eq_levels, norm_scope="full")
    run_mirror(problem, data, reg, dp_policy, n_iters, seed=(9000, 0),
               observer=invariants)
    simplex_ok = worst_integral <= 1e-12 and worst_min >= 0.0

    stats = {}
    for name, policy in (("const", StepPolicy.constant(0.98, norm_scope="full")),
                         ("gated", dp_policy)):
        spec = RunSpec(problem=problem, policy=policy, n_iters=n_iters, data=data,
                       metric="l1", regularizer=reg, record=record)
        stats[name] = semi_convergence_stats(monte_carlo(spec, 5, base_seed=9000))
    const_ratio = stats["const"].err_final / stats["const"].err_min
    gated_ratio = stats["gated"].err_final / stats["gated"].err_min
    _report(9, "entropy iterates stay densities; gating tames divergence",
            simplex_ok and const_ratio > 2.0 and gated_ratio <= 2.0,
            f"max integral drift {worst_integral:.1e} <= 1e-12, min node {worst_min:.1e}, "
            f"constant final/min {const_ratio:.1f} > 2, gated {gated_ratio:.2f} <= 2",
            t0, 300.0)


def test_criterion_10_quadratic_regularizer_reduction():
    t0 = time.perf_counter()
    problem = random_instance(5, 16, seed=1010)
    data = add_noise(problem, 0.05, seed=3)
    center = 0.1 * _philox((1010, 1)).standard_normal(16)
    reg = Regularizer.quadratic(problem.grid, center)
    policy = StepPolicy.constant(0.6)
    path = index_stream((77, 0), problem.p, 500)
    primal = run(problem, data, policy, 500, x0=center, index_path=path)
    dual = run_mirror(problem, data, reg, policy, 500, index_path=path)
    worst = 0.0
    for a, b in zip(primal, dual):
        gap = problem.grid.norm(a - b)
        worst = max(worst, gap / (1.0 + problem.grid.norm(a)))
    _report(10, "quadratic regularizer reproduces the primal solver", worst <= 1e-10,
            f"max relative gap {worst:.2e} <= 1e-10 over 500 steps", t0, 1.0)
