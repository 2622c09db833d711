"""Checking the proven error bounds against simulation.

Three checks on small random instances:

1. the Monte Carlo sampler against exact enumeration of all index paths
   (the expectation over 3^4 equiprobable paths, computed literally);
2. the noise-propagation bound  E||x_n(noisy) - x_n(exact)||^2
     <= eta_bar * n * delta^2 / (c0 * p);
3. the exact-data rate bound  E||x_n - truth||^2 <= p * m0 / (c0 * (n+1))
   on an instance built so that its source energy m0 is known exactly
   (the representer is chosen first, the truth derived from it).

All three hold with zero multiplicative slack, up to 3 standard errors of
the Monte Carlo estimate.
"""

import numpy as np

from shbreg import (
    Grid,
    OperatorBundle,
    RateConstants,
    RowOperator,
    RunSpec,
    StepPolicy,
    add_noise,
    bound_check,
    enumerate_expectation,
    monte_carlo,
    random_instance,
    rate_bound,
    source_condition_construct,
    stability_bound,
    stability_gap_ensemble,
)


def main():
    policy = StepPolicy.constant(0.6)

    # 1. sampler vs enumeration
    problem = random_instance(3, 8, seed=60)
    data = add_noise(problem, 0.05, seed=1)
    exact = enumerate_expectation(problem, data, policy, 4)
    spec = RunSpec(problem=problem, policy=policy, n_iters=4, data=data,
                   record=np.arange(5))
    mc = monte_carlo(spec, 20_000, base_seed=2)
    sigmas = np.abs(mc.mean_sq_rel_err - exact) / np.maximum(mc.std_err, 1e-300)
    print(f"1. sampler vs enumeration: max deviation {np.nanmax(sigmas[1:]):.2f} sigma")

    # 2. noise propagation
    problem = random_instance(5, 16, seed=61)
    data = add_noise(problem, 1e-2, seed=2)
    constants = RateConstants.for_policy(problem.bundle, policy)
    gap = stability_gap_ensemble(problem, data, policy, n_iters=400, n_runs=100,
                                 base_seed=3)
    report = bound_check(gap, lambda n: stability_bound(n, data.total_level,
                                                        problem.p, constants))
    print(f"2. noise-propagation bound: {'holds' if report.passed else 'VIOLATED'} "
          f"at all {gap.iters.size} recorded iterations")

    # 3. rate bound on a constructed-source instance
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(62)))
    grid = Grid.uniform(0.0, 1.0, 32)
    bundle = OperatorBundle(rows=tuple(
        RowOperator(rng.standard_normal(32), grid) for _ in range(10)))
    instance = source_condition_construct(bundle, rng.standard_normal(10),
                                          np.zeros(32), policy)
    constants = RateConstants.for_policy(bundle, policy, m0=instance.m0)
    spec = RunSpec(problem=instance.problem, policy=policy, n_iters=2000)
    trace = monte_carlo(spec, 100, base_seed=4)
    report = bound_check(trace, lambda n: rate_bound(n, instance.problem.p, constants))
    print(f"3. rate bound (m0 = {instance.m0:.3f}): "
          f"{'holds' if report.passed else 'VIOLATED'} at all recorded iterations")


if __name__ == "__main__":
    main()
