"""Command-line front end: experiment reproduction and verification checks.

Experiment commands write one CSV per (noise level, policy) plus an SVG
overlay of the mean error traces; verification commands print one
machine-readable PASS/FAIL line each and set the exit code.  Everything is
deterministic given --seed; the environment variable SHB_THREADS caps the
worker pool used for ensembles.
"""

import argparse
import os
import sys

import numpy as np

from .linops import Grid, OperatorBundle, RowOperator
from .mirror import Regularizer
from .problems import add_noise, build_example1, build_example2, random_instance
from .solvers import RateConstants, RunSpec, StepPolicy, rate_bound, stability_bound
from .harness import (
    bound_check,
    enumerate_expectation,
    monte_carlo,
    semi_convergence_stats,
    source_condition_construct,
    stability_gap_ensemble,
    write_csv,
)
from .plots import line_plot_svg


def _parse_levels(text):
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse levels {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shbreg",
        description="Stochastic heavy-ball solvers for ill-posed linear systems.",
        epilog="SHB_THREADS caps the ensemble worker pool (default 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, **defaults):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--p", type=int, default=defaults.get("p"), help="number of equations")
        sp.add_argument("--m", type=int, default=defaults.get("m"), help="number of grid nodes")
        sp.add_argument("--runs", type=int, default=defaults.get("runs"), help="ensemble size")
        sp.add_argument("--iters", type=int, default=defaults.get("iters"), help="iteration budget")
        sp.add_argument("--policy", choices=("const", "dp"), default=defaults.get("policy", "const"))
        sp.add_argument("--mu0", type=float, default=defaults.get("mu0"))
        sp.add_argument("--tau", type=float, default=defaults.get("tau"))
        sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--levels", type=_parse_levels, default=defaults.get("levels"),
                        help="comma-separated relative noise levels")
        sp.add_argument("--out", default="out", help="output directory")
        return sp

    command("example1", "reproduce the raised-cosine benchmark ensembles",
            p=200, m=1000, runs=100, iters=5000, mu0=0.6, tau=1.4,
            levels=[1e-1, 1e-2, 1e-3])
    command("example2", "reproduce the density benchmark with the entropy regularizer",
            p=1000, m=1000, runs=100, iters=10000, mu0=0.98, tau=1.0,
            levels=[0.5, 0.1, 0.01])
    command("compare-sgd", "momentum vs plain stochastic gradient on the first benchmark",
            p=200, m=1000, runs=100, iters=5000, mu0=0.6, levels=[1e-2])
    command("oracle-check", "exact path enumeration vs Monte Carlo on a tiny instance",
            p=3, m=8, runs=20000, iters=5, mu0=0.6, levels=[5e-2])
    command("stability-check", "noise-propagation bound on a small random instance",
            p=5, m=16, runs=200, iters=500, mu0=0.6, levels=[1e-2])
    sp = command("rate-check", "exact-data rate bound on a synthetic source instance",
                 p=20, m=64, runs=200, iters=5000, mu0=0.6)
    sp.add_argument("--lam-scale", type=float, default=1.0,
                    help="scale of the random source representer (0 gives the trivial instance)")
    return parser


def _noise_seed(args, k):
    return args.seed * 1_000_003 + 101 * k + 1


def _base_seed(args, k, j=0):
    return args.seed * 1_000_003 + 101 * k + 11 + j


def _ensembles(args, problem, tag, labels, title, norm_scope="row", **spec_fields):
    """Constant-step ensembles at every noise level, plus gated ones with
    ``--policy dp``: one CSV per (level, label) and one SVG overlay."""
    os.makedirs(args.out, exist_ok=True)
    labels = labels if args.policy == "dp" else labels[:1]
    curves = []
    for k, level in enumerate(args.levels):
        data = add_noise(problem, level, seed=_noise_seed(args, k))
        for j, name in enumerate(labels):
            if j == 0:
                policy = StepPolicy.constant(args.mu0, norm_scope=norm_scope)
            else:
                policy = StepPolicy.discrepancy(args.mu0, args.tau, data.per_eq_levels,
                                                norm_scope=norm_scope)
            spec = RunSpec(problem=problem, policy=policy, n_iters=args.iters, data=data,
                           **spec_fields)
            result = monte_carlo(spec, args.runs, base_seed=_base_seed(args, k, j))
            path = os.path.join(args.out, f"{tag}_{level:g}_{name}.csv")
            write_csv(result, path)
            stats = semi_convergence_stats(result)
            print(f"{path}: err_min={stats.err_min:.3e}@{stats.n_min} "
                  f"err_final={stats.err_final:.3e}")
            curves.append((f"{level:g} {name}", result.iters, result.mean_sq_rel_err))
    line_plot_svg(os.path.join(args.out, f"{tag}.svg"), curves, title=title)
    return 0


def cmd_example1(args):
    return _ensembles(args, build_example1(args.p, args.m), "ex1", ("const", "dp"),
                      "heavy-ball ensembles, raised-cosine benchmark")


def cmd_example2(args):
    problem = build_example2(args.p)
    return _ensembles(args, problem, "ex2", ("entropy", "entropy-DP"),
                      "entropy-regularized ensembles, density benchmark", norm_scope="full",
                      metric="l1", regularizer=Regularizer.entropy_on_simplex(problem.grid))


def cmd_compare_sgd(args):
    problem = build_example1(args.p, args.m)
    os.makedirs(args.out, exist_ok=True)
    level = args.levels[0]
    data = add_noise(problem, level, seed=_noise_seed(args, 0))
    policy = StepPolicy.constant(args.mu0)
    curves = []
    minima = {}
    for j, variant in enumerate(("shb", "sgd")):
        spec = RunSpec(problem=problem, policy=policy, n_iters=args.iters, data=data,
                       variant=variant)
        result = monte_carlo(spec, args.runs, base_seed=_base_seed(args, 0, j))
        write_csv(result, os.path.join(args.out, f"compare_{level:g}_{variant}.csv"))
        minima[variant] = semi_convergence_stats(result).err_min
        curves.append((variant, result.iters, result.mean_sq_rel_err))
    line_plot_svg(os.path.join(args.out, "compare_sgd.svg"), curves,
                  title=f"momentum vs plain gradient at level {level:g}")
    ratio = max(minima.values()) / min(minima.values())
    print(f"compare-sgd: min_shb={minima['shb']:.3e} min_sgd={minima['sgd']:.3e} "
          f"ratio={ratio:.2f}")
    return 0


def cmd_oracle_check(args):
    problem = random_instance(args.p, args.m, args.seed)
    data = add_noise(problem, args.levels[0], seed=_noise_seed(args, 0))
    policy = StepPolicy.constant(args.mu0)
    worst = 0.0
    for variant in ("shb", "sgd"):
        exact = enumerate_expectation(problem, data, policy, args.iters, variant=variant)
        spec = RunSpec(problem=problem, policy=policy, n_iters=args.iters, data=data,
                       variant=variant, record=np.arange(args.iters + 1))
        mc = monte_carlo(spec, args.runs, base_seed=_base_seed(args, 0))
        gap = np.abs(mc.mean_sq_rel_err - exact)
        sigma = np.max(np.where(mc.std_err > 0, gap / np.where(mc.std_err > 0, mc.std_err, 1.0),
                                np.where(gap > 1e-13, np.inf, 0.0)))
        worst = max(worst, float(sigma))
    passed = worst <= 4.0
    print(f"oracle-check: {'PASS' if passed else 'FAIL'} max_sigma={worst:.2f} runs={args.runs}")
    return 0 if passed else 1


def cmd_stability_check(args):
    problem = random_instance(args.p, args.m, args.seed)
    data = add_noise(problem, args.levels[0], seed=_noise_seed(args, 0))
    policy = StepPolicy.constant(args.mu0)
    constants = RateConstants.for_policy(problem.bundle, policy)
    trace = stability_gap_ensemble(problem, data, policy, args.iters, args.runs,
                                   base_seed=_base_seed(args, 0))
    report = bound_check(trace, lambda n: stability_bound(n, data.total_level, problem.p,
                                                          constants))
    print(f"stability-check: {'PASS' if report.passed else 'FAIL'} "
          f"violations={len(report.violations)} runs={args.runs} iters={args.iters}")
    return 0 if report.passed else 1


def cmd_rate_check(args):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((args.seed, 1))))
    grid = Grid.uniform(0.0, 1.0, args.m)
    bundle = OperatorBundle(rows=tuple(
        RowOperator(rng.standard_normal(args.m), grid) for _ in range(args.p)))
    lam = args.lam_scale * rng.standard_normal(args.p)
    policy = StepPolicy.constant(args.mu0)
    instance = source_condition_construct(bundle, lam, np.zeros(args.m), policy)
    constants = RateConstants.for_policy(bundle, policy, m0=instance.m0)

    if instance.m0 == 0.0:
        print("rate-check: PASS trivial (zero representer, error is identically zero)")
        return 0
    spec = RunSpec(problem=instance.problem, policy=policy, n_iters=args.iters)
    trace = monte_carlo(spec, args.runs, base_seed=_base_seed(args, 0))
    report = bound_check(trace, lambda n: rate_bound(n, instance.problem.p, constants))
    sel = (trace.iters >= max(1, args.iters // 10)) & (trace.iters <= args.iters)
    slope = float(np.polyfit(np.log(trace.iters[sel]),
                             np.log(trace.mean_sq_rel_err[sel]), 1)[0])
    passed = report.passed and slope <= -0.5
    print(f"rate-check: {'PASS' if passed else 'FAIL'} violations={len(report.violations)} "
          f"slope={slope:.2f} m0={instance.m0:.3e}")
    return 0 if passed else 1


_COMMANDS = {
    "example1": cmd_example1,
    "example2": cmd_example2,
    "compare-sgd": cmd_compare_sgd,
    "oracle-check": cmd_oracle_check,
    "stability-check": cmd_stability_check,
    "rate-check": cmd_rate_check,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: {exc.filename or args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
