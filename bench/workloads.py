"""The benchmark's workloads: what each one builds and which ensembles it runs.

A workload is built from its seed alone (:func:`build_plan`); the library
receives only the generated problem, noise and ensemble seeds.  One *pass*
of a workload (:func:`run_pass`) rebuilds the problem, runs every ensemble
back to back, writes each result with ``write_csv`` and draws the SVG
overlay, which is the same sequence of public calls the ``example1`` /
``example2`` / ``compare-sgd`` / ``oracle-check`` commands make.

Ensemble sizes are scaled down from the command-line defaults so a pass
takes about a second and a timed run holds many passes; the problem shapes
are the ones the acceptance criteria use.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from shbreg import (
    Grid,
    OperatorBundle,
    ProblemInstance,
    Regularizer,
    RowOperator,
    RunSpec,
    StepPolicy,
    add_noise,
    build_example1,
    build_example2,
    enumerate_expectation,
    monte_carlo,
    write_csv,
)
from shbreg.plots import line_plot_svg

EX1_RUNS, EX1_ITERS = 10, 5000
EX2_RUNS, EX2_ITERS = 2, 20000
ORACLE_RUNS, ORACLE_STEPS = 5000, 5


@dataclass
class Ensemble:
    """One ``monte_carlo`` call of a pass and the CSV it is written to."""

    label: str
    spec: RunSpec
    runs: int
    base_seed: int


@dataclass
class Plan:
    """Everything one pass of a workload does, derived from the seed."""

    workload: str
    seed: int
    threads: int
    problem: ProblemInstance
    ensembles: list
    enumerate: bool = False
    svg_title: str = None
    regularizer: object = None


def threads_of(workload):
    """``SHB_THREADS`` of a workload: two workers for the pool, one otherwise."""
    return 2 if workload == "ex1-pool2" else 1


def _noise_seed(seed):
    return seed * 1_000_003 + 1


def _base_seed(seed, j):
    return seed * 1_000_003 + 11 + j


def random_instance(p, m, seed):
    """Dense Gaussian rows on a unit-interval grid with a Gaussian truth."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0))))
    grid = Grid.uniform(0.0, 1.0, m)
    bundle = OperatorBundle(rows=tuple(RowOperator(rng.standard_normal(m), grid)
                                       for _ in range(p)))
    truth = rng.standard_normal(m)
    return ProblemInstance(name=f"random-{p}x{m}", grid=grid,
                           sample_points=np.arange(p, dtype=float), bundle=bundle,
                           truth=truth, exact_data=bundle.apply_all(truth))


def build_problem(workload, seed):
    """Set-up of a workload: problem build plus noise synthesis."""
    if workload in ("ex1-primal", "ex1-pool2"):
        problem = build_example1(p=200, m=1000)
        return problem, add_noise(problem, 1e-2, seed=_noise_seed(seed))
    if workload == "ex2-entropy":
        problem = build_example2(p=400)
        return problem, add_noise(problem, 0.1, seed=_noise_seed(seed))
    if workload == "oracle-tiny":
        problem = random_instance(3, 8, seed)
        return problem, add_noise(problem, 5e-2, seed=_noise_seed(seed))
    raise ValueError(f"unknown workload {workload!r}")


def build_plan(workload, seed):
    """The problem and the ensembles (specs, run counts, base seeds) of a pass."""
    problem, data = build_problem(workload, seed)
    if workload in ("ex1-primal", "ex1-pool2"):
        shb = StepPolicy.constant(0.6)
        dp = StepPolicy.discrepancy(0.6, 1.4, data.per_eq_levels)
        specs = [("shb_const", RunSpec(problem=problem, policy=shb, n_iters=EX1_ITERS, data=data)),
                 ("shb_dp", RunSpec(problem=problem, policy=dp, n_iters=EX1_ITERS, data=data)),
                 ("sgd_const", RunSpec(problem=problem, policy=shb, n_iters=EX1_ITERS, data=data,
                                       variant="sgd"))]
        ensembles = [Ensemble(label, spec, EX1_RUNS, _base_seed(seed, j))
                     for j, (label, spec) in enumerate(specs)]
        return Plan(workload, seed, threads_of(workload), problem,
                    ensembles, svg_title="heavy-ball ensembles, raised-cosine benchmark")
    if workload == "ex2-entropy":
        reg = Regularizer.entropy_on_simplex(problem.grid)
        # criterion 09's schedule: dense to 1000, then every 200th iterate
        record = np.unique(np.concatenate([np.arange(0, 1001),
                                           np.arange(1200, EX2_ITERS + 1, 200)]))
        policies = [("entropy", StepPolicy.constant(0.98, norm_scope="full")),
                    ("entropy_dp", StepPolicy.discrepancy(0.98, 1.0, data.per_eq_levels,
                                                          norm_scope="full"))]
        ensembles = [Ensemble(label, RunSpec(problem=problem, policy=policy, n_iters=EX2_ITERS,
                                             data=data, metric="l1", regularizer=reg,
                                             record=record),
                              EX2_RUNS, _base_seed(seed, j))
                     for j, (label, policy) in enumerate(policies)]
        return Plan(workload, seed, 1, problem, ensembles, regularizer=reg,
                    svg_title="entropy-regularized ensembles, density benchmark")
    policy = StepPolicy.constant(0.6)
    ensembles = [Ensemble(variant, RunSpec(problem=problem, policy=policy, n_iters=ORACLE_STEPS,
                                           data=data, variant=variant,
                                           record=np.arange(ORACLE_STEPS + 1)),
                          ORACLE_RUNS, _base_seed(seed, 0))
                 for variant in ("shb", "sgd")]
    return Plan(workload, seed, 1, problem, ensembles, enumerate=True)


@dataclass
class PassResult:
    """Timings and outputs of one pass."""

    wall_s: float
    steps: int
    results: dict
    exact: dict
    csv_bytes: dict


def run_pass(workload, seed, out_dir, span):
    """One pass: build, ensembles (and enumerations), CSVs, SVG.

    ``span(name)`` is a context manager factory wrapped around each of the
    benchmark's calls into the library: a tracer's span in the timed passes,
    a no-op in the memory probe.  ``SHB_THREADS`` is set from the plan
    before any ensemble runs.
    """
    t0 = time.perf_counter()
    with span("problems.build"):
        plan = build_plan(workload, seed)
    os.environ["SHB_THREADS"] = str(plan.threads)
    steps = 0
    results, exact, csv_bytes = {}, {}, {}
    curves = []
    for ens in plan.ensembles:
        spec = ens.spec
        if plan.enumerate:
            with span("harness.enumerate_expectation"):
                exact[ens.label] = enumerate_expectation(plan.problem, spec.data, spec.policy,
                                                         spec.n_iters, variant=spec.variant)
            steps += plan.problem.p ** spec.n_iters * spec.n_iters
        with span("harness.monte_carlo"):
            result = monte_carlo(spec, ens.runs, base_seed=ens.base_seed)
        steps += ens.runs * spec.n_iters
        path = os.path.join(out_dir, f"{workload}_{ens.label}.csv")
        with span("harness.write_csv"):
            write_csv(result, path)
        with open(path, "rb") as fh:
            csv_bytes[ens.label] = fh.read()
        results[ens.label] = result
        curves.append((ens.label, result.iters, result.mean_sq_rel_err))
    if plan.svg_title:
        with span("plots.line_plot_svg"):
            line_plot_svg(os.path.join(out_dir, f"{workload}.svg"), curves, title=plan.svg_title)
    return plan, PassResult(time.perf_counter() - t0, steps, results, exact, csv_bytes)
