"""Lockstep blocks of runs against the serial reference, bit for bit.

A block of R runs steps through the same loop as R single ``run`` /
``run_mirror`` calls; every row must equal its single run exactly
(``np.array_equal``), and so must every split of the runs into blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shbreg import (
    Regularizer,
    RunSpec,
    StepPolicy,
    add_noise,
    mirror_map,
    random_instance,
    rel_err_sq,
    run,
    run_mirror,
)
from shbreg.harness import _error_functional, _run_block, _trace_block
from shbreg.solvers import _index_block


@st.composite
def block_cases(draw):
    """A small instance, a spec over one of the six run modes, and a block
    of row draws with a split of its runs."""
    p = draw(st.integers(1, 4))
    m = draw(st.integers(2, 9))
    problem = random_instance(p, m, seed=draw(st.integers(0, 10**6)))
    data = add_noise(problem, draw(st.sampled_from([0.0, 0.05, 0.3])),
                     seed=draw(st.integers(0, 10**6)))
    mode = draw(st.sampled_from(["shb", "sgd", "shb-x0", "sgd-x0", "entropy", "quadratic"]))
    scope = "full" if mode == "entropy" else "row"
    mu0 = draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        # noise levels scaled up so that draws land on both sides of the gate
        levels = data.per_eq_levels + draw(st.floats(0.0, 2.0))
        policy = StepPolicy.discrepancy(mu0, draw(st.floats(1.0, 2.0)), levels,
                                        norm_scope=scope)
    else:
        policy = StepPolicy.constant(mu0, norm_scope=scope)
    x0 = reg = None
    if mode.endswith("x0") or mode == "quadratic":
        x0 = np.asarray(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    if mode == "entropy":
        reg = Regularizer.entropy_on_simplex(problem.grid)
    elif mode == "quadratic":
        reg, x0 = Regularizer.quadratic(problem.grid, x0), None
    n_iters = draw(st.integers(0, 12))
    spec = RunSpec(problem=problem, policy=policy, n_iters=n_iters, data=data,
                   variant=mode[:3] if reg is None else "shb", x0=x0, regularizer=reg,
                   metric=draw(st.sampled_from(["l2", "l1"])))
    runs = draw(st.integers(1, 6))
    base_seed = draw(st.integers(0, 10**6))
    cuts = sorted(draw(st.lists(st.integers(0, runs), max_size=3)))
    return spec, runs, base_seed, [0, *cuts, runs]


def single(spec, path):
    """Iterates of one run along ``path`` through the public entry points."""
    if spec.regularizer is not None:
        return run_mirror(spec.problem, spec.data, spec.regularizer, spec.policy, 0,
                          index_path=path)
    return run(spec.problem, spec.data, spec.policy, 0, variant=spec.variant, x0=spec.x0,
               index_path=path)


@settings(max_examples=120, deadline=None)
@given(block_cases())
def test_block_rows_equal_single_runs(case):
    spec, runs, base_seed, bounds = case
    idx = _index_block(base_seed, 0, runs, spec.problem.p, spec.n_iters)
    block = np.array(_run_block(spec, idx, None))  # (n_iters + 1, runs, m)
    assert block.shape == (spec.n_iters + 1, runs, spec.problem.m)
    for r in range(runs):
        assert np.array_equal(block[:, r], np.array(single(spec, idx[r])))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            part = np.array(_run_block(spec, idx[lo:hi], None))
            assert np.array_equal(part, block[:, lo:hi])


@settings(max_examples=60, deadline=None)
@given(block_cases())
def test_block_errors_equal_single_run_errors(case):
    spec, runs, base_seed, bounds = case
    problem = spec.problem
    traces = _trace_block(spec, base_seed, 0, runs)
    rec = spec.record_points()
    for r in range(runs):
        path = _index_block(base_seed, r, r + 1, problem.p, spec.n_iters)[0]
        errors = [rel_err_sq(x, problem.truth, problem.grid, spec.metric)
                  for x in single(spec, path)]
        assert np.array_equal(traces[r], np.asarray(errors)[rec])
    parts = [_trace_block(spec, base_seed, lo, hi)
             for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    assert np.array_equal(np.vstack(parts), traces)


def test_mirror_map_maps_rows_on_their_own():
    rng = np.random.default_rng(5)
    for m in (5, 33, 400, 1001):
        problem = random_instance(2, m, seed=4)
        xi = 40.0 * rng.standard_normal((7, m))
        weights = problem.grid.weights
        for reg in (Regularizer.entropy_on_simplex(problem.grid),
                    Regularizer.quadratic(problem.grid, rng.standard_normal(m))):
            block = mirror_map(reg, xi)
            assert block.shape == xi.shape and block.flags.c_contiguous
            for row, dual in zip(block, xi):
                assert np.array_equal(row, mirror_map(reg, dual))
                if reg.kind == "entropy_simplex":
                    # the definition, with the integral as one dot product
                    shifted = np.exp(dual - dual.max())
                    assert np.array_equal(row, shifted / float(weights @ shifted))
            with pytest.raises(ValueError, match="grid"):
                mirror_map(reg, xi[None])


def test_error_functional_rows_match_single_iterates():
    rng = np.random.default_rng(6)
    problem = random_instance(2, 6, seed=7)
    grid, truth = problem.grid, problem.truth
    block = truth + rng.standard_normal((20000, 6))
    _, error = _error_functional(truth, grid.weights, "l1")
    # the l1 ratio is squared as a Python float; numpy's square rounds
    # about one value in a thousand differently
    expected = [(float(grid.weights @ np.abs(x - truth)) / float(grid.weights @ np.abs(truth)))
                ** 2 for x in block]
    assert np.array_equal(error(block), expected)
    for metric in ("l2", "l1"):
        _, error = _error_functional(truth, grid.weights, metric)
        singles = [rel_err_sq(x, truth, grid, metric) for x in block[:500]]
        assert np.array_equal(error(block[:500]), singles)
