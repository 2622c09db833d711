"""Lockstep blocks of runs against the serial reference.

A block of R runs steps through the same loop as R single ``run`` /
``run_mirror`` calls; every row must equal its single run exactly
(``np.array_equal``), and so must every split of the runs into blocks.

Ensembles of primal l2 runs with ``2 p <= m`` step spectral row coordinates
instead (``solvers._uses_row_space``).  Their recorded errors must stay within
``REL_TOL`` relative of the single runs' errors, make the same gate decisions
except at draws whose primal residual lies within ``REL_TOL`` relative of its
floor (see :func:`first_tie`; after such a draw the two trajectories may
part, and values are not compared), and stay bit-identical across every
split of the runs into blocks and across worker counts.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shbreg import (
    Regularizer,
    RunSpec,
    StepPolicy,
    add_noise,
    mirror_map,
    monte_carlo,
    random_instance,
    rel_err_sq,
    run,
    run_mirror,
    source_condition_construct,
)
from shbreg import harness
from shbreg.harness import _error_functional, _trace_block
from shbreg.solvers import _index_block, _run_block, _system, _uses_row_space

# the row-space contract: the relative gap to the primal path, and the
# relative distance to its floor within which a residual may gate either way
REL_TOL = 1e-9


@st.composite
def block_cases(draw, gated_row_space=False):
    """A small instance, a spec over one of the six run modes, and a block
    of row draws with a split of its runs; with ``gated_row_space`` the spec
    is a gated one that ensembles step in row space."""
    p = draw(st.integers(1, 4))
    m = draw(st.integers(2 * p if gated_row_space else 2, 9))
    problem = random_instance(p, m, seed=draw(st.integers(0, 10**6)))
    data = add_noise(problem, draw(st.sampled_from([0.0, 0.05, 0.3])),
                     seed=draw(st.integers(0, 10**6)))
    modes = ["shb", "sgd", "shb-x0", "sgd-x0"]
    mode = draw(st.sampled_from(modes if gated_row_space else modes + ["entropy", "quadratic"]))
    scope = "full" if mode == "entropy" else "row"
    mu0 = draw(st.floats(0.05, 0.95))
    if gated_row_space or draw(st.booleans()):
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
    # short runs, and runs whose records fill more than one row-space chunk
    n_iters = draw(st.one_of(st.integers(0, 12), st.integers(60, 150)))
    spec = RunSpec(problem=problem, policy=policy, n_iters=n_iters, data=data,
                   variant=mode[:3] if reg is None else "shb", x0=x0, regularizer=reg,
                   metric="l2" if gated_row_space else draw(st.sampled_from(["l2", "l1"])))
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


def in_row_space(spec):
    problem = spec.problem
    return _uses_row_space(problem.p, problem.m, spec.metric, spec.regularizer)


def first_tie(spec, path, iterates):
    """Step of the first draw along ``path`` whose primal residual, at the
    single run's ``iterates``, lies within REL_TOL relative of its gate
    floor; ``len(path)`` when there is none.

    Relative means against the floor plus the size of the residual's terms,
    ``|Kw[i]| |x| + |y[i]|``: a zero floor gates only a residual of exactly
    zero, which one path may reach while the other stops at rounding level.
    """
    if not spec.policy.is_discrepancy:
        return len(path)
    _, Kw, y, _, floor = _system(spec)
    for n, i in enumerate(path):
        x = iterates[n]
        scale = floor[i] + np.abs(Kw[i]) @ np.abs(x) + abs(y[i])
        if abs(abs(Kw[i] @ x - y[i]) - floor[i]) <= REL_TOL * scale:
            return n
    return len(path)


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
    if in_row_space(spec):
        # row coordinates are as exact
        rows = np.array(_run_block(spec, idx, None, row_space=True))
        assert rows.shape == (spec.n_iters + 1, runs, spec.problem.p)
        for r in range(runs):
            assert np.array_equal(rows[:, r],
                                  np.array(_run_block(spec, idx[r], None, row_space=True)))


@settings(max_examples=60, deadline=None)
@given(block_cases())
def test_block_errors_equal_single_run_errors(case):
    spec, runs, base_seed, bounds = case
    problem = spec.problem
    traces = _trace_block(spec, base_seed, 0, runs)
    rec = spec.record_points()
    for r in range(runs):
        path = _index_block(base_seed, r, r + 1, problem.p, spec.n_iters)[0]
        iterates = single(spec, path)
        errors = np.array([rel_err_sq(x, problem.truth, problem.grid, spec.metric)
                           for x in iterates])[rec]
        if in_row_space(spec):
            # the stated tolerance, up to the first draw that may gate either way
            kept = rec <= first_tie(spec, path, iterates)
            np.testing.assert_allclose(traces[r][kept], errors[kept], rtol=REL_TOL, atol=0)
        else:
            assert np.array_equal(traces[r], errors)
    parts = [_trace_block(spec, base_seed, lo, hi)
             for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    assert np.array_equal(np.vstack(parts), traces)


@settings(max_examples=60, deadline=None)
@given(block_cases(gated_row_space=True))
def test_row_space_gates_like_primal(case):
    spec, runs, base_seed, _ = case
    assert in_row_space(spec) and spec.policy.is_discrepancy
    _, Kw, y, _, floor = _system(spec)
    _, Kw_rows, y_rows, _, _ = _system(spec, row_space=True)
    idx = _index_block(base_seed, 0, runs, spec.problem.p, spec.n_iters)
    rows = _run_block(spec, idx, None, row_space=True)
    for r, path in enumerate(idx):
        iterates = single(spec, path)
        for n in range(first_tie(spec, path, iterates)):
            i = path[n]
            assert ((abs(Kw[i] @ iterates[n] - y[i]) <= floor[i])
                    == (abs(Kw_rows[i] @ rows[n][r] - y_rows[i]) <= floor[i]))


@settings(max_examples=8, deadline=None)
@given(block_cases())
def test_ensembles_do_not_depend_on_worker_count(case):
    spec, runs, base_seed, _ = case
    results = []
    for threads in ("1", "2"):
        with mock.patch.dict(os.environ, {"SHB_THREADS": threads}):
            results.append(monte_carlo(spec, runs, base_seed))
    assert np.array_equal(results[0].mean_sq_rel_err, results[1].mean_sq_rel_err)
    assert np.array_equal(results[0].std_err, results[1].std_err)


def test_row_space_ensembles_do_not_depend_on_blocks(monkeypatch):
    problem = random_instance(3, 10, seed=61)
    data = add_noise(problem, 0.1, seed=62)
    policy = StepPolicy.discrepancy(0.7, 1.2, data.per_eq_levels)
    spec = RunSpec(problem=problem, policy=policy, n_iters=300, data=data,
                   x0=np.linspace(-1.0, 1.0, 10))
    assert in_row_space(spec)
    whole = _trace_block(spec, 8, 0, 7)
    for bounds in ([0, 1, 7], [0, 3, 4, 7], list(range(8))):
        parts = [_trace_block(spec, 8, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(np.vstack(parts), whole)
    monkeypatch.setattr(harness, "BLOCK_ELEMENTS", 1)  # one run per block
    assert np.array_equal(_trace_block(spec, 8, 0, 7), whole)
    monkeypatch.undo()
    serial = monte_carlo(spec, 7, base_seed=8)
    monkeypatch.setenv("SHB_THREADS", "2")
    pooled = monte_carlo(spec, 7, base_seed=8)
    assert np.array_equal(serial.mean_sq_rel_err, pooled.mean_sq_rel_err)
    assert np.array_equal(serial.std_err, pooled.std_err)


def test_path_rule():
    entropy = Regularizer.entropy_on_simplex(random_instance(1, 400, seed=1).grid)
    assert _uses_row_space(200, 400, "l2", None)
    assert _uses_row_space(1, 2, "l2", None)
    assert not _uses_row_space(201, 400, "l2", None)
    assert not _uses_row_space(200, 400, "l1", None)
    assert not _uses_row_space(200, 400, "l2", entropy)


def test_cancellation_guard_recomputes_small_errors(monkeypatch):
    problem = random_instance(3, 12, seed=8)
    policy = StepPolicy.constant(0.6)
    # a truth in the range of the adjoint and exact data: the error falls
    # toward zero, far below its start
    instance = source_condition_construct(problem.bundle, np.array([1.0, -0.5, 0.3]), None,
                                          policy)
    problem = instance.problem
    spec = RunSpec(problem=problem, policy=policy, n_iters=10000,
                   record=np.arange(0, 10001, 250))
    assert in_row_space(spec)
    guarded = _trace_block(spec, 3, 0, 2)
    monkeypatch.setattr(harness, "CANCELLATION", 0.0)
    spectral = _trace_block(spec, 3, 0, 2)
    # values the guard recomputed differ from their spectral form in the
    # last digits; all others are the spectral form itself
    recomputed = guarded != spectral
    assert recomputed.any() and np.all(spectral[recomputed] < 1.001e-4)
    assert np.array_equal(guarded[~recomputed], spectral[~recomputed])
    for r in range(2):
        path = _index_block(3, r, r + 1, problem.p, spec.n_iters)[0]
        errors = run(problem, None, policy, 0, index_path=path,
                     observer=lambda n, x: rel_err_sq(x, problem.truth, problem.grid))
        np.testing.assert_allclose(guarded[r], np.asarray(errors)[spec.record_points()],
                                   rtol=REL_TOL, atol=0)


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
