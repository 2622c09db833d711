"""Output checks of the benchmark, and its plain-numpy reference recursion.

The reference re-derives every ensemble mean from public data only (the
kernel matrix, quadrature weights, data vector, policy fields and the
regularizer kind) and draws row indices from the documented per-run stream
``Philox(SeedSequence((base_seed, r)))``.  It never calls ``shbreg.run`` or
``shbreg.run_mirror``.  It follows the moving-average form the solver
module documents, so it agrees with the library to rounding; REF_RTOL is the
stated tolerance.
"""

import numpy as np

from shbreg import monte_carlo, run_mirror, write_csv

REF_RTOL = 1e-9
ORACLE_SIGMA = 4.0
SIMPLEX_TOL = 1e-12


def reference_stream(base_seed, r, p, size):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, r))))
    return gen.integers(0, p, size=size)


def _steps(spec):
    problem, policy = spec.problem, spec.policy
    K = np.asarray(problem.bundle.kernel_matrix)
    w = np.asarray(problem.grid.weights)
    if policy.norm_scope == "row":
        return policy.mu0 / np.array([w @ (k * k) for k in K])
    return np.full(K.shape[0], policy.mu0 / problem.bundle.full_norm_sq)


def _error_fn(spec):
    w = np.asarray(spec.problem.grid.weights)
    truth = np.asarray(spec.problem.truth)
    if spec.metric == "l2":
        denom = w @ (truth * truth)
        return lambda x: (w @ ((x - truth) ** 2)) / denom
    denom = w @ np.abs(truth)
    return lambda x: ((w @ np.abs(x - truth)) / denom) ** 2


def _entropy_map(xi, w):
    e = np.exp(xi - xi.max())
    return e / (w @ e)


def reference_trace(spec, base_seed, r):
    """Error trace of run r at ``spec.record_points()``, recomputed from scratch."""
    problem, policy = spec.problem, spec.policy
    K = np.asarray(problem.bundle.kernel_matrix)
    w = np.asarray(problem.grid.weights)
    Kw = K * w[None, :]
    y = np.asarray(spec.data.values)
    eta = _steps(spec)
    gate = policy.kind == "discrepancy"
    floor = policy.tau * np.asarray(policy.per_eq_levels) if gate else None
    error = _error_fn(spec)
    rec = spec.record_points()
    wanted = {int(n): k for k, n in enumerate(rec)}
    out = np.empty(rec.size)
    idx = reference_stream(base_seed, r, K.shape[0], spec.n_iters)

    mirror = spec.regularizer is not None
    if mirror and spec.regularizer.kind != "entropy_simplex":
        raise ValueError("the reference covers the entropy mirror only")
    dual = np.zeros(problem.grid.m)  # xi for the mirror, x for the primal
    acc = dual.copy()  # zeta / z: the accumulated corrections
    x = _entropy_map(dual, w) if mirror else dual
    for n in range(spec.n_iters + 1):
        if n in wanted:
            out[wanted[n]] = error(x)
        if n == spec.n_iters:
            break
        i = idx[n]
        res = Kw[i] @ x - y[i]
        step = 0.0 if gate and abs(res) <= floor[i] else eta[i]
        if mirror or spec.variant == "shb":
            acc = acc - (step * res) * K[i]
            dual = ((n + 1.0) * dual + acc) / (n + 2.0)
            x = _entropy_map(dual, w) if mirror else dual
        else:
            x = x - (step * res) * K[i]
    return out


def trace_errors(result, spec):
    """Shape, finiteness and sign checks of one ensemble result."""
    errors = []
    rec = spec.record_points()
    if not np.array_equal(result.iters, rec):
        errors.append("recorded iterations differ from the spec's schedule")
    for name in ("mean_sq_rel_err", "std_err"):
        v = getattr(result, name)
        if v.shape != rec.shape:
            errors.append(f"{name} has length {v.size}, expected {rec.size}")
        elif not np.all(np.isfinite(v)):
            errors.append(f"{name} is not finite")
        elif np.any(v < 0):
            errors.append(f"{name} has negative entries")
    return errors


def reference_errors(spec, base_seed, k, csv_path):
    """``monte_carlo(spec, k)`` against the mean and the (ddof=1) standard
    error of k reference traces, both to REF_RTOL of the reference mean.

    Returns the errors found and the bytes of the ensemble's CSV.
    """
    mc = monte_carlo(spec, k, base_seed=base_seed)
    errors = trace_errors(mc, spec)
    traces = np.array([reference_trace(spec, base_seed, r) for r in range(k)])
    ref = traces.mean(axis=0)
    ref_se = traces.std(axis=0, ddof=1) / np.sqrt(k)
    scale = np.maximum(np.abs(ref), 1e-300)
    for name, got, want in (("mean", mc.mean_sq_rel_err, ref), ("std_err", mc.std_err, ref_se)):
        gap = np.abs(got - want)
        if not np.all(gap <= REF_RTOL * np.abs(ref)):
            worst = float(np.max(gap / scale))
            errors.append(f"reference gap in the {name} {worst:.2e} of the mean > {REF_RTOL:g}")
    write_csv(mc, csv_path)
    with open(csv_path, "rb") as fh:
        return errors, fh.read()


def oracle_errors(result, exact):
    """Monte Carlo within ORACLE_SIGMA standard errors of the exact expectation.

    A column with zero sample variance (the start iterate) must match to
    rounding of the 243-path average.
    """
    if exact.shape != result.mean_sq_rel_err.shape or not np.all(np.isfinite(exact)):
        return ["enumeration has the wrong shape or is not finite"]
    gap = np.abs(result.mean_sq_rel_err - exact)
    allowed = ORACLE_SIGMA * result.std_err + 1e-12 * np.abs(exact)
    if np.all(gap <= allowed):
        return []
    sigma = np.max(gap / np.maximum(result.std_err, 1e-300))
    return [f"Monte Carlo is {sigma:.2f} sigma from the enumeration"]


def simplex_errors(plan, seed_r=0):
    """Entropy iterates are nonnegative densities of unit integral.

    Checked at every iterate of one full-length run of each ensemble.
    """
    grid = plan.problem.grid
    worst = {"drift": 0.0, "min": float("inf")}

    def invariants(n, x):
        worst["drift"] = max(worst["drift"], abs(grid.integrate(x) - 1.0))
        worst["min"] = min(worst["min"], float(x.min()))

    errors = []
    for ens in plan.ensembles:
        spec = ens.spec
        run_mirror(plan.problem, spec.data, spec.regularizer, spec.policy, spec.n_iters,
                   seed=(ens.base_seed, seed_r), observer=invariants)
    if not (worst["drift"] <= SIMPLEX_TOL and worst["min"] >= 0.0):
        errors.append(f"simplex invariants broken: integral drift {worst['drift']:.1e}, "
                      f"min node {worst['min']:.1e}")
    return errors
