"""Test-only reference: the heavy-ball recursion in its direct two-step form.

    v_{n+1} = v_n - alpha * eta * (A_i x_n - y_i) k_i + beta * (v_n - v_{n-1}),
    x_n = read_out(v_n)   (x_n = v_n without a read-out map)

with (alpha, beta) = step_coefficients(n) by default.  Coefficients (1, 0)
give plain stochastic gradient; a read-out map gives the dual iteration,
with v the dual variable.  The package carries the moving-average form
instead, so agreement with this module checks the recursion itself, not a
replay of the same arithmetic.
"""

import numpy as np

from shbreg import step_coefficients


def row_apply(bundle, i, x):
    """``A_i x = sum_j w_j k_i[j] x[j]``, summed here rather than by the solver's
    ``vecdot`` or the bundle's matrix product."""
    return float(np.sum(bundle.grid.weights * bundle.kernel_matrix[i] * x))


def twostep(v, v_prev, n, bundle, i, y_i, eta, coefficients=None, read_out=None):
    """``v_{n+1}`` from ``v_n`` and ``v_{n-1}`` after drawing equation ``i``."""
    alpha, beta = step_coefficients(n) if coefficients is None else coefficients
    x = v if read_out is None else read_out(v)
    residual = row_apply(bundle, i, x) - y_i
    return v - alpha * eta * residual * bundle.kernel_matrix[i] + beta * (v - v_prev)


def trajectory(problem, y, etas, path, v0, coefficients=None, read_out=None, floor=None):
    """Iterates ``x_0 .. x_N`` along ``path``.  With ``floor``, the step is
    zero whenever the drawn equation's residual is at most ``floor[i]``."""
    v = v_prev = np.asarray(v0, dtype=float)
    xs = [v if read_out is None else read_out(v)]
    bundle = problem.bundle
    for n, i in enumerate(path):
        eta = etas[i]
        if floor is not None and abs(row_apply(bundle, i, xs[-1]) - y[i]) <= floor[i]:
            eta = 0.0
        v, v_prev = twostep(v, v_prev, n, bundle, i, y[i], eta, coefficients, read_out), v
        xs.append(v if read_out is None else read_out(v))
    return xs
