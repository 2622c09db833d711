"""Stochastic heavy-ball row-action solvers for ill-posed linear systems.

The package discretizes first-kind integral equations on quadrature grids
(:mod:`shbreg.linops`, :mod:`shbreg.problems`), solves them with randomized
row-action iterations carrying heavy-ball momentum (:mod:`shbreg.solvers`)
or their dual, regularizer-driven form (:mod:`shbreg.mirror`), and verifies
the methods' error bounds with Monte Carlo ensembles and exact enumeration
oracles (:mod:`shbreg.harness`).
"""

from .linops import Grid, OperatorBundle, RowOperator, bundle_norm_sq
from .problems import (
    NoisyData,
    ProblemInstance,
    add_noise,
    build_example1,
    build_example2,
    random_instance,
    to_text,
)
from .solvers import (
    RateConstants,
    RunSpec,
    StepPolicy,
    a_priori_stop,
    index_stream,
    rate_bound,
    recorded_iters,
    run,
    stability_bound,
    step_coefficients,
)
from .mirror import (
    Regularizer,
    bregman_distance,
    mirror_map,
    rate_envelope,
    run_mirror,
)
from .harness import (
    EnsembleResult,
    SourceConditionInstance,
    bound_check,
    enumerate_expectation,
    monte_carlo,
    rel_err_sq,
    semi_convergence_stats,
    source_condition_construct,
    stability_gap_ensemble,
    write_csv,
)

__version__ = "0.1.0"
