"""Feedback control of a continuously monitored qubit.

Three models share one toolbox: a homodyne (diffusive) Bloch-vector
filter, a photodetection (counting) filter with jump resets, and a
small-angle linear-quadratic limit with a closed-form optimal policy.
`filters` holds the conditional dynamics, `trajectories` the seeded
Monte Carlo machinery, `lq` the closed forms, `bellman` the backward
value-grid solvers, and `cli` the command-line front end.
"""

from .filters import (
    GROUND_STATE,
    ModelParams,
    bloch_to_density,
    counting_drift,
    density_to_bloch,
    diffusive_diffusion,
    diffusive_drift,
    jump_intensity,
    jump_target,
    lindblad,
    observation_drift,
    project_to_ball,
)
from .trajectories import (
    ANGLE,
    COUNTING,
    DIFFUSIVE,
    MODELS,
    CostStatistics,
    Trajectory,
    constant_policy,
    ensemble_means,
    lq_policy,
    run_batch,
    run_batches,
    simulate,
    zero_policy,
)
from .lq import g_term, hjb_residual, ode_check, optimal_B, riccati_f, value
from .bellman import (
    CLOSED_FORM,
    EXHAUSTIVE,
    GridSpec,
    ValueGrid,
    dp_recursion_step,
    extract_policy,
    hjb_rhs_diffusive,
    optimal_controls_from_gradient,
    solve_backward,
    solve_dp,
    terminal_cost,
)
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "ANGLE",
    "CLOSED_FORM",
    "COUNTING",
    "CostStatistics",
    "DIFFUSIVE",
    "EXHAUSTIVE",
    "GROUND_STATE",
    "GridSpec",
    "MODELS",
    "ModelParams",
    "Trajectory",
    "ValueGrid",
    "bloch_to_density",
    "constant_policy",
    "counting_drift",
    "density_to_bloch",
    "diffusive_diffusion",
    "diffusive_drift",
    "dp_recursion_step",
    "ensemble_means",
    "extract_policy",
    "g_term",
    "hjb_residual",
    "hjb_rhs_diffusive",
    "jump_intensity",
    "jump_target",
    "lindblad",
    "lq_policy",
    "main",
    "observation_drift",
    "ode_check",
    "optimal_B",
    "optimal_controls_from_gradient",
    "project_to_ball",
    "riccati_f",
    "run_batch",
    "run_batches",
    "simulate",
    "solve_backward",
    "solve_dp",
    "terminal_cost",
    "value",
    "zero_policy",
]
