"""Equilibria of anonymous games over a continuum of agents.

The library computes, verifies, and analyzes stationary crowd distributions
that arise when a continuum of agents choose actions on an interval, paying a
transport cost from their type plus congestion, interaction, and location
costs.  The core reduction is one-dimensional: densities become quantile
functions, the equilibrium becomes the minimizer of a convex functional over
monotone vectors, and a projected Newton method solves it.  The functional is
infinite at a zero gap, so only the interval's box can bind, and the method
projects onto the box alone.  Companion modules provide best-response iteration,
minimizing-movement (JKO) dynamics, welfare and tax analysis, and independent
verification checks.
"""
__version__ = "0.1.0"

from .measures import (
    SUPPORT_MODES,
    DiscreteDensity,
    Grid,
    Interval,
    QuantileFn,
    density_from_values,
    density_to_quantile,
    gaussian_truncated_density,
    pushforward,
    quantile_to_density,
    two_bumps_density,
    uniform_density,
)
from .transport import (
    CostSpec,
    PotentialPair,
    TransportPlan,
    c_transform,
    kantorovich_potential_1d,
    monotone_map_1d,
    quantile_resolution,
    solve_lp,
    w2_squared_1d,
    wasserstein_cost_1d,
)
from .energy import (
    CongestionSpec,
    EnergyModel,
    InteractionKernel,
    PotentialSpec,
    energy_eval,
    first_variation,
    mccann_check,
)
from .solver import (
    EquilibriumResult,
    Scenario,
    SolverParams,
    best_response_iterate,
    minimize_quantile,
    objective_eval,
    objective_gradient,
    project_monotone,
)
from .dynamics import JkoParams, Trajectory, TrajectoryPoint, jko_flow, jko_step
from .welfare import (
    WelfareReport,
    cost_of_anarchy,
    minimize_social_cost,
    social_cost,
    social_scenario,
    tax_marginal,
    tax_paper,
    taxed_stationarity_residual,
)
from .verify import (
    DerivativeReport,
    DisplacementReport,
    PurityReport,
    ResidualReport,
    displacement_convexity_probe,
    equilibrium_residual,
    monge_ampere_residual_1d,
    purity_check,
    transport_derivative_check,
)

__all__ = [
    "__version__",
    # measures
    "Interval", "Grid", "DiscreteDensity", "QuantileFn", "SUPPORT_MODES",
    "uniform_density", "density_from_values", "gaussian_truncated_density",
    "two_bumps_density", "density_to_quantile", "quantile_to_density",
    "pushforward",
    # transport
    "CostSpec", "TransportPlan", "PotentialPair", "w2_squared_1d",
    "wasserstein_cost_1d", "solve_lp", "c_transform", "monotone_map_1d",
    "kantorovich_potential_1d", "quantile_resolution",
    # energy
    "CongestionSpec", "InteractionKernel", "PotentialSpec", "EnergyModel",
    "energy_eval", "first_variation", "mccann_check",
    # solver
    "Scenario", "SolverParams", "EquilibriumResult", "minimize_quantile",
    "objective_eval", "objective_gradient", "project_monotone",
    "best_response_iterate",
    # dynamics
    "JkoParams", "TrajectoryPoint", "Trajectory", "jko_step", "jko_flow",
    # welfare
    "WelfareReport", "social_cost", "social_scenario", "minimize_social_cost",
    "tax_paper", "tax_marginal", "taxed_stationarity_residual",
    "cost_of_anarchy",
    # verify
    "ResidualReport", "PurityReport", "DisplacementReport", "DerivativeReport",
    "equilibrium_residual", "purity_check", "monge_ampere_residual_1d",
    "displacement_convexity_probe", "transport_derivative_check",
]
