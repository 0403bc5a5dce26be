"""Social cost, efficient configurations, corrective taxes, cost of anarchy.

The social cost of a configuration differs from the individual objective in
two places: the congestion integrand is ``f(nu) nu`` instead of ``F(nu)``,
and the interaction term enters un-halved,

    SC[nu] = W_c(mu, nu) + int f(nu) dnu + int v dnu + double-int phi dnu dnu.

Minimizing it therefore reuses the quantile solver on a *derived* scenario:
congestion with antiderivative ``s f(s)`` (marginal ``f(s) + s f'(s)``, see
``CongestionSpec.social``) and the kernel doubled (``InteractionKernel.scaled``).
Two corrective taxes are provided side by side: the average-cost form
``f(nu) nu - F(nu) + int phi dnu`` and the marginal (Pigouvian) form
``nu f'(nu) + int phi dnu``; their stationarity residuals at the social
optimum are both reported, since the two differ for power congestion and the
average-cost form depends on the antiderivative convention.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import EnergyModel
from .measures import DiscreteDensity
from .solver import (
    EquilibriumResult,
    Scenario,
    SolverParams,
    minimize_quantile,
)
from .transport import wasserstein_cost_1d
from .verify import equilibrium_residual

__all__ = [
    "WelfareReport",
    "social_cost",
    "social_scenario",
    "minimize_social_cost",
    "tax_paper",
    "tax_marginal",
    "taxed_stationarity_residual",
    "cost_of_anarchy",
]

@dataclass(frozen=True)
class WelfareReport:
    """Equilibrium vs optimum social costs, both tax vectors, both residuals."""

    sc_equilibrium: float
    sc_optimum: float
    cost_of_anarchy: float
    tax_paper: np.ndarray
    tax_marginal: np.ndarray
    stationarity_residual_paper: float
    stationarity_residual_marginal: float
    warnings: tuple = ()

    def __post_init__(self) -> None:
        if not self.cost_of_anarchy >= 1.0 - 1e-9:
            raise ValueError("cost of anarchy must be >= 1 (optimum minimizes social cost)")
        if not self.sc_optimum <= self.sc_equilibrium + 1e-9:
            raise ValueError("optimum social cost cannot exceed the equilibrium's")


def social_cost(scenario: Scenario, nu: DiscreteDensity) -> float:
    """``SC[nu]`` with the monotone transport cost at the scenario resolution.

    Zero-density cells contribute nothing to the congestion term (the
    ``s f(s) -> 0`` limit), so logarithmic congestion needs no sentinel.
    """
    model = scenario.model
    d = model.grid.delta
    v = nu.values
    positive = v > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        f_vals = np.asarray(model.congestion.f(np.where(positive, v, 1.0)), dtype=float)
    total = wasserstein_cost_1d(scenario.mu, nu, scenario.cost, m=scenario.m)
    total += float(d * np.sum(np.where(positive, f_vals * v, 0.0)))
    total += float(np.dot(model.potential_values(), nu.masses))
    if model.kernel is not None:
        total += float(nu.masses @ model.interaction_field(nu))
    return float(total)


def social_scenario(scenario: Scenario) -> Scenario:
    """The scenario whose individual objective is the social cost."""
    model = scenario.model
    derived = EnergyModel(
        grid=model.grid,
        congestion=model.congestion.social(),
        kernel=None if model.kernel is None else model.kernel.scaled(2.0),
        potential=model.potential,
    )
    return Scenario(
        mu=scenario.mu,
        cost=scenario.cost,
        model=derived,
        m=scenario.m,
        support_mode=scenario.support_mode,
    )


def minimize_social_cost(
    scenario: Scenario, params: Optional[SolverParams] = None
) -> EquilibriumResult:
    """Efficient configuration: quantile minimization of the social objective.

    The result's residual fields certify stationarity of the *social* cost
    (the derived game's equilibrium condition, which is exactly the taxed
    first-order condition under the marginal tax).
    """
    return minimize_quantile(social_scenario(scenario), params)


def tax_paper(scenario: Scenario, nu: DiscreteDensity) -> np.ndarray:
    """Average-cost tax ``f(nu) nu - F(nu) + int phi(., z) dnu(z)`` on the grid.

    The congestion part depends on the antiderivative convention of the
    congestion spec (it shifts by ``c * nu`` when ``F`` shifts by ``c s``);
    the scenario's convention flag travels with any report built from this.
    """
    model = scenario.model
    v = nu.values
    positive = v > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        f_vals = np.asarray(model.congestion.f(np.where(positive, v, 1.0)), dtype=float)
    congestion_part = np.where(positive, f_vals * v, 0.0) - np.asarray(
        model.congestion.F(v), dtype=float
    )
    return congestion_part + model.interaction_field(nu)


def tax_marginal(scenario: Scenario, nu: DiscreteDensity) -> np.ndarray:
    """Marginal-externality (Pigouvian) tax ``nu f'(nu) + int phi(., z) dnu(z)``."""
    model = scenario.model
    return model.congestion.marginal_externality(nu.values) + model.interaction_field(nu)


def taxed_stationarity_residual(
    scenario: Scenario, nu_star: DiscreteDensity, tax: np.ndarray
) -> float:
    """First-order condition of the taxed game at ``nu_star``: the equality
    residual of ``verify.equilibrium_residual`` with ``tax`` added."""
    return equilibrium_residual(scenario, nu_star, tax=tax).residual_eq


def _uniqueness_flags(scenario: Scenario) -> list:
    missing = []
    if not scenario.cost.strictly_convex_on(scenario.interval.length):
        missing.append("cost not strictly convex")
    if not scenario.model.congestion.satisfies_mccann:
        missing.append("congestion fails the displacement-convexity probe")
    kernel = scenario.model.kernel
    if kernel is not None and not kernel.declared_convex:
        missing.append("interaction kernel not declared convex")
    potential = scenario.model.potential
    if potential is not None and not potential.declared_convex:
        missing.append("potential not declared convex")
    return missing


def cost_of_anarchy(
    scenario: Scenario, params: Optional[SolverParams] = None
) -> WelfareReport:
    """Solve for the equilibrium and the social optimum and assemble a report.

    Outside the uniqueness regime the found equilibrium need not be the
    worst one; the report then carries a warning and the ratio is a lower
    bound.  A non-positive optimal social cost leaves the ratio undefined
    (reported as ``inf`` with a warning); equal costs give exactly 1.
    """
    params = params or SolverParams()
    eq = minimize_quantile(scenario, params)
    opt = minimize_social_cost(scenario, params)
    sc_eq = social_cost(scenario, eq.nu)
    sc_opt = social_cost(scenario, opt.nu)

    notes = []
    missing = _uniqueness_flags(scenario)
    if missing:
        note = (
            "uniqueness flags off (" + "; ".join(missing) + "): "
            "ratio computed for the found equilibrium only"
        )
        warnings.warn(note, stacklevel=2)
        notes.append(note)
    scale = max(abs(sc_eq), abs(sc_opt), 1.0)
    if abs(sc_eq - sc_opt) <= 1e-12 * scale:
        coa = 1.0
    elif sc_opt > 0.0:
        coa = sc_eq / sc_opt
    else:
        note = "non-positive optimal social cost: cost-of-anarchy ratio undefined"
        warnings.warn(note, stacklevel=2)
        notes.append(note)
        coa = float("inf")

    tp = tax_paper(scenario, opt.nu)
    tm = tax_marginal(scenario, opt.nu)
    return WelfareReport(
        sc_equilibrium=sc_eq,
        sc_optimum=sc_opt,
        cost_of_anarchy=float(coa),
        tax_paper=tp,
        tax_marginal=tm,
        stationarity_residual_paper=taxed_stationarity_residual(scenario, opt.nu, tp),
        stationarity_residual_marginal=taxed_stationarity_residual(scenario, opt.nu, tm),
        warnings=tuple(notes),
    )
