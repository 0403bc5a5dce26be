"""
Inefficiency of equilibrium and the corrective tax
==================================================

Selfish agents ignore the congestion and crowding costs they impose on
everyone else, so the equilibrium crowd is socially suboptimal.  This demo
quantifies the gap (the cost-of-anarchy ratio), computes the efficient
configuration, and shows that a marginal-externality (Pigouvian) tax makes
the efficient configuration an equilibrium of the taxed game — while the
average-cost tax variant visibly does not.
"""
from pathlib import Path

from cnot import SolverParams, cost_of_anarchy, minimize_quantile, social_cost
from cnot.cli import load_scenario
from cnot.welfare import (
    minimize_social_cost,
    tax_marginal,
    tax_paper,
    taxed_stationarity_residual,
)

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "congested_gaussian.json"
scenario = load_scenario(str(SCENARIO))
params = SolverParams(grad_tol=1e-9)

# ---------------------------------------------------------------------------
# 1. Equilibrium vs social optimum.  The social cost differs from the
#    individual objective: congestion enters as (price x crowd) instead of
#    its antiderivative, and interactions are fully counted instead of
#    halved.
equilibrium = minimize_quantile(scenario, params)
optimum = minimize_social_cost(scenario, params)
sc_eq = social_cost(scenario, equilibrium.nu)
sc_opt = social_cost(scenario, optimum.nu)
print("social cost at equilibrium:", f"{sc_eq:.9f}")
print("social cost at optimum:    ", f"{sc_opt:.9f}")
print("cost-of-anarchy ratio:     ", f"{sc_eq / sc_opt:.9f}")

# ---------------------------------------------------------------------------
# 2. Taxes.  The marginal tax charges each agent the externality it imposes;
#    with it, the efficient crowd satisfies the equilibrium condition.  The
#    average-cost variant (price minus average cost plus interaction) is
#    shown for comparison: its residual stays O(1).
res_marginal = taxed_stationarity_residual(
    scenario, optimum.nu, tax_marginal(scenario, optimum.nu)
)
res_average = taxed_stationarity_residual(
    scenario, optimum.nu, tax_paper(scenario, optimum.nu)
)
print("taxed stationarity residual, marginal tax:    ", f"{res_marginal:.3e}")
print("taxed stationarity residual, average-cost tax:", f"{res_average:.3e}")

# ---------------------------------------------------------------------------
# 3. The packaged report assembles all of the above in one call (plus
#    uniqueness-regime warnings when the ratio is only a lower bound).
report = cost_of_anarchy(scenario, params)
print("report ratio:", f"{report.cost_of_anarchy:.9f}", "warnings:", report.warnings)
