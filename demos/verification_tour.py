"""
Four independent ways to check an equilibrium
=============================================

A computed equilibrium should never certify itself.  This demo runs all
four independent checks on a genuine solver output and then on an impostor
density, showing each check separating the two:

1. stationarity residuals   (first-order condition, quadrature potentials)
2. purity of the coupling   (exact LP vs the monotone rearrangement)
3. second-order residual    (pointwise elliptic equation for the map)
4. displacement convexity   (the objective along quantile geodesics)
"""
from pathlib import Path

import numpy as np

from cnot import (
    SolverParams,
    density_from_values,
    displacement_convexity_probe,
    equilibrium_residual,
    minimize_quantile,
    monge_ampere_residual_1d,
    purity_check,
)
from cnot.cli import load_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "congested_gaussian.json"
scenario = load_scenario(str(SCENARIO))
result = minimize_quantile(scenario, SolverParams(grad_tol=1e-9))

# an impostor: right mass, wrong shape
x = scenario.grid.nodes
impostor = density_from_values(scenario.grid, 1.0 + 0.3 * np.sin(2.0 * np.pi * x))

# ---------------------------------------------------------------------------
# 1. Stationarity: occupied locations all cost M; empty ones cost more.
for label, nu in (("equilibrium", result.nu), ("impostor", impostor)):
    rep = equilibrium_residual(scenario, nu)
    print(f"[stationarity] {label:>11}: eq={rep.residual_eq:.3e} sup={rep.residual_sup:.3e}")

# ---------------------------------------------------------------------------
# 2. Purity: the optimal source->crowd coupling is a monotone graph (each
#    type moves to one location).  Checked against the exact transport LP.
rep = purity_check(scenario, result.nu)
print(f"[purity] pure={rep.pure} crossings={rep.crossings} "
      f"lp_gap={rep.cost_gap:.3e} over {rep.atoms} atoms")

# ---------------------------------------------------------------------------
# 3. Second-order residual: with logarithmic congestion and quadratic cost,
#    the transport potential solves a pointwise elliptic equation; the
#    discrete residual should be small for the real equilibrium and O(1)
#    for the impostor.
nu_pos = density_from_values(scenario.grid, np.clip(result.nu.values, 1e-12, None))
print(f"[2nd order] equilibrium: {monge_ampere_residual_1d(scenario, nu_pos):.3e}")
print(f"[2nd order] impostor:    {monge_ampere_residual_1d(scenario, impostor):.3e}")

# ---------------------------------------------------------------------------
# 4. Displacement convexity: the objective restricted to the quantile
#    segment between any two crowds is convex — this is why the minimizer
#    is unique and why the certificate above is trustworthy.
rng = np.random.default_rng(0)
nu_a = density_from_values(scenario.grid, rng.uniform(0.2, 1.8, scenario.n))
nu_b = density_from_values(scenario.grid, rng.uniform(0.2, 1.8, scenario.n))
rep = displacement_convexity_probe(scenario, nu_a, nu_b)
print(f"[convexity] max violation={rep.max_violation:.1e} "
      f"midpoint margin={rep.midpoint_margin:.3e}")
