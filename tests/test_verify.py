"""Tests for the independent verification checks."""

import numpy as np
import pytest

from cnot import (
    CongestionSpec,
    CostSpec,
    EnergyModel,
    Grid,
    InteractionKernel,
    Interval,
    PotentialSpec,
    ResidualReport,
    Scenario,
    SolverParams,
    density_from_values,
    displacement_convexity_probe,
    equilibrium_residual,
    gaussian_truncated_density,
    minimize_quantile,
    monge_ampere_residual_1d,
    purity_check,
    transport_derivative_check,
    two_bumps_density,
    uniform_density,
)


def _uniform_scenario(n=64, m=256):
    grid = Grid(Interval(0.0, 1.0), n)
    model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy())
    return Scenario(mu=uniform_density(grid), cost=CostSpec.quadratic(), model=model, m=m)


def _congested(n=128, m=1024, kappa=2.0):
    grid = Grid(Interval(0.0, 1.0), n)
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.entropy(),
        kernel=InteractionKernel.quadratic_distance(kappa),
    )
    return Scenario(
        mu=gaussian_truncated_density(grid, 0.5, 0.15),
        cost=CostSpec.quadratic(),
        model=model,
        m=m,
    )


def test_residual_report_validation():
    """Negative residuals are impossible and rejected."""
    with pytest.raises(ValueError, match="non-negative"):
        ResidualReport(residual_sup=-1.0, residual_eq=0.0, M=0.0, epsilon=1e-6)


def test_equilibrium_residual_uniform_is_zero():
    """The uniform density passes the stationarity check exactly."""
    scenario = _uniform_scenario()
    report = equilibrium_residual(scenario, uniform_density(scenario.grid))
    assert report.residual_eq <= 1e-9
    assert report.residual_sup <= 1e-9
    assert report.support_cells == scenario.n
    assert report.core_cells == scenario.n  # support reaching the ends is not eroded
    assert report.M == pytest.approx(0.0, abs=1e-9)  # (s log s - s)' = log s vanishes at 1


def test_equilibrium_residual_flags_perturbation():
    """A sine-perturbed density fails the check by a visible margin."""
    scenario = _uniform_scenario()
    x = scenario.grid.nodes
    nu = density_from_values(scenario.grid, 1.0 + 0.3 * np.sin(2.0 * np.pi * x))
    report = equilibrium_residual(scenario, nu)
    assert report.residual_eq > 1e-2


def test_equilibrium_residual_erodes_support_edges():
    """Interior support loses one straddling cell per edge in the equality set."""
    scenario = _uniform_scenario(n=32)
    values = np.zeros(32)
    values[10:21] = 1.0
    nu = density_from_values(scenario.grid, values)
    report = equilibrium_residual(scenario, nu)
    assert report.support_cells == 11
    assert report.core_cells == 9
    assert equilibrium_residual(scenario, nu, tax=np.zeros(32)) == report
    with pytest.raises(ValueError, match="grid"):
        equilibrium_residual(scenario, uniform_density(Grid(Interval(0.0, 1.0), 48)))
    with pytest.raises(ValueError, match="grid"):
        equilibrium_residual(scenario, nu, tax=np.zeros(31))


def test_purity_of_computed_equilibrium():
    """The equilibrium coupling is a crossing-free monotone graph."""
    scenario = _congested()
    result = minimize_quantile(scenario, SolverParams(grad_tol=1e-9))
    report = purity_check(scenario, result.nu)
    assert report.pure
    assert bool(report)
    assert report.crossings == 0
    assert report.witness is None
    assert report.atoms <= 64
    assert report.cost_gap <= 1e-8 * (1.0 + abs(report.lp_value))


def test_purity_requires_strictly_convex_cost():
    """A concave probe cost makes the check refuse instead of reporting."""
    scenario = _uniform_scenario(n=32)
    nu = uniform_density(scenario.grid)
    concave = CostSpec.convex_difference(lambda t: np.sqrt(np.abs(t)))
    probe = Scenario(mu=scenario.mu, cost=concave, model=scenario.model, m=scenario.m)
    with pytest.raises(ValueError, match="cost not strictly convex"):
        purity_check(probe, nu)


def test_monge_ampere_preconditions():
    """The second-order residual refuses models outside its regime."""
    grid = Grid(Interval(0.0, 1.0), 32)
    mu = uniform_density(grid)
    nu = uniform_density(grid)
    power_model = EnergyModel(grid=grid, congestion=CongestionSpec.power(2.0, 1.0))
    with pytest.raises(ValueError, match="logarithmic congestion"):
        monge_ampere_residual_1d(
            Scenario(mu=mu, cost=CostSpec.quadratic(), model=power_model), nu
        )
    entropy_model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy())
    with pytest.raises(ValueError, match="quadratic cost"):
        monge_ampere_residual_1d(
            Scenario(mu=mu, cost=CostSpec.power(4.0), model=entropy_model), nu
        )
    tilted = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.entropy(),
        potential=PotentialSpec.poly([0.0, 0.0, 1.0], declared_convex=True),
    )
    with pytest.raises(ValueError, match="potential"):
        monge_ampere_residual_1d(Scenario(mu=mu, cost=CostSpec.quadratic(), model=tilted), nu)
    hollow = np.ones(32)
    hollow[5] = 0.0
    sparse = density_from_values(grid, hollow)
    with pytest.raises(ValueError, match="positive"):
        monge_ampere_residual_1d(
            Scenario(mu=mu, cost=CostSpec.quadratic(), model=entropy_model), sparse
        )


def test_monge_ampere_uniform_exact():
    """Identity transport with uniform measures satisfies the equation exactly."""
    scenario = _uniform_scenario(n=256)
    residual = monge_ampere_residual_1d(scenario, uniform_density(scenario.grid))
    assert residual <= 1e-10


def test_monge_ampere_refines_and_discriminates():
    """The residual shrinks under refinement and is O(1) for a wrong density."""
    residuals = []
    for n in (128, 256):
        scenario = _congested(n=n, m=8 * n)
        result = minimize_quantile(scenario, SolverParams(grad_tol=1e-9))
        nu = density_from_values(scenario.grid, np.clip(result.nu.values, 1e-12, None))
        residuals.append(monge_ampere_residual_1d(scenario, nu))
    assert residuals[1] < residuals[0]
    assert residuals[1] < 1e-2

    scenario = _uniform_scenario(n=256)
    x = scenario.grid.nodes
    wrong = density_from_values(scenario.grid, 1.0 + 0.3 * np.sin(2.0 * np.pi * x))
    assert monge_ampere_residual_1d(scenario, wrong) > 1e-2


def test_displacement_convexity_along_geodesics():
    """The objective is convex along quantile interpolations, strictly at 1/2."""
    scenario = _congested(n=64, m=512)
    nu_a = uniform_density(scenario.grid)
    nu_b = two_bumps_density(scenario.grid)
    report = displacement_convexity_probe(scenario, nu_a, nu_b)
    assert report.max_violation == 0.0
    assert report.midpoint_margin > 0.0
    assert report.J_values.shape == (21,)
    assert report.J_a == pytest.approx(report.J_values[0])
    assert report.J_b == pytest.approx(report.J_values[-1])
    with pytest.raises(ValueError, match="t_grid"):
        displacement_convexity_probe(scenario, nu_a, nu_b, t_grid=[-0.1, 0.5])


def test_transport_derivative_quotients_converge():
    """Difference quotients of the transport cost approach the dual prediction."""
    grid = Grid(Interval(0.0, 1.0), 64)
    mu = gaussian_truncated_density(grid, 0.4, 0.2)
    nu = uniform_density(grid)
    rho = two_bumps_density(grid)
    report = transport_derivative_check(mu, nu, rho, CostSpec.quadratic(), eps_list=(1e-1, 1e-2, 1e-3))
    assert report.errors[-1] < report.errors[0]
    assert report.errors[-1] < 1e-3 * (1.0 + abs(report.predicted))
    with pytest.raises(ValueError, match="eps"):
        transport_derivative_check(mu, nu, rho, CostSpec.quadratic(), eps_list=(0.0,))
    other = uniform_density(Grid(Interval(0.0, 1.0), 32))
    with pytest.raises(ValueError, match="grid"):
        transport_derivative_check(mu, nu, other, CostSpec.quadratic())
