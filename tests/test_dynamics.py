"""Tests for the minimizing-movement (JKO) flow."""

import numpy as np
import pytest

from cnot import (
    CongestionSpec,
    CostSpec,
    EnergyModel,
    Grid,
    InteractionKernel,
    Interval,
    JkoParams,
    Scenario,
    SolverParams,
    Trajectory,
    TrajectoryPoint,
    density_to_quantile,
    gaussian_truncated_density,
    jko_flow,
    jko_step,
    minimize_quantile,
    two_bumps_density,
    uniform_density,
)
from cnot.solver import _binned, _projected_newton, _QuantileProblem


def _scenario(n=64, m=256, kappa=2.0):
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


def test_jko_params_validation():
    """Step size and horizon must be positive, the step finite (as the
    CLI's ``--tau`` check asks) and the horizon an integer."""
    for tau in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be a finite number > 0"):
            JkoParams(tau=tau, steps=5)
    with pytest.raises(ValueError, match="steps"):
        JkoParams(tau=0.1, steps=0)
    with pytest.raises(ValueError, match="steps must be an integer"):
        JkoParams(0.1, 2.5)
    assert JkoParams(0.1, np.int64(2)).steps == 2


def test_jko_step_validation():
    """Single-step inputs are checked for sign, finiteness and grid compatibility."""
    scenario = _scenario()
    nu0 = uniform_density(scenario.grid)
    for tau in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be a finite number > 0"):
            jko_step(scenario, nu0, tau=tau)
    other = uniform_density(Grid(Interval(0.0, 1.0), 48))
    with pytest.raises(ValueError, match="grid"):
        jko_step(scenario, other, tau=0.1)


def test_jko_step_that_does_not_converge_raises():
    """A step whose inner solve stops at its iteration cap raises a
    ``RuntimeError`` that names the step."""
    scenario = _scenario()
    nu0 = two_bumps_density(scenario.grid)
    with pytest.raises(RuntimeError, match="did not converge at a single step"):
        jko_step(scenario, nu0, tau=0.1, inner=SolverParams(max_iters=1))


def test_trajectory_rejects_increasing_objective():
    """The trajectory container enforces the descent property."""
    nu = uniform_density(Grid(Interval(0.0, 1.0), 16))
    up = [
        TrajectoryPoint(k=0, nu=nu, J_value=0.0, W2_step=0.0),
        TrajectoryPoint(k=1, nu=nu, J_value=1.0, W2_step=0.1),
    ]
    with pytest.raises(ValueError, match="non-increasing"):
        Trajectory(points=up)
    with pytest.raises(ValueError, match="at least one"):
        Trajectory(points=[])
    with pytest.raises(ValueError, match="non-negative"):
        Trajectory(points=[TrajectoryPoint(k=0, nu=nu, J_value=0.0, W2_step=-0.1)])


def test_jko_objective_descends():
    """Objective values along the flow are monotone non-increasing."""
    scenario = _scenario()
    nu0 = uniform_density(scenario.grid)
    traj = jko_flow(scenario, nu0, JkoParams(tau=0.05, steps=8))
    J = traj.J_values
    assert len(J) == 9
    assert np.all(np.diff(J) <= 1e-10 * (1.0 + np.max(np.abs(J))))
    assert J[-1] < J[0]


def test_jko_converges_to_direct_minimizer():
    """Long flows land on the variational minimizer from different starts."""
    scenario = _scenario()
    params = JkoParams(tau=0.5, steps=40, inner=SolverParams(grad_tol=1e-10))
    from_uniform = jko_flow(scenario, uniform_density(scenario.grid), params)
    from_bumps = jko_flow(scenario, two_bumps_density(scenario.grid), params)
    assert from_uniform.diagnostics["terminal_vs_direct_W2"] < 1e-4
    assert from_bumps.diagnostics["terminal_vs_direct_W2"] < 1e-4
    gap = np.max(np.abs(from_uniform.terminal.values - from_bumps.terminal.values))
    assert gap < 1e-3


def test_jko_small_tau_moves_slowly():
    """One step with tiny tau stays near the start; larger tau moves further."""
    scenario = _scenario()
    nu0 = uniform_density(scenario.grid)
    tiny = jko_step(scenario, nu0, tau=1e-5)
    big = jko_step(scenario, nu0, tau=1.0)
    move_tiny = np.max(np.abs(tiny.values - nu0.values))
    move_big = np.max(np.abs(big.values - nu0.values))
    assert move_tiny < 1e-2
    assert move_big > 10.0 * move_tiny


def test_jko_step_displacements_shrink():
    """Per-step displacements decay as the flow settles."""
    scenario = _scenario()
    traj = jko_flow(scenario, uniform_density(scenario.grid), JkoParams(tau=0.2, steps=12))
    w2 = np.array([p.W2_step for p in traj.points[1:]])
    assert np.all(w2 >= 0.0)
    assert w2[-1] < 0.05 * w2[0]


def test_jko_trajectory_bookkeeping():
    """Indices, masses, and diagnostics are consistent."""
    scenario = _scenario()
    params = JkoParams(tau=0.1, steps=5)
    traj = jko_flow(scenario, uniform_density(scenario.grid), params)
    assert [p.k for p in traj.points] == list(range(6))
    for p in traj.points:
        assert p.nu.masses.sum() == pytest.approx(1.0, abs=1e-9)
    assert traj.diagnostics["tau"] == 0.1
    assert traj.diagnostics["steps"] == 5
    assert traj.diagnostics["direct_converged"]
    direct = minimize_quantile(scenario, params.inner)
    assert traj.diagnostics["direct_J"] == pytest.approx(direct.J_value, abs=1e-12)


def test_jko_flow_bins_one_density_per_step(monkeypatch):
    """A flow of k steps bins k densities, one per step's iterate: the
    closing direct solve, of which only ``G``, J and ``converged`` are read,
    bins none, and its diagnostics are those of ``minimize_quantile``."""
    import cnot.solver

    binned = []
    real = cnot.solver.quantile_to_density

    def spy(*args, **kwargs):
        binned.append(args)
        return real(*args, **kwargs)

    scenario = _scenario(n=32, m=96)
    params = JkoParams(tau=0.1, steps=3)
    monkeypatch.setattr(cnot.solver, "quantile_to_density", spy)
    traj = jko_flow(scenario, two_bumps_density(scenario.grid), params)
    assert len(binned) == params.steps
    monkeypatch.undo()
    direct = minimize_quantile(scenario, params.inner)
    assert traj.diagnostics["direct_J"] == direct.J_value
    assert traj.diagnostics["direct_converged"] is direct.converged


def test_jko_flow_builds_the_source_quantile_once(monkeypatch):
    """Every step of a flow and its closing direct solve share one
    objective: ``density_to_quantile(scenario.mu, m)`` runs once per flow,
    and the trajectory is the one independent proximal solves give."""
    import cnot.dynamics
    import cnot.solver

    scenario = _scenario(n=32, m=96)
    params = JkoParams(tau=0.1, steps=3)
    nu0 = two_bumps_density(scenario.grid)
    calls = []
    for module in (cnot.solver, cnot.dynamics):
        def spy(density, m, _real=module.density_to_quantile):
            calls.append(density is scenario.mu)
            return _real(density, m)

        monkeypatch.setattr(module, "density_to_quantile", spy)
    traj = jko_flow(scenario, nu0, params)
    assert sum(calls) == 1
    monkeypatch.undo()
    G = density_to_quantile(nu0, scenario.m).values
    for point in traj.points[1:]:
        problem = _QuantileProblem(scenario).anchored(G, params.tau)
        result = _binned(scenario, *_projected_newton(problem, params.inner, G0=G))
        assert np.array_equal(point.nu.values, result.nu.values)
        G = result.G.values
