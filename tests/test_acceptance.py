"""Assembly-level acceptance tests: one test per shipped capability.

Each test asserts one end-to-end guarantee of the package — oracle agreement
for the transport layer, analytic fixed points, certificate residuals on the
shipped scenario files, dynamics consistency, welfare invariants, and pinned
regression values for the two reference fixtures.
"""

import itertools
import json
import time
import warnings
from pathlib import Path

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
    PotentialSpec,
    Scenario,
    SolverParams,
    best_response_iterate,
    cost_of_anarchy,
    density_from_values,
    density_to_quantile,
    displacement_convexity_probe,
    equilibrium_residual,
    gaussian_truncated_density,
    jko_flow,
    minimize_quantile,
    monge_ampere_residual_1d,
    solve_lp,
    transport_derivative_check,
    two_bumps_density,
    uniform_density,
    w2_squared_1d,
)
from cnot.cli import load_scenario
from cnot.solver import _QuantileProblem
from cnot.welfare import minimize_social_cost, tax_marginal, taxed_stationarity_residual

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("uniform", "congested_gaussian", "cubic_attraction", "figure1")


def _load(name):
    """Shipped scenario plus the solver parameters stored in its file."""
    path = SCENARIO_DIR / f"{name}.json"
    scenario = load_scenario(str(path))
    solver = json.loads(path.read_text()).get("solver", {})
    defaults = SolverParams()
    params = SolverParams(
        max_iters=solver.get("max_iters", defaults.max_iters),
        grad_tol=solver.get("grad_tol", defaults.grad_tol),
    )
    return scenario, params


def _w2(nu_a, nu_b, m=None):
    return float(np.sqrt(w2_squared_1d(nu_a, nu_b, m=m)))


def test_01_quantile_cost_matches_lp_oracle():
    """Squared quantile distance agrees with the exact LP on atomized pairs."""
    start = time.perf_counter()
    grid = Grid(Interval(0.0, 1.0), 16)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mu = density_from_values(grid, rng.uniform(0.1, 2.0, grid.n))
        nu = density_from_values(grid, rng.uniform(0.1, 2.0, grid.n))
        value = w2_squared_1d(mu, nu, m=2048)
        sq = (grid.nodes[:, None] - grid.nodes[None, :]) ** 2
        _, _, lp = solve_lp(mu.masses, grid.nodes, nu.masses, grid.nodes, cost_matrix=sq)
        worst = max(worst, abs(value - lp) / (1.0 + abs(value)))
    elapsed = time.perf_counter() - start
    assert worst <= 2e-3
    assert elapsed < 5.0


def test_02_lp_duality_gap_and_assignment_oracle():
    """The LP is tight: zero duality gap, and it matches brute-force matching."""
    cost = CostSpec.quadratic()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        na, nb = int(rng.integers(2, 65)), int(rng.integers(2, 65))
        a = rng.uniform(0.1, 1.0, na)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, nb)
        b /= b.sum()
        x = np.sort(rng.uniform(0.0, 1.0, na))
        y = np.sort(rng.uniform(0.0, 1.0, nb))
        _, pair, value = solve_lp(a, x, b, y, cost=cost)
        assert abs(value - pair.dual_value(a, b)) <= 1e-9 * (1.0 + abs(value))
    for k in range(2, 7):
        for seed in range(3):
            rng = np.random.default_rng(100 * k + seed)
            x = np.sort(rng.uniform(0.0, 1.0, k))
            y = np.sort(rng.uniform(0.0, 1.0, k))
            w = np.full(k, 1.0 / k)
            _, _, value = solve_lp(w, x, w, y, cost=cost)
            best = min(
                sum(float(cost.C(x[i] - y[p[i]])) for i in range(k)) / k
                for p in itertools.permutations(range(k))
            )
            assert abs(value - best) <= 1e-12


def _gradient_families():
    g1 = Grid(Interval(0.0, 1.0), 32)
    yield Scenario(
        mu=uniform_density(g1),
        cost=CostSpec.quadratic(),
        model=EnergyModel(grid=g1, congestion=CongestionSpec.entropy()),
        m=33,
    )
    g2 = Grid(Interval(0.0, 1.0), 32)
    yield Scenario(
        mu=gaussian_truncated_density(g2, 0.5, 0.2),
        cost=CostSpec.quadratic(),
        model=EnergyModel(
            grid=g2,
            congestion=CongestionSpec.entropy(),
            kernel=InteractionKernel.quadratic_distance(1.5),
        ),
        m=33,
    )
    g3 = Grid(Interval(0.0, 1.0), 32)
    yield Scenario(
        mu=uniform_density(g3),
        cost=CostSpec.quadratic(),
        model=EnergyModel(
            grid=g3,
            congestion=CongestionSpec.power(2.0, 1.0),
            potential=PotentialSpec.poly([0.0, 0.0, 1.0], declared_convex=True),
        ),
        m=33,
    )
    g4 = Grid(Interval(5.0, 6.0), 32)
    yield Scenario(
        mu=gaussian_truncated_density(g4, 5.5, 0.25),
        cost=CostSpec.quadratic(),
        model=EnergyModel(
            grid=g4,
            congestion=CongestionSpec.entropy(),
            kernel=InteractionKernel.cubic_distance(1.0),
            potential=PotentialSpec.poly([-125.0, 75.0, -15.0, 1.0], declared_convex=True),
        ),
        m=33,
    )
    g5 = Grid(Interval(0.0, 1.0), 32)
    yield Scenario(
        mu=uniform_density(g5),
        cost=CostSpec.power(4.0),
        model=EnergyModel(
            grid=g5,
            congestion=CongestionSpec.entropy("plain"),
            kernel=InteractionKernel.product(0.8),
        ),
        m=33,
    )


def test_03_gradient_matches_finite_differences_across_families():
    """Analytic gradients track central differences to 1e-6 on 5 model families."""
    for fi, scenario in enumerate(_gradient_families()):
        problem = _QuantileProblem(scenario)
        iv = scenario.interval
        rng = np.random.default_rng(1000 + fi)
        for _ in range(20):
            pad = 0.02 * iv.length
            gaps = rng.uniform(0.5, 1.5, scenario.m - 1)
            raw = np.concatenate([[0.0], np.cumsum(gaps)])
            raw = iv.lo + pad + raw / raw[-1] * (iv.length - 2.0 * pad)
            h = 1e-6 * float(np.diff(raw).min())
            grad = problem.gradient(problem.price(raw)[0])
            fd = np.empty_like(grad)
            for k in range(scenario.m):
                e = np.zeros(scenario.m)
                e[k] = h
                fd[k] = (problem.value(raw + e) - problem.value(raw - e)) / (2.0 * h)
            rel = np.max(np.abs(fd - grad)) / (1.0 + np.max(np.abs(grad)))
            assert rel <= 1e-6


def test_04_uniform_source_analytic_fixed_point():
    """Uniform source with pure entropy: both solvers return the uniform density."""
    grid = Grid(Interval(0.0, 1.0), 256)
    scenario = Scenario(
        mu=uniform_density(grid),
        cost=CostSpec.quadratic(),
        model=EnergyModel(grid=grid, congestion=CongestionSpec.entropy()),
        m=256,
    )
    result = minimize_quantile(scenario, SolverParams(grad_tol=1e-9))
    assert result.converged
    assert np.max(np.abs(result.nu.values - 1.0)) <= 1e-4
    assert result.residual_eq <= 1e-6
    assert result.residual_sup <= 1e-6
    br = best_response_iterate(scenario, two_bumps_density(grid), damping=0.5, steps=40)
    assert np.max(np.abs(br.values - 1.0)) <= 1e-4


def test_05_equilibrium_certificate_on_every_shipped_scenario():
    """Solver output passes the independent stationarity check on all fixtures."""
    for name in SHIPPED:
        scenario, params = _load(name)
        result = minimize_quantile(scenario, params)
        assert result.converged, name
        report = equilibrium_residual(scenario, result.nu)
        assert report.residual_sup <= 1e-3, name
        assert report.residual_eq <= 1e-3, name


def test_06_best_response_agrees_with_variational_solver():
    """Damped fixed-point iteration lands on the variational minimizer."""
    convex = []
    g1 = Grid(Interval(0.0, 1.0), 128)
    convex.append(
        Scenario(
            mu=uniform_density(g1),
            cost=CostSpec.quadratic(),
            model=EnergyModel(grid=g1, congestion=CongestionSpec.entropy()),
            m=1024,
        )
    )
    g2 = Grid(Interval(0.0, 1.0), 128)
    convex.append(
        Scenario(
            mu=gaussian_truncated_density(g2, 0.5, 0.15),
            cost=CostSpec.quadratic(),
            model=EnergyModel(
                grid=g2,
                congestion=CongestionSpec.entropy(),
                kernel=InteractionKernel.quadratic_distance(2.0),
            ),
            m=1024,
        )
    )
    g3 = Grid(Interval(0.0, 1.0), 128)
    convex.append(
        Scenario(
            mu=gaussian_truncated_density(g3, 0.4, 0.2),
            cost=CostSpec.quadratic(),
            model=EnergyModel(
                grid=g3,
                congestion=CongestionSpec.entropy(),
                potential=PotentialSpec.poly([0.0, 0.0, 1.0], declared_convex=True),
            ),
            m=1024,
        )
    )
    for scenario in convex:
        direct = minimize_quantile(scenario, SolverParams(grad_tol=1e-10))
        iterated = best_response_iterate(
            scenario, uniform_density(scenario.grid), damping=0.5, steps=80
        )
        assert _w2(direct.nu, iterated, m=scenario.m) <= 1e-3


def test_07_unique_minimizer_from_distinct_initializations():
    """Strictly convex scenarios reach one solution from three different starts."""
    for name in ("congested_gaussian", "cubic_attraction"):
        scenario, _ = _load(name)
        params = SolverParams(grad_tol=1e-10)
        iv = scenario.interval
        inits = [
            None,
            density_to_quantile(two_bumps_density(scenario.grid), scenario.m),
            density_to_quantile(
                gaussian_truncated_density(
                    scenario.grid, iv.lo + 0.3 * iv.length, 0.1 * iv.length
                ),
                scenario.m,
            ),
        ]
        solutions = [minimize_quantile(scenario, params, G0=G0) for G0 in inits]
        assert all(s.converged for s in solutions)
        for a, b in itertools.combinations(solutions, 2):
            assert _w2(a.nu, b.nu, m=scenario.m) <= 1e-6, name


def test_08_jko_descends_and_reaches_the_minimizer():
    """The minimizing-movement flow is a descent scheme with the right limit."""
    grid = Grid(Interval(0.0, 1.0), 64)
    scenario = Scenario(
        mu=gaussian_truncated_density(grid, 0.5, 0.15),
        cost=CostSpec.quadratic(),
        model=EnergyModel(
            grid=grid,
            congestion=CongestionSpec.entropy(),
            kernel=InteractionKernel.quadratic_distance(2.0),
        ),
        m=256,
    )
    params = JkoParams(tau=0.5, steps=40, inner=SolverParams(grad_tol=1e-10))
    trajectories = [
        jko_flow(scenario, uniform_density(grid), params),
        jko_flow(scenario, two_bumps_density(grid), params),
    ]
    for traj in trajectories:
        J = traj.J_values
        assert np.all(np.diff(J) <= 1e-10 * (1.0 + np.max(np.abs(J))))
        assert traj.diagnostics["terminal_vs_direct_W2"] <= 1e-3
    assert _w2(trajectories[0].terminal, trajectories[1].terminal, m=scenario.m) <= 1e-3


def test_09_objective_convex_along_quantile_geodesics():
    """No convexity violations along random geodesics on qualifying fixtures."""
    qualifying = 0
    for name in SHIPPED:
        scenario, _ = _load(name)
        kernel = scenario.model.kernel
        potential = scenario.model.potential
        if not (
            scenario.cost.strictly_convex_on(scenario.interval.length)
            and scenario.model.congestion.satisfies_mccann
            and (kernel is None or kernel.declared_convex)
            and (potential is None or potential.declared_convex)
        ):
            continue
        qualifying += 1
        rng = np.random.default_rng(42)
        for _ in range(20):
            nu_a = density_from_values(scenario.grid, rng.uniform(0.2, 1.8, scenario.n))
            nu_b = density_from_values(scenario.grid, rng.uniform(0.2, 1.8, scenario.n))
            report = displacement_convexity_probe(scenario, nu_a, nu_b)
            assert report.max_violation <= 1e-8, name
            assert report.midpoint_margin > 0.0, name
    assert qualifying == len(SHIPPED)


def test_10_second_order_residual_vanishes_refines_and_discriminates():
    """The pointwise second-order check is exact, convergent, and selective."""
    grid = Grid(Interval(0.0, 1.0), 256)
    trivial = Scenario(
        mu=uniform_density(grid),
        cost=CostSpec.quadratic(),
        model=EnergyModel(grid=grid, congestion=CongestionSpec.entropy()),
        m=1024,
    )
    assert monge_ampere_residual_1d(trivial, uniform_density(grid)) <= 1e-3

    residuals = []
    for n in (128, 256, 512):
        g = Grid(Interval(0.0, 1.0), n)
        scenario = Scenario(
            mu=gaussian_truncated_density(g, 0.5, 0.15),
            cost=CostSpec.quadratic(),
            model=EnergyModel(
                grid=g,
                congestion=CongestionSpec.entropy(),
                kernel=InteractionKernel.quadratic_distance(2.0),
            ),
            m=8 * n,
        )
        result = minimize_quantile(scenario, SolverParams(grad_tol=1e-9))
        nu = density_from_values(g, np.clip(result.nu.values, 1e-12, None))
        residuals.append(monge_ampere_residual_1d(scenario, nu))
    assert residuals[1] < residuals[0]
    assert residuals[2] < residuals[1]

    x = grid.nodes
    perturbed = density_from_values(grid, 1.0 + 0.3 * np.sin(2.0 * np.pi * x))
    assert monge_ampere_residual_1d(trivial, perturbed) >= 1e-2


def test_11_transport_derivative_quotients_tighten():
    """Difference quotients home in on the dual prediction as eps shrinks."""
    grid = Grid(Interval(0.0, 1.0), 64)

    def bump(rng, lo, hi):
        center = rng.uniform(lo, hi)
        sigma = rng.uniform(0.05, 0.1)
        values = np.exp(-0.5 * ((grid.nodes - center) / sigma) ** 2) + 0.05
        return density_from_values(grid, values)

    for seed in range(10):
        rng = np.random.default_rng(seed)
        mu = density_from_values(grid, rng.uniform(0.2, 1.8, grid.n))
        nu = bump(rng, 0.15, 0.35)
        rho = bump(rng, 0.65, 0.85)
        report = transport_derivative_check(
            mu, nu, rho, CostSpec.quadratic(), eps_list=(1e-2, 1e-3), m=16384
        )
        assert report.errors[1] < report.errors[0], seed


def test_12_welfare_invariants_and_pinned_ratio():
    """Welfare: ratio >= 1 everywhere, = 1 when trivial, small corrective residual."""
    for name in SHIPPED:
        scenario, params = _load(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = cost_of_anarchy(scenario, params)
        assert report.cost_of_anarchy >= 1.0, name
        assert report.stationarity_residual_marginal <= 1e-3, name
        if name == "uniform":
            assert report.cost_of_anarchy == 1.0
        if name == "congested_gaussian":
            assert report.cost_of_anarchy == pytest.approx(1.0312973173679252, abs=1e-6)


def test_13_reference_fixture_regression():
    """The pinned fixture converges to its frozen profile: unimodal, interior."""
    scenario, params = _load("figure1")
    result = minimize_quantile(scenario, params)
    assert result.converged
    assert result.residual_eq <= 1e-3
    assert result.residual_sup <= 1e-3
    assert result.J_value == pytest.approx(0.04867263792525794, abs=1e-6)
    assert result.M == pytest.approx(0.19109830566605063, abs=1e-6)

    nu = result.nu.values
    eps = 1e-6 * float(nu.max())
    support = np.nonzero(nu > eps)[0]
    margin = max(2, scenario.n // 100)
    assert support[0] >= margin  # strictly inside the left edge
    assert support[-1] <= scenario.n - 1 - margin  # strictly inside the right edge

    peak = int(np.argmax(nu))
    slack = 1e-9 * float(nu.max())
    assert support[0] < peak < support[-1]
    assert np.all(np.diff(nu[: peak + 1]) >= -slack)  # rises to a single mode
    assert np.all(np.diff(nu[peak:]) <= slack)  # then falls
