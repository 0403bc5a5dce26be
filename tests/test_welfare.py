"""Tests for social cost, corrective taxes, and the cost of anarchy."""

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
    Scenario,
    SolverParams,
    WelfareReport,
    cost_of_anarchy,
    equilibrium_residual,
    minimize_quantile,
    minimize_social_cost,
    social_cost,
    social_scenario,
    tax_marginal,
    tax_paper,
    taxed_stationarity_residual,
    density_from_values,
    gaussian_truncated_density,
    uniform_density,
    wasserstein_cost_1d,
    welfare,
)
from cnot.solver import _uniqueness_flags


def _plain_uniform(n=64, convention="shifted"):
    grid = Grid(Interval(0.0, 1.0), n)
    model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy(convention))
    return Scenario(mu=uniform_density(grid), cost=CostSpec.quadratic(), model=model, m=4 * n)


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


def test_welfare_report_validation():
    """Reports with an impossible ratio or ordering are rejected when the
    optimum converged; an unconverged optimum is reported as it is."""
    tax = np.zeros(4)
    fields = dict(
        sc_equilibrium=1.0,
        sc_optimum=2.0,
        cost_of_anarchy=0.5,
        tax_paper=tax,
        tax_marginal=tax,
        stationarity_residual_paper=0.0,
        stationarity_residual_marginal=0.0,
        converged_equilibrium=True,
        converged_optimum=True,
    )
    with pytest.raises(ValueError, match="anarchy"):
        WelfareReport(**fields)
    with pytest.raises(ValueError, match="optimum"):
        WelfareReport(**{**fields, "cost_of_anarchy": 2.0})
    assert not WelfareReport(**{**fields, "converged_optimum": False}).converged_optimum


def test_social_cost_uniform_closed_form():
    """At the uniform density the social congestion integral is s log s = 0."""
    scenario = _plain_uniform()
    nu = uniform_density(scenario.grid)
    assert social_cost(scenario, nu) == pytest.approx(0.0, abs=1e-10)
    # adding a location cost x^2 contributes its mean over the uniform density
    grid = scenario.grid
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.entropy(),
        potential=PotentialSpec.poly([0.0, 0.0, 1.0], declared_convex=True),
    )
    tilted = Scenario(mu=scenario.mu, cost=scenario.cost, model=model, m=scenario.m)
    assert social_cost(tilted, nu) == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_social_cost_ignores_empty_cells():
    """Cells with zero density contribute nothing to the congestion term."""
    scenario = _plain_uniform(n=32)
    grid = scenario.grid
    values = np.zeros(grid.n)
    values[: grid.n // 2] = 2.0
    nu = density_from_values(grid, values)
    sc = social_cost(scenario, nu)
    assert np.isfinite(sc)
    # congestion integral: 2 log 2 over half the interval
    transport = sc - np.log(2.0)
    assert transport >= 0.0


def test_social_cost_matches_the_written_out_formula():
    """``social_cost`` is ``W + d sum f(nu) nu + sum v mass + mass . field``
    (the un-halved interaction) with power congestion, the cubic kernel and
    a polynomial potential together."""
    grid = Grid(Interval(-0.5, 1.5), 40)
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.power(1.5, 0.3),
        kernel=InteractionKernel.cubic_distance(0.8),
        potential=PotentialSpec.poly([0.1, -0.4, 0.7, 0.2]),
    )
    scenario = Scenario(
        mu=gaussian_truncated_density(grid, 0.4, 0.3), cost=CostSpec.quadratic(), model=model, m=160
    )
    nu = gaussian_truncated_density(grid, 0.7, 0.25)
    v, masses = nu.values, nu.masses
    expected = (
        wasserstein_cost_1d(scenario.mu, nu, scenario.cost, m=scenario.m)
        + grid.delta * np.sum(0.3 * v**1.5 * v)
        + np.dot(model.potential.v(grid.nodes), masses)
        + masses @ model.interaction_field(nu)
    )
    assert social_cost(scenario, nu) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_custom_social_congestion_takes_the_zero_limit():
    """A custom spec's social antiderivative ``s f(s)`` is 0 at an empty cell
    even where ``f(0)`` is infinite, without a floating-point warning, and
    the social cost of a density with empty cells stays finite."""
    custom = CongestionSpec.custom(
        f=np.log, F=lambda s: s * np.log(s) - s, f_inv=np.exp
    )
    F = custom.social().F(np.array([0.0, 0.5]))
    assert np.array_equal(F, [0.0, 0.5 * np.log(0.5)])
    grid = Grid(Interval(0.0, 1.0), 32)
    scenario = Scenario(
        mu=uniform_density(grid),
        cost=CostSpec.quadratic(),
        model=EnergyModel(grid=grid, congestion=custom),
        m=128,
    )
    values = np.zeros(grid.n)
    values[: grid.n // 2] = 2.0
    assert np.isfinite(social_cost(scenario, density_from_values(grid, values)))


def test_social_congestion_entropy_and_power():
    """The social counterpart has antiderivative s f(s) and marginal f + s f'."""
    soc = CongestionSpec.entropy().social()
    s = np.array([0.25, 1.0, 3.0])
    assert np.allclose(soc.F(s), s * np.log(s))
    assert np.allclose(soc.f(s), 1.0 + np.log(s))
    assert np.allclose(soc.f_inv(soc.f(s)), s, atol=1e-12)

    base = CongestionSpec.power(2.0, 0.7)
    soc_p = base.social()
    assert np.allclose(soc_p.f(s), 3.0 * 0.7 * s**2)
    assert np.allclose(soc_p.F(s), 0.7 * s**3)


def test_social_congestion_generic_path():
    """A custom congestion spec goes through the finite-difference branch."""
    linear = CongestionSpec(
        f=lambda s: np.asarray(s, dtype=float),
        F=lambda s: 0.5 * np.asarray(s, dtype=float) ** 2,
        f_inv=lambda t: np.asarray(t, dtype=float),
        f_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        kind="custom",
    )
    soc = linear.social()
    s = np.array([0.5, 1.0, 2.0])
    assert np.allclose(soc.f(s), 2.0 * s)
    assert np.allclose(soc.F(s), s**2)
    assert np.allclose(soc.f_inv(np.array([1.0, 4.0])), [0.5, 2.0], atol=1e-9)
    assert np.allclose(soc.f_prime(s), 2.0, atol=1e-5)


def test_tax_paper_entropy_conventions():
    """f(nu) nu - F(nu) is nu for the shifted convention and 0 for plain."""
    grid = Grid(Interval(0.0, 1.0), 32)
    nu = gaussian_truncated_density(grid, 0.5, 0.2)
    for convention, expected in (("shifted", nu.values), ("plain", np.zeros(grid.n))):
        model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy(convention))
        scenario = Scenario(mu=uniform_density(grid), cost=CostSpec.quadratic(), model=model)
        assert np.allclose(tax_paper(scenario, nu), expected, atol=1e-12)


def test_entropy_conventions_price_the_same_equilibrium():
    """Plain and shifted entropy solve to the same G and M; J differs by
    exactly 1 (the integral of F' - f = 1 against unit mass) and the
    average-cost tax by nu."""
    grid = Grid(Interval(0.0, 1.0), 64)
    mu = gaussian_truncated_density(grid, 0.5, 0.15)
    solves, scenarios = {}, {}
    for convention in ("shifted", "plain"):
        model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy(convention),
                            kernel=InteractionKernel.quadratic_distance(2.0))
        scenarios[convention] = Scenario(mu=mu, cost=CostSpec.quadratic(), model=model, m=256)
        solves[convention] = minimize_quantile(scenarios[convention], SolverParams(grad_tol=1e-9))
    shifted, plain = solves["shifted"], solves["plain"]
    assert shifted.converged and plain.converged
    assert np.max(np.abs(plain.G.values - shifted.G.values)) <= 1e-15
    assert abs(plain.M - shifted.M) <= 1e-15
    assert plain.J_value - shifted.J_value == pytest.approx(1.0, abs=1e-12)
    nu = shifted.nu
    gap = tax_paper(scenarios["shifted"], nu) - tax_paper(scenarios["plain"], nu)
    assert np.allclose(gap, nu.values, rtol=0.0, atol=1e-12)


def test_tax_marginal_entropy_is_one_plus_field():
    """Entropy marginal externality is identically 1; kernels add their field."""
    scenario = _plain_uniform(n=32)
    nu = gaussian_truncated_density(scenario.grid, 0.5, 0.2)
    assert np.allclose(tax_marginal(scenario, nu), 1.0)
    kscen = _congested(n=32, m=128)
    field = kscen.model.interaction_field(nu)
    assert np.allclose(tax_marginal(kscen, nu), 1.0 + field, atol=1e-12)


def test_taxed_stationarity_validation():
    """The tax vector must live on the scenario grid."""
    scenario = _plain_uniform(n=32)
    nu = uniform_density(scenario.grid)
    with pytest.raises(ValueError, match="grid"):
        taxed_stationarity_residual(scenario, nu, np.zeros(7))


def test_marginal_tax_restores_stationarity():
    """At the social optimum the Pigouvian-taxed first-order condition holds."""
    scenario = _congested()
    params = SolverParams(grad_tol=1e-8)
    opt = minimize_social_cost(scenario, params)
    assert opt.converged
    residual = taxed_stationarity_residual(scenario, opt.nu, tax_marginal(scenario, opt.nu))
    assert residual < 2e-3
    # power congestion leaves a free boundary: the report's residual is the
    # verify residual with the tax added, straddling edge cells eroded
    grid = Grid(Interval(0.0, 1.0), 48)
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.power(2.0, 0.05),
        kernel=InteractionKernel.quadratic_distance(1.0),
    )
    scenario = Scenario(
        mu=gaussian_truncated_density(grid, 0.5, 0.1), cost=CostSpec.quadratic(), model=model, m=192
    )
    params = SolverParams(grad_tol=1e-9)
    opt = minimize_social_cost(scenario, params)
    check = equilibrium_residual(scenario, opt.nu, tax=tax_marginal(scenario, opt.nu))
    assert check.support_cells < grid.n
    report = cost_of_anarchy(scenario, params)
    assert report.stationarity_residual_marginal == check.residual_eq
    assert check.residual_eq < 2e-3


def test_cost_of_anarchy_trivial_game_is_one():
    """No interaction: equilibrium and optimum coincide and the ratio is 1."""
    report = cost_of_anarchy(_plain_uniform(n=64), SolverParams(grad_tol=1e-9))
    assert report.cost_of_anarchy == 1.0
    assert report.sc_equilibrium == pytest.approx(0.0, abs=1e-8)
    assert report.sc_optimum == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(report.tax_paper, 1.0, atol=1e-5)
    assert np.allclose(report.tax_marginal, 1.0, atol=1e-12)
    assert report.stationarity_residual_marginal < 1e-6
    assert not report.warnings


def test_cost_of_anarchy_congestion_externality():
    """With a repulsive kernel the equilibrium over-concentrates: ratio > 1."""
    report = cost_of_anarchy(_congested(), SolverParams(grad_tol=1e-8))
    assert report.cost_of_anarchy > 1.0
    assert report.sc_optimum < report.sc_equilibrium
    assert report.cost_of_anarchy == pytest.approx(1.031297317, abs=1e-6)


def test_cost_of_anarchy_undefined_for_nonpositive_optimum():
    """A negative optimal social cost leaves the ratio undefined (inf + warning)."""
    grid = Grid(Interval(0.0, 4.0), 64)
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.entropy(),
        kernel=InteractionKernel.quadratic_distance(0.1),
    )
    scenario = Scenario(
        mu=gaussian_truncated_density(grid, 2.0, 0.5),
        cost=CostSpec.quadratic(),
        model=model,
        m=256,
    )
    with pytest.warns(UserWarning, match="undefined"):
        report = cost_of_anarchy(scenario)
    assert report.sc_optimum < 0.0
    assert report.sc_optimum < report.sc_equilibrium
    assert report.cost_of_anarchy == np.inf
    assert any("undefined" in w for w in report.warnings)


def test_cost_of_anarchy_warns_outside_uniqueness_regime():
    """Missing convexity declarations produce a lower-bound warning."""
    grid = Grid(Interval(0.0, 1.0), 32)
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.entropy(),
        potential=PotentialSpec.poly([0.0, 1.0]),  # not declared convex
    )
    scenario = Scenario(mu=uniform_density(grid), cost=CostSpec.quadratic(), model=model, m=128)
    with pytest.warns(UserWarning, match="uniqueness"):
        report = cost_of_anarchy(scenario)
    assert any("uniqueness" in w for w in report.warnings)


def test_uniqueness_flags_a_congestion_that_fails_mccanns_probe():
    """``F(s) = s^2 + 1`` builds (``F' = f``, ``f_inv`` inverts ``f``), but
    ``s F(1/s) = s + 1/s`` is not non-increasing: the congestion fails
    McCann's probe and is the one uniqueness condition flagged."""
    congestion = CongestionSpec.custom(
        f=lambda s: 2.0 * np.asarray(s), F=lambda s: np.asarray(s) ** 2 + 1.0,
        f_inv=lambda t: np.asarray(t) / 2.0,
    )
    assert not congestion.satisfies_mccann
    grid = Grid(Interval(0.0, 1.0), 16)
    model = EnergyModel(grid=grid, congestion=congestion)
    scenario = Scenario(mu=uniform_density(grid), cost=CostSpec.quadratic(), model=model, m=64)
    assert _uniqueness_flags(scenario) == ["congestion fails the displacement-convexity probe"]


def test_social_scenario_shares_geometry():
    """The derived scenario keeps grid, source, cost, and resolution."""
    scenario = _congested(n=32, m=128)
    derived = social_scenario(scenario)
    assert derived.grid == scenario.grid
    assert derived.m == scenario.m
    assert derived.mu is scenario.mu
    assert derived.model.kernel.kappa == pytest.approx(2.0 * scenario.model.kernel.kappa)


def test_cost_of_anarchy_builds_the_social_scenario_once(monkeypatch):
    """``cost_of_anarchy`` builds one social scenario, and the model one
    social counterpart (one ``CongestionSpec.social`` call), for the
    optimum, both social costs and the average-cost tax.  It prices through
    the public ``social_cost`` (twice) and ``tax_paper`` (once) and reports
    the bits they give."""
    scenario, params = _congested(n=32, m=128), SolverParams(grad_tol=1e-8)
    calls = {"scenario": 0, "social": 0, "social_cost": 0, "tax_paper": 0}

    def counted(key, fn):
        def spy(*args):
            calls[key] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(welfare, "social_scenario", counted("scenario", welfare.social_scenario))
    monkeypatch.setattr(CongestionSpec, "social", counted("social", CongestionSpec.social))
    monkeypatch.setattr(welfare, "social_cost", counted("social_cost", welfare.social_cost))
    monkeypatch.setattr(welfare, "tax_paper", counted("tax_paper", welfare.tax_paper))
    report = cost_of_anarchy(scenario, params)
    assert calls == {"scenario": 1, "social": 1, "social_cost": 2, "tax_paper": 1}
    monkeypatch.undo()

    opt = minimize_social_cost(scenario, params)
    assert report.sc_equilibrium == social_cost(scenario, minimize_quantile(scenario, params).nu)
    assert report.sc_optimum == social_cost(scenario, opt.nu)
    assert report.tax_paper.tobytes() == tax_paper(scenario, opt.nu).tobytes()
