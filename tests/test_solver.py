"""Tests for the quantile objective and the projected-Newton equilibrium solver."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.optimize import isotonic_regression

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
    density_to_quantile,
    gaussian_truncated_density,
    jko_flow,
    minimize_quantile,
    objective_eval,
    objective_gradient,
    project_monotone,
    uniform_density,
)
from cnot.solver import _newton_direction, _QuantileProblem, _trial_point


def _uniform_scenario(n=64, m=129, convention="shifted", support_mode="free"):
    grid = Grid(Interval(0.0, 1.0), n)
    model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy(convention))
    return Scenario(
        mu=uniform_density(grid),
        cost=CostSpec.quadratic(),
        model=model,
        m=m,
        support_mode=support_mode,
    )


def _congested_scenario(n=64, m=256):
    grid = Grid(Interval(0.0, 1.0), n)
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.entropy(),
        kernel=InteractionKernel.quadratic_distance(2.0),
    )
    return Scenario(
        mu=gaussian_truncated_density(grid, 0.5, 0.15),
        cost=CostSpec.quadratic(),
        model=model,
        m=m,
    )


def test_scenario_validation():
    """Mismatched grids, tiny m, flat source, and bad support modes are rejected."""
    grid = Grid(Interval(0.0, 1.0), 16)
    other = Grid(Interval(0.0, 1.0), 32)
    model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy())
    mu = uniform_density(grid)
    with pytest.raises(ValueError, match="share a grid"):
        Scenario(mu=uniform_density(other), cost=CostSpec.quadratic(), model=model)
    with pytest.raises(ValueError, match="m must be"):
        Scenario(mu=mu, cost=CostSpec.quadratic(), model=model, m=1)
    with pytest.raises(ValueError, match="support_mode"):
        Scenario(mu=mu, cost=CostSpec.quadratic(), model=model, support_mode="clamped")
    thin = np.ones(16)
    thin[3] = 0.0
    from cnot import DiscreteDensity

    values = thin / (thin.sum() * grid.delta)
    with pytest.raises(ValueError, match="strictly positive"):
        Scenario(mu=DiscreteDensity(grid, values), cost=CostSpec.quadratic(), model=model)


def test_solver_params_validation():
    """The iteration cap and the tolerance must be positive (NaN is not)."""
    with pytest.raises(ValueError):
        SolverParams(max_iters=0)
    with pytest.raises(ValueError):
        SolverParams(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverParams(grad_tol=float("nan"))


def test_objective_identity_quantile_exact():
    """At the source quantile the objective is exactly the congestion integral."""
    for convention, expected in (("shifted", -1.0), ("plain", 0.0)):
        scenario = _uniform_scenario(convention=convention)
        H = density_to_quantile(scenario.mu, scenario.m)
        assert objective_eval(scenario, H) == pytest.approx(expected, abs=1e-12)


def test_objective_contracted_quantile_closed_form():
    """J at G = p/2 matches the hand-derived transport + entropy value."""
    scenario = _uniform_scenario(m=257)
    m = scenario.m
    p = np.linspace(0.0, 1.0, m)
    # transport: (1/m) sum (p/2)^2 / 2 = (2m-1) / (48 (m-1));
    # congestion: density 2 on [0, 1/2], so F(2)/2 = log 2 - 1 for s log s - s
    expected = (2 * m - 1) / (48.0 * (m - 1)) + np.log(2.0) - 1.0
    assert objective_eval(scenario, p / 2.0) == pytest.approx(expected, rel=1e-12)


def test_objective_gradient_matches_finite_differences():
    """Analytic gradient agrees with central differences of the objective."""
    grid = Grid(Interval(0.0, 1.0), 32)
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.entropy(),
        kernel=InteractionKernel.quadratic_distance(1.5),
        potential=PotentialSpec.poly([0.0, 0.0, 1.0], declared_convex=True),
    )
    scenario = Scenario(
        mu=gaussian_truncated_density(grid, 0.4, 0.2),
        cost=CostSpec.quadratic(),
        model=model,
        m=33,
    )
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = np.sort(rng.uniform(0.05, 0.95, scenario.m))
        raw += np.linspace(0.0, 1e-3, scenario.m)  # keep gaps bounded away from 0
        grad = objective_gradient(scenario, raw)
        fd = np.zeros_like(grad)
        h = 1e-7
        for k in range(scenario.m):
            e = np.zeros(scenario.m)
            e[k] = h
            fd[k] = (objective_eval(scenario, raw + e) - objective_eval(scenario, raw - e)) / (
                2.0 * h
            )
        rel = np.max(np.abs(fd - grad)) / (1.0 + np.max(np.abs(grad)))
        assert rel < 1e-5


def test_objective_rejects_bad_quantiles():
    """Decreasing values raise; zero gaps give an infinite objective."""
    scenario = _uniform_scenario()
    m = scenario.m
    down = np.linspace(1.0, 0.0, m)
    with pytest.raises(ValueError, match="non-decreasing"):
        objective_eval(scenario, down)
    flat = np.full(m, 0.5)
    assert objective_eval(scenario, flat) == np.inf
    with pytest.raises(ValueError, match="strictly increasing"):
        objective_gradient(scenario, flat)
    with pytest.raises(ValueError, match="m >= 2"):
        objective_eval(scenario, [0.5])


def test_project_monotone_pairwise_average():
    """The isotonic projection pools a descending pair to its average."""
    iv = Interval(0.0, 1.0)
    out = project_monotone([1.0, 0.0], iv)
    assert np.allclose(out.values, [0.5, 0.5])
    out = project_monotone([-2.0, 0.3, 4.0], iv)
    assert np.allclose(out.values, [0.0, 0.3, 1.0])
    pinned = project_monotone([0.2, 0.5, 0.9], iv, support_mode="fixed_endpoints")
    assert pinned.values[0] == 0.0 and pinned.values[-1] == 1.0
    with pytest.raises(ValueError, match="finite"):
        project_monotone([0.0, np.nan], iv)
    with pytest.raises(ValueError, match="support_mode"):
        project_monotone([0.0, 1.0], iv, support_mode="weird")


def test_project_monotone_fixed_endpoints_ignores_end_trials():
    """Pinned ends are constants: a wild trial value at an end does not pool
    into the interior, so the result is the exact projection onto the
    pinned monotone set."""
    out = project_monotone([0.0, 0.5, 0.6, -100.0], Interval(0.0, 1.0), "fixed_endpoints")
    assert np.array_equal(out.values, [0.0, 0.5, 0.6, 1.0])
    out = project_monotone([7.0, 0.4, 0.2, 1.0], Interval(0.0, 1.0), "fixed_endpoints")
    assert np.allclose(out.values, [0.0, 0.3, 0.3, 1.0])


def _isotonic_min_max(y, w):
    """Weighted isotonic fit by the min-max formula
    ``x_i = max_{j <= i} min_{k >= i} mean_w(y[j..k])`` (cubic, no PAVA)."""
    n = y.size
    x = np.empty(n)
    for i in range(n):
        x[i] = max(
            min(np.dot(w[j : k + 1], y[j : k + 1]) / w[j : k + 1].sum() for k in range(i, n))
            for j in range(i + 1)
        )
    return x


def test_weighted_fixed_endpoint_projection_matches_brute_force():
    """The fixed-endpoint projection is the interior's isotonic fit (the
    min-max formula with unit weights), clipped to the interval, with the
    ends set to lo and hi; the end trials do not change the interior."""
    iv = Interval(-1.0, 2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(3, 12))
        y = rng.normal(0.5, 2.0, m)
        v = project_monotone(y, iv, "fixed_endpoints").values
        assert v[0] == iv.lo and v[-1] == iv.hi
        expected = np.clip(_isotonic_min_max(y[1:-1], np.ones(m - 2)), iv.lo, iv.hi)
        assert np.allclose(v[1:-1], expected, rtol=0.0, atol=1e-12)
        y2 = y.copy()
        y2[[0, -1]] = rng.normal(0.0, 100.0, 2)
        assert np.array_equal(project_monotone(y2, iv, "fixed_endpoints").values, v)


def _weighted_pava_trial(y, interval, support_mode, weights):
    """The line-search trial as it was computed before the PAVA-free rule:
    the weighted isotonic projection of the raw step, clipped to the interval
    (only the interior pooled, ends pinned, in ``fixed_endpoints`` mode)."""
    if support_mode != "fixed_endpoints":
        return np.clip(isotonic_regression(y, weights=weights).x, interval.lo, interval.hi)
    v = np.empty_like(y)
    v[0], v[-1] = interval.lo, interval.hi
    v[1:-1] = np.clip(
        isotonic_regression(y[1:-1], weights=weights[1:-1]).x, interval.lo, interval.hi
    )
    return v


def test_trial_point_matches_weighted_pava_trial():
    """Clip-and-reject gives the line search the same points as the weighted
    projection it replaces: a trial is rejected exactly when the projected
    trial has infinite objective (a pooled tie or a double clip is a zero
    gap), and every other trial is bit-equal to the projected one."""
    rng = np.random.default_rng(11)
    seen = {"accepted": 0, "clipped": 0, "rejected": 0}
    for mode in ("free", "fixed_endpoints"):
        scenario = _uniform_scenario(n=16, m=24, support_mode=mode)
        problem = _QuantileProblem(scenario)
        iv, m = scenario.interval, scenario.m
        for _ in range(400):
            G = np.sort(rng.uniform(iv.lo, iv.hi, m))
            G += np.linspace(0.0, 1e-9, m)  # strictly increasing
            if mode == "fixed_endpoints":
                G[0], G[-1] = iv.lo, iv.hi
            G = np.clip(G, iv.lo, iv.hi)
            assert np.all(np.diff(G) > 0.0)
            d = rng.normal(0.0, 1.0, m) * 10.0 ** rng.uniform(-4.0, 1.0, m)
            diag = 10.0 ** rng.uniform(-6.0, 6.0, m)
            step = 0.5 ** int(rng.integers(0, 30))
            reference = _weighted_pava_trial(G - step * d, iv, mode, diag)
            trial = _trial_point(G - step * d, iv, mode)
            rejected = bool(np.any(np.diff(trial) <= 0.0))
            assert rejected == (problem.value(reference) == np.inf)
            if rejected:
                seen["rejected"] += 1
                continue
            assert np.array_equal(trial, reference)
            raw = G - step * d
            seen["clipped" if np.any((raw < iv.lo) | (raw > iv.hi)) else "accepted"] += 1
    assert min(seen.values()) >= 20, seen


def test_solves_never_call_pava(monkeypatch):
    """Only the box can bind, so no solve runs the isotonic projection: with
    ``isotonic_regression`` made to raise, a free and a fixed-endpoint
    solve, a proximal solve started from its own anchor, a JKO step and the
    social-cost solve give what they give without the patch, and the start
    array passed in is left as it was."""
    import cnot.solver
    from cnot import two_bumps_density
    from cnot.dynamics import jko_step
    from cnot.welfare import minimize_social_cost

    free = _congested_scenario(n=32, m=96)
    pinned = replace(free, support_mode="fixed_endpoints")
    iv = free.interval
    # strictly inside the interval, so the pinned box map moves its ends
    anchor = iv.lo + 0.02 * iv.length + 0.96 * density_to_quantile(free.mu, free.m).values
    start = anchor.copy()
    params = SolverParams(grad_tol=1e-9)
    solves = {
        "free": lambda: minimize_quantile(free, params).J_value,
        "fixed_endpoints": lambda: minimize_quantile(pinned, params).J_value,
        "prox": lambda: minimize_quantile(pinned, params, G0=anchor, prox=(anchor, 0.1)).J_value,
        "jko_step": lambda: jko_step(free, two_bumps_density(free.grid), 0.1, params).values,
        "social": lambda: minimize_social_cost(free, params).J_value,
    }
    before = {name: solve() for name, solve in solves.items()}

    def no_pava(*args, **kwargs):
        raise AssertionError("isotonic_regression called inside a solve")

    monkeypatch.setattr(cnot.solver, "isotonic_regression", no_pava)
    for name, solve in solves.items():
        assert np.array_equal(solve(), before[name]), name
    assert np.array_equal(anchor, start)
    with pytest.raises(AssertionError, match="isotonic_regression"):
        project_monotone([1.0, 0.0], iv)


def test_minimize_uniform_source_is_fixed_point():
    """With a uniform source and pure entropy the uniform density is optimal."""
    result = minimize_quantile(_uniform_scenario(n=128, m=513))
    assert result.converged
    assert result.residual_eq < 1e-8
    assert np.max(np.abs(result.nu.values - 1.0)) < 1e-6
    assert result.J_value == pytest.approx(-1.0, abs=1e-10)
    assert result.iterations <= 3


def test_minimize_two_starts_agree():
    """Different initial quantiles reach the same minimizer."""
    scenario = _congested_scenario()
    params = SolverParams(grad_tol=1e-10)
    a = minimize_quantile(scenario, params)
    G0 = density_to_quantile(uniform_density(scenario.grid), scenario.m)
    b = minimize_quantile(scenario, params, G0=G0)
    assert a.converged and b.converged
    assert a.J_value == pytest.approx(b.J_value, abs=1e-9)
    assert np.max(np.abs(a.nu.values - b.nu.values)) < 1e-4


def test_minimize_certificate_fields():
    """The result carries a coherent certificate: residuals, M, and metadata."""
    scenario = _congested_scenario(n=128, m=1024)
    result = minimize_quantile(scenario, SolverParams(grad_tol=1e-9))
    assert result.converged
    assert result.residual_eq < 1e-3
    assert result.residual_sup < 1e-3
    assert np.isfinite(result.M)
    assert result.metadata["projected_gradient"] <= 1e-9
    assert result.scenario.model.congestion.kind == "entropy"
    assert result.metadata["stalled"] is False
    # mass is conserved through the quantile -> density conversion
    assert result.nu.masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_metadata_holds_only_what_the_solve_decided():
    """``metadata`` carries the stop-test norm and the stall flag and
    nothing that copies the scenario or the caller's parameters, in free,
    pinned and proximal solves alike."""
    scenario = _congested_scenario(n=32, m=128)
    pinned = replace(scenario, support_mode="fixed_endpoints")
    anchor = np.array(density_to_quantile(scenario.mu, scenario.m).values)
    for result in (minimize_quantile(scenario), minimize_quantile(pinned),
                   minimize_quantile(scenario, prox=(anchor, 0.1))):
        assert set(result.metadata) == {"projected_gradient", "stalled"}


def test_certificate_is_computed_on_first_read(monkeypatch):
    """The solve computes no certificate; the first read of M, residual_sup
    or residual_eq computes exactly one, shared by all three and equal to a
    direct ``equilibrium_residual``; a JKO flow, which reads none of them,
    computes none; and a certificate error surfaces on the first read."""
    import cnot.verify

    original = cnot.verify.equilibrium_residual
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cnot.verify, "equilibrium_residual", counting)
    scenario = _congested_scenario()
    result = minimize_quantile(scenario)
    assert len(calls) == 0
    fields = (result.M, result.residual_sup, result.residual_eq)
    assert len(calls) == 1
    assert (result.M, result.residual_sup, result.residual_eq) == fields
    assert len(calls) == 1
    direct = original(scenario, result.nu)
    assert fields == (direct.M, direct.residual_sup, direct.residual_eq)
    jko_flow(scenario, uniform_density(scenario.grid), JkoParams(tau=0.1, steps=3))
    assert len(calls) == 1

    def failing(*args, **kwargs):
        raise ValueError("certificate failed")

    monkeypatch.setattr(cnot.verify, "equilibrium_residual", failing)
    result = minimize_quantile(scenario)
    with pytest.raises(ValueError, match="certificate failed"):
        result.residual_eq


def test_minimize_g0_validation():
    """An initial quantile of the wrong resolution is rejected."""
    scenario = _uniform_scenario(m=65)
    with pytest.raises(ValueError, match="resolution m"):
        minimize_quantile(scenario, G0=np.linspace(0.0, 1.0, 64))
    with pytest.raises(ValueError, match="non-positive gaps"):
        minimize_quantile(scenario, G0=np.full(65, 0.5))


def test_minimize_max_iters_reports_nonconvergence():
    """Hitting the iteration cap reports converged=False instead of raising."""
    scenario = _congested_scenario()
    result = minimize_quantile(scenario, SolverParams(max_iters=1, grad_tol=1e-14))
    assert not result.converged
    assert result.iterations == 1


def test_minimize_fixed_endpoints_pins_support():
    """fixed_endpoints keeps the quantile endpoints at the interval ends."""
    scenario = _uniform_scenario(n=64, m=129, support_mode="fixed_endpoints")
    result = minimize_quantile(scenario)
    assert result.converged
    assert result.G.values[0] == scenario.interval.lo
    assert result.G.values[-1] == scenario.interval.hi


def test_newton_direction_falls_back_when_banded_solve_fails():
    """A tridiagonal model that is not positive definite makes the banded
    Cholesky raise; the direction is then the diagonally scaled gradient."""
    scenario = _uniform_scenario(n=8, m=3)
    G = np.array([0.25, 0.5, 0.75])
    grad = np.array([1.0, -1.0, 0.5])
    diag = np.array([1.0, 2.0, 4.0])
    sub = np.array([-3.0, -3.0])
    d = _newton_direction(G, grad, diag, sub, scenario)
    assert np.array_equal(d, grad / diag)


def test_newton_direction_keeps_pinned_endpoints_still():
    """In fixed_endpoints mode the ends get a zero component, on the banded
    path and on the diagonal fallback alike; in free mode a box-active end
    keeps its diagonally scaled gradient."""
    G = np.array([0.0, 0.25, 0.5, 1.0])
    grad = np.array([0.5, 1.0, -1.0, -0.25])
    diag = np.array([1.0, 2.0, 4.0, 1e-5])
    pinned = _uniform_scenario(n=8, m=4, support_mode="fixed_endpoints")
    for sub in (np.array([-0.1, -0.1, -0.1]), np.array([-3.0, -3.0, -3.0])):
        d = _newton_direction(G, grad, diag, sub, pinned)
        assert d[0] == 0.0 and d[-1] == 0.0
        assert np.dot(d, grad) > 0.0
    d = _newton_direction(G, grad, diag, sub, _uniform_scenario(n=8, m=4))
    assert d[-1] == grad[-1] / diag[-1]


def _banded_newton_direction(G, grad, diag, sub, scenario):
    """``_newton_direction`` computed through ``scipy.linalg.solveh_banded``
    with its default finiteness checks, on a freshly built ``(2, m)`` lower
    band and a copied subdiagonal."""
    iv = scenario.interval
    active = ((G <= iv.lo + 1e-12) & (grad > 0.0)) | ((G >= iv.hi - 1e-12) & (grad < 0.0))
    pinned = scenario.support_mode == "fixed_endpoints"
    if pinned:
        active[0] = active[-1] = True
    sub_masked = sub.copy()
    sub_masked[active[:-1] | active[1:]] = 0.0
    ab = np.zeros((2, G.size))
    ab[0] = diag
    ab[1, :-1] = sub_masked
    fallback = grad / diag
    if pinned:
        fallback[[0, -1]] = 0.0
    try:
        d = solveh_banded(ab, grad, lower=True)
    except np.linalg.LinAlgError:
        return fallback
    if active.any():
        d[active] = fallback[active]
    if not np.all(np.isfinite(d)) or float(np.dot(d, grad)) <= 0.0:
        return fallback
    return d


def test_newton_direction_matches_banded_solve():
    """The unchecked, in-place band solve gives bit for bit the direction of
    the checked ``solveh_banded`` reference on random positive-definite
    tridiagonals: free, pinned, and with a box-active end."""
    rng = np.random.default_rng(5)
    m = 17
    free = _uniform_scenario(n=8, m=m)
    pinned = _uniform_scenario(n=8, m=m, support_mode="fixed_endpoints")
    newton = 0
    for case in ("free", "pinned", "box_active") * 30:
        G = np.sort(rng.uniform(0.05, 0.95, m))
        grad = rng.normal(0.0, 1.0, m) * 10.0 ** rng.uniform(-3.0, 3.0, m)
        diag = 10.0 ** rng.uniform(-4.0, 4.0, m)
        # |sub_i| < 0.5 sqrt(diag_i diag_{i+1}) keeps the matrix diagonally
        # dominant after symmetric scaling, hence positive definite
        sub = -rng.uniform(0.0, 0.45, m - 1) * np.sqrt(diag[:-1] * diag[1:])
        scenario = pinned if case == "pinned" else free
        if case == "pinned":
            G[0], G[-1] = 0.0, 1.0
        elif case == "box_active":
            G[-1], grad[-1] = 1.0, -abs(grad[-1])
        d = _newton_direction(G, grad, diag, sub, scenario)
        assert np.array_equal(d, _banded_newton_direction(G, grad, diag, sub, scenario))
        fallback = grad / diag
        if case == "pinned":
            fallback[[0, -1]] = 0.0
        newton += not np.array_equal(d, fallback)
    assert newton >= 80


def test_fixed_endpoint_power_product_solve_converges():
    """A pinned-end solve with power congestion and a negative product kernel
    (one random-corpus case) converges in a few dozen Newton steps.  When the
    pinned ends took part in the projection, the end's trial value
    ``G - grad/diag`` pooled with its neighbour, cancelled the Newton step
    there, and the solve crept along for thousands of iterations."""
    iv = Interval(-2.4513, -1.6748)
    grid = Grid(iv, 32)
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.power(1.958, 0.03024),
        kernel=InteractionKernel.product(-0.7803),
    )
    scenario = Scenario(
        mu=gaussian_truncated_density(grid, -2.0381, 0.38686),
        cost=CostSpec.power(2.9421),
        model=model,
        m=64,
        support_mode="fixed_endpoints",
    )
    result = minimize_quantile(scenario, SolverParams(max_iters=200, grad_tol=1e-8))
    assert result.converged
    assert result.iterations <= 50
    assert result.G.values[0] == iv.lo and result.G.values[-1] == iv.hi


def test_minimize_power_congestion():
    """Power congestion (no entropy barrier) converges and certifies."""
    grid = Grid(Interval(0.0, 1.0), 64)
    model = EnergyModel(grid=grid, congestion=CongestionSpec.power(2.0, 1.0))
    scenario = Scenario(
        mu=gaussian_truncated_density(grid, 0.5, 0.2),
        cost=CostSpec.quadratic(),
        model=model,
        m=512,
    )
    result = minimize_quantile(scenario, SolverParams(grad_tol=1e-9))
    assert result.converged
    assert result.residual_eq < 1e-3
    assert np.all(result.nu.values >= 0.0)


def test_proximal_anchor_pins_solution():
    """A tiny proximal step keeps the minimizer near the anchor."""
    scenario = _uniform_scenario(m=129)
    anchor = np.linspace(0.1, 0.9, scenario.m)
    near = minimize_quantile(scenario, prox=(anchor, 1e-6))
    assert np.max(np.abs(near.G.values - anchor)) < 1e-3
    far = minimize_quantile(scenario, prox=(anchor, 1e6))
    assert np.max(np.abs(far.G.values - anchor)) > 1e-2
    with pytest.raises(ValueError, match="anchor"):
        minimize_quantile(scenario, prox=(anchor[:-1], 1.0))
    for tau in (0.0, float("nan")):
        with pytest.raises(ValueError, match="anchor"):
            minimize_quantile(scenario, prox=(anchor, tau))


def test_best_response_validation():
    """Damping range, step count, and grid compatibility are enforced."""
    scenario = _uniform_scenario()
    nu0 = uniform_density(scenario.grid)
    with pytest.raises(ValueError, match="damping"):
        best_response_iterate(scenario, nu0, damping=0.0)
    with pytest.raises(ValueError, match="steps"):
        best_response_iterate(scenario, nu0, steps=0)
    other = uniform_density(Grid(Interval(0.0, 1.0), 48))
    with pytest.raises(ValueError, match="grid"):
        best_response_iterate(scenario, other)


def test_best_response_uniform_fixed_point():
    """The uniform density is a fixed point of the best-response map."""
    scenario = _uniform_scenario(n=64)
    nu0 = uniform_density(scenario.grid)
    nu = best_response_iterate(scenario, nu0, damping=1.0, steps=1)
    assert np.max(np.abs(nu.values - 1.0)) < 1e-8


def test_best_response_matches_variational_solution():
    """Best-response iteration and direct minimization find the same measure."""
    scenario = _congested_scenario(n=64, m=1024)
    direct = minimize_quantile(scenario, SolverParams(grad_tol=1e-10))
    iterated = best_response_iterate(
        scenario, uniform_density(scenario.grid), damping=0.5, steps=60
    )
    assert np.max(np.abs(iterated.values - direct.nu.values)) < 1e-3
