"""Tests for the quantile objective and the projected-Newton equilibrium solver."""

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
    uniform_density,
)
from cnot.solver import (
    _CURV_MAX,
    _CURV_MIN,
    _binned,
    _newton_direction,
    _projected_newton,
    _QuantileProblem,
    _trial_point,
)
from cnot.solver import solveh_banded as dptsv_solve


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


def _proximal(scenario, anchor, tau, params=SolverParams()):
    """The solve of ``scenario`` with the proximal anchor ``(anchor, tau)``,
    started from the anchor, as the JKO steps run it."""
    problem = _QuantileProblem(scenario).anchored(anchor, tau)
    return _binned(scenario, *_projected_newton(problem, params, G0=anchor))


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
    """Mismatched grids, tiny or non-integer m, flat source, and bad support
    modes are rejected; a numpy integer m passes."""
    grid = Grid(Interval(0.0, 1.0), 16)
    other = Grid(Interval(0.0, 1.0), 32)
    model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy())
    mu = uniform_density(grid)
    with pytest.raises(ValueError, match="share a grid"):
        Scenario(mu=uniform_density(other), cost=CostSpec.quadratic(), model=model)
    with pytest.raises(ValueError, match="m must be"):
        Scenario(mu=mu, cost=CostSpec.quadratic(), model=model, m=1)
    with pytest.raises(ValueError, match="m must be an integer"):
        Scenario(mu=mu, cost=CostSpec.quadratic(), model=model, m=32.5)
    assert Scenario(mu=mu, cost=CostSpec.quadratic(), model=model, m=np.int64(32)).m == 32
    with pytest.raises(ValueError, match="support_mode"):
        Scenario(mu=mu, cost=CostSpec.quadratic(), model=model, support_mode="clamped")
    thin = np.ones(16)
    thin[3] = 0.0
    from cnot import DiscreteDensity

    values = thin / (thin.sum() * grid.delta)
    with pytest.raises(ValueError, match="strictly positive"):
        Scenario(mu=DiscreteDensity(grid, values), cost=CostSpec.quadratic(), model=model)


def test_solver_params_validation():
    """The iteration cap and the tolerance must be positive (NaN is not),
    and the tolerance finite: an infinite one would pass the stop test at
    the start point and report an unsolved problem as converged.  The cap
    is an integer: a float one would fail later, inside ``range``."""
    with pytest.raises(ValueError):
        SolverParams(max_iters=0)
    with pytest.raises(ValueError, match="integer max_iters"):
        SolverParams(max_iters=1.5)
    assert SolverParams(max_iters=np.int64(3)).max_iters == 3
    with pytest.raises(ValueError):
        SolverParams(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverParams(grad_tol=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        SolverParams(grad_tol=float("inf"))


def test_objective_identity_quantile_exact():
    """At the source quantile the objective is exactly the congestion integral."""
    for convention, expected in (("shifted", -1.0), ("plain", 0.0)):
        scenario = _uniform_scenario(convention=convention)
        H = density_to_quantile(scenario.mu, scenario.m).values
        assert _QuantileProblem(scenario).value(H) == pytest.approx(expected, abs=1e-12)


def test_objective_contracted_quantile_closed_form():
    """J at G = p/2 matches the hand-derived transport + entropy value."""
    scenario = _uniform_scenario(m=257)
    m = scenario.m
    p = np.linspace(0.0, 1.0, m)
    # transport: (1/m) sum (p/2)^2 / 2 = (2m-1) / (48 (m-1));
    # congestion: density 2 on [0, 1/2], so F(2)/2 = log 2 - 1 for s log s - s
    expected = (2 * m - 1) / (48.0 * (m - 1)) + np.log(2.0) - 1.0
    assert _QuantileProblem(scenario).value(p / 2.0) == pytest.approx(expected, rel=1e-12)


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
    problem = _QuantileProblem(scenario)
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = np.sort(rng.uniform(0.05, 0.95, scenario.m))
        raw += np.linspace(0.0, 1e-3, scenario.m)  # keep gaps bounded away from 0
        grad = problem.gradient(problem.price(raw)[0])
        fd = np.zeros_like(grad)
        h = 1e-7
        for k in range(scenario.m):
            e = np.zeros(scenario.m)
            e[k] = h
            fd[k] = (problem.value(raw + e) - problem.value(raw - e)) / (2.0 * h)
        rel = np.max(np.abs(fd - grad)) / (1.0 + np.max(np.abs(grad)))
        assert rel < 1e-5


def test_objective_rejects_bad_quantiles():
    """Decreasing values raise; zero gaps give an infinite objective and no
    point to take a gradient at."""
    scenario = _uniform_scenario()
    problem = _QuantileProblem(scenario)
    m = scenario.m
    down = np.linspace(1.0, 0.0, m)
    with pytest.raises(ValueError, match="non-decreasing"):
        problem.value(down)
    flat = np.full(m, 0.5)
    assert problem.value(flat) == np.inf
    assert problem.price(flat)[0] is None


def test_an_overflowing_gap_is_priced_inf_without_a_warning():
    """A gap so small that ``F(u)`` overflows prices the objective +inf, and
    a solve started there is refused as an infinite start, both inside the
    solve's error state: no ``RuntimeWarning`` escapes (pytest makes one an
    error)."""
    grid = Grid(Interval(0.0, 1.0), 16)
    model = EnergyModel(grid=grid, congestion=CongestionSpec.power(8.0))
    scenario = Scenario(mu=uniform_density(grid), cost=CostSpec.quadratic(), model=model, m=32)
    G = np.linspace(0.0, 1.0, 32)
    G[1] = 1e-300
    assert _QuantileProblem(scenario).value(G) == np.inf
    with pytest.raises(ValueError, match="infinite objective"):
        minimize_quantile(scenario, G0=G)


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


def test_weighted_fixed_endpoint_projection_matches_brute_force():
    """The reference trial of ``test_trial_point_matches_weighted_pava_trial``
    is the weighted isotonic fit (the min-max formula) clipped to the
    interval; in ``fixed_endpoints`` mode only the interior is fitted, the
    ends are lo and hi, and the end trials do not change the interior."""
    iv = Interval(-1.0, 2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(3, 12))
        y = rng.normal(0.5, 2.0, m)
        w = 10.0 ** rng.uniform(-3.0, 3.0, m)
        v = _weighted_pava_trial(y, iv, "free", w)
        expected = np.clip(_isotonic_min_max(y, w), iv.lo, iv.hi)
        assert np.allclose(v, expected, rtol=0.0, atol=1e-12)
        v = _weighted_pava_trial(y, iv, "fixed_endpoints", w)
        assert v[0] == iv.lo and v[-1] == iv.hi
        expected = np.clip(_isotonic_min_max(y[1:-1], w[1:-1]), iv.lo, iv.hi)
        assert np.allclose(v[1:-1], expected, rtol=0.0, atol=1e-12)
        y2 = y.copy()
        y2[[0, -1]] = rng.normal(0.0, 100.0, 2)
        assert np.array_equal(_weighted_pava_trial(y2, iv, "fixed_endpoints", w), v)


def _curvature_differencing_v_prime(problem, p, alpha):
    """Reference curvature model for power congestion ``alpha`` that takes
    the congestion band as ``(m-1) alpha (alpha+1) u F(u)``, the cost's
    ``C''`` as 1 for the quadratic cost and as the central difference of
    ``C_prime`` for any other, and the potential's ``v''`` as the central
    difference of ``v_prime``, steps ``1e-6 (1 + |t|)``, in line."""
    m, G, u = problem.m, p.G, p.u
    psi2 = u * p.F_u * (alpha * (alpha + 1.0)) * (m - 1)
    psi2 = np.where(np.isfinite(psi2), np.minimum(_CURV_MAX, np.maximum(0.0, psi2)), _CURV_MAX)
    if problem.cost.kind == "quadratic":
        diag = np.ones(m) / m
    else:
        z = problem.H - p.G
        h = 1e-6 * (1.0 + np.abs(z))
        c2 = (
            np.asarray(problem.cost.C_prime(z + h), dtype=float)
            - np.asarray(problem.cost.C_prime(z - h), dtype=float)
        ) / (2.0 * h)
        diag = np.maximum(c2, 0.0) / m
    h = 1e-6 * (1.0 + np.abs(G))
    v2 = (
        np.asarray(problem.model.potential.v_prime(G + h), dtype=float)
        - np.asarray(problem.model.potential.v_prime(G - h), dtype=float)
    ) / (2.0 * h)
    diag += np.maximum(v2, 0.0) / m
    kernel = problem.model.kernel
    diag += kernel.curvature(G, 1.0 / m, kernel.moments(G, 1.0 / m))
    diag[:-1] += psi2
    diag[1:] += psi2
    np.maximum(_CURV_MIN / m, diag, out=diag)
    return np.minimum(_CURV_MAX, diag, out=diag), -psi2


def test_curvature_with_a_custom_potential_differences_v_prime():
    """A potential built without ``v_second`` enters the curvature model
    through the central difference of ``v_prime``, bit for bit.  The
    quadratic cost enters it through its ``C'' = 1``, with no differencing,
    and a ``convex_difference`` cost through the central difference of its
    ``C_prime``; the power congestion band is its closed form."""
    grid = Grid(Interval(-1.0, 2.0), 32)
    potential = PotentialSpec(
        v=lambda x: np.cosh(np.asarray(x)) + 0.3 * np.asarray(x) ** 3,
        v_prime=lambda x: np.sinh(np.asarray(x)) + 0.9 * np.asarray(x) ** 2,
    )
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.power(2.0),
        kernel=InteractionKernel.cubic_distance(0.7),
        potential=potential,
    )
    quartic = CostSpec.convex_difference(
        C=lambda t: np.asarray(t, dtype=float) ** 4 / 4.0 + np.square(t),
        C_prime=lambda t: np.asarray(t, dtype=float) ** 3 + 2.0 * np.asarray(t, dtype=float),
    )
    rng = np.random.default_rng(12)
    for cost in (CostSpec.quadratic(), quartic):
        scenario = Scenario(
            mu=gaussian_truncated_density(grid, 0.4, 0.6), cost=cost, model=model, m=48,
        )
        problem = _QuantileProblem(scenario)
        for _ in range(5):
            G = np.sort(rng.uniform(-1.0, 2.0, scenario.m)) + np.linspace(0.0, 1e-3, scenario.m)
            p = problem.price(G)[0]
            diag, sub = problem.curvature(p)
            ref_diag, ref_sub = _curvature_differencing_v_prime(problem, p, 2.0)
            assert np.array_equal(diag, ref_diag)
            assert np.array_equal(sub, ref_sub)


def test_named_families_take_the_newton_terms_in_closed_form(monkeypatch):
    """For entropy (both conventions), power (integer and fractional alpha)
    and their social specs, the gradient and the curvature model read the
    point's ``u`` and ``F(u)`` alone: no ``f``, ``F``, ``F'`` or ``f'`` is
    evaluated, so no ``pow`` and no ``log``; only pricing the point calls
    ``F``.  With a quadratic or power cost, neither the problem nor a whole
    solve calls ``_fd_derivative``."""
    import cnot.energy
    import cnot.transport

    def no_differencing(fn):
        raise AssertionError("a named family took a central difference")

    monkeypatch.setattr(cnot.transport, "_fd_derivative", no_differencing)
    calls = []

    def counted(fn):
        def wrapper(s):
            calls.append(fn)
            return fn(s)
        return wrapper

    monkeypatch.setattr(cnot.energy, "_log1", counted(cnot.energy._log1))  # plain F'
    specs = [CongestionSpec.entropy("shifted"), CongestionSpec.entropy("plain"),
             CongestionSpec.entropy().social(), CongestionSpec.power(8.0),
             CongestionSpec.power(0.37, 3.1), CongestionSpec.power(2.0, 0.7).social()]
    grid = Grid(Interval(0.0, 1.0), 16)
    G = np.sort(np.random.default_rng(4).uniform(0.0, 1.0, 40))
    for spec, cost in itertools.product(specs, (CostSpec.quadratic(), CostSpec.power(1.5))):
        congestion = replace(spec, f=counted(spec.f), F=counted(spec.F),
                             f_prime=counted(spec.f_prime))
        scenario = Scenario(mu=gaussian_truncated_density(grid, 0.5, 0.2), cost=cost,
                            model=EnergyModel(grid=grid, congestion=congestion), m=40)
        problem = _QuantileProblem(scenario)
        calls.clear()  # the spec's construction probes its callables
        point = problem.price(G)[0]
        assert calls == [spec.F]
        calls.clear()
        problem.gradient(point)
        problem.curvature(point)
        assert calls == []
        assert minimize_quantile(replace(scenario, model=replace(scenario.model,
                                                                 congestion=spec))).converged


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


def test_trial_point_has_the_bytes_of_np_clip():
    """The box map clips with ``np.maximum``/``np.minimum``, not ``np.clip``;
    on every input, signed zeros at a zero bound and NaN included, it writes
    the bytes ``np.clip`` writes."""
    specials = [-0.0, 0.0, -1.0, 1.0, 0.25, -np.inf, np.inf, np.nan, 5e-324, -5e-324]
    rng = np.random.default_rng(5)
    for lo, hi in [(0.0, 1.0), (-1.0, 0.0), (-0.0, 1.0), (-1.0, -0.0), (-2.0, 3.0)]:
        iv = Interval(lo, hi)
        for m in (1, 7, 64):
            y = rng.choice(specials, size=m)
            expected = np.clip(y, iv.lo, iv.hi)
            assert _trial_point(y.copy(), iv, "free").tobytes() == expected.tobytes()


def test_curvature_clamps_psi2_with_the_bytes_of_np_where():
    """The congestion band ``psi2`` of the curvature model is clamped in
    place; on NaN, +-inf, -0.0, negative values and values above 1e30 it
    has the bytes of ``np.where(np.isfinite(psi2), clip(psi2, 0, 1e30),
    1e30)``, and the diagonal it feeds stays finite and positive.  The
    values come through the ``f_prime`` of a custom congestion, whose band
    is the generic ``(m-1) u^3 f'(u)``; at m = 64 every special value
    occurs."""
    specials = np.array(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, 2.5, 1e29, 1e31, 1e300, 5e-324, -5e-324]
    )
    rng = np.random.default_rng(8)
    for m in (2, 3, 17, 64):
        base = _uniform_scenario(n=8, m=m)
        values = rng.permutation(np.resize(specials, m - 1))
        entropy = base.model.congestion
        congestion = CongestionSpec.custom(f=entropy.f, F=entropy.F, f_inv=entropy.f_inv,
                                           f_prime=lambda s: values)
        problem = _QuantileProblem(replace(base, model=replace(base.model, congestion=congestion)))
        G = np.sort(rng.uniform(0.0, 1.0, m))
        p = problem.price(G)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            psi2 = p.u * p.u * p.u * values * (m - 1)
            expected = np.where(
                np.isfinite(psi2), np.minimum(_CURV_MAX, np.maximum(0.0, psi2)), _CURV_MAX
            )
            diag, sub = problem.curvature(p)
        assert (-sub).tobytes() == expected.tobytes()
        assert sub.tobytes() == (-expected).tobytes()
        assert np.isfinite(diag).all() and (diag > 0.0).all()


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
        "prox": lambda: _proximal(pinned, anchor, 0.1, params).J_value,
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


def test_a_quadratic_kernel_solve_shifted_by_1000_is_the_shifted_solve():
    """The quadratic kernel's energy and gradient expand about the samples'
    mean, so a scenario moved by +1000 (interval and source) converges, and
    its quantile is the unmoved one + 1000 to 1e-8 of the interval length.
    Uncentred, ``m sum G^2 - (sum G)^2`` cancelled there: this scenario
    stalled, as did 23 of the 94 corpus scenarios without a product
    kernel."""
    results = []
    for shift in (0.0, 1000.0):
        lo, hi = -0.43489950038130587 + shift, 1.6280463408720376 + shift
        grid = Grid(Interval(lo, hi), 64)
        model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy(),
                            kernel=InteractionKernel.quadratic_distance(1.6976082947371727))
        scenario = Scenario(mu=gaussian_truncated_density(grid, 0.44876512093406207 + shift,
                                                          0.31663841228608774),
                            cost=CostSpec.power(3.5255470903369144), model=model, m=64)
        results.append(minimize_quantile(scenario, SolverParams(grad_tol=1e-8)))
    base, moved = results
    assert base.converged and moved.metadata["stop_reason"] == "grad_tol"
    length = hi - lo
    assert np.max(np.abs(moved.G.values - (base.G.values + 1000.0))) <= 1e-8 * length


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


def test_a_solve_below_the_round_off_floor_stops_as_converged():
    """With a ``grad_tol`` no arithmetic reaches, a solve ends at J's
    round-off floor: the full Newton step whose decrease is lost in J's
    rounding is rejected, and the solve stops as converged with stop reason
    ``round_off_floor``, not stalled, at the J of a solve that met its
    ``grad_tol``.  Without the floor stop it stalled.  The floor's ``c`` is
    ``2 (k + 12)`` with ``k = 25 + ceil(log2(m/128))``."""
    from cnot.solver import _round_off_floor

    eps = np.finfo(float).eps
    assert _round_off_floor(64) == _round_off_floor(128) == 74 * eps
    assert _round_off_floor(32768) == 90 * eps
    for mode in ("free", "fixed_endpoints"):
        scenario = replace(_congested_scenario(n=32, m=128), support_mode=mode)
        reference = minimize_quantile(scenario, SolverParams(grad_tol=1e-9))
        floor = minimize_quantile(scenario, SolverParams(grad_tol=1e-300))
        assert reference.metadata["stop_reason"] == "grad_tol"
        assert floor.converged and floor.metadata["stop_reason"] == "round_off_floor"
        assert floor.metadata["stalled"] is False
        assert floor.J_value == pytest.approx(reference.J_value, rel=1e-13)
        assert floor.iterations < 100


def test_metadata_holds_only_what_the_solve_decided():
    """``metadata`` carries the stop-test norm, the stop reason, the stall
    flag derived from it and the coarse levels of the start (none at this
    m) and nothing that copies the scenario or the caller's parameters, in
    free, pinned and proximal solves alike."""
    scenario = _congested_scenario(n=32, m=128)
    pinned = replace(scenario, support_mode="fixed_endpoints")
    anchor = np.array(density_to_quantile(scenario.mu, scenario.m).values)
    for result in (minimize_quantile(scenario), minimize_quantile(pinned),
                   _proximal(scenario, anchor, 0.1)):
        assert set(result.metadata) == {"projected_gradient", "stop_reason", "stalled", "levels"}
        assert result.metadata["stop_reason"] == "grad_tol"
        assert result.converged and result.metadata["stalled"] is False
        assert result.metadata["levels"] == []


def _figure1_bundle(m, **edits):
    """The shipped figure-1 physics at ``m`` quantile points and ``m/4`` cells."""
    from cnot.cli import _bundle_from_raw

    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    raw = json.loads((scenarios / "figure1.json").read_text())
    return _bundle_from_raw(dict(raw, grid_n=m // 4, quantile_m=m, **edits), scenarios)


@pytest.mark.parametrize("m, support_mode", [(8192, "free"), (32768, "free"),
                                             (8192, "fixed_endpoints")])
def test_coarse_start_reaches_the_equilibrium_of_the_source_start(m, support_mode):
    """A cold figure-1 solve at m >= 8192 starts from the equilibrium at
    ceil(m/2) and converges to the one the source-quantile start reaches:
    the same J to 1e-10 relative and the same M to 1e-8, in fewer fine
    iterations, with free or pinned endpoints."""
    bundle = _figure1_bundle(m, support_mode=support_mode)
    scenario, params = bundle.scenario, bundle.params
    cascaded = minimize_quantile(scenario, params)
    source = minimize_quantile(scenario, params, G0=_QuantileProblem(scenario).H)
    assert cascaded.converged and source.converged
    assert abs(cascaded.J_value - source.J_value) <= 1e-10 * abs(source.J_value)
    assert abs(cascaded.M - source.M) <= 1e-8
    assert cascaded.iterations < source.iterations
    assert source.metadata["levels"] == []


def test_coarse_levels_halve_down_to_the_first_level_below_the_threshold(monkeypatch):
    """``levels`` lists the coarse solves, coarsest first, from the first m
    below 8192 up to ceil(m/2).  It is empty below m = 8192, with ``G0`` and
    outside the uniqueness regime; below m = 8192 the regime is never
    probed."""
    import cnot.solver

    bundle = _figure1_bundle(32768)
    levels = minimize_quantile(bundle.scenario, bundle.params).metadata["levels"]
    assert [level["m"] for level in levels] == [4096, 8192, 16384]
    assert all(level["converged"] and level["iterations"] >= 1 for level in levels)

    few = SolverParams(max_iters=3)
    scenario = _figure1_bundle(8192).scenario
    H = _QuantileProblem(scenario).H
    outside = _figure1_bundle(8192, kernel={"kind": "quadratic_distance", "kappa": -1e-4}).scenario
    assert cnot.solver._uniqueness_flags(outside)
    for result in (minimize_quantile(scenario, few, G0=H), minimize_quantile(outside, few)):
        assert result.metadata["levels"] == []
    assert len(minimize_quantile(scenario, few).metadata["levels"]) == 1

    def unprobed(scenario):
        raise AssertionError("the regime was probed below the threshold")

    monkeypatch.setattr(cnot.solver, "_uniqueness_flags", unprobed)
    small = _figure1_bundle(4096)
    assert minimize_quantile(small.scenario, small.params).metadata["levels"] == []


def test_a_failed_coarse_start_falls_back_to_the_source_start(monkeypatch):
    """A coarse level that does not converge, or a coarse start of infinite
    objective, leaves the solve at m on the source-quantile start, bit for
    bit; the failed level is recorded with ``converged`` False."""
    import cnot.solver

    scenario = _figure1_bundle(8192).scenario
    H = _QuantileProblem(scenario).H

    def same_bits(a, b):
        return (a.G.values.tobytes() == b.G.values.tobytes() and a.J_value == b.J_value
                and a.iterations == b.iterations and a.converged == b.converged)

    two = SolverParams(max_iters=2)
    unconverged = minimize_quantile(scenario, two)
    assert same_bits(unconverged, minimize_quantile(scenario, two, G0=H))
    assert unconverged.metadata["levels"] == [
        {"m": 4096, "iterations": 2, "converged": False, "stop_reason": "max_iters"}]

    params = _figure1_bundle(8192).params
    monkeypatch.setattr(cnot.solver, "_coarse_start",
                        lambda problem, params: (np.zeros(problem.m), []))
    assert same_bits(minimize_quantile(scenario, params),
                     minimize_quantile(scenario, params, G0=H))


def test_a_failed_coarse_level_stops_the_cascade(monkeypatch):
    """A cold figure-1 solve at m = 32768 whose coarsest level (m = 4096)
    does not converge solves no finer level: ``levels`` holds that one
    level, and the solve at m has the bits of the source-quantile start.
    A level whose interpolated start prices +inf (here m = 8192, made so
    by a patched objective) is not solved either: ``levels`` stops at the
    level before, and the solve at m again starts from the source quantile."""
    import cnot.solver

    bundle = _figure1_bundle(32768)
    scenario = bundle.scenario
    H = _QuantileProblem(scenario).H

    def same_bits(a, b):
        return (a.G.values.tobytes() == b.G.values.tobytes() and a.J_value == b.J_value
                and a.iterations == b.iterations)

    five = SolverParams(max_iters=5)
    cold = minimize_quantile(scenario, five)
    assert cold.metadata["levels"] == [
        {"m": 4096, "iterations": 5, "converged": False, "stop_reason": "max_iters"}]
    assert same_bits(cold, minimize_quantile(scenario, five, G0=H))

    value = _QuantileProblem.value
    monkeypatch.setattr(cnot.solver._QuantileProblem, "value",
                        lambda self, G: math.inf if self.m == 8192 else value(self, G))
    cold = minimize_quantile(scenario, bundle.params)
    assert [(level["m"], level["converged"]) for level in cold.metadata["levels"]] == [(4096, True)]
    assert cold.converged and same_bits(cold, minimize_quantile(scenario, bundle.params, G0=H))


def test_coarse_levels_are_solved_from_explicit_starts(monkeypatch):
    """A cold figure-1 solve at m = 32768 enters the Newton loop without a
    start exactly once, at m: every coarse level is given its start, and
    the levels are still 4096, 8192 and 16384, all converged."""
    import cnot.solver

    calls = []

    def spy(problem, params, G0=None):
        calls.append((problem.m, G0 is None))
        return _projected_newton(problem, params, G0)

    monkeypatch.setattr(cnot.solver, "_projected_newton", spy)
    bundle = _figure1_bundle(32768)
    levels = minimize_quantile(bundle.scenario, bundle.params).metadata["levels"]
    assert calls == [(32768, True), (4096, False), (8192, False), (16384, False)]
    assert [level["m"] for level in levels] == [4096, 8192, 16384]
    assert all(level["converged"] for level in levels)


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
    """An initial quantile of the wrong resolution, or of fewer than two
    values, is rejected."""
    scenario = _uniform_scenario(m=65)
    with pytest.raises(ValueError, match="m >= 2"):
        minimize_quantile(scenario, G0=[0.5])
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


def test_gaussian_source_reaches_the_gaussian_equilibrium_symmetrically():
    """Quadratic cost and entropy on a Gaussian source N(0, s^2): the
    equilibrium is N(0, sigma^2) with ``sigma^2 - s sigma - 1 = 0`` (the
    log-density's slope ``-y / sigma^2`` balances the transport's
    ``y - (s / sigma) y``).  With s = 0.5 on [-6, 6], the standard deviation
    of the solved density converges to sigma like 1/m (a x4 refinement cuts
    its error by 4.0-4.3), and the equilibrium of this symmetric game is symmetric to round-off.  Its
    ``residual_eq`` is not asserted: the tail is lighter than the quantile
    resolves."""
    grid = Grid(Interval(-6.0, 6.0), 256)
    mu = gaussian_truncated_density(grid, 0.0, 0.5)
    sigma = (0.5 + math.sqrt(4.25)) / 2.0
    model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy())
    errors = []
    for m in (64, 256, 1024, 4096):
        scenario = Scenario(mu=mu, cost=CostSpec.quadratic(), model=model, m=m)
        result = minimize_quantile(scenario, SolverParams(grad_tol=1e-10))
        assert result.converged, m
        G = result.G.values
        assert np.max(np.abs(G + G[::-1])) <= 1e-12, m
        w = result.nu.values * grid.delta
        mean = float(np.dot(w, grid.nodes))
        sd = math.sqrt(float(np.dot(w, np.square(grid.nodes))) - mean * mean)
        errors.append(abs(sd / sigma - 1.0))
    assert all(coarse >= 3.5 * fine for coarse, fine in zip(errors, errors[1:])), errors
    assert errors[-1] <= 2.5e-3, errors


def test_manufactured_equilibrium_refines_at_first_order():
    """A custom potential makes ``nu* = 1 + cos(pi y)/2`` the exact
    equilibrium of the uniform source on [0, 1] under the quadratic cost and
    shifted entropy: ``nu*`` is carried to the source by its CDF
    ``N(y) = y + sin(pi y)/(2 pi)``, so the Kantorovich potential has
    ``psi'(y) = y - N(y)``, and ``v = -cos(pi y)/(2 pi^2) - log nu*`` makes
    ``log nu* + v + psi`` constant.  At m = 4n every solve converges and
    each doubling of n cuts sup|nu - nu*| at the nodes by at least 1.9
    (2.00-2.03 measured), to at most 1.5e-4 at n = 1024 (1.13e-4)."""

    def v(y):
        c = np.cos(np.pi * np.asarray(y, dtype=float))
        return -c / (2.0 * np.pi**2) - np.log1p(0.5 * c)

    def v_prime(y):
        t = np.pi * np.asarray(y, dtype=float)
        return np.sin(t) / (2.0 * np.pi) + 0.5 * np.pi * np.sin(t) / (1.0 + 0.5 * np.cos(t))

    errors = []
    for n in (64, 128, 256, 512, 1024):
        grid = Grid(Interval(0.0, 1.0), n)
        model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy(),
                            potential=PotentialSpec(v=v, v_prime=v_prime))
        scenario = Scenario(mu=uniform_density(grid), cost=CostSpec.quadratic(), model=model,
                            m=4 * n)
        result = minimize_quantile(scenario, SolverParams(grad_tol=1e-10))
        assert result.converged, n
        exact = 1.0 + 0.5 * np.cos(np.pi * grid.nodes)
        errors.append(float(np.max(np.abs(result.nu.values - exact))))
    assert all(coarse >= 1.9 * fine for coarse, fine in zip(errors, errors[1:])), errors
    assert errors[-1] <= 1.5e-4, errors


def test_newton_direction_falls_back_when_banded_solve_fails():
    """A tridiagonal model that is not positive definite makes the banded
    Cholesky raise; the direction is then the diagonally scaled gradient,
    which is no Newton step: its decrement reads inf."""
    scenario = _uniform_scenario(n=8, m=3)
    G = np.array([0.25, 0.5, 0.75])
    grad = np.array([1.0, -1.0, 0.5])
    diag = np.array([1.0, 2.0, 4.0])
    sub = np.array([-3.0, -3.0])
    d, decrement = _newton_direction(G, grad, diag, sub, scenario)
    assert np.array_equal(d, grad / diag)
    assert decrement == math.inf


def test_newton_direction_keeps_pinned_endpoints_still():
    """In fixed_endpoints mode the ends get a zero component, on the banded
    path and on the diagonal fallback alike; in free mode a box-active end
    keeps its diagonally scaled gradient."""
    G = np.array([0.0, 0.25, 0.5, 1.0])
    grad = np.array([0.5, 1.0, -1.0, -0.25])
    diag = np.array([1.0, 2.0, 4.0, 1e-5])
    pinned = _uniform_scenario(n=8, m=4, support_mode="fixed_endpoints")
    for sub in (np.array([-0.1, -0.1, -0.1]), np.array([-3.0, -3.0, -3.0])):
        d, _ = _newton_direction(G, grad, diag, sub, pinned)
        assert d[0] == 0.0 and d[-1] == 0.0
        assert np.dot(d, grad) > 0.0
    d, _ = _newton_direction(G, grad, diag, sub, _uniform_scenario(n=8, m=4))
    assert d[-1] == grad[-1] / diag[-1]


def _banded_newton_direction(G, grad, diag, sub, scenario):
    """``_newton_direction`` computed through ``scipy.linalg.solveh_banded``
    with its default finiteness checks, on a freshly built ``(2, m)`` lower
    band and a copied subdiagonal: the direction and the decrement
    ``sum d_j grad_j`` over the coordinates off the box (inf for the
    fallback)."""
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
        return fallback, math.inf
    free = ~active
    decrement = float(np.dot(d[free], grad[free]))
    if active.any():
        d[active] = fallback[active]
    if not np.all(np.isfinite(d)) or float(np.dot(d, grad)) <= 0.0:
        return fallback, math.inf
    return d, decrement


def test_newton_direction_matches_banded_solve():
    """The direct LAPACK ``dptsv`` call gives bit for bit the direction and
    the free-set decrement of the checked ``scipy.linalg.solveh_banded``
    reference on random
    positive-definite tridiagonals (free, pinned, and with a box-active
    end), and on indefinite ones (free and pinned), where both take the
    diagonally scaled fallback."""
    rng = np.random.default_rng(5)
    m = 17
    free = _uniform_scenario(n=8, m=m)
    pinned = _uniform_scenario(n=8, m=m, support_mode="fixed_endpoints")
    newton = 0
    cases = ("free", "pinned", "box_active", "indefinite", "indefinite_pinned")
    for case in cases * 30:
        G = np.sort(rng.uniform(0.05, 0.95, m))
        grad = rng.normal(0.0, 1.0, m) * 10.0 ** rng.uniform(-3.0, 3.0, m)
        diag = 10.0 ** rng.uniform(-4.0, 4.0, m)
        # |sub_i| < 0.5 sqrt(diag_i diag_{i+1}) keeps the matrix diagonally
        # dominant after symmetric scaling, hence positive definite;
        # |sub_i| > sqrt(diag_i diag_{i+1}) makes every 2 x 2 minor negative
        scale = (1.5, 4.0) if case.startswith("indefinite") else (0.0, 0.45)
        sub = -rng.uniform(*scale, m - 1) * np.sqrt(diag[:-1] * diag[1:])
        scenario = pinned if case.endswith("pinned") else free
        if scenario is pinned:
            G[0], G[-1] = 0.0, 1.0
        elif case == "box_active":
            G[-1], grad[-1] = 1.0, -abs(grad[-1])
        d, decrement = _newton_direction(G, grad, diag, sub.copy(), scenario)
        ref_d, ref_decrement = _banded_newton_direction(G, grad, diag, sub, scenario)
        assert np.array_equal(d, ref_d)
        assert decrement == pytest.approx(ref_decrement, rel=1e-12)
        fallback = grad / diag
        if scenario is pinned:
            fallback[[0, -1]] = 0.0
        if case.startswith("indefinite"):
            assert d.tobytes() == fallback.tobytes()
        else:
            newton += not np.array_equal(d, fallback)
    assert newton >= 80


def test_newton_direction_allocates_no_copy_of_the_band():
    """With no frozen coordinate, one direction at m = 2^16 allocates at
    most 2.5 arrays of m floats, as traced by ``tracemalloc``: ``dptsv``'s
    copy of the diagonal and the direction (3.13 when the frozen couplings
    were zeroed in an ``np.where`` copy of ``sub``)."""
    import tracemalloc

    m = 2 ** 16
    rng = np.random.default_rng(9)
    G = np.linspace(0.1, 0.9, m)
    grad = rng.normal(0.0, 1.0, m)
    diag = rng.uniform(1.0, 2.0, m)
    sub = -0.25 * np.ones(m - 1)
    scenario = _uniform_scenario(n=8, m=m)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        d, decrement = _newton_direction(G, grad, diag, sub, scenario)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert math.isfinite(decrement) and float(np.dot(d, grad)) > 0.0
    assert peak / (8.0 * m) <= 2.5, peak / (8.0 * m)


def test_solveh_banded_calls_dptsv_and_reports_an_indefinite_matrix():
    """``solver.solveh_banded(diag, sub, rhs)`` returns the bits of
    ``scipy.linalg.solveh_banded`` on a positive-definite tridiagonal, leaves
    ``diag`` and ``rhs`` as they were, and returns None when the matrix is
    not positive definite."""
    rng = np.random.default_rng(3)
    for m in (2, 5, 64):
        diag = rng.uniform(1.0, 2.0, m)
        sub = rng.uniform(-0.4, 0.4, m - 1)
        rhs = rng.normal(size=m)
        ab = np.zeros((2, m))
        ab[0], ab[1, :-1] = diag, sub
        expected = solveh_banded(ab, rhs, lower=True)
        diag_before, rhs_before = diag.copy(), rhs.copy()
        x = dptsv_solve(diag, sub.copy(), rhs)
        assert x.tobytes() == expected.tobytes()
        assert np.array_equal(diag, diag_before) and np.array_equal(rhs, rhs_before)
    assert dptsv_solve(np.array([1.0, 1.0]), np.array([2.0]), np.array([1.0, 0.0])) is None
    assert dptsv_solve(np.array([1.0, -1.0, 1.0]), np.zeros(2), np.ones(3)) is None


DPTSV_PROBE = """
import importlib.util, json, sys
import numpy as np

route = sys.argv[1]
if route == "broken":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, *a: None if name == "scipy" else find_spec(name, *a)
if route == "scipy":
    from scipy.linalg.lapack import dptsv
else:
    from cnot.solver import dptsv
linalg = "scipy.linalg" in sys.modules
flapack = sys.modules.get("scipy.linalg._flapack")
rng = np.random.default_rng(7)
results = []
for m in (2, 5, 64):
    d, e, b = rng.uniform(1.0, 2.0, m), rng.uniform(-0.4, 0.4, m - 1), rng.normal(size=m)
    indefinite = d.copy()
    indefinite[m // 2] = -1.0
    for diag in (d, indefinite):
        *arrays, info = dptsv(diag, e, b)
        results.append([a.tobytes().hex() for a in arrays] + [int(info)])
import scipy.linalg.lapack
print(json.dumps({"linalg": linalg, "results": results,
                  "is_lapack": scipy.linalg.lapack.dptsv is dptsv,
                  "reused": scipy.linalg.lapack._flapack is flapack}))
"""


def _dptsv_probe(route: str) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", DPTSV_PROBE, route], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_dptsv_loaded_from_the_extension_file_has_the_bits_of_scipy_lapack():
    """``solver.dptsv`` comes from scipy's ``_flapack`` file without importing
    the ``scipy.linalg`` package, and returns the bits of
    ``scipy.linalg.lapack.dptsv`` (each in a fresh process) on
    positive-definite and indefinite tridiagonals.  With scipy's location
    broken (``find_spec`` answers None), the extension comes through the
    import system, which loads ``scipy.linalg``, and gives the same bits.  Either way a later
    ``import scipy.linalg`` reuses the extension module the solver loaded
    and hands out the solver's routine."""
    reference = _dptsv_probe("scipy")
    loaded = _dptsv_probe("file")
    fallback = _dptsv_probe("broken")
    assert not loaded["linalg"] and fallback["linalg"]
    for out in (loaded, fallback):
        assert out["is_lapack"] and out["reused"]
    assert loaded["results"] == reference["results"]
    assert fallback["results"] == reference["results"]
    infos = [r[-1] for r in reference["results"]]
    assert infos[0::2] == [0, 0, 0] and all(info > 0 for info in infos[1::2])


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
    near = _proximal(scenario, anchor, 1e-6)
    assert np.max(np.abs(near.G.values - anchor)) < 1e-3
    far = _proximal(scenario, anchor, 1e6)
    assert np.max(np.abs(far.G.values - anchor)) > 1e-2
    problem = _QuantileProblem(scenario)
    with pytest.raises(ValueError, match="anchor"):
        problem.anchored(anchor[:-1], 1.0)
    for tau in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite tau > 0"):
            problem.anchored(anchor, tau)


def test_best_response_validation():
    """Damping range, an integer step count >= 1, and grid compatibility
    are enforced."""
    scenario = _uniform_scenario()
    nu0 = uniform_density(scenario.grid)
    with pytest.raises(ValueError, match="damping"):
        best_response_iterate(scenario, nu0, damping=0.0)
    with pytest.raises(ValueError, match="steps"):
        best_response_iterate(scenario, nu0, steps=0)
    with pytest.raises(ValueError, match="steps must be an integer"):
        best_response_iterate(scenario, nu0, steps=2.5)
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


def _solve_peaks():
    """``tools/solve_peaks.py``, the traced-peak probe CI runs at n = 65536."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tools" / "solve_peaks.py"
    spec = importlib.util.spec_from_file_location("solve_peaks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figure1_solve_holds_a_bounded_number_of_quantile_arrays():
    """At n = 8192 (m = 32768) the figure-1 solve never holds more than about
    a dozen arrays of m floats at once, as traced by ``tracemalloc``: the
    Newton loop and the whole solve with its binning at most 12 (21.0 before
    the loop kept only G, u and F(u) of a point and dropped the old point, the
    curvature and each rejected trial as soon as they were used), the
    binning alone at most 5 (7.6 when it scattered segments over cells), the
    certificate at most 10 (13.8 before its range minima ran in bounded
    column runs)."""
    probe = _solve_peaks()
    peaks = probe.traced_peaks(8192)
    assert peaks["converged"]
    for stage, bound in probe.BOUNDS.items():
        assert peaks[stage] <= bound, (stage, peaks[stage])


def test_cubic_kernel_newton_loop_holds_a_bounded_number_of_quantile_arrays():
    """At n = 8192 (m = 32768) the Newton loop of the cubic_attraction
    physics never holds more than 13.1 arrays of m floats at once, as traced
    by ``tracemalloc`` (16.3 before the cubic kernel's forms wrote into a few
    buffers in place, 14.3 before the moment engine's Horner forms)."""
    from cnot.cli import _bundle_from_raw
    from cnot.solver import _QuantileProblem, _projected_newton

    probe = _solve_peaks()
    raw = json.loads((probe.ROOT / "scenarios" / "cubic_attraction.json").read_text())
    bundle = _bundle_from_raw(dict(raw, grid_n=8192, quantile_m=4 * 8192), probe.ROOT / "scenarios")
    out, peak = probe._traced(
        lambda: _projected_newton(_QuantileProblem(bundle.scenario), bundle.params))
    assert out[3]
    assert peak / (8.0 * bundle.scenario.m) <= 13.1
