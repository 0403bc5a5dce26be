"""Tests for the independent verification checks."""

import warnings

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
    solve_lp,
    transport_derivative_check,
    two_bumps_density,
    uniform_density,
)
from cnot.transport import _staircase
from cnot.verify import _PURITY_ATOMS, _coarsen_atoms


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
    """Negative and NaN residuals are impossible and rejected."""
    for sup, eq in ((-1.0, 0.0), (np.nan, 0.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="non-negative"):
            ResidualReport(residual_sup=sup, residual_eq=eq, M=0.0, epsilon=1e-6)


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
    for bad in (np.nan, np.inf):
        tax = np.zeros(32)
        tax[5] = bad
        with pytest.raises(ValueError, match="tax must be a finite vector"):
            equilibrium_residual(scenario, nu, tax=tax)


def test_equilibrium_residual_without_a_core_keeps_the_support():
    """A support of isolated cells erodes to nothing; the equality set then
    falls back to the whole support."""
    scenario = _uniform_scenario(n=16)
    nu = density_from_values(scenario.grid, np.tile([1.0, 0.0], 8))
    report = equilibrium_residual(scenario, nu)
    assert report.support_cells == report.core_cells == 8


def test_purity_of_computed_equilibrium():
    """The equilibrium coupling is the monotone graph: the certified LP value
    on the coarsened atoms is the north-west-corner walk's cost."""
    scenario = _congested()
    result = minimize_quantile(scenario, SolverParams(grad_tol=1e-9))
    report = purity_check(scenario, result.nu)
    assert report.pure
    assert bool(report)
    assert report.atoms == min(_PURITY_ATOMS, scenario.n) == 64
    a, x = _coarsen_atoms(scenario.mu, report.atoms)
    b, y = _coarsen_atoms(result.nu, report.atoms)
    assert report.lp_value == pytest.approx(
        _monotone_plan_cost_loop(a, x, b, y, scenario.cost), rel=1e-12, abs=1e-15)


def _coarsen_atoms_loop(nu, k):
    """Block-by-block reference for ``_coarsen_atoms``."""
    bounds = np.linspace(0, nu.grid.n, k + 1).astype(int)
    weights, points = np.empty(k), np.empty(k)
    for i in range(k):
        sl = slice(bounds[i], bounds[i + 1])
        w = nu.masses[sl].sum()
        weights[i] = w
        points[i] = np.dot(nu.masses[sl], nu.grid.nodes[sl]) / w if w > 0 else nu.grid.nodes[sl].mean()
    return weights / weights.sum(), points


def _monotone_plan_cost_loop(a, x, b, y, cost):
    """North-west-corner walk over the two atom lists: the monotone plan's
    cost, priced without ``_staircase``."""
    total, i, j, ai, bj = 0.0, 0, 0, a[0], b[0]
    while True:
        move = min(ai, bj)
        if move > 0:
            total += move * float(cost.C(x[i] - y[j]))
        ai -= move
        bj -= move
        if ai <= 1e-15:
            i += 1
            if i == a.size:
                return total
            ai = a[i]
        if bj <= 1e-15:
            j += 1
            if j == b.size:
                return total
            bj = b[j]


def _staircase_cost(a, x, b, y, cost):
    """The monotone plan's cost for sorted atom lists: the ``_staircase``
    masses priced at their cells."""
    cells, mass = _staircase(a, b)
    i, j = np.divmod(cells, b.size)
    return float(np.dot(mass, cost.C(x[i] - y[j])))


def _crossing_scan_loop(plan):
    """Used rows of ``plan`` whose first used column lies left of the
    rightmost used column of the used rows above: their count, and the
    first as ``(row, first column, rightmost column above)``.  An entry is
    used above ``1e-10 max(1, max(plan))``."""
    tol = 1e-10 * max(1.0, float(np.max(plan)))
    crossings, witness, prev_max = 0, None, -1
    for i in range(plan.shape[0]):
        cols = np.nonzero(plan[i] > tol)[0]
        if cols.size == 0:
            continue
        if cols[0] < prev_max:
            crossings += 1
            if witness is None:
                witness = (i, int(cols[0]), prev_max)
        prev_max = max(prev_max, int(cols[-1]))
    return crossings, witness


def test_coarsen_atoms_matches_the_block_loop_and_places_empty_blocks_at_their_mean():
    """Blocks of a density with a massless stretch keep the loop's weights and
    centres (to rounding), and a block with no mass sits at its mean node."""
    grid = Grid(Interval(0.0, 1.0), 50)
    values = np.exp(-0.5 * ((grid.nodes - 0.3) / 0.1) ** 2)
    values[20:35] = 0.0
    nu = density_from_values(grid, values)
    for k in (1, 7, 16, 50):
        weights, points = _coarsen_atoms(nu, k)
        ref_weights, ref_points = _coarsen_atoms_loop(nu, k)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-14, atol=1e-300)
        np.testing.assert_allclose(points, ref_points, rtol=1e-14)
    weights, points = _coarsen_atoms(nu, 10)  # blocks of 5 cells; 4..6 have no mass
    assert np.all(weights[4:7] == 0.0) and np.all(weights[[0, 1, 2, 3, 7]] > 0.0)
    np.testing.assert_allclose(points[4:7], [grid.nodes[5 * i:5 * i + 5].mean() for i in (4, 5, 6)],
                               rtol=1e-15)


def test_monotone_plan_cost_matches_the_north_west_corner_walk():
    """On atom lists with tied cumulative breaks, zero weights (first, inside
    and last) and random weights, the value of ``solve_lp`` equals the
    walk's cost."""
    cost = CostSpec.quadratic()
    x, y = np.linspace(0.0, 1.0, 4), np.array([0.1, 0.2, 0.6, 0.9])
    cases = [
        (np.full(4, 0.25), np.full(4, 0.25)),
        (np.array([0.25, 0.25, 0.5, 0.0]), np.array([0.5, 0.0, 0.25, 0.25])),
        (np.array([0.0, 0.5, 0.0, 0.5]), np.array([0.125, 0.375, 0.5, 0.0])),
    ]
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.uniform(0.0, 1.0, 4), rng.uniform(0.0, 1.0, 4)
        a[rng.integers(4)] = 0.0
        cases.append((a / a.sum(), b / b.sum()))
    for a, b in cases:
        assert solve_lp(a, x, b, y, cost=cost)[2] == pytest.approx(
            _monotone_plan_cost_loop(a, x, b, y, cost), rel=1e-12, abs=1e-15)
    dyadic = cases[1]  # every break is exact: four pieces of mass 1/4
    assert solve_lp(dyadic[0], x, dyadic[1], y, cost=cost)[2] == pytest.approx(0.5 * (
        0.25 * 0.1**2 + 0.25 * (1 / 3 - 0.1) ** 2 + 0.25 * (2 / 3 - 0.6) ** 2 + 0.25 * (2 / 3 - 0.9) ** 2),
        rel=1e-15)


def _seeded_quadratic_lp(seed, equal_weights=False):
    """Sorted uniform atoms on [0, 1], 64 a side, with normalised uniform
    weights on [0.1, 1] (or all 1/64)."""
    rng = np.random.default_rng(seed)
    x, y = np.sort(rng.uniform(0.0, 1.0, 64)), np.sort(rng.uniform(0.0, 1.0, 64))
    a, b = rng.uniform(0.1, 1.0, 64), rng.uniform(0.1, 1.0, 64)
    if equal_weights:
        a, b = np.full(64, 1.0 / 64), np.full(64, 1.0 / 64)
    return a / a.sum(), x, b / b.sum(), y


@pytest.mark.parametrize("seed,equal_weights", [(1021, False), (1039, False), (1051, False),
                                                (1050, True)])
def test_lp_certifies_the_seeded_lps_at_the_monotone_cost(seed, equal_weights):
    """On these seeded 64 x 64 quadratic LPs a cold simplex solve ends with a
    duality gap above 1e-9, and ``solve_lp`` once refused them; the plan it
    returns is exactly the monotone staircase, certified at the staircase's
    cost to 1e-14 relative."""
    a, x, b, y = _seeded_quadratic_lp(seed, equal_weights)
    cost = CostSpec.quadratic()
    plan, _, value = solve_lp(a, x, b, y, cost=cost)
    assert value == pytest.approx(_staircase_cost(a, x, b, y, cost), rel=1e-14)
    cells, mass = _staircase(a, b)
    staircase = np.zeros((64, 64))
    staircase[np.divmod(cells, 64)] = mass
    assert np.array_equal(plan.matrix, staircase)


def test_staircase_does_not_rubber_stamp_a_non_convex_cost():
    """With the concave cost ``-(x - y)^2`` the monotone staircase is not the
    answer: the antitone coupling (the staircase of the targets in reverse
    order) costs well below it, and ``solve_lp``, whose only plan is the
    staircase, refuses the LP."""
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0.1, 1.0, 12), rng.uniform(0.1, 1.0, 9)
    a, b = a / a.sum(), b / b.sum()
    x, y = np.sort(rng.uniform(0.0, 1.0, 12)), np.sort(rng.uniform(0.0, 1.0, 9))
    cm = -((x[:, None] - y[None, :]) ** 2)
    cells, mass = _staircase(a, b)
    antitone_cells, antitone_mass = _staircase(a, b[::-1])
    antitone = np.dot(antitone_mass, cm[:, ::-1].ravel()[antitone_cells])
    assert antitone < np.dot(mass, cm.ravel()[cells]) - 0.1
    with pytest.raises(ValueError, match="monotone coupling is not optimal for this cost"):
        solve_lp(a, x, b, y, cost_matrix=cm)


def test_staircase_keeps_tied_breaks_and_zero_weight_atoms():
    """Tied cumulative weights and zero-weight atoms (first, inside, last)
    still give ``n + m - 1`` distinct cells, stepping down first on a tie;
    the row loop finds no crossing in their plan (and finds the two of a
    diagonal plan with two rows swapped), and the LP read off them
    certifies at the monotone plan's cost."""
    a = np.array([0.25, 0.0, 0.25, 0.5, 0.0])
    b = np.array([0.0, 0.5, 0.0, 0.25, 0.25])
    x, y = np.linspace(0.0, 1.0, 5), np.linspace(0.1, 0.9, 5)
    cells, mass = _staircase(a, b)
    assert cells.tolist() == [0, 1, 6, 11, 16, 17, 18, 19, 24]
    assert mass.tolist() == [0.0, 0.25, 0.0, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0]
    cost = CostSpec.quadratic()
    _, _, value = solve_lp(a, x, b, y, cost=cost)
    assert value == pytest.approx(_staircase_cost(a, x, b, y, cost), rel=1e-14)
    swapped = np.diag(np.full(5, 0.2))
    swapped[[1, 3]] = swapped[[3, 1]]
    assert _crossing_scan_loop(swapped) == (2, (2, 2, 3))  # rows 2 and 3 start left of column 3
    rng = np.random.default_rng(13)
    for _ in range(50):
        n, m = rng.integers(1, 9, size=2)
        a = rng.choice([0.0, 0.25, 0.5], n) + (rng.uniform(size=n) < 0.3) * rng.uniform(0, 1, n)
        b = rng.choice([0.0, 0.25, 0.5], m)
        a[0] += 0.25
        b[-1] += 0.25
        cells, mass = _staircase(a / a.sum(), b / b.sum())
        i, j = np.divmod(cells, m)
        assert np.unique(cells).size == n + m - 1 and np.all(mass >= 0.0)
        assert np.all(np.diff(i) + np.diff(j) == 1) and (i[-1], j[-1]) == (n - 1, m - 1)
        plan = np.zeros((n, m))
        plan[i, j] = mass
        assert _crossing_scan_loop(plan) == (0, None)


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


def test_monge_ampere_refuses_a_grid_without_an_interior_node():
    """On two cells no node is interior: the residual refuses with a
    ``ValueError`` before any arithmetic warns; three cells are enough."""
    two, three = _uniform_scenario(n=2, m=16), _uniform_scenario(n=3, m=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least three grid cells"):
            monge_ampere_residual_1d(two, uniform_density(two.grid))
        assert monge_ampere_residual_1d(three, uniform_density(three.grid)) <= 1e-10


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
    for t_grid in ([-0.1, 0.5], [0.5, 1.1], [0.0, np.nan]):
        with pytest.raises(ValueError, match="t_grid"):
            displacement_convexity_probe(scenario, nu_a, nu_b, t_grid=t_grid)


def test_transport_derivative_quotients_converge():
    """Difference quotients of the transport cost approach the dual prediction."""
    grid = Grid(Interval(0.0, 1.0), 64)
    mu = gaussian_truncated_density(grid, 0.4, 0.2)
    nu = uniform_density(grid)
    rho = two_bumps_density(grid)
    report = transport_derivative_check(mu, nu, rho, CostSpec.quadratic(), eps_list=(1e-1, 1e-2, 1e-3))
    assert report.errors[-1] < report.errors[0]
    assert report.errors[-1] < 1e-3 * (1.0 + abs(report.predicted))
    for eps in (0.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="eps values"):
            transport_derivative_check(mu, nu, rho, CostSpec.quadratic(), eps_list=(eps,))
    other = uniform_density(Grid(Interval(0.0, 1.0), 32))
    with pytest.raises(ValueError, match="grid"):
        transport_derivative_check(mu, nu, other, CostSpec.quadratic())
