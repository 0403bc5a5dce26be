"""Transport costs, the LP oracle, and Kantorovich duality."""
import itertools
from pathlib import Path

import numpy as np
import pytest

from cnot import (
    CostSpec,
    Grid,
    Interval,
    c_transform,
    density_from_values,
    gaussian_truncated_density,
    kantorovich_potential_1d,
    minimize_quantile,
    monotone_map_1d,
    pushforward,
    quantile_resolution,
    solve_lp,
    uniform_density,
    w2_squared_1d,
    wasserstein_cost_1d,
)
from cnot.cli import _load_bundle
from cnot.transport import _staircase
from cnot.verify import _PURITY_ATOMS, _coarsen_atoms

ROOT = Path(__file__).resolve().parents[1]


def _staircase_plan(a, b):
    """The monotone plan of sorted atom lists: the ``_staircase`` masses at
    their cells of a dense ``(len(a), len(b))`` matrix."""
    cells, mass = _staircase(a, b)
    plan = np.zeros((a.size, b.size))
    plan[np.divmod(cells, b.size)] = mass
    return plan


def _staircase_cost(a, x, b, y, cost):
    """The monotone plan's cost for sorted atom lists: the ``_staircase``
    masses priced at their cells."""
    cells, mass = _staircase(a, b)
    i, j = np.divmod(cells, b.size)
    return float(np.dot(mass, cost.C(x[i] - y[j])))


def _block(grid, center, halfwidth):
    vals = np.where(np.abs(grid.nodes - center) < halfwidth, 1.0, 1e-12)
    return density_from_values(grid, vals)


def test_cost_conventions():
    """Quadratic cost is |t|^2/2 and the power cost is |t|^p."""
    t = np.array([-2.0, 0.5, 3.0])
    q = CostSpec.quadratic()
    assert np.allclose(q.C(t), 0.5 * t * t)
    assert np.allclose(q.C_prime(t), t)
    p3 = CostSpec.power(3.0)
    assert np.allclose(p3.C(t), np.abs(t) ** 3 / 3.0)
    assert np.allclose(p3.C_prime(t), np.sign(t) * t * t)
    with pytest.raises(ValueError):
        CostSpec.power(1.0)


def test_strict_convexity_probe():
    """sqrt|t| is flagged non-strictly-convex and refused where required."""
    flat = CostSpec.convex_difference(lambda t: np.sqrt(np.abs(t)))
    assert not flat.strictly_convex_on(2.0)
    with pytest.raises(ValueError, match="cost not strictly convex"):
        flat.require_strictly_convex()
    CostSpec.quadratic().require_strictly_convex()


def test_strict_convexity_is_probed_on_the_radius_in_use():
    """``t^2 - t^4/8`` (``C'' = 2 - 1.5 t^2``) is strictly convex on
    [-1, 1] but not on [-2, 2]: accepted at radius 1, refused at 2."""
    cost = CostSpec.convex_difference(lambda t: np.square(t) - np.asarray(t) ** 4 / 8.0)
    assert cost.strictly_convex_on(1.0)
    assert not cost.strictly_convex_on(2.0)
    cost.require_strictly_convex(1.0)
    with pytest.raises(ValueError, match="cost not strictly convex"):
        cost.require_strictly_convex(2.0)


def test_w2_translation_identity():
    """W2^2 between two unit blocks at distance 2 equals 4."""
    grid = Grid(Interval(0.0, 4.0), 512)
    a = _block(grid, 1.0, 0.5)
    b = _block(grid, 3.0, 0.5)
    assert w2_squared_1d(a, b) == pytest.approx(4.0, abs=2e-3)
    assert wasserstein_cost_1d(a, b, CostSpec.quadratic()) == pytest.approx(2.0, abs=1e-3)
    assert w2_squared_1d(a, a) == pytest.approx(0.0, abs=1e-12)


def test_w2_matches_gaussian_shift():
    """Two narrow truncated Gaussians a shift apart: W2^2 ~ shift^2."""
    grid = Grid(Interval(0.0, 6.0), 1024)
    a = gaussian_truncated_density(grid, 2.0, 0.2)
    b = gaussian_truncated_density(grid, 4.0, 0.2)
    assert w2_squared_1d(a, b) == pytest.approx(4.0, rel=1e-3)


def test_quantile_resolution_default():
    """Default cost resolution is 16 levels per grid cell."""
    assert quantile_resolution(64) == 1024


def test_lp_against_brute_force_assignments():
    """LP value equals the best of all permutations for <= 6 equal atoms."""
    cost = CostSpec.quadratic()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 7))
        x = np.sort(rng.uniform(0.0, 1.0, k))
        y = np.sort(rng.uniform(0.0, 1.0, k))
        a = np.full(k, 1.0 / k)
        _, _, lp_value = solve_lp(a, x, a, y, cost=cost)
        cm = cost.cost_matrix(x, y)
        best = min(
            sum(cm[i, p[i]] for i in range(k)) / k
            for p in itertools.permutations(range(k))
        )
        assert lp_value == pytest.approx(best, abs=1e-12)


def test_lp_duality_gap():
    """Primal cost and dual value agree to 1e-9 on seeded instances."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        na, nb = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        a = rng.uniform(0.1, 1.0, na)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, nb)
        b /= b.sum()
        x = np.sort(rng.uniform(-1.0, 1.0, na))
        y = np.sort(rng.uniform(-1.0, 1.0, nb))
        plan, pair, value = solve_lp(a, x, b, y, cost=CostSpec.quadratic())
        assert abs(pair.dual_value(a, b) - value) <= 1e-9 * (1.0 + abs(value))
        assert pair.feasibility_violation(CostSpec.quadratic(), x, y) <= 1e-9
        assert plan.cost(CostSpec.quadratic().cost_matrix(x, y)) == pytest.approx(
            value, abs=1e-12
        )


def test_lp_validation():
    """Weights must be distributions, positions 1-D with one per weight, and
    sizes must stay under the cap."""
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        solve_lp(np.array([0.5, 0.4]), x, np.array([0.5, 0.5]), x, cost=CostSpec.quadratic())
    with pytest.raises(ValueError):
        solve_lp(np.array([1.5, -0.5]), x, np.array([0.5, 0.5]), x, cost=CostSpec.quadratic())
    with pytest.raises(ValueError):
        solve_lp(np.array([0.5, 0.5]), x, np.array([0.5, 0.5]), x)
    w = np.array([0.5, 0.5])
    for xs, ys in ((x[:1], x), (x, np.zeros(3)), (x[:, None], x), (x, 0.5)):
        with pytest.raises(ValueError, match="one position per weight"):
            solve_lp(w, xs, w, ys, cost_matrix=np.zeros((2, 2)))


def test_lp_rejects_non_finite_costs_and_weights():
    """A NaN or infinite cost entry, or a NaN weight, is a ``ValueError``
    before any solve."""
    x = np.array([0.0, 1.0])
    w = np.array([0.5, 0.5])
    for bad in (np.nan, np.inf, -np.inf):
        cm = np.array([[0.0, 1.0], [bad, 0.0]])
        with pytest.raises(ValueError, match="cost matrix must be finite"):
            solve_lp(w, x, w, x, cost_matrix=cm)
    infinite_at_zero = CostSpec.convex_difference(lambda t: np.where(t == 0.0, np.inf, t * t))
    with pytest.raises(ValueError, match="must be finite"):
        solve_lp(w, x, w, x, cost=infinite_at_zero)
    with pytest.raises(ValueError, match="sum to one"):
        solve_lp(np.array([np.nan, 0.5]), x, w, x, cost=CostSpec.quadratic())


@pytest.mark.parametrize("name", ["uniform", "congested_gaussian", "cubic_attraction", "figure1"])
def test_lp_is_the_staircase_on_the_shipped_purity_problems(name):
    """On the purity check's LP for a shipped scenario the plan is exactly
    the monotone staircase, and the value is its cost to 1e-14 relative."""
    a, x, b, y, cost = _shipped_purity_problem(name)
    plan, _, value = solve_lp(a, x, b, y, cost=cost)
    assert value == pytest.approx(_staircase_cost(a, x, b, y, cost), rel=1e-14)
    assert np.array_equal(plan.matrix, _staircase_plan(a, b))


@pytest.mark.parametrize("name", ["uniform", "congested_gaussian", "cubic_attraction", "figure1"])
def test_lp_matches_linprog_on_the_shipped_purity_problems(name):
    """On the purity check's LP for a shipped scenario, the value is the cold
    ``linprog(method="highs")`` value to 1e-12 relative and the plan is
    linprog's to 1e-14 (the cost is strictly convex in ``x - y``, so the
    optimal plan is unique); the plan has the atom weights as its marginals,
    and the potentials are dual feasible."""
    a, x, b, y, cost = _shipped_purity_problem(name)
    cm = cost.cost_matrix(x, y)
    plan, pair, value = solve_lp(a, x, b, y, cost=cost)
    ref_plan, _, ref_value = _linprog_reference(a, b, cm)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert np.max(np.abs(plan.matrix - ref_plan)) <= 1e-14
    assert np.max(np.abs(plan.matrix.sum(axis=1) - a)) <= 1e-12
    assert np.max(np.abs(plan.matrix.sum(axis=0) - b)) <= 1e-12
    assert np.max(pair.phi[:, None] + pair.phi_c[None, :] - cm) <= 1e-12


def _shipped_purity_problem(name):
    """Weights, positions and cost of the purity check's LP for a shipped
    scenario: both measures coarsened to 64 atoms, as ``purity_check``
    does."""
    bundle = _load_bundle(str(ROOT / "scenarios" / f"{name}.json"))
    scenario = bundle.scenario
    nu = minimize_quantile(scenario, bundle.params).nu
    k = min(_PURITY_ATOMS, scenario.n)
    a, x = _coarsen_atoms(scenario.mu, k)
    b, y = _coarsen_atoms(nu, k)
    return a, x, b, y, scenario.cost


def _linprog_reference(a, b, cm):
    """Plan, ``phi`` and value of the transport LP through
    ``scipy.optimize.linprog(method="highs")``, with the constraint matrix
    built from COO triplets: the independent reference for the staircase
    route."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n, m = a.size, b.size
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    cols = np.tile(np.arange(n * m), 2)
    A = coo_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m)).tocsr()
    res = linprog(cm.ravel(), A_eq=A, b_eq=np.concatenate([a, b]), bounds=(0.0, None),
                  method="highs")
    assert res.status == 0
    u = res.eqlin.marginals[:n]
    return np.clip(res.x.reshape(n, m), 0.0, None), u - u[0], res.fun


@pytest.mark.parametrize("layout", ["sorted", "shuffled", "zero_weights", "equal_weights",
                                    "paired"])
def test_lp_reaches_the_monotone_cost_for_convex_costs(layout):
    """For costs convex in ``x - y`` (quadratic, ``|t|^3 / 3``, ``|t|^1.5 / 1.5``,
    ``|t|^1.001 / 1.001``) on seeded 64 x 64 problems (atoms uniform on
    [0, 1], weights uniform on [0.1, 1]), the value is the monotone
    coupling's cost on the position-sorted atoms to 1e-14 relative, and the
    plan mapped back to that order is exactly the staircase plan: with
    sorted atoms, with both lists shuffled, with about a fifth of the
    weights zero, with equal weights, and with atoms in pairs
    1e-12 apart (every other sorted atom, and each shifted by 1e-12), on
    which rounding makes a floating-point Monge comparison of the sorted
    costs fail.  The gap certificate alone admits 1e-9 absolute, and the
    cold solves that ``solve_lp`` once made used that slack."""
    for seed in range(4):
        for cost in (CostSpec.quadratic(), CostSpec.power(3.0), CostSpec.power(1.5),
                     CostSpec.power(1.001)):
            rng = np.random.default_rng(seed)
            x, y = np.sort(rng.uniform(0.0, 1.0, 64)), np.sort(rng.uniform(0.0, 1.0, 64))
            if layout == "paired":
                x, y = (np.sort(np.concatenate([t[::2], t[::2] + 1e-12])) for t in (x, y))
            a, b = rng.uniform(0.1, 1.0, 64), rng.uniform(0.1, 1.0, 64)
            if layout == "zero_weights":
                a[rng.uniform(size=64) < 0.2], b[rng.uniform(size=64) < 0.2] = 0.0, 0.0
            if layout == "equal_weights":  # every break of the staircase is tied
                a, b = np.ones(64), np.ones(64)
            a, b = a / a.sum(), b / b.sum()
            exact = _staircase_cost(a, x, b, y, cost)
            px, py = rng.permutation(64), rng.permutation(64)
            if layout != "shuffled":
                px, py = np.arange(64), np.arange(64)
            plan, _, value = solve_lp(a[px], x[px], b[py], y[py], cost=cost)
            assert value == pytest.approx(exact, rel=1e-14)
            sorted_plan = plan.matrix[np.ix_(np.argsort(px), np.argsort(py))]
            assert np.array_equal(sorted_plan, _staircase_plan(a, b))


def test_lp_is_the_staircase_for_a_convex_cost_and_refuses_others():
    """For a cost convex in ``x - y`` on shuffled atoms with zero weights, the
    plan holds the monotone coupling's masses at the staircase cells, in the
    caller's atom order, and nothing else.  A concave and an unstructured
    cost, for which the monotone coupling is not optimal, are refused with
    a ``ValueError`` that names the condition."""
    rng = np.random.default_rng(17)
    a, b = rng.uniform(0.0, 1.0, 9) * (rng.uniform(size=9) < 0.7), rng.uniform(0.1, 1.0, 7)
    a[0], x, y = 1.0, np.sort(rng.uniform(0.0, 1.0, 9)), np.sort(rng.uniform(0.0, 1.0, 7))
    a, b = a / a.sum(), b / b.sum()
    px, py = rng.permutation(9), rng.permutation(7)
    plan = solve_lp(a[px], x[px], b[py], y[py], cost=CostSpec.power(3.0))[0]
    assert np.array_equal(plan.matrix, _staircase_plan(a, b)[np.ix_(px, py)])
    for cm in (-np.subtract.outer(x, y) ** 2, rng.uniform(0.0, 1.0, (9, 7))):
        with pytest.raises(ValueError, match="monotone coupling is not optimal for this cost"):
            solve_lp(a, x, b, y, cost_matrix=cm)


@pytest.mark.parametrize("shuffled", [False, True])
def test_lp_matches_linprog_within_the_certificate_on_convex_costs(shuffled):
    """On the seeded 64 x 64 LPs of
    ``test_lp_reaches_the_monotone_cost_for_convex_costs`` (positive
    weights), the value that ``solve_lp`` reads off the staircase is
    ``linprog(method="highs")``'s within the certificate ``1e-9 (1 + |v|)``,
    and the potentials are dual feasible."""
    for seed in range(4):
        for cost in (CostSpec.quadratic(), CostSpec.power(3.0), CostSpec.power(1.5)):
            rng = np.random.default_rng(seed)
            x, y = np.sort(rng.uniform(0.0, 1.0, 64)), np.sort(rng.uniform(0.0, 1.0, 64))
            a, b = rng.uniform(0.1, 1.0, 64), rng.uniform(0.1, 1.0, 64)
            a, b = a / a.sum(), b / b.sum()
            px, py = (rng.permutation(64), rng.permutation(64)) if shuffled else (
                np.arange(64), np.arange(64))
            a, x, b, y = a[px], x[px], b[py], y[py]
            _, pair, value = solve_lp(a, x, b, y, cost=cost)
            cm = cost.cost_matrix(x, y)
            assert abs(value - _linprog_reference(a, b, cm)[2]) <= 1e-9 * (1.0 + abs(value))
            assert np.max(pair.phi[:, None] + pair.phi_c[None, :] - cm) <= 1e-12


def test_lp_value_scales_with_small_costs():
    """``solve_lp`` certifies the LP of its costs scaled by a power of two
    into [0.5, 1), so small costs are neither certified far from their
    optimum nor waved through: on 40 seeded 64 x 64 LPs (sorted atoms and
    weights as in ``test_lp_matches_linprog_within_the_certificate_on_convex_costs``,
    seeds 2000-2039, the quadratic, ``|t|^3 / 3`` and ``|t|^1.5 / 1.5``
    costs in turn) with the costs multiplied by 1e-6 or 1e-4, the value
    divided back matches the unscaled LP's to 1e-12 relative, none is
    refused, and the potentials stay dual feasible at the small scale.  The
    negated (concave) costs at the same scales are still refused, though
    their gaps are far below 1e-9 in absolute terms."""
    costs = (CostSpec.quadratic(), CostSpec.power(3.0), CostSpec.power(1.5))
    for seed in range(2000, 2040):
        rng = np.random.default_rng(seed)
        x, y = np.sort(rng.uniform(0.0, 1.0, 64)), np.sort(rng.uniform(0.0, 1.0, 64))
        a, b = rng.uniform(0.1, 1.0, 64), rng.uniform(0.1, 1.0, 64)
        a, b = a / a.sum(), b / b.sum()
        cm = costs[seed % 3].cost_matrix(x, y)
        reference = solve_lp(a, x, b, y, cost_matrix=cm)[2]
        for scale in (1e-6, 1e-4):
            _, pair, value = solve_lp(a, x, b, y, cost_matrix=cm * scale)
            assert abs(value / scale - reference) <= 1e-12 * abs(reference)
            assert np.max(pair.phi[:, None] + pair.phi_c[None, :] - cm * scale) <= 1e-12 * scale
            with pytest.raises(ValueError, match="not optimal"):
                solve_lp(a, x, b, y, cost_matrix=-cm * scale)


def test_c_transform_definition():
    """The c-transform is the row-wise infimum of C(x-y) - phi(x)."""
    rng = np.random.default_rng(2)
    x = np.sort(rng.uniform(0.0, 1.0, 12))
    y = np.sort(rng.uniform(0.0, 1.0, 9))
    phi = rng.normal(size=12)
    cost = CostSpec.quadratic()
    out = c_transform(phi, cost, x, y)
    brute = np.min(cost.cost_matrix(x, y) - phi[:, None], axis=0)
    assert np.allclose(out, brute, atol=1e-14)


_MONGE_COSTS = {
    "quadratic": CostSpec.quadratic(),
    "p1.2": CostSpec.power(1.2),
    "p2": CostSpec.power(2.0),
    "p3.7": CostSpec.power(3.7),
}


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 129, 1000])
@pytest.mark.parametrize("cost_name", sorted(_MONGE_COSTS))
def test_c_transform_matches_dense_minimum(cost_name, n):
    """The Monge divide and conquer returns the dense minimum on unsorted
    nodes with duplicates and an arbitrary (not c-concave) phi."""
    cost = _MONGE_COSTS[cost_name]
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 2.0, n)
    y = rng.uniform(-1.0, 2.0, n)
    x[rng.integers(0, n, n // 3)] = x[0]
    y[rng.integers(0, n, n // 3)] = y[-1]
    phi = rng.normal(size=n)
    out = c_transform(phi, cost, x, y)
    brute = np.min(cost.cost_matrix(x, y) - phi[:, None], axis=0)
    np.testing.assert_allclose(out, brute, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("nx,ny", [(7, 900), (900, 7), (300, 1100), (1100, 300)])
def test_c_transform_unequal_node_counts(nx, ny):
    """Source and target node sets of different sizes, including a target
    set wider than the source range."""
    rng = np.random.default_rng(nx + ny)
    x = rng.uniform(0.0, 1.0, nx)
    y = rng.uniform(-0.5, 1.5, ny)
    phi = np.cumsum(rng.normal(size=nx)) * 0.1
    cost = CostSpec.power(2.5)
    brute = np.min(cost.cost_matrix(x, y) - phi[:, None], axis=0)
    np.testing.assert_allclose(c_transform(phi, cost, x, y), brute, rtol=0.0, atol=1e-14)


def test_c_transform_refuses_non_convex_cost():
    """The monotone argmin needs a strictly convex C; sqrt|t| is refused."""
    flat = CostSpec.convex_difference(lambda t: np.sqrt(np.abs(t)))
    x = np.linspace(0.0, 1.0, 200)
    with pytest.raises(ValueError, match="cost not strictly convex"):
        c_transform(np.zeros(200), flat, x, x)
    with pytest.raises(ValueError, match="cost not strictly convex"):
        c_transform(np.zeros(5), flat, x[:5], x[:5])
    grid = Grid(Interval(0.0, 1.0), 16)
    with pytest.raises(ValueError, match="cost not strictly convex"):
        kantorovich_potential_1d(uniform_density(grid), uniform_density(grid), flat)


def test_monotone_map_pushforward():
    """The monotone map pushes mu onto nu (checked through the CDF)."""
    rng = np.random.default_rng(4)
    grid = Grid(Interval(0.0, 1.0), 128)
    mu = density_from_values(grid, rng.uniform(0.5, 1.5, 128))
    nu = density_from_values(grid, rng.uniform(0.5, 1.5, 128))
    T = monotone_map_1d(mu, nu)
    assert np.all(np.diff(T) > -1e-12)
    image = pushforward(T, mu)
    probe = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(image.cdf(probe) - nu.cdf(probe))) < 0.02


def test_monotone_map_needs_positive_source():
    """A source density with zero cells is refused."""
    grid = Grid(Interval(0.0, 1.0), 8)
    vals = np.array([0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 0.0, 0.0])
    nu = density_from_values(grid, vals)
    with pytest.raises(ValueError):
        monotone_map_1d(nu, uniform_density(grid))


def test_kantorovich_potentials_certify_the_quantile_cost():
    """Dual value of the quadrature potentials matches the quantile cost."""
    rng = np.random.default_rng(6)
    grid = Grid(Interval(0.0, 2.0), 256)
    cost = CostSpec.quadratic()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mu = density_from_values(grid, rng.uniform(0.3, 1.7, 256))
        nu = density_from_values(grid, rng.uniform(0.3, 1.7, 256))
        pair = kantorovich_potential_1d(mu, nu, cost)
        primal = wasserstein_cost_1d(mu, nu, cost)
        dual = float(np.dot(pair.phi, mu.masses) + np.dot(pair.phi_c, nu.masses))
        assert abs(dual - primal) < 5e-4 * (1.0 + abs(primal))
        assert pair.feasibility_violation(cost, grid.nodes, grid.nodes) <= 1e-10
        assert pair.phi[0] == 0.0


def test_potential_anchor_convention():
    """phi is anchored to zero at the leftmost node."""
    grid = Grid(Interval(0.0, 1.0), 32)
    mu = uniform_density(grid)
    nu = gaussian_truncated_density(grid, 0.5, 0.2)
    pair = kantorovich_potential_1d(mu, nu, CostSpec.quadratic())
    assert pair.phi[0] == 0.0
