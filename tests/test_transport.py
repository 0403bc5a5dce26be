"""Transport costs, the LP oracle, and Kantorovich duality."""
import itertools

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
    monotone_map_1d,
    pushforward,
    quantile_resolution,
    solve_lp,
    uniform_density,
    w2_squared_1d,
    wasserstein_cost_1d,
)


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
    assert not flat.strictly_convex
    with pytest.raises(ValueError, match="cost not strictly convex"):
        flat.require_strictly_convex()
    CostSpec.quadratic().require_strictly_convex()


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
    """Weights must be distributions and sizes must stay under the cap."""
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        solve_lp(np.array([0.5, 0.4]), x, np.array([0.5, 0.5]), x, cost=CostSpec.quadratic())
    with pytest.raises(ValueError):
        solve_lp(np.array([1.5, -0.5]), x, np.array([0.5, 0.5]), x, cost=CostSpec.quadratic())
    with pytest.raises(ValueError):
        solve_lp(np.array([0.5, 0.5]), x, np.array([0.5, 0.5]), x)


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
        assert pair.phi[pair.anchor_index] == 0.0


def test_potential_anchor_convention():
    """phi is anchored to zero at the leftmost node."""
    grid = Grid(Interval(0.0, 1.0), 32)
    mu = uniform_density(grid)
    nu = gaussian_truncated_density(grid, 0.5, 0.2)
    pair = kantorovich_potential_1d(mu, nu, CostSpec.quadratic())
    assert pair.anchor_index == 0
    assert pair.phi[0] == 0.0
