"""Transport costs, the LP oracle, and Kantorovich duality."""
import itertools
import json
import os
import subprocess
import sys
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
from cnot.verify import _PURITY_ATOMS, _coarsen_atoms

ROOT = Path(__file__).resolve().parents[1]


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
    """Weights must be distributions and sizes must stay under the cap."""
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        solve_lp(np.array([0.5, 0.4]), x, np.array([0.5, 0.5]), x, cost=CostSpec.quadratic())
    with pytest.raises(ValueError):
        solve_lp(np.array([1.5, -0.5]), x, np.array([0.5, 0.5]), x, cost=CostSpec.quadratic())
    with pytest.raises(ValueError):
        solve_lp(np.array([0.5, 0.5]), x, np.array([0.5, 0.5]), x)


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


def _linprog_reference(a, b, cm):
    """Plan, ``phi`` and value of the transport LP through
    ``scipy.optimize.linprog(method="highs")``, with the constraint matrix
    built from COO triplets: the independent reference for the direct
    HiGHS route."""
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


def _assert_lp_bits(a, x, b, y, cm):
    plan, pair, value = solve_lp(a, x, b, y, cost_matrix=cm)
    ref_plan, ref_phi, ref_value = _linprog_reference(a, b, cm)
    assert plan.matrix.tobytes() == ref_plan.tobytes()
    assert pair.phi.tobytes() == ref_phi.tobytes()
    assert pair.phi_c.tobytes() == np.min(cm - ref_phi[:, None], axis=0).tobytes()
    assert value == ref_value


@pytest.mark.parametrize("n,m", [(2, 2), (8, 8), (5, 13), (40, 17), (64, 64)])
def test_lp_has_the_bits_of_linprog_on_random_problems(n, m):
    """On seeded random transport LPs, square and rectangular, with
    quadratic and with unstructured costs, ``solve_lp`` returns the plan,
    duals and value that ``linprog(method="highs")`` gives, byte for byte."""
    rng = np.random.default_rng(100 * n + m)
    a = rng.uniform(0.1, 1.0, n)
    a /= a.sum()
    b = rng.uniform(0.1, 1.0, m)
    b /= b.sum()
    x = np.sort(rng.uniform(-1.0, 1.0, n))
    y = np.sort(rng.uniform(-1.0, 1.0, m))
    _assert_lp_bits(a, x, b, y, CostSpec.quadratic().cost_matrix(x, y))
    _assert_lp_bits(a, x, b, y, rng.uniform(0.0, 1.0, (n, m)))


@pytest.mark.parametrize("name", ["uniform", "congested_gaussian", "cubic_attraction", "figure1"])
def test_lp_has_the_bits_of_linprog_on_the_shipped_purity_problems(name):
    """The purity check's LP on a shipped scenario (both measures coarsened
    to 64 atoms, as ``purity_check`` does) has the bits of
    ``linprog(method="highs")``."""
    bundle = _load_bundle(str(ROOT / "scenarios" / f"{name}.json"))
    scenario = bundle.scenario
    nu = minimize_quantile(scenario, bundle.params).nu
    k = min(_PURITY_ATOMS, scenario.n)
    a, x = _coarsen_atoms(scenario.mu, k)
    b, y = _coarsen_atoms(nu, k)
    _assert_lp_bits(a, x, b, y, scenario.cost.cost_matrix(x, y))


LP_ROUTE_PROBE = """
import importlib.util, json, sys
import numpy as np

if sys.argv[1] == "broken":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, *a: None if name == "scipy" else find_spec(name, *a)
from cnot import CostSpec, solve_lp

rng = np.random.default_rng(5)
results = []
for n, m in ((6, 6), (9, 4)):
    a, b = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, m)
    a, b = a / a.sum(), b / b.sum()
    x, y = np.sort(rng.uniform(0.0, 1.0, n)), np.sort(rng.uniform(0.0, 1.0, m))
    plan, pair, value = solve_lp(a, x, b, y, cost=CostSpec.quadratic())
    results.append([plan.matrix.tobytes().hex(), pair.phi.tobytes().hex(),
                    pair.phi_c.tobytes().hex(), value.hex()])
packages = [name for name in sys.modules
            if name == "scipy.optimize" or name.startswith("scipy.sparse")]
core = sys.modules.get("scipy.optimize._highspy._core")
from scipy.optimize import linprog
from scipy.optimize._highspy import _highs_wrapper
ok = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs").x.tolist() == [1.0, 0.0]
print(json.dumps({"results": results, "packages": packages, "linprog_ok": ok,
                  "reused": core is not None and _highs_wrapper._h is core}))
"""


def _lp_route_probe(route: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", LP_ROUTE_PROBE, route], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_lp_loads_highs_from_its_file_and_falls_back_to_linprog():
    """In a fresh process ``solve_lp`` reaches HiGHS without importing the
    ``scipy.optimize`` or ``scipy.sparse`` packages, and a later
    ``from scipy.optimize import linprog`` works and reuses the loaded
    bindings.  With scipy's location broken (``find_spec`` answers None) the
    LP goes through ``linprog`` instead and gives the same bits."""
    direct = _lp_route_probe("file")
    fallback = _lp_route_probe("broken")
    assert direct["packages"] == []
    assert "scipy.optimize" in fallback["packages"]
    assert direct["linprog_ok"] and fallback["linprog_ok"]
    assert direct["reused"]
    assert direct["results"] == fallback["results"]


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
