"""Grids, densities, and quantile functions."""
import tracemalloc

import numpy as np
import pytest

from cnot import (
    CostSpec,
    DiscreteDensity,
    Grid,
    Interval,
    QuantileFn,
    density_from_values,
    density_to_quantile,
    gaussian_truncated_density,
    pushforward,
    quantile_to_density,
    two_bumps_density,
    uniform_density,
    wasserstein_cost_1d,
)
from cnot.measures import _bin_segments


def test_interval_validation():
    """Intervals need finite endpoints with hi > lo."""
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))
    assert Interval(0.0, 2.0).length == 2.0


def test_grid_geometry():
    """Nodes are cell midpoints and edges partition the interval; the cell
    count is an integer >= 2 (a numpy integer passes, a float does not)."""
    grid = Grid(Interval(1.0, 3.0), 4)
    assert grid.delta == 0.5
    assert np.allclose(grid.nodes, [1.25, 1.75, 2.25, 2.75])
    assert np.allclose(grid.edges, [1.0, 1.5, 2.0, 2.5, 3.0])
    assert list(grid.cell_index(np.array([1.0, 1.49, 2.5, 3.0]))) == [0, 0, 3, 3]
    with pytest.raises(ValueError):
        Grid(Interval(0.0, 1.0), 1)
    for n in (2.5, 4.0):
        with pytest.raises(ValueError, match="integer"):
            Grid(Interval(0.0, 1.0), n)
    assert Grid(Interval(0.0, 1.0), np.int64(4)).nodes.size == 4


def test_density_validation():
    """Densities must be finite, non-negative, and integrate to one; their
    quantile resolution is an integer m >= 2 (a numpy integer passes, a
    float does not), also where a transport cost takes it."""
    grid = Grid(Interval(0.0, 1.0), 8)
    for m in (2.5, 4.0, 1):
        with pytest.raises(ValueError, match="integer >= 2"):
            density_to_quantile(uniform_density(grid), m)
    assert density_to_quantile(uniform_density(grid), np.int64(8)).m == 8
    with pytest.raises(ValueError, match="integer >= 2"):
        wasserstein_cost_1d(uniform_density(grid), uniform_density(grid),
                            CostSpec.quadratic(), m=2.5)
    with pytest.raises(ValueError):
        DiscreteDensity(grid, np.full(8, 2.0))
    with pytest.raises(ValueError):
        DiscreteDensity(grid, -np.full(8, 1.0))
    with pytest.raises(ValueError):
        DiscreteDensity(grid, np.full(4, 1.0))
    d = DiscreteDensity(grid, np.full(8, 1.0))
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-15)


def test_density_from_values_normalizes():
    """Raw values are rescaled to unit mass; zero mass is rejected."""
    grid = Grid(Interval(0.0, 2.0), 10)
    d = density_from_values(grid, np.full(10, 7.0))
    assert d.values.sum() * grid.delta == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        density_from_values(grid, np.zeros(10))
    with pytest.raises(ValueError):
        density_from_values(grid, np.full(10, -1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_from_values_scales_values_whose_sum_overflows():
    """Finite values whose sum overflows (1e308 in every cell) give the
    uniform density with no overflow warning; values with a finite sum keep
    the bits of a plain normalization."""
    grid = Grid(Interval(0.0, 1.0), 16)
    d = density_from_values(grid, np.full(16, 1e308))
    assert np.array_equal(d.values, uniform_density(grid).values)
    values = np.random.default_rng(2).uniform(0.5, 1.5, 16)
    plain = values / (values.sum() * grid.delta)
    assert density_from_values(grid, values).values.tobytes() == plain.tobytes()


def test_builtin_densities_unit_mass():
    """The shipped density constructors all integrate to one."""
    grid = Grid(Interval(3.0, 7.0), 33)
    for d in (
        uniform_density(grid),
        gaussian_truncated_density(grid, 5.0, 0.8),
        two_bumps_density(grid),
    ):
        assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(d.values >= 0.0)


def test_gaussian_truncated_rejects_bad_sigma():
    """Non-positive sigma is an error."""
    grid = Grid(Interval(0.0, 1.0), 8)
    with pytest.raises(ValueError):
        gaussian_truncated_density(grid, 0.5, 0.0)


def test_cdf_quantile_inverse():
    """CDF and quantile are inverse on a seeded random density."""
    rng = np.random.default_rng(0)
    grid = Grid(Interval(-1.0, 2.0), 64)
    d = density_from_values(grid, rng.uniform(0.5, 1.5, 64))
    p = np.linspace(0.01, 0.99, 41)
    x = d.quantile(p)
    assert np.max(np.abs(d.cdf(x) - p)) < 1e-12
    assert np.all(np.diff(x) > 0.0)


def test_quantile_endpoint_conventions():
    """The quantile hits the support edges at p = 0 and p = 1."""
    grid = Grid(Interval(0.0, 1.0), 8)
    values = np.array([0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 0.0, 0.0])
    d = density_from_values(grid, values)
    assert d.quantile(np.array([0.0]))[0] == pytest.approx(0.25, abs=1e-12)
    assert d.quantile(np.array([1.0]))[0] == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        d.quantile(np.array([1.5]))


def test_quantile_ends_at_the_support_on_a_light_upper_tail():
    """N(0, 0.5^2) truncated to [-8, 8] has mass in every cell, but its
    normalised cumulative sum rounds to 1 near 4.1: the quantile still runs
    from the infimum to the supremum of the support, symmetrically (the upper
    end read 4.125 when p = 1 went to the first cell where the sum reached 1)."""
    grid = Grid(Interval(-8.0, 8.0), 256)
    H = density_to_quantile(gaussian_truncated_density(grid, 0.0, 0.5), 1024).values
    assert H[0] == -8.0
    assert H[-1] == 8.0 == -H[0]


def test_quantile_at_one_keeps_its_bits_where_the_sum_does_not_saturate():
    """Where the upper cells are empty and the cumulative sum first reaches 1
    in the last cell with mass ``k``, ``quantile(1.0)`` is the interpolation
    ``edges[k] + 1.0 * delta`` it always was, bit for bit."""
    grid = Grid(Interval(-1.0, 2.0), 12)
    values = np.r_[np.linspace(0.3, 1.7, 9), np.zeros(3)]
    d = density_from_values(grid, values)
    cum = np.concatenate([[0.0], np.cumsum(d.masses)])
    cum = cum / cum[-1]
    k = 8
    assert cum[k] < 1.0 == cum[k + 1]
    interpolated = grid.edges[k] + (1.0 - cum[k]) / (cum[k + 1] - cum[k]) * grid.delta
    assert d.quantile(1.0) == interpolated == grid.edges[k] + grid.delta


def test_uniform_quantile_is_identity():
    """Uniform density on [0,1] has quantile values j/(m-1) exactly."""
    grid = Grid(Interval(0.0, 1.0), 16)
    G = density_to_quantile(uniform_density(grid), 4)
    assert np.allclose(G.values, [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], atol=1e-15)
    G = density_to_quantile(uniform_density(grid), 257)
    assert np.max(np.abs(G.values - np.linspace(0.0, 1.0, 257))) < 1e-12


def test_quantilefn_validation():
    """Quantile values must be finite, sorted, and inside the interval rules."""
    iv = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        QuantileFn(np.array([0.5, 0.2]), iv)
    with pytest.raises(ValueError):
        QuantileFn(np.array([0.5]), iv)
    with pytest.raises(ValueError):
        QuantileFn(np.array([0.1, 0.9]), iv, support_mode="fixed_endpoints")
    with pytest.raises(ValueError):
        QuantileFn(np.array([0.1, 0.9]), iv, support_mode="pinned")
    G = QuantileFn(np.array([0.0, 0.4, 1.0]), iv, support_mode="fixed_endpoints")
    assert G.m == 3
    assert np.allclose(G.probabilities, [0.0, 0.5, 1.0])


def test_quantile_density_roundtrip():
    """density -> quantile -> density converges in sup norm as m grows."""
    rng = np.random.default_rng(3)
    grid = Grid(Interval(0.0, 2.0), 32)
    d = density_from_values(grid, rng.uniform(0.5, 1.5, 32))
    errs = []
    for m in (256, 1024, 4096):
        back = quantile_to_density(density_to_quantile(d, m), grid)
        errs.append(np.max(np.abs(back.values - d.values)))
    assert errs[0] < 0.05
    assert errs[-1] < errs[0]
    assert errs[-1] < 2e-3


def test_quantile_to_density_uniform_exact():
    """The identity quantile pushes the uniform law to the uniform density."""
    grid = Grid(Interval(0.0, 1.0), 16)
    G = QuantileFn(np.linspace(0.0, 1.0, 33), grid.interval)
    d = quantile_to_density(G, grid)
    assert np.max(np.abs(d.values - 1.0)) < 1e-12


def test_quantile_to_density_rejects_outside():
    """Quantile values outside the target interval are an error."""
    grid = Grid(Interval(0.0, 1.0), 8)
    with pytest.raises(ValueError):
        quantile_to_density(QuantileFn(np.array([0.0, 2.0]), Interval(0.0, 2.0)), grid)


def test_pushforward_identity_and_translation():
    """Identity keeps the density; a shift moves mass where expected."""
    grid = Grid(Interval(0.0, 1.0), 64)
    rng = np.random.default_rng(5)
    d = density_from_values(grid, rng.uniform(0.5, 1.5, 64))
    same = pushforward(grid.nodes, d)
    assert np.max(np.abs(same.values - d.values)) < 1e-10
    shifted = pushforward(np.clip(grid.nodes + 0.25, 0.0, 1.0), d)
    assert shifted.masses.sum() == pytest.approx(1.0, abs=1e-12)
    lhs = shifted.cdf(np.array([0.5 + 0.25]))[0]
    assert lhs == pytest.approx(d.cdf(np.array([0.5]))[0], abs=0.02)
    with pytest.raises(ValueError):
        pushforward(grid.nodes + 5.0, d)


def test_pushforward_conserves_mass_on_random_maps():
    """Seeded random monotone maps conserve mass exactly."""
    grid = Grid(Interval(0.0, 1.0), 32)
    d = uniform_density(grid)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        T = np.sort(rng.uniform(0.0, 1.0, 32))
        out = pushforward(T, d)
        assert out.masses.sum() == pytest.approx(1.0, abs=1e-12)


def _dense_bin(left, right, mass, grid):
    """Reference binning: overlap fractions against every cell edge."""
    atom = right - left <= 1e-15 * max(1.0, grid.interval.length)
    out = np.zeros(grid.n)
    np.add.at(out, grid.cell_index(0.5 * (left[atom] + right[atom])), mass[atom])
    l, r, w = left[~atom], right[~atom], mass[~atom]
    frac = np.clip((grid.edges[None, :] - l[:, None]) / (r - l)[:, None], 0.0, 1.0)
    return out + w @ np.diff(frac, axis=1)


def _check_binning(left, right, mass, grid, same_support=True):
    """Agreement with the dense formula to 1e-14, non-negative masses, exact
    total mass, and exact zeros where no segment overlaps a cell.  Without
    overlapping multi-cell segments the supports agree exactly as well."""
    out = _bin_segments(left, right, mass, grid)
    ref = _dense_bin(left, right, mass, grid)
    assert np.max(np.abs(out - ref)) <= 1e-14
    assert np.all(out >= 0.0)
    assert abs(out.sum() - mass.sum()) <= 1e-14
    assert np.all(out[ref == 0.0] == 0.0)
    if same_support:
        assert np.array_equal(out > 0.0, ref > 0.0)
    return out


def test_binning_monotone_knots_edges_atoms_and_clipped_ends():
    """Zero gaps, knots on cell edges, atoms on edges and at hi, and runs of
    knots clipped to lo/hi all bin as the dense overlap formula does."""
    grid = Grid(Interval(-1.0, 2.0), 12)
    e = grid.edges
    rng = np.random.default_rng(8)
    knots = np.sort(np.concatenate([
        np.full(4, grid.interval.lo),            # clipped lower end
        e[[3, 3, 3, 5, 6, 6]],                   # atoms and zero gaps on edges
        rng.uniform(e[6], e[9], 20),
        np.full(5, grid.interval.hi),            # atoms at hi
    ]))
    mass = np.full(knots.size - 1, 1.0 / (knots.size - 1))
    out = _check_binning(knots[:-1], knots[1:], mass, grid)
    # the atom on edge 3 goes right, the atoms at hi to the last cell
    assert out[3] > 0.0 and out[-1] >= 4.0 / (knots.size - 1)
    G = QuantileFn(knots, grid.interval)
    d = quantile_to_density(G, grid)
    np.testing.assert_allclose(d.masses, out / out.sum(), rtol=0.0, atol=1e-14)


def test_binning_leaves_untouched_cells_exactly_empty():
    """A quantile supported inside [0.3, 0.6] gives exact zeros elsewhere."""
    grid = Grid(Interval(0.0, 1.0), 40)
    knots = np.linspace(0.3, 0.6, 97)
    d = quantile_to_density(QuantileFn(knots, grid.interval), grid)
    outside = (grid.edges[1:] <= 0.3) | (grid.edges[:-1] >= 0.6)
    assert np.all(d.values[outside] == 0.0)
    assert np.all(d.values[~outside] > 0.0)
    mass = np.full(96, 1.0 / 96)
    _check_binning(knots[:-1], knots[1:], mass, grid)


def test_binning_knots_a_hair_from_an_edge():
    """Knots one ulp either side of a cell edge keep the overlap formula's
    sliver masses and exact zeros, also where ``floor((x - lo) / delta)``
    lands in the neighbouring cell (seven such edges on this grid)."""
    grid = Grid(Interval(-3.3, 2.0), 12)
    e = grid.edges[1:-1]
    left = np.concatenate([e - 1e-3, np.nextafter(e, -np.inf), e, e - 2e-3])
    right = np.concatenate([np.nextafter(e, np.inf), e + 1e-3, e + 1e-3, e])
    mass = np.full(left.size, 1.0 / left.size)
    _check_binning(left, right, mass, grid)


def test_binning_overlapping_runs_of_unequal_density():
    """Overlapping multi-cell segments whose densities differ by many orders
    of magnitude leave every cell past them exactly empty, and no cell
    negative where the running sum of densities cancels."""
    grid = Grid(Interval(0.0, 2.0), 40)
    rng = np.random.default_rng(12)
    for _ in range(300):
        left = rng.uniform(0.0, 0.4, 6)
        right = left + rng.uniform(0.2, 0.6, 6)
        mass = 10.0 ** rng.uniform(-17.0, 0.0, 6)
        mass /= mass.sum()
        out = _check_binning(left, right, mass, grid, same_support=False)
        assert np.all(out[grid.edges[:-1] >= right.max()] == 0.0)


def test_binning_overlapping_segments_from_non_monotone_map():
    """pushforward accepts non-monotone maps, whose segments overlap."""
    grid = Grid(Interval(0.0, 3.0), 50)
    rng = np.random.default_rng(9)
    mu = density_from_values(grid, rng.uniform(0.2, 1.8, grid.n))
    T = np.clip(1.5 + 1.2 * np.sin(7.0 * grid.nodes) + 0.3 * rng.normal(size=grid.n), 0.0, 3.0)
    T[10:14] = T[10]  # a flat stretch: degenerate segments become atoms
    edge_vals = np.concatenate([[T[0]], 0.5 * (T[:-1] + T[1:]), [T[-1]]])
    lo = np.minimum(edge_vals[:-1], edge_vals[1:])
    hi = np.maximum(edge_vals[:-1], edge_vals[1:])
    out = _check_binning(lo, hi, mu.masses, grid, same_support=False)
    image = pushforward(T, mu)
    np.testing.assert_allclose(image.masses, out / out.sum(), rtol=0.0, atol=1e-14)


def test_quantile_to_density_memory_is_linear():
    """n = 16384 cells and m = 65536 knots bin in well under 32 MB."""
    grid = Grid(Interval(0.0, 1.0), 16384)
    G = QuantileFn(np.sort(np.random.default_rng(10).beta(2.0, 5.0, 65536)), grid.interval)
    tracemalloc.start()
    try:
        d = quantile_to_density(G, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert peak < 32 * 2**20
