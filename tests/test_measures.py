"""Grids, densities, and quantile functions."""
import math
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
from cnot.measures import _bin_cdf


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


def test_pushforward_identity_keeps_a_light_tail():
    """The identity map returns every cell's mass to 1e-15 relative, also in
    a light upper tail: a cell inside one segment reads that segment's mass,
    not a difference of cumulative sums near 1."""
    grid = Grid(Interval(0.0, 1.0), 64)
    mu = density_from_values(grid, np.exp(-20.0 * grid.nodes))
    out = pushforward(grid.nodes, mu)
    assert np.max(np.abs(out.masses - mu.masses) / mu.masses) <= 1e-15


def _dense_bin(knots, P, grid):
    """Reference binning: overlap fractions of every segment against every
    cell edge; an equal pair of knots is an atom in the cell whose left edge
    is the last at or below it (the last cell at ``hi``)."""
    left, right, mass = knots[:-1], knots[1:], np.diff(P)
    atom = right == left
    cell = np.searchsorted(grid.edges, left[atom], side="right") - 1
    out = np.zeros(grid.n)
    np.add.at(out, np.clip(cell, 0, grid.n - 1), mass[atom])
    l, r, w = left[~atom], right[~atom], mass[~atom]
    frac = np.clip((grid.edges[None, :] - l[:, None]) / (r - l)[:, None], 0.0, 1.0)
    return out + w @ np.diff(frac, axis=1)


def _check_binning(knots, grid, P=None):
    """Agreement with the dense formula to 1e-14, non-negative masses, exact
    total mass, and the same support with exact zeros where no segment
    reaches a cell.  ``P`` defaults to equal segment masses."""
    if P is None:
        P = np.linspace(0.0, 1.0, knots.size)
    out = _bin_cdf(knots, np.diff(P), grid)
    ref = _dense_bin(knots, P, grid)
    assert np.max(np.abs(out - ref)) <= 1e-14
    assert np.all(out >= 0.0)
    assert abs(out.sum() - (P[-1] - P[0])) <= 1e-14
    assert np.all(out[ref == 0.0] == 0.0)
    assert np.array_equal(out > 0.0, ref > 0.0)
    return out


def test_binning_monotone_knots_edges_atoms_and_clipped_ends():
    """Zero gaps, knots on cell edges, atoms on edges and at hi, and runs of
    knots clipped to lo/hi all bin as the dense overlap formula does, with
    equal or unequal segment masses."""
    grid = Grid(Interval(-1.0, 2.0), 12)
    e = grid.edges
    rng = np.random.default_rng(8)
    knots = np.sort(np.concatenate([
        np.full(4, grid.interval.lo),            # clipped lower end
        e[[3, 3, 3, 5, 6, 6]],                   # atoms and zero gaps on edges
        rng.uniform(e[6], e[9], 20),
        np.full(5, grid.interval.hi),            # atoms at hi
    ]))
    out = _check_binning(knots, grid)
    # the atom on edge 3 goes right, the atoms at hi to the last cell
    assert out[3] > 0.0 and out[-1] >= 4.0 / (knots.size - 1)
    G = QuantileFn(knots, grid.interval)
    d = quantile_to_density(G, grid)
    np.testing.assert_allclose(d.masses, out / out.sum(), rtol=0.0, atol=1e-14)
    P = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 1.0, knots.size - 1))])
    _check_binning(knots, grid, P / P[-1])


def test_binning_leaves_untouched_cells_exactly_empty():
    """A quantile supported inside [0.3, 0.6] gives exact zeros elsewhere."""
    grid = Grid(Interval(0.0, 1.0), 40)
    knots = np.linspace(0.3, 0.6, 97)
    d = quantile_to_density(QuantileFn(knots, grid.interval), grid)
    outside = (grid.edges[1:] <= 0.3) | (grid.edges[:-1] >= 0.6)
    assert np.all(d.values[outside] == 0.0)
    assert np.all(d.values[~outside] > 0.0)
    _check_binning(knots, grid)


def test_binning_knots_a_hair_from_an_edge():
    """Knots one ulp either side of a cell edge keep the overlap formula's
    sliver masses and exact zeros, also where ``floor((x - lo) / delta)``
    lands in the neighbouring cell (seven such edges on this grid)."""
    grid = Grid(Interval(-3.3, 2.0), 12)
    for e in grid.edges[1:-1]:
        below, above = np.nextafter(e, -np.inf), np.nextafter(e, np.inf)
        for knots in ([e - 1e-3, above], [below, e + 1e-3], [e, e + 1e-3], [e - 2e-3, e],
                      [e - 2e-3, e - 1e-3, below, e, above, e + 1e-3]):
            _check_binning(np.array(knots), grid)


def test_atom_on_an_interior_edge_goes_to_the_cell_on_its_right():
    """An atom on an interior edge lands in the cell right of it, also on the
    edges 1, 5 and 10 of this grid, where ``floor((x - lo) / delta)`` rounds
    down into the cell on the left."""
    grid = Grid(Interval(-3.3, 2.0), 12)
    for i in (1, 5, 10):
        assert math.floor((grid.edges[i] - grid.interval.lo) / grid.delta) == i - 1
        knots = np.array([grid.interval.lo, grid.edges[i], grid.edges[i], grid.interval.hi])
        want = np.concatenate([np.full(i, 1.0 / (3 * i)), np.full(grid.n - i, 1.0 / (3 * (grid.n - i)))])
        want[i] += 1.0 / 3.0
        d = quantile_to_density(QuantileFn(knots, grid.interval), grid)
        np.testing.assert_allclose(d.masses, want, rtol=0.0, atol=1e-14)
        _check_binning(knots, grid)


def test_quantile_to_density_bins_a_tolerated_decrease_as_an_atom():
    """``QuantileFn`` admits decreases of up to 1e-12; the binning makes the
    knots non-decreasing first, so such a pair bins as an atom."""
    grid = Grid(Interval(0.0, 1.0), 4)
    G = QuantileFn(np.array([0.0, 0.3, 0.5 + 4e-13, 0.5 - 4e-13, 0.9, 1.0]), grid.interval)
    d = quantile_to_density(G, grid)
    np.testing.assert_allclose(d.masses, [1 / 6, 7 / 30, 13 / 40, 11 / 40], rtol=0.0, atol=1e-12)


def test_quantile_to_density_keeps_the_digits_of_one_segment_cells():
    """Cells whose edges are knots hold whole segments, and their masses are
    the segment counts over ``m - 1`` to 1e-15 relative, also for the cells
    of one segment at the top, where the probabilities ``j/(m-1)`` lie next
    to 1 (1.3e-12 off when the CDF is read in probabilities; 1.1e-13 off
    when segments were scattered over cells)."""
    grid = Grid(Interval(0.0, 1.0), 8)
    counts = np.array([3001, 7001, 5003, 9001, 4001, 1, 1, 1])
    knots = np.concatenate([np.linspace(a, b, c, endpoint=False) for a, b, c
                            in zip(grid.edges[:-1], grid.edges[1:], counts)] + [[1.0]])
    assert np.array_equal(knots[np.concatenate([[0], np.cumsum(counts)])], grid.edges)
    d = quantile_to_density(QuantileFn(knots, grid.interval), grid)
    np.testing.assert_allclose(d.masses, counts / counts.sum(), rtol=1e-15, atol=0.0)


def test_pushforward_refuses_a_decreasing_map():
    """The image is binned from a monotone CDF, so a map that decreases
    anywhere is an error."""
    grid = Grid(Interval(0.0, 1.0), 16)
    mu = uniform_density(grid)
    T = grid.nodes.copy()
    T[7], T[8] = T[8], T[7]
    with pytest.raises(ValueError, match="non-decreasing"):
        pushforward(T, mu)
    with pytest.raises(ValueError, match="non-decreasing"):
        pushforward(grid.nodes[::-1].copy(), mu)


def test_quantile_to_density_memory_is_linear():
    """n = 16384 cells and m = 65536 knots bin holding at most 5 arrays of m
    floats at once, as traced by ``tracemalloc`` (7.63 when the binning
    scattered segments over cells; 4.31 reading the CDF at the cell edges):
    the clipped knots and the cumulated segment masses, the rest n-sized."""
    grid = Grid(Interval(0.0, 1.0), 16384)
    G = QuantileFn(np.sort(np.random.default_rng(10).beta(2.0, 5.0, 65536)), grid.interval)
    tracemalloc.start()
    try:
        d = quantile_to_density(G, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert peak / (8.0 * G.m) <= 5.0
