"""Discrete measures on an interval: grids, densities, quantile functions.

Conventions used throughout the package:

* The action space is a compact interval ``[lo, hi]`` partitioned into ``n``
  equal cells.  Densities are piecewise constant on cells and carry their
  value at the cell midpoint (the grid *node*).
* Quantile functions are sampled on the endpoint-inclusive probability grid
  ``p_j = j/(m-1)``, ``j = 0..m-1``.  With this choice the quantile of the
  uniform density is exactly the identity, the monotone-rearrangement
  objective of the solver is an exact Riemann sum, and pinned supports
  (``support_mode="fixed_endpoints"``) are representable exactly.
* ``density_to_quantile`` and ``quantile_to_density`` are inverse to each
  other up to O(1/m) in L1, exactly for piecewise-linear quantiles.
* ``quantile_to_density`` and ``pushforward`` share one binning routine that
  splits uniform segments over cells by overlap length in O(n + m) time and
  memory.  A degenerate segment is an atom in the cell of its midpoint
  (``Grid.cell_index``): on an interior edge it goes to the cell on the
  right, at ``hi`` to the last cell.  Cells no segment reaches are exactly 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "Interval",
    "Grid",
    "DiscreteDensity",
    "QuantileFn",
    "SUPPORT_MODES",
    "uniform_density",
    "gaussian_truncated_density",
    "two_bumps_density",
    "density_from_values",
    "density_to_quantile",
    "quantile_to_density",
    "pushforward",
]

SUPPORT_MODES = ("free", "fixed_endpoints")

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[lo, hi]`` with positive length."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.hi > self.lo:
            raise ValueError("interval must satisfy hi > lo")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n >= 2`` cells over an interval.

    Cell ``i`` is ``[lo + i*delta, lo + (i+1)*delta)`` with node (midpoint)
    ``lo + (i + 1/2)*delta``.
    """

    interval: Interval
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("grid needs at least n >= 2 cells")

    @property
    def delta(self) -> float:
        return self.interval.length / self.n

    @property
    def nodes(self) -> np.ndarray:
        d = self.delta
        return self.interval.lo + d * (np.arange(self.n) + 0.5)

    @property
    def edges(self) -> np.ndarray:
        return self.interval.lo + self.delta * np.arange(self.n + 1)

    def cell_index(self, x: np.ndarray) -> np.ndarray:
        """Index of the cell containing each point (points at hi go to the last cell)."""
        x = np.asarray(x, dtype=float)
        i = np.floor((x - self.interval.lo) / self.delta).astype(int)
        return np.clip(i, 0, self.n - 1)


@dataclass(frozen=True)
class DiscreteDensity:
    """Piecewise-constant probability density on a grid.

    ``values[i]`` is the density on cell ``i``; masses ``values * delta``
    must sum to one within 1e-12.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n,):
            raise ValueError(
                f"density needs one value per cell: got {v.shape}, grid has n={self.grid.n}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite")
        if np.any(v < 0):
            raise ValueError("density values must be non-negative")
        mass = float(v.sum() * self.grid.delta)
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(
                f"density must integrate to one (within {_MASS_TOL}); got {mass!r}"
            )

    @property
    def masses(self) -> np.ndarray:
        return self.values * self.grid.delta

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Piecewise-linear CDF evaluated at arbitrary points."""
        x = np.asarray(x, dtype=float)
        edges = self.grid.edges
        cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        cum = cum / cum[-1]
        i = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, self.grid.n - 1)
        frac = (x - edges[i]) / self.grid.delta
        out = cum[i] + np.clip(frac, 0.0, 1.0) * (cum[i + 1] - cum[i])
        out = np.where(x <= edges[0], 0.0, out)
        out = np.where(x >= edges[-1], 1.0, out)
        return out

    def quantile(self, p: np.ndarray) -> np.ndarray:
        """Generalized inverse CDF, ``G(p) = inf { x : F(x) >= p }``.

        ``G(0)`` is the infimum of the support so that ``G`` is the
        increasing limit of ``G(p)`` as ``p -> 0+``.
        """
        p = np.asarray(p, dtype=float)
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        edges = self.grid.edges
        cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        cum = cum / cum[-1]
        i = np.searchsorted(cum, p, side="left")
        i = np.clip(i, 1, self.grid.n)
        denom = cum[i] - cum[i - 1]
        safe = np.where(denom > 0.0, denom, 1.0)
        out = edges[i - 1] + np.where(denom > 0.0, (p - cum[i - 1]) / safe, 0.0) * self.grid.delta
        positive = self.values > 0.0
        support_lo = edges[int(np.argmax(positive))]
        return np.where(p == 0.0, support_lo, out)


@dataclass(frozen=True)
class QuantileFn:
    """Quantile function sampled at probabilities ``j/(m-1)``, ``j = 0..m-1``.

    Values must be finite and non-decreasing, and in ``fixed_endpoints`` mode
    start at ``interval.lo`` and end at ``interval.hi``.  Values outside the
    interval are not refused here: each consumer clips them or checks them.
    """

    values: np.ndarray
    interval: Interval
    support_mode: str = "free"

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("quantile needs at least m >= 2 values")
        if not np.all(np.isfinite(v)):
            raise ValueError("quantile values must be finite")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("quantile values must be non-decreasing")
        if self.support_mode not in SUPPORT_MODES:
            raise ValueError(f"unknown support_mode {self.support_mode!r}")
        if self.support_mode == "fixed_endpoints":
            if abs(v[0] - self.interval.lo) > 1e-9 or abs(v[-1] - self.interval.hi) > 1e-9:
                raise ValueError(
                    "fixed_endpoints quantile must start at interval.lo and end at interval.hi"
                )

    @property
    def m(self) -> int:
        return int(self.values.size)

    @property
    def probabilities(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.m)


def uniform_density(grid: Grid) -> DiscreteDensity:
    """Uniform probability density on the grid's interval."""
    return DiscreteDensity(grid, np.full(grid.n, 1.0 / grid.interval.length))


def density_from_values(grid: Grid, values: Iterable[float]) -> DiscreteDensity:
    """Density from raw non-negative cell values, normalized to unit mass.

    Finite values whose sum overflows are first divided by their maximum;
    values with a finite sum are normalized as they are."""
    v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if v.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} values, got {v.shape}")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError("density values must be finite and non-negative")
    with np.errstate(over="ignore"):
        total = v.sum() * grid.delta
    if not np.isfinite(total):
        v = v / v.max()
        total = v.sum() * grid.delta
    if total <= 0:
        raise ValueError("density values must carry positive mass")
    return DiscreteDensity(grid, v / total)


def gaussian_truncated_density(grid: Grid, mean: float, sigma: float) -> DiscreteDensity:
    """Gaussian restricted to the grid interval and renormalized."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    z = (grid.nodes - mean) / sigma
    return density_from_values(grid, np.exp(-0.5 * z * z))


def two_bumps_density(grid: Grid) -> DiscreteDensity:
    """Deterministic bimodal density (two Gaussian bumps at 1/4 and 3/4 span)."""
    iv = grid.interval
    c1 = iv.lo + 0.25 * iv.length
    c2 = iv.lo + 0.75 * iv.length
    s = 0.08 * iv.length
    v = np.exp(-0.5 * ((grid.nodes - c1) / s) ** 2) + np.exp(-0.5 * ((grid.nodes - c2) / s) ** 2)
    return density_from_values(grid, v)


def density_to_quantile(nu: DiscreteDensity, m: int) -> QuantileFn:
    """Sample the generalized inverse CDF of ``nu`` at ``j/(m-1)``."""
    if m < 2:
        raise ValueError("quantile resolution m must be >= 2")
    p = np.linspace(0.0, 1.0, m)
    return QuantileFn(nu.quantile(p), nu.grid.interval)


def _bin_segments(
    left: np.ndarray, right: np.ndarray, mass: np.ndarray, grid: Grid
) -> np.ndarray:
    """Cell masses of a measure made of uniform segments (atoms if degenerate).

    Segment ``k`` spreads ``mass[k]`` uniformly over ``[left[k], right[k]]``
    and is split across cells proportionally to overlap length, so the
    binning is mass-exact.  A segment of width ``<= 1e-15 max(1, L)`` is an
    atom and goes whole to ``grid.cell_index`` of its midpoint: an atom on an
    interior edge goes to the cell on its right, an atom at ``hi`` to the
    last cell.  Segments may overlap (non-monotone maps) and must lie inside
    the grid interval (callers validate and clip).

    Runs in O(n + k) time and memory for ``k`` segments on ``n`` cells: the
    first and last (partial) cells of each segment are accumulated directly,
    and its run of full cells goes into a difference array of densities
    integrated by one ``cumsum``.  No mass is negative, and a cell that no
    segment touches is exactly 0.  Runs of monotone knots never overlap, so
    that sum is exact; where runs of a non-monotone map overlap it carries
    the rounding of the heaviest overlapping density.
    """
    n, edges = grid.n, grid.edges
    atom = right - left <= 1e-15 * max(1.0, grid.interval.length)
    l, r, w = left[~atom], right[~atom], mass[~atom]
    width = r - l
    # first cell: e_a <= l < e_{a+1}; last cell: e_b < r <= e_{b+1}.  The
    # floor estimate is off by at most one; comparing with the edges settles it
    a = grid.cell_index(l)
    a += (l >= edges[a + 1]).astype(int) - (l < edges[a])
    b = grid.cell_index(r)
    b += (r > edges[b + 1]).astype(int) - (r <= edges[b])
    a, b = np.clip(a, 0, n - 1), np.clip(b, 0, n - 1)
    split = a < b
    # partial cells: the whole segment if it fits in one cell, else its two ends
    head = np.where(split, w * ((edges[a + 1] - l) / width), w)
    tail = np.where(split, w * (1.0 - (edges[b] - l) / width), 0.0)
    out = np.bincount(
        np.concatenate([grid.cell_index(0.5 * (left[atom] + right[atom])), a, b]),
        np.concatenate([mass[atom], head, tail]),
        minlength=n,
    )
    run = b - a > 1
    a, b, density = a[run] + 1, b[run], w[run] / width[run]
    # full cells a..b-1 carry density * delta; cells no run covers stay 0
    covered = np.cumsum(np.bincount(a, minlength=n + 1) - np.bincount(b, minlength=n + 1))
    full = np.cumsum(np.bincount(a, density, n + 1) - np.bincount(b, density, n + 1))
    out += np.where(covered[:n] > 0, np.maximum(full[:n], 0.0) * grid.delta, 0.0)
    return out


def quantile_to_density(G: QuantileFn, grid: Grid) -> DiscreteDensity:
    """Push the uniform law through ``G``: bin the ``m-1`` inter-node segments
    (mass ``1/(m-1)`` each) onto grid cells, split proportionally by overlap.

    O(n + m) time and memory; see ``_bin_segments`` for the atom and edge
    conventions (a run of equal knots is an atom)."""
    v = G.values
    tol = 1e-9 * max(1.0, grid.interval.length)
    if v[0] < grid.interval.lo - tol or v[-1] > grid.interval.hi + tol:
        raise ValueError("quantile leaves domain")
    v = np.clip(v, grid.interval.lo, grid.interval.hi)
    mass = np.full(v.size - 1, 1.0 / (v.size - 1))
    cell_mass = _bin_segments(v[:-1], v[1:], mass, grid)
    return DiscreteDensity(grid, cell_mass / (cell_mass.sum() * grid.delta))


def pushforward(T: np.ndarray, mu: DiscreteDensity) -> DiscreteDensity:
    """Image of ``mu`` under a map given by its values at the grid nodes.

    Each cell's mass is spread over the segment between the map's
    interpolated values at the cell edges (an atom when the segment is
    degenerate), then binned back onto the same grid with proportional
    splitting at cell boundaries so that mass is conserved exactly.  The map
    need not be monotone (segments may overlap).  O(n) time and memory.
    """
    T = np.asarray(T, dtype=float)
    grid = mu.grid
    if T.shape != (grid.n,):
        raise ValueError(f"map needs one value per grid node: got {T.shape}")
    iv = grid.interval
    tol = 1e-9 * max(1.0, iv.length)
    if np.any(T < iv.lo - tol) or np.any(T > iv.hi + tol):
        raise ValueError("map values leave the grid interval")
    T = np.clip(T, iv.lo, iv.hi)
    # map values at cell edges: midpoint interpolation inside, constant at the ends
    edge_vals = np.empty(grid.n + 1)
    edge_vals[1:-1] = 0.5 * (T[:-1] + T[1:])
    edge_vals[0] = T[0]
    edge_vals[-1] = T[-1]
    lo = np.minimum(edge_vals[:-1], edge_vals[1:])
    hi = np.maximum(edge_vals[:-1], edge_vals[1:])
    cell_mass = _bin_segments(lo, hi, mu.masses, grid)
    return DiscreteDensity(grid, cell_mass / (cell_mass.sum() * grid.delta))
