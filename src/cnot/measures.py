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
* ``quantile_to_density`` and ``pushforward`` share one binning routine,
  ``_bin_cdf``: both measures are monotone images, given by non-decreasing
  knots and the segment masses between them, and a cell's mass is read off
  their piecewise-linear CDF at its two edges.  An equal pair of knots is an
  atom: on an interior edge it goes to the cell on the right, at ``hi`` to
  the last cell.  Cells no segment reaches are exactly 0.  A map that
  decreases is refused.
"""
from __future__ import annotations

import math
import operator
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


def _is_integer(value) -> bool:
    """Whether ``operator.index`` takes ``value``: Python and numpy integers
    pass, floats (even whole ones) do not."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


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
        if not _is_integer(self.n) or self.n < 2:
            raise ValueError("grid needs an integer n >= 2 cells")

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
        increasing limit of ``G(p)`` as ``p -> 0+``, and ``G(1)`` its
        supremum, the end of the last cell with mass, even where the
        normalised cumulative sum rounds to 1 in an earlier cell.
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
        first, last = np.flatnonzero(self.values > 0.0)[[0, -1]]
        out = np.where(p == 1.0, edges[last] + self.grid.delta, out)
        return np.where(p == 0.0, edges[first], out)


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
    if not _is_integer(m) or m < 2:
        raise ValueError("quantile resolution m must be an integer >= 2")
    p = np.linspace(0.0, 1.0, m)
    return QuantileFn(nu.quantile(p), nu.grid.interval)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array, bit for bit, without the
    ``numpy.ma`` import it costs: its partition (the middle positions and the
    last, where NaN sorts), then the mean of the middle value of an odd count
    or of the two middle values ``a, b`` of an even one, summed from the
    identity as ``np.mean`` sums: ``0.0 + a`` or ``(0.0 + a + b) / 2``.  NaN
    when any value is NaN."""
    v = np.asarray(values, dtype=float)
    h = v.size // 2
    odd = v.size % 2
    part = np.partition(v, [h, -1] if odd else [h - 1, h, -1])
    if np.isnan(part[-1]):
        return math.nan
    return float(0.0 + part[h] if odd else (0.0 + part[h - 1] + part[h]) / 2)


def _bin_cdf(knots: np.ndarray, w: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell masses of the measure that spreads the segment mass ``w[j]``
    evenly from ``knots[j]`` to ``knots[j+1]``, in O(n log m) time.

    ``knots`` are non-decreasing and inside the grid interval; ``w >= 0`` is
    on any scale (the cells sum to it).  An equal pair of knots is an atom:
    on an interior edge it goes to the cell on the right, at ``hi`` to the
    last cell.  Each edge is placed once, by ``searchsorted``, in the
    segment ``s`` that holds it, at the fraction ``f`` of it left of the
    edge.  A cell inside one segment takes ``w_s (f1 - f0)``; any other takes
    its first segment's head, the segments between (a difference of their
    cumulated masses ``P``) and its last segment's tail.  So no mass is
    negative, a light segment keeps its digits and an unreached cell is 0.
    """
    edges, k = grid.edges, knots.size - 1
    P = np.zeros(k + 1)
    np.cumsum(w, out=P[1:])
    j = np.searchsorted(knots, edges)  # first knot at or right of each edge
    j[-1] = k + 1  # hi reads the whole mass: atoms at hi go to the last cell
    s = np.clip(j - 1, 0, k - 1)
    # before the first knot f = 0, past the last f = 1; in between the
    # segment holding an edge has positive width
    f = (j > k).astype(float)
    inner = (j > 0) & (j <= k)
    si = s[inner]
    f[inner] = (edges[inner] - knots[si]) / (knots[si + 1] - knots[si])
    ws = w[s]  # mass of the segment holding each edge
    s0, s1, f0, f1, w0, w1 = s[:-1], s[1:], f[:-1], f[1:], ws[:-1], ws[1:]
    split = P[s1] - P[s0 + 1] + w0 * (1.0 - f0) + w1 * f1
    return np.where(s0 == s1, w0 * (f1 - f0), split)


def quantile_to_density(G: QuantileFn, grid: Grid) -> DiscreteDensity:
    """Push the uniform law through ``G``: each segment from ``G.values[j]``
    to the next knot carries the same mass, binned by ``_bin_cdf`` (a run
    of equal knots is an atom).

    The knots are clipped to the interval and made non-decreasing, so a
    decrease ``QuantileFn`` tolerates (up to 1e-12) bins as an atom.  The
    segment masses are 1, so the cumulated masses count segments and no
    cell loses digits to a difference of probabilities near 1; the
    normalisation divides the count out."""
    v = G.values
    tol = 1e-9 * max(1.0, grid.interval.length)
    if v[0] < grid.interval.lo - tol or v[-1] > grid.interval.hi + tol:
        raise ValueError("quantile leaves domain")
    v = np.clip(v, grid.interval.lo, grid.interval.hi)
    np.maximum.accumulate(v, out=v)
    cell_mass = _bin_cdf(v, np.broadcast_to(1.0, (v.size - 1,)), grid)
    return DiscreteDensity(grid, cell_mass / (cell_mass.sum() * grid.delta))


def pushforward(T: np.ndarray, mu: DiscreteDensity) -> DiscreteDensity:
    """Image of ``mu`` under a non-decreasing map given by its values at the
    grid nodes.

    Each cell's mass is spread over the segment between the map's
    interpolated values at the cell edges (an atom when the segment is
    degenerate): the image's CDF runs linearly between those values, and
    ``_bin_cdf`` bins it back onto the same grid.  A map that decreases
    anywhere is refused.  O(n log n) time, O(n) memory.
    """
    T = np.asarray(T, dtype=float)
    grid = mu.grid
    if T.shape != (grid.n,):
        raise ValueError(f"map needs one value per grid node: got {T.shape}")
    iv = grid.interval
    tol = 1e-9 * max(1.0, iv.length)
    if np.any(T < iv.lo - tol) or np.any(T > iv.hi + tol):
        raise ValueError("map values leave the grid interval")
    if np.any(np.diff(T) < 0.0):
        raise ValueError("map must be non-decreasing")
    T = np.clip(T, iv.lo, iv.hi)
    # map values at cell edges: midpoint interpolation inside, constant at the ends
    edge_vals = np.concatenate([T[:1], 0.5 * (T[:-1] + T[1:]), T[-1:]])
    cell_mass = _bin_cdf(edge_vals, mu.masses, grid)
    return DiscreteDensity(grid, cell_mass / (cell_mass.sum() * grid.delta))
