"""Optimal transport on the line: quantile formulas, exact LP oracle, duality.

Two independent routes to the transport cost are kept side by side on
purpose: the quantile (monotone rearrangement) route used by the solver, and
an exact linear-programming oracle on atomized measures used to cross-check
it.  The LP's answer is the monotone (north-west-corner staircase) coupling
of the position-sorted atoms, with potentials read off the staircase and a
certified duality gap; a cost for which that coupling is not optimal is
refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .measures import DiscreteDensity, density_to_quantile

__all__ = [
    "CostSpec",
    "TransportPlan",
    "PotentialPair",
    "w2_squared_1d",
    "wasserstein_cost_1d",
    "solve_lp",
    "c_transform",
    "monotone_map_1d",
    "kantorovich_potential_1d",
    "quantile_resolution",
]

MAX_LP_ATOMS = 512


def quantile_resolution(n: int) -> int:
    """Default quantile resolution for cost evaluation on an n-cell grid."""
    return 16 * n


_FD_STEP = 1e-6  # relative step of _fd_derivative


def _fd_derivative(fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """Central difference of ``fn`` in its first argument, step ``1e-6 (1 + |t|)``;
    further arguments pass through.  The one difference rule on the real line:
    custom costs, kernels and potentials, and ``C''`` of a custom cost."""

    def deriv(t: np.ndarray, *args) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        h = np.abs(t)
        h += 1.0
        h *= _FD_STEP  # 1e-6 (1 + |t|), in one buffer
        out = np.asarray(fn(t + h, *args), dtype=float) - np.asarray(fn(t - h, *args), dtype=float)
        h *= 2.0
        out /= h
        return out

    return deriv


@dataclass(frozen=True)
class CostSpec:
    """Translation-invariant transport cost ``c(x, y) = C(x - y)``.

    ``C_second`` is ``C''`` in closed form, given for ``quadratic`` and
    ``power``.  It is None for a ``convex_difference`` cost; the quantile
    solver takes the central difference of ``C_prime`` (``_fd_derivative``)
    in its place.

    Building a cost probes nothing.  ``strictly_convex_on(radius)`` probes
    ``C`` for strict convexity on ``[-radius, radius]``; operations that rely
    on monotone couplings call ``require_strictly_convex`` with their own
    difference range and raise ``cost not strictly convex`` when it fails.
    """

    C: Callable[[np.ndarray], np.ndarray]
    C_prime: Callable[[np.ndarray], np.ndarray]
    kind: str = "convex_difference"
    C_second: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)

    @staticmethod
    def quadratic() -> "CostSpec":
        """The classical cost ``c(x, y) = |x - y|^2 / 2``, with ``C'' = 1``."""
        return CostSpec(
            C=lambda t: 0.5 * np.square(t),
            C_prime=lambda t: np.asarray(t, dtype=float),
            kind="quadratic",
            C_second=lambda t: np.ones(np.shape(t)),
        )

    @staticmethod
    def convex_difference(
        C: Callable[[np.ndarray], np.ndarray],
        C_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> "CostSpec":
        """Cost from a user-supplied ``C`` (derivative optional, FD fallback)."""
        return CostSpec(C=C, C_prime=C_prime or _fd_derivative(C), kind="convex_difference")

    @staticmethod
    def power(p: float) -> "CostSpec":
        """``C(t) = |t|^p / p`` with ``p > 1`` (strictly convex)."""
        if not 1.0 < p < math.inf:
            raise ValueError("power cost needs a finite p > 1")

        def C_second(t: np.ndarray) -> np.ndarray:
            # (p-1)|t|^(p-2), with |t| floored at the difference step: for
            # p < 2 C'' is infinite at t = 0, where every cold start begins
            a = np.maximum(np.abs(t), _FD_STEP)
            a **= p - 2.0
            a *= p - 1.0
            return a

        return CostSpec(
            C=lambda t: np.abs(t) ** p / p,
            C_prime=lambda t: np.abs(t) ** (p - 1.0) * np.sign(t),
            kind="convex_difference",
            C_second=C_second,
        )

    def strictly_convex_on(self, radius: float) -> bool:
        """Whether ``C`` has positive second differences on an 81-point grid
        of ``[-radius, radius]``."""
        t = np.linspace(-radius, radius, 81)
        h = t[1] - t[0]
        vals = np.asarray(self.C(t), dtype=float)
        if not np.all(np.isfinite(vals)):
            return False
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        return bool(np.all(second > 1e-12 * h * h))

    def require_strictly_convex(self, radius: float = 2.0) -> None:
        if not self.strictly_convex_on(max(radius, 1e-6)):
            raise ValueError("cost not strictly convex")

    def cost_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.asarray(self.C(x[:, None] - y[None, :]), dtype=float)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix between weighted atom lists."""

    source_weights: np.ndarray
    source_points: np.ndarray
    target_weights: np.ndarray
    target_points: np.ndarray
    matrix: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.matrix, dtype=float)
        a = np.asarray(self.source_weights, dtype=float)
        b = np.asarray(self.target_weights, dtype=float)
        if g.shape != (a.size, b.size):
            raise ValueError("plan shape must match atom counts")
        if np.any(g < -1e-12):
            raise ValueError("plan entries must be non-negative")
        if np.max(np.abs(g.sum(axis=1) - a)) > 1e-10 or np.max(np.abs(g.sum(axis=0) - b)) > 1e-10:
            raise ValueError("plan marginals must match the atom weights within 1e-10")

    def cost(self, cost_matrix: np.ndarray) -> float:
        return float(np.sum(self.matrix * cost_matrix))


@dataclass(frozen=True)
class PotentialPair:
    """Kantorovich potentials ``(phi, phi^c)`` anchored at the first atom,
    ``phi[0] = 0``."""

    phi: np.ndarray
    phi_c: np.ndarray

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=float)
        if abs(phi[0]) > 1e-9:
            raise ValueError("phi must vanish at the first atom")

    def feasibility_violation(self, cost: CostSpec, x: np.ndarray, y: np.ndarray) -> float:
        """max over (i, j) of phi_i + phi_c_j - c(x_i, y_j)."""
        cm = cost.cost_matrix(x, y)
        return float(np.max(self.phi[:, None] + self.phi_c[None, :] - cm))

    def dual_value(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(a, self.phi) + np.dot(b, self.phi_c))


def w2_squared_1d(mu: DiscreteDensity, nu: DiscreteDensity, m: Optional[int] = None) -> float:
    """Squared 2-Wasserstein distance via quantiles, ``sum (G_j - H_j)^2 / m``:
    twice the quadratic ``wasserstein_cost_1d``."""
    return 2.0 * wasserstein_cost_1d(mu, nu, CostSpec.quadratic(), m)


def wasserstein_cost_1d(
    mu: DiscreteDensity, nu: DiscreteDensity, cost: CostSpec, m: Optional[int] = None
) -> float:
    """Monotone-coupling transport cost ``sum C(H_j - G_j) / m``.

    Valid (and optimal) only for strictly convex ``C``; refuses otherwise.
    """
    if m is None:
        m = quantile_resolution(max(mu.grid.n, nu.grid.n))
    H = density_to_quantile(mu, m).values
    G = density_to_quantile(nu, m).values
    radius = max(float(np.max(np.abs(H - G))), 1e-3)
    cost.require_strictly_convex(radius)
    return float(np.sum(cost.C(H - G)) / m)


def _staircase(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``n + m - 1`` cells ``i * m + j`` of the north-west-corner (monotone)
    coupling in walk order, and their masses.  On a tie of cumulative weights
    the walk steps down first, so zero-weight atoms keep a cell and the cells
    span the LP."""
    A, B = np.cumsum(a), np.cumsum(b)
    ends = np.concatenate([A[:-1], B[:-1]])
    order = np.argsort(ends, kind="stable")
    i = np.concatenate([[0], np.cumsum(order < a.size - 1)])
    mass = np.diff(ends[order], prepend=0.0, append=max(A[-1], B[-1]))
    return i * b.size + np.arange(i.size) - i, mass


def solve_lp(
    a: np.ndarray,
    x: np.ndarray,
    b: np.ndarray,
    y: np.ndarray,
    cost: Optional[CostSpec] = None,
    cost_matrix: Optional[np.ndarray] = None,
) -> tuple[TransportPlan, PotentialPair, float]:
    """Exact transport LP between weighted atoms; returns plan, duals, value.

    Either a ``CostSpec`` or an explicit cost matrix must be given (the
    matrix form admits non-interval atom sets, e.g. product couplings);
    ``x`` and ``y`` give one position per weight either way.  The plan is
    the monotone coupling: the ``_staircase`` of the atoms sorted by
    position, mapped back to the caller's order.  Its potentials solve
    ``u_i + v_j = c[i, j]`` on the staircase cells, a cumulative sum over
    the steps down; ``phi = u - u[0]`` vanishes at atom 0 and ``phi_c`` is
    its exact c-transform, so the pair is dual feasible.  A duality gap
    within 1e-9 (1 + |value|) then proves the plan optimal by weak duality,
    whatever the cost: so it is for any cost convex in ``x - y``, whose
    sorted matrix is Monge (Aggarwal et al. 1987).  A larger gap means the
    monotone coupling is not optimal for this cost (a concave or
    unstructured one, say), and ``solve_lp`` raises ``ValueError``.  The
    certificate is that of the costs scaled by the power of two that brings
    their largest magnitude into [0.5, 1), so that it holds at any cost
    scale; the value and the potentials are scaled back, which is exact.
    """
    a, b, x, y = (np.asarray(v, dtype=float) for v in (a, b, x, y))
    n, m = a.size, b.size
    if not (a.ndim == b.ndim == 1 and x.shape == a.shape and y.shape == b.shape):
        raise ValueError("positions and weights must be 1-D, one position per weight")
    if n > MAX_LP_ATOMS or m > MAX_LP_ATOMS:
        raise ValueError(f"LP oracle caps atom counts at {MAX_LP_ATOMS}")
    if not (abs(a.sum() - 1.0) <= 1e-9 and abs(b.sum() - 1.0) <= 1e-9):  # NaN fails too
        raise ValueError("atom weights must each sum to one")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("atom weights must be non-negative")
    if cost_matrix is None:
        if cost is None:
            raise ValueError("either cost or cost_matrix is required")
        cm = cost.cost_matrix(x, y)
    else:
        cm = np.asarray(cost_matrix, dtype=float)
        if cm.shape != (n, m):
            raise ValueError("cost matrix shape must be (len(a), len(b))")
    if not np.all(np.isfinite(cm)):
        raise ValueError("cost matrix must be finite")

    # the gap certificate is absolute: certify the LP of cm * 2^-e, max |c| in
    # [0.5, 1), then scale back, exactly
    e = math.frexp(float(np.max(np.abs(cm))))[1]
    cm = np.ldexp(cm, -e)
    xo, yo = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    cells, mass = _staircase(a[xo], b[yo])
    i, j = np.divmod(cells, m)
    down = np.diff(i) == 1
    i, j = xo[i], yo[j]
    plan_matrix, cell_cost = np.zeros((n, m)), cm[i, j]
    plan_matrix[i, j] = mass
    value = float(np.dot(mass, cell_cost))
    # a step down from (i, j) sets u[i + 1] = u[i] + c[i + 1, j] - c[i, j]
    u = np.empty(n)
    u[xo] = np.concatenate([[0.0], np.cumsum(np.diff(cell_cost)[down])])
    phi = u - u[0]
    phi_c = np.min(cm - phi[:, None], axis=0)
    gap = abs(value - (np.dot(a, phi) + np.dot(b, phi_c)))
    if gap > 1e-9 * (1.0 + abs(value)):
        raise ValueError(
            f"the monotone coupling is not optimal for this cost: its duality gap "
            f"{gap:.3e} (costs scaled into [0.5, 1)) exceeds the 1e-9 certificate"
        )
    pair = PotentialPair(phi=np.ldexp(phi, e), phi_c=np.ldexp(phi_c, e))
    plan = TransportPlan(
        source_weights=a, source_points=x, target_weights=b, target_points=y, matrix=plan_matrix
    )
    return plan, pair, math.ldexp(value, e)


def _range_minima(
    value: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cols: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of ``value(rows, col)`` over ``rows = lo..hi`` for each column,
    and its first (smallest) minimizing row.  Each flat pass takes a run of
    whole columns with at most ``_RANGE_ENTRIES`` entries in all (one column
    alone when its range is longer), so the temporaries stay bounded; each
    column's entries are the same whatever the runs."""
    counts = hi - lo + 1
    ends = np.cumsum(counts)
    mins, args = np.empty(cols.size), np.empty(cols.size, dtype=np.intp)
    start = 0
    while start < cols.size:
        limit = ends[start] - counts[start] + _RANGE_ENTRIES
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        c = counts[start:stop]
        starts = np.cumsum(c) - c
        owner = np.repeat(np.arange(c.size), c)
        rows = np.arange(int(c.sum())) - starts[owner] + lo[start:stop][owner]
        vals = value(rows, cols[start:stop][owner])
        run_mins = np.minimum.reduceat(vals, starts)
        hits = np.flatnonzero(vals == run_mins[owner])
        mins[start:stop], args[start:stop] = run_mins, rows[hits[np.searchsorted(hits, starts)]]
        start = stop
    return mins, args


# below this many entries one dense block beats the divide and conquer
_DENSE_ENTRIES = 1 << 15
# at most this many entries in one flat pass of _range_minima (bounded temporaries)
_RANGE_ENTRIES = 1 << 13


def c_transform(
    phi: np.ndarray, cost: CostSpec, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Exact c-transform ``phi^c(y_j) = min_i c(x_i, y_j) - phi(x_i)``.

    Requires a strictly convex ``C`` (raises ``cost not strictly convex``
    otherwise, probing on the range of ``x - y``).  Then, with ``x`` and
    ``y`` sorted, ``C(x_i - y_j) - phi_i`` is a Monge array for any ``phi``
    and the first minimizing row is non-decreasing in ``j`` (Aggarwal et
    al. 1987).  Divide and conquer over the columns, one vectorised level at
    a time, finds the minimizing row of each block's middle column and
    splits the block's row range there, down to single columns; empty
    blocks are dropped at each level.  That costs O((n_x + n_y) log n_y)
    time and O(n_x + n_y) memory, never an ``n_x x n_y`` array (arrays of
    at most 2^15 entries are minimized in one dense block,
    ``cost.cost_matrix``): about fourteen arrays of ``max(n_x, n_y)``
    entries, and the temporaries of one pass of ``_range_minima`` over at
    most 2^13 entries.  Every entry is evaluated as in the dense formula, so
    the minima are exact, not interpolated.
    """
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.shape != x.shape or x.ndim != 1 or y.ndim != 1 or x.size == 0:
        raise ValueError("c_transform needs 1-D x (non-empty), matching phi, and 1-D y")
    if not np.all(np.isfinite(phi)):
        raise ValueError("c_transform needs finite phi")
    if y.size == 0:
        return np.empty(0)
    cost.require_strictly_convex(
        max(float(x.max() - y.min()), float(y.max() - x.min()), 1e-3)
    )
    if x.size * y.size <= _DENSE_ENTRIES:
        return np.min(cost.cost_matrix(x, y) - phi[:, None], axis=0)
    xo, yo = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    xs, ps, ys = x[xo], phi[xo], y[yo]

    def value(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.asarray(cost.C(xs[rows] - ys[cols]), dtype=float) - ps[rows]

    out = np.empty(y.size)
    # open blocks: columns a..b-1 (never empty) whose minimizing rows lie in rlo..rhi
    a, b = np.array([0]), np.array([y.size])
    rlo, rhi = np.array([0]), np.array([x.size - 1])
    while a.size:
        mid = (a + b) // 2
        out[mid], arg = _range_minima(value, mid, rlo, rhi)
        a, b = np.concatenate([a, mid + 1]), np.concatenate([mid, b])
        rlo, rhi = np.concatenate([rlo, arg]), np.concatenate([arg, rhi])
        keep = b > a
        a, b, rlo, rhi = a[keep], b[keep], rlo[keep], rhi[keep]
    result = np.empty(y.size)
    result[yo] = out
    return result


def monotone_map_1d(mu: DiscreteDensity, nu: DiscreteDensity) -> np.ndarray:
    """Monotone rearrangement ``T = G_nu o F_mu`` at the source grid nodes."""
    if np.any(mu.values <= 0.0):
        raise ValueError("source density must be positive")
    return nu.quantile(mu.cdf(mu.grid.nodes))


def kantorovich_potential_1d(mu: DiscreteDensity, nu: DiscreteDensity,
                             cost: CostSpec) -> PotentialPair:
    """Kantorovich potentials from the monotone map.

    Integrates ``phi'(x) = C'(x - T(x))`` by the trapezoid rule along the
    grid nodes from ``phi = 0`` at the leftmost node (the pair's anchor),
    and completes the pair with the exact ``c_transform`` over the
    nodes.  That transform refuses a cost that is not strictly convex on the
    nodes' difference range (``cost not strictly convex``), the condition
    under which the monotone map is optimal.  O(n log n) time and O(n)
    memory on an ``n``-cell grid.
    """
    T = monotone_map_1d(mu, nu)
    nodes = mu.grid.nodes
    slope = np.asarray(cost.C_prime(nodes - T), dtype=float)
    phi = np.concatenate(
        [[0.0], np.cumsum(0.5 * (slope[:-1] + slope[1:]) * np.diff(nodes))]
    )
    phi_c = c_transform(phi, cost, nodes, nodes)
    return PotentialPair(phi=phi, phi_c=phi_c)
