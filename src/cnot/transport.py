"""Optimal transport on the line: quantile formulas, exact LP oracle, duality.

Two independent routes to the transport cost are kept side by side on
purpose: the quantile (monotone rearrangement) route used by the solver, and
an exact linear-programming oracle on atomized measures used to cross-check
it.  The LP also returns dual potentials with a certified duality gap, and
calls HiGHS through scipy's compiled ``_highspy/_core`` extension, loaded
from its file on the first call (``_load_scipy_extension``).
"""
from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from types import ModuleType
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


def _fd_derivative(fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """Central difference of ``fn`` in its first argument, step ``1e-6 (1 + |t|)``;
    further arguments pass through.  The one difference rule on the real line:
    custom costs, kernels and potentials, and the solver's ``C''``."""

    def deriv(t: np.ndarray, *args) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        h = 1e-6 * (1.0 + np.abs(t))
        return (
            np.asarray(fn(t + h, *args), dtype=float) - np.asarray(fn(t - h, *args), dtype=float)
        ) / (2.0 * h)

    return deriv


@dataclass(frozen=True)
class CostSpec:
    """Translation-invariant transport cost ``c(x, y) = C(x - y)``.

    Building a cost probes nothing.  ``strictly_convex_on(radius)`` probes
    ``C`` for strict convexity on ``[-radius, radius]``; operations that rely
    on monotone couplings call ``require_strictly_convex`` with their own
    difference range and raise ``cost not strictly convex`` when it fails.
    """

    C: Callable[[np.ndarray], np.ndarray]
    C_prime: Callable[[np.ndarray], np.ndarray]
    kind: str = "convex_difference"

    @staticmethod
    def quadratic() -> "CostSpec":
        """The classical cost ``c(x, y) = |x - y|^2 / 2``."""
        return CostSpec(
            C=lambda t: 0.5 * np.square(t),
            C_prime=lambda t: np.asarray(t, dtype=float),
            kind="quadratic",
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
        if p <= 1.0:
            raise ValueError("power cost needs p > 1")
        return CostSpec(
            C=lambda t: np.abs(t) ** p / p,
            C_prime=lambda t: np.abs(t) ** (p - 1.0) * np.sign(t),
            kind="convex_difference",
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
    """Squared 2-Wasserstein distance via quantiles, ``sum (G_j - H_j)^2 / m``."""
    if m is None:
        m = quantile_resolution(max(mu.grid.n, nu.grid.n))
    H = density_to_quantile(mu, m).values
    G = density_to_quantile(nu, m).values
    return float(np.sum((G - H) ** 2) / m)


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


def _load_scipy_extension(name: str) -> ModuleType:
    """scipy's compiled module ``name`` (``scipy.linalg._flapack``, say), loaded
    from its file without importing the scipy packages above it.

    Importing a whole scipy package to reach one extension costs tens of
    megabytes and hundreds of modules.  The file sits under the directory of
    scipy's ``__init__`` (``find_spec`` locates it without importing scipy),
    at the path of the dotted name, with one of ``EXTENSION_SUFFIXES``.  The
    module is registered under ``name``, the name scipy imports it under, so
    a later import of its package reuses it: an extension module must not be
    loaded twice.  A module already loaded under ``name`` is returned as it
    is.  Raises whatever breaks the file route (a build that keeps the
    extension elsewhere or cannot load it this way); callers fall back to
    the package import.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    root = os.path.dirname(importlib.util.find_spec("scipy").origin)
    stem = os.path.join(root, *name.split(".")[1:])
    path = next(stem + sx for sx in EXTENSION_SUFFIXES if os.path.isfile(stem + sx))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_HIGHS = "scipy.optimize._highspy._core"


def _highs_solve(
    highs: ModuleType, c: np.ndarray, indptr: np.ndarray, indices: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """``min c.x`` subject to ``A x = rhs``, ``x >= 0`` with the 0/1 matrix
    ``A`` in CSC form, solved by HiGHS with the options
    ``linprog(method="highs")`` passes (presolve on, dual simplex, no
    output); returns ``x``, the row duals and the objective value."""
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(c.size)
    lp.col_upper_ = np.full(c.size, highs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = rhs
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = np.ones(indices.size)
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.output_flag = options.log_to_console = False
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"transport LP failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    return (
        np.array(solution.col_value),
        np.array(solution.row_dual),
        float(solver.getInfo().objective_function_value),
    )


def _linprog_solve(
    c: np.ndarray, indptr: np.ndarray, indices: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """``_highs_solve`` through ``scipy.optimize.linprog``, which loads
    ``scipy.optimize`` and ``scipy.sparse``."""
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    A = csc_array((np.ones(indices.size), indices, indptr), shape=(rhs.size, c.size))
    res = linprog(c, A_eq=A, b_eq=rhs, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res.x, np.asarray(res.eqlin.marginals, dtype=float), float(res.fun)


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
    matrix form admits non-interval atom sets, e.g. product couplings).
    The dual potentials come from the LP equality multipliers; ``phi`` is
    shifted to vanish at atom 0, ``phi_c`` is tightened to the exact
    c-transform, and the duality gap is certified to 1e-9.  HiGHS is called
    through scipy's compiled bindings, loaded from their file on the first
    call (no scipy package is imported); only where that fails does the LP go
    through ``scipy.optimize.linprog``, with the same bits.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = a.size, b.size
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

    # column i * m + j (plan entry (i, j)) holds rows i and n + j
    indptr = np.arange(0, 2 * n * m + 1, 2, dtype=np.int32)
    indices = np.empty(2 * n * m, dtype=np.int32)
    indices[0::2] = np.repeat(np.arange(n, dtype=np.int32), m)
    indices[1::2] = np.tile(np.arange(n, n + m, dtype=np.int32), n)
    args = (cm.ravel(), indptr, indices, np.concatenate([a, b]))
    try:
        highs = _load_scipy_extension(_HIGHS)
    except Exception:  # whatever breaks the file route, linprog is the reference
        flat, duals, value = _linprog_solve(*args)
    else:
        flat, duals, value = _highs_solve(highs, *args)
    plan_matrix = np.clip(flat.reshape(n, m), 0.0, None)
    u = duals[:n]
    phi = u - u[0]
    phi_c = np.min(cm - phi[:, None], axis=0)
    pair = PotentialPair(phi=phi, phi_c=phi_c)
    gap = abs(value - pair.dual_value(a, b))
    if gap > 1e-9 * (1.0 + abs(value)):
        raise RuntimeError(f"LP duality gap {gap:.3e} exceeds certification threshold")
    plan = TransportPlan(
        source_weights=a, source_points=x, target_weights=b, target_points=y, matrix=plan_matrix
    )
    return plan, pair, value


def _range_minima(
    value: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cols: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of ``value(rows, col)`` over ``rows = lo..hi`` for each column,
    and its first (smallest) minimizing row, in one flat pass over all
    ranges."""
    counts = hi - lo + 1
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(cols.size), counts)
    rows = np.arange(int(counts.sum())) - starts[owner] + lo[owner]
    vals = value(rows, cols[owner])
    mins = np.minimum.reduceat(vals, starts)
    hits = np.flatnonzero(vals == mins[owner])
    return mins, rows[hits[np.searchsorted(hits, starts)]]


# below this many entries one dense block beats the divide and conquer
_DENSE_ENTRIES = 1 << 15
_MONGE_BLOCK = 8


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
    splits the block's row range there; blocks of at most 8 columns finish
    with a dense minimum over their row range.  That costs
    O((n_x + n_y) log n_y) time and O(n_x + n_y) memory, never an
    ``n_x x n_y`` array (arrays of at most 2^15 entries are minimized in one
    dense block).  Every entry is evaluated as in the dense formula, so the
    minima are exact, not interpolated.
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
        block = np.asarray(cost.C(x[:, None] - y[None, :]), dtype=float)
        return np.min(block - phi[:, None], axis=0)
    xo, yo = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    xs, ps, ys = x[xo], phi[xo], y[yo]

    def value(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.asarray(cost.C(xs[rows] - ys[cols]), dtype=float) - ps[rows]

    out = np.empty(y.size)
    # open blocks: columns a..b-1 whose minimizing rows lie in rlo..rhi
    a, b = np.array([0]), np.array([y.size])
    rlo, rhi = np.array([0]), np.array([x.size - 1])
    leaves = []
    while True:
        wide = b - a > _MONGE_BLOCK
        leaves.append((a[~wide], b[~wide], rlo[~wide], rhi[~wide]))
        a, b, rlo, rhi = a[wide], b[wide], rlo[wide], rhi[wide]
        if not a.size:
            break
        mid = (a + b) // 2
        out[mid], arg = _range_minima(value, mid, rlo, rhi)
        a, b = np.concatenate([a, mid + 1]), np.concatenate([mid, b])
        rlo, rhi = np.concatenate([rlo, arg]), np.concatenate([arg, rhi])
    a, b, rlo, rhi = (np.concatenate(t) for t in zip(*leaves))
    width = b - a
    cols = np.arange(int(width.sum())) + np.repeat(a - (np.cumsum(width) - width), width)
    out[cols] = _range_minima(value, cols, np.repeat(rlo, width), np.repeat(rhi, width))[0]
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
