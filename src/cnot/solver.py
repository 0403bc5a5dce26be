"""Equilibrium computation in quantile coordinates.

The objective

    J(G) = (1/m) sum C(H_j - G_j) + congestion(G) + (1/m) sum v(G_j)
           + (1/(2 m^2)) sum_jk phi(G_j, G_k)

is minimized over non-decreasing ``G`` taking values in the action interval
(``H`` is the quantile of the fixed source measure ``mu``).  The congestion
term is the exact pushforward integral

    sum_j g_j F(1 / s_j),   g_j = G_{j+1} - G_j,   s_j = (m-1) g_j,

which reduces to ``-(1/(m-1)) sum log((m-1) g_j)`` (+ a bookkeeping constant)
for logarithmic congestion.  A second, independent route to the same
equilibria is the damped best-response iteration, which inverts the
first-order condition ``f(nu) = M - phi^c - interaction - v`` pointwise.
"""
from __future__ import annotations

import copy
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from types import ModuleType
from typing import TYPE_CHECKING, Optional

import numpy as np

from .energy import EnergyModel
from .measures import (
    SUPPORT_MODES,
    DiscreteDensity,
    Grid,
    QuantileFn,
    _is_integer,
    _median,
    density_to_quantile,
    quantile_to_density,
)
from .transport import CostSpec, kantorovich_potential_1d

if TYPE_CHECKING:
    from .verify import ResidualReport

__all__ = [
    "Scenario",
    "SolverParams",
    "EquilibriumResult",
    "minimize_quantile",
    "best_response_iterate",
]


@dataclass(frozen=True)
class Scenario:
    """A complete equilibrium problem: source measure, cost, energy, resolution."""

    mu: DiscreteDensity
    cost: CostSpec
    model: EnergyModel
    m: int = 2048
    support_mode: str = "free"

    def __post_init__(self) -> None:
        if self.mu.grid != self.model.grid:
            raise ValueError("scenario source measure and energy model must share a grid")
        if not _is_integer(self.m) or self.m < 2:
            raise ValueError("quantile resolution m must be an integer >= 2")
        if self.support_mode not in SUPPORT_MODES:
            raise ValueError(f"unknown support_mode {self.support_mode!r}")
        if np.any(self.mu.values <= 0.0):
            raise ValueError("source measure must be strictly positive on the grid")

    @property
    def grid(self) -> Grid:
        return self.model.grid

    @property
    def interval(self):
        return self.model.grid.interval

    @property
    def n(self) -> int:
        return self.model.grid.n


def _uniqueness_flags(scenario: Scenario) -> list:
    """The uniqueness-regime conditions ``scenario`` fails, in words; empty
    inside the regime, where every start reaches the one equilibrium."""
    missing = []
    if not scenario.cost.strictly_convex_on(scenario.interval.length):
        missing.append("cost not strictly convex")
    if not scenario.model.congestion.satisfies_mccann:
        missing.append("congestion fails the displacement-convexity probe")
    kernel = scenario.model.kernel
    if kernel is not None and not kernel.declared_convex:
        missing.append("interaction kernel not declared convex")
    potential = scenario.model.potential
    if potential is not None and not potential.declared_convex:
        missing.append("potential not declared convex")
    return missing


@dataclass(frozen=True)
class SolverParams:
    """Projected-Newton stopping parameters: the iteration cap and the
    projected-gradient tolerance, a finite number > 0 (an infinite one would
    accept the start point as converged)."""

    max_iters: int = 5000
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        if (not _is_integer(self.max_iters) or self.max_iters < 1
                or not 0.0 < self.grad_tol < math.inf):
            raise ValueError("solver parameters need an integer max_iters >= 1 "
                             "and a finite grad_tol > 0")


@dataclass(frozen=True)
class EquilibriumResult:
    """Solver output: the equilibrium measure with its certificate numbers.

    ``certificate`` is the ``verify.equilibrium_residual(scenario, nu)``
    report, computed the first time it is read and cached; ``M``,
    ``residual_sup`` and ``residual_eq`` read it.  A caller that reads none
    of these pays nothing for the certificate; an error the certificate
    raises surfaces on that first read, not from the solve.  ``metadata``
    holds what the solve decided: the final ``projected_gradient`` norm,
    the ``stop_reason``, whether it ``stalled`` and the coarse ``levels``
    its start was solved on (see ``minimize_quantile``); the problem solved
    is ``scenario``.  ``iterations``, ``converged``, ``stop_reason`` and
    ``stalled`` describe the solve at resolution ``scenario.m`` alone;
    ``levels`` holds each coarse level's ``m``, ``iterations``,
    ``converged`` and ``stop_reason``, up to the first that did not
    converge or the last before a start of infinite objective (the solve at
    ``m`` then started from the source quantile).
    """

    nu: DiscreteDensity
    G: QuantileFn
    J_value: float
    iterations: int
    converged: bool
    scenario: Scenario = field(repr=False, compare=False)
    metadata: dict = field(default_factory=dict)

    @cached_property
    def certificate(self) -> ResidualReport:
        from .verify import equilibrium_residual

        return equilibrium_residual(self.scenario, self.nu)

    @property
    def M(self) -> float:
        return self.certificate.M

    @property
    def residual_sup(self) -> float:
        return self.certificate.residual_sup

    @property
    def residual_eq(self) -> float:
        return self.certificate.residual_eq


def _quantile_values(G) -> np.ndarray:
    values = G.values if isinstance(G, QuantileFn) else np.asarray(G, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("quantile needs at least m >= 2 values")
    return np.ascontiguousarray(values, dtype=float)


class _Point:
    """What the objective, its gradient and its curvature share at one strictly
    increasing quantile ``G``: ``u = 1/((m-1) gaps)``, ``F(u)``, the kernel's
    ``moments`` at the one weight ``1/m`` (its curvature's self-pair term,
    ``w^2 d^2 phi/dy dz (y, y)``, reads the weight alone) and the congestion
    energy ``sum_j gaps_j F(u_j)``.  Built once per priced point, it holds three
    quantile-sized arrays (``G``, ``u`` and ``F(u)``) besides the moments;
    the gaps are dropped once the energy is taken, and ``z = H - G`` is
    formed where the cost terms need it.  Built in the solve's error state
    (``_projected_newton``), it sets none."""

    __slots__ = ("G", "u", "F_u", "moments", "congestion")

    def __init__(self, problem: "_QuantileProblem", G: np.ndarray, gaps: np.ndarray):
        self.G = G
        self.u = np.multiply(gaps, problem.m - 1)  # 1 / ((m-1) gaps), in one buffer
        np.divide(1.0, self.u, out=self.u)
        self.F_u = np.asarray(problem.model.congestion.F(self.u), dtype=float)
        self.congestion = float((gaps * self.F_u).sum())
        kernel = problem.model.kernel
        self.moments = kernel.moments(G, 1.0 / problem.m) if kernel is not None else None


class _QuantileProblem:
    """Cached pieces of the objective for one scenario, the source quantile
    ``H`` first; ``anchored`` adds a proximal anchor ``(values, tau)``
    contributing ``(1/(2 tau m)) sum (G - anchor)^2``."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.m = scenario.m
        self.H = density_to_quantile(scenario.mu, scenario.m).values
        self.cost = scenario.cost
        self.model = scenario.model
        self.prox: Optional[tuple[np.ndarray, float]] = None

    def anchored(self, anchor: np.ndarray, tau: float) -> "_QuantileProblem":
        """A copy with the proximal anchor set, sharing ``H``."""
        anchor = np.ascontiguousarray(anchor, dtype=float)
        if anchor.shape != (self.m,) or not 0.0 < tau < math.inf:
            raise ValueError("proximal anchor must have length m and a finite tau > 0")
        problem = copy.copy(self)
        problem.prox = (anchor, float(tau))
        return problem

    def price(self, G: np.ndarray) -> tuple[Optional[_Point], float]:
        """``(point, J)``: the shared pieces at ``G`` and the objective there,
        or ``(None, inf)`` when a gap is ``<= 0``.  The start, every
        line-search trial and ``value`` price a point here."""
        gaps = G[1:] - G[:-1]  # np.diff's subtraction, without its wrapper
        if (gaps <= 0.0).any():
            return None, math.inf
        p = _Point(self, G, gaps)
        gaps = None  # released before the other terms are priced
        m = self.m
        val = float(self.cost.C(self.H - G).sum() / m)
        val += p.congestion
        if self.model.potential is not None:
            val += float(self.model.potential.v(G).sum() / m)
        if self.model.kernel is not None:
            val += self.model.kernel.energy(G, 1.0 / m, p.moments)
        if self.prox is not None:
            anchor, tau = self.prox
            val += float(((G - anchor) ** 2).sum() / (2.0 * tau * m))
        if math.isnan(val):
            raise ValueError("objective produced NaN")
        return p, val

    @np.errstate(over="ignore", divide="ignore")
    def value(self, G: np.ndarray) -> float:
        """Objective at a non-decreasing ``G`` (+inf at a zero gap), in the
        solve's error state (``_projected_newton``)."""
        p, J = self.price(G)
        if p is None and np.any(np.diff(G) < 0.0):
            raise ValueError("quantile values must be non-decreasing")
        return J

    def gradient(self, p: _Point) -> np.ndarray:
        """Exact gradient of the objective at ``p``, in the solve's error
        state (``_projected_newton``); raises when it is not finite."""
        m = self.m
        grad = np.negative(np.asarray(self.cost.C_prime(self.H - p.G), dtype=float))
        grad /= m
        psi = self.model.congestion.gap_slope(p.u, p.F_u)  # F(u) - u F'(u)
        grad[1:] += psi
        grad[:-1] -= psi
        if self.model.potential is not None:
            grad += np.asarray(self.model.potential.v_prime(p.G), dtype=float) / m
        if self.model.kernel is not None:
            grad += self.model.kernel.gradient(p.G, 1.0 / m, p.moments)
        if self.prox is not None:
            anchor, tau = self.prox
            grad += (p.G - anchor) / (tau * m)
        if not np.isfinite(grad).all():
            raise RuntimeError("objective gradient overflowed; refine the resolution")
        return grad

    def curvature(self, p: _Point) -> tuple[np.ndarray, np.ndarray]:
        """Positive-definite tridiagonal surrogate of the objective Hessian.

        Returns ``(diag, sub)``: ``m`` diagonal and ``m - 1`` subdiagonal
        entries.  The congestion term is exactly tridiagonal in the quantile
        values, its band ``(m-1) u^3 f'(u)`` taken from the point's ``u`` and
        ``F(u)`` (``CongestionSpec.gap_curvature``); the separable cost and
        potential terms contribute their second derivatives (clipped to be
        non-negative) on the diagonal: the potential's ``v_second`` (closed
        form for ``poly``) and the cost's ``C_second`` (the constant 1 for
        the quadratic cost, closed form for ``power``, else the spec's central
        difference of ``C_prime``).  Interaction kernels keep only their
        diagonal part, ``w S_2`` plus the self-pair term ``w^2 d^2 phi/dy dz
        (y, y)`` (``InteractionKernel.curvature``).  Entries are clipped to a
        positive range that keeps the tridiagonal Cholesky factorization
        finite — the line search absorbs any remaining model error.  It runs
        in the solve's error state (``_projected_newton``), where ``psi2`` may
        read inf.
        """
        m, G = self.m, p.G
        if self.cost.kind == "quadratic":
            diag = np.full(m, 1.0 / m)  # C'' = 1
        else:
            diag = np.asarray(self.cost.C_second(self.H - G), dtype=float)  # a fresh array
            np.maximum(diag, 0.0, out=diag)
            diag /= m
        if self.model.potential is not None:
            v2 = np.asarray(self.model.potential.v_second(G), dtype=float)
            diag += np.maximum(v2, 0.0) / m
        if self.model.kernel is not None:
            diag += self.model.kernel.curvature(G, 1.0 / m, p.moments)
        psi2 = self.model.congestion.gap_curvature(p.u, p.F_u)
        psi2 *= m - 1
        # in place, each bound first: the bytes of np.where(finite, np.clip(...), _CURV_MAX)
        finite = np.isfinite(psi2)
        np.minimum(_CURV_MAX, np.maximum(0.0, psi2, out=psi2), out=psi2)
        if not finite.all():
            psi2[~finite] = _CURV_MAX
        diag[:-1] += psi2
        diag[1:] += psi2
        if self.prox is not None:
            diag += 1.0 / (self.prox[1] * m)
        np.maximum(_CURV_MIN / m, diag, out=diag)
        return np.minimum(_CURV_MAX, diag, out=diag), np.negative(psi2, out=psi2)


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
    is.  Where any step of the file route fails (a build that keeps the
    extension elsewhere or cannot load it this way), the same module comes
    from ``importlib.import_module(name)``, which imports its packages too.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    try:
        root = os.path.dirname(importlib.util.find_spec("scipy").origin)
        stem = os.path.join(root, *name.split(".")[1:])
        path = next(stem + sx for sx in EXTENSION_SUFFIXES if os.path.isfile(stem + sx))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:  # whatever breaks the file route, the import system is the reference
        return importlib.import_module(name)
    sys.modules[name] = module
    return module


dptsv = _load_scipy_extension("scipy.linalg._flapack").dptsv


def solveh_banded(diag: np.ndarray, sub: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve the tridiagonal system ``(diag, sub) x = rhs`` (``sub`` is overwritten) by
    LAPACK ``dptsv``, as ``scipy.linalg.solveh_banded`` does for a two-row band but
    without its validation layers; None when the matrix is not positive definite.
    ``dptsv`` comes from scipy's LAPACK extension ``scipy.linalg._flapack``, loaded by
    ``_load_scipy_extension``: from its file without importing the
    ``scipy.linalg`` package, or where that fails through the import system.  A later
    ``import scipy.linalg`` reuses the module, so its ``lapack.dptsv`` is this routine."""
    _, _, x, info = dptsv(diag, sub, rhs, overwrite_e=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dptsv")
    return x if info == 0 else None


def isotonic_regression(*args, **kwargs):
    """``scipy.optimize.isotonic_regression``, which loads on the first call.

    No cnot code calls it: it is kept only as a benchmark tracer target and
    goes when the benchmark drops that target (ROADMAP direction 1)."""
    from scipy.optimize import isotonic_regression as pava

    return pava(*args, **kwargs)


def _trial_point(y: np.ndarray, interval, support_mode: str) -> np.ndarray:
    """The box map of the solve, applied to ``y`` in place: ``y`` clipped to
    the interval, with the ends set to the interval ends in
    ``fixed_endpoints`` mode.

    The objective is ``+inf`` at a zero gap, so the monotone constraint
    never binds at a point the solve accepts and only the box can: this map
    gives the start point, every line-search trial and the projected
    gradient of the stop test.  A trial with a gap ``<= 0`` is rejected
    without pricing it; a strictly increasing ``y`` is its own isotonic fit,
    so every trial priced is exactly the clipped monotone projection.
    """
    # The Newton loop clips with the ufunc pair, not ``np.clip``, whose
    # Python-level dispatch costs about twice as much a call at m = 64.  Each
    # bound goes first: on a tie the ufunc returns its second operand, so
    # signed zeros match ``np.clip``.
    v = np.minimum(interval.hi, np.maximum(interval.lo, y, out=y), out=y)
    if support_mode == "fixed_endpoints":
        v[0], v[-1] = interval.lo, interval.hi
    return v


_STEP0 = 1.0  # first trial step of the line search
_BETA = 0.5  # backtracking factor
_SIGMA = 1e-4  # Armijo sufficient-decrease fraction
_MAX_BACKTRACKS = 60
_CURV_MAX = 1e30
_CURV_MIN = 1e-10
_EDGE_TOL = 1e-12

# metadata["stop_reason"] of a solve: the two that count as converged, then
# the two stalls (no backtracked trial accepted; an accepted step too small
# to move G), and max_iters
_CONVERGED = ("grad_tol", "round_off_floor")
_STALLED = ("line_search_failed", "step_vanished")


def _round_off_floor(m: int) -> float:
    """``c eps`` of the round-off floor stop at resolution ``m``: where the
    free-set Newton decrement ``lambda^2`` is at most ``c eps max(1, |J|)``,
    below what the line search can see of J, a solve tries only the full
    Newton step and stops as converged (``round_off_floor``) when the
    Armijo test rejects it.

    ``c`` comes from the rounding of J's sums.  J adds a few component sums
    (cost, congestion, potential, kernel, anchor), each a numpy pairwise
    sum of at most ``m`` terms.  Each term passes through at most
    ``k = 25 + ceil(log2(m / 128))`` roundings in the sum: 15 accumulator
    additions, 3 combining levels and 7 tail additions inside a 128-term
    block, then one per halving above it.  At most 12 more form the term
    (the gap, its scaling and reciprocal, ``F``, the product) and divide and
    join its sum.  To first order one evaluation of J is then off by at most
    ``(k + 12) u S``, with ``u = eps/2`` and ``S`` the sum of the terms'
    magnitudes, taken as ``max(1, |J|)``.  The Armijo test compares two
    such evaluations, and the full Newton step's model decrease is
    ``lambda^2 / 2``; it is lost in their rounding once
    ``lambda^2 / 2 <= 2 (k + 12) u S``, that is ``c = 2 (k + 12)``:
    74 at m <= 128, 90 at m = 32768."""
    k = 25 + max(0, math.ceil(math.log2(m / 128)))
    return 2.0 * (k + 12) * np.finfo(float).eps


def _newton_direction(
    G: np.ndarray,
    grad: np.ndarray,
    diag: np.ndarray,
    sub: np.ndarray,
    scenario: Scenario,
) -> tuple[np.ndarray, float]:
    """Solve the tridiagonal model system for a descent direction; return it
    with the free-set Newton decrement ``lambda^2 = sum_free d_j grad_j``.

    Coordinates pressed against the box (the ``active`` mask) are frozen out
    of the system, their couplings zeroed in ``sub`` (which ``dptsv``
    overwrites anyway), and take diagonally scaled components; the rest are
    the free set, where ``d`` solves the model restricted to it, so
    ``lambda^2`` is ``grad^T H^-1 grad`` there (Bertsekas 1982; Boyd &
    Vandenberghe section 9.5) and the frozen components do not enter it.
    In ``fixed_endpoints`` mode the two ends are constants, not unknowns:
    their components are 0, so they enter neither the descent test nor the
    fallback.  The system is solved by ``solveh_banded``, a direct LAPACK
    ``dptsv`` call (tridiagonal Cholesky) without finiteness passes:
    ``grad`` is checked finite by the caller.  If the model is not positive
    definite or the result is not a descent direction, the whole direction
    falls back to the diagonally scaled gradient, built only then; the
    fallback is no Newton step, and its decrement is reported as ``inf``.
    """
    lo, hi = scenario.interval.lo + _EDGE_TOL, scenario.interval.hi - _EDGE_TOL
    active = ((G <= lo) & (grad > 0.0)) | ((G >= hi) & (grad < 0.0))
    pinned = scenario.support_mode == "fixed_endpoints"
    if pinned:
        active[0] = active[-1] = True
    sub[active[:-1] | active[1:]] = 0.0  # the frozen coordinates' couplings
    d = solveh_banded(diag, sub, grad)
    if d is not None:  # else a leading minor is not positive definite
        frozen = np.flatnonzero(active)
        d[frozen] = 0.0
        decrement = float(np.dot(d, grad))  # over the free set
        d[frozen] = grad[frozen] / diag[frozen]  # the fallback's components
        if pinned:
            d[0] = d[-1] = 0.0
        if np.isfinite(d).all() and float(np.dot(d, grad)) > 0.0:
            return d, decrement
    d = grad / diag
    if pinned:
        d[0] = d[-1] = 0.0
    return d, math.inf


def minimize_quantile(
    scenario: Scenario,
    params: Optional[SolverParams] = None,
    G0: Optional[QuantileFn | np.ndarray] = None,
) -> EquilibriumResult:
    """Projected Newton descent on the quantile objective.

    Starts from ``G0`` (a quantile or its values) when it is given.  A cold
    start (no ``G0``) at ``m >= 8192`` inside the uniqueness regime is nested
    iteration: the same scenario is solved at ``ceil(m/2)``, ``ceil(m/4)``,
    ..., down to the first level below 8192, coarsest first, each level
    starting from the quantile of the one before; the finest quantile,
    interpolated linearly in probability onto the ``m`` nodes, is the start.
    Every other cold start is the source quantile, and so is one whose
    levels stop at a level that does not converge or whose start, or the
    interpolated start at ``m``, has no finite objective.  Each iteration
    solves the tridiagonal curvature model of the objective (the congestion
    Hessian is exactly tridiagonal in quantile coordinates, and it carries
    essentially all of the stiffness) for a Newton direction, clips trial
    points to the box (and the pinned endpoints), rejects any trial that is
    not strictly increasing (its objective is ``+inf``) and accepts under
    the Armijo rule ``J(cand) <= J + 1e-4 * <grad, cand - G>``, halving
    from a unit step.
    The objective is ``+inf`` at a zero gap, so only the box can bind
    (Bertsekas 1982): the start point is the box map of the start values,
    and the solve stops when the projected-gradient sup-norm
    ``max|G - box(G - grad)|`` falls below ``grad_tol``.  Where the
    free-set Newton decrement is at most ``c eps max(1, |J|)``
    (``_round_off_floor``) the model's decrease is lost in the rounding of
    J: only the full step is tried, and the solve stops as converged when
    it is not accepted.

    ``metadata["stop_reason"]`` names why the solve stopped: ``grad_tol``
    or ``round_off_floor`` (converged), ``line_search_failed`` (no
    backtracked step was accepted), ``step_vanished`` (the accepted step did
    not move ``G``) or ``max_iters``.  Non-convergence is reported through
    ``converged=False``, not an error; ``metadata["stalled"]`` marks the two
    stalls.  ``iterations`` counts the iterations at ``m``;
    ``metadata["levels"]`` lists each coarse level solved,
    ``{"m", "iterations", "converged", "stop_reason"}``, coarsest first, up
    to the first that did not converge, and is empty when the start was not
    solved on coarse levels.  The certificate fields of the result are
    computed on first read (see ``EquilibriumResult``).
    """
    newton = _projected_newton(_QuantileProblem(scenario), params or SolverParams(), G0)
    return _binned(scenario, *newton)


def _binned(scenario: Scenario, G, J, iterations, converged, metadata) -> EquilibriumResult:
    """The result of a ``_projected_newton`` run on ``scenario``, with the
    density of its quantile binned."""
    nu = quantile_to_density(G, scenario.grid)
    return EquilibriumResult(nu, G, J, iterations, converged, scenario, metadata)


# The smallest m whose cold start solves at ceil(m/2) first.  Measured on a
# shared 2-vCPU VM (medians of 9-15 solves of the shipped physics): at
# m = 4096 one coarse level is neutral on figure-1, 10 % slower on
# cubic_attraction and 2.5x slower on congested_gaussian, whose m = 2048
# level stalls; from m = 8192 on it saves 10-60 % on figure-1 and
# congested_gaussian and is neutral or better on cubic_attraction.
_COARSE_MIN_M = 8192


def _coarse_start(problem: _QuantileProblem, params: SolverParams) -> tuple:
    """Nested iteration: ``(start, levels)`` for a cold solve of ``problem``.

    At ``m >= _COARSE_MIN_M`` inside the uniqueness regime, the same
    scenario is solved at ``ceil(m/2)``, ``ceil(m/4)``, ..., down to the
    first size below ``_COARSE_MIN_M``, coarsest first: the coarsest level
    from its own ``H``, each finer one from the quantile of the level
    before, interpolated linearly in probability onto its nodes into a fresh
    array; the finest quantile, so interpolated onto the ``m`` nodes, is the
    start.  ``levels`` lists each level solved, coarsest first.  The loop
    stops at the first level that does not converge or whose start prices
    ``+inf``; the start is None then, or without coarse levels, and the
    caller starts from ``H``.  Inside the regime every start reaches the
    one equilibrium, so the start changes the work, not the answer."""
    scenario = problem.scenario
    if scenario.m < _COARSE_MIN_M or _uniqueness_flags(scenario):
        return None, []
    sizes = [(scenario.m + 1) // 2]
    while sizes[-1] >= _COARSE_MIN_M:
        sizes.append((sizes[-1] + 1) // 2)

    def onto(values: np.ndarray, size: int) -> np.ndarray:
        return np.interp(np.linspace(0.0, 1.0, size), np.linspace(0.0, 1.0, values.size), values)

    G, levels = None, []
    for size in reversed(sizes):
        coarse = _QuantileProblem(replace(scenario, m=size))
        start = coarse.H if G is None else onto(G, size)
        G = None  # the coarser quantile is released before this level is solved
        if not math.isfinite(coarse.value(start)):  # a gap rounded to zero, or F(u) overflowed
            return None, levels
        G, _, iterations, converged, metadata = _projected_newton(coarse, params, start)
        coarse = start = None  # released before the next start is built
        levels.append({"m": size, "iterations": iterations, "converged": converged,
                       "stop_reason": metadata["stop_reason"]})
        if not converged:
            return None, levels
        G = G.values
    return onto(G, scenario.m), levels


@np.errstate(over="ignore", divide="ignore")
def _projected_newton(problem: _QuantileProblem, params: SolverParams, G0=None) -> tuple:
    """The Newton loop of ``minimize_quantile`` on ``problem``, which bins no
    density: ``(G, J, iterations, converged, metadata)``.  It starts from
    ``G0`` when it is given; without it, from ``_coarse_start`` where that
    gives a start of finite objective, and from ``problem.H`` otherwise.
    The solve's error state ignores overflow and division by zero, so a
    trial whose tiny gap overflows ``F(u)`` is priced +inf and rejected
    without a warning."""
    scenario = problem.scenario
    iv, mode = scenario.interval, scenario.support_mode

    def priced(G: np.ndarray) -> tuple:
        """The box map of ``G``, in place, and its ``(point, J)``."""
        return problem.price(_trial_point(G, iv, mode))

    G, levels = _coarse_start(problem, params) if G0 is None else (None, [])
    point, J = priced(G) if G is not None else (None, math.inf)
    if not math.isfinite(J):  # no coarse start, or one of infinite objective
        # copies: the box map writes in place, and G0 may be the proximal anchor
        G = np.array(problem.H if G0 is None else _quantile_values(G0))
        if G.size != scenario.m:
            raise ValueError("G0 must have the scenario's quantile resolution m")
        point, J = priced(G)
        if not math.isfinite(J):
            raise ValueError("initial quantile has non-positive gaps (infinite objective)")

    iterations = 0
    stop_reason = "max_iters"
    pg_norm = float("inf")
    floor = _round_off_floor(scenario.m)
    grad = problem.gradient(point)
    for iterations in range(1, params.max_iters + 1):
        pg = np.subtract(G, grad)  # |G - box(G - grad)|, its bits in one buffer
        np.subtract(G, _trial_point(pg, iv, mode), out=pg)
        pg_norm = float(np.abs(pg, out=pg).max())
        pg = None
        if pg_norm <= params.grad_tol:
            stop_reason = "grad_tol"
            break
        diag, sub = problem.curvature(point)
        point = None  # from here on only G and J of the current point are read
        d, decrement = _newton_direction(G, grad, diag, sub, scenario)
        diag = sub = None
        # at J's round-off floor a step's change of J is lost in its rounding,
        # and a shorter step's more so: only the full step is tried
        at_floor = decrement <= floor * max(1.0, abs(J))
        accepted = False
        step = _STEP0
        for _ in range(1 if at_floor else _MAX_BACKTRACKS):
            trial = np.multiply(d, -step)
            trial += G  # G - step * d: the same bits, in one buffer
            cand_point, J_cand = priced(trial)
            trial = None
            if cand_point is not None:
                direction = cand_point.G - G
                decrease = float(np.dot(grad, direction))
                moved = float(np.abs(direction, out=direction).max())
                direction = None
                if decrease <= 0.0 and J_cand <= J + _SIGMA * decrease:
                    accepted = True
                    break
                cand_point = None  # released before the next trial is built
            step *= _BETA
        if not accepted or moved <= 1e-16 * (1.0 + np.abs(G).max()):
            stop_reason = ("round_off_floor" if at_floor
                           else "step_vanished" if accepted else "line_search_failed")
            break
        G, J, point = cand_point.G, J_cand, cand_point
        cand_point = d = grad = None
        grad = problem.gradient(point)

    converged = stop_reason in _CONVERGED
    metadata = {"projected_gradient": pg_norm, "stop_reason": stop_reason,
                "stalled": stop_reason in _STALLED, "levels": levels}
    return QuantileFn(G, iv, support_mode=mode), float(J), iterations, converged, metadata


def _solve_mass_equation(model: EnergyModel, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Find ``M`` with ``integral f_inv(M - w) = 1``; return it with the density."""
    from scipy.optimize import brentq

    delta = model.grid.delta
    f_inv = model.congestion.f_inv

    def response(M: float) -> np.ndarray:
        # clip to the positive part (idle actions) and to a finite ceiling so
        # the bracketing phase stays finite even when f_inv overflows
        with np.errstate(over="ignore"):
            return np.clip(np.asarray(f_inv(M - w), dtype=float), 0.0, 1e300)

    def excess(M: float) -> float:
        return float(delta * np.sum(response(M)) - 1.0)

    center = _median(w)
    radius0 = 1.0 + float(np.max(w) - np.min(w))
    bracket = []
    # expand each side from the same radius until the excess changes sign
    for side in (-1.0, 1.0):
        radius = radius0
        for _ in range(80):
            end = center + side * radius
            if side * excess(end) > 0.0:
                break
            radius *= 2.0
        else:
            raise ValueError(f"mass equation unsolvable (M bracket end {end!r})")
        bracket.append(end)
    M = float(brentq(excess, *bracket, xtol=1e-13, maxiter=200))
    return M, response(M)


def best_response_iterate(
    scenario: Scenario,
    nu0: DiscreteDensity,
    damping: float = 0.5,
    steps: int = 20,
) -> DiscreteDensity:
    """Damped best-response fixed-point iteration.

    Each round computes the Kantorovich potential of the current measure,
    inverts the pointwise optimality relation
    ``nu = f_inv(M - phi_c - interaction - v)`` with ``M`` chosen so the
    mass is one (a sign-change bracket, then Brent's method, ``brentq``),
    and mixes ``(1 - damping) nu_k + damping BR(nu_k)``.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must lie in (0, 1]")
    if not _is_integer(steps) or steps < 1:
        raise ValueError("steps must be an integer >= 1")
    if nu0.grid != scenario.grid:
        raise ValueError("initial measure must live on the scenario grid")
    model = scenario.model
    nu = nu0
    for _ in range(steps):
        pair = kantorovich_potential_1d(scenario.mu, nu, scenario.cost)
        w = pair.phi_c + model.interaction_field(nu) + model.potential_values()
        _, br = _solve_mass_equation(model, w)
        br = br / (br.sum() * scenario.grid.delta)
        nu = DiscreteDensity(scenario.grid, (1.0 - damping) * nu.values + damping * br)
    return nu
