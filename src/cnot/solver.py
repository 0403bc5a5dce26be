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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .energy import EnergyModel
from .measures import (
    SUPPORT_MODES,
    DiscreteDensity,
    Grid,
    QuantileFn,
    density_to_quantile,
    quantile_to_density,
)
from .transport import CostSpec, _fd_derivative, _load_scipy_extension, kantorovich_potential_1d

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
        if self.m < 2:
            raise ValueError("quantile resolution m must be >= 2")
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


@dataclass(frozen=True)
class SolverParams:
    """Projected-Newton stopping parameters: the iteration cap and the
    projected-gradient tolerance, a finite number > 0 (an infinite one would
    accept the start point as converged)."""

    max_iters: int = 5000
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iters < 1 or not 0.0 < self.grad_tol < math.inf:
            raise ValueError("solver parameters must be positive and finite")


@dataclass(frozen=True)
class EquilibriumResult:
    """Solver output: the equilibrium measure with its certificate numbers.

    ``certificate`` is the ``verify.equilibrium_residual(scenario, nu)``
    report, computed the first time it is read and cached; ``M``,
    ``residual_sup`` and ``residual_eq`` read it.  A caller that reads none
    of these pays nothing for the certificate; an error the certificate
    raises surfaces on that first read, not from the solve.  ``metadata``
    holds what the solve decided: the final ``projected_gradient`` norm and
    whether it ``stalled``; the problem solved is ``scenario``.
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
    """The pieces that the objective, its gradient and its curvature share at
    one strictly increasing quantile ``G``: the gaps, ``u = 1/((m-1) gaps)``,
    ``F(u)``, ``z = H - G`` and the kernel's ``sample_sums``.  Built once per
    priced point."""

    __slots__ = ("G", "gaps", "u", "F_u", "z", "sums")

    def __init__(self, problem: "_QuantileProblem", G: np.ndarray, gaps: np.ndarray):
        self.G = G
        self.gaps = gaps
        with np.errstate(over="ignore", divide="ignore"):
            self.u = 1.0 / ((problem.m - 1) * gaps)
            self.F_u = np.asarray(problem.model.congestion.F(self.u), dtype=float)
        self.z = problem.H - G
        kernel = problem.model.kernel
        self.sums = kernel.sample_sums(G) if kernel is not None else None


class _QuantileProblem:
    """Cached pieces of the objective for one scenario (plus optional proximal
    anchor ``(values, tau)`` contributing ``(1/(2 tau m)) sum (G - anchor)^2``)."""

    def __init__(self, scenario: Scenario, prox: Optional[tuple[np.ndarray, float]] = None):
        self.scenario = scenario
        self.m = scenario.m
        self.H = density_to_quantile(scenario.mu, scenario.m).values
        self.cost = scenario.cost
        self.C_second = _fd_derivative(scenario.cost.C_prime)
        self.model = scenario.model
        self.F_prime_shift = scenario.model.congestion.F_prime_shift
        if prox is not None:
            anchor, tau = prox
            anchor = np.ascontiguousarray(anchor, dtype=float)
            if anchor.shape != (self.m,) or not tau > 0:
                raise ValueError("proximal anchor must have length m and tau > 0")
            prox = (anchor, float(tau))
        self.prox = prox

    def point(self, G: np.ndarray) -> Optional[_Point]:
        """The shared pieces at ``G``, or None when a gap is ``<= 0`` (there
        the objective is ``+inf``)."""
        gaps = G[1:] - G[:-1]  # np.diff's subtraction, without its wrapper
        if (gaps <= 0.0).any():
            return None
        return _Point(self, G, gaps)

    def value(self, G: np.ndarray) -> float:
        """Objective at a non-decreasing ``G`` (+inf at a zero gap)."""
        p = self.point(G)
        if p is None:
            if np.any(np.diff(G) < 0.0):
                raise ValueError("quantile values must be non-decreasing")
            return float("inf")
        return self.value_at(p)

    def value_at(self, p: _Point) -> float:
        m = self.m
        val = float(self.cost.C(p.z).sum() / m)
        val += float((p.gaps * p.F_u).sum())
        if self.model.potential is not None:
            val += float(self.model.potential.v(p.G).sum() / m)
        if self.model.kernel is not None:
            val += self.model.kernel.sample_energy(p.G, p.sums)
        if self.prox is not None:
            anchor, tau = self.prox
            val += float(((p.G - anchor) ** 2).sum() / (2.0 * tau * m))
        if math.isnan(val):
            raise ValueError("objective produced NaN")
        return val

    def gradient(self, p: _Point) -> np.ndarray:
        """Exact gradient of the objective at ``p``; raises when it is not
        finite."""
        m = self.m
        grad = -np.asarray(self.cost.C_prime(p.z), dtype=float) / m
        with np.errstate(over="ignore"):
            F_prime = np.asarray(self.model.congestion.f(p.u), dtype=float)
            if self.F_prime_shift:  # F' = f + the convention's constant
                F_prime = F_prime + self.F_prime_shift
            psi = p.F_u - p.u * F_prime
        grad[1:] += psi
        grad[:-1] -= psi
        if self.model.potential is not None:
            grad += np.asarray(self.model.potential.v_prime(p.G), dtype=float) / m
        if self.model.kernel is not None:
            grad += self.model.kernel.sample_gradient(p.G, p.sums)
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
        values; the separable cost and potential terms contribute their
        second derivatives (clipped to be non-negative) on the diagonal:
        the potential's ``v_second`` (closed form for ``poly``), the cost's
        ``C_second``, the central difference of ``C_prime``
        (``transport._fd_derivative``).  Interaction kernels
        keep only their diagonal part.  Entries are clipped to a positive
        range that keeps the tridiagonal Cholesky factorization finite — the
        line search absorbs any remaining model error.
        """
        m, G, u = self.m, p.G, p.u
        with np.errstate(over="ignore", divide="ignore"):
            psi2 = (m - 1) * u**3 * np.asarray(self.model.congestion.f_prime(u), dtype=float)
        # in place, each bound first: the bytes of np.where(finite, np.clip(...), _CURV_MAX)
        finite = np.isfinite(psi2)
        np.minimum(_CURV_MAX, np.maximum(0.0, psi2, out=psi2), out=psi2)
        if not finite.all():
            psi2[~finite] = _CURV_MAX
        diag = np.maximum(self.C_second(p.z), 0.0) / m
        if self.model.potential is not None:
            v2 = np.asarray(self.model.potential.v_second(G), dtype=float)
            diag += np.maximum(v2, 0.0) / m
        if self.model.kernel is not None:
            diag += self.model.kernel.sample_curvature(G, p.sums)
        diag[:-1] += psi2
        diag[1:] += psi2
        if self.prox is not None:
            diag += 1.0 / (self.prox[1] * m)
        np.maximum(_CURV_MIN / m, diag, out=diag)
        return np.minimum(_CURV_MAX, diag, out=diag), -psi2


_FLAPACK = "scipy.linalg._flapack"


def _load_dptsv():
    """LAPACK ``dptsv`` from scipy's ``_flapack`` extension, loaded from its file.

    Importing the ``scipy.linalg`` package to reach this one routine would
    cost most of a cold ``import cnot``.  ``transport._load_scipy_extension``
    loads the file under scipy's own name ``scipy.linalg._flapack``, so a
    later ``import scipy.linalg`` reuses it and its ``lapack.dptsv`` is this
    object (the package then binds no ``_flapack`` attribute; ``from
    scipy.linalg import _flapack`` still finds the module).  On any failure
    of the file route the routine comes from ``scipy.linalg.lapack``.
    """
    try:
        return _load_scipy_extension(_FLAPACK).dptsv
    except Exception:  # whatever breaks the file route, the package import is the reference
        from scipy.linalg.lapack import dptsv

        return dptsv


dptsv = _load_dptsv()


def solveh_banded(diag: np.ndarray, sub: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve the tridiagonal system ``(diag, sub) x = rhs`` (``sub`` is overwritten) by
    LAPACK ``dptsv``, as ``scipy.linalg.solveh_banded`` does for a two-row band but
    without its validation layers; None when the matrix is not positive definite.
    ``dptsv`` is loaded from scipy's LAPACK extension without importing the
    ``scipy.linalg`` package (``_load_dptsv``)."""
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


def _newton_direction(
    G: np.ndarray,
    grad: np.ndarray,
    diag: np.ndarray,
    sub: np.ndarray,
    scenario: Scenario,
) -> np.ndarray:
    """Solve the tridiagonal model system for a descent direction.

    Coordinates pressed against the box are frozen out of the system and
    given diagonally scaled components instead.  In ``fixed_endpoints`` mode
    the two ends are constants, not unknowns: their components are 0, so
    they enter neither the descent test nor the fallback.  The system is
    solved by ``solveh_banded``, a direct LAPACK ``dptsv`` call (tridiagonal
    Cholesky) without finiteness passes: ``grad`` is checked finite by the
    caller.  If the model is not positive definite or the result is not a
    descent direction, fall back to the diagonally preconditioned gradient,
    built only then or to fill the frozen coordinates.
    """
    lo, hi = scenario.interval.lo + _EDGE_TOL, scenario.interval.hi - _EDGE_TOL
    active = ((G <= lo) & (grad > 0.0)) | ((G >= hi) & (grad < 0.0))
    pinned = scenario.support_mode == "fixed_endpoints"
    if pinned:
        active[0] = active[-1] = True

    def fallback() -> np.ndarray:
        scaled = grad / diag
        if pinned:
            scaled[0] = scaled[-1] = 0.0
        return scaled

    d = solveh_banded(diag, np.where(active[:-1] | active[1:], 0.0, sub), grad)
    if d is None:  # a leading minor is not positive definite
        return fallback()
    if active.any():
        d[active] = fallback()[active]
    if not np.isfinite(d).all() or float(np.dot(d, grad)) <= 0.0:
        return fallback()
    return d


def minimize_quantile(
    scenario: Scenario,
    params: Optional[SolverParams] = None,
    G0: Optional[QuantileFn | np.ndarray] = None,
    prox: Optional[tuple[np.ndarray, float]] = None,
) -> EquilibriumResult:
    """Projected Newton descent on the quantile objective.

    Starts from the source quantile unless ``G0`` (a quantile or its values)
    is given.  Each iteration solves the tridiagonal curvature model of the
    objective (the congestion Hessian is exactly tridiagonal in quantile
    coordinates, and it carries essentially all of the stiffness) for a
    Newton direction, clips trial points to the box (and the pinned
    endpoints), rejects any trial that is not strictly increasing (its
    objective is ``+inf``) and accepts under the Armijo rule
    ``J(cand) <= J + 1e-4 * <grad, cand - G>``, halving from a unit step.
    The objective is ``+inf`` at a zero gap, so only the box can bind
    (Bertsekas 1982): the start point is the box map of the start values,
    and the solve stops when the projected-gradient sup-norm
    ``max|G - box(G - grad)|`` falls below ``grad_tol``.  ``prox`` adds a
    proximal anchor (see ``_QuantileProblem``) for minimizing-movement use.

    Non-convergence is reported through ``converged=False``, not an error;
    ``metadata["stalled"]`` marks a solve stopped because no backtracked
    step was accepted or the accepted step vanished.  The certificate
    fields of the result are computed on first read (see
    ``EquilibriumResult``).
    """
    params = params or SolverParams()
    G, J, iterations, converged, metadata = _projected_newton(scenario, params, G0, prox)
    nu = quantile_to_density(G, scenario.grid)
    return EquilibriumResult(nu, G, J, iterations, converged, scenario, metadata)


def _projected_newton(scenario: Scenario, params: SolverParams, G0=None, prox=None) -> tuple:
    """The Newton loop of ``minimize_quantile``, which bins no density:
    ``(G, J, iterations, converged, metadata)``."""
    problem = _QuantileProblem(scenario, prox=prox)
    iv, mode = scenario.interval, scenario.support_mode
    # copies: the box map writes in place, and G0 may be the proximal anchor
    G = np.array(problem.H if G0 is None else _quantile_values(G0))
    if G.size != scenario.m:
        raise ValueError("G0 must have the scenario's quantile resolution m")
    G = _trial_point(G, iv, mode)
    point = problem.point(G)
    J = problem.value_at(point) if point is not None else float("inf")
    if not np.isfinite(J):
        raise ValueError("initial quantile has non-positive gaps (infinite objective)")

    iterations = 0
    converged = False
    stalled = False
    pg_norm = float("inf")
    grad = problem.gradient(point)
    for iterations in range(1, params.max_iters + 1):
        pg_norm = float(np.abs(G - _trial_point(G - grad, iv, mode)).max())
        if pg_norm <= params.grad_tol:
            converged = True
            break
        diag, sub = problem.curvature(point)
        d = _newton_direction(G, grad, diag, sub, scenario)
        accepted = False
        step = _STEP0
        for _ in range(_MAX_BACKTRACKS):
            cand_point = problem.point(_trial_point(G - step * d, iv, mode))
            if cand_point is not None:
                direction = cand_point.G - G
                decrease = float(np.dot(grad, direction))
                J_cand = problem.value_at(cand_point)
                if decrease <= 0.0 and J_cand <= J + _SIGMA * decrease:
                    accepted = True
                    break
            step *= _BETA
        if not accepted or np.abs(direction).max() <= 1e-16 * (1.0 + np.abs(G).max()):
            stalled = True
            break
        grad = problem.gradient(cand_point)
        G, J, point = cand_point.G, J_cand, cand_point

    metadata = {"projected_gradient": pg_norm, "stalled": stalled}
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

    center = float(np.median(w))
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
    if steps < 1:
        raise ValueError("steps must be >= 1")
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
