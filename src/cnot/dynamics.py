"""Minimizing-movement (JKO) dynamics driven by the quantile solver.

Each step solves ``argmin_nu  W2^2(nu_k, nu) / (2 tau) + J(nu)``.  In quantile
coordinates the proximal term is exactly ``(1/(2 tau m)) sum (G - G_k)^2`` —
no inner transport solve is needed — so a step is one quantile solve with a
proximal anchor.  Only the anchor changes from one step to the next, so a
flow builds the objective once and anchors a copy of it per step.  The flow
carries quantile values between steps (round-tripping through densities
would inject O(1/m) noise and break the exact descent property).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .measures import DiscreteDensity, _is_integer, density_to_quantile
from .solver import Scenario, SolverParams, _binned, _projected_newton, _QuantileProblem

__all__ = ["JkoParams", "TrajectoryPoint", "Trajectory", "jko_step", "jko_flow"]

_LYAPUNOV_SLACK = 1e-10


@dataclass(frozen=True)
class JkoParams:
    """Time step, horizon, and the inner solver configuration."""

    tau: float
    steps: int
    inner: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be a finite number > 0")
        if not _is_integer(self.steps) or self.steps < 1:
            raise ValueError("steps must be an integer >= 1")


@dataclass(frozen=True)
class TrajectoryPoint:
    k: int
    nu: DiscreteDensity
    J_value: float
    W2_step: float


@dataclass(frozen=True)
class Trajectory:
    """Flow iterates with their objective values and step displacements.

    The objective values must be non-increasing (descent scheme); each
    ``W2_step`` is the displacement from the previous iterate.
    """

    points: tuple
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("trajectory needs at least one point")
        J = np.array([p.J_value for p in self.points])
        finite = J[np.isfinite(J)]
        drops = np.diff(J)
        if np.any(drops[np.isfinite(drops)] > _LYAPUNOV_SLACK * (1.0 + np.max(np.abs(finite)))):
            raise ValueError("trajectory objective values must be non-increasing")
        if any(p.W2_step < 0 for p in self.points):
            raise ValueError("step displacements must be non-negative")

    @property
    def J_values(self) -> np.ndarray:
        return np.array([p.J_value for p in self.points])

    @property
    def terminal(self) -> DiscreteDensity:
        return self.points[-1].nu


def _step_from_quantile(
    problem: _QuantileProblem,
    G_anchor: np.ndarray,
    tau: float,
    inner: SolverParams,
    step_label: str,
):
    """The step of ``problem`` (no proximal term) anchored at ``G_anchor``,
    started there, with its density binned; raises when it does not
    converge."""
    newton = _projected_newton(problem.anchored(G_anchor, tau), inner, G0=G_anchor)
    result = _binned(problem.scenario, *newton)
    if not result.converged:
        raise RuntimeError(
            f"inner minimization did not converge at {step_label}: "
            f"projected gradient {result.metadata['projected_gradient']:.3e} "
            f"after {result.iterations} iterations (tol {inner.grad_tol:.1e})"
        )
    return result


def jko_step(
    scenario: Scenario,
    nu_k: DiscreteDensity,
    tau: float,
    inner: Optional[SolverParams] = None,
) -> DiscreteDensity:
    """One minimizing-movement step from ``nu_k`` with step size ``tau``."""
    JkoParams(tau=tau, steps=1)  # refuses a tau that is not a finite number > 0
    if nu_k.grid != scenario.grid:
        raise ValueError("nu_k must live on the scenario grid")
    G_anchor = density_to_quantile(nu_k, scenario.m).values
    result = _step_from_quantile(
        _QuantileProblem(scenario), G_anchor, tau, inner or SolverParams(), "a single step"
    )
    return result.nu


def jko_flow(scenario: Scenario, nu0: DiscreteDensity, params: JkoParams) -> Trajectory:
    """Iterate the scheme for ``params.steps`` steps from ``nu0``.

    A step is a deterministic function of its anchor, so once a step returns
    its anchor bit for bit, the remaining points repeat that step's density
    and objective with ``W2_step`` 0.0, without solving again.

    The diagnostics compare the terminal iterate with a direct minimization
    (same inner parameters) through the quantile distance
    ``sqrt((1/m) sum (G_a - G_b)^2)``.  The objective, with the source
    quantile ``density_to_quantile(scenario.mu, m)``, is built once: it
    prices the points, each step solves a copy anchored at the previous
    iterate, and the direct minimization solves it as it is.
    """
    if nu0.grid != scenario.grid:
        raise ValueError("nu0 must live on the scenario grid")
    problem = _QuantileProblem(scenario)  # plain objective, no proximal term
    G = density_to_quantile(nu0, scenario.m).values
    points = [TrajectoryPoint(k=0, nu=nu0, J_value=problem.value(G), W2_step=0.0)]
    for k in range(1, params.steps + 1):
        result = _step_from_quantile(problem, G, params.tau, params.inner, f"step {k}")
        G_new = result.G.values
        w2 = float(np.sqrt(np.sum((G_new - G) ** 2) / scenario.m))
        points.append(
            TrajectoryPoint(k=k, nu=result.nu, J_value=problem.value(G_new), W2_step=w2)
        )
        if G_new.tobytes() == G.tobytes():
            # a step is a function of its anchor: every later step repeats this one
            fixed = points[-1]
            points += [replace(fixed, k=j) for j in range(k + 1, params.steps + 1)]
            break
        G = G_new
    direct_G, direct_J, _, direct_converged, _ = _projected_newton(problem, params.inner)
    terminal_gap = float(np.sqrt(np.sum((direct_G.values - G) ** 2) / scenario.m))
    diagnostics = {
        "tau": params.tau,
        "steps": params.steps,
        "terminal_vs_direct_W2": terminal_gap,
        "direct_converged": direct_converged,
        "direct_J": direct_J,
    }
    return Trajectory(points=tuple(points), diagnostics=diagnostics)
