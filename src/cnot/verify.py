"""Independent checks on computed equilibria.

Everything here re-derives its quantities through routes different from the
solver: Kantorovich potentials by quadrature of the monotone map, purity by
an exact LP on coarsened atoms, the 1D Monge-Ampere form of the optimality
condition, displacement convexity along generalized geodesics (linear
interpolation of quantile values), and the first-variation formula for the
transport cost by difference quotients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .energy import first_variation
from .measures import DiscreteDensity, _median, density_to_quantile
from .transport import (
    CostSpec,
    _staircase,
    kantorovich_potential_1d,
    monotone_map_1d,
    solve_lp,
    wasserstein_cost_1d,
)

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Scenario

__all__ = [
    "ResidualReport",
    "PurityReport",
    "DisplacementReport",
    "DerivativeReport",
    "equilibrium_residual",
    "purity_check",
    "monge_ampere_residual_1d",
    "displacement_convexity_probe",
    "transport_derivative_check",
]

_SUPPORT_EPS_FACTOR = 1e-6
_PURITY_ATOMS = 64  # atoms a side of the purity check's exact LP


@dataclass(frozen=True)
class ResidualReport:
    """Deviation of ``phi_c + V[nu]`` (plus any tax) from a constant level ``M``.

    ``residual_sup`` measures violations of the inequality ``>= M`` over the
    whole interval; ``residual_eq`` measures deviation from equality on the
    support ``{nu > epsilon}``.
    """

    residual_sup: float
    residual_eq: float
    M: float
    epsilon: float
    support_cells: int = 0
    core_cells: int = 0

    def __post_init__(self) -> None:
        if not (self.residual_sup >= 0 and self.residual_eq >= 0):  # NaN fails too
            raise ValueError("residuals must be non-negative")


@dataclass(frozen=True)
class PurityReport:
    """LP evidence that the optimal coupling is a monotone graph."""

    pure: bool
    lp_value: float
    monotone_value: float
    cost_gap: float
    crossings: int
    atoms: int
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.pure


@dataclass(frozen=True)
class DisplacementReport:
    """Objective values along a generalized geodesic between two measures."""

    t_grid: np.ndarray
    J_values: np.ndarray
    J_a: float
    J_b: float
    max_violation: float
    midpoint_margin: float


@dataclass(frozen=True)
class DerivativeReport:
    """Difference quotients of the transport cost against the dual prediction."""

    eps: np.ndarray
    quotients: np.ndarray
    predicted: float
    errors: np.ndarray


def equilibrium_residual(
    scenario: "Scenario", nu: DiscreteDensity, tax: Optional[np.ndarray] = None
) -> ResidualReport:
    """Check ``phi_c + V[nu] (+ tax) >= M`` everywhere with equality on the support.

    ``phi_c`` comes from the quadrature route (not the solver), ``V`` is the
    first variation of the energy, and ``tax`` (a vector on the scenario
    grid) is added for the first-order condition of a taxed game.  The
    support is ``{nu > eps}`` with ``eps = 1e-6 max(nu)``; for the equality
    residual (and the level ``M``, its median) the support is eroded by one
    cell at each transition to the zero set, because a cell straddling a
    support edge carries a cell average that belongs to neither side.  The
    inequality residual is taken over every cell.
    """
    if nu.grid != scenario.grid:
        raise ValueError("nu must live on the scenario grid")
    pair = kantorovich_potential_1d(scenario.mu, nu, scenario.cost)
    total = pair.phi_c + first_variation(scenario.model, nu)
    if tax is not None:
        tax = np.asarray(tax, dtype=float)
        if tax.shape != (scenario.n,) or not np.all(np.isfinite(tax)):
            raise ValueError("tax must be a finite vector on the scenario grid")
        total = total + tax
    epsilon = _SUPPORT_EPS_FACTOR * float(np.max(nu.values))
    support = nu.values > epsilon
    padded = np.concatenate([[True], support, [True]])
    core = support & padded[:-2] & padded[2:]
    if not core.any():
        core = support
    M = _median(total[core])
    residual_eq = float(np.max(np.abs(total[core] - M)))
    residual_sup = float(np.max(M - total, initial=0.0))
    return ResidualReport(
        residual_sup=residual_sup,
        residual_eq=residual_eq,
        M=M,
        epsilon=epsilon,
        support_cells=int(support.sum()),
        core_cells=int(core.sum()),
    )


def _coarsen_atoms(nu: DiscreteDensity, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate grid cells into ``k`` consecutive blocks (mass-weighted centers;
    a block with no mass sits at the mean of its nodes)."""
    nodes, masses = nu.grid.nodes, nu.masses
    bounds = np.linspace(0, nu.grid.n, k + 1).astype(int)
    starts = bounds[:-1]
    weights = np.add.reduceat(masses, starts)
    points = np.add.reduceat(nodes, starts) / np.diff(bounds)
    np.divide(np.add.reduceat(masses * nodes, starts), weights, out=points, where=weights > 0)
    return weights / weights.sum(), points


def _monotone_plan_cost(
    a: np.ndarray, x: np.ndarray, b: np.ndarray, y: np.ndarray, cost: CostSpec
) -> float:
    """North-west-corner (monotone) coupling cost for sorted atom lists: the
    ``_staircase`` masses priced at their cells."""
    cells, mass = _staircase(a, b)
    i, j = np.divmod(cells, b.size)
    return float(np.dot(mass, cost.C(x[i] - y[j])))


def _crossing_scan(plan: np.ndarray) -> tuple[int, Optional[tuple]]:
    """Used rows of ``plan`` whose first used column lies left of the rightmost
    used column of the used rows above: their count, and the first of them as
    ``(row, first column, rightmost column above)``.  An entry is used above
    ``1e-10 max(1, max(plan))``."""
    used = plan > 1e-10 * max(1.0, float(np.max(plan)))
    rows = np.flatnonzero(used.any(axis=1))
    first = used[rows].argmax(axis=1)
    last = used.shape[1] - 1 - used[rows, ::-1].argmax(axis=1)
    prev_max = np.maximum.accumulate(np.concatenate([[-1], last]))[:-1]
    crossed = np.flatnonzero(first < prev_max)
    if not crossed.size:
        return 0, None
    c = crossed[0]
    return int(crossed.size), (int(rows[c]), int(first[c]), int(prev_max[c]))


def purity_check(scenario: "Scenario", nu: DiscreteDensity) -> PurityReport:
    """Confirm the optimal coupling is a monotone graph (pure strategies).

    Coarsens both measures to at most ``_PURITY_ATOMS`` (64) consecutive
    blocks, solves the exact LP, and checks (a) the monotone coupling
    achieves the LP value within 1e-8 and (b) the LP plan's support has no
    crossings (each source's targets lie weakly to the right of every
    earlier source's targets).  ``solve_lp`` answers with the monotone
    staircase, certified by its own potentials and the duality gap, which
    the strictly convex cost guarantees; (a) and (b) then confirm that
    answer.
    """
    scenario.cost.require_strictly_convex(scenario.interval.length)
    k = min(_PURITY_ATOMS, scenario.n)
    a, x = _coarsen_atoms(scenario.mu, k)
    b, y = _coarsen_atoms(nu, k)
    plan, _, lp_value = solve_lp(a, x, b, y, cost=scenario.cost)
    monotone_value = _monotone_plan_cost(a, x, b, y, scenario.cost)
    cost_gap = abs(monotone_value - lp_value)
    crossings, witness = _crossing_scan(plan.matrix)
    pure = bool(crossings == 0 and cost_gap <= 1e-8 * (1.0 + abs(lp_value)))
    return PurityReport(
        pure=pure,
        lp_value=lp_value,
        monotone_value=monotone_value,
        cost_gap=cost_gap,
        crossings=crossings,
        atoms=k,
        witness=witness,
    )


def monge_ampere_residual_1d(scenario: "Scenario", nu: DiscreteDensity) -> float:
    """Relative sup-norm residual of the 1D Monge-Ampere form of optimality.

    With logarithmic congestion, quadratic cost and no external potential,
    an equilibrium satisfies (up to the normalization gauge, fixed here by
    mass matching)

        mu(x) = u''(x) exp(-u'(x)^2/2 + x u'(x) - u(x) - I(x)),
        I(x) = integral phi(u'(x), u'(z)) dmu(z),

    where ``u' = T`` is the monotone map.  Derivatives are central
    differences; boundary nodes are excluded from the sup norm.
    """
    congestion = scenario.model.congestion
    if congestion.kind != "entropy":
        raise ValueError("residual requires logarithmic congestion")
    if scenario.cost.kind != "quadratic":
        raise ValueError("residual requires the quadratic cost")
    if scenario.model.potential is not None:
        raise ValueError("residual requires no external potential")
    if np.any(nu.values <= 0.0):
        raise ValueError("residual requires a strictly positive density")
    if nu.grid != scenario.grid:
        raise ValueError("nu must live on the scenario grid")

    grid = scenario.grid
    nodes = grid.nodes
    T = monotone_map_1d(scenario.mu, nu)
    u = np.concatenate([[0.0], np.cumsum(0.5 * (T[:-1] + T[1:]) * np.diff(nodes))])
    u_pp = (T[2:] - T[:-2]) / (2.0 * grid.delta)
    kernel = scenario.model.kernel
    interaction = (
        np.zeros(grid.n) if kernel is None else kernel.field(T, scenario.mu.masses)
    )
    exponent = -0.5 * T * T + nodes * T - u - interaction
    rhs = u_pp * np.exp(exponent[1:-1])
    mu_interior = scenario.mu.values[1:-1]
    gauge = float(np.sum(mu_interior) / np.sum(rhs))
    return float(np.max(np.abs(gauge * rhs - mu_interior)) / np.max(scenario.mu.values))


def displacement_convexity_probe(
    scenario: "Scenario",
    nu_a: DiscreteDensity,
    nu_b: DiscreteDensity,
    t_grid=None,
) -> DisplacementReport:
    """Objective along the generalized geodesic from ``nu_a`` to ``nu_b``.

    In one dimension the geodesic's quantile is the linear interpolation of
    the endpoint quantiles, so the curve is evaluated exactly.  Reports the
    largest convexity violation ``[J(nu_t) - (1-t)J(nu_a) - tJ(nu_b)]_+``
    and the midpoint strictness margin.
    """
    from .solver import _QuantileProblem

    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 21)
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all((0.0 <= t_grid) & (t_grid <= 1.0)):  # NaN fails too
        raise ValueError("t_grid values must lie in [0, 1]")
    scenario.cost.require_strictly_convex(scenario.interval.length)
    Ga = density_to_quantile(nu_a, scenario.m).values
    Gb = density_to_quantile(nu_b, scenario.m).values
    problem = _QuantileProblem(scenario)
    J_a = problem.value(Ga)
    J_b = problem.value(Gb)
    J_values = np.array([problem.value((1.0 - t) * Ga + t * Gb) for t in t_grid])
    chords = (1.0 - t_grid) * J_a + t_grid * J_b
    max_violation = float(np.max(J_values - chords, initial=0.0))
    J_mid = problem.value(0.5 * (Ga + Gb))
    midpoint_margin = float(0.5 * J_a + 0.5 * J_b - J_mid)
    return DisplacementReport(
        t_grid=t_grid,
        J_values=J_values,
        J_a=float(J_a),
        J_b=float(J_b),
        max_violation=max_violation,
        midpoint_margin=midpoint_margin,
    )


def transport_derivative_check(
    mu: DiscreteDensity,
    nu: DiscreteDensity,
    rho: DiscreteDensity,
    cost: CostSpec,
    eps_list=(1e-2, 1e-3),
    m: Optional[int] = None,
) -> DerivativeReport:
    """First-variation formula for the transport cost by difference quotients.

    Compares ``(W_c(mu, nu + eps (rho - nu)) - W_c(mu, nu)) / eps`` against
    the dual prediction ``integral phi_c d(rho - nu)`` for each ``eps``.
    """
    if nu.grid != mu.grid or rho.grid != mu.grid:
        raise ValueError("all three measures must share one grid")
    eps = np.asarray(list(eps_list), dtype=float)
    if not np.all((0.0 < eps) & (eps <= 1.0)):  # NaN fails too
        raise ValueError("eps values must lie in (0, 1]")
    pair = kantorovich_potential_1d(mu, nu, cost)
    direction = rho.values - nu.values
    predicted = float(np.dot(pair.phi_c, direction) * mu.grid.delta)
    base = wasserstein_cost_1d(mu, nu, cost, m=m)
    quotients = np.empty(eps.size)
    for i, e in enumerate(eps):
        mixed = DiscreteDensity(mu.grid, nu.values + e * direction)
        quotients[i] = (wasserstein_cost_1d(mu, mixed, cost, m=m) - base) / e
    return DerivativeReport(
        eps=eps,
        quotients=quotients,
        predicted=predicted,
        errors=np.abs(quotients - predicted),
    )
