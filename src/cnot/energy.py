"""Energy functionals: congestion, external potential, pairwise interaction.

The energy of a density ``nu`` is

    E[nu] = integral F(nu) + integral v dnu + 1/2 double-integral phi dnu dnu

with ``F' = f`` (up to an additive constant for the plain-entropy bookkeeping
convention, which changes nothing at first order against mass-preserving
perturbations).  Its first variation is

    V[nu](y) = f(nu(y)) + v(y) + integral phi(y, z) dnu(z).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .measures import DiscreteDensity, Grid, Interval
from .transport import _fd_derivative

__all__ = [
    "CongestionSpec",
    "InteractionKernel",
    "PotentialSpec",
    "EnergyModel",
    "energy_eval",
    "first_variation",
    "mccann_check",
]

_PROBE_S = np.logspace(-2.0, 2.0, 81)


def _entropy_F_shifted(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0.0, s * np.log(np.where(s > 0.0, s, 1.0)) - s, 0.0)
    return out


def _entropy_F_plain(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0.0, s * np.log(np.where(s > 0.0, s, 1.0)), 0.0)
    return out


def _log(s: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(s, dtype=float))


def _log1(s: np.ndarray) -> np.ndarray:
    return 1.0 + _log(s)


@dataclass(frozen=True)
class CongestionSpec:
    """Congestion cost ``f`` with antiderivative ``F`` and inverse.

    ``F_prime`` may differ from ``f`` by a constant only (bookkeeping
    conventions); the constructor probes monotonicity of ``f`` and the
    ``F' = f + const`` relation by finite differences.  The family's closed
    forms live here: ``marginal_externality`` and the social counterpart
    ``social``.
    """

    f: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    f_inv: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    F_prime: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"
    convention: Optional[str] = None
    params: dict = field(default_factory=dict)
    satisfies_mccann: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        fv = np.asarray(self.f(_PROBE_S), dtype=float)
        if not np.all(np.isfinite(fv)):
            raise ValueError("congestion f must be finite on (0, inf)")
        if np.any(np.diff(fv) <= 0.0):
            raise ValueError("congestion f must be strictly increasing")
        # F' = f up to an additive constant, by central differences
        h = 1e-6 * _PROBE_S
        fd = (np.asarray(self.F(_PROBE_S + h), dtype=float)
              - np.asarray(self.F(_PROBE_S - h), dtype=float)) / (2.0 * h)
        dev = fd - fv
        if np.max(np.abs(dev - dev.mean())) > 1e-6 * (1.0 + np.max(np.abs(fv))):
            raise ValueError("congestion F' must equal f up to a constant")
        # round-trip of the inverse on the probe range
        rt = np.asarray(self.f_inv(fv), dtype=float)
        if np.max(np.abs(rt - _PROBE_S) / _PROBE_S) > 1e-8:
            raise ValueError("congestion f_inv must invert f")
        object.__setattr__(self, "satisfies_mccann", mccann_check(self))

    @staticmethod
    def entropy(convention: str = "shifted") -> "CongestionSpec":
        """Logarithmic congestion ``f(s) = log s``.

        ``convention`` selects the antiderivative bookkeeping:
        ``"shifted"`` uses ``F(s) = s log s - s`` (so ``F' = f``),
        ``"plain"`` uses ``F(s) = s log s`` (so ``F' = f + 1``).
        """
        if convention not in ("shifted", "plain"):
            raise ValueError("entropy convention must be 'shifted' or 'plain'")
        shifted = convention == "shifted"
        return CongestionSpec(
            f=_log,
            F=_entropy_F_shifted if shifted else _entropy_F_plain,
            f_inv=np.exp,
            f_prime=lambda s: 1.0 / np.asarray(s, dtype=float),
            F_prime=_log if shifted else _log1,
            kind="entropy",
            convention=convention,
        )

    @staticmethod
    def power(alpha: float, a: float = 1.0) -> "CongestionSpec":
        """Power congestion ``f(s) = a s^alpha`` with ``alpha, a > 0``.

        The inverse uses the positive part, ``f_inv(t) = (t/a)_+^(1/alpha)``,
        so best responses may vanish on part of the domain.
        """
        if alpha <= 0 or a <= 0:
            raise ValueError("power congestion needs alpha > 0 and a > 0")

        def f(s: np.ndarray) -> np.ndarray:
            return a * np.asarray(s, dtype=float) ** alpha

        def F(s: np.ndarray) -> np.ndarray:
            return a * np.asarray(s, dtype=float) ** (alpha + 1.0) / (alpha + 1.0)

        def f_inv(t: np.ndarray) -> np.ndarray:
            return np.clip(np.asarray(t, dtype=float) / a, 0.0, None) ** (1.0 / alpha)

        def f_prime(s: np.ndarray) -> np.ndarray:
            return a * alpha * np.asarray(s, dtype=float) ** (alpha - 1.0)

        return CongestionSpec(
            f=f, F=F, f_inv=f_inv, f_prime=f_prime, F_prime=f,
            kind="power", params={"alpha": alpha, "a": a},
        )

    @staticmethod
    def custom(
        f: Callable[[np.ndarray], np.ndarray],
        F: Callable[[np.ndarray], np.ndarray],
        f_inv: Callable[[np.ndarray], np.ndarray],
        f_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        F_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> "CongestionSpec":
        return CongestionSpec(
            f=f, F=F, f_inv=f_inv, f_prime=f_prime or _fd_derivative(f),
            F_prime=F_prime or f, kind="custom",
        )

    def marginal_externality(self, s: np.ndarray) -> np.ndarray:
        """``s f'(s)`` with its continuous limit at ``s = 0``."""
        s = np.asarray(s, dtype=float)
        if self.kind == "entropy":
            return np.ones_like(s)
        if self.kind == "power":
            a, alpha = self.params["a"], self.params["alpha"]
            return a * alpha * s ** alpha
        tiny = 1e-12
        limit = float(tiny * np.asarray(self.f_prime(np.array([tiny])), dtype=float)[0])
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = np.where(s > 0.0, s * np.asarray(self.f_prime(np.where(s > 0, s, 1.0))), limit)
        return out

    def social(self) -> "CongestionSpec":
        """Congestion spec whose antiderivative is ``s f(s)`` (total congestion
        cost), i.e. marginal ``f(s) + s f'(s)`` — the social counterpart of ``f``.

        Custom specs invert the social marginal by bisection."""
        if self.kind == "entropy":
            return CongestionSpec(
                f=_log1, F=_entropy_F_plain,
                f_inv=lambda t: np.exp(np.asarray(t, dtype=float) - 1.0),
                f_prime=self.f_prime, F_prime=_log1,
            )
        if self.kind == "power":
            alpha, a = self.params["alpha"], self.params["a"]
            return CongestionSpec.power(alpha, a * (alpha + 1.0))

        f, fp = self.f, self.f_prime

        def f_social(s):
            s = np.asarray(s, dtype=float)
            return np.asarray(f(s), dtype=float) + s * np.asarray(fp(s), dtype=float)

        def F_social(s):
            s = np.asarray(s, dtype=float)
            return s * np.asarray(f(s), dtype=float)

        def fp_social(s):
            s = np.asarray(s, dtype=float)
            h = 1e-6 * s
            return (f_social(s + h) - f_social(s - h)) / (2.0 * h)

        return CongestionSpec(
            f=f_social, F=F_social, f_inv=_numeric_inverse(f_social),
            f_prime=fp_social, F_prime=f_social,
        )


def _numeric_inverse(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized bisection inverse of a strictly increasing map on (0, inf)."""

    def inverse(t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        lo = np.full(t.shape, 1e-12)
        hi = np.ones(t.shape)
        for _ in range(220):
            mask = np.asarray(fn(lo), dtype=float) > t
            if not mask.any():
                break
            lo = np.where(mask, 0.5 * lo, lo)
        for _ in range(220):
            mask = np.asarray(fn(hi), dtype=float) < t
            if not mask.any():
                break
            hi = np.where(mask, 2.0 * hi, hi)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            below = np.asarray(fn(mid), dtype=float) < t
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    return inverse


def mccann_check(congestion_or_F) -> bool:
    """Probe displacement convexity on the line (McCann's condition in
    dimension 1): ``g(s) = s F(1/s)`` must be convex and non-increasing on a
    log-spaced grid (tolerance 1e-9)."""
    F = congestion_or_F.F if isinstance(congestion_or_F, CongestionSpec) else congestion_or_F
    s = _PROBE_S
    g = s * np.asarray(F(1.0 / s), dtype=float)
    if not np.all(np.isfinite(g)):
        return False
    slopes = np.diff(g) / np.diff(s)
    convex = bool(np.all(np.diff(slopes) >= -1e-9))
    nonincreasing = bool(np.all(np.diff(g) <= 1e-9))
    return convex and nonincreasing


def _dense_rows(fn: Callable, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k fn(y_i, y_k) weights_k`` for every ``i``, a bounded block of
    rows at a time."""
    out = np.empty(y.size)
    chunk = max(1, int(4e6 // max(y.size, 1)))
    for s in range(0, y.size, chunk):
        block = np.asarray(fn(y[s : s + chunk, None], y[None, :]), dtype=float)
        out[s : s + chunk] = block @ weights
    return out


def _centred_prefix_sums(G: np.ndarray) -> tuple:
    """Centred samples ``Gc`` with the exclusive prefix sums of ``Gc``,
    ``Gc^2`` and ``Gc^3``: on sorted ``G``, ``|G_j - G_k|^3`` and its
    derivatives expand through these.  Centering first keeps the cancelling
    cubes small."""
    Gc = G - G.mean()
    powers = (Gc, Gc * Gc, Gc * Gc * Gc)
    return (Gc, *(np.concatenate([[0.0], np.cumsum(p)])[:-1] for p in powers))


@dataclass(frozen=True)
class InteractionKernel:
    """Symmetric pairwise interaction ``phi(y, z)``.

    Building a kernel probes nothing.  ``validate_on`` checks it on an
    action interval, and ``EnergyModel`` calls it once, on the grid's
    interval: a kernel that is not finite or not symmetric there is
    rejected, and so is a ``declared_convex`` kernel whose joint midpoint
    convexity fails on random segments of the interval's square.

    The family's closed forms live here: the grid ``field``, the quantile
    objective's ``sample_energy``, ``sample_gradient`` and
    ``sample_curvature`` on sorted samples, and ``scaled``.
    """

    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dphi_dy: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = "custom"
    kappa: float = 1.0
    declared_convex: bool = False

    def validate_on(self, interval: Interval) -> None:
        rng = np.random.default_rng(1234)
        y = rng.uniform(interval.lo, interval.hi, size=64)
        z = rng.uniform(interval.lo, interval.hi, size=64)
        a = np.asarray(self.phi(y, z), dtype=float)
        b = np.asarray(self.phi(z, y), dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("interaction kernel must be finite on the domain")
        scale = 1.0 + np.max(np.abs(a))
        if np.max(np.abs(a - b)) > 1e-12 * scale:
            raise ValueError("interaction kernel must be symmetric")
        if self.declared_convex:
            p = rng.uniform(interval.lo, interval.hi, size=(64, 2))
            q = rng.uniform(interval.lo, interval.hi, size=(64, 2))
            mid = 0.5 * (p + q)
            lhs = np.asarray(self.phi(mid[:, 0], mid[:, 1]), dtype=float)
            rhs = 0.5 * (
                np.asarray(self.phi(p[:, 0], p[:, 1]), dtype=float)
                + np.asarray(self.phi(q[:, 0], q[:, 1]), dtype=float)
            )
            if np.max(lhs - rhs) > 1e-9 * scale:
                raise ValueError("interaction kernel declared convex fails the midpoint probe")

    def field(self, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``sum_k phi(points_i, points_k) weights_k`` for every ``i``.

        ``points`` must be sorted non-decreasing.  Structured kernels use
        closed-form moment expansions, O(n): prefix sums for the cubic
        kernel, which splits at ``z = y`` on the sorted points.  Only custom
        kernels evaluate ``phi`` densely, a block of rows at a time.
        """
        y = np.asarray(points, dtype=float)
        w = np.asarray(weights, dtype=float)
        if self.kind == "quadratic_distance":
            m0, m1, m2 = float(w.sum()), float(y @ w), float((y * y) @ w)
            return self.kappa * (y * y * m0 - 2.0 * y * m1 + m2)
        if self.kind == "product":
            return self.kappa * y * float(y @ w)
        if self.kind == "cubic_distance":
            yc = y - float(y.mean())
            c0, c1 = np.cumsum(w), np.cumsum(w * yc)
            c2, c3 = np.cumsum(w * yc * yc), np.cumsum(w * yc**3)
            left = yc**3 * c0 - 3.0 * yc**2 * c1 + 3.0 * yc * c2 - c3
            r0, r1, r2, r3 = c0[-1] - c0, c1[-1] - c1, c2[-1] - c2, c3[-1] - c3
            right = r3 - 3.0 * yc * r2 + 3.0 * yc**2 * r1 - yc**3 * r0
            return self.kappa * (left + right)
        return _dense_rows(self.phi, y, w)

    def sample_energy(self, G: np.ndarray) -> float:
        """``(1/(2 m^2)) sum_jk phi(G_j, G_k)`` on sorted samples ``G``."""
        m = G.size
        if self.kind == "quadratic_distance":
            s1 = G.sum()
            return float(self.kappa * (m * np.dot(G, G) - s1 * s1) / (m * m))
        if self.kind == "product":
            s1 = G.sum()
            return float(self.kappa * s1 * s1 / (2.0 * m * m))
        if self.kind == "cubic_distance":
            Gc, q1, q2, q3 = _centred_prefix_sums(G)
            j = np.arange(m)
            total = np.sum(j * Gc**3 - 3.0 * Gc * Gc * q1 + 3.0 * Gc * q2 - q3)
            return float(self.kappa * total / (m * m))
        return float(np.sum(_dense_rows(self.phi, G, np.ones(m)))) / (2.0 * m * m)

    def sample_gradient(self, G: np.ndarray) -> np.ndarray:
        """Gradient of ``sample_energy`` in the sorted samples ``G``."""
        m = G.size
        if self.kind == "quadratic_distance":
            return 2.0 * self.kappa * (m * G - G.sum()) / (m * m)
        if self.kind == "product":
            return np.full(m, self.kappa * G.sum() / (m * m))
        if self.kind == "cubic_distance":
            Gc, q1, q2, _ = _centred_prefix_sums(G)
            r1 = Gc.sum() - q1 - Gc
            r2 = np.dot(Gc, Gc) - q2 - Gc * Gc
            j = np.arange(m)
            left = j * Gc * Gc - 2.0 * Gc * q1 + q2
            right = (m - 1 - j) * Gc * Gc - 2.0 * Gc * r1 + r2
            return 3.0 * self.kappa * (left - right) / (m * m)
        return _dense_rows(self.dphi_dy, G, np.ones(m)) / (m * m)

    def sample_curvature(self, G: np.ndarray) -> np.ndarray:
        """Diagonal of the Hessian of ``sample_energy`` at sorted ``G``.

        Zero for ``kappa <= 0`` and for custom kernels, so that a convex
        curvature model never loses definiteness through the interaction.
        """
        m = G.size
        if self.kappa > 0.0:
            if self.kind == "quadratic_distance":
                return np.full(m, 2.0 * self.kappa * (m - 1) / (m * m))
            if self.kind == "product":
                return np.full(m, self.kappa / (m * m))
            if self.kind == "cubic_distance":
                Gc, q1, _, _ = _centred_prefix_sums(G)
                r1 = Gc.sum() - q1 - Gc
                j = np.arange(m)
                absdist = (2.0 * j - m + 1.0) * Gc - q1 + r1
                return 6.0 * self.kappa * np.clip(absdist, 0.0, None) / (m * m)
        return np.zeros(m)

    def scaled(self, c: float) -> "InteractionKernel":
        """The kernel ``c * phi``, in the same family when it has one."""
        if self.kind in ("quadratic_distance", "cubic_distance", "product"):
            # each family's constructor is named after its kind
            return getattr(InteractionKernel, self.kind)(c * self.kappa)
        phi, dphi = self.phi, self.dphi_dy
        return InteractionKernel.custom(
            phi=lambda y, z: c * np.asarray(phi(y, z), dtype=float),
            dphi_dy=lambda y, z: c * np.asarray(dphi(y, z), dtype=float),
            declared_convex=self.declared_convex and c >= 0.0,
        )

    @staticmethod
    def quadratic_distance(kappa: float) -> "InteractionKernel":
        """``phi(y, z) = kappa |y - z|^2`` (jointly convex for kappa >= 0)."""
        return InteractionKernel(
            phi=lambda y, z: kappa * np.square(np.asarray(y) - np.asarray(z)),
            dphi_dy=lambda y, z: 2.0 * kappa * (np.asarray(y) - np.asarray(z)),
            kind="quadratic_distance", kappa=kappa,
            declared_convex=kappa >= 0.0,
        )

    @staticmethod
    def cubic_distance(kappa: float) -> "InteractionKernel":
        """``phi(y, z) = kappa |y - z|^3`` (jointly convex for kappa >= 0)."""
        return InteractionKernel(
            phi=lambda y, z: kappa * np.abs(np.asarray(y) - np.asarray(z)) ** 3,
            dphi_dy=lambda y, z: 3.0 * kappa
            * np.abs(np.asarray(y) - np.asarray(z)) * (np.asarray(y) - np.asarray(z)),
            kind="cubic_distance", kappa=kappa,
            declared_convex=kappa >= 0.0,
        )

    @staticmethod
    def product(kappa: float) -> "InteractionKernel":
        """``phi(y, z) = kappa * y * z`` (symmetric, indefinite: never declared convex)."""
        return InteractionKernel(
            phi=lambda y, z: kappa * np.asarray(y) * np.asarray(z),
            dphi_dy=lambda y, z: kappa * np.asarray(z) * np.ones_like(np.asarray(y, dtype=float)),
            kind="product", kappa=kappa,
            declared_convex=False,
        )

    @staticmethod
    def custom(
        phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
        dphi_dy: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        declared_convex: bool = False,
    ) -> "InteractionKernel":
        return InteractionKernel(
            phi=phi, dphi_dy=dphi_dy or _fd_derivative(phi), kind="custom",
            declared_convex=declared_convex,
        )


@dataclass(frozen=True)
class PotentialSpec:
    """External potential ``v`` with derivative.

    Building a potential probes nothing.  ``validate_on`` checks it on an
    action interval, and ``EnergyModel`` calls it once, on the grid's
    interval: a potential that is not finite there is rejected.  A
    ``declared_convex`` potential whose second differences go negative
    there only warns, so that borderline configurations remain loadable.
    """

    v: Callable[[np.ndarray], np.ndarray]
    v_prime: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"
    declared_convex: bool = False

    def validate_on(self, interval: Interval) -> None:
        t = np.linspace(interval.lo, interval.hi, 101)
        vals = np.asarray(self.v(t), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential must be finite on the interval")
        if self.declared_convex:
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            if np.min(second) < -1e-9 * (1.0 + np.max(np.abs(vals))):
                warnings.warn(
                    "potential declared convex fails its convexity probe on the interval",
                    stacklevel=2,
                )

    @staticmethod
    def poly(coeffs, declared_convex: bool = False) -> "PotentialSpec":
        """Polynomial ``v(x) = sum coeffs[k] x^k`` with analytic derivative."""
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("poly potential needs a non-empty coefficient vector")
        dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
        return PotentialSpec(
            v=lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c),
            v_prime=lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), dc),
            kind="poly", declared_convex=declared_convex,
        )


@dataclass(frozen=True)
class EnergyModel:
    """Congestion + optional potential + optional interaction on a grid.

    The one place the kernel and the potential are checked: construction
    calls each one's ``validate_on`` once, on ``grid.interval``.
    """

    grid: Grid
    congestion: CongestionSpec
    kernel: Optional[InteractionKernel] = None
    potential: Optional[PotentialSpec] = None

    def __post_init__(self) -> None:
        if self.kernel is not None:
            self.kernel.validate_on(self.grid.interval)
        if self.potential is not None:
            self.potential.validate_on(self.grid.interval)

    def kernel_matrix(self) -> Optional[np.ndarray]:
        if self.kernel is None:
            return None
        y = self.grid.nodes
        return np.asarray(self.kernel.phi(y[:, None], y[None, :]), dtype=float)

    def potential_values(self) -> np.ndarray:
        y = self.grid.nodes
        if self.potential is None:
            return np.zeros_like(y)
        return np.asarray(self.potential.v(y), dtype=float)

    def interaction_field(self, nu: DiscreteDensity) -> np.ndarray:
        """``y -> integral phi(y, z) dnu(z)`` at the grid nodes.

        See ``InteractionKernel.field`` for the closed forms used.
        """
        if self.kernel is None:
            return np.zeros(self.grid.n)
        return self.kernel.field(self.grid.nodes, nu.masses)


def energy_eval(model: EnergyModel, nu: DiscreteDensity) -> float:
    """``E[nu]`` by midpoint quadrature on the grid (interaction halved)."""
    d = model.grid.delta
    Fv = np.asarray(model.congestion.F(nu.values), dtype=float)
    if not np.all(np.isfinite(Fv)):
        raise ValueError("energy model returned non-finite congestion values")
    total = float(d * Fv.sum())
    total += float(np.dot(model.potential_values(), nu.masses))
    if model.kernel is not None:
        total += 0.5 * float(nu.masses @ model.interaction_field(nu))
    if not np.isfinite(total):
        raise ValueError("energy model returned non-finite values")
    return total


def first_variation(model: EnergyModel, nu: DiscreteDensity) -> np.ndarray:
    """``V[nu] = f(nu) + v + integral phi(., z) dnu(z)`` at the grid nodes.

    Under Inada congestion the value is ``-inf`` on empty cells (an empty
    cell is infinitely attractive); NaN is never returned.
    """
    with np.errstate(divide="ignore"):
        fv = np.asarray(model.congestion.f(nu.values), dtype=float)
    out = fv + model.potential_values() + model.interaction_field(nu)
    if np.any(np.isnan(out)):
        raise ValueError("first variation produced NaN")
    return out
