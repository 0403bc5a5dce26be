"""Energy functionals: congestion, external potential, pairwise interaction.

The energy of a density ``nu`` is

    E[nu] = integral F(nu) + integral v dnu + 1/2 double-integral phi dnu dnu

with ``F' = f + c`` (``CongestionSpec.F_prime``), where ``c`` is 1 for the
plain-entropy bookkeeping convention and 0 otherwise: it adds ``c`` to ``E`` and
changes nothing at first order against mass-preserving perturbations.  Its
first variation is

    V[nu](y) = f(nu(y)) + v(y) + integral phi(y, z) dnu(z).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
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


def _positive_finite(s: np.ndarray) -> bool:
    """Whether every value of ``s`` is finite and > 0 (NaN is neither): there
    the entropy antiderivatives take their closed forms with no error-state
    guard and no masking, the bits of their guarded forms at half the cost
    or less."""
    return 0.0 < s.min(initial=math.inf) and s.max(initial=-math.inf) < math.inf


def _entropy_F_shifted(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if _positive_finite(s):
        return s * np.log(s) - s
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0.0, s * np.log(np.where(s > 0.0, s, 1.0)) - s, 0.0)
    return out


def _entropy_F_plain(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if _positive_finite(s):
        return s * np.log(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0.0, s * np.log(np.where(s > 0.0, s, 1.0)), 0.0)
    return out


def _log(s: np.ndarray) -> np.ndarray:
    # one np.log either way: a guard-free test would cost more than the guard
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(s, dtype=float))


def _log1(s: np.ndarray) -> np.ndarray:
    return 1.0 + _log(s)


def _entropy_slope(u: np.ndarray, F_u: np.ndarray) -> np.ndarray:
    """``F(u) - u F'(u) = -u`` in both entropy conventions (and the social
    spec's ``F = u log u``, ``F' = 1 + log u``)."""
    return np.negative(u)


def _entropy_curvature(u: np.ndarray, F_u: np.ndarray) -> np.ndarray:
    """``u^3 f'(u) = u^2`` for ``f' = 1/u``."""
    return np.multiply(u, u)


def _fd_positive(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Central difference of ``fn`` on ``(0, inf)``, step ``1e-6 s``: the
    relative step keeps the stencil inside the half-line, where congestion
    lives, at every positive ``s``."""

    def deriv(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        h = 1e-6 * s
        return (
            np.asarray(fn(s + h), dtype=float) - np.asarray(fn(s - h), dtype=float)
        ) / (2.0 * h)

    return deriv


@dataclass(frozen=True)
class CongestionSpec:
    """Congestion cost ``f`` with antiderivative ``F`` and inverse.

    ``F_prime`` is ``F'``: ``1 + log`` for plain entropy and ``f`` for every
    other spec.  The constructor probes that ``f`` is increasing, that ``F``
    is an antiderivative of ``F_prime`` (by central differences), that
    ``f_inv`` inverts ``f`` and that the closed forms ``slope_form`` and
    ``curvature_form``, where given, equal ``gap_slope`` and
    ``gap_curvature``'s generic formulas (relative 1e-9).  The family's
    closed forms live here: ``gap_slope``, ``gap_curvature``,
    ``marginal_externality`` and the social counterpart ``social``.
    """

    f: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    f_inv: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"
    convention: Optional[str] = None
    params: dict = field(default_factory=dict)
    slope_form: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False)
    curvature_form: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False)
    satisfies_mccann: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        fv = np.asarray(self.f(_PROBE_S), dtype=float)
        if not np.all(np.isfinite(fv)):
            raise ValueError("congestion f must be finite on (0, inf)")
        if np.any(np.diff(fv) <= 0.0):
            raise ValueError("congestion f must be strictly increasing")
        # F' = F_prime, by central differences
        dev = _fd_positive(self.F)(_PROBE_S) - self.F_prime(_PROBE_S)
        if np.max(np.abs(dev)) > 1e-6 * (1.0 + np.max(np.abs(fv))):
            raise ValueError("congestion F' must equal F_prime")
        # round-trip of the inverse on the probe range
        rt = np.asarray(self.f_inv(fv), dtype=float)
        if np.max(np.abs(rt - _PROBE_S) / _PROBE_S) > 1e-8:
            raise ValueError("congestion f_inv must invert f")
        # the closed forms against the formulas they replace
        F_s = np.asarray(self.F(_PROBE_S), dtype=float)
        for name, form, generic in (("slope_form", self.slope_form, self._generic_slope),
                                    ("curvature_form", self.curvature_form,
                                     self._generic_curvature)):
            if form is not None:
                want = generic(_PROBE_S, F_s)
                got = np.asarray(form(_PROBE_S, F_s), dtype=float)
                if not np.all(np.abs(got - want) <= 1e-9 * np.abs(want)):
                    raise ValueError(f"congestion {name} must equal its generic formula")
        object.__setattr__(self, "satisfies_mccann", mccann_check(self))

    @property
    def F_prime(self) -> Callable[[np.ndarray], np.ndarray]:
        """``F'``: ``1 + log`` for plain entropy, ``f`` for every other spec."""
        return _log1 if self.convention == "plain" else self.f

    def gap_slope(self, u: np.ndarray, F_u: np.ndarray) -> np.ndarray:
        """``F(u) - u F'(u)`` at ``u > 0`` given ``F_u = F(u)``, a fresh array:
        the derivative of a gap's congestion energy ``g F(1/((m-1) g))`` in
        ``g``, at ``u = 1/((m-1) g)``.  The closed form ``slope_form`` where
        the family has one (``-u`` for entropy, ``-alpha F(u)`` for power),
        else the formula through ``F_prime``."""
        if self.slope_form is not None:
            return self.slope_form(u, F_u)
        return self._generic_slope(u, F_u)

    def gap_curvature(self, u: np.ndarray, F_u: np.ndarray) -> np.ndarray:
        """``u^3 f'(u)`` at ``u > 0`` given ``F_u = F(u)``, a fresh array: the
        second derivative of a gap's congestion energy in ``g`` is
        ``(m-1) u^3 f'(u)``.  The closed form ``curvature_form`` where the
        family has one (``u^2`` for entropy, ``alpha (alpha+1) u F(u)`` for
        power), else the formula through ``f_prime``."""
        if self.curvature_form is not None:
            return self.curvature_form(u, F_u)
        return self._generic_curvature(u, F_u)

    def _generic_slope(self, u: np.ndarray, F_u: np.ndarray) -> np.ndarray:
        out = np.multiply(u, np.asarray(self.F_prime(u), dtype=float))
        return np.subtract(F_u, out, out=out)

    def _generic_curvature(self, u: np.ndarray, F_u: np.ndarray) -> np.ndarray:
        out = np.multiply(u, u)
        out *= u  # u^3 as products, not pow
        out *= np.asarray(self.f_prime(u), dtype=float)
        return out

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
            kind="entropy",
            convention=convention,
            slope_form=_entropy_slope,
            curvature_form=_entropy_curvature,
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

        def slope(u: np.ndarray, F_u: np.ndarray) -> np.ndarray:
            return np.multiply(F_u, -alpha)

        def curvature(u: np.ndarray, F_u: np.ndarray) -> np.ndarray:
            out = np.multiply(u, F_u)
            out *= alpha * (alpha + 1.0)
            return out

        return CongestionSpec(
            f=f, F=F, f_inv=f_inv, f_prime=f_prime,
            kind="power", params={"alpha": alpha, "a": a},
            slope_form=slope, curvature_form=curvature,
        )

    @staticmethod
    def custom(
        f: Callable[[np.ndarray], np.ndarray],
        F: Callable[[np.ndarray], np.ndarray],
        f_inv: Callable[[np.ndarray], np.ndarray],
        f_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> "CongestionSpec":
        """A spec from ``f``, its antiderivative ``F`` (``F' = f``) and inverse."""
        return CongestionSpec(
            f=f, F=F, f_inv=f_inv, f_prime=f_prime or _fd_positive(f), kind="custom",
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

        Every branch's ``F`` takes the limit 0 at ``s = 0``, where ``f`` may be
        infinite.  Custom specs invert the social marginal by bisection."""
        if self.kind == "entropy":
            return CongestionSpec(
                f=_log1, F=_entropy_F_plain,
                f_inv=lambda t: np.exp(np.asarray(t, dtype=float) - 1.0),
                f_prime=self.f_prime,
                slope_form=_entropy_slope, curvature_form=_entropy_curvature,
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
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(s > 0.0, s * np.asarray(f(s), dtype=float), 0.0)

        return CongestionSpec(
            f=f_social, F=F_social, f_inv=_numeric_inverse(f_social),
            f_prime=_fd_positive(f_social),
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


def _additive_recurrence(count: int, dim: int) -> np.ndarray:
    """The first ``count`` points of the ``R_dim`` low-discrepancy sequence in
    ``[0, 1)^dim``: ``frac(1/2 + k alpha)`` for ``k = 1..count``, with
    ``alpha_i = g^-i`` and ``g`` the positive root of ``x^(dim+1) = x + 1``."""
    g = 2.0
    for _ in range(64):  # a contraction onto the root
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = g ** -np.arange(1.0, dim + 1)
    return (0.5 + np.arange(1, count + 1)[:, None] * alpha) % 1.0


# unit-square probes of InteractionKernel.validate_on: pairs (y, z), with 16
# more in each diagonal corner box of side 0.1, then segments (y, z) -> (y', z'),
# each set closed by the square's corners
_CORNERS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
_PROBE_PAIRS = np.vstack(
    [_additive_recurrence(64, 2), 0.1 * _additive_recurrence(16, 2),
     0.9 + 0.1 * _additive_recurrence(16, 2), _CORNERS[1]]
)
_PROBE_SEGMENTS = np.vstack(
    [_additive_recurrence(64, 4)]
    + [np.hstack([_CORNERS[i], _CORNERS[j]]) for i in range(4) for j in range(i + 1, 4)]
)


def _dense_rows(fn: Callable, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k fn(y_i, y_k) weights_k`` for every ``i``, a bounded block of
    rows at a time."""
    out = np.empty(y.size)
    chunk = max(1, int(4e6 // max(y.size, 1)))
    for s in range(0, y.size, chunk):
        block = np.asarray(fn(y[s : s + chunk, None], y[None, :]), dtype=float)
        out[s : s + chunk] = block @ weights
    return out


def _family(terms: tuple, split: bool = False, centred: bool = True) -> tuple:
    """``(levels, cross, split, centred, terms)``: ``levels[o]`` are the Horner
    levels of ``d^o/dy^o phi / kappa`` in ``ybar``, top first, each the
    ``(b, c a!/(a-o)!)`` of its one term; ``cross = sum c a b`` is the self
    pair's ``d^2 phi/dy dz (y, y) / kappa`` (each table has ``a + b = 2``, or 0)."""
    (total,) = {a + b for a, b, _ in terms}  # homogeneous
    top, coeff = max(a for a, _, _ in terms), {a: c for a, _, c in terms}
    levels = tuple(tuple((total - a, coeff[a] * math.perm(a, o)) if a in coeff else (0, 0.0)
                         for a in range(max(top, o), o - 1, -1)) for o in range(3))
    return levels, sum(a * b * c for a, b, c in terms), split, centred, terms


# phi / kappa = sum c ybar^a zbar^b over the terms (a, b, c), times sign(y - z)
# where split at z = y.  ybar = y - y[m // 2]: the middle point, a median of
# equally weighted points, lies within one standard deviation of their mean,
# so it keeps the moments small at no cost.  The product's moments do not
# cancel, so it is not centred.
_FAMILIES = {
    "quadratic_distance": _family(((2, 0, 1.0), (1, 1, -2.0), (0, 2, 1.0))),
    "cubic_distance": _family(((3, 0, 1.0), (2, 1, -3.0), (1, 2, 3.0), (0, 3, -1.0)), split=True),
    "product": _family(((1, 1, 1.0),), centred=False),
}


def _split_horner(levels: tuple, moments: tuple, alpha: float, beta: float) -> np.ndarray:
    """``sum_i ybar^i c_i (alpha P_b + beta T_b)`` over a split family's
    ``levels`` by Horner's rule in one buffer and a scratch one; the top level
    is ``b = 0``, and one weight's ``P_0 = j + 1`` is built here."""
    _, _, totals, ybar, prefix = moments
    first, out, tmp = len(totals) - len(prefix), None, None
    for b, c in levels:
        if out is None:
            out = np.arange(1.0, ybar.size + 1) if b < first else prefix[b - first].copy()
            out *= alpha * c
        else:
            out *= ybar
            tmp = np.multiply(prefix[b - first], alpha * c, out=tmp)
            out += tmp
        if beta:
            out += beta * c * totals[b]
    return out


@dataclass(frozen=True)
class InteractionKernel:
    """Symmetric pairwise interaction ``phi(y, z)``.

    Building a kernel probes nothing.  ``validate_on`` checks it on an
    action interval, and ``EnergyModel`` calls it once, on the grid's
    interval: a kernel that is not finite or not symmetric there is
    rejected, and so is a ``declared_convex`` kernel whose joint midpoint
    convexity fails on segments of the interval's square.  The probes are a
    fixed low-discrepancy sample of the square with its corners.

    One moment engine serves the structured families, each a table
    (``_FAMILIES``): from the ``moments`` of sorted points, ``sums`` gives
    ``S_o[j] = sum_k w_k d^o/dy^o phi(y_j, y_k)``, ``o = 0, 1, 2``, in O(m)
    by Horner's rule over ``T_b = sum w ybar^b`` or, split at ``z = y``, its
    prefix sums; ``field``, ``energy``, ``gradient`` and ``curvature`` read
    it.  Custom kernels go densely.  Powers are products: ``x**3`` calls
    ``pow``, some forty times the cost on mixed-sign input.
    """

    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dphi_dy: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = "custom"
    kappa: float = 1.0
    declared_convex: bool = False

    def validate_on(self, interval: Interval) -> None:
        """Probe the kernel on a fixed low-discrepancy sample of the interval's
        square: symmetry and finiteness on 64 pairs ``(y, z)``, 16 more in
        each diagonal corner box of side ``0.1 L`` (``[lo, lo + 0.1 L]^2`` and
        ``[hi - 0.1 L, hi]^2``) and the corner ``(lo, hi)``; for a
        ``declared_convex`` kernel, joint midpoint convexity on 64 segments
        and the six segments joining the corners."""
        lo, length = interval.lo, interval.length
        y, z = (lo + length * _PROBE_PAIRS).T
        a = np.asarray(self.phi(y, z), dtype=float)
        b = np.asarray(self.phi(z, y), dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("interaction kernel must be finite on the domain")
        scale = 1.0 + np.max(np.abs(a))
        if np.max(np.abs(a - b)) > 1e-12 * scale:
            raise ValueError("interaction kernel must be symmetric")
        if self.declared_convex:
            p, q = np.hsplit(lo + length * _PROBE_SEGMENTS, 2)
            mid = 0.5 * (p + q)
            lhs = np.asarray(self.phi(mid[:, 0], mid[:, 1]), dtype=float)
            rhs = 0.5 * (
                np.asarray(self.phi(p[:, 0], p[:, 1]), dtype=float)
                + np.asarray(self.phi(q[:, 0], q[:, 1]), dtype=float)
            )
            if np.max(lhs - rhs) > 1e-9 * scale:
                raise ValueError("interaction kernel declared convex fails the midpoint probe")

    def moments(self, y: np.ndarray, w) -> Optional[tuple]:
        """``(centre, unit, T / unit, ybar, P / unit)`` of sorted ``y`` with
        weights ``w``, an array or one number ``unit`` (else ``unit`` = 1);
        ``P_b[j] = sum_{k<=j} w_k ybar_k^b`` and ``ybar`` only for a split
        family (one weight keeps no ``P_0``).  None for custom kernels."""
        family = _FAMILIES.get(self.kind)
        if family is None:
            return None
        levels, _, split, centred, _ = family
        array, top = isinstance(w, np.ndarray), len(levels[0]) - 1
        centre = float(y[y.size // 2]) if centred else 0.0
        ybar = y - centre if centred else y
        power, sums = (w if array else None), []  # (w / unit) ybar^b
        for b in range(0 if array else 1, top + 1):
            if power is None:
                power = ybar
            elif b and (power is w or power is ybar and (split or not centred or b < top)):
                power = power * ybar  # w and ybar are read again
            elif b:
                power *= ybar
            sums.append(np.cumsum(power) if split else float(np.add.reduce(power)))
        unit, lead = (1.0, []) if array else (float(w), [float(y.size)])
        if not split:
            return centre, unit, lead + sums, None, None
        return centre, unit, lead + [float(s[-1]) for s in sums], ybar, sums

    def sums(self, order: int, points: np.ndarray, weights) -> np.ndarray:
        """``S_order`` at sorted ``points`` with ``weights`` (an array or one
        number), ``order`` 0, 1 or 2 (0 or 1 for custom kernels)."""
        y = np.asarray(points, dtype=float)
        w = weights if np.isscalar(weights) else np.asarray(weights, dtype=float)
        if self.kind not in _FAMILIES:
            return _dense_rows((self.phi, self.dphi_dy)[order], y, np.broadcast_to(w, y.shape))
        return self._expand(order, y, self.moments(y, w), 1.0)

    def field(self, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``sum_k phi(points_i, points_k) weights_k`` at sorted ``points``."""
        return self.sums(0, points, weights)

    def _expand(self, order: int, y: np.ndarray, moments: tuple, outer, shift=0.0) -> np.ndarray:
        """``outer (S_order + shift)``; a number ``outer`` folds into the coefficients."""
        if isinstance(outer, np.ndarray):
            return (self._expand(order, y, moments, 1.0) + shift) * outer
        (levels, _, split, _, _), scale = _FAMILIES[self.kind], self.kappa * outer * moments[1]
        if split:  # c P_b for the pairs k <= j, c (T_b - P_b) for the rest: the pair
            # k = j and ties add 0 at every order, so either side may take them
            out = _split_horner(levels[order], moments, 2.0 * scale, -scale)
            if shift:
                out += outer * shift
            return out
        centre, totals = moments[0], moments[2]
        p = [scale * c * totals[b] for b, c in levels[order]]  # coefficients in ybar
        p[-1] += outer * shift
        while len(p) > 1 and p[0] == 0.0:  # kappa = 0, or no weight: p0 cannot divide
            del p[0]
        if len(p) == 1:  # np.empty and fill: np.full's bits at half its cost for small m
            out = np.empty(y.size)
            out.fill(p[0])
            return out
        out = np.subtract(y, centre - p[1] / p[0])  # p0 ybar + p1 in one buffer, two passes
        out *= p[0]
        for pi in p[2:]:
            out *= y - centre
            out += pi
        return out

    def energy(self, y: np.ndarray, w, moments: Optional[tuple]) -> float:
        """``(1/2) sum_jk w_j w_k phi(y_j, y_k)`` from ``moments(y, w)``, with
        no ``S_0`` array: ``(kappa/2) sum c T_a T_b``, or for a split family
        the pairs ``k < j`` (the antisymmetric part cancels, ``phi(y, y) = 0``)."""
        if moments is None:
            return 0.5 * float(np.broadcast_to(w, y.shape) @ self.sums(0, y, w))
        (levels, _, split, _, terms), unit, T = _FAMILIES[self.kind], moments[1], moments[2]
        if not split:
            return 0.5 * self.kappa * unit * unit * sum([c * T[a] * T[b] for a, b, c in terms])
        left = _split_horner(levels[0], moments, 1.0, 0.0)
        left = float(left @ w) if isinstance(w, np.ndarray) else unit * float(np.add.reduce(left))
        return self.kappa * unit * left

    def gradient(self, y: np.ndarray, w, moments: Optional[tuple]) -> np.ndarray:
        """Gradient of ``energy`` in the sorted points ``y``: ``w S_1``."""
        return self.sums(1, y, w) * w if moments is None else self._expand(1, y, moments, w)

    def curvature(self, y: np.ndarray, w, moments: Optional[tuple]) -> np.ndarray:
        """Hessian diagonal of ``energy``: ``w S_2`` plus ``w^2 d^2 phi/dy dz
        (y, y)``, each point's pair with itself.  Zero for ``kappa <= 0`` and
        custom kernels, so a convex model keeps its definiteness."""
        if self.kappa <= 0.0 or moments is None:
            return np.zeros(y.size)
        return self._expand(2, y, moments, w, self.kappa * _FAMILIES[self.kind][1] * w)

    def scaled(self, c: float) -> "InteractionKernel":
        """The kernel ``c * phi``, in the same family when it has one."""
        if self.kind in _FAMILIES:  # each family's constructor is named after its kind
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
    """External potential ``v`` with its first and second derivatives.

    ``v_second`` feeds the quantile solver's curvature model.  ``poly``
    gives it in closed form; left out, it is the central difference of
    ``v_prime`` with step ``1e-6 (1 + |x|)``.

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
    v_second: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.v_second is None:
            object.__setattr__(self, "v_second", _fd_derivative(self.v_prime))

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
        """Polynomial ``v(x) = sum coeffs[k] x^k`` with analytic first and
        second derivatives."""
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("poly potential needs a non-empty coefficient vector")
        # np.polynomial.polynomial.polyder's arithmetic, j * c[j], without its import
        dc = c[1:] * np.arange(1, c.size) if c.size > 1 else np.zeros(1)
        d2c = dc[1:] * np.arange(1, dc.size) if c.size > 2 else c[:1] * 0
        return PotentialSpec(
            v=_horner(c), v_prime=_horner(dc), v_second=_horner(d2c),
            kind="poly", declared_convex=declared_convex,
        )


def _horner(c: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``x -> sum c[k] x^k`` by Horner's rule in one buffer: the operations of
    ``np.polynomial.polynomial.polyval``, from ``x * 0.0`` on, so its bits."""

    def value(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = x * 0.0
        out += c[-1]
        for ck in c[-2::-1]:
            out *= x
            out += ck
        return out

    return value


@dataclass(frozen=True)
class EnergyModel:
    """Congestion + optional potential + optional interaction on a grid.

    The one place the kernel and the potential are checked: construction
    calls each one's ``validate_on`` once, on ``grid.interval``.  ``social``
    is the model whose energy is the social cost's, built on first read.
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

    @cached_property
    def social(self) -> "EnergyModel":
        """The social counterpart: congestion ``social()``, the kernel doubled
        (``scaled(2.0)``) and the same potential."""
        return EnergyModel(
            grid=self.grid,
            congestion=self.congestion.social(),
            kernel=None if self.kernel is None else self.kernel.scaled(2.0),
            potential=self.potential,
        )

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
