"""Congestion specs, interaction kernels, potentials, and the energy model."""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnot import (
    CongestionSpec,
    EnergyModel,
    Grid,
    Interval,
    InteractionKernel,
    PotentialSpec,
    density_from_values,
    energy_eval,
    first_variation,
    gaussian_truncated_density,
    mccann_check,
    uniform_density,
)
from cnot.energy import _entropy_curvature, _entropy_slope

ROOT = Path(__file__).resolve().parents[1]


def test_entropy_conventions_share_f():
    """Both entropy bookkeepings have f = log s; only F differs by s."""
    s = np.array([0.25, 1.0, 3.0])
    shifted = CongestionSpec.entropy("shifted")
    plain = CongestionSpec.entropy("plain")
    assert np.allclose(shifted.f(s), np.log(s))
    assert np.allclose(plain.f(s), np.log(s))
    assert np.allclose(shifted.F(s), s * np.log(s) - s)
    assert np.allclose(plain.F(s), s * np.log(s))
    assert np.allclose(plain.F(s) - shifted.F(s), s)
    with pytest.raises(ValueError):
        CongestionSpec.entropy("other")


_CLOSED_FORM_SPECS = {
    "entropy_shifted": lambda: CongestionSpec.entropy("shifted"),
    "entropy_plain": lambda: CongestionSpec.entropy("plain"),
    "entropy_social": lambda: CongestionSpec.entropy().social(),
    "power_integer": lambda: CongestionSpec.power(8.0, 1.0),
    "power_fractional": lambda: CongestionSpec.power(0.37, 3.1),
    "power_integer_social": lambda: CongestionSpec.power(2.0, 0.7).social(),
    "power_fractional_social": lambda: CongestionSpec.power(5.8434929, 0.18674856).social(),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_SPECS))
@settings(max_examples=60, deadline=None)
@given(u=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8))
def test_congestion_closed_forms_match_their_generic_formulas(name, u):
    """Each named family's ``gap_slope`` and ``gap_curvature`` are its closed
    forms, not the generic formulas: ``_entropy_slope`` and
    ``_entropy_curvature`` (``-u`` and ``u^2``) for entropy in both
    conventions and its social spec, ``-alpha F(u)`` and
    ``alpha (alpha+1) u F(u)`` byte for byte for power and its social spec.
    Each matches ``F(u) - u F'(u)`` and ``u^3 f'(u)`` through ``F_prime``
    and ``f_prime`` to 1e-12 relative on [1e-3, 1e3]."""
    spec = _CLOSED_FORM_SPECS[name]()
    u = np.array(u)
    F_u = np.asarray(spec.F(u), dtype=float)
    if name.startswith("entropy"):
        assert spec.gap_slope is _entropy_slope and spec.gap_curvature is _entropy_curvature
    else:
        alpha = spec.params["alpha"]
        assert spec.gap_slope(u, F_u).tobytes() == (F_u * -alpha).tobytes()
        assert (spec.gap_curvature(u, F_u).tobytes()
                == (u * F_u * (alpha * (alpha + 1.0))).tobytes())
    slope = F_u - u * np.asarray(spec.F_prime(u), dtype=float)
    curvature = u**3 * np.asarray(spec.f_prime(u), dtype=float)
    assert np.all(np.abs(spec.gap_slope(u, F_u) - slope) <= 1e-12 * np.abs(slope))
    assert np.all(np.abs(spec.gap_curvature(u, F_u) - curvature) <= 1e-12 * np.abs(curvature))


def test_congestion_checks_its_closed_forms():
    """A gap term that differs from its formula is refused at construction;
    a custom spec is given none, and the constructor fills ``gap_slope`` and
    ``gap_curvature`` with the formulas through ``F_prime`` and
    ``f_prime``, here ``-u`` and ``u^2``."""
    entropy = CongestionSpec.entropy()
    fields = dict(f=entropy.f, F=entropy.F, f_inv=entropy.f_inv, f_prime=entropy.f_prime)
    with pytest.raises(ValueError, match="gap_slope"):
        CongestionSpec(**fields, gap_slope=lambda u, F_u: u)
    with pytest.raises(ValueError, match="gap_curvature"):
        CongestionSpec(**fields, gap_curvature=lambda u, F_u: u * u * (1.0 + 1e-6))
    custom = CongestionSpec.custom(**fields)
    u = np.array([0.5, 2.0])
    F_u = custom.F(u)
    assert custom.gap_slope(u, F_u).tobytes() == (F_u - u * custom.F_prime(u)).tobytes()
    assert custom.gap_curvature(u, F_u).tobytes() == (u * u * u * custom.f_prime(u)).tobytes()
    assert np.allclose(custom.gap_slope(u, F_u), -u, rtol=1e-14)
    assert np.allclose(custom.gap_curvature(u, F_u), u * u, rtol=1e-14)


def test_power_congestion_values():
    """Power congestion f = a s^alpha with matching antiderivative and inverse."""
    spec = CongestionSpec.power(8.0, 2.0)
    s = np.array([0.5, 1.0, 1.5])
    assert np.allclose(spec.f(s), 2.0 * s**8)
    assert np.allclose(spec.F(s), 2.0 * s**9 / 9.0)
    assert np.allclose(spec.f_inv(spec.f(s)), s)
    assert spec.f_inv(np.array([-1.0]))[0] == 0.0
    with pytest.raises(ValueError):
        CongestionSpec.power(0.0)


def test_congestion_probe_rejects_decreasing_f():
    """A decreasing marginal cost cannot be a congestion spec."""
    with pytest.raises(ValueError, match="strictly increasing"):
        CongestionSpec.custom(
            f=lambda s: -s, F=lambda s: -0.5 * s * s, f_inv=lambda t: -t
        )


def test_congestion_probe_rejects_wrong_antiderivative():
    """F' must equal ``F_prime``: ``1 + log`` for plain entropy, ``f`` for
    every other spec.  A custom ``F = s log s`` has
    ``F' = log + 1``, plain entropy's bookkeeping, which only that
    convention declares; accepted, it would price a gradient off by the
    constant and stop at the first iterate."""
    with pytest.raises(ValueError, match="F'"):
        CongestionSpec.custom(f=np.log, F=lambda s: s * s, f_inv=np.exp)
    with pytest.raises(ValueError, match="F'"):
        CongestionSpec.custom(f=np.log, F=lambda s: s * np.log(s), f_inv=np.exp)
    s = np.logspace(-3.0, 3.0, 61)
    plain = CongestionSpec.entropy("plain")
    assert np.array_equal(plain.F_prime(s), 1.0 + np.log(s))
    shifted = CongestionSpec.entropy("shifted")
    assert shifted.F_prime is shifted.f
    social = plain.social()
    assert social.F_prime is social.f


def test_congestion_probe_rejects_wrong_inverse():
    """f_inv must actually invert f."""
    with pytest.raises(ValueError, match="invert"):
        CongestionSpec.custom(
            f=np.log, F=lambda s: s * np.log(s) - s, f_inv=lambda t: np.exp(2.0 * t)
        )


def test_marginal_externality_values():
    """s f'(s) is 1 for entropy and a*alpha*s^alpha for powers.  A custom
    spec without ``f_prime`` differences ``f`` with the relative step
    ``1e-6 s``, which never leaves ``(0, inf)``: for ``f = log`` it reads 1
    down to ``s = 1e-12`` and in the limit at 0, with no RuntimeWarning
    (an error in this suite)."""
    s = np.array([0.2, 1.0, 4.0])
    assert np.allclose(CongestionSpec.entropy().marginal_externality(s), 1.0)
    assert np.allclose(
        CongestionSpec.power(3.0, 0.5).marginal_externality(s), 1.5 * s**3
    )
    custom = CongestionSpec.custom(
        f=lambda t: t, F=lambda t: 0.5 * t * t, f_inv=lambda t: t
    )
    assert np.allclose(custom.marginal_externality(s), s, atol=1e-6)
    log = CongestionSpec.custom(f=np.log, F=lambda t: t * np.log(t) - t, f_inv=np.exp)
    near_zero = np.array([0.0, 1e-12, 1e-9, 1e-7, 0.5, 100.0])
    assert np.allclose(log.marginal_externality(near_zero), 1.0, rtol=0.0, atol=1e-6)


def test_entropy_antiderivatives_keep_the_bits_of_their_guarded_form():
    """Both entropy antiderivatives equal, bit for bit, the masked form
    ``where(s > 0, s log s [- s], 0)`` under an error-state guard: on finite
    positive values, which take the closed form without the guard, and on
    values with 0, inf and NaN, which keep the guard, with no RuntimeWarning
    (an error in this suite)."""

    def masked(s, shifted):
        with np.errstate(divide="ignore", invalid="ignore"):
            value = s * np.log(np.where(s > 0.0, s, 1.0))
            return np.where(s > 0.0, value - s if shifted else value, 0.0)

    positive = np.random.default_rng(3).uniform(1e-9, 50.0, 257)
    edges = np.array([0.0, 1e-300, 0.5, 1.0, np.inf, np.nan])
    for s in (positive, edges, positive.reshape(1, -1)):
        for convention in ("shifted", "plain"):
            F = CongestionSpec.entropy(convention).F(s)
            assert F.tobytes() == masked(s, convention == "shifted").tobytes(), (convention, s)


def test_mccann_flags():
    """Entropy and power congestion both satisfy the convexity condition."""
    assert CongestionSpec.entropy().satisfies_mccann
    assert CongestionSpec.power(8.0).satisfies_mccann
    assert mccann_check(CongestionSpec.entropy())
    # F = sqrt(s) gives s F(1/s) = sqrt(s): increasing and concave
    assert not mccann_check(np.sqrt)


def test_kernel_constructors_and_symmetry():
    """Named kernels evaluate as documented; asymmetry is a hard error."""
    y = np.array([0.0, 1.0])[:, None]
    z = np.array([0.5, 2.0])[None, :]
    quad = InteractionKernel.quadratic_distance(2.0)
    assert np.allclose(quad.phi(y, z), 2.0 * (y - z) ** 2)
    cubic = InteractionKernel.cubic_distance(1.5)
    assert np.allclose(cubic.phi(y, z), 1.5 * np.abs(y - z) ** 3)
    prod = InteractionKernel.product(0.5)
    assert np.allclose(prod.phi(y, z), 0.5 * y * z)
    assert not prod.declared_convex
    with pytest.raises(ValueError, match="symmetric"):
        InteractionKernel.custom(lambda a, b: a - b).validate_on(Interval(0.0, 1.0))


def test_kernel_convexity_declaration():
    """Negative-strength kernels lose the convexity declaration; a false
    declaration fails the midpoint probe."""
    assert not InteractionKernel.quadratic_distance(-1.0).declared_convex
    assert InteractionKernel.quadratic_distance(1.0).declared_convex
    with pytest.raises(ValueError, match="convex"):
        InteractionKernel.custom(
            lambda y, z: -np.square(np.asarray(y) - np.asarray(z)),
            declared_convex=True,
        ).validate_on(Interval(0.0, 1.0))


def _unit_square_kernel(f, interval):
    """``phi(y, z) = f(s, t)`` with ``(s, t)`` the points mapped onto [0, 1]."""
    lo, length = interval.lo, interval.length
    return lambda y, z: f((np.asarray(y, dtype=float) - lo) / length,
                          (np.asarray(z, dtype=float) - lo) / length)


def test_kernel_probe_finds_defects_near_a_corner_or_an_edge():
    """The kernel probe is a fixed low-discrepancy sample of the interval's
    square with its corners, not a random draw: a kernel asymmetric only in
    a corner box of side 0.1, on the diagonal or off it, or in an edge strip
    of width 0.1, is refused as not symmetric; a symmetric kernel
    declared convex but concave only there fails the midpoint probe.  The
    defects are placed in the unit square mapped onto [2, 5]."""
    interval = Interval(2.0, 5.0)
    pos = lambda t: np.maximum(t, 0.0)
    asymmetric = [
        lambda s, t: (s - t) ** 2 + pos(s - 0.85) * pos(t - 0.85) ** 2,
        lambda s, t: (s - t) ** 2 + pos(0.15 - s) * pos(0.15 - t) ** 2,
        lambda s, t: (s - t) ** 2 + pos(s - 0.9) * pos(t - 0.9) ** 2,
        lambda s, t: (s - t) ** 2 + pos(0.1 - s) * pos(0.1 - t) ** 2,
        lambda s, t: (s - t) ** 2 + pos(s - 0.9) * pos(0.1 - t),
        lambda s, t: (s - t) ** 2 + pos(s - 0.9) * t,
        lambda s, t: (s - t) ** 2 + pos(0.1 - t) * s,
    ]
    for f in asymmetric:
        kernel = InteractionKernel.custom(_unit_square_kernel(f, interval))
        with pytest.raises(ValueError, match="symmetric"):
            kernel.validate_on(interval)
    nonconvex = [
        lambda s, t: (s - t) ** 2 - 1e4 * (pos(s - 0.9) * pos(t - 0.9)) ** 2,
        lambda s, t: (s - t) ** 2 - 1e4 * (pos(0.1 - s) * pos(0.1 - t)) ** 2,
        lambda s, t: (s - t) ** 2
        - 1e4 * ((pos(0.1 - s) * pos(t - 0.9)) ** 2 + (pos(0.1 - t) * pos(s - 0.9)) ** 2),
        lambda s, t: (s - t) ** 2 - 200.0 * (pos(s - 0.9) ** 3 + pos(t - 0.9) ** 3),
        lambda s, t: (s - t) ** 2 - 200.0 * (pos(0.1 - s) ** 3 + pos(0.1 - t) ** 3),
    ]
    for f in nonconvex:
        kernel = InteractionKernel.custom(_unit_square_kernel(f, interval), declared_convex=True)
        with pytest.raises(ValueError, match="midpoint probe"):
            kernel.validate_on(interval)
        InteractionKernel.custom(_unit_square_kernel(f, interval)).validate_on(interval)
    convex = InteractionKernel.custom(
        _unit_square_kernel(lambda s, t: (s - t) ** 2, interval), declared_convex=True
    )
    convex.validate_on(interval)


def test_potential_poly_matches_polyval():
    """Poly potentials agree with numpy polynomial evaluation and derivative."""
    coeffs = [1.0, -2.0, 0.5, 3.0]
    pot = PotentialSpec.poly(coeffs)
    x = np.linspace(-1.0, 1.0, 17)
    expect = np.polynomial.polynomial.polyval(x, coeffs)
    assert np.allclose(pot.v(x), expect)
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)
    assert np.allclose(pot.v_prime(x), np.polynomial.polynomial.polyval(x, dcoeffs))
    with pytest.raises(ValueError):
        PotentialSpec.poly([])


def test_potential_poly_second_derivative_is_closed_form():
    """``poly`` gives ``v_second`` as ``polyval`` of ``polyder`` taken twice:
    the same bits, and exactly 0 for degree <= 1."""
    x = np.linspace(-3.0, 7.0, 41)
    for coeffs in ([1.0, -2.0, 0.5, 3.0], [10000.0, -4000.0, 600.0, -40.0, 1.0], [0.0, 0.0, 1.0]):
        expect = np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(coeffs, 2))
        assert np.array_equal(PotentialSpec.poly(coeffs).v_second(x), expect)
    for coeffs in ([2.5], [1.0, -3.0]):
        assert np.array_equal(PotentialSpec.poly(coeffs).v_second(x), np.zeros_like(x))


@pytest.mark.parametrize("scenario", ["figure1", "cubic_attraction"])
def test_potential_poly_has_the_bytes_of_polyval(scenario):
    """``v``, ``v_prime`` and ``v_second`` of a shipped scenario's ``poly``
    potential are byte for byte ``polyval`` of the coefficients and of their
    two derivatives: on the interval and far outside it, at ±0, ±inf, NaN
    and overflow, and on a 0-d input."""
    doc = json.loads((ROOT / "scenarios" / f"{scenario}.json").read_text())
    coeffs = np.asarray(doc["potential"]["coeffs"], dtype=float)
    pot = PotentialSpec.poly(coeffs)
    rng = np.random.default_rng(12)
    x = np.concatenate([
        np.linspace(doc["interval"]["lo"], doc["interval"]["hi"], 257),
        rng.normal(0.0, 1e3, 64),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300],
    ])
    P = np.polynomial.polynomial
    derivatives = (coeffs, P.polyder(coeffs), P.polyder(coeffs, 2))
    with np.errstate(all="ignore"):  # inf * 0 and (1e300)^k warn in both
        for fn, c in zip((pot.v, pot.v_prime, pot.v_second), derivatives):
            assert fn(x).tobytes() == P.polyval(x, c).tobytes()
            assert fn(np.float64(-0.5)).tobytes() == P.polyval(np.asarray(-0.5), c).tobytes()


def test_potential_custom_second_derivative_is_central_difference():
    """A potential built without ``v_second`` differentiates ``v_prime``
    centrally with step ``1e-6 (1 + |x|)``, bit for bit."""
    v_prime = lambda x: np.sin(3.0 * np.asarray(x)) + np.asarray(x) ** 3
    pot = PotentialSpec(v=lambda x: -np.cos(3.0 * np.asarray(x)) / 3.0 + np.asarray(x) ** 4 / 4.0,
                        v_prime=v_prime)
    x = np.linspace(-2.0, 4.0, 37)
    h = 1e-6 * (1.0 + np.abs(x))
    expect = (np.asarray(v_prime(x + h), dtype=float)
              - np.asarray(v_prime(x - h), dtype=float)) / (2.0 * h)
    assert np.array_equal(pot.v_second(x), expect)
    assert np.allclose(pot.v_second(x), 3.0 * np.cos(3.0 * x) + 3.0 * x * x, rtol=0.0, atol=1e-6)


def test_potential_convexity_declaration_warns():
    """A non-convex poly declared convex warns instead of raising."""
    with pytest.warns(UserWarning):
        pot = PotentialSpec.poly([0.0, 0.0, -1.0], declared_convex=True)
        pot.validate_on(Interval(-1.0, 1.0))


def test_energy_eval_uniform_entropy():
    """Uniform density on [0,1]: shifted entropy gives -1, plain gives 0."""
    grid = Grid(Interval(0.0, 1.0), 64)
    nu = uniform_density(grid)
    shifted = EnergyModel(grid=grid, congestion=CongestionSpec.entropy("shifted"))
    plain = EnergyModel(grid=grid, congestion=CongestionSpec.entropy("plain"))
    assert energy_eval(shifted, nu) == pytest.approx(-1.0, abs=1e-12)
    assert energy_eval(plain, nu) == pytest.approx(0.0, abs=1e-12)


def test_energy_eval_with_potential_and_kernel():
    """Potential and interaction terms add the expected closed-form amounts."""
    grid = Grid(Interval(0.0, 1.0), 400)
    nu = uniform_density(grid)
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.entropy("plain"),
        kernel=InteractionKernel.product(2.0),
        potential=PotentialSpec.poly([0.0, 0.0, 1.0], declared_convex=True),
    )
    # potential: integral x^2 dx = 1/3; interaction: (2/2)(integral x dx)^2 = 1/4
    assert energy_eval(model, nu) == pytest.approx(1.0 / 3.0 + 0.25, abs=1e-4)


def _kernel_matrix(kernel, grid):
    """The dense kernel matrix ``phi(y_i, y_j)`` on the grid nodes: the
    reference for the structured fields."""
    y = grid.nodes
    return np.asarray(kernel.phi(y[:, None], y[None, :]), dtype=float)


def test_interaction_field_matches_dense_matrix():
    """Structured kernel fast paths agree with the dense matrix route."""
    rng = np.random.default_rng(7)
    grid = Grid(Interval(2.0, 5.0), 173)
    nu = density_from_values(grid, rng.uniform(0.2, 1.8, grid.n))
    for kern in (
        InteractionKernel.quadratic_distance(1.7),
        InteractionKernel.product(0.9),
        InteractionKernel.cubic_distance(1.3),
    ):
        model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy(), kernel=kern)
        fast = model.interaction_field(nu)
        dense = _kernel_matrix(kern, grid) @ nu.masses
        assert np.max(np.abs(fast - dense)) < 1e-12 * (1.0 + np.max(np.abs(dense)))


def test_kernel_field_on_sorted_points_with_ties():
    """The closed forms hold on arbitrary sorted points (a monotone map's
    values, with ties), also on 200 points in [1000, 1001], where the
    distance kernels' moments cancel unless the points are centred; and the
    row-blocked custom route matches the dense product."""
    rng = np.random.default_rng(8)
    near = np.sort(np.concatenate([rng.uniform(2.0, 5.0, 150), np.full(20, 3.5)]))
    near_weights = rng.uniform(0.0, 1.0, near.size)
    far = np.sort(rng.uniform(1000.0, 1001.0, 200))
    far_weights = rng.uniform(0.0, 1.0, far.size)
    for points, weights in ((near, near_weights), (far, far_weights)):
        for kern in (
            InteractionKernel.quadratic_distance(1.7),
            InteractionKernel.product(0.9),
            InteractionKernel.cubic_distance(1.3),
            InteractionKernel.custom(lambda y, z: np.exp(-np.abs(y - z))),
        ):
            dense = np.asarray(kern.phi(points[:, None], points[None, :])) @ weights
            fast = kern.field(points, weights)
            assert np.max(np.abs(fast - dense)) < 1e-12 * (1.0 + np.max(np.abs(dense)))


_SAMPLE_KERNELS = {
    "quadratic": lambda kappa: InteractionKernel.quadratic_distance(kappa),
    "cubic": lambda kappa: InteractionKernel.cubic_distance(kappa),
    "product": lambda kappa: InteractionKernel.product(kappa),
    "custom": lambda kappa: InteractionKernel.custom(lambda y, z: kappa * np.exp(-np.abs(y - z))),
}


def _sorted_samples_with_ties(lo=2.0, hi=5.0):
    rng = np.random.default_rng(9)
    return np.sort(np.concatenate([rng.uniform(lo, hi, 60), np.full(6, 0.5 * (lo + hi))]))


# d^2/dy^2 phi(y, z) of each structured family at kappa, densely
_SECOND_DERIVATIVES = {
    "quadratic": lambda kappa, y, z: np.full(np.broadcast(y, z).shape, 2.0 * kappa),
    "cubic": lambda kappa, y, z: 6.0 * kappa * np.abs(y - z),
    "product": lambda kappa, y, z: np.zeros(np.broadcast(y, z).shape),
}


def _engine_cases():
    """Sorted points with ties in [2, 5] and in [1000, 1001], where the
    moments cancel unless the points are centred, each with unequal weights."""
    rng = np.random.default_rng(12)
    near = np.sort(np.concatenate([rng.uniform(2.0, 5.0, 60), np.full(6, 3.5)]))
    far = np.sort(np.concatenate([rng.uniform(1000.0, 1001.0, 60), np.full(4, 1000.25)]))
    return [(G, rng.uniform(0.1, 1.0, G.size)) for G in (near, far)]


@pytest.mark.parametrize("name, order", [
    (name, order)
    for name in sorted(_SAMPLE_KERNELS)
    for order in range(2 if name == "custom" else 3)  # custom kernels give no S_2
])
def test_kernel_sums_match_dense_derivatives(name, order):
    """The moment engine's ``S_o[j] = sum_k w_k d^o/dy^o phi(y_j, y_k)``
    equals the dense sum to 1e-12 scaled, for o = 0, 1, 2 (custom kernels,
    which evaluate densely: 0 and 1), with unequal weights, ties, and points
    far from the origin; one weight ``1/m`` agrees with ``np.full(m, 1/m)``
    to 1e-14 scaled."""
    kern = _SAMPLE_KERNELS[name](1.3)
    for G, w in _engine_cases():
        y, z = G[:, None], G[None, :]
        if order == 0:
            block = kern.phi(y, z)
        elif order == 1:
            block = kern.dphi_dy(y, z)
        else:
            block = _SECOND_DERIVATIVES[name](1.3, y, z)
        dense = np.asarray(block, dtype=float) @ w
        got = kern.sums(order, G, w)
        assert np.max(np.abs(got - dense)) < 1e-12 * (1.0 + np.max(np.abs(dense)))
        one = kern.sums(order, G, 1.0 / G.size)
        full = kern.sums(order, G, np.full(G.size, 1.0 / G.size))
        assert np.max(np.abs(one - full)) <= 1e-14 * (1.0 + np.max(np.abs(full)))


@pytest.mark.parametrize("name", sorted(_SAMPLE_KERNELS))
def test_kernel_sample_forms_match_dense_sums(name):
    """Energy and gradient on sorted samples (with ties) equal the dense
    O(m^2) sums of phi and dphi_dy, with one weight 1/m and with unequal
    weights, also on samples far from the origin, where the cubic and
    quadratic kernels' moment expansions hold only once centred (uncentred,
    the quadratic form kept only about 9 digits there)."""
    kern = _SAMPLE_KERNELS[name](1.3)
    for G, unequal in _engine_cases():
        m = G.size
        for w in (1.0 / m, unequal):
            wv = np.broadcast_to(w, G.shape)
            moments = kern.moments(G, w)
            energy = 0.5 * wv @ np.asarray(kern.phi(G[:, None], G[None, :]), dtype=float) @ wv
            assert kern.energy(G, w, moments) == pytest.approx(energy, rel=1e-12, abs=1e-14)
            grad = wv * (np.asarray(kern.dphi_dy(G[:, None], G[None, :]), dtype=float) @ wv)
            tol = 1e-12 * (1.0 + np.max(np.abs(grad)))
            assert np.max(np.abs(kern.gradient(G, w, moments) - grad)) < tol
        one = kern.moments(G, 1.0 / m)
        full = np.full(m, 1.0 / m)
        assert kern.energy(G, 1.0 / m, one) == pytest.approx(
            kern.energy(G, full, kern.moments(G, full)), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("name", sorted(_SAMPLE_KERNELS))
def test_kernel_sample_curvature_is_energy_diagonal(name):
    """For kappa > 0 the curvature is the exact Hessian diagonal of the
    sample energy (second differences in one coordinate, kept sorted), with
    one weight 1/m and with unequal weights; it is zero for kappa <= 0 and
    for custom kernels."""
    G = _sorted_samples_with_ties()
    kern = _SAMPLE_KERNELS[name](1.3)
    unequal = np.random.default_rng(13).uniform(0.1, 1.0, G.size) / G.size
    for w in (1.0 / G.size, unequal):
        curv = kern.curvature(G, w, kern.moments(G, w))
        assert curv.shape == G.shape
        if name == "custom":
            assert np.all(curv == 0.0)
            continue
        h = 1e-2
        energy = kern.energy(G, w, kern.moments(G, w))
        rounding = 16.0 * np.finfo(float).eps * abs(energy) / h**2
        gaps = np.diff(G)
        room = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 2.0 * h
        for j in np.flatnonzero(room):
            up, down = G.copy(), G.copy()
            up[j] += h
            down[j] -= h
            up_energy = kern.energy(up, w, kern.moments(up, w))
            down_energy = kern.energy(down, w, kern.moments(down, w))
            second = (up_energy - 2.0 * energy + down_energy) / h**2
            assert curv[j] == pytest.approx(second, rel=1e-6, abs=rounding)
        assert np.count_nonzero(room) >= 10
    for kappa in (0.0, -1.0):
        kern = _SAMPLE_KERNELS[name](kappa)
        assert np.all(kern.curvature(G, 1.0 / G.size, kern.moments(G, 1.0 / G.size)) == 0.0)


@pytest.mark.parametrize("name", sorted(_SAMPLE_KERNELS))
def test_kernel_scaled_doubles_field(name):
    """scaled(2) keeps the family and doubles the field."""
    G = _sorted_samples_with_ties()
    weights = np.random.default_rng(10).uniform(0.0, 1.0, G.size)
    kern = _SAMPLE_KERNELS[name](1.3)
    doubled = kern.scaled(2.0)
    assert doubled.kind == kern.kind
    assert doubled.declared_convex == kern.declared_convex
    assert np.allclose(doubled.field(G, weights), 2.0 * kern.field(G, weights), rtol=1e-14, atol=0.0)


def test_first_variation_is_energy_derivative():
    """E[nu + t h] - E[nu] ~ t <V[nu], h> for mass-preserving h."""
    rng = np.random.default_rng(11)
    grid = Grid(Interval(0.0, 1.0), 96)
    nu = density_from_values(grid, rng.uniform(0.6, 1.4, grid.n))
    model = EnergyModel(
        grid=grid,
        congestion=CongestionSpec.entropy(),
        kernel=InteractionKernel.quadratic_distance(1.2),
        potential=PotentialSpec.poly([0.0, 1.0, 2.0], declared_convex=True),
    )
    h = rng.normal(size=grid.n)
    h -= h.mean()
    V = first_variation(model, nu)
    predicted = float(np.dot(V, h) * grid.delta)
    t = 1e-6
    quotient = (
        energy_eval(model, density_from_values(grid, nu.values + t * h))
        * (1.0 + t * np.dot(h, np.ones(grid.n)) * grid.delta)  # renormalization is a no-op
        - energy_eval(model, nu)
    ) / t
    assert quotient == pytest.approx(predicted, rel=1e-4)


def test_energy_model_validates_components():
    """The model rejects asymmetric kernels on construction."""
    with pytest.raises(ValueError, match="symmetric"):
        EnergyModel(
            grid=Grid(Interval(0.0, 1.0), 16),
            congestion=CongestionSpec.entropy(),
            kernel=InteractionKernel.custom(lambda y, z: np.asarray(y) - np.asarray(z)),
        )


def test_kernel_is_checked_on_the_model_interval_only():
    """A kernel finite only on [2, 5] builds and enters a model on [2, 5]:
    nothing probes it on a range the model does not use."""
    kernel = InteractionKernel.custom(lambda y, z: np.sqrt(np.asarray(y) + np.asarray(z) - 3.0))
    grid = Grid(Interval(2.0, 5.0), 32)
    model = EnergyModel(grid=grid, congestion=CongestionSpec.entropy(), kernel=kernel)
    assert np.all(np.isfinite(model.interaction_field(uniform_density(grid))))


def test_false_kernel_declaration_raises_from_model():
    """``(4 - y - z)^3`` is jointly convex on [0, 1]^2 but concave on
    [2, 5]^2: declared convex, it is refused by a model on [2, 5]."""
    kernel = InteractionKernel.custom(
        lambda y, z: (4.0 - np.asarray(y) - np.asarray(z)) ** 3, declared_convex=True
    )
    EnergyModel(grid=Grid(Interval(0.0, 1.0), 16), congestion=CongestionSpec.entropy(),
                kernel=kernel)
    with pytest.raises(ValueError, match="midpoint probe"):
        EnergyModel(grid=Grid(Interval(2.0, 5.0), 16), congestion=CongestionSpec.entropy(),
                    kernel=kernel)
