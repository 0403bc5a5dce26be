"""Congestion specs, interaction kernels, potentials, and the energy model."""
import numpy as np
import pytest

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
    """F' must equal f up to an additive constant."""
    with pytest.raises(ValueError, match="F'"):
        CongestionSpec.custom(f=np.log, F=lambda s: s * s, f_inv=np.exp)


def test_congestion_probe_rejects_wrong_inverse():
    """f_inv must actually invert f."""
    with pytest.raises(ValueError, match="invert"):
        CongestionSpec.custom(
            f=np.log, F=lambda s: s * np.log(s) - s, f_inv=lambda t: np.exp(2.0 * t)
        )


def test_marginal_externality_values():
    """s f'(s) is 1 for entropy and a*alpha*s^alpha for powers."""
    s = np.array([0.2, 1.0, 4.0])
    assert np.allclose(CongestionSpec.entropy().marginal_externality(s), 1.0)
    assert np.allclose(
        CongestionSpec.power(3.0, 0.5).marginal_externality(s), 1.5 * s**3
    )
    custom = CongestionSpec.custom(
        f=lambda t: t, F=lambda t: 0.5 * t * t, f_inv=lambda t: t
    )
    assert np.allclose(custom.marginal_externality(s), s, atol=1e-6)


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
        dense = model.kernel_matrix() @ nu.masses
        assert np.max(np.abs(fast - dense)) < 1e-12 * (1.0 + np.max(np.abs(dense)))


def test_kernel_field_on_sorted_points_with_ties():
    """The closed forms hold on arbitrary sorted points (a monotone map's
    values, with ties), and the row-blocked custom route matches the dense
    product."""
    rng = np.random.default_rng(8)
    points = np.sort(np.concatenate([rng.uniform(2.0, 5.0, 150), np.full(20, 3.5)]))
    weights = rng.uniform(0.0, 1.0, points.size)
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


def _sorted_samples_with_ties():
    rng = np.random.default_rng(9)
    return np.sort(np.concatenate([rng.uniform(2.0, 5.0, 60), np.full(6, 3.5)]))


@pytest.mark.parametrize("name", sorted(_SAMPLE_KERNELS))
def test_kernel_sample_forms_match_dense_sums(name):
    """Energy and gradient on sorted samples (with ties) equal the dense
    O(m^2) sums of phi and dphi_dy."""
    G = _sorted_samples_with_ties()
    m = G.size
    kern = _SAMPLE_KERNELS[name](1.3)
    energy = np.sum(kern.phi(G[:, None], G[None, :])) / (2.0 * m * m)
    assert kern.sample_energy(G) == pytest.approx(energy, rel=1e-12, abs=1e-14)
    grad = np.sum(kern.dphi_dy(G[:, None], G[None, :]), axis=1) / (m * m)
    assert np.max(np.abs(kern.sample_gradient(G) - grad)) < 1e-12 * (1.0 + np.max(np.abs(grad)))


@pytest.mark.parametrize("name", sorted(_SAMPLE_KERNELS))
def test_kernel_sample_curvature_is_energy_diagonal(name):
    """For kappa > 0 the curvature is the exact Hessian diagonal of the
    sample energy (second differences in one coordinate, kept sorted); it
    is zero for kappa <= 0 and for custom kernels."""
    G = _sorted_samples_with_ties()
    kern = _SAMPLE_KERNELS[name](1.3)
    curv = kern.sample_curvature(G)
    assert curv.shape == G.shape
    if name == "custom":
        assert np.all(curv == 0.0)
        return
    h = 1e-2
    energy = kern.sample_energy(G)
    rounding = 16.0 * np.finfo(float).eps * abs(energy) / h**2
    gaps = np.diff(G)
    room = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 2.0 * h
    for j in np.flatnonzero(room):
        up, down = G.copy(), G.copy()
        up[j] += h
        down[j] -= h
        second = (kern.sample_energy(up) - 2.0 * energy + kern.sample_energy(down)) / h**2
        assert curv[j] == pytest.approx(second, rel=1e-6, abs=rounding)
    assert np.count_nonzero(room) >= 10
    for kappa in (0.0, -1.0):
        assert np.all(_SAMPLE_KERNELS[name](kappa).sample_curvature(G) == 0.0)


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
