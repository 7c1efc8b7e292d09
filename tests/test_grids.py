"""Grid, field, and Neumann-operator contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersal.errors import ValidationError
from dispersal.grids import (
    ScalarField,
    SpatialGrid,
    TimeIndexedField,
    TraitField,
    TraitGrid,
    default_m,
    difference_tables,
    mirror_laplacian,
    neumann_bands,
    parabola_vertex,
)
from helpers import integrate


def test_grid_geometry():
    g = SpatialGrid(64)
    assert g.h_x == 1.0 / 64
    assert g.nodes[0] == pytest.approx(g.h_x / 2)
    assert g.nodes[-1] == pytest.approx(1.0 - g.h_x / 2)
    assert np.all(g.nodes > 0.0) and np.all(g.nodes < 1.0)
    assert g.n_x * g.h_x == pytest.approx(1.0)

    t = TraitGrid(128, -0.5, 0.5)
    assert t.h_z == pytest.approx(1.0 / 128)
    assert t.nodes[0] == pytest.approx(-0.5 + t.h_z / 2)


def test_grid_validation():
    with pytest.raises(ValidationError):
        SpatialGrid(4)
    # the record rule holds one field of n_x values to the step cap
    assert SpatialGrid(10_000_000).n_x == 10_000_000
    with pytest.raises(ValidationError,
                       match="habitat grid exceeds the step cap"):
        SpatialGrid(10_000_001)
    with pytest.raises(ValidationError):
        TraitGrid(8)
    with pytest.raises(ValidationError):
        TraitGrid(32, 1.0, 0.0)


def test_field_validation():
    g = SpatialGrid(8)
    with pytest.raises(ValidationError):
        ScalarField(g, np.ones(9))
    with pytest.raises(ValidationError):
        ScalarField(g, np.array([1.0] * 7 + [np.nan]))
    f = ScalarField(g, np.arange(8.0))
    with pytest.raises(ValueError):
        f.values[0] = 3.0  # fields are immutable


def test_laplacian_constant_in_kernel():
    g = SpatialGrid(32)
    out = mirror_laplacian(np.full(32, 4.2), g.h_x)
    assert np.max(np.abs(out)) == 0.0
    t = TraitGrid(64)
    outz = mirror_laplacian(np.ones(64), t.h_z)
    assert np.max(np.abs(outz)) == 0.0


def test_laplacian_quadratic_interior():
    # direct stencil evaluation: exact second derivative 2.0 away from the walls
    g = SpatialGrid(64)
    out = mirror_laplacian(g.nodes**2, g.h_x)
    assert np.max(np.abs(out[1:-1] - 2.0)) < 1e-9
    # x^2 has zero slope at the left wall, so the mirror closure is exact there
    assert out[0] == pytest.approx(2.0, abs=1e-9)
    # at the right wall the slope is 2, so the Neumann closure must deviate
    assert abs(out[-1] - 2.0) > 1.0


def test_laplacian_trait_cosine():
    t = TraitGrid(128, -0.5, 0.5)
    z = t.nodes
    g = np.cos(np.pi * (z - t.a))
    exact = -np.pi**2 * np.cos(np.pi * (z - t.a))
    err128 = np.max(np.abs(mirror_laplacian(g, t.h_z) - exact))
    assert err128 < 6e-4  # O(h^2); pi^4 h^2 / 12 ~ 5e-4 at n_z = 128

    t2 = TraitGrid(256, -0.5, 0.5)
    g2 = np.cos(np.pi * (t2.nodes - t2.a))
    exact2 = -np.pi**2 * np.cos(np.pi * (t2.nodes - t2.a))
    err256 = np.max(np.abs(mirror_laplacian(g2, t2.h_z) - exact2))
    assert 3.0 < err128 / err256 < 5.0  # second-order convergence


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=16, max_value=70), st.integers(min_value=0, max_value=2**32 - 1))
def test_laplacian_green_identity_and_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    t = TraitGrid(n, -0.3, 0.9)
    f = TraitField(t, rng.normal(size=n))
    g = TraitField(t, rng.normal(size=n))
    lf = TraitField(t, mirror_laplacian(f.values, t.h_z))
    lg = TraitField(t, mirror_laplacian(g.values, t.h_z))
    # discrete Green identity: the Neumann Laplacian integrates to zero
    scale = max(1.0, np.max(np.abs(lf.values)))
    assert abs(integrate(lf)) < 1e-10 * scale
    # symmetry under the midpoint inner product
    lhs = float(np.dot(lf.values, g.values))
    rhs = float(np.dot(f.values, lg.values))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_integrate_constant_exact():
    t = TraitGrid(33, 0.0, 1.0)
    assert integrate(TraitField(t, np.ones(33))) == pytest.approx(1.0, abs=1e-14)


def test_integrate_richardson_ratio():
    # midpoint quadrature is second order: halving h divides the error by ~4
    exact = float(np.exp(1.0) - 1.0)

    def err(n):
        t = TraitGrid(n, 0.0, 1.0)
        return abs(integrate(TraitField(t, np.exp(t.nodes))) - exact)

    ratio = err(64) / err(128)
    assert 3.5 < ratio < 4.5


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=40.0),
    st.floats(min_value=-0.2, max_value=0.2),
)
def test_parabola_vertex_exact_parabola(curv_half, z0):
    t = TraitGrid(64, -0.5, 0.5)
    v = curv_half * (t.nodes - z0) ** 2
    j = int(np.argmin(v))
    z_star, g_star, sigma = parabola_vertex(float(t.nodes[j]), float(v[j - 1]),
                                            float(v[j]), float(v[j + 1]),
                                            t.h_z)
    assert z_star == pytest.approx(z0, abs=1e-9)
    assert g_star == pytest.approx(0.0, abs=1e-9)
    assert sigma == pytest.approx(2.0 * curv_half, rel=1e-9)


def test_default_m_satisfies_hypotheses():
    g = SpatialGrid(64)
    m = default_m(g)
    assert m.values.min() > 0.0
    assert m.values.max() > m.values.min()  # nonconstant
    # Neumann-compatible: mirror-ghost Laplacian stays O(1) at the walls
    lap = mirror_laplacian(m.values, g.h_x)
    assert abs(lap[0]) < 10.0 and abs(lap[-1]) < 10.0


def test_time_indexed_field_interpolation():
    times = np.array([0.0, 1.0, 3.0])
    vals = np.array([[0.0, 0.0], [2.0, 4.0], [2.0, 8.0]])
    track = TimeIndexedField(times, vals)
    assert track.at(-1.0) == pytest.approx([0.0, 0.0])  # constant extension
    assert track.at(0.5) == pytest.approx([1.0, 2.0])
    assert track.at(2.0) == pytest.approx([2.0, 6.0])
    assert track.at(9.0) == pytest.approx([2.0, 8.0])
    with pytest.raises(ValidationError):
        TimeIndexedField(np.array([0.0, 0.0]), np.zeros((2, 2)))


def _scalar_at(times, values, t):
    """The one-time interpolation that TimeIndexedField.at replaced."""
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    k = int(np.searchsorted(times, t)) - 1
    w = (t - times[k]) / (times[k + 1] - times[k])
    return (1.0 - w) * values[k] + w * values[k + 1]


def test_time_indexed_field_reads_an_array_of_times():
    rng = np.random.default_rng(3)
    track = TimeIndexedField(np.array([0.0, 0.3, 1.0, 3.0]),
                             rng.random((4, 5)))
    # below, on, between and above the samples
    ts = np.array([-2.0, 0.0, 0.1, 0.3, 0.7, 1.0, 2.0 / 3.0, 2.9, 3.0, 9.0])
    stacked = np.stack([track.at(t) for t in ts])
    assert np.array_equal(track.at(ts), stacked)
    assert np.array_equal(stacked, np.stack(
        [_scalar_at(track.times, track.values, t) for t in ts]))
    # a one-sample track reads as constant
    single = TimeIndexedField(np.array([0.5]), track.values[:1])
    assert np.array_equal(single.at(0.2), track.values[0])
    assert np.array_equal(single.at(ts), np.tile(track.values[0], (10, 1)))


# Written-out copies of the band and table formulas that neumann_bands and
# difference_tables replaced; the helpers must reproduce them bit for bit.


def _diffusion_bands(mus, n, h):
    """Bands of the stacked I - mu*L blocks, as the diffusion factor built them."""
    r = mus[:, None] / (h * h)
    diag = np.repeat(1.0 + 2.0 * r, n, axis=1)
    diag[:, [0, -1]] = 1.0 + r
    return diag, np.repeat(-r, n - 1, axis=1)


def _operator_bands(alphas, c, h):
    """Bands of -alpha*L - diag(c), one row per alpha."""
    alpha = alphas[:, None]
    d = h * h
    main = 2.0 * alpha / d - c
    main[:, 0] = alpha[:, 0] / d - c[0]
    main[:, -1] = alpha[:, 0] / d - c[-1]
    return main, np.repeat(-alpha / d, c.size - 1, axis=1)


def _jacobian_bands(alpha, mv, theta, h):
    """Bands of the theta Newton Jacobian alpha*L + diag(m - 2 theta)."""
    d = h * h
    diag = -2.0 * alpha / d + mv - 2.0 * theta
    diag[0] = -alpha / d + mv[0] - 2.0 * theta[0]
    diag[-1] = -alpha / d + mv[-1] - 2.0 * theta[-1]
    return diag, np.full(mv.size - 1, alpha / d)


@pytest.mark.parametrize("rates", [[0.37], [0.05, 0.5, 1.3, 7.9]])
@pytest.mark.parametrize("n", [8, 64])
def test_neumann_bands_equal_the_formulas_they_replace(rates, n):
    h = 1.0 / n
    rng = np.random.default_rng(n)
    c = rng.normal(0.3, 0.5, size=n)
    mv = 1.0 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) * h)
    theta = rng.uniform(0.5, 1.5, size=n)
    rates = np.array(rates)
    k = rates.size

    mus = 1e-3 * rates
    main, off = neumann_bands(mus / (h * h), n)
    assert main.shape == (k, n) and off.shape == (k, n - 1)
    diag, band = _diffusion_bands(mus, n, h)
    assert np.array_equal(1.0 + main, diag) and np.array_equal(off, band)

    main, off = neumann_bands(rates / (h * h), n)
    diag, band = _operator_bands(rates, c, h)
    assert np.array_equal(main - c, diag) and np.array_equal(off, band)

    for alpha in rates:   # a scalar rate gives 1-D bands
        main, off = neumann_bands(alpha / (h * h), n)
        assert main.shape == (n,) and off.shape == (n - 1,)
        diag, band = _jacobian_bands(alpha, mv, theta, h)
        assert np.array_equal(-main + mv - 2.0 * theta, diag)
        assert np.array_equal(-off, band)


def _copied_tables(f, h):
    d1 = np.empty_like(f)
    d2 = np.empty_like(f)
    d1[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    d1[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    d1[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    d2[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / (h * h)
    d2[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h)
    d2[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / (h * h)
    return d1, d2


@pytest.mark.parametrize("shape", [(17, 17), (5, 3), (81,)])
def test_difference_tables_equal_the_copied_tables(shape):
    rng = np.random.default_rng(sum(shape))
    f = np.cumsum(rng.normal(size=shape), axis=0) + 1e-3 * rng.normal(size=shape)
    h = 0.5 / (shape[0] - 1)
    d1, d2 = difference_tables(f, h)
    o1, o2 = _copied_tables(f, h)
    assert np.array_equal(d1, o1) and np.array_equal(d2, o2)


def test_difference_tables_orders():
    # second order on every row, the one-sided end rows included
    zs = np.linspace(-0.5, 0.5, 81)
    hz = zs[1] - zs[0]
    d1, d2 = difference_tables(np.sin(zs) + 0.3 * zs * zs, hz)
    assert np.max(np.abs(d1 - (np.cos(zs) + 0.6 * zs))) <= 2 * hz ** 2
    assert np.max(np.abs(d2 - (-np.sin(zs) + 0.6))) <= 60 * hz ** 2
