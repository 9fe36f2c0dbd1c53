"""Chart construction, differentiation accuracy, and field containers."""

import numpy as np
import pytest

from oracles import divergence_total, einsum_flux_laplacian
from scalarweyl import grid
from scalarweyl.grid import (
    ChartError,
    FieldError,
    FluxForm,
    MetricField,
    deriv,
    flux_laplacian,
    gradient,
    integrate,
    make_chart,
    sym2_pack,
    sym2_unpack,
)
from scalarweyl.presets import fourier_metric, fourier_scalar


def chart3(size=16, scheme="fd4"):
    return make_chart(3, (size, size, size), (2 * np.pi,) * 3, scheme=scheme)


def test_make_chart_validation():
    with pytest.raises(ChartError):
        make_chart(2, (16, 16), (1.0, 1.0))
    with pytest.raises(ChartError):
        make_chart(7, (16,) * 7, (1.0,) * 7)
    with pytest.raises(ChartError):
        make_chart(3, (16, 16), (1.0, 1.0, 1.0))
    with pytest.raises(ChartError, match="axis 1"):
        make_chart(3, (16, 15, 16), (1.0, 1.0, 1.0))
    with pytest.raises(ChartError):
        make_chart(3, (16, 6, 16), (1.0, 1.0, 1.0))
    with pytest.raises(ChartError):
        make_chart(3, (16, 16, 16), (1.0, -1.0, 1.0))
    with pytest.raises(ChartError):
        make_chart(3, (16, 16, 16), (1.0, 1.0, 1.0), scheme="fd2")


def test_chart_geometry():
    c = make_chart(3, (16, 32, 8), (1.0, 2.0, 4.0))
    assert c.spacings == (1.0 / 16, 2.0 / 32, 4.0 / 8)
    assert c.npoints == 16 * 32 * 8
    assert np.isclose(c.cell_volume * c.npoints, 1.0 * 2.0 * 4.0)
    for ax, size, length in zip(c.axes(), c.sizes, c.lengths):
        assert ax.shape == (size,)
        assert ax[0] == 0.0
        assert np.isclose(ax[-1], length - length / size)


def test_min_image_wraps():
    c = chart3(16)
    d = c.min_image(c.mesh(), np.zeros(3))
    # displacement from the origin stays within half a period per axis
    assert np.max(np.abs(d)) <= np.pi + 1e-12
    # a point just below the period maps to a small negative displacement
    assert np.isclose(d[-1, 0, 0, 0], -2 * np.pi / 16)


def test_fd4_order_on_sine():
    # frozen oracle: fourth order halving ratio for d/dx sin(x) on [0, 2pi)
    errs = []
    for size in (16, 32):
        c = chart3(size)
        x = c.mesh()[0]
        err = deriv(c, np.sin(x), 0) - np.cos(x)
        errs.append(np.max(np.abs(err)))
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0


def test_spectral_exact_on_modes():
    c = chart3(16, scheme="spectral")
    x, y, z = c.mesh()
    f = np.sin(2 * x) * np.cos(y) + np.cos(3 * z)
    dfdx = deriv(c, f, 0)
    assert np.allclose(dfdx, 2 * np.cos(2 * x) * np.cos(y), atol=1e-12)


def test_deriv_trailing_component_axes():
    c = chart3(16)
    x = c.mesh()[0]
    stacked = np.stack([np.sin(x), np.cos(x)], axis=-1)
    d = deriv(c, stacked, 0)
    assert d.shape == c.shape + (2,)
    assert np.allclose(d[..., 0], deriv(c, np.sin(x), 0))


def _roll_fd4(arr, axis, spacing):
    # reference: the 5-point periodic stencil written with four rolls
    up1 = np.roll(arr, -1, axis=axis)
    dn1 = np.roll(arr, 1, axis=axis)
    up2 = np.roll(arr, -2, axis=axis)
    dn2 = np.roll(arr, 2, axis=axis)
    return (8.0 * (up1 - dn1) - (up2 - dn2)) / (12.0 * spacing)


def test_fd4_stencil_matches_roll_reference():
    rng = np.random.default_rng(11)
    # axis 0 at the minimum size of 8
    c = make_chart(3, (8, 10, 12), (1.0, 2.0, 3.0))

    def check(arr, full):
        for axis in range(c.n):
            ref = _roll_fd4(full, axis, c.spacings[axis])
            got = deriv(c, arr, axis)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    for extra in ((), (3,), (3, 3)):
        arr = rng.standard_normal(c.sizes + extra)
        check(arr, arr)
    # degenerate leading axes broadcast to the full grid first
    sparse = rng.standard_normal((8, 1, 12, 2))
    check(sparse, np.broadcast_to(sparse, c.sizes + (2,)))


def _one_shot_fd4(arr, axis, spacing):
    # reference: the ghost-cell stencil on the whole array at once, in the
    # operation order of the library stencil
    size = arr.shape[axis]
    ext = np.take(arr, np.arange(-2, size + 2) % size, axis=axis)
    lead = (slice(None),) * axis

    def shifted(s):
        return ext[lead + (slice(2 + s, 2 + s + size),)]

    out = np.subtract(shifted(1), shifted(-1))
    out *= 8.0
    out -= np.subtract(shifted(2), shifted(-2))
    out /= 12.0 * spacing
    return out


def test_blocked_fd4_matches_one_shot_stencil():
    rng = np.random.default_rng(5)
    c = make_chart(4, (16,) * 4, (1.0, 2.0, 3.0, 4.0))
    full = rng.standard_normal(c.sizes + (16,))
    wide = rng.standard_normal(c.sizes + (4, 4, 4))
    sparse = rng.standard_normal((1,) + c.sizes[1:] + (16,))
    cases = [
        (full, full),
        # a strided slice, as riemann differentiates the symbols
        (wide[..., 1, :, :], wide[..., 1, :, :]),
        # a degenerate leading axis broadcasts to the grid first
        (sparse, np.broadcast_to(sparse, c.sizes + (16,))),
    ]
    for arr, whole in cases:
        # 16^4 points times 16 components: exactly the slab threshold
        assert whole.size == grid._SLAB_MIN
        for axis in range(c.n):
            ref = _one_shot_fd4(whole, axis, c.spacings[axis])
            assert np.array_equal(deriv(c, arr, axis), ref)


def test_gradient_shape_and_values():
    c = chart3(16, scheme="spectral")
    x, y, _ = c.mesh()
    g = gradient(c, np.sin(x + 2 * y))
    assert g.shape == c.shape + (3,)
    assert np.allclose(g[..., 1], 2 * np.cos(x + 2 * y), atol=1e-12)


def test_sym2_pack_roundtrip():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 6):
        a = rng.standard_normal((2, 2, n, n))
        a = a + np.swapaxes(a, -1, -2)
        assert np.array_equal(sym2_unpack(sym2_pack(a, n), n), a)


def test_sym2field_rejects_asymmetric():
    c = chart3(8)
    dense = np.zeros(c.shape + (3, 3))
    dense[..., 0, 1] = 1.0
    with pytest.raises(FieldError, match="not symmetric"):
        MetricField.from_dense(c, dense)


def _random_metric(chart, amp=0.3, seed=0):
    rng = np.random.default_rng(seed)
    xs = chart.mesh()
    n = chart.n
    dense = np.tile(np.eye(n), chart.shape + (1, 1))
    for i in range(n):
        for j in range(i, n):
            bump = np.zeros(chart.shape)
            for ax in range(n):
                k = int(rng.integers(1, 3))
                ph = rng.uniform(0, 2 * np.pi)
                bump += np.sin(2 * np.pi * k * xs[ax] / chart.lengths[ax] + ph)
            val = amp / n * bump
            dense[..., i, j] += val
            if i != j:
                dense[..., j, i] += val
    return MetricField.from_dense(chart, dense)


def test_metric_spd_check_reports_point():
    c = chart3(8)
    dense = np.tile(np.eye(3), c.shape + (1, 1))
    dense[3, 4, 5] = np.diag([1.0, -2.0, 1.0])
    with pytest.raises(FieldError, match=r"\(3, 4, 5\)"):
        MetricField.from_dense(c, dense)


def test_metric_inverse_and_det():
    c = chart3(8)
    g = _random_metric(c, seed=3)
    ident = np.einsum("...ij,...jk->...ik", g.dense, g.inverse)
    assert np.allclose(ident, np.eye(3), atol=1e-12)
    assert np.allclose(g.det, np.linalg.det(g.dense), rtol=1e-12)
    assert np.all(g.sqrt_det > 0)


def test_integrate_constant_is_volume():
    c = make_chart(3, (8, 8, 8), (1.0, 2.0, 3.0))
    g = _random_metric(c, amp=0.0)
    vol = integrate(c, np.ones(c.shape), g.sqrt_det)
    assert np.isclose(vol, 6.0, rtol=1e-13)


def test_integrate_rejects_bad_density():
    c = chart3(8)
    dens = np.ones(c.shape)
    dens[1, 2, 3] = -1.0
    with pytest.raises(FieldError, match=r"\(1, 2, 3\)"):
        integrate(c, np.ones(c.shape), dens)


def test_divergence_total_telescopes_to_zero():
    # flux-form total divergence is an exact discrete telescoping sum
    c = chart3(12)
    g = _random_metric(c, seed=11)
    x, y, z = c.mesh()
    comps = [np.sin(x + y), np.cos(y) * np.sin(z), np.sin(2 * z) + np.cos(x)]
    data = np.stack([np.broadcast_to(v, c.shape) for v in comps], axis=-1)
    total = divergence_total(data, g)
    scale = integrate(c, np.sum(np.abs(data), axis=-1), g.sqrt_det)
    assert abs(total) < 1e-12 * scale


def test_flux_laplacian_self_adjoint_and_null():
    c = chart3(8)
    g = _random_metric(c, seed=5)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(c.shape)
    v = rng.standard_normal(c.shape)
    lu = flux_laplacian(g, u)
    lv = flux_laplacian(g, v)
    w = g.sqrt_det * c.cell_volume
    a = float(np.sum(lu * v * w))
    b = float(np.sum(u * lv * w))
    scale = max(abs(a), abs(b), 1.0)
    assert abs(a - b) < 1e-12 * scale
    # integral of the laplacian vanishes identically
    assert abs(np.sum(lu * w)) < 1e-10 * float(np.sum(np.abs(lu) * w) + 1e-300)
    # constants are in the kernel
    assert np.allclose(flux_laplacian(g, np.ones(c.shape)), 0.0, atol=1e-13)


def test_flux_laplacian_flat_matches_spectrum():
    c = chart3(32)
    g = MetricField.from_dense(c, np.tile(np.eye(3), c.shape + (1, 1)))
    x = c.mesh()[0]
    u = np.sin(x)
    # flat laplacian of sin(x) is -sin(x) up to fd4 truncation
    assert np.max(np.abs(flux_laplacian(g, u) + u)) < 2e-4


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("size", [8, 12])
@pytest.mark.parametrize("n", [3, 4])
def test_flux_laplacian_matches_einsum_oracle(n, size, scheme):
    # the coefficient formed once per metric reproduces the flux raised
    # point by point, and a form reused across applies changes no bit
    c = make_chart(n, (size,) * n, (2 * np.pi,) * n, scheme=scheme)
    g = fourier_metric(c, amplitude=0.25, seed=n + size)
    u = fourier_scalar(c, amplitude=0.5, seed=size, terms=6, mean=1.0)
    lu = flux_laplacian(g, u)
    oracle = einsum_flux_laplacian(g, u)
    assert np.max(np.abs(lu - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    assert np.array_equal(flux_laplacian(FluxForm.of(g), u), lu)


def test_integrate_sin_squared():
    c = chart3(16)
    x = c.mesh()[0]
    val = integrate(c, np.broadcast_to(np.sin(x) ** 2, c.shape), 1.0)
    assert val == pytest.approx((2 * np.pi) ** 3 / 2, rel=1e-13)


def test_integrate_refinement_stable():
    # band-limited integrand: point-sum quadrature is spectrally accurate
    vals = []
    for size in (16, 32):
        c = chart3(size)
        x, y, z = c.mesh()
        f = np.exp(np.sin(x) * np.cos(y)) * (1 + 0.3 * np.sin(2 * z))
        vals.append(integrate(c, np.broadcast_to(f, c.shape), 1.0))
    assert abs(vals[0] - vals[1]) < 1e-8 * abs(vals[1])


def test_deriv_linearity():
    c = chart3(16)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(c.shape)
    g = rng.standard_normal(c.shape)
    lhs = deriv(c, f + g, 0)
    rhs = deriv(c, f, 0) + deriv(c, g, 0)
    assert np.allclose(lhs, rhs, atol=1e-13 * np.max(np.abs(lhs)))
