"""Chart construction, differentiation accuracy, and field containers."""

import warnings

import numpy as np
import pytest

from oracles import (
    divergence_total,
    einsum_flux_laplacian,
    linalg_inverse_det,
    metric_from_dense,
)
from scalarweyl import grid
from scalarweyl.grid import (
    ChartError,
    FieldError,
    FluxForm,
    MetricField,
    deriv,
    deriv_window,
    flux_laplacian,
    gradient,
    integrate,
    make_chart,
    sym2_pack,
    sym2_unpack,
    window,
)
from scalarweyl.presets import flat_metric, fourier_metric, fourier_scalar


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


def _fft_deriv(arr, axis, length):
    # reference: the spectral derivative through the real FFT, i k on each
    # wave number with the odd Nyquist mode dropped
    size = arr.shape[axis]
    k = np.fft.rfftfreq(size, d=length / size) * 2.0 * np.pi
    k[-1] = 0.0
    shape = [1] * arr.ndim
    shape[axis] = k.size
    return np.fft.irfft(np.fft.rfft(arr, axis=axis) * (1j * k.reshape(shape)), n=size, axis=axis)


def _relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize(
    "sizes, lengths",
    [
        ((8, 14, 24), (1.0, 3.5, 7.0)),
        ((16, 10, 12, 18), (0.5, 2 * np.pi, 4.0, 9.0)),
        ((12, 12, 12), (2 * np.pi,) * 3),
    ],
)
def test_spectral_deriv_matches_fft_reference(sizes, lengths):
    c = make_chart(len(sizes), sizes, lengths, scheme="spectral")
    rng = np.random.default_rng(sum(sizes))
    for extra in [(), (3,), (2, 5)]:
        # component axes trail the grid axes
        arr = rng.standard_normal(c.sizes + extra)
        for axis in range(c.n):
            got = deriv(c, arr, axis)
            assert got.shape == arr.shape
            assert _relative_error(got, _fft_deriv(arr, axis, c.lengths[axis])) <= 1e-14
    # a field built from the sparse mesh broadcasts to the whole grid first
    mesh = c.mesh()
    sparse = np.sin(2 * np.pi * mesh[0] / c.lengths[0]) * np.cos(
        6 * np.pi * mesh[-1] / c.lengths[-1]
    ) + rng.standard_normal(c.sizes[:1] + (1,) * (c.n - 1))
    assert sparse.shape != c.sizes
    full = np.broadcast_to(sparse, c.sizes)
    for axis in (0, c.n - 1):
        want = _fft_deriv(full, axis, c.lengths[axis])
        assert _relative_error(deriv(c, sparse, axis), want) <= 1e-14
    # a middle axis the field is constant along
    assert np.max(np.abs(deriv(c, sparse, 1))) <= 1e-14 * np.max(np.abs(deriv(c, sparse, 0)))


def test_spectral_deriv_kills_the_nyquist_mode():
    # the odd mode (-1)^j has no derivative the grid can represent
    c = make_chart(3, (8, 14, 24), (1.0, 3.5, 7.0), scheme="spectral")
    for axis in range(c.n):
        j =np.arange(c.sizes[axis]).reshape([-1 if a == axis else 1 for a in range(c.n)])
        nyquist = np.broadcast_to((-1.0) ** j, c.sizes)
        # against the size of the derivative of the highest resolved mode
        scale = np.pi * c.sizes[axis] / c.lengths[axis]
        assert np.max(np.abs(deriv(c, nyquist, axis))) <= 1e-14 * scale


@pytest.mark.parametrize("size", [8, 10, 16, 24])
@pytest.mark.parametrize("length", [1.0, 2 * np.pi, 7.5])
def test_spectral_matrix_is_antisymmetric_circulant(size, length):
    D = grid._circulant("spectral", size, length)
    assert D.shape == (size, size)
    assert np.array_equal(D, -D.T)
    assert np.array_equal(np.diag(D), np.zeros(size))
    # each row is the one before shifted by one place
    assert np.array_equal(D, np.roll(D, (1, 1), axis=(0, 1)))
    # the cached matrix is shared, so it is read-only
    assert not D.flags.writeable


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


@pytest.mark.parametrize("size", [8, 10, 16])
def test_difference_matrix_is_the_integer_fd4_circulant(size):
    D = grid._circulant("fd4", size, 1.0)
    assert not D.flags.writeable
    assert np.array_equal(D, -D.T)
    assert np.array_equal(D, np.roll(D, (1, 1), axis=(0, 1)))
    # row 0 is the stencil 8 (f1 - f-1) - (f2 - f-2) with no 1/(12 h)
    assert np.count_nonzero(D[0]) == 4
    assert np.array_equal(D[0, [1, 2, -2, -1]], [8.0, -1.0, 1.0, -8.0])
    # and exactly 8 d1 - d2, the +-1 differences f[i+1] - f[i-1] and
    # f[i+2] - f[i-2] that every fd4 derivative multiplies by
    d1, d2 = (grid._circulant(d, size, 1.0) for d in ("d1", "d2"))
    assert np.array_equal(D, 8.0 * d1 - d2)
    for s, d in ((1, d1), (2, d2)):
        assert np.count_nonzero(d) == 2 * size
        assert np.array_equal(d[0, [s, -s]], [1.0, -1.0])


def test_difference_matrix_product_matches_deriv_on_every_axis():
    # a non-cubic field with unequal spacings: the product over 12 h_a is
    # the stencil derivative, at the roll reference's bound
    c = make_chart(4, (16, 12, 10, 8), (7.0, 2.0, 3.0, 4.0))
    x = np.random.default_rng(19).standard_normal(c.sizes)
    for axis in range(c.n):
        D = grid._circulant("fd4", c.sizes[axis], c.lengths[axis])
        got = grid._axis_product(D, x, axis, np.empty(c.sizes)) / (12.0 * c.spacings[axis])
        ref = deriv(c, x, axis)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def test_fd4_deriv_matches_one_shot_reference():
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
        for axis in range(c.n):
            ref = _one_shot_fd4(whole, axis, c.spacings[axis])
            assert np.array_equal(deriv(c, arr, axis), ref)


def test_ghost_plane_stencil_matches_periodic_deriv_on_its_planes():
    rng = np.random.default_rng(13)
    c = make_chart(3, (10, 8, 12), (1.0, 2.0, 3.0))
    arr = rng.standard_normal(c.sizes + (3,))
    # on an array carrying two ghost planes per end, the product with the
    # rows of its own planes reads the ghosts in place, as a window's does
    for axis in range(c.n):
        ext = np.take(arr, np.arange(-2, c.sizes[axis] + 2) % c.sizes[axis], axis=axis)
        assert np.array_equal(grid._fd4(ext, axis, c.spacings[axis], 2), deriv(c, arr, axis))
    ext = np.take(arr, np.arange(1, 9), axis=0)  # planes 3..6 with their ghosts
    assert np.array_equal(deriv_window(c, ext, 0), deriv(c, arr, 0)[3:7])
    # a window of 2^20 output elements runs the product in one shot too
    big = make_chart(4, (16,) * 4, (1.0,) * 4)
    wide = rng.standard_normal(big.sizes + (32,))
    win = window(big, wide, slice(4, 12))
    for axis in (0, 2):
        got = deriv_window(big, win, axis)
        assert got.size == 1 << 20
        assert np.array_equal(got, deriv(big, wide, axis)[4:12])


def test_window_derivative_matches_periodic_deriv_on_its_planes():
    # a window is a plane range with two wrapped ghost planes per end; its
    # derivative covers the range along every axis
    rng = np.random.default_rng(17)
    c = make_chart(3, (10, 8, 12), (1.0, 2.0, 3.0))
    arr = rng.standard_normal(c.sizes + (3,))
    # ranges inside the axis, at both ends (ghost planes wrap) and whole
    ranges = [slice(3, 6), slice(0, 2), slice(8, 10), slice(9, 10), slice(0, 10), slice(None)]
    # and a strided component, as the Hessian differentiates grad[..., j]
    for x in (arr, arr[..., 1]):
        for axis in range(c.n):
            whole = deriv(c, x, axis)
            for planes in ranges:
                win = window(c, x, planes)
                assert win.shape[0] == len(range(*planes.indices(10))) + 4
                assert np.array_equal(deriv_window(c, win, axis), whole[planes])
    with pytest.raises(FieldError):
        deriv_window(c, window(c, arr, slice(0, 8)), 3)


def test_fd4_derivatives_of_a_constant_are_exactly_zero():
    # each +-1 difference of a constant is exactly 0; one product with the
    # [1, -8, 0, 8, -1] band leaves rounding residues on such constants
    c = make_chart(3, (10, 8, 12), (1.0, 2.0, 3.0))
    for value in (0.1, 1.3, 2.9, 0.7):
        const = np.full(c.sizes, value)
        for axis in range(c.n):
            assert np.count_nonzero(deriv(c, const, axis)) == 0
            for planes in (slice(3, 6), slice(0, 2), slice(8, 10), slice(None)):
                win = window(c, const, planes)
                assert np.count_nonzero(deriv_window(c, win, axis)) == 0


def test_window_spectral_takes_whole_axes_only():
    # a spectral window is the whole field, with no ghost planes
    c = make_chart(3, (8,) * 3, (1.0,) * 3, scheme="spectral")
    arr = np.random.default_rng(2).standard_normal(c.sizes)
    assert window(c, arr) is arr
    assert window(c, arr, slice(0, 8)) is arr
    assert np.array_equal(deriv_window(c, window(c, arr), 1), deriv(c, arr, 1))
    with pytest.raises(FieldError, match="whole axes"):
        window(c, arr, slice(0, 4))


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
        metric_from_dense(c, dense)


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
    return metric_from_dense(chart, dense)


def test_metric_spd_check_reports_point():
    c = chart3(8)
    dense = np.tile(np.eye(3), c.shape + (1, 1))
    dense[3, 4, 5] = np.diag([1.0, -2.0, 1.0])
    with pytest.raises(FieldError, match=r"\(3, 4, 5\)"):
        metric_from_dense(c, dense)


@pytest.mark.parametrize("case", ["singular", "nan_diagonal", "nan_offdiagonal"])
def test_metric_spd_check_names_first_bad_point_without_warning(case):
    # a zero or NaN pivot is caught before any division by it
    c = chart3(8)
    dense = np.tile(np.eye(3), c.shape + (1, 1))
    bad = {
        "singular": np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "nan_diagonal": np.diag([np.nan, 1.0, 1.0]),
        "nan_offdiagonal": np.array([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    }[case]
    dense[5, 2, 6] = bad
    dense[6, 0, 0] = bad
    packed = sym2_pack(dense, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldError, match=r"at grid point \(5, 2, 6\)"):
            MetricField(c, packed)


@pytest.mark.parametrize("amplitude", [0.5, 0.9])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_metric_inverse_and_det_match_linalg(n, amplitude):
    c = make_chart(n, (8,) * n, (2 * np.pi,) * n)
    g = fourier_metric(c, amplitude=amplitude, seed=n, terms=5)
    inv, det = linalg_inverse_det(g)
    assert np.max(np.abs(g.inverse - inv)) <= 1e-13 * np.max(np.abs(inv))
    assert np.max(np.abs(g.det - det) / det) <= 1e-13
    assert g.inverse.flags.c_contiguous


def test_flat_metric_inverse_and_det_exact():
    for n in (3, 4, 5, 6):
        g = flat_metric(make_chart(n, (8,) * n, (1.0,) * n))
        assert np.array_equal(g.inverse, np.broadcast_to(np.eye(n), g.inverse.shape))
        assert np.array_equal(g.det, np.ones(g.chart.sizes))


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


def test_integrate_rejects_nan_density():
    # NaN is not positive: the first bad point is named, not a nan returned
    c = chart3(8)
    dens = np.ones(c.shape)
    dens[3, 0, 5] = -1.0
    dens[2, 6, 1] = np.nan
    with pytest.raises(FieldError, match=r"first violation nan at \(2, 6, 1\)"):
        integrate(c, np.ones(c.shape), dens)
    with pytest.raises(FieldError, match="density must be positive, got nan"):
        integrate(c, np.ones(c.shape), np.nan)


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
    g = metric_from_dense(c, np.tile(np.eye(3), c.shape + (1, 1)))
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


# unequal sizes and spacings on every axis, so a misplaced axis scale shows
UNEQUAL = [(3, (8, 10, 12), (1.0, 2.0, 3.0)), (4, (16, 12, 10, 8), (7.0, 2.0, 3.0, 4.0))]


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("n, sizes, lengths", UNEQUAL)
def test_flux_laplacian_matches_einsum_oracle_on_unequal_spacings(n, sizes, lengths, scheme):
    # the coefficient carries the scales s_a s_b of both axes of each entry
    c = make_chart(n, sizes, lengths, scheme=scheme)
    g = fourier_metric(c, amplitude=0.25, seed=n)
    u = fourier_scalar(c, amplitude=0.5, seed=n + 1, terms=6, mean=1.0)
    oracle = einsum_flux_laplacian(g, u)
    assert np.max(np.abs(flux_laplacian(g, u) - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("n, sizes, lengths", UNEQUAL)
def test_flux_form_component_is_the_physical_coefficient(n, sizes, lengths, scheme):
    # the preconditioner and the eigensolver's message read sqrt(det g) g^{ab}
    c = make_chart(n, sizes, lengths, scheme=scheme)
    g = fourier_metric(c, amplitude=0.25, seed=n)
    form = FluxForm.of(g)
    for a in range(n):
        for b in range(n):
            want = g.sqrt_det * g.inverse[..., a, b]
            assert np.all(np.abs(form.component(a, b) - want) <= 1e-15 * np.abs(want))


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
