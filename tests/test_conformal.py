"""Conformal-change machinery: covariance of the shifted operator and the
pointwise change-of-metric formulas.

The operator tests lean on two exact discrete facts: the flux-form Laplacian
is self-adjoint with respect to the sqrt(det g) weight, and constants are in
its kernel.  Everything rate-based is checked by grid doubling; ratios around
13 were measured for the fourth-order scheme, asserted above 10.
"""

import numpy as np
import pytest

from scalarweyl.conformal import (
    ConformalParams,
    _as_positive,
    conformal_metric,
    modified_laplacian_apply,
    scalar_weyl,
)
from scalarweyl.curvature import curvature_bundle, hessian
from scalarweyl.grid import (
    FieldError,
    MetricField,
    flux_laplacian,
    gradient,
    integrate,
    make_chart,
)
from scalarweyl.presets import flat_metric, fourier_metric, fourier_scalar
from scalarweyl.tensor import riemann_norm


def torus(n, size, scheme="fd4"):
    return make_chart(n, (size,) * n, (2.0 * np.pi,) * n, scheme=scheme)


# ---------------------------------------------------------------------------
# oracles: the transformation laws against a direct recomputation


def covariance_residual(g, u, phi, t):
    """Max-norm defect of the conjugation law for L under rescaling by u.

    The left side assembles L of the rescaled metric from independently
    recomputed curvature; the right side conjugates the base-metric operator.
    Converges to zero at the discretization order.
    """
    p_n = ConformalParams(t, g.chart.n).p_n
    gu = conformal_metric(g, u)
    lhs = modified_laplacian_apply(gu, phi, F=scalar_weyl(gu, t))
    rhs = u ** (-p_n) * modified_laplacian_apply(g, phi * u, F=scalar_weyl(g, t))
    return float(np.max(np.abs(lhs - rhs)))


def conformal_formula_check(g, psi):
    """Residuals of the closed-form transformation laws for g2 = psi g.

    Each law is evaluated from base-metric quantities and compared against a
    direct recomputation on the rescaled metric: scalar curvature and Ricci
    via the auxiliary power f = psi^{(n-2)/2}, the volume element, the
    Hessian law, and both candidate scalings of the (0,4) Weyl tensor.  The
    report names which Weyl scaling ({psi, 1/psi}) the data supports; the
    direct-recomputation oracle consistently selects multiplication by psi,
    equivalently |W_{g2}|_{g2} = |W_g|_g / psi.
    """
    chart = g.chart
    n = chart.n
    psi = _as_positive("conformal factor psi", psi)

    base = curvature_bundle(g)
    g2 = MetricField(chart, psi[..., None] * g.packed)
    direct = curvature_bundle(g2)

    f = psi ** ((n - 2) / 2.0)
    grad_f = gradient(chart, f)
    hess_f = hessian(g, grad_f)
    lap_f = np.einsum("...ij,...ij->...", g.inverse, hess_f)
    grad2_f = np.einsum("...ij,...i,...j->...", g.inverse, grad_f, grad_f)

    report: dict = {}

    # scalar curvature law
    scal_formula = (
        base.scal
        - (2.0 * (n - 1) / (n - 2)) * lap_f / f
        + ((n - 1) / (n - 2)) * grad2_f / f**2
    ) / psi
    report["scalar"] = float(np.max(np.abs(scal_formula - direct.scal)))

    # Ricci law
    ric_formula = (
        base.ric
        - hess_f[..., :, :] / f[..., None, None]
        + ((n - 1) / (n - 2))
        * np.einsum("...i,...j->...ij", grad_f, grad_f)
        / f[..., None, None] ** 2
        - (lap_f / f / (n - 2))[..., None, None] * g.dense
    )
    report["ricci"] = float(np.max(np.abs(ric_formula - direct.ric)))

    # volume element: exact scaling of the determinant
    report["volume"] = float(
        np.max(np.abs(f * psi * g.sqrt_det - g2.sqrt_det))
    )

    # Hessian law, applied to psi itself
    grad_psi = gradient(chart, psi)
    hess_base = hessian(g, grad_psi)
    hess_direct = hessian(g2, grad_psi)
    grad2_psi = np.einsum("...ij,...i,...j->...", g.inverse, grad_psi, grad_psi)
    hess_formula = hess_base - (
        np.einsum("...i,...j->...ij", grad_psi, grad_psi)
        - 0.5 * grad2_psi[..., None, None] * g.dense
    ) / psi[..., None, None]
    report["hessian"] = float(np.max(np.abs(hess_formula - hess_direct)))

    # Weyl scaling: try both candidate conventions for the (0,4) components
    scale_w = float(np.max(np.abs(direct.W.pair)))
    res_psi = float(
        np.max(np.abs(psi[..., None, None] * base.W.pair - direct.W.pair))
    )
    res_inv = float(
        np.max(np.abs(base.W.pair / psi[..., None, None] - direct.W.pair))
    )
    report["weyl_times_psi"] = res_psi
    report["weyl_times_inv_psi"] = res_inv
    if scale_w > 0 and min(res_psi, res_inv) < 0.1 * scale_w:
        report["weyl_convention"] = "psi" if res_psi < res_inv else "inv_psi"
    else:
        report["weyl_convention"] = "undetermined"

    # norm covariance |W_{g2}|_{g2} = |W_g|_g / psi, forced either way
    report["weyl_norm"] = float(
        np.max(
            np.abs(
                riemann_norm(direct.W.pair, g2.inverse)
                - riemann_norm(base.W.pair, g.inverse) / psi
            )
        )
    )
    return report


# ---------------------------------------------------------------------------
# the operator and F


def test_params_exponents():
    p4 = ConformalParams(1.0, 4)
    assert p4.a_n == pytest.approx(6.0)
    assert p4.p_n == pytest.approx(3.0)
    p3 = ConformalParams(-2.0, 3)
    assert p3.a_n == pytest.approx(8.0)
    assert p3.p_n == pytest.approx(5.0)
    p5 = ConformalParams(0.0, 5)
    assert p5.a_n == pytest.approx(16.0 / 3.0)
    assert p5.p_n == pytest.approx(7.0 / 3.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ConformalParams(1.0, 2)


def test_scalar_weyl_flat_vanishes():
    c = torus(4, 8)
    g = flat_metric(c)
    for t in (0.0, 1.0, -3.0):
        assert np.count_nonzero(scalar_weyl(g, t)) == 0


def test_scalar_weyl_three_dimensions_ignores_t():
    # Weyl is identically zero in 3d, so the t-term contributes only roundoff.
    c = torus(3, 12)
    g = fourier_metric(c, amplitude=0.25, seed=3)
    f0 = scalar_weyl(g, 0.0)
    f7 = scalar_weyl(g, 7.0)
    scale = np.max(np.abs(f0))
    assert np.max(np.abs(f7 - f0)) < 1e-10 * scale


def test_scalar_weyl_t_dependence_is_weyl_norm():
    c = torus(4, 10)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    bundle = curvature_bundle(g)
    wn = riemann_norm(bundle.W.pair, g.inverse)
    f0 = scalar_weyl(g, 0.0, bundle=bundle)
    f1 = scalar_weyl(g, 1.0, bundle=bundle)
    scale = np.max(np.abs(f1)) + np.max(np.abs(f0))
    assert np.max(np.abs((f1 - f0) - wn)) < 1e-12 * scale
    assert np.max(np.abs(f0 - bundle.scal)) == 0.0


def test_conformal_metric_identity_and_constant():
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    same = conformal_metric(g, np.ones(c.shape))
    assert np.array_equal(same.packed, g.packed)

    const = 1.3
    scaled = conformal_metric(g, const * np.ones(c.shape))
    n = 4
    vol_factor = const ** (2.0 * n / (n - 2.0))
    v0 = integrate(c, np.ones(c.shape), g.sqrt_det)
    v1 = integrate(c, np.ones(c.shape), scaled.sqrt_det)
    assert v1 == pytest.approx(vol_factor * v0, rel=1e-12)


def test_conformal_metric_determinant_identity():
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    u = fourier_scalar(c, amplitude=0.25, seed=11, mean=1.0)
    gt = conformal_metric(g, u)
    n = 4
    expected = u ** (4.0 * n / (n - 2.0)) * g.det
    assert np.max(np.abs(gt.det - expected)) < 1e-12 * np.max(expected)


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("size", [8, 12])
@pytest.mark.parametrize("n", [3, 4])
def test_conformal_metric_closed_forms_match_lapack(n, size, scheme):
    # the rescaled metric's inverse and volume factor come in closed form
    # from the background's; LAPACK on the rescaled dense metric agrees
    c = torus(n, size, scheme)
    g = fourier_metric(c, amplitude=0.25, seed=n + size)
    u = fourier_scalar(c, amplitude=0.5, seed=size, terms=6, mean=1.0)
    gt = conformal_metric(g, u)
    inv = np.linalg.inv(gt.dense)
    vol = np.sqrt(np.linalg.det(gt.dense))
    assert np.max(np.abs(gt.inverse - inv)) <= 1e-13 * np.max(np.abs(inv))
    assert np.max(np.abs(gt.sqrt_det - vol)) <= 1e-13 * np.max(vol)


def test_conformal_metric_rejects_nonpositive_factor():
    c = torus(3, 8)
    g = flat_metric(c)
    u = np.ones(c.shape)
    u[0, 0, 0] = 0.0
    with pytest.raises(FieldError, match="positive"):
        conformal_metric(g, u)


def test_conformal_metric_names_a_nan_factor():
    # a NaN factor is named as u, not reported as an indefinite metric
    c = torus(3, 8)
    u = np.ones(c.shape)
    u[1, 2, 3] = np.nan
    u[4, 4, 4] = -1.0
    with pytest.raises(
        FieldError,
        match=r"conformal factor u must be positive everywhere, first violation nan "
        r"at grid point \(1, 2, 3\)",
    ):
        conformal_metric(flat_metric(c), u)


def test_modified_laplacian_constant_input():
    c = torus(3, 12)
    one = np.ones(c.shape)

    flat = flat_metric(c)
    assert np.count_nonzero(modified_laplacian_apply(flat, one, F=scalar_weyl(flat, 1.0))) == 0

    g = fourier_metric(c, amplitude=0.25, seed=3)
    f = scalar_weyl(g, 1.0)
    out = modified_laplacian_apply(g, one, F=f)
    # grad(1) == 0 exactly, so the operator reduces to multiplication by F
    assert np.array_equal(out, f)


@pytest.mark.parametrize(
    "n, sizes, lengths",
    [
        (3, (8, 10, 12), (1.0, 2.0, 3.0)),
        (4, (16, 12, 10, 8), (7.0, 2.0, 3.0, 4.0)),
        (5, (8, 10, 8, 12, 8), (1.0, 2.0, 3.0, 4.0, 5.0)),
    ],
)
def test_constant_one_is_exactly_in_the_kernel_on_curved_fd4_charts(n, sizes, lengths):
    # the apply's integer band maps 1 to exactly 0 on every axis, whatever
    # the spacings and the coefficient
    c = make_chart(n, sizes, lengths)
    g = fourier_metric(c, amplitude=0.25, seed=n)
    one = np.ones(c.sizes)
    assert np.count_nonzero(flux_laplacian(g, one)) == 0
    F = fourier_scalar(c, amplitude=0.5, seed=n + 1)
    assert np.array_equal(modified_laplacian_apply(g, one, F=F), F)


def test_modified_laplacian_flat_eigenfunction():
    # On the flat torus the operator is -a_n Delta; sin(x1) has eigenvalue a_n.
    for scheme, tol in (("fd4", 4e-3), ("spectral", 1e-12)):
        c = torus(3, 16, scheme=scheme)
        g = flat_metric(c)
        phi = np.sin(c.mesh()[0]) * np.ones(c.shape)
        a_n = ConformalParams(1.0, 3).a_n
        out = modified_laplacian_apply(g, phi, F=scalar_weyl(g, 1.0))
        assert np.max(np.abs(out - a_n * phi)) < tol * a_n


def test_modified_laplacian_self_adjoint():
    c = torus(3, 12)
    g = fourier_metric(c, amplitude=0.25, seed=3)
    phi = fourier_scalar(c, amplitude=0.5, seed=12)
    chi = fourier_scalar(c, amplitude=0.5, seed=13)
    F = scalar_weyl(g, 1.0)
    lphi = modified_laplacian_apply(g, phi, F=F)
    lchi = modified_laplacian_apply(g, chi, F=F)
    a = integrate(c, chi * lphi, g.sqrt_det)
    b = integrate(c, phi * lchi, g.sqrt_det)
    scale = integrate(c, np.abs(chi * lphi), g.sqrt_det)
    assert abs(a - b) < 1e-12 * scale


def test_covariance_trivial_factors():
    c = torus(3, 12)
    g = fourier_metric(c, amplitude=0.25, seed=3)
    phi = fourier_scalar(c, amplitude=0.5, seed=12)
    assert covariance_residual(g, np.ones(c.shape), phi, t=1.0) == 0.0
    assert covariance_residual(g, 1.7 * np.ones(c.shape), phi, t=1.0) < 1e-12


def test_covariance_residual_converges():
    # measured 0.308 -> 0.0232 (ratio 13.3) on 12^3 -> 24^3
    res = {}
    for size in (12, 24):
        c = torus(3, size)
        g = fourier_metric(c, amplitude=0.25, seed=3)
        u = fourier_scalar(c, amplitude=0.25, seed=11, mean=1.0)
        phi = fourier_scalar(c, amplitude=0.5, seed=12)
        res[size] = covariance_residual(g, u, phi, t=1.0)
    assert res[24] < 0.1
    assert res[12] / res[24] > 10.0


def test_formula_check_constant_factor():
    c = torus(3, 12)
    g = fourier_metric(c, amplitude=0.25, seed=3)
    rep = conformal_formula_check(g, 1.7 * np.ones(c.shape))
    for key in ("scalar", "ricci", "volume", "hessian", "weyl_norm"):
        assert rep[key] < 1e-12, key


def test_formula_check_converges():
    # measured scalar 9.5e-3 -> 7.4e-4, ricci 3.0e-3 -> 2.3e-4,
    # hessian 1.3e-4 -> 9.8e-6 on 12^3 -> 24^3
    reps = {}
    for size in (12, 24):
        c = torus(3, size)
        g = fourier_metric(c, amplitude=0.25, seed=3)
        psi = fourier_scalar(c, amplitude=0.3, seed=7, mean=1.0)
        reps[size] = conformal_formula_check(g, psi)
    for key, cap in (("scalar", 4e-3), ("ricci", 1e-3), ("hessian", 5e-5)):
        assert reps[24][key] < cap, key
        assert reps[12][key] / reps[24][key] > 10.0, key
    assert reps[24]["volume"] < 1e-12


def test_formula_check_weyl_convention():
    # The (0,4) Weyl tensor picks up one power of the conformal factor; the
    # competing 1/psi scaling must lose by a wide margin.
    c = torus(4, 12)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    psi = fourier_scalar(c, amplitude=0.3, seed=7, mean=1.0)
    rep = conformal_formula_check(g, psi)
    assert rep["weyl_convention"] == "psi"
    assert rep["weyl_times_psi"] < 5e-3
    assert rep["weyl_times_inv_psi"] > 1e-2
    assert rep["weyl_norm"] < 2e-2


def test_scalar_weyl_covariance():
    # F of the deformed metric equals u^{-p} L(u); ratio 11.8 measured on
    # 8^4 -> 16^4.
    res = {}
    for size in (8, 16):
        c = torus(4, size)
        g = fourier_metric(c, amplitude=0.25, seed=2)
        u = fourier_scalar(c, amplitude=0.25, seed=11, mean=1.0)
        p_n = ConformalParams(1.0, 4).p_n
        lhs = scalar_weyl(conformal_metric(g, u), 1.0)
        rhs = u ** (-p_n) * modified_laplacian_apply(g, u, F=scalar_weyl(g, 1.0))
        res[size] = np.max(np.abs(lhs - rhs))
    assert res[16] < 0.03
    assert res[8] / res[16] > 9.0


def test_rejects_nonpositive_conformal_factor_in_residual():
    c = torus(3, 8)
    g = flat_metric(c)
    phi = np.ones(c.shape)
    bad = np.ones(c.shape)
    bad[1, 2, 3] = -0.5
    with pytest.raises(FieldError, match=r"\(1, 2, 3\)"):
        covariance_residual(g, bad, phi, t=1.0)
