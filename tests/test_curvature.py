"""Curvature stack against analytic oracles and refinement orders."""

import numpy as np
import pytest

from oracles import dense_from_pair, riemann_symmetry_report
from scalarweyl.curvature import (
    _schouten,
    christoffel,
    curvature_bundle,
    hessian,
    ricci_scalar,
    riemann,
    weyl,
)
from scalarweyl.grid import MetricField, deriv, gradient, make_chart
from scalarweyl.presets import (
    conformally_flat_metric,
    flat_metric,
    fourier_metric,
    radial_cutoff,
)
from scalarweyl.tensor import (
    Riem4Field,
    bianchi_project,
    kulkarni_nomizu,
    pair_indices,
    riemann_norm,
    trace_13,
)


def chart3(size, length=2 * np.pi):
    return make_chart(3, (size,) * 3, (length,) * 3)


# --- conformally flat oracle fields (all derivatives analytic) -------------


def phi_and_derivs(chart):
    x, y, z = chart.mesh()
    a, b = 0.1, 0.07
    phi = a * np.sin(x) * np.cos(y) + b * np.sin(z)
    d = [a * np.cos(x) * np.cos(y), -a * np.sin(x) * np.sin(y), b * np.cos(z)]
    d = [np.broadcast_to(v, chart.shape) for v in d]
    dd = np.zeros(chart.shape + (3, 3))
    dd[..., 0, 0] = -a * np.sin(x) * np.cos(y)
    dd[..., 0, 1] = dd[..., 1, 0] = -a * np.cos(x) * np.sin(y)
    dd[..., 1, 1] = -a * np.sin(x) * np.cos(y)
    dd[..., 2, 2] = -b * np.sin(z)
    return np.broadcast_to(phi, chart.shape), d, dd


def gamma_oracle(chart):
    # exp(2 phi) * id has Gamma^k_ij = d_ik phi_j + d_jk phi_i - d_ij phi_k
    _, d, _ = phi_and_derivs(chart)
    n = chart.n
    G = np.zeros(chart.shape + (n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                v = np.zeros(chart.shape)
                if i == k:
                    v = v + d[j]
                if j == k:
                    v = v + d[i]
                if i == j:
                    v = v - d[k]
                G[..., k, i, j] = v
    return G


def ricci_oracle(chart):
    phi, d, dd = phi_and_derivs(chart)
    n = chart.n
    lap = np.trace(dd, axis1=-2, axis2=-1)
    grad2 = sum(v * v for v in d)
    dvec = np.stack(d, axis=-1)
    ric = -(n - 2) * (dd - np.einsum("...i,...j->...ij", dvec, dvec))
    ric -= (lap + (n - 2) * grad2)[..., None, None] * np.eye(n)
    scal = np.exp(-2 * phi) * (-2 * (n - 1) * lap - (n - 1) * (n - 2) * grad2)
    return ric, scal


def conf_metric(chart):
    return conformally_flat_metric(chart, phi_and_derivs(chart)[0])


# --- flat -------------------------------------------------------------------


def test_flat_curvature_identically_zero():
    for n, size in ((3, 8), (4, 8)):
        c = make_chart(n, (size,) * n, (2 * np.pi,) * n)
        g = flat_metric(c)
        gamma = christoffel(g)
        assert np.count_nonzero(gamma) == 0
        rm = riemann(g, gamma)
        assert np.count_nonzero(rm.pair) == 0
        ric, scal = ricci_scalar(rm, g)
        assert np.count_nonzero(ric) == 0 and np.count_nonzero(scal) == 0
        assert decomposition_residual(g) == 0.0


# --- assembly kernels against per-entry references -------------------------


def christoffel_reference(g):
    """Per-(a, b) einsum over the derivatives of the dense metric."""
    chart = g.chart
    n = chart.n
    dg = np.stack([deriv(chart, g.dense, a) for a in range(n)], axis=-1)
    gamma = np.empty(chart.shape + (n, n, n))
    for a in range(n):
        for b in range(a, n):
            brk = dg[..., b, :, a] + dg[..., a, :, b] - dg[..., a, b, :]
            gamma[..., a, b] = gamma[..., b, a] = 0.5 * np.einsum(
                "...cd,...d->...c", g.inverse, brk
            )
    return gamma


def riemann_reference(g, gamma):
    """Strided per-entry antisymmetrization into column q, then the exchange
    average and the Bianchi projection."""
    chart = g.chart
    n = chart.n
    pairs = pair_indices(n)
    mat = np.empty(chart.shape + (len(pairs),) * 2)
    for q, (mu, nu) in enumerate(pairs):
        gm = gamma[..., mu, :]
        gn = gamma[..., nu, :]
        r13 = deriv(chart, gn, mu) - deriv(chart, gm, nu)
        r13 += np.matmul(gm, gn) - np.matmul(gn, gm)
        low = np.matmul(g.dense, r13)
        for p, (a, b) in enumerate(pairs):
            mat[..., p, q] = 0.5 * (low[..., a, b] - low[..., b, a])
    mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
    return bianchi_project(mat, n)


@pytest.mark.parametrize(
    "n, sizes, scheme",
    [
        (3, (8, 10, 12), "fd4"),
        (4, (8,) * 4, "fd4"),
        (5, (8,) * 5, "fd4"),
        (4, (8,) * 4, "spectral"),
    ],
)
def test_assembly_matches_per_entry_reference(n, sizes, scheme):
    lengths = tuple(2 * np.pi * (1 + 0.25 * a) for a in range(n))
    c = make_chart(n, sizes, lengths, scheme=scheme)
    g = fourier_metric(c, amplitude=0.2, seed=7)
    gamma = christoffel(g)
    ref = christoffel_reference(g)
    assert np.max(np.abs(gamma - ref)) <= 1e-14 * np.max(np.abs(ref))
    # from the same symbols the assembly is bit-identical
    assert np.array_equal(riemann(g, gamma).pair, riemann_reference(g, gamma))


# --- conformally flat oracles ------------------------------------------------


def test_christoffel_conformal_oracle_order():
    errs = []
    for size in (16, 32):
        c = chart3(size)
        errs.append(np.max(np.abs(christoffel(conf_metric(c)) - gamma_oracle(c))))
    # measured halving ratio 15.2 (4th order); frozen band
    assert 13.0 < errs[0] / errs[1] < 18.5


def test_christoffel_single_axis_component():
    # phi depending on x alone: Gamma^1_11 equals d phi / dx
    c = chart3(24)
    x = c.mesh()[0]
    phi = 0.1 * np.sin(x)
    g = conformally_flat_metric(c, np.broadcast_to(phi, c.shape))
    gamma = christoffel(g)
    assert np.max(np.abs(gamma[..., 0, 0, 0] - 0.1 * np.cos(x))) < 1e-4
    # lower symmetry is exact by construction
    assert np.array_equal(gamma, np.swapaxes(gamma, -1, -2))


def test_ricci_scalar_conformal_oracle_order():
    errs_ric, errs_scal = [], []
    for size in (12, 24):
        c = chart3(size)
        g = conf_metric(c)
        ric, scal = ricci_scalar(riemann(g), g)
        ric_o, scal_o = ricci_oracle(c)
        errs_ric.append(np.max(np.abs(ric - ric_o)))
        errs_scal.append(np.max(np.abs(scal - scal_o)))
    assert np.log2(errs_ric[0] / errs_ric[1]) > 3.5
    assert np.log2(errs_scal[0] / errs_scal[1]) > 3.5
    # absolute accuracy at the finer grid (measured 3.0e-4 / 6.3e-4)
    assert errs_ric[1] < 2e-3
    assert errs_scal[1] < 4e-3


def test_trace_linearity():
    c = chart3(8)
    g = fourier_metric(c, amplitude=0.2, seed=1)
    r1 = riemann(g)
    r2 = Riem4Field(c, kulkarni_nomizu(g.dense, g.dense))
    ric_sum, scal_sum = ricci_scalar(Riem4Field(c, r1.pair + r2.pair), g)
    ric1, scal1 = ricci_scalar(r1, g)
    ric2, scal2 = ricci_scalar(r2, g)
    assert np.allclose(ric_sum, ric1 + ric2, atol=1e-12)
    assert np.allclose(scal_sum, scal1 + scal2, atol=1e-12)


# --- constant-curvature cap --------------------------------------------------


def cap_metric(chart, r_in=1.2, r_out=1.7):
    """Unit-curvature round metric inside a ball, flattened smoothly outside."""
    mesh = chart.mesh()
    center = tuple(length / 2 for length in chart.lengths)
    d = chart.min_image(mesh, center)
    rho2 = np.sum(d * d, axis=-1)
    s = radial_cutoff(np.sqrt(rho2), r_in, r_out)
    conf = s * 4.0 / (1.0 + rho2) ** 2 + (1.0 - s)
    dense = conf[..., None, None] * np.eye(chart.n)
    return MetricField.from_dense(chart, dense), np.sqrt(rho2)


def test_cap_sectional_curvature_is_one():
    errs_k, errs_r = [], []
    for size in (16, 32):
        c = chart3(size, length=4.0)
        g, rho = cap_metric(c)
        rm = riemann(g)
        # pair slot 0 is (0,1): plane of the first two coordinate directions
        plane = g.dense[..., 0, 0] * g.dense[..., 1, 1] - g.dense[..., 0, 1] ** 2
        K = rm.pair[..., 0, 0] / plane
        mask = rho <= 0.4
        errs_k.append(np.max(np.abs(K[mask] - 1.0)))
        _, scal = ricci_scalar(rm, g)
        errs_r.append(np.max(np.abs(scal[mask] - 6.0)))
    # measured at 32^3: 5.9e-3 and 3.6e-2, ratio ~10
    assert errs_k[1] < 2.5e-2 and errs_k[0] / errs_k[1] > 6.0
    assert errs_r[1] < 0.15 and errs_r[0] / errs_r[1] > 6.0


def test_cap_weyl_vanishes_4d():
    c = make_chart(4, (12,) * 4, (4.0,) * 4)
    g, rho = cap_metric(c)
    b = curvature_bundle(g)
    mask = rho <= 0.4
    wn = np.max(riemann_norm(b.W.pair, g.inverse)[mask])
    rn = np.max(riemann_norm(b.riem.pair, g.inverse)[mask])
    assert rn > 1.0  # the cap really is curved
    assert wn < 1e-8 * rn


# --- refinement orders --------------------------------------------------------


def test_riemann_refinement_order():
    errs = []
    prev = None
    for size in (12, 24, 48):
        c = chart3(size)
        g = fourier_metric(c, amplitude=0.25, seed=5)
        mat = riemann(g).pair
        if prev is not None:
            errs.append(np.max(np.abs(prev - mat[::2, ::2, ::2])))
        prev = mat
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_einstein_divergence_refines_away():
    def einstein_div(g):
        c = g.chart
        b = curvature_bundle(g)
        G = b.ric - 0.5 * b.scal[..., None, None] * g.dense
        dG = np.stack([deriv(c, G, a) for a in range(c.n)], axis=-1)
        inv = g.inverse
        div = np.einsum("...ac,...cba->...b", inv, dG)
        div -= np.einsum("...ac,...dac,...db->...b", inv, b.gamma, G)
        div -= np.einsum("...ac,...dab,...cd->...b", inv, b.gamma, G)
        return div

    errs = []
    for size in (12, 24):
        c = chart3(size)
        g = fourier_metric(c, amplitude=0.25, seed=5)
        errs.append(np.max(np.abs(einstein_div(g))))
    assert errs[0] / errs[1] > 8.0


# --- Weyl properties ----------------------------------------------------------


def test_weyl_vanishes_in_3d():
    c = chart3(12)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    b = curvature_bundle(g)
    assert np.max(riemann_norm(b.W.pair, g.inverse)) < 1e-8 * np.max(
        riemann_norm(b.riem.pair, g.inverse)
    )


def test_weyl_trace_free_4d():
    c = make_chart(4, (8,) * 4, (2 * np.pi,) * 4)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    b = curvature_bundle(g)
    tr = trace_13(b.W.pair, g.inverse)
    assert np.max(np.abs(tr)) < 1e-8 * np.max(np.abs(b.W.pair))
    # end-to-end symmetry of the assembled curvature tensor
    scale = float(np.max(np.abs(b.riem.pair)))
    report = riemann_symmetry_report(dense_from_pair(b.riem.pair, 4))
    assert report["max_violation"] < 1e-9 * scale


def test_weyl_forms_one_product(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return kulkarni_nomizu(a, b)

    monkeypatch.setattr("scalarweyl.curvature.kulkarni_nomizu", counted)
    c = make_chart(4, (8,) * 4, (2 * np.pi,) * 4)
    curvature_bundle(fourier_metric(c, amplitude=0.25, seed=2))
    assert len(calls) == 1


def decomposition_residual(g):
    """Max relative deviation of Riem from its recomposition via (W, Ric, R).

    Zero to roundoff by construction; a wiring check for the trace and
    product plumbing.
    """
    bundle = curvature_bundle(g)
    recomposed = bundle.W.pair + kulkarni_nomizu(_schouten(bundle.ric, bundle.scal, g), g.dense)
    diff = riemann_norm(recomposed - bundle.riem.pair, g.inverse)
    scale = max(float(np.max(riemann_norm(bundle.riem.pair, g.inverse))), 1e-300)
    return float(np.max(diff)) / scale


def test_decomposition_residual_and_corruption():
    c = make_chart(4, (8,) * 4, (2 * np.pi,) * 4)
    g = fourier_metric(c, amplitude=0.25, seed=3)
    assert decomposition_residual(g) < 1e-12
    # recompose with a corrupted Weyl part: the residual must see it
    b = curvature_bundle(g)
    n = 4
    w_bad = b.W.pair.copy()
    w_bad[..., 0, 1] += 0.1
    w_bad[..., 1, 0] += 0.1
    recomposed = w_bad + kulkarni_nomizu(b.ric, g.dense) / (n - 2)
    recomposed -= (
        b.scal[..., None, None] / (2.0 * (n - 1) * (n - 2))
    ) * kulkarni_nomizu(g.dense, g.dense)
    diff = np.max(riemann_norm(recomposed - b.riem.pair, g.inverse))
    assert diff > 0.05


# --- hessian ------------------------------------------------------------------


def test_hessian_flat_matches_plain_second_derivatives():
    c = chart3(16)
    g = flat_metric(c)
    x, y, _ = c.mesh()
    u = np.broadcast_to(np.sin(x + 2 * y), c.shape)
    H = hessian(c, christoffel(g), u)
    assert np.array_equal(H, np.swapaxes(H, -1, -2))
    grad = gradient(c, u)
    assert np.allclose(H[..., 0, 1], deriv(c, grad[..., 1], 0), atol=1e-14)


def test_hessian_conformal_oracle():
    errs = []
    for size in (12, 24):
        c = chart3(size)
        g = conf_metric(c)
        x, y, _ = c.mesh()
        u = np.broadcast_to(np.sin(x) * np.cos(y), c.shape)
        H = hessian(c, christoffel(g), u)
        # analytic covariant hessian from the oracle symbols
        du = np.stack(
            [
                np.broadcast_to(np.cos(x) * np.cos(y), c.shape),
                np.broadcast_to(-np.sin(x) * np.sin(y), c.shape),
                np.zeros(c.shape),
            ],
            axis=-1,
        )
        ddu = np.zeros(c.shape + (3, 3))
        ddu[..., 0, 0] = -np.sin(x) * np.cos(y)
        ddu[..., 0, 1] = ddu[..., 1, 0] = -np.cos(x) * np.sin(y)
        ddu[..., 1, 1] = -np.sin(x) * np.cos(y)
        H_o = ddu - np.einsum("...kij,...k->...ij", gamma_oracle(c), du)
        errs.append(np.max(np.abs(H - H_o)))
    assert np.log2(errs[0] / errs[1]) > 3.5
