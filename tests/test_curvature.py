"""Curvature stack against analytic oracles and refinement orders."""

import os
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from oracles import (
    dense_from_pair,
    metric_from_dense,
    riemann_symmetry_report,
    slab_parts,
    whole_riemann,
)
from scalarweyl import curvature, grid
from scalarweyl.conformal import scalar_weyl
from scalarweyl.curvature import (
    _schouten,
    _slabs,
    christoffel,
    curvature_bundle,
    curvature_scalars,
    hessian,
    ricci_scalar,
    riemann,
    weyl,
)
from scalarweyl.deformation import deform
from scalarweyl.grid import (
    MetricField,
    deriv,
    gradient,
    make_chart,
    sym2_pack,
    sym2_unpack,
    window,
)
from scalarweyl.presets import (
    conformally_flat_metric,
    flat_metric,
    fourier_metric,
    radial_cutoff,
)
from scalarweyl.tensor import (
    bianchi_project,
    kulkarni_nomizu,
    pair_indices,
    riemann_norm,
    riemann_norm_squared,
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
    d = [np.broadcast_to(v, chart.sizes) for v in d]
    dd = np.zeros(chart.sizes + (3, 3))
    dd[..., 0, 0] = -a * np.sin(x) * np.cos(y)
    dd[..., 0, 1] = dd[..., 1, 0] = -a * np.cos(x) * np.sin(y)
    dd[..., 1, 1] = -a * np.sin(x) * np.cos(y)
    dd[..., 2, 2] = -b * np.sin(z)
    return np.broadcast_to(phi, chart.sizes), d, dd


def gamma_oracle(chart):
    # exp(2 phi) * id has Gamma^k_ij = d_ik phi_j + d_jk phi_i - d_ij phi_k
    _, d, _ = phi_and_derivs(chart)
    n = chart.n
    G = np.zeros(chart.sizes + (n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                v = np.zeros(chart.sizes)
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


# --- the slab loop against one whole-field pass -----------------------------


@pytest.mark.parametrize(
    "n, sizes, scheme, slab_points, slabs",
    [
        # 3 planes per slab over 10 planes: 3 + 3 + 3 + 1
        (3, (10, 8, 8), "fd4", 3 * 64, 4),
        # 4 planes per slab over 10 planes: 4 + 4 + 2
        (4, (10, 8, 8, 8), "fd4", 4 * 512, 3),
        # one plane per slab: both ghost planes of every slab are neighbours'
        (4, (8,) * 4, "fd4", 512, 8),
        # the default rule keeps an 8^4 grid in one slab
        (4, (8,) * 4, "fd4", None, 1),
        # a spectral chart is one slab whatever the points per slab
        (4, (8,) * 4, "spectral", 512, 1),
        (3, (8,) * 3, "spectral", 64, 1),
    ],
)
def test_slab_loop_is_bit_identical_to_one_whole_field_pass(
    monkeypatch, n, sizes, scheme, slab_points, slabs
):
    if slab_points is not None:
        monkeypatch.setattr(curvature, "_SLAB_POINTS", slab_points)
    c = make_chart(n, sizes, (2 * np.pi,) * n, scheme=scheme)
    g = fourier_metric(c, amplitude=0.3, seed=4)
    assert len(_slabs(c)) == slabs
    # the reference: each layer once on all planes
    gamma = christoffel(g)
    riem = riemann(g, window(c, gamma, slice(None)), slice(None))
    inv = sym2_unpack(g.inverse, n)
    ric, scal = ricci_scalar(riem, inv)
    W = weyl(riem, ric, scal, sym2_unpack(g.packed, n))
    wnorm2 = riemann_norm_squared(W, inv)
    b = curvature_bundle(g)
    for got, want in ((sym2_unpack(b.ric, n), ric), (b.scal, scal), (b.W.pair, W)):
        assert np.array_equal(got, want)
    for streamed in (curvature_scalars(g), curvature_scalars(g, bundle=b)):
        assert np.array_equal(streamed[0], scal)
        assert np.array_equal(streamed[1], wnorm2)
    t = 0.7
    F = scalar_weyl(g, t)
    assert np.array_equal(F, scal + t * np.sqrt(wnorm2))
    assert np.array_equal(F, scalar_weyl(g, t, bundle=b))
    # the window forms each plane of Gamma once; past one slab, the last
    # window forms again the grid's last two planes, the first's lower ghosts
    formed = []

    def counted(g, planes=slice(None)):
        formed.append(len(range(*planes.indices(sizes[0]))))
        return christoffel(g, planes)

    monkeypatch.setattr(curvature, "christoffel", counted)
    curvature_scalars(g)
    assert sum(formed) == sizes[0] + (2 if slabs > 1 else 0)


# --- flat -------------------------------------------------------------------


def test_flat_curvature_identically_zero():
    for n, size in ((3, 8), (4, 8)):
        c = make_chart(n, (size,) * n, (2 * np.pi,) * n)
        # and a constant SPD metric other than the identity: every
        # derivative of its components is exactly 0, so no layer leaves a
        # rounding residue
        a = np.random.default_rng(n).uniform(0.1, 2.9, (n, n))
        constant = np.tile(sym2_pack(a @ a.T + np.eye(n), n), c.sizes + (1,))
        for g in (flat_metric(c), MetricField(c, constant)):
            gamma = christoffel(g)
            assert np.count_nonzero(gamma) == 0
            rm = riemann(g, window(c, gamma, slice(None)), slice(None))
            assert np.count_nonzero(rm) == 0
            ric, scal = ricci_scalar(rm, sym2_unpack(g.inverse, n))
            assert np.count_nonzero(ric) == 0 and np.count_nonzero(scal) == 0
            assert decomposition_residual(g) == 0.0


# --- assembly kernels against per-entry references -------------------------


def christoffel_reference(g):
    """Per-(a, b) einsum over the derivatives of the dense metric."""
    chart = g.chart
    n = chart.n
    dg = np.stack([deriv(chart, sym2_unpack(g.packed, n), a) for a in range(n)], axis=-1)
    inv = sym2_unpack(g.inverse, n)
    gamma = np.empty(chart.sizes + (n, n, n))
    for a in range(n):
        for b in range(a, n):
            brk = dg[..., b, :, a] + dg[..., a, :, b] - dg[..., a, b, :]
            gamma[..., a, b] = gamma[..., b, a] = 0.5 * np.einsum(
                "...cd,...d->...c", inv, brk
            )
    return gamma


def riemann_reference(g, gamma):
    """Strided per-entry antisymmetrization into column q, then the exchange
    average and the Bianchi projection."""
    chart = g.chart
    n = chart.n
    pairs = pair_indices(n)
    dense = sym2_unpack(g.packed, n)
    mat = np.empty(chart.sizes + (len(pairs),) * 2)
    for q, (mu, nu) in enumerate(pairs):
        gm = gamma[..., mu, :]
        gn = gamma[..., nu, :]
        r13 = deriv(chart, gn, mu) - deriv(chart, gm, nu)
        r13 += np.matmul(gm, gn) - np.matmul(gn, gm)
        low = np.matmul(dense, r13)
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
    dense = sym2_unpack(gamma, n)
    ref = christoffel_reference(g)
    assert np.max(np.abs(dense - ref)) <= 1e-14 * np.max(np.abs(ref))
    # from the same symbols the assembly is bit-identical
    riem = riemann(g, window(c, gamma, slice(None)), slice(None))
    assert np.array_equal(riem, riemann_reference(g, dense))


@pytest.mark.parametrize("n, sizes", [(3, (10, 12, 8)), (4, (10, 8, 8, 8))])
def test_christoffel_on_planes_matches_the_whole_grid(n, sizes):
    # the window of the packed metric wraps at both ends of axis 0
    c = make_chart(n, sizes, (2 * np.pi,) * n)
    g = fourier_metric(c, amplitude=0.3, seed=4)
    whole = christoffel(g)
    for planes in (slice(3, 6), slice(0, 2), slice(8, 10), slice(9, 10), slice(0, 10)):
        assert np.array_equal(christoffel(g, planes), whole[planes])


# --- conformally flat oracles ------------------------------------------------


def test_christoffel_conformal_oracle_order():
    errs = []
    for size in (16, 32):
        c = chart3(size)
        errs.append(np.max(np.abs(sym2_unpack(christoffel(conf_metric(c)), 3) - gamma_oracle(c))))
    # measured halving ratio 15.2 (4th order); frozen band
    assert 13.0 < errs[0] / errs[1] < 18.5


def test_christoffel_single_axis_component():
    # phi depending on x alone: Gamma^1_11 equals d phi / dx
    c = chart3(24)
    x = c.mesh()[0]
    phi = 0.1 * np.sin(x)
    g = conformally_flat_metric(c, np.broadcast_to(phi, c.sizes))
    gamma = sym2_unpack(christoffel(g), 3)
    assert np.max(np.abs(gamma[..., 0, 0, 0] - 0.1 * np.cos(x))) < 1e-4
    # lower symmetry is exact by construction
    assert np.array_equal(gamma, np.swapaxes(gamma, -1, -2))


def test_ricci_scalar_conformal_oracle_order():
    errs_ric, errs_scal = [], []
    for size in (12, 24):
        c = chart3(size)
        g = conf_metric(c)
        ric, scal = ricci_scalar(whole_riemann(g), sym2_unpack(g.inverse, 3))
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
    r1 = whole_riemann(g)
    dense, inv = sym2_unpack(g.packed, 3), sym2_unpack(g.inverse, 3)
    r2 = kulkarni_nomizu(dense, dense)
    ric_sum, scal_sum = ricci_scalar(r1 + r2, inv)
    ric1, scal1 = ricci_scalar(r1, inv)
    ric2, scal2 = ricci_scalar(r2, inv)
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
    return metric_from_dense(chart, dense), np.sqrt(rho2)


def test_cap_sectional_curvature_is_one():
    errs_k, errs_r = [], []
    for size in (16, 32):
        c = chart3(size, length=4.0)
        g, rho = cap_metric(c)
        rm = whole_riemann(g)
        # pair slot 0 is (0,1): plane of the first two coordinate directions
        dense = sym2_unpack(g.packed, 3)
        plane = dense[..., 0, 0] * dense[..., 1, 1] - dense[..., 0, 1] ** 2
        K = rm[..., 0, 0] / plane
        mask = rho <= 0.4
        errs_k.append(np.max(np.abs(K[mask] - 1.0)))
        _, scal = ricci_scalar(rm, sym2_unpack(g.inverse, 3))
        errs_r.append(np.max(np.abs(scal[mask] - 6.0)))
    # measured at 32^3: 5.9e-3 and 3.6e-2, ratio ~10
    assert errs_k[1] < 2.5e-2 and errs_k[0] / errs_k[1] > 6.0
    assert errs_r[1] < 0.15 and errs_r[0] / errs_r[1] > 6.0


def test_cap_weyl_vanishes_4d():
    c = make_chart(4, (12,) * 4, (4.0,) * 4)
    g, rho = cap_metric(c)
    b = curvature_bundle(g)
    mask = rho <= 0.4
    inv = sym2_unpack(g.inverse, 4)
    wn = np.max(riemann_norm(b.W.pair, inv)[mask])
    rn = np.max(riemann_norm(whole_riemann(g), inv)[mask])
    assert rn > 1.0  # the cap really is curved
    assert wn < 1e-8 * rn


# --- refinement orders --------------------------------------------------------


def test_riemann_refinement_order():
    errs = []
    prev = None
    for size in (12, 24, 48):
        c = chart3(size)
        g = fourier_metric(c, amplitude=0.25, seed=5)
        mat = whole_riemann(g)
        if prev is not None:
            errs.append(np.max(np.abs(prev - mat[::2, ::2, ::2])))
        prev = mat
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_einstein_divergence_refines_away():
    def einstein_div(g):
        c = g.chart
        b = curvature_bundle(g)
        G = sym2_unpack(b.ric, c.n) - 0.5 * b.scal[..., None, None] * sym2_unpack(g.packed, c.n)
        dG = np.stack([deriv(c, G, a) for a in range(c.n)], axis=-1)
        inv = sym2_unpack(g.inverse, c.n)
        gamma = sym2_unpack(christoffel(g), c.n)
        div = np.einsum("...ac,...cba->...b", inv, dG)
        div -= np.einsum("...ac,...dac,...db->...b", inv, gamma, G)
        div -= np.einsum("...ac,...dab,...cd->...b", inv, gamma, G)
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
    inv = sym2_unpack(g.inverse, 3)
    assert np.max(riemann_norm(b.W.pair, inv)) < 1e-8 * np.max(
        riemann_norm(whole_riemann(g), inv)
    )


def test_weyl_trace_free_4d():
    c = make_chart(4, (8,) * 4, (2 * np.pi,) * 4)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    b = curvature_bundle(g)
    tr = trace_13(b.W.pair, sym2_unpack(g.inverse, 4))
    assert np.max(np.abs(tr)) < 1e-8 * np.max(np.abs(b.W.pair))
    # end-to-end symmetry of the assembled curvature tensor
    riem = whole_riemann(g)
    scale = float(np.max(np.abs(riem)))
    report = riemann_symmetry_report(dense_from_pair(riem, 4))
    assert report["max_violation"] < 1e-9 * scale


def test_weyl_forms_one_product(monkeypatch):
    # one product per slab part: an 8^4 grid is one slab, one part per
    # worker; one worker makes one product
    calls = []

    def counted(a, b):
        calls.append(1)
        return kulkarni_nomizu(a, b)

    monkeypatch.setattr("scalarweyl.curvature.kulkarni_nomizu", counted)
    c = make_chart(4, (8,) * 4, (2 * np.pi,) * 4)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    for workers, parts in ((grid._WORKERS, slab_parts(c)), (1, 1)):
        monkeypatch.setattr(grid, "_WORKERS", workers)
        calls.clear()
        curvature_bundle(g)
        assert len(calls) == parts


# --- the parts of a slab --------------------------------------------------


def test_a_raising_part_surfaces_after_every_part_has_finished(monkeypatch):
    # no part may still be writing into a buffer the caller reuses when the
    # error reaches it, and the first part's error in plane order wins
    monkeypatch.setattr(grid, "_WORKERS", 3)
    finished = []

    def run(part):
        if part.start == 0:
            raise ValueError("part 0")
        time.sleep(0.2)
        finished.append(part.start)
        if part.start == 2:
            raise ValueError("part 2")

    with pytest.raises(ValueError, match="part 0"):
        grid._in_parts(run, slice(0, 3))
    assert sorted(finished) == [1, 2]

    def run_pool_errors(part):
        if part.start == 1:
            time.sleep(0.2)
            raise ValueError("part 1")
        if part.start == 2:
            raise ValueError("part 2")

    with pytest.raises(ValueError, match="part 1"):
        grid._in_parts(run_pool_errors, slice(0, 3))


def test_a_slab_loop_inside_a_part_runs_inline(monkeypatch):
    # a loop inside a part that waited for the pool could wait for itself
    # once every pool thread runs an outer part; it must submit nothing.
    # Each part here runs on a thread of its own, so a failing case fails
    # instead of hanging
    submitted = []

    class ThreadPerPart:
        def submit(self, fn, *args):
            submitted.append(args)
            future = Future()

            def target():
                try:
                    future.set_result(fn(*args))
                except BaseException as exc:
                    future.set_exception(exc)

            threading.Thread(target=target, daemon=True).start()
            return future

    monkeypatch.setattr(grid, "_POOL", ThreadPerPart())
    monkeypatch.setattr(grid, "_WORKERS", 2)
    c = make_chart(4, (8,) * 4, (2 * np.pi,) * 4)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    want = curvature_scalars(g)
    got = {}

    def run(part):
        got[part.start] = curvature_scalars(g)

    submitted.clear()
    grid._in_parts(run, slice(0, 2))
    assert len(submitted) == 1
    assert sorted(got) == [0, 1]
    for scal, wnorm2 in got.values():
        assert np.array_equal(scal, want[0]) and np.array_equal(wnorm2, want[1])


def test_threaded_stack_factors_the_metric_no_more_often(monkeypatch):
    # the parts read the inverse, a cached property formed before they start
    calls = []
    factor = MetricField._factor

    def counted(self):
        calls.append(1)
        return factor(self)

    monkeypatch.setattr(MetricField, "_factor", counted)
    c = make_chart(4, (8,) * 4, (2 * np.pi,) * 4)
    counts = []
    for workers in (1, 2):
        monkeypatch.setattr(grid, "_WORKERS", workers)
        calls.clear()
        curvature_scalars(fourier_metric(c, amplitude=0.25, seed=2))
        counts.append(len(calls))
    # construction's check and the inverse
    assert counts == [2, 2]


def test_worker_count_without_an_affinity_call_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert grid._worker_count() == (os.cpu_count() or 1)


def test_one_worker_starts_no_pool_part(monkeypatch):
    class NoPool:
        def submit(self, *args):
            raise AssertionError("a pool part was started")

    monkeypatch.setattr(grid, "_WORKERS", 1)
    monkeypatch.setattr(grid, "_POOL", NoPool())
    monkeypatch.setattr(curvature, "_SLAB_POINTS", 3 * 8**3)
    c = make_chart(4, (8,) * 4, (2 * np.pi,) * 4)
    g = fourier_metric(c, amplitude=0.25, seed=2)
    curvature_scalars(g, bundle=curvature_bundle(g))
    curvature_scalars(g)


def decomposition_residual(g):
    """Max relative deviation of Riem from its recomposition via (W, Ric, R).

    Zero to roundoff by construction; a wiring check for the trace and
    product plumbing.
    """
    bundle = curvature_bundle(g)
    riem = whole_riemann(g)
    n = g.chart.n
    dense, inv = sym2_unpack(g.packed, n), sym2_unpack(g.inverse, n)
    ric = sym2_unpack(bundle.ric, n)
    recomposed = bundle.W.pair + kulkarni_nomizu(_schouten(ric, bundle.scal, dense), dense)
    diff = riemann_norm(recomposed - riem, inv)
    scale = max(float(np.max(riemann_norm(riem, inv))), 1e-300)
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
    dense = sym2_unpack(g.packed, n)
    recomposed = w_bad + kulkarni_nomizu(sym2_unpack(b.ric, n), dense) / (n - 2)
    recomposed -= (
        b.scal[..., None, None] / (2.0 * (n - 1) * (n - 2))
    ) * kulkarni_nomizu(dense, dense)
    diff = np.max(riemann_norm(recomposed - whole_riemann(g), sym2_unpack(g.inverse, n)))
    assert diff > 0.05


# --- hessian ------------------------------------------------------------------


def test_hessian_flat_matches_plain_second_derivatives():
    c = chart3(16)
    g = flat_metric(c)
    x, y, _ = c.mesh()
    u = np.broadcast_to(np.sin(x + 2 * y), c.sizes)
    grad = gradient(c, u)
    H = sym2_unpack(hessian(g, grad), 3)
    assert np.array_equal(H, np.swapaxes(H, -1, -2))
    assert np.allclose(H[..., 0, 1], deriv(c, grad[..., 1], 0), atol=1e-14)


@pytest.mark.parametrize("n, scheme", [(3, "fd4"), (4, "fd4"), (4, "spectral")])
def test_hessian_reads_the_packed_symbols_as_the_dense_route(monkeypatch, n, scheme):
    # the packed correction Gamma^k_q u_k, streamed through the windows and
    # unpacked, is bit for bit the dense contraction over the whole-grid
    # Gamma^k_ij: on its own and inside the loop that forms deform's bundle,
    # on one slab and on 3-plane slabs (3 + 3 + 2; a spectral chart stays
    # one slab)
    c = make_chart(n, (8,) * n, (2 * np.pi,) * n, scheme=scheme)
    g = fourier_metric(c, amplitude=0.2, seed=3)
    u = fourier_metric(c, amplitude=0.5, seed=8).packed[..., 0]
    gamma = christoffel(g)
    assert gamma.shape == c.sizes + (n, n * (n + 1) // 2)
    grad = gradient(c, u)
    want = np.empty(c.sizes + (n, n))
    for i in range(n):
        for j in range(n):
            want[..., i, j] = deriv(c, grad[..., max(i, j)], min(i, j))
    want -= np.einsum("...kij,...k->...ij", sym2_unpack(gamma, n), grad)
    for slab_points in (curvature._SLAB_POINTS, 3 * 8 ** (n - 1)):
        monkeypatch.setattr(curvature, "_SLAB_POINTS", slab_points)
        assert np.array_equal(sym2_unpack(hessian(g, grad), n), want)
        assert np.array_equal(sym2_unpack(deform(g, u).hess, n), want)


def test_hessian_conformal_oracle():
    errs = []
    for size in (12, 24):
        c = chart3(size)
        g = conf_metric(c)
        x, y, _ = c.mesh()
        u = np.broadcast_to(np.sin(x) * np.cos(y), c.sizes)
        H = sym2_unpack(hessian(g, gradient(c, u)), 3)
        # analytic covariant hessian from the oracle symbols
        du = np.stack(
            [
                np.broadcast_to(np.cos(x) * np.cos(y), c.sizes),
                np.broadcast_to(-np.sin(x) * np.sin(y), c.sizes),
                np.zeros(c.sizes),
            ],
            axis=-1,
        )
        ddu = np.zeros(c.sizes + (3, 3))
        ddu[..., 0, 0] = -np.sin(x) * np.cos(y)
        ddu[..., 0, 1] = ddu[..., 1, 0] = -np.cos(x) * np.sin(y)
        ddu[..., 1, 1] = -np.sin(x) * np.cos(y)
        H_o = ddu - np.einsum("...kij,...k->...ij", gamma_oracle(c), du)
        errs.append(np.max(np.abs(H - H_o)))
    assert np.log2(errs[0] / errs[1]) > 3.5
