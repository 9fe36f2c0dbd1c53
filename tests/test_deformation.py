"""Graph-type deformation g' = g + df (x) df.

The change of the (0,4) Weyl tensor is assembled from fifteen Kulkarni-Nomizu
blocks.  Two independent checks pin it down: a literal dense transcription of
the coefficient table (pure algebra, so the comparison is at roundoff), and
the definition itself, W(g') - W(g), computed by running the full curvature
stack on the deformed metric (agreement limited by the scheme's truncation
error, so those tests measure a convergence order across a grid doubling).

Measured orders on the 12 -> 24 doubling sit at 3.6-3.8 for every identity
here; asserted above 3.5.  Machine-level identities (determinant, closed-form
inverse, the 3d collapse of the error tensor) are asserted near eps.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_from_pair,
    deformed_inverse,
    divergence_total,
    exact_deformation,
    slab_parts,
    whole_field_energy,
    whole_field_energy_bound,
    whole_field_scalar_closed_form,
    whole_field_weyl_error,
    whole_riemann,
)
from scalarweyl import construct, curvature, deformation, grid
from scalarweyl.conformal import _as_positive
from scalarweyl.construct import RadialFields, make_bump, radial_fields
from scalarweyl.curvature import (
    _schouten,
    christoffel,
    curvature_bundle,
    curvature_scalars,
    hessian,
)
from scalarweyl.deformation import (
    BLOCK_COUNT,
    _raised,
    _riemann_vv,
    _scalar_ingredients,
    deform,
    deformation_energy,
    deformed_norm,
    deformed_scalar_closed_form,
    weyl_error,
)
from scalarweyl.grid import (
    FieldError,
    MetricField,
    deriv,
    gradient,
    integrate,
    make_chart,
    sym2_pack,
)
from scalarweyl.presets import flat_metric, fourier_metric, fourier_scalar
from scalarweyl.tensor import (
    kulkarni_nomizu,
    pair_contract,
    pair_lift,
    riemann_norm,
    vv_contract,
)


def torus(n, size, scheme="fd4"):
    return make_chart(n, (size,) * n, (2.0 * np.pi,) * n, scheme=scheme)


def inputs_for(n, size, seed=5, amp=0.05, famp=0.3):
    c = torus(n, size)
    g = fourier_metric(c, amplitude=amp, seed=seed)
    return g, fourier_scalar(c, amplitude=famp, seed=seed + 100)


def bundle_for(n, size, seed=5, amp=0.05, famp=0.3):
    return deform(*inputs_for(n, size, seed, amp, famp))


# ---------------------------------------------------------------------------
# dense reference evaluator
#
# Literal transcription of the error-tensor coefficient table on dense
# (0,4) arrays, one einsum per index pattern, grouped exactly as the blocks
# appear (single blocks 1..3, then pairs sharing a coefficient).  No pair
# packing, no factor caching: this is the brute-force version the packed
# assembly must reproduce to roundoff.

LINE_BLOCKS = {
    1: (1,),
    2: (2,),
    3: (3,),
    4: (4, 5),
    5: (6, 7),
    6: (8, 9),
    7: (10, 11),
    8: (12, 13),
    9: (14, 15),
}


def _quad(A, B):
    # A_ik B_jt - A_it B_jk + A_jt B_ik - A_jk B_it
    return (
        np.einsum("...ik,...jt->...ijkt", A, B)
        - np.einsum("...it,...jk->...ijkt", A, B)
        + np.einsum("...jt,...ik->...ijkt", A, B)
        - np.einsum("...jk,...it->...ijkt", A, B)
    )


def _gg(g):
    # g_ik g_jt - g_it g_jk, i.e. half of the (g, g) quad
    return np.einsum("...ik,...jt->...ijkt", g, g) - np.einsum(
        "...it,...jk->...ijkt", g, g
    )


def reference_error_lines(bundle):
    n = bundle.n
    g = bundle.base.g.dense
    ginv = bundle.base.g.inverse
    grad = bundle.grad
    h = bundle.hess
    w = _raised(ginv, grad)[1]
    riem = dense_from_pair(whole_riemann(bundle.base.g), n)
    ric = bundle.base.ric
    scal = bundle.base.scal

    fup = np.einsum("...ab,...b->...a", ginv, grad)
    F2 = grad[..., :, None] * grad[..., None, :]
    gp = g + F2
    lap = np.einsum("...ab,...ab->...", ginv, h)
    hup = np.einsum("...ip,...pq,...qk->...ik", h, ginv, h)
    h2 = np.einsum("...ab,...ap,...bq,...pq->...", h, ginv, ginv, h)
    rvv = np.einsum("...pq,...p,...q->...", ric, fup, fup)
    beta = np.einsum("...pq,...p,...q->...", h, fup, fup)
    u = np.einsum("...ip,...p->...i", h, fup)
    u2 = np.einsum("...a,...ab,...b->...", u, ginv, u)

    cn2 = 1.0 / (n - 2.0)
    cnn = 1.0 / ((n - 1.0) * (n - 2.0))
    co = lambda field: field[..., None, None, None, None]

    lines = {}
    lines[1] = co(1.0 / w) * (
        np.einsum("...ik,...jt->...ijkt", h, h)
        - np.einsum("...it,...jk->...ijkt", h, h)
    )
    # the Ricci quad carries a minus sign, fixed against the direct oracle
    lines[2] = -cn2 * _quad(ric, F2)
    lines[3] = co(cnn * scal) * _quad(g, F2)
    lines[4] = co(cn2 / w) * (
        np.einsum("...ipkq,...p,...q,...jt->...ijkt", riem, fup, fup, gp)
        - np.einsum("...iptq,...p,...q,...jk->...ijkt", riem, fup, fup, gp)
        + np.einsum("...jptq,...p,...q,...ik->...ijkt", riem, fup, fup, gp)
        - np.einsum("...jpkq,...p,...q,...it->...ijkt", riem, fup, fup, gp)
    )
    lines[5] = co(-2.0 * cnn * rvv / w) * (_gg(g) + _quad(g, F2))
    Q = lap[..., None, None] * h - hup
    lines[6] = co(-cn2 / w) * _quad(Q, gp)
    lines[7] = co(cnn * (lap**2 - h2) / w) * (_gg(g) + _quad(g, F2))
    V = beta[..., None, None] * h - u[..., :, None] * u[..., None, :]
    lines[8] = co(cn2 / w**2) * _quad(V, gp)
    lines[9] = co(-2.0 * cnn * (lap * beta - u2) / w**2) * (_gg(g) + _quad(g, F2))
    return lines


# ---------------------------------------------------------------------------
# independent routes to the deformed norm, the divergence form of the
# deformed scalar curvature, and the conformal scaling of the error tensor


def frame_split_norm(mat, g, grad):
    """Norm of the pair matrices ``mat`` under g + df (x) df, split along the gradient direction
    into tangential, once-contracted and twice-contracted blocks weighted 1,
    4/D and 4/D^2 with D = 1 + |grad f|^2."""
    inv = g.inverse
    vup = np.einsum("...ab,...b->...a", inv, grad)
    s2 = np.einsum("...a,...a->...", grad, vup)
    unit = np.zeros_like(vup)
    np.divide(vup, np.sqrt(s2)[..., None], out=unit, where=(s2 > 0)[..., None])
    what = unit[..., :, None] * unit[..., None, :]
    p = inv - what
    lpp, lpw, d = pair_lift(p, p), pair_lift(p, what), 1.0 + s2
    tang = pair_contract(mat, mat, lpp, lpp)
    mix = pair_contract(mat, mat, lpp, lpw) + pair_contract(mat, mat, lpw, lpp)
    radrad = pair_contract(mat, mat, lpw, lpw)
    return np.sqrt(np.maximum(tang + 2.0 * mix / d + 4.0 * radrad / d**2, 0.0))


def scalar_divergence_identity(bundle):
    """Residuals of the divergence form of the deformed scalar curvature.

    Returns ``(pointwise, integral)``: the pointwise gap between the closed
    form and the divergence form R - R_ab f^a f^b / w + div(V), and the
    defect of the global identity int R' dV = int R dV - int R_ab f^a f^b / w dV,
    evaluated with the flux-form divergence so it vanishes to roundoff.
    """
    chart = bundle.chart
    g = bundle.base.g
    ing = deformation._scalar_ingredients(bundle, slice(None))
    w = ing["w"]
    v = (ing["lap"][..., None] * bundle.grad - ing["u"]) / w[..., None]

    closed = deformation._scalar_closed_form(ing)

    vup = np.einsum("...ab,...b->...a", g.inverse, v)
    div_pt = 0.0
    for a in range(chart.n):
        div_pt = div_pt + deriv(chart, g.sqrt_det * vup[..., a], a)
    div_pt = div_pt / g.sqrt_det
    div_form = bundle.base.scal - ing["rvv"] / w + div_pt
    pointwise = float(np.max(np.abs(closed - div_form)))

    integral = abs(divergence_total(v, g))
    return pointwise, integral


def weyl_error_conformal_residual(g, psi, k):
    """Residual of the scaling law tying the error tensors of a conformal
    pair: E of (psi g, k psi) against psi * E of (g, 2k sqrt(psi))."""
    psi = _as_positive("conformal factor", psi)
    scaled = MetricField(g.chart, psi[..., None] * g.packed)
    lhs = weyl_error(deform(scaled, k * psi)).pair
    # the (0,4) tensor picks up one power of the factor, same direction as
    # the Weyl scaling checked in test_conformal
    rhs = psi[..., None, None] * weyl_error(deform(g, 2.0 * k * np.sqrt(psi))).pair
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# construction and closed forms


def test_deform_constant_function_is_identity():
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.2, seed=1)
    b = deform(g, np.full(c.shape, 2.5))
    assert np.array_equal(b.g_prime.packed, g.packed)
    assert np.array_equal(_raised(g.inverse, b.grad)[1], np.ones(c.shape))
    assert np.count_nonzero(weyl_error(b).pair) == 0
    assert np.array_equal(deformed_scalar_closed_form(b), b.base.scal)


def test_deformed_metric_is_built_on_first_read(monkeypatch):
    # the closed forms never read g', so the energy pays neither its
    # packed field nor its factorization
    g, f = inputs_for(4, 8)
    b = deform(g, f)
    built = []
    post_init = MetricField.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(MetricField, "__post_init__", counted)
    deformation_energy(g, f, 1.0, base=b.base)
    assert built == []
    # read, it is the metric the eager build formed, bit for bit
    eager = g.packed + sym2_pack(b.grad[..., :, None] * b.grad[..., None, :], 4)
    assert np.array_equal(deform(g, f, base=b.base).g_prime.packed, eager)
    assert len(built) == 1
    assert b.g_prime is b.g_prime


def test_deform_rejects_foreign_base():
    c = torus(3, 8)
    g = fourier_metric(c, amplitude=0.2, seed=1)
    other = fourier_metric(c, amplitude=0.2, seed=2)
    with pytest.raises(ValueError):
        deform(g, fourier_scalar(c, seed=3), base=curvature_bundle(other))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 0.3), st.floats(0.05, 0.8))
def test_determinant_and_inverse_closed_forms(seed, amp, famp):
    # det g' = (1 + |grad f|^2) det g, and the rank-one inverse update,
    # both exact up to roundoff for any metric and any f
    c = torus(3, 8)
    g = fourier_metric(c, amplitude=amp, seed=seed)
    f = fourier_scalar(c, amplitude=famp, seed=seed + 1)
    b = deform(g, f)
    w = _raised(g.inverse, b.grad)[1]
    det_res = np.max(np.abs(np.linalg.det(b.g_prime.dense) - w * np.linalg.det(g.dense)))
    inv_res = np.max(np.abs(deformed_inverse(g, b.grad) - b.g_prime.inverse))
    assert det_res < 1e-10
    assert inv_res < 1e-10


# ---------------------------------------------------------------------------
# error tensor vs the dense reference, block by block


@pytest.mark.parametrize("n,size", [(3, 8), (4, 8)])
def test_error_blocks_match_dense_reference(n, size):
    b = bundle_for(n, size, seed=5, amp=0.15, famp=0.5)
    lines = reference_error_lines(b)
    for line, blocks in LINE_BLOCKS.items():
        got = dense_from_pair(whole_field_weyl_error(b, blocks), n)
        want = lines[line]
        scale = max(float(np.max(np.abs(want))), 1e-3)
        assert np.max(np.abs(got - want)) < 1e-12 * scale, f"line {line}"


@pytest.mark.parametrize("n,size", [(3, 8), (4, 8)])
def test_error_total_matches_dense_reference(n, size):
    b = bundle_for(n, size, seed=7, amp=0.15, famp=0.5)
    total = sum(reference_error_lines(b).values())
    got = dense_from_pair(weyl_error(b).pair, n)
    scale = max(float(np.max(np.abs(total))), 1e-3)
    assert np.max(np.abs(got - total)) < 1e-12 * scale


def test_error_block_selection():
    b = bundle_for(4, 8)
    full = weyl_error(b).pair
    parts = [whole_field_weyl_error(b, (k,)) for k in range(1, BLOCK_COUNT + 1)]
    assert np.max(np.abs(sum(parts) - full)) < 1e-14
    with pytest.raises(ValueError):
        weyl_error(b, flip_block=16)


def test_error_flip_block_negates_that_block():
    b = bundle_for(4, 8)
    for k in (2, 9):
        flipped = weyl_error(b, flip_block=k).pair
        target = whole_field_weyl_error(b, (k,))
        assert np.max(np.abs(flipped - (weyl_error(b).pair - 2.0 * target))) < 1e-14


def test_weyl_error_checks_its_blocks_before_any_slab(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _scalar_ingredients(*args)

    b = bundle_for(4, 8)
    monkeypatch.setattr("scalarweyl.deformation._scalar_ingredients", counted)
    for flip in (16, 0):
        with pytest.raises(ValueError, match="flip_block"):
            weyl_error(b, flip_block=flip)
    assert not calls


@pytest.mark.parametrize(
    "n, sizes, scheme, slab_points, slabs",
    [
        # one plane per slab: both ghost planes of every slab are neighbours'
        (3, (10, 8, 8), "fd4", 64, 10),
        (4, (10, 8, 8, 8), "fd4", 512, 10),
        # several planes per slab: 3 + 3 + 3 + 1 and 4 + 4 + 2
        (3, (10, 8, 8), "fd4", 3 * 64, 4),
        (4, (10, 8, 8, 8), "fd4", 4 * 512, 3),
        # a spectral chart is one slab whatever the points per slab
        (4, (8,) * 4, "spectral", 512, 1),
    ],
)
def test_streamed_closed_forms_are_bit_identical_to_the_whole_field_oracle(
    monkeypatch, n, sizes, scheme, slab_points, slabs
):
    monkeypatch.setattr(curvature, "_SLAB_POINTS", slab_points)
    c = make_chart(n, sizes, (2.0 * np.pi,) * n, scheme=scheme)
    assert len(curvature._slabs(c)) == slabs
    g = fourier_metric(c, amplitude=0.2, seed=6)
    f = fourier_scalar(c, amplitude=0.3, seed=106)
    b = deform(g, f)
    for flip in (None, 2):
        got = weyl_error(b, flip_block=flip).pair
        assert np.array_equal(got, whole_field_weyl_error(b, flip_block=flip))
    assert np.array_equal(deformed_scalar_closed_form(b), whole_field_scalar_closed_form(b))
    t = 0.7
    assert deformation_energy(g, f, t, base=b.base) == whole_field_energy(g, f, t, b.base)
    # a smooth positive multiplier stands in for the radial fields: the
    # bound reads only psi and its gradient
    psi = np.exp(0.2 * fourier_scalar(c, amplitude=0.5, seed=11))
    fields = RadialFields(c, psi, gradient(c, psi), np.zeros(c.shape + (n, n)))
    cert, _ = construct._test_energy_bound(g, t, 0.8, fields)
    assert cert == whole_field_energy_bound(g, t, 0.8, fields)


def test_every_worker_count_gives_bit_identical_outputs(monkeypatch):
    # 3-plane slabs over 8 planes (3 + 3 + 2): two workers split them into
    # uneven parts (1 + 2, 1 + 2, 1 + 1), three into single planes, and
    # three workers are more than a 2-core host's; a short switch interval
    # interleaves the parts' writes into the shared window and outputs
    monkeypatch.setattr(curvature, "_SLAB_POINTS", 3 * 8**3)
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.2, seed=6)
    f = fourier_scalar(c, amplitude=0.3, seed=106)
    psi = np.exp(0.2 * fourier_scalar(c, amplitude=0.5, seed=11))
    fields = RadialFields(c, psi, gradient(c, psi), np.zeros(c.shape + (4, 4)))
    # a spectral sweep is one unsplit part, whatever the worker count
    s = torus(4, 8, "spectral")
    gs = fourier_metric(s, amplitude=0.2, seed=6)
    fs = fourier_scalar(s, amplitude=0.3, seed=106)

    def outputs():
        b = deform(g, f)
        base = b.base
        return [
            b.hess, hessian(g, gradient(c, f)),
            deform(gs, fs).hess, hessian(gs, gradient(s, fs)),
            base.ric, base.scal, base.W.pair,
            *curvature_scalars(g), *curvature_scalars(g, bundle=base),
            weyl_error(b).pair, deformed_scalar_closed_form(b),
            deformation_energy(g, f, 0.7, base=base),
            construct._test_energy_bound(g, 0.7, 0.8, fields)[0],
        ]

    monkeypatch.setattr(grid, "_WORKERS", 1)
    want = outputs()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3):
            monkeypatch.setattr(grid, "_WORKERS", workers)
            for got, ref in zip(outputs(), want, strict=True):
                assert np.array_equal(got, ref)
    finally:
        sys.setswitchinterval(interval)


def host_then_one_worker(monkeypatch, chart):
    """Yield the slab parts of ``chart`` with the host's workers, then with
    one worker, each set while the caller's loop body runs."""
    for workers in (grid._WORKERS, 1):
        monkeypatch.setattr(grid, "_WORKERS", workers)
        yield slab_parts(chart)


def test_error_forms_one_product_per_second_factor(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return kulkarni_nomizu(a, b)

    b = bundle_for(4, 8)
    monkeypatch.setattr("scalarweyl.deformation.kulkarni_nomizu", counted)
    for parts in host_then_one_worker(monkeypatch, b.chart):
        # per slab part, the second factors are h, g and df (x) df
        calls.clear()
        weyl_error(b)
        assert len(calls) == 3 * parts
    # one worker: the 8^4 grid is one slab of one part
    assert parts == 1


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_S_matches_the_riemann_route(n, scheme):
    # the bundle keeps W, not Riemann: S = Riem(., f^, ., f^) comes from
    # Riem = W + KN(P, g) in closed form, and the whole-field oracle follows
    # the same closed form, so this is S's independent check
    c = torus(n, 8, scheme)
    g = fourier_metric(c, amplitude=0.2, seed=8)
    grad = gradient(c, fourier_scalar(c, amplitude=0.3, seed=108))
    fup = _raised(g.inverse, grad)[0]
    base = curvature_bundle(g)
    P = _schouten(base.ric, base.scal, g.dense)
    want = vv_contract(whole_riemann(g), fup)
    scale = float(np.max(np.abs(want)))

    def mismatch(W):
        return float(np.max(np.abs(_riemann_vv(W, P, g.dense, grad, fup) - want))) / scale

    assert mismatch(base.W.pair) < 1e-13
    if n == 3:
        # W vanishes to roundoff: the Schouten terms alone give S
        assert mismatch(np.zeros_like(base.W.pair)) < 1e-13
    # one corrupted entry pair of W must break the match
    bad = base.W.pair.copy()
    bad[..., 0, 1] += 0.1
    bad[..., 1, 0] += 0.1
    assert mismatch(bad) > 0.1


def test_only_the_error_tensor_contracts_riemann(monkeypatch):
    calls = []

    def counted(mat, v):
        calls.append(1)
        return vv_contract(mat, v)

    g, f = inputs_for(4, 8)
    b = deform(g, f)
    monkeypatch.setattr("scalarweyl.deformation.vv_contract", counted)
    for parts in host_then_one_worker(monkeypatch, b.chart):
        calls.clear()
        weyl_error(b)
        assert len(calls) == parts
        calls.clear()
        deformation_energy(g, f, 1.0, base=b.base)
        # once per part, for its error tensor; the scalar terms need no
        # Riemann contraction
        assert len(calls) == parts
        calls.clear()
        deformed_scalar_closed_form(b)
        assert len(calls) == 0
    assert parts == 1


def test_deform_forms_each_plane_of_christoffel_once(monkeypatch):
    # the 8^4 grid is one slab: the loop that forms deform's own bundle
    # contracts each part's planes of Gamma for the Hessian, where a second
    # sweep would call christoffel once more per part; given a bundle, the
    # Hessian's one sweep is all the energy forms; a spectral sweep forms
    # the whole Gamma in one call
    calls = []

    def counted(g, planes=slice(None)):
        calls.append(1)
        return christoffel(g, planes)

    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.2, seed=6)
    f = fourier_scalar(c, amplitude=0.3, seed=106)
    monkeypatch.setattr(curvature, "christoffel", counted)
    for parts in host_then_one_worker(monkeypatch, c):
        calls.clear()
        b = deform(g, f)
        assert len(calls) == parts
        calls.clear()
        deformation_energy(g, f, 1.0, base=b.base)
        assert len(calls) == parts
        calls.clear()
        s = torus(4, 8, "spectral")
        hessian(fourier_metric(s, amplitude=0.2, seed=6), gradient(s, f))
        assert calls == [1]
    assert parts == 1


def test_each_caller_forms_the_scalar_ingredients_once(monkeypatch):
    # once per slab part: three planes per slab cut 8 planes into 3 slabs,
    # one part each with one worker, and the whole-grid divergence check is
    # one call
    calls = []

    def counted(*args):
        calls.append(1)
        return _scalar_ingredients(*args)

    g, f = inputs_for(4, 8)
    b = deform(g, f)
    monkeypatch.setattr("scalarweyl.deformation._scalar_ingredients", counted)
    monkeypatch.setattr(curvature, "_SLAB_POINTS", 3 * 8**3)
    for parts in host_then_one_worker(monkeypatch, b.chart):
        for run, count in (
            (lambda: weyl_error(b), parts),
            (lambda: deformed_scalar_closed_form(b), parts),
            (lambda: scalar_divergence_identity(b), 1),
            (lambda: deformation_energy(g, f, 1.0, base=b.base), parts),
        ):
            calls.clear()
            run()
            assert len(calls) == count
    assert parts == 3


# ---------------------------------------------------------------------------
# the identity W(g') = W(g) + E(f), against the full curvature stack


def flagship_residual(b, flip_block=None):
    E = weyl_error(b, flip_block=flip_block).pair
    direct = curvature_bundle(b.g_prime).W.pair
    return float(np.max(np.abs(b.base.W.pair + E - direct)))


def test_weyl_error_identity_order():
    # measured 7.8e-4 -> 6.5e-5 on the 12 -> 24 doubling, order 3.59
    res = {size: flagship_residual(bundle_for(4, size)) for size in (12, 24)}
    order = np.log2(res[12] / res[24])
    assert res[24] < 2e-4
    assert order > 3.5


def test_weyl_error_identity_three_dimensions():
    # in 3d the fifteen blocks cancel identically, not just in the limit:
    # the discrete Riemann tensor satisfies the same algebraic symmetries
    # as the smooth one, so the collapse survives discretization
    for size in (8, 10):
        b = bundle_for(3, size, seed=3, amp=0.2, famp=0.6)
        assert np.max(np.abs(weyl_error(b).pair)) < 1e-13


def test_weyl_error_ricci_sign():
    # flipping the Ricci block reproduces the sign variant that fails the
    # direct oracle: its residual stalls under refinement while the fixed
    # assembly drops by an order of magnitude per doubling
    res_ok = {}
    res_flip = {}
    for size in (8, 16):
        b = bundle_for(4, size)
        res_ok[size] = flagship_residual(b)
        res_flip[size] = flagship_residual(b, flip_block=2)
    assert res_ok[8] / res_ok[16] > 6.0
    assert res_flip[8] / res_flip[16] < 2.0
    assert res_flip[16] > 5.0 * res_ok[16]


# ---------------------------------------------------------------------------
# scalar curvature of the deformed metric


def test_deformed_scalar_closed_form_order():
    # measured orders 3.59 (n=4) and 3.84 (n=3)
    for n, sizes, cap in ((4, (12, 24), 5e-3), (3, (16, 32), 6e-4)):
        res = {}
        for size in sizes:
            b = bundle_for(n, size, seed=3)
            direct = curvature_bundle(b.g_prime).scal
            res[size] = float(np.max(np.abs(deformed_scalar_closed_form(b) - direct)))
        assert res[sizes[1]] < cap
        assert np.log2(res[sizes[0]] / res[sizes[1]]) > 3.5


def test_scalar_divergence_identity_integral_is_flux_exact():
    # the divergence term telescopes over the periodic grid, so the
    # integral identity holds to roundoff at any resolution
    b = bundle_for(4, 8, seed=3)
    pointwise, residual = scalar_divergence_identity(b)
    scale = float(np.max(np.abs(b.base.scal)))
    assert residual < 1e-12 * scale


def test_scalar_divergence_identity_pointwise_order():
    # measured 1.25e-2 -> 1.10e-3 on the doubling, order 3.5
    res = {}
    for size in (12, 24):
        pw, _ = scalar_divergence_identity(bundle_for(4, size, seed=3))
        res[size] = pw
    assert res[24] < 3e-3
    assert np.log2(res[12] / res[24]) > 3.3


def test_flat_deformed_scalar_integrates_to_zero():
    # flat background: total scalar curvature of g + df (x) df vanishes;
    # discretely the closed form is a pure flux plus terms that vanish
    # with Ricci, so the quadrature is exact to roundoff
    c = torus(4, 16)
    g = flat_metric(c)
    b = deform(g, fourier_scalar(c, amplitude=0.4, seed=9))
    total = integrate(g, deformed_scalar_closed_form(b))
    assert abs(total) < 1e-12


# ---------------------------------------------------------------------------
# norms in the deformed metric


def test_deformed_norm_zero_deformation_matches_riemann_norm():
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.1, seed=3)
    bun = curvature_bundle(g)
    phi = fourier_scalar(c, amplitude=0.5, seed=42)
    assert np.array_equal(
        deformed_norm(bun.W.pair, g, gradient(c, 0.0 * phi)),
        riemann_norm(bun.W.pair, g.inverse),
    )


def test_deformed_norm_monotone_in_deformation_size():
    # the deformed inverse shrinks in the gradient direction, so the norm
    # of a fixed tensor can only decrease as k grows
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.1, seed=3)
    bun = curvature_bundle(g)
    phi = fourier_scalar(c, amplitude=0.5, seed=42)
    prev = deformed_norm(bun.W.pair, g, gradient(c, 0.0 * phi))
    for k in (0.5, 1.0, 2.0):
        cur = deformed_norm(bun.W.pair, g, gradient(c, k * phi))
        assert np.all(cur <= prev + 1e-12)
        prev = cur


def test_deformed_norm_paths_agree():
    # rank-one-updated inverse vs the tangential/radial frame split
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.15, seed=5)
    bun = curvature_bundle(g)
    phi = fourier_scalar(c, amplitude=0.6, seed=11)
    grad = gradient(c, 1.5 * phi)
    a = deformed_norm(bun.W.pair, g, grad)
    b = frame_split_norm(bun.W.pair, g, grad)
    assert np.max(np.abs(a - b)) < 1e-10 * max(float(np.max(a)), 1.0)


# ---------------------------------------------------------------------------
# conformal rescaling of the error tensor


def test_conformal_residual_trivial_factors():
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.1, seed=7)
    assert weyl_error_conformal_residual(g, np.ones(c.shape), 0.8) == 0.0
    assert weyl_error_conformal_residual(g, np.full(c.shape, 2.0), 0.8) == 0.0


def test_conformal_residual_rejects_nonpositive_factor():
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.1, seed=7)
    psi = np.ones(c.shape)
    psi[1, 2, 3, 0] = -0.5
    with pytest.raises(FieldError, match=r"\(1, 2, 3, 0\)"):
        weyl_error_conformal_residual(g, psi, 0.8)


def test_conformal_residual_order():
    # E of (psi g, k psi) equals psi times E of (g, 2k sqrt(psi)); measured
    # 4.7e-5 -> 3.8e-6 on the 12 -> 24 doubling, order 3.64
    res = {}
    for size in (12, 24):
        c = torus(4, size)
        g = fourier_metric(c, amplitude=0.05, seed=7)
        psi = 1.0 + 0.3 * fourier_scalar(c, amplitude=1.0, seed=207)
        res[size] = weyl_error_conformal_residual(g, psi, 0.5)
    assert res[24] < 1e-5
    assert np.log2(res[12] / res[24]) > 3.5


# ---------------------------------------------------------------------------
# the negativity functional


def test_deformation_energy_requires_positive_coupling():
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.1, seed=3)
    phi = fourier_scalar(c, amplitude=0.3, seed=4)
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            deformation_energy(g, phi, t)


def test_deformation_energy_constant_input_is_total_curvature():
    from scalarweyl.conformal import scalar_weyl

    c = torus(4, 10)
    g = fourier_metric(c, amplitude=0.1, seed=3)
    t = 1.5
    en = deformation_energy(g, np.full(c.shape, 0.7), t)
    direct = integrate(g, scalar_weyl(g, t))
    assert en == pytest.approx(direct, rel=1e-12)


def test_deformation_energy_flat_termwise_quadrature():
    # on a flat background only the error-tensor norm and the Hessian
    # correction survive; rebuild both from raw einsums and quadrature
    c = torus(4, 12)
    g = flat_metric(c)
    phi = fourier_scalar(c, amplitude=0.25, seed=17)
    t = 2.0
    b = deform(g, phi)
    norm_e = frame_split_norm(weyl_error(b).pair, g, b.grad)
    ginv = g.inverse
    gup = np.einsum("...ab,...b->...a", ginv, b.grad)
    w = 1.0 + np.einsum("...a,...a->...", b.grad, gup)
    u = np.einsum("...ab,...b->...a", b.hess, gup)
    u2 = np.einsum("...a,...ab,...b->...", u, ginv, u)
    beta = np.einsum("...a,...a->...", u, gup)
    expected = t * integrate(g, norm_e) + (3.0 / 2.0) * integrate(g, u2 / w**2 - beta**2 / w**3)
    got = deformation_energy(g, phi, t)
    assert got == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# E on a sheared flat ball


def _cos4_profile(depth):
    """Radial profile 1 - depth cos^4(pi s / 2) on s < 1, 1 beyond: it dips
    across the whole ball, and its fourth derivative jumps only at s = 1.
    ``radial_fields`` reads nothing but the three callables."""

    def trig(s):
        y = 0.5 * np.pi * np.minimum(s, 1.0)
        return np.cos(y), np.sin(y)

    def value(s):
        c, _ = trig(s)
        return 1.0 - depth * c**4

    def slope(s):
        c, sn = trig(s)
        return 2.0 * np.pi * depth * c**3 * sn

    def second(s):
        c, sn = trig(s)
        return np.pi**2 * depth * (c**4 - 3.0 * c**2 * sn**2)

    return SimpleNamespace(value=value, slope=slope, second=second)


def test_weyl_error_vanishes_on_a_sheared_flat_ball():
    # the graph of a radial function over flat space is rotationally
    # symmetric, hence conformally flat, so W(g') = W(g) = 0 and E == 0: the
    # assumption behind the radial split of the search.  The analytic route
    # measures max|E| <= 1.4e-15, where negating any block free of background
    # curvature gives 1e-3 to 1.5 at 12^4.  make_bump's fall band is 0.09 r wide, under
    # one cell at 20^4 (the stencil route's max|E| grew 0.041 -> 0.086 from
    # 12^4 to 20^4 at r = 2.5), so the stencil order is measured on a dip
    # across the whole ball: 3.5e-3 at 12^4, 1.2e-3 at 16^4 (order 3.66) and
    # 5.5e-4 at 20^4 (order 3.65)
    k, r = 1.0, 2.8
    center = (np.pi,) * 4
    stencil = {}
    for size in (12, 16):
        chart = torus(4, size)
        g = flat_metric(chart)
        base = curvature_bundle(g)
        for profile in (make_bump(0.1, 4), _cos4_profile(0.5)):
            fields = radial_fields(g, (center,), r, profile)
            f = k * fields.psi
            exact = exact_deformation(base, k * fields.grad_psi, k * fields.hess_psi)
            assert np.max(np.abs(weyl_error(exact).pair)) <= 1e-13
        stencil[size] = np.max(np.abs(weyl_error(deform(g, f)).pair))
    assert np.log(stencil[12] / stencil[16]) / np.log(16 / 12) >= 3.5
