"""Independent routes kept in the tests as oracles of the ones in ``src/``.

``phi_expansion`` is the grid route for the certifying integral.
``construct.search_parameters`` evaluates the certifying integral of a config
by the exact split on flat balls: a background term plus one 1-D radial
quadrature per ball.  The expansion here assembles the same integral on the
whole grid instead, so it converges to the radial value as the grid is
refined and checks it independently of the split.  It reads only the
multiplier psi of ``construct.radial_fields`` and derives the volume weight
f = psi^{(n-2)/2} and its derivatives from it by the chain rule.

``einsum_flux_laplacian`` is the flux-form Laplacian with the flux raised
point by point through g^{-1}; ``grid.flux_laplacian``, which forms the
coefficient sqrt(det g) g^{ab} once, must agree with it to roundoff.
``divergence_total`` is the discrete divergence theorem on the same flux
form.  ``whole_field_flux_laplacian`` is ``grid.flux_laplacian`` with
its pointwise step on the whole grid, one flux component at a time, the
serial oracle of its split flux sums, which must be bit-identical to it.

The ``whole_field_*`` functions are the deformation layer's closed forms
run over all planes at once, each pointwise step on the whole grid: the
oracle of the slab loops of ``deformation`` and of
``construct._test_energy_bound``, which must be bit-identical to them.
They read the block table of ``deformation``, form the factor S by its
closed form from W and the Schouten tensor (``deformation._riemann_vv``,
which ``tests/test_deformation.py`` checks against the Riemann route), and
measure norms with the whole-field ``deformed_norm``.  ``exact_deformation`` builds the
deformation bundle from closed-form first and covariant second derivatives,
so closed-form test fields get an exact one; ``deformed_inverse`` is the
closed-form inverse of g + df (x) df that ``deformed_norm`` contracts with.

``whole_riemann`` is ``curvature.riemann`` on all planes at once, from
the whole-grid Christoffel symbols cut as one window; ``src/`` only ever
forms Riemann slab by slab from a rolling window, and keeps none of it.

``conformal_energy`` is the integral certificate
int F u^2 dV + a_n int |grad u|^2 dV, the quadratic form of the operator
L = -a_n Lap + F written with gradients instead of the flux-form
Laplacian; by exact summation by parts on the periodic grid it equals
int u L u dV to roundoff.

``metric_from_dense`` builds a metric from dense (n, n) components after
checking their symmetry; ``src/`` takes only the packed components.
``linalg_inverse_det`` is the per-point LAPACK inverse and determinant of
the dense metric, the oracle of ``MetricField``'s batched LDL^T, and
``fourier_sum`` samples each Fourier term with its own full-grid sine, the
oracle of the presets' separable sampling.

The dense (..., n, n, n, n) form of curvature-type tensors lives here too:
``src/`` stores them only as pair matrices, and the tests convert to and
from the dense layout to check the pair kernels against brute-force
contractions and the four curvature symmetries.

``pointmajor_kulkarni_nomizu`` and ``pointmajor_trace_13`` are the per-entry
kernels of ``tensor`` on the point-major layout, each entry formed over the
whole field from strided component views with no blocks: the same
multiply/add sequence per entry, so the blocked component-major kernels of
``src/`` must be bit-identical to them.
"""

from __future__ import annotations

import numpy as np

from scalarweyl import curvature, grid
from scalarweyl.conformal import ConformalParams, scalar_weyl
from scalarweyl.construct import RadialFields
from scalarweyl.curvature import CurvatureBundle, _schouten, christoffel, riemann
from scalarweyl.deformation import (
    BLOCK_COUNT,
    DeformationBundle,
    _block_table,
    _downdate,
    _raised,
    _riemann_vv,
    deform,
    deformed_norm,
    weyl_error,
)
from scalarweyl.grid import (
    FieldError,
    FluxForm,
    MetricField,
    deriv,
    gradient,
    integrate,
    sym2_pack,
    window,
)
from scalarweyl.tensor import (
    _pair_lookup,
    _quad_entries,
    _trace_terms,
    kulkarni_nomizu,
    pair_indices,
)


def slab_parts(chart) -> int:
    """Parts the slab loop runs on ``chart``: a layer called once per part
    is called this many times per loop."""
    return sum(len(grid._parts(planes)) for planes in curvature._slabs(chart))


def phi_expansion(
    g: MetricField,
    t: float,
    k: float,
    fields: RadialFields,
    base: CurvatureBundle,
    include_weyl: bool = True,
) -> float:
    """Certifying integral assembled on the background metric.

    Every block comes from pushing the deformation-energy functional of the
    rescaled-and-sheared metric through the conformal transformation laws of
    scalar curvature, Ricci, Hessian, and the quartic error tensor.  The
    curvature norms are taken against the background sheared by
    d(2k sqrt(psi)): rescaling that shear by psi reproduces the deformed
    metric, and the norm of a curvature-type tensor drops two powers of the
    multiplier while the tensors themselves gain one, leaving single powers
    of the volume weight f in front of both norm blocks.

    ``include_weyl=False`` drops the two curvature-norm blocks, leaving the
    scalar-curvature functional (the t -> 0 limit, an upper bound for any
    t <= 0 since t |W| <= 0 only helps).
    """
    chart = g.chart
    n = chart.n
    inv = g.inverse
    dens = g.sqrt_det
    psi = fields.psi
    # the volume weight f = psi^{(n-2)/2} (the profile itself) by the chain rule
    e = 0.5 * (n - 2.0)
    f = psi**e
    grad_f = (e * psi ** (e - 1.0))[..., None] * fields.grad_psi
    hess_f = (e * psi ** (e - 1.0))[..., None, None] * fields.hess_psi + (
        e * (e - 1.0) * psi ** (e - 2.0)
    )[..., None, None] * (fields.grad_psi[..., :, None] * fields.grad_psi[..., None, :])

    psi_up = np.einsum("...ab,...b->...a", inv, fields.grad_psi)
    s2 = np.einsum("...a,...a->...", fields.grad_psi, psi_up)
    dhat = psi / k**2 + s2

    lap_f = np.einsum("...ab,...ab->...", inv, hess_f)

    ric_pp = np.einsum("...ab,...a,...b->...", base.ric, psi_up, psi_up)
    scal_block = base.scal * f - ric_pp / dhat * f

    if include_weyl:
        root = np.sqrt(psi)
        eta = 2.0 * k * root
        grad_eta = (k / root)[..., None] * fields.grad_psi
        hess_eta = (k / root)[..., None, None] * fields.hess_psi - (
            0.5 * k / root**3
        )[..., None, None] * (
            fields.grad_psi[..., :, None] * fields.grad_psi[..., None, :]
        )
        sheared = exact_deformation(base, grad_eta, hess_eta)
        w_norm = deformed_norm(base.W.pair, g, grad_eta)
        e_norm = deformed_norm(weyl_error(sheared).pair, g, grad_eta)
        scal_block = scal_block + t * w_norm * f
        error_term = t * integrate(chart, e_norm * f, dens)
    else:
        error_term = 0.0

    hess_pp = np.einsum("...ab,...a,...b->...", hess_f, psi_up, psi_up)
    grad_fp = np.einsum("...a,...a->...", grad_f, psi_up)

    hp = np.einsum("...ab,...b->...a", fields.hess_psi, psi_up)
    hp2 = np.einsum("...a,...ab,...b->...", hp, inv, hp)
    beta = np.einsum("...a,...a->...", hp, psi_up)

    cnn = (n - 1.0) / (n - 2.0)
    total = (
        integrate(chart, scal_block, dens)
        + error_term
        + integrate(chart, hess_pp / dhat, dens)
        + (0.5 * (n - 1.0) / k**2) * integrate(chart, grad_fp / dhat, dens)
        - (1.0 / (k**2 * (n - 2.0))) * integrate(chart, psi * lap_f / dhat, dens)
        + cnn * integrate(chart, (hp2 / dhat**2 - beta**2 / dhat**3) * f, dens)
        + (cnn / k**2)
        * integrate(chart, (0.25 * s2**3 / psi - s2 * beta) / dhat**3 * f, dens)
    )
    return float(total)



# ---------------------------------------------------------------------------
# the deformation layer on the whole grid


def exact_deformation(
    base: CurvatureBundle, grad: np.ndarray, hess: np.ndarray
) -> DeformationBundle:
    """The deformation bundle of g + df (x) df over the curvature stack
    ``base`` of g, from the first derivatives ``grad`` of f and its
    covariant Hessian ``hess``, which may both be analytic."""
    return DeformationBundle(base=base, grad=grad, hess=hess)


def deformed_inverse(g: MetricField, grad: np.ndarray) -> np.ndarray:
    """Closed-form inverse of g + df (x) df: the rank-one downdate
    g^{ab} - f^a f^b / (1 + |grad f|^2)."""
    return _downdate(g.inverse, *_raised(g.inverse, grad))


def whole_field_ingredients(bundle: DeformationBundle) -> dict:
    """Scalar ingredients of the deformation closed forms on every point."""
    inv = bundle.base.g.inverse
    h = bundle.hess
    fup, w = _raised(inv, bundle.grad)
    lap = np.einsum("...ab,...ab->...", inv, h)
    hup = np.matmul(h, inv)
    h2 = np.einsum("...ab,...ab->...", hup, np.matmul(inv, h))
    u = np.einsum("...ab,...b->...a", h, fup)
    beta = np.einsum("...a,...a->...", u, fup)
    u2 = np.einsum("...a,...ab,...b->...", u, inv, u)
    return {
        "fup": fup,
        "lap": lap,
        "u": u,
        "beta": beta,
        "u2": u2,
        "rvv": np.einsum("...ab,...a,...b->...", bundle.base.ric, fup, fup),
        "c7": lap**2 - h2,
        "c10": lap * beta - u2,
        "w": w,
        "scal": bundle.base.scal,
    }


def whole_field_weyl_error(
    bundle: DeformationBundle, include=None, flip_block: int | None = None
) -> np.ndarray:
    """Pair matrices of the error tensor: the fifteen-block table on the
    whole grid, one Kulkarni-Nomizu product per second factor.

    ``include`` restricts assembly to a subset of the blocks (1-based,
    display order) for isolation tests; ``flip_block`` negates one block, as
    in ``weyl_error``.
    """
    ing = whole_field_ingredients(bundle)
    g, h, grad, u = bundle.base.g, bundle.hess, bundle.grad, ing["u"]
    factors = {
        "gdense": g.dense,
        "F2": grad[..., :, None] * grad[..., None, :],
        "h": h,
        "S": _riemann_vv(
            bundle.base.W.pair,
            _schouten(bundle.base.ric, bundle.base.scal, g.dense),
            g.dense,
            grad,
            ing["fup"],
        ),
        "Q": ing["lap"][..., None, None] * h - np.matmul(np.matmul(h, g.inverse), h),
        "V": ing["beta"][..., None, None] * h - u[..., :, None] * u[..., None, :],
        "ric": bundle.base.ric,
    }
    picked = set(range(1, BLOCK_COUNT + 1)) if include is None else set(include)
    firsts: dict[str, np.ndarray] = {}
    for idx, (coeff, a, b) in enumerate(_block_table(ing, bundle.n), start=1):
        if idx in picked:
            c = -coeff if idx == flip_block else coeff
            term = c[..., None, None] * factors[a]
            firsts[b] = firsts[b] + term if b in firsts else term
    first, *rest = firsts
    mat = kulkarni_nomizu(firsts[first], factors[first])
    for b in rest:
        mat += kulkarni_nomizu(firsts[b], factors[b])
    return mat


def whole_field_scalar_closed_form(bundle: DeformationBundle) -> np.ndarray:
    """Four-term closed form of the deformed scalar curvature."""
    ing = whole_field_ingredients(bundle)
    w = ing["w"]
    return ing["scal"] - 2.0 * ing["rvv"] / w + ing["c7"] / w - 2.0 * ing["c10"] / w**2


def _whole_field_ricci_hessian(bundle: DeformationBundle, ing: dict) -> tuple[float, float]:
    chart, w, dens = bundle.chart, ing["w"], bundle.base.g.sqrt_det
    ricci = -integrate(chart, ing["rvv"] / w, dens)
    hess = ((bundle.n - 1.0) / (bundle.n - 2.0)) * integrate(
        chart, ing["u2"] / w**2 - ing["beta"] ** 2 / w**3, dens
    )
    return ricci, hess


def whole_field_energy(
    g: MetricField, phi, t: float, base: CurvatureBundle | None = None
) -> float:
    """``deformation_energy`` with each norm formed by ``deformed_norm``."""
    chart = g.chart
    bundle = deform(g, phi, base=base)
    dens = bundle.base.g.sqrt_det
    ing = whole_field_ingredients(bundle)
    wnorm = deformed_norm(bundle.base.W.pair, g, bundle.grad)
    enorm = deformed_norm(whole_field_weyl_error(bundle), g, bundle.grad)
    i1 = integrate(chart, bundle.base.scal + t * wnorm, dens)
    i2 = t * integrate(chart, enorm, dens)
    i3, i4 = _whole_field_ricci_hessian(bundle, ing)
    return i1 + i2 + i3 + i4


def whole_field_energy_bound(g: MetricField, t: float, k: float, fields: RadialFields) -> float:
    """``construct._test_energy_bound``'s certificate on the whole grid."""
    chart = g.chart
    scaled = MetricField(chart, fields.psi[..., None] * g.packed)
    bundle = deform(scaled, k * fields.psi, grad=k * fields.grad_psi)
    dens = scaled.sqrt_det
    ing = whole_field_ingredients(bundle)
    snorm = deformed_norm(
        bundle.base.W.pair + whole_field_weyl_error(bundle), scaled, bundle.grad
    )
    ricci, hess = _whole_field_ricci_hessian(bundle, ing)
    scal = integrate(chart, bundle.base.scal, dens)
    return float(scal + t * integrate(chart, snorm, dens) + (ricci + hess))


def einsum_flux_laplacian(g: MetricField, u: np.ndarray) -> np.ndarray:
    """(1/sqrt(det g)) sum_a D_a(sqrt(det g) g^{ab} D_b u), raised per point."""
    chart = g.chart
    du = gradient(chart, u)
    flux = g.sqrt_det[..., None] * np.einsum("...ab,...b->...a", g.inverse, du)
    out = deriv(chart, flux[..., 0], 0)
    for a in range(1, chart.n):
        out += deriv(chart, flux[..., a], a)
    return out / g.sqrt_det


def flux_divergence(form: FluxForm, vec: list[np.ndarray]) -> np.ndarray:
    """sum_a D_a(sum_b sqrt(det g) g^{ab} vec_b) on the whole grid, one flux
    component at a time."""
    chart = form.chart
    flux = np.empty(chart.sizes)
    term = np.empty(chart.sizes)
    out = np.zeros(chart.sizes)
    for a in range(chart.n):
        np.multiply(form.component(a, 0), vec[0], out=flux)
        for b in range(1, chart.n):
            flux += np.multiply(form.component(a, b), vec[b], out=term)
        out += deriv(chart, flux, a)
    return out


def whole_field_flux_laplacian(form: FluxForm, u: np.ndarray) -> np.ndarray:
    """``grid.flux_laplacian`` on all planes at once: the n derivative-matrix
    products of u, then per flux component its sum over b of the scaled
    coefficient times du_b, its product back added to the result, and one
    division.  Each point takes the steps of the split apply in the same
    order, so the two are bit-identical."""
    chart = form.chart
    axes = grid._apply_axes(chart)
    u = np.ascontiguousarray(np.broadcast_to(u, chart.sizes))
    du = [grid._axis_product(M, u, b, np.empty(chart.sizes)) for b, (M, _) in enumerate(axes)]
    flux = np.empty(chart.sizes)
    term = np.empty(chart.sizes)
    out = np.zeros(chart.sizes)
    for a, (M, _) in enumerate(axes):
        coef = [form.coefficient[grid._slot(chart.n, min(a, b), max(a, b))] for b in range(chart.n)]
        np.multiply(coef[0], du[0], out=flux)
        for b in range(1, chart.n):
            flux += np.multiply(coef[b], du[b], out=term)
        out += grid._axis_product(M, flux, a, np.empty(chart.sizes))
    out /= form.sqrt_det
    return out


def divergence_total(X: np.ndarray, g: MetricField) -> float:
    """Integral of the metric divergence of the raised covector field ``X``,
    a (*sizes, n) array.

    Computed in flux form, ``sum_a D_a(sqrt(det g) * g^{ab} X_b)`` summed over
    the grid; by periodic telescoping of the stencil the result is zero to
    roundoff for any field.
    """
    chart = g.chart
    components = [X[..., b] for b in range(chart.n)]
    return float(np.sum(flux_divergence(FluxForm.of(g), components))) * chart.cell_volume


def whole_riemann(g: MetricField) -> np.ndarray:
    """Riemann pair matrices of ``g`` on all planes, from one window of the
    whole-grid Christoffel symbols."""
    return riemann(g, window(g.chart, christoffel(g)), slice(None))


def conformal_energy(g: MetricField, t: float, u: np.ndarray, coefficient=None) -> float:
    """Integral certificate int F u^2 dV + a_n int |grad u|^2 dV.

    Negative value implies the conformal class of g contains a metric with
    F == -1.  Central differences satisfy exact summation by parts on the
    periodic grid, so this equals the operator energy int u L u dV to
    roundoff, not merely to discretization order.
    """
    chart = g.chart
    params = ConformalParams(t, chart.n)
    u = np.asarray(u, dtype=float)
    if not np.min(u) > 0.0:
        raise FieldError(f"certificate requires u > 0, min {float(np.min(u)):.3e}")
    F = coefficient if coefficient is not None else scalar_weyl(g, t)
    du = gradient(chart, u)
    grad2 = np.einsum("...ab,...a,...b->...", g.inverse, du, du)
    return integrate(chart, F * u * u + params.a_n * grad2, g.sqrt_det)


def metric_from_dense(chart, dense: np.ndarray) -> MetricField:
    """Metric from dense (*sizes, n, n) components, symmetric to 1e-12."""
    dense = np.asarray(dense, dtype=float)
    skew = np.max(np.abs(dense - np.swapaxes(dense, -1, -2)))
    scale = max(np.max(np.abs(dense)), 1e-300)
    if skew > 1e-12 * scale:
        raise FieldError(
            f"dense input is not symmetric: max skew {skew:.3e} vs scale {scale:.3e}"
        )
    return MetricField(chart, sym2_pack(dense, chart.n))


def linalg_inverse_det(g: MetricField) -> tuple[np.ndarray, np.ndarray]:
    """g^{-1} and det g by per-point LAPACK calls on the dense metric."""
    return np.linalg.inv(g.dense), np.linalg.det(g.dense)


def fourier_sum(chart, modes, coeffs, phases) -> np.ndarray:
    """sum_t c_t sin(k_t . x + phase_t) with k_t = 2 pi m_t / L, term by term."""
    xs = chart.mesh()
    out = np.zeros(chart.shape)
    for mode, c, ph in zip(modes, coeffs, phases):
        arg = ph
        for m, length, x in zip(mode, chart.lengths, xs):
            arg = arg + (2.0 * np.pi * m / length) * x
        out += c * np.sin(arg)
    return out


# ---------------------------------------------------------------------------
# dense curvature-type tensors


def pair_from_dense(dense: np.ndarray, n: int) -> np.ndarray:
    """Project dense (..., n, n, n, n) onto pair-matrix storage.

    Exact for tensors with both pair antisymmetries; combined with
    ``symmetrize_exchange`` and ``tensor.bianchi_project`` this realizes the
    orthogonal projection onto curvature-type tensors.
    """
    pairs = pair_indices(n)
    m = len(pairs)
    out = np.empty(dense.shape[:-4] + (m, m), dtype=dense.dtype)
    for p, (a, b) in enumerate(pairs):
        for q, (c, d) in enumerate(pairs):
            out[..., p, q] = 0.25 * (
                dense[..., a, b, c, d]
                - dense[..., b, a, c, d]
                - dense[..., a, b, d, c]
                + dense[..., b, a, d, c]
            )
    return out


def dense_from_pair(mat: np.ndarray, n: int) -> np.ndarray:
    """Expand pair-matrix storage to the dense (..., n, n, n, n) tensor."""
    pidx, sgn = _pair_lookup(n)
    # sgn vanishes on the diagonal, which zeroes the entries with a == b or c == d
    return (sgn[:, :, None, None] * sgn[None, None]) * mat[
        ..., pidx[:, :, None, None], pidx[None, None]
    ]


def symmetrize_exchange(mat: np.ndarray) -> np.ndarray:
    """Average pair matrices over the pair-exchange symmetry."""
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def bianchi_residual(mat: np.ndarray, n: int) -> np.ndarray:
    """Max first-Bianchi violation of pair matrices over the independent
    quadruples."""
    worst = np.zeros(mat.shape[:-2])
    for (pq1, pq2, pq3) in _quad_entries(n):
        omega = mat[..., pq1[0], pq1[1]] - mat[..., pq2[0], pq2[1]] + mat[..., pq3[0], pq3[1]]
        worst = np.maximum(worst, np.abs(omega))
    return worst


def pointmajor_kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tensor.kulkarni_nomizu`` entry by entry on strided component views."""
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    pairs = pair_indices(A.shape[-1])
    m = len(pairs)
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = np.broadcast_to(A, lead + A.shape[-2:])
    B = np.broadcast_to(B, lead + B.shape[-2:])
    out = np.empty(lead + (m, m))
    v, w = np.empty(lead), np.empty(lead)
    for p, (i, j) in enumerate(pairs):
        for q in range(p, m):
            k, t = pairs[q]
            np.multiply(A[..., i, k], B[..., j, t], out=v)
            v += np.multiply(A[..., j, t], B[..., i, k], out=w)
            v -= np.multiply(A[..., i, t], B[..., j, k], out=w)
            v -= np.multiply(A[..., j, k], B[..., i, t], out=w)
            out[..., p, q] = v
            out[..., q, p] = v
    return out


def pointmajor_trace_13(mat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """``tensor.trace_13`` entry by entry on strided component views."""
    inv = np.asarray(inv, dtype=float)
    n = inv.shape[-1]
    lead = np.broadcast_shapes(mat.shape[:-2], inv.shape[:-2])
    M = np.broadcast_to(mat, lead + mat.shape[-2:])
    G = np.broadcast_to(inv, lead + inv.shape[-2:])
    out = np.empty(lead + (n, n))
    a, w = np.empty(lead), np.empty(lead)
    for (j, t), terms in _trace_terms(n).items():
        a.fill(0.0)
        for i, k, p, q, positive in terms:
            np.multiply(G[..., i, k], M[..., p, q], out=w)
            if positive:
                a += w
            else:
                a -= w
        out[..., j, t] = a
        out[..., t, j] = a
    return out


def riemann_symmetry_report(dense: np.ndarray) -> dict:
    """Violations of the four curvature-tensor symmetries of a dense
    (..., n, n, n, n) tensor, and the verdict relative to its largest entry."""
    lead = tuple(range(dense.ndim - 4))

    def worst(x: np.ndarray) -> float:
        return float(np.max(np.abs(x)))

    def perm(*axes: int) -> np.ndarray:
        return np.transpose(dense, lead + axes)

    report = {
        "antisym_first_pair": worst(dense + np.swapaxes(dense, -4, -3)),
        "antisym_second_pair": worst(dense + np.swapaxes(dense, -2, -1)),
        "pair_exchange": worst(dense - perm(-2, -1, -4, -3)),
        "first_bianchi": worst(dense + perm(-4, -2, -1, -3) + perm(-4, -1, -3, -2)),
        "scale": max(float(np.max(np.abs(dense))), 1e-300),
    }
    report["max_violation"] = max(
        report[k]
        for k in ("antisym_first_pair", "antisym_second_pair", "pair_exchange", "first_bianchi")
    )
    report["ok"] = report["max_violation"] <= 1e-9 * report["scale"]
    return report
