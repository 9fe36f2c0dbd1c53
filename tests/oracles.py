"""Independent routes kept in the tests as oracles of the ones in ``src/``.

``phi_expansion`` is the grid route for the certifying integral.
``construct.search_parameters`` evaluates the certifying integral of a config
by the exact split on flat balls: a background term plus one 1-D radial
quadrature per ball.  The expansion here assembles the same integral on the
whole grid instead, so it converges to the radial value as the grid is
refined and checks it independently of the split.

``einsum_flux_laplacian`` is the flux-form Laplacian with the flux raised
point by point through g^{-1}; ``grid.flux_laplacian``, which forms the
coefficient sqrt(det g) g^{ab} once, must agree with it to roundoff.
``divergence_total`` is the discrete divergence theorem on the same flux
form.

The dense (..., n, n, n, n) form of curvature-type tensors lives here too:
``src/`` stores them only as pair matrices, and the tests convert to and
from the dense layout to check the pair kernels against brute-force
contractions and the four curvature symmetries.
"""

from __future__ import annotations

import numpy as np

from scalarweyl.construct import RadialFields
from scalarweyl.curvature import CurvatureBundle
from scalarweyl.deformation import deform, deformed_norm, weyl_error
from scalarweyl.grid import FluxForm, MetricField, _flux_divergence, deriv, gradient, integrate
from scalarweyl.tensor import _pair_lookup, _quad_entries, pair_indices


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
    psi, f = fields.psi, fields.f

    psi_up = np.einsum("...ab,...b->...a", inv, fields.grad_psi)
    s2 = np.einsum("...a,...a->...", fields.grad_psi, psi_up)
    dhat = psi / k**2 + s2

    lap_f = np.einsum("...ab,...ab->...", inv, fields.hess_f)

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
        sheared = deform(g, eta, grad=grad_eta, hess=hess_eta, base=base)
        w_norm = deformed_norm(base.W.pair, g, eta, grad=grad_eta)
        e_norm = deformed_norm(weyl_error(sheared).pair, g, eta, grad=grad_eta)
        scal_block = scal_block + t * w_norm * f
        error_term = t * integrate(chart, e_norm * f, dens)
    else:
        error_term = 0.0

    hess_pp = np.einsum("...ab,...a,...b->...", fields.hess_f, psi_up, psi_up)
    grad_fp = np.einsum("...a,...a->...", fields.grad_f, psi_up)

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



def einsum_flux_laplacian(g: MetricField, u: np.ndarray) -> np.ndarray:
    """(1/sqrt(det g)) sum_a D_a(sqrt(det g) g^{ab} D_b u), raised per point."""
    chart = g.chart
    du = gradient(chart, u)
    flux = g.sqrt_det[..., None] * np.einsum("...ab,...b->...a", g.inverse, du)
    out = deriv(chart, flux[..., 0], 0)
    for a in range(1, chart.n):
        out += deriv(chart, flux[..., a], a)
    return out / g.sqrt_det


def divergence_total(X: np.ndarray, g: MetricField) -> float:
    """Integral of the metric divergence of the raised covector field ``X``,
    a (*sizes, n) array.

    Computed in flux form, ``sum_a D_a(sqrt(det g) * g^{ab} X_b)`` summed over
    the grid; by periodic telescoping of the stencil the result is zero to
    roundoff for any field.
    """
    chart = g.chart
    components = [X[..., b] for b in range(chart.n)]
    return float(np.sum(_flux_divergence(FluxForm.of(g), components))) * chart.cell_volume


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
