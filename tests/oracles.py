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
"""

from __future__ import annotations

import numpy as np

from scalarweyl.construct import RadialFields
from scalarweyl.curvature import CurvatureBundle
from scalarweyl.deformation import deform, deformed_norm, weyl_error
from scalarweyl.grid import MetricField, deriv, gradient, integrate


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
        w_norm = deformed_norm(base.W, g, eta, grad=grad_eta)
        e_norm = deformed_norm(weyl_error(sheared), g, eta, grad=grad_eta)
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
