"""Curvature of a metric field: Christoffel, Riemann, Ricci, scalar, Weyl.

Index conventions.  The (1,3) tensor follows
``R^r_{s,mu,nu} = d_mu Gamma^r_{nu s} - d_nu Gamma^r_{mu s} + ...`` and is
lowered on the first slot, so the stored (0,4) tensor is antisymmetric in
slots (1,2) and (3,4), the Ricci tensor is the 1-3 trace, and round spheres
come out with positive scalar curvature.

Discretely the (1,3) first-Bianchi sum cancels to roundoff (the stencils
commute exactly and the Gamma terms cancel algebraically), while the pair
antisymmetry after lowering and the pair exchange hold only to truncation
order; assembly therefore projects onto the fully symmetric subspace, which
downstream Weyl norms need.

Assembly is blocked over the derivative pair (mu < nu) to keep peak memory
near one dense (n, n) field instead of the full n^4 tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Chart, MetricField, deriv, gradient
from .tensor import (
    Riem4Field,
    bianchi_project,
    kulkarni_nomizu,
    pair_indices,
    riemann_norm,
    trace_13,
)

__all__ = [
    "CurvatureBundle",
    "christoffel",
    "riemann",
    "ricci_scalar",
    "weyl",
    "decomposition_residual",
    "curvature_bundle",
    "hessian",
]


def christoffel(g: MetricField) -> np.ndarray:
    """Levi-Civita symbols ``Gamma[..., c, a, b]``, symmetric in (a, b)."""
    chart = g.chart
    n = chart.n
    dense = g.dense
    dg = np.stack([deriv(chart, dense, a) for a in range(n)], axis=-1)
    inv = g.inverse
    gamma = np.empty(chart.shape + (n, n, n))
    for a in range(n):
        for b in range(a, n):
            # lower-index bracket: d_a g_db + d_b g_da - d_d g_ab
            brk = dg[..., b, :, a] + dg[..., a, :, b] - dg[..., a, b, :]
            val = 0.5 * np.einsum("...cd,...d->...c", inv, brk)
            gamma[..., a, b] = val
            if b != a:
                gamma[..., b, a] = val
    return gamma


def riemann(g: MetricField, gamma: np.ndarray | None = None, project=True) -> Riem4Field:
    """Lowered (0,4) curvature tensor of ``g`` in pair storage."""
    chart = g.chart
    n = chart.n
    if gamma is None:
        gamma = christoffel(g)
    pairs = pair_indices(n)
    m = len(pairs)
    dense = g.dense
    mat = np.empty(chart.shape + (m, m))
    for q, (mu, nu) in enumerate(pairs):
        gm = gamma[..., mu, :]  # Gamma^r_{mu l}
        gn = gamma[..., nu, :]
        r13 = deriv(chart, gn, mu) - deriv(chart, gm, nu)
        r13 += np.matmul(gm, gn) - np.matmul(gn, gm)
        low = np.matmul(dense, r13)
        # antisymmetric part of the first pair goes into column q
        for p, (a, b) in enumerate(pairs):
            mat[..., p, q] = 0.5 * (low[..., a, b] - low[..., b, a])
    if project:
        mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
        mat = bianchi_project(mat, n)
    return Riem4Field(chart, mat)


def ricci_scalar(riem: Riem4Field, g: MetricField) -> tuple[np.ndarray, np.ndarray]:
    """Ricci tensor (dense symmetric) and scalar curvature field."""
    inv = g.inverse
    ric = trace_13(riem.pair, inv, n=g.chart.n)
    scal = np.einsum("...jt,...jt->...", inv, ric)
    return ric, scal


def _schouten(ric: np.ndarray, scal: np.ndarray, g: MetricField) -> np.ndarray:
    """Schouten tensor ``P = (Ric - R g / (2 (n - 1))) / (n - 2)``."""
    n = g.chart.n
    return (ric - (scal / (2.0 * (n - 1)))[..., None, None] * g.dense) / (n - 2)


def weyl(riem: Riem4Field, ric: np.ndarray, scal: np.ndarray, g: MetricField) -> Riem4Field:
    """Trace-free part of the curvature tensor, ``W = Riem - KN(P, g)`` with
    the Schouten tensor ``P``."""
    return Riem4Field(g.chart, riem.pair - kulkarni_nomizu(_schouten(ric, scal, g), g.dense))


@dataclass
class CurvatureBundle:
    """Curvature stack of one metric, computed once and passed around."""

    g: MetricField
    gamma: np.ndarray
    riem: Riem4Field
    ric: np.ndarray
    scal: np.ndarray
    W: Riem4Field

    @property
    def chart(self) -> Chart:
        return self.g.chart


def curvature_bundle(g: MetricField) -> CurvatureBundle:
    gamma = christoffel(g)
    riem_ = riemann(g, gamma)
    ric, scal = ricci_scalar(riem_, g)
    return CurvatureBundle(g, gamma, riem_, ric, scal, weyl(riem_, ric, scal, g))


def decomposition_residual(g: MetricField) -> float:
    """Max relative deviation of Riem from its recomposition via (W, Ric, R).

    Zero to roundoff by construction; a wiring check for the trace and
    product plumbing.
    """
    bundle = curvature_bundle(g)
    recomposed = bundle.W.pair + kulkarni_nomizu(_schouten(bundle.ric, bundle.scal, g), g.dense)
    diff = riemann_norm(Riem4Field(g.chart, recomposed - bundle.riem.pair), g)
    scale = max(float(np.max(riemann_norm(bundle.riem, g))), 1e-300)
    return float(np.max(diff)) / scale


def hessian(
    chart: Chart,
    gamma: np.ndarray,
    u: np.ndarray,
    grad: np.ndarray | None = None,
) -> np.ndarray:
    """Covariant Hessian ``u_{;ij} = d_i d_j u - Gamma^k_{ij} d_k u``.

    The composed first-derivative stencils commute, so the result is exactly
    symmetric.  Pass ``grad`` to substitute analytic first derivatives.
    """
    n = chart.n
    if grad is None:
        grad = gradient(chart, u)
    out = np.empty(chart.shape + (n, n))
    for i in range(n):
        for j in range(i, n):
            val = deriv(chart, grad[..., j], i)
            out[..., i, j] = val
            if j != i:
                out[..., j, i] = val
    out -= np.einsum("...kij,...k->...ij", gamma, grad)
    return out
