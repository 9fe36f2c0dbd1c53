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

The Christoffel symbols come from the derivatives of the packed metric
(n (n + 1) / 2 components): three whole-field gathers on the point-major
(points, components) view form the lowered bracket for every lower index
and every packed pair (a <= b), one batched (n x n) . (n x P) product raises
the index, and one more gather expands the packed pairs to (a, b).

Riemann assembly is blocked over the derivative pair (mu < nu) to keep peak
memory near one dense (n, n) field instead of the full n^4 tensor.  The
antisymmetric part of each lowered (n, n) field is two gathers at the pair
tables; it is stored as row q, which the exchange average makes the same as
column q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Chart, MetricField, deriv, gradient, sym2_pack_indices
from .tensor import (
    Riem4Field,
    bianchi_project,
    kulkarni_nomizu,
    pair_indices,
    trace_13,
)

__all__ = [
    "CurvatureBundle",
    "christoffel",
    "riemann",
    "ricci_scalar",
    "weyl",
    "curvature_bundle",
    "hessian",
]


@lru_cache(maxsize=None)
def _christoffel_tables(n: int):
    """Gather tables on the flattened packed-derivative field.

    ``dg[..., c, e]`` is ``d_e`` of packed component ``c``, flattened to
    column ``c * n + e``.  Column ``d * P + q`` of the bracket, for packed
    pair ``q = (a, b)``, is ``d_a g_db + d_b g_da - d_d g_ab``, gathered as
    ``plus_a + plus_b - minus``.  ``expand`` maps ``(c, a, b)`` to column
    ``c * P + slot[a, b]`` of the raised bracket.
    """
    pack = sym2_pack_indices(n)
    slot = np.empty((n, n), dtype=np.intp)
    for q, (a, b) in enumerate(pack):
        slot[a, b] = slot[b, a] = q
    rows = [(d, a, b) for d in range(n) for a, b in pack]
    plus_a = np.array([slot[d, b] * n + a for d, a, b in rows])
    plus_b = np.array([slot[d, a] * n + b for d, a, b in rows])
    minus = np.array([slot[a, b] * n + d for d, a, b in rows])
    expand = (np.arange(n)[:, None, None] * len(pack) + slot).ravel()
    return plus_a, plus_b, minus, expand


def christoffel(g: MetricField) -> np.ndarray:
    """Levi-Civita symbols ``Gamma[..., c, a, b]``, symmetric in (a, b)."""
    chart = g.chart
    n = chart.n
    npack = g.packed.shape[-1]
    dg = np.empty(chart.shape + (npack, n))
    for e in range(n):
        dg[..., e] = deriv(chart, g.packed, e)
    flat = dg.reshape(-1, npack * n)
    plus_a, plus_b, minus, expand = _christoffel_tables(n)
    # the tables hold valid columns only, so "clip" skips the bounds check
    brk = np.take(flat, plus_a, axis=1, mode="clip")
    tmp = np.take(flat, plus_b, axis=1, mode="clip")
    brk += tmp
    brk -= np.take(flat, minus, axis=1, out=tmp, mode="clip")
    del dg, flat, tmp
    raised = np.matmul(0.5 * g.inverse.reshape(-1, n, n), brk.reshape(-1, n, npack))
    del brk
    gamma = np.take(raised.reshape(-1, n * npack), expand, axis=1, mode="clip")
    return gamma.reshape(chart.shape + (n, n, n))


@lru_cache(maxsize=None)
def _pair_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (n * n) positions of ``(a, b)`` and ``(b, a)`` for each pair."""
    pairs = pair_indices(n)
    return (
        np.array([a * n + b for a, b in pairs]),
        np.array([b * n + a for a, b in pairs]),
    )


def riemann(g: MetricField, gamma: np.ndarray | None = None) -> Riem4Field:
    """Lowered (0,4) curvature tensor of ``g`` in pair storage."""
    chart = g.chart
    n = chart.n
    if gamma is None:
        gamma = christoffel(g)
    pairs = pair_indices(n)
    m = len(pairs)
    ab, ba = _pair_gather(n)
    dense = g.dense
    # scratch reused by every pair (two (n, n) fields and one row), and
    # the rows of all pairs
    prod = np.empty(chart.shape + (n, n))
    low = np.empty_like(prod)
    flat = low.reshape(-1, n * n)
    rows = np.empty((m, flat.shape[0], m))
    tmp = np.empty(rows.shape[1:])
    for q, (mu, nu) in enumerate(pairs):
        gm = gamma[..., mu, :]  # Gamma^r_{mu l}
        gn = gamma[..., nu, :]
        r13 = deriv(chart, gn, mu)
        r13 -= deriv(chart, gm, nu)
        np.matmul(gm, gn, out=prod)
        prod -= np.matmul(gn, gm, out=low)
        r13 += prod
        np.matmul(dense, r13, out=low)
        # twice the antisymmetric part of the first pair is row q
        row = np.take(flat, ab, axis=1, out=rows[q], mode="clip")
        row -= np.take(flat, ba, axis=1, out=tmp, mode="clip")
    # free the scratch so the exchange average and the projection run
    # with no more than two pair matrices alive
    del prod, low, flat, tmp, r13, row
    # exchange average of the rows and their transpose, with the halving of
    # the antisymmetric part folded in (scaling by 1/4 is exact)
    mat = np.add(rows.transpose(1, 0, 2), rows.transpose(1, 2, 0))
    del rows
    mat *= 0.25
    mat = mat.reshape(chart.shape + (m, m))
    return Riem4Field(chart, bianchi_project(mat, n))


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
