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

The stack runs in slabs of axis-0 planes, about ``_SLAB_POINTS`` points
each.  Gamma is formed slab by slab into one whole-grid array; each slab
reads two ghost planes of the packed metric past each end for d_0 g.  Then
Riemann, Ricci, R, W and |W|^2 run per slab, reading two ghost planes of
Gamma for d_0 Gamma.  Both use the one fd4 stencil of ``grid``, so every
slab is bit-identical to the same planes of a whole-grid pass.
``curvature_bundle`` keeps every field of the loop; ``curvature_scalars``
keeps only R and |W|^2, so its peak is the whole-grid Gamma plus one slab.
A spectral chart, whose derivatives need whole axes, is one slab, as is an
axis no longer than one slab.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    Chart,
    MetricField,
    deriv,
    deriv_planes,
    gradient,
    sym2_pack_indices,
    sym2_unpack,
)
from .tensor import (
    Riem4Field,
    bianchi_project,
    kulkarni_nomizu,
    pair_indices,
    riemann_norm_squared,
    trace_13,
)

__all__ = [
    "CurvatureBundle",
    "christoffel",
    "riemann",
    "ricci_scalar",
    "weyl",
    "curvature_bundle",
    "curvature_scalars",
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


#: points per slab of the curvature stack (2 planes of a 20^4 grid).  A
#: slab's transients take about 2.4 KB per point, 40 MB at this size; on a
#: 2-core x86 host, 2^14 and 2^15 points per slab ran a 20^4 stack equally
#: fast, and 2^13 (one plane) about 20% slower.
_SLAB_POINTS = 1 << 14


def _slabs(chart: Chart) -> list[slice]:
    """Axis-0 plane ranges of the slab loop, about ``_SLAB_POINTS`` points
    each; a spectral chart, whose derivatives need whole axes, is one slab."""
    size = chart.sizes[0]
    if chart.scheme == "spectral":
        return [slice(0, size)]
    step = max(1, _SLAB_POINTS * size // chart.npoints)
    return [slice(s, min(s + step, size)) for s in range(0, size, step)]


def christoffel(g: MetricField, planes: slice = slice(None)) -> np.ndarray:
    """Levi-Civita symbols ``Gamma[..., c, a, b]``, symmetric in (a, b), on
    the axis-0 ``planes`` (all of them by default)."""
    chart = g.chart
    n = chart.n
    npack = g.packed.shape[-1]
    inv = g.inverse[planes]
    lead = inv.shape[:-2]
    dg = np.empty(lead + (npack, n))
    for e in range(n):
        dg[..., e] = deriv_planes(chart, g.packed, e, planes)
    flat = dg.reshape(-1, npack * n)
    plus_a, plus_b, minus, expand = _christoffel_tables(n)
    # the tables hold valid columns only, so "clip" skips the bounds check
    brk = np.take(flat, plus_a, axis=1, mode="clip")
    tmp = np.take(flat, plus_b, axis=1, mode="clip")
    brk += tmp
    brk -= np.take(flat, minus, axis=1, out=tmp, mode="clip")
    del dg, flat, tmp
    raised = np.matmul(0.5 * inv.reshape(-1, n, n), brk.reshape(-1, n, npack))
    del brk
    gamma = np.take(raised.reshape(-1, n * npack), expand, axis=1, mode="clip")
    return gamma.reshape(lead + (n, n, n))


def _christoffel_field(g: MetricField) -> np.ndarray:
    """Whole-grid Gamma, formed slab by slab."""
    n = g.chart.n
    gamma = np.empty(g.chart.sizes + (n, n, n))
    for planes in _slabs(g.chart):
        gamma[planes] = christoffel(g, planes)
    return gamma


@lru_cache(maxsize=None)
def _pair_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (n * n) positions of ``(a, b)`` and ``(b, a)`` for each pair."""
    pairs = pair_indices(n)
    return (
        np.array([a * n + b for a, b in pairs]),
        np.array([b * n + a for a, b in pairs]),
    )


def riemann(
    g: MetricField, gamma: np.ndarray | None = None, planes: slice = slice(None)
) -> np.ndarray:
    """Lowered (0,4) curvature pair matrices of ``g`` on the axis-0
    ``planes``, from the whole-grid symbols ``gamma``; along axis 0 their
    derivative reads two ghost planes of ``gamma`` past each end."""
    chart = g.chart
    n = chart.n
    if gamma is None:
        gamma = _christoffel_field(g)
    pairs = pair_indices(n)
    m = len(pairs)
    ab, ba = _pair_gather(n)
    dense = sym2_unpack(g.packed[planes], n)
    own = gamma[planes]
    lead = own.shape[:-3]
    # scratch reused by every pair (two (n, n) fields and one row), and
    # the rows of all pairs
    prod = np.empty(lead + (n, n))
    low = np.empty_like(prod)
    flat = low.reshape(-1, n * n)
    rows = np.empty((m, flat.shape[0], m))
    tmp = np.empty(rows.shape[1:])
    for q, (mu, nu) in enumerate(pairs):
        gm = own[..., mu, :]  # Gamma^r_{mu l}
        gn = own[..., nu, :]
        r13 = deriv_planes(chart, gamma[..., nu, :], mu, planes)
        r13 -= deriv_planes(chart, gamma[..., mu, :], nu, planes)
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
    return bianchi_project(mat.reshape(lead + (m, m)), n)


def ricci_scalar(riem: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ricci tensor (dense symmetric) and scalar curvature of the pair
    matrices ``riem`` under the (..., n, n) inverse metric ``inv``."""
    ric = trace_13(riem, inv)
    scal = np.einsum("...jt,...jt->...", inv, ric)
    return ric, scal


def _schouten(ric: np.ndarray, scal: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Schouten tensor ``P = (Ric - R g / (2 (n - 1))) / (n - 2)`` for the
    dense (..., n, n) metric ``dense``."""
    n = dense.shape[-1]
    return (ric - (scal / (2.0 * (n - 1)))[..., None, None] * dense) / (n - 2)


def weyl(riem: np.ndarray, ric: np.ndarray, scal: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Trace-free part of the curvature pair matrices, ``W = Riem - KN(P, g)``
    with the Schouten tensor ``P`` of the dense (..., n, n) metric."""
    return riem - kulkarni_nomizu(_schouten(ric, scal, dense), dense)


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


def _stack(g: MetricField, gamma: np.ndarray):
    """Yield ``(planes, riem, ric, scal, W)`` for each slab of the grid."""
    n = g.chart.n
    for planes in _slabs(g.chart):
        riem = riemann(g, gamma, planes)
        ric, scal = ricci_scalar(riem, g.inverse[planes])
        W = weyl(riem, ric, scal, sym2_unpack(g.packed[planes], n))
        yield planes, riem, ric, scal, W


def curvature_bundle(g: MetricField) -> CurvatureBundle:
    """The whole curvature stack of ``g``: the slab loop keeping every field."""
    shape = g.chart.sizes
    n = g.chart.n
    m = len(pair_indices(n))
    gamma = _christoffel_field(g)
    riem, W = np.empty(shape + (m, m)), np.empty(shape + (m, m))
    ric, scal = np.empty(shape + (n, n)), np.empty(shape)
    for planes, *fields in _stack(g, gamma):
        for whole, part in zip((riem, ric, scal, W), fields):
            whole[planes] = part
    return CurvatureBundle(g, gamma, Riem4Field(g.chart, riem), ric, scal, Riem4Field(g.chart, W))


def curvature_scalars(
    g: MetricField, bundle: CurvatureBundle | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar curvature R and squared Weyl norm |W|^2 of ``g``.

    Read off ``bundle`` when given; otherwise the slab loop keeps only these
    two fields, so no whole-grid Riemann, Ricci or Weyl field is held.
    """
    if bundle is not None:
        return bundle.scal, riemann_norm_squared(bundle.W.pair, g.inverse)
    scal, wnorm2 = np.empty(g.chart.sizes), np.empty(g.chart.sizes)
    for planes, _, _, s, W in _stack(g, _christoffel_field(g)):
        scal[planes] = s
        wnorm2[planes] = riemann_norm_squared(W, g.inverse[planes])
    return scal, wnorm2


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
