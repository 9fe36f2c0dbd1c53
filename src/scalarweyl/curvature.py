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

Symmetric 2-tensor fields follow ``grid``'s one layout rule: whole-grid
ones (the metric and its inverse, the bundle's Ricci tensor, ``hessian``'s
result) are packed (..., n (n + 1) / 2), and each part unpacks the planes
it reads into the dense (n, n) form that the ``tensor`` kernels take.

The Christoffel symbols come from the derivatives of the packed metric
(n (n + 1) / 2 components): three whole-field gathers on the point-major
(points, components) view form the lowered bracket for every lower index
and every packed pair (a <= b), and one batched (n x n) . (n x P) product
raises the index.  The symbols stay packed in their symmetric lower pair,
(..., n, P) with ``Gamma[..., c, q] = Gamma^c_{ab}`` for q = (a, b): the one
layout that ``riemann``'s windows and ``hessian`` read, 5/8 of the dense
(..., n, n, n) at n = 4.  ``sym2_unpack(Gamma, n)`` gives the dense form.

Riemann assembly is blocked over the derivative pair (mu < nu) to keep peak
memory near a few dense (n, n) fields instead of the full n^4 tensor.  The
packed symbols are differentiated one axis at a time, and each derivative
is gathered at once into the (n, n) matrices of the pairs that hold that
axis; the matrices Gamma^r_{a l} of the products are gathered once per
slab.  The antisymmetric part of each lowered (n, n) field is two gathers
at the pair tables; it is stored as row q, which the exchange average
makes the same as column q.

The stack is one loop over slabs of axis-0 planes, about ``_SLAB_POINTS``
points each.  Both first-derivative layers take one route: ``grid.window``
cuts the planes formed plus two ghost planes past each end, which
``grid.deriv_window`` differentiates; ``christoffel`` reads the window of
the packed metric and ``riemann`` that of Gamma.  One slab loop, ``_sweep``,
holds a window of Gamma per slab in one buffer; moving to the next slab
keeps the four planes the two windows share and runs ``christoffel`` on the
new planes only; planes 0 and 1 are kept from the first window for the
last, so no whole-grid Gamma is formed.  It hands each part of the slab its
planes of Gamma with their ghost planes, and each caller passes what to do
with them: ``curvature_bundle`` keeps Ricci, R and W (``_curvature``
forms each part's Riemann pair matrices, which die with the part),
``curvature_scalars`` keeps only R and |W|^2, so its peak
is one window and one slab's transients, and ``hessian`` forms the part's
second derivatives from the windows of the gradient its caller passes and
subtracts the part's own planes of Gamma contracted with it; ``deform`` has
the bundle's sweep do that too, so it forms Gamma once for both.
Every derivative is one ``grid`` matrix product, so every slab is
bit-identical to the same planes of a whole-grid pass.  On a bundle,
``curvature_scalars`` forms |W|^2 slab by slab.
The deformation layer runs its closed forms in the same slabs.  A spectral
chart, whose derivatives need whole axes, is one unsplit slab whose window
is the whole Gamma with no ghost planes; an fd4 axis no longer than one
slab is one slab whose window wraps onto itself.

Every slab loop runs each slab on all the CPUs the process may use
through ``grid``'s one thread pool (``grid._in_parts``): the slab's planes
are split into one contiguous part per worker, the calling thread runs the
first and the pool the others, and the loop waits for every part before it
goes on.  The workers share the slab's one window: each
forms its own new planes of Gamma into it, and ``riemann`` reads a part's
planes with their ghost planes from it, so the points in flight stay one
slab's.  Each part writes only its own planes of the outputs, and the
arithmetic of a point does not depend on the planes around it, so every
worker count gives bit-identical results.  A spectral sweep stays one
unsplit part; the pointwise work the deformation layer runs on its slab is
split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    Chart,
    MetricField,
    _dense_slots,
    _in_parts,
    _slot,
    deriv_window,
    sym2_pack,
    sym2_pack_indices,
    sym2_unpack,
    window,
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


def _pack_slots(n: int) -> np.ndarray:
    """``slot[a, b]``: the packed column of the symmetric pair (a, b)."""
    return np.reshape(_dense_slots(n), (n, n))


@lru_cache(maxsize=None)
def _gamma_blocks(n: int) -> list[np.ndarray]:
    """For each ``a``, the flat (n * P) columns of the packed symbols that
    form the (n, n) matrix ``Gamma^r_{a l}`` in (r, l)."""
    slot = _pack_slots(n)
    npack = n * (n + 1) // 2
    return [(np.arange(n)[:, None] * npack + slot[a]).ravel() for a in range(n)]


@lru_cache(maxsize=None)
def _christoffel_tables(n: int):
    """Gather tables on the flattened packed-derivative field.

    ``dg[..., c, e]`` is ``d_e`` of packed component ``c``, flattened to
    column ``c * n + e``.  Column ``d * P + q`` of the bracket, for packed
    pair ``q = (a, b)``, is ``d_a g_db + d_b g_da - d_d g_ab``, gathered as
    ``plus_a + plus_b - minus``.
    """
    slot = _pack_slots(n)
    rows = [(d, a, b) for d in range(n) for a, b in sym2_pack_indices(n)]
    plus_a = np.array([slot[d, b] * n + a for d, a, b in rows])
    plus_b = np.array([slot[d, a] * n + b for d, a, b in rows])
    minus = np.array([slot[a, b] * n + d for d, a, b in rows])
    return plus_a, plus_b, minus


#: points in flight in the curvature stack: one slab of axis-0 planes, about
#: this many points, is split among the workers, who share its window (2
#: planes of a 20^4 grid, one per worker on a 2-core host).  A slab's
#: transients take about 2.4 KB per point, 40 MB at this size; on a 2-core
#: x86 host, 2^14 and 2^15 points per slab ran a single-threaded 20^4 stack
#: equally fast, and 2^13 (one plane) about 20% slower.
_SLAB_POINTS = 1 << 14


def _slabs(chart: Chart) -> list[slice]:
    """Axis-0 plane ranges of the slab loop, about ``_SLAB_POINTS`` points
    each; a spectral chart, whose derivatives need whole axes, is one slab."""
    size = chart.sizes[0]
    if chart.scheme == "spectral":
        return [slice(0, size)]
    step = max(1, _SLAB_POINTS * size // chart.npoints)
    return [slice(s, min(s + step, size)) for s in range(0, size, step)]


def _each_part(chart: Chart, run) -> None:
    """``_in_parts`` over every slab of ``chart``: ``run(part)`` for each
    part of each slab."""
    for planes in _slabs(chart):
        _in_parts(run, planes)


def christoffel(g: MetricField, planes: slice = slice(None)) -> np.ndarray:
    """Levi-Civita symbols on the axis-0 ``planes`` (all of them by default),
    packed in their symmetric lower pair: ``Gamma[..., c, q]`` is
    ``Gamma^c_{ab}`` for the packed pair ``q = (a <= b)``, so
    ``sym2_unpack(Gamma, n)`` is the dense ``Gamma[..., c, a, b]``."""
    chart = g.chart
    n = chart.n
    npack = g.packed.shape[-1]
    inv = sym2_unpack(g.inverse[planes], n)
    lead = inv.shape[:-2]
    dg = np.empty(lead + (npack, n))
    win = window(chart, g.packed, planes)
    for e in range(n):
        dg[..., e] = deriv_window(chart, win, e)
    del win
    flat = dg.reshape(-1, npack * n)
    plus_a, plus_b, minus = _christoffel_tables(n)
    # the tables hold valid columns only, so "clip" skips the bounds check
    brk = np.take(flat, plus_a, axis=1, mode="clip")
    tmp = np.take(flat, plus_b, axis=1, mode="clip")
    brk += tmp
    brk -= np.take(flat, minus, axis=1, out=tmp, mode="clip")
    del dg, flat, tmp
    raised = np.matmul(0.5 * inv.reshape(-1, n, n), brk.reshape(-1, n, npack))
    return raised.reshape(lead + (n, npack))


def _own(chart: Chart, window: np.ndarray) -> np.ndarray:
    """The window's own planes, without its ghost planes."""
    return window if chart.scheme == "spectral" else window[2:-2]


def _sweep(g: MetricField, run) -> None:
    """Call ``run(part, win)`` for each part of each slab, ``win`` the
    part's planes of Gamma with two ghost planes past each end, cut from the
    slab's window as ``grid.window`` would cut it from the whole-grid
    symbols, which are never formed.  A spectral chart, whose derivatives
    need whole axes, runs one unsplit part whose window is the whole Gamma.

    One buffer holds the slab's window and is overwritten by the next
    slab's.  Moving on keeps the four planes two neighbouring windows share
    and forms only the new ones, split among the workers, each writing its
    own planes.  The first window's lower ghosts are the grid's last two
    planes; its planes 0 and 1, the last window's upper ghosts, are kept
    for it.
    """
    chart = g.chart
    if chart.scheme == "spectral":
        run(slice(0, chart.sizes[0]), christoffel(g))
        return
    slabs = _slabs(chart)
    size = chart.sizes[0]
    # every part reads the inverse, which the metric keeps: formed before the
    # window, it leaves no heap hole under it when the window is freed
    g.inverse
    buf = np.empty((slabs[0].stop + 4,) + chart.sizes[1:] + (chart.n, g.packed.shape[-1]))

    def form(window: np.ndarray, new: slice, shift: int) -> None:
        """Symbols of the ``new`` planes into rows ``plane - shift`` of
        ``window``, each part writing its own rows."""

        def fill(part: slice) -> None:
            window[part.start - shift : part.stop - shift] = christoffel(g, part)

        _in_parts(fill, new)

    for k, planes in enumerate(slabs):
        lo, hi = planes.start - 2, planes.stop + 2
        window = buf[: hi - lo]
        first_new = lo + 4 if k else 0
        last_new = min(hi, size)
        if first_new < last_new:
            form(window, slice(first_new, last_new), lo)
        if k == 0:
            head = window[2:4].copy()
            # one slab reaching the last planes has formed them already
            if hi >= size:
                window[:2] = window[size : size + 2]
            else:
                form(window, slice(size - 2, size), size - 2)
        for p in range(max(first_new, size), hi):
            window[p - lo] = head[p - size]

        def each(part: slice) -> None:
            # the part's planes and two ghost planes past each end, all
            # inside the slab's window
            start = part.start - planes.start
            run(part, window[start : part.stop - planes.start + 4])

        _in_parts(each, planes)
        window[:4] = window[-4:]


@lru_cache(maxsize=None)
def _pair_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (n * n) positions of ``(a, b)`` and ``(b, a)`` for each pair."""
    pairs = pair_indices(n)
    return (
        np.array([a * n + b for a, b in pairs]),
        np.array([b * n + a for a, b in pairs]),
    )


def riemann(g: MetricField, window: np.ndarray, planes: slice) -> np.ndarray:
    """Lowered (0,4) curvature pair matrices of ``g`` on the axis-0
    ``planes``, from ``window``: the packed symbols of those planes with two
    ghost planes past each end, as ``grid.window`` cuts them (the whole
    symbols on a spectral chart).
    ``deriv_window`` differentiates it, along axis 0 reading the ghost
    planes in place."""
    chart = g.chart
    n = chart.n
    pairs = pair_indices(n)
    m = len(pairs)
    ab, ba = _pair_gather(n)
    blocks = _gamma_blocks(n)
    npack = window.shape[-1]
    own = _own(chart, window)
    lead = own.shape[:-2]
    points = math.prod(lead)
    # d_mu Gamma_nu - d_nu Gamma_mu of every pair, as (n, n) matrices in
    # (r, l) of Gamma^r_{nu l}: one axis's packed derivative at a time, each
    # gathered into the pairs that hold that axis (mu < nu, so the
    # subtraction always follows its first term)
    r13 = [np.empty((points, n, n)) for _ in pairs]
    tmp = np.empty((points, n * n))
    for e in range(n):
        d = deriv_window(chart, window, e).reshape(points, n * npack)
        for q, (mu, nu) in enumerate(pairs):
            # the tables hold valid columns only, so "clip" skips the bounds check
            if mu == e:
                np.take(d, blocks[nu], axis=1, out=r13[q].reshape(points, -1), mode="clip")
            elif nu == e:
                r13[q] -= np.take(d, blocks[mu], axis=1, out=tmp, mode="clip").reshape(
                    points, n, n
                )
        del d
    del tmp
    own = own.reshape(points, n * npack)
    mats = [np.take(own, blocks[a], axis=1, mode="clip").reshape(points, n, n) for a in range(n)]
    dense = sym2_unpack(g.packed[planes], n).reshape(points, n, n)
    # scratch reused by every pair (two (n, n) fields and one row), and the
    # rows of all pairs
    prod = np.empty((points, n, n))
    low = np.empty_like(prod)
    flat = low.reshape(points, n * n)
    rows = np.empty((m, points, m))
    spare = np.empty((points, m))
    for q, (mu, nu) in enumerate(pairs):
        np.matmul(mats[mu], mats[nu], out=prod)
        prod -= np.matmul(mats[nu], mats[mu], out=low)
        r13[q] += prod
        np.matmul(dense, r13[q], out=low)
        # twice the antisymmetric part of the first pair is row q
        row = np.take(flat, ab, axis=1, out=rows[q], mode="clip")
        row -= np.take(flat, ba, axis=1, out=spare, mode="clip")
    # free the scratch so the exchange average and the projection run
    # with no more than two pair matrices alive
    del r13, mats, prod, low, flat, spare, row
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
    """Curvature stack of one metric, computed once and passed around.

    Every field is whole-grid, written slab by slab by the one slab loop
    that ``curvature_scalars`` also runs: ``W`` is a pair-matrix field,
    ``ric`` packed (..., n (n + 1) / 2) like the metric, and ``scal``
    scalar.  Riemann is not kept: each part forms its pair matrices for
    Ricci and W and drops them, and Riem = W + KN(P, g), with the Schouten
    tensor P of Ricci and R, gives back whatever a reader needs of it.  Nor
    are the Christoffel symbols: each slab's window of them is overwritten
    by the next, and ``hessian`` streams them again.
    """

    g: MetricField
    ric: np.ndarray
    scal: np.ndarray
    W: Riem4Field

    @property
    def chart(self) -> Chart:
        return self.g.chart


def _curvature(g: MetricField, win: np.ndarray, part: slice):
    """g^{-1} and Ricci (both dense), R and W of ``g`` on the axis-0 planes
    ``part``, from their window ``win`` of Gamma.  g^{-1} is unpacked after
    Riemann, so it is not alive through Riemann's transients."""
    riem = riemann(g, win, part)
    n = g.chart.n
    inv = sym2_unpack(g.inverse[part], n)
    ric, scal = ricci_scalar(riem, inv)
    return inv, ric, scal, weyl(riem, ric, scal, sym2_unpack(g.packed[part], n))


def curvature_bundle(g: MetricField) -> CurvatureBundle:
    """The curvature stack of ``g``: the slab loop keeping Ricci, R and W."""
    return _bundle(g, None)[0]


def _bundle(
    g: MetricField, grad: np.ndarray | None
) -> tuple[CurvatureBundle, np.ndarray | None]:
    """``curvature_bundle(g)`` and, given ``grad``, ``hessian(g, grad)`` from
    the same slab loop: each part contracts its own planes of Gamma with
    the gradient, so the symbols are formed once for both."""
    chart = g.chart
    n = chart.n
    shape = chart.sizes
    m = len(pair_indices(n))
    ric, scal = np.empty(g.packed.shape), np.empty(shape)
    W = np.empty(shape + (m, m))
    hess = None if grad is None else np.empty(g.packed.shape)

    def run(part: slice, win: np.ndarray) -> None:
        _, ric_part, scal[part], W[part] = _curvature(g, win, part)
        ric[part] = sym2_pack(ric_part, n)
        if hess is not None:
            _hessian_planes(chart, grad, win, part, hess[part])

    _sweep(g, run)
    return CurvatureBundle(g, ric, scal, Riem4Field(chart, W)), hess


def curvature_scalars(
    g: MetricField, bundle: CurvatureBundle | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar curvature R and squared Weyl norm |W|^2 of ``g``.

    Read off ``bundle`` when given, with |W|^2 formed slab by slab;
    otherwise the slab loop keeps only these two fields, so no whole-grid
    Christoffel, Riemann, Ricci or Weyl field is held.
    """
    wnorm2 = np.empty(g.chart.sizes)
    if bundle is not None:
        inverse = g.inverse

        def run(part: slice) -> None:
            inv = sym2_unpack(inverse[part], g.chart.n)
            wnorm2[part] = riemann_norm_squared(bundle.W.pair[part], inv)

        _each_part(g.chart, run)
        return bundle.scal, wnorm2
    scal = np.empty(g.chart.sizes)

    def run(part: slice, win: np.ndarray) -> None:
        inv, _, scal[part], W = _curvature(g, win, part)
        wnorm2[part] = riemann_norm_squared(W, inv)

    _sweep(g, run)
    return scal, wnorm2


def _gamma_term(own: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``Gamma^k_{ij} d_k u`` on the planes of the packed symbols ``own``,
    packed in (i <= j)."""
    return np.einsum("...kq,...k->...q", own, grad)


def _hessian_planes(
    chart: Chart, grad: np.ndarray, win: np.ndarray, part: slice, out: np.ndarray
) -> None:
    """``d_i d_j u - Gamma^k_{ij} d_k u`` on the axis-0 planes ``part`` into
    the packed (i <= j) ``out``, from the first derivatives ``grad`` = d_k u
    and the part's window ``win`` of Gamma.  The second derivatives
    differentiate the windows of ``grad`` around the part; the composed
    first-derivative stencils commute, so d_j d_i u is the same field."""
    n = chart.n
    for j in range(n):
        wj = window(chart, grad[..., j], part)
        for i in range(j + 1):
            out[..., _slot(n, i, j)] = deriv_window(chart, wj, i)
    out -= _gamma_term(_own(chart, win), grad[part])


def hessian(g: MetricField, grad: np.ndarray) -> np.ndarray:
    """Covariant Hessian ``u_{;ij} = d_i d_j u - Gamma^k_{ij} d_k u`` of
    ``g`` from the first derivatives ``grad`` = d_k u, which may be analytic
    ones, packed (i <= j) like the metric.

    The Christoffel symbols stream through the stack's windows: each part of
    each slab forms the second derivatives of its own planes from the
    windows of ``grad`` and subtracts the Gamma term of those planes, so no
    whole-grid Gamma is formed, and every point is bit-identical to the
    whole-field formula.
    """
    chart = g.chart
    out = np.empty(g.packed.shape)

    def run(part: slice, win: np.ndarray) -> None:
        _hessian_planes(chart, grad, win, part, out[part])

    _sweep(g, run)
    return out
