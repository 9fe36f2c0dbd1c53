"""Periodic structured charts and the discrete calculus on them.

A chart is a uniform grid on the n-torus: axis ``a`` has ``sizes[a]`` points
spanning ``[0, lengths[a])`` with periodic wraparound.

Each argument takes one representation.  A field is a full-grid float
array: a scalar field has exactly the grid shape ``sizes``, and a field with
components stores them in trailing axes after the grid axes (point-major
layout, components contiguous per point).  One check (``_field``) holds
every input to this rule and nothing is broadcast, so a field built from
the sparse ``mesh`` is expanded by its caller.

Every whole-grid symmetric 2-tensor field (a metric, its inverse, a Ricci
tensor, a Hessian) is stored packed: its ``n*(n+1)//2`` lexicographic
(i <= j) components, in ``sym2_pack_indices`` order, trail the grid axes.
Pointwise kernels (``tensor``) take dense (n, n) input, so each part of a
computation unpacks the planes it reads (``sym2_unpack``).  The metric is
the one wrapped field: a ``MetricField`` holds the packed components.
Construction factors them by one batched LDL^T, run in place on a
component-major copy with one scratch grid array, and checks that every
pivot is positive.  The determinant (the pivots' product) and the packed
inverse (L^{-1} formed in place, then M^T D^{-1} M) are built when first
read.

Differentiation defaults to 4th-order centered differences; second
derivatives are compositions of first derivatives, so mixed partials
commute to roundoff.  Every derivative is one ``_axis_product`` along its
axis.  An fd4 derivative multiplies by the +-1 differences d1 and d2
stacked and forms (8 d1 - d2) / (12 h) from the two halves: the bits of
the 5-point stencil, and exactly 0 on every constant.  A range of axis-0
planes is differentiated through its ``window``, the range with two
wrapped ghost planes past each end: ``deriv_window`` takes the rows of the
own planes along axis 0, which read the ghost planes in place, so every
range is bit-identical to the same planes of the whole derivative.  A
"spectral" chart multiplies by the axis's dense N x N spectral matrix;
each derived plane reads every plane of the axis, so a spectral window is
the whole field.  Integration is over a metric's volume element: the point
sum of f sqrt(det g) times the cell volume, which is spectrally accurate on
periodic grids and makes the discrete divergence theorem hold to roundoff
(each difference telescopes over each periodic axis).

The Laplace-Beltrami operator is applied in flux form,
(1/sqrt(det g)) sum_a D_a(sqrt(det g) g^{ab} D_b u).  A ``FluxForm`` holds
its coefficient once per metric with the axis scales folded in, so each
derivative of an apply is one ``_axis_product`` of a whole field with the
fd4 band (a constant 1 maps to exactly 0) or the spectral matrix.

``_circulant`` writes each difference operator once: d1 and d2, the fd4
band 8 d1 - d2 and the spectral matrix, which the apply reads through
``_apply_axes``, and the second difference.  ``yamabe`` reads its symbols
off these matrices and squares the second difference for its penalty.

The package's one thread pool lives here (``_in_parts``): a range of
axis-0 planes is split into one contiguous part per CPU the process may
use, the calling thread runs the first part and the pool the others, and
the call returns once every part has finished.  numpy releases the
interpreter lock inside the ufunc, ``take`` and ``matmul`` loops that do
the work.  Each part writes only its own planes and the arithmetic of a
point does not depend on the split, so every worker count gives the same
bits; a split started inside a part runs inline as one part.  Its users are
the apply's pointwise flux sums and ``curvature``'s slab loops.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Chart",
    "MetricField",
    "FluxForm",
    "make_chart",
    "deriv",
    "window",
    "deriv_window",
    "gradient",
    "integrate",
    "flux_laplacian",
    "sym2_pack_indices",
    "sym2_pack",
    "sym2_unpack",
    "ChartError",
    "FieldError",
]


class ChartError(ValueError):
    """Raised for invalid chart parameters."""


class FieldError(ValueError):
    """Raised for invalid field data (shape, symmetry, positivity)."""


_SCHEMES = ("fd4", "spectral")


@dataclass(frozen=True)
class Chart:
    """Uniform periodic grid on the n-torus."""

    n: int
    sizes: tuple[int, ...]
    lengths: tuple[float, ...]
    scheme: str = "fd4"

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(length / size for length, size in zip(self.lengths, self.sizes))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axes(self) -> list[np.ndarray]:
        """Coordinate values along each axis."""
        return [
            np.arange(size) * spacing
            for size, spacing in zip(self.sizes, self.spacings)
        ]

    def mesh(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        return list(np.meshgrid(*self.axes(), indexing="ij", sparse=True))

    def min_image(self, coords: np.ndarray, center) -> np.ndarray:
        """Displacement coords - center wrapped to the nearest periodic image."""
        out = np.empty(np.broadcast_shapes(*(c.shape for c in coords)) + (self.n,))
        for a in range(self.n):
            d = coords[a] - center[a]
            length = self.lengths[a]
            out[..., a] = d - length * np.round(d / length)
        return out


def make_chart(n, sizes, lengths, scheme="fd4") -> Chart:
    """Validate parameters and build a Chart."""
    if not isinstance(n, (int, np.integer)) or not 3 <= n <= 6:
        raise ChartError(f"dimension n must be an integer in [3, 6], got {n!r}")
    sizes = tuple(int(s) for s in sizes)
    lengths = tuple(float(length) for length in lengths)
    if len(sizes) != n:
        raise ChartError(f"expected {n} sizes, got {len(sizes)}")
    if len(lengths) != n:
        raise ChartError(f"expected {n} lengths, got {len(lengths)}")
    for a, size in enumerate(sizes):
        if size < 8:
            raise ChartError(f"axis {a}: size must be >= 8, got {size}")
    for a, length in enumerate(lengths):
        if not np.isfinite(length) or length <= 0:
            raise ChartError(f"axis {a}: length must be positive, got {length}")
    if scheme not in _SCHEMES:
        raise ChartError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    return Chart(n=int(n), sizes=sizes, lengths=lengths, scheme=scheme)


def _field(chart: Chart, data, trailing: tuple[int, ...], kind: str) -> np.ndarray:
    """``data`` as a float array, which must have exactly the grid shape
    ``sizes`` followed by the ``trailing`` component axes."""
    data = np.asarray(data, dtype=float)
    if data.shape != chart.sizes + trailing:
        raise FieldError(f"{kind}: expected shape {chart.sizes + trailing}, got {data.shape}")
    return data


# ---------------------------------------------------------------------------
# the slab pool
# ---------------------------------------------------------------------------


def _worker_count() -> int:
    """Threads a range of planes is split among: the CPUs this process may
    run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS)
        return os.cpu_count() or 1


_WORKERS = _worker_count()
# the calling thread runs a range's first part, the pool the others; the
# pool starts a thread only on its first submit, so one worker starts none
_POOL = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1), thread_name_prefix="slab")


class _PartFlag(threading.local):
    """Whether this thread is running a part."""

    active = False


_IN_PART = _PartFlag()


def _parts(planes: slice) -> list[slice]:
    """Contiguous split of ``planes`` into one part per worker (at most one
    per plane), sizes differing by at most one; a split started inside a
    part is not split again."""
    size = planes.stop - planes.start
    count = 1 if _IN_PART.active else min(_WORKERS, size)
    cuts = [planes.start + size * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _run_part(run, part: slice) -> None:
    """``run(part)``, with any split it starts left unsplit."""
    outer = _IN_PART.active
    _IN_PART.active = True
    try:
        run(part)
    finally:
        _IN_PART.active = outer


def _in_parts(run, planes: slice) -> None:
    """Call ``run(part)`` for each part of ``planes``: the first in the
    calling thread, the others on the pool.

    Every part has finished when this returns or raises, so none is still
    writing into a buffer the caller reuses; the error of the first part
    that raised, in plane order, is the one raised.  Each part writes only
    its own planes; the caller forms every cached ``MetricField`` property
    a part reads before the parts start, so no two parts form it at once.
    """
    first, *rest = _parts(planes)
    futures = [_POOL.submit(_run_part, run, part) for part in rest]
    try:
        _run_part(run, first)
    finally:
        wait(futures)
    for future in futures:
        future.result()


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def _axis_product(M: np.ndarray, x: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``M`` (K x N) applied along ``axis`` of ``x``, which has N planes
    there, into the contiguous ``out``, which has K, by one matmul:
    ``M @ x.reshape(-1, N, post)`` on a leading axis,
    ``x.reshape(-1, N) @ M.T`` on the last, where the batched form is
    several times slower."""
    K, N = M.shape
    post = math.prod(x.shape[axis + 1 :])
    if post == 1:
        np.matmul(x.reshape(-1, N), M.T, out=out.reshape(-1, K))
    else:
        np.matmul(M, x.reshape(-1, N, post), out=out.reshape(-1, K, post))
    return out


@lru_cache
def _circulant(stencil: str, size: int, length: float) -> np.ndarray:
    """A periodic axis's difference operator as a read-only circulant: "d1"
    and "d2", the differences f[i+1] - f[i-1] and f[i+2] - f[i-2]; "fd4",
    8 d1 - d2, the fd4 band without its 1/(12 h); "second",
    f[i-1] - 2 f[i] + f[i+1]; "spectral", the spectral derivative on an
    axis of ``length`` (Trefethen, Spectral Methods in MATLAB, ch. 3),
    entry (1/2) (-1)^s cot(pi s / size) 2 pi / length on an even axis and
    csc in place of cot on an odd one, for s = (i - j) mod size, zero for
    s = 0; on an even axis also for s = size/2, so the odd Nyquist mode
    (-1)^j is in its kernel.  Only "spectral" reads ``length``.  The
    others have integer entries, so a product with a constant 1 is exactly
    0: every partial sum is exact."""
    if stencil == "fd4":
        C = 8.0 * _circulant("d1", size, 1.0) - _circulant("d2", size, 1.0)
    else:
        j = np.arange(size)
        col = np.zeros(size)  # entry (i, j) is col[(i - j) mod size]
        if stencil == "spectral":
            s = j[1 : (size + 1) // 2]
            trig = np.tan if size % 2 == 0 else np.sin
            col[s] = (np.pi / length) * (-1.0) ** s / trig(np.pi * s / size)
            col[size - s] = -col[s]
        elif stencil == "second":
            col[[-1, 0, 1]] = (1.0, -2.0, 1.0)
        else:  # "d1" or "d2"
            s = int(stencil[1])
            col[[-s, s]] = (1.0, -1.0)
        C = col[(j[:, None] - j) % size]
    C.flags.writeable = False
    return C


def _fd4(x: np.ndarray, axis: int, spacing: float, trim: int) -> np.ndarray:
    """fd4 derivative along ``axis`` of ``x``, on all but its first and last
    ``trim`` planes there: one ``_axis_product`` with those rows of d1 and
    d2 stacked, then 8 d1 - d2 over 12 h in the 5-point stencil's order.
    Each row has two non-zero entries, +1 and -1, so in any summation
    order, with or without FMA, it gives the one rounding of the stencil's
    difference: the stencil's bits, and exactly 0 on a constant."""
    N = x.shape[axis]
    P = np.concatenate([_circulant(d, N, 1.0)[trim : N - trim] for d in ("d1", "d2")])
    both = _axis_product(P, x, axis, np.empty(x.shape[:axis] + (len(P),) + x.shape[axis + 1 :]))
    d1, d2 = np.split(both, 2, axis=axis)
    out = np.multiply(d1, 8.0)
    out -= d2
    out /= 12.0 * spacing
    return out


def deriv(chart: Chart, arr: np.ndarray, axis: int) -> np.ndarray:
    """Partial derivative of a full-grid field along a chart axis.

    Component axes may trail the grid axes; ``axis`` always refers to the
    grid axis.
    """
    if not 0 <= axis < chart.n:
        raise FieldError(f"axis must be in [0, {chart.n}), got {axis}")
    arr = _field(chart, arr, np.shape(arr)[chart.n :], "deriv")
    if chart.scheme == "spectral":
        D = _circulant("spectral", chart.sizes[axis], chart.lengths[axis])
        return _axis_product(D, arr, axis, np.empty(arr.shape))
    return _fd4(arr, axis, chart.spacings[axis], 0)


def window(chart: Chart, arr: np.ndarray, planes: slice) -> np.ndarray:
    """The axis-0 ``planes`` of ``arr`` with two ghost planes past each end,
    wrapped periodically: the input of ``deriv_window``.

    A spectral derivative needs whole axes, so on a spectral chart the
    window is ``arr`` itself and only the whole plane range is accepted.
    """
    if chart.scheme == "spectral":
        if planes.indices(chart.sizes[0]) != (0, chart.sizes[0], 1):
            raise FieldError("a spectral chart differentiates whole axes; pass all planes")
        return arr
    start, stop, _ = planes.indices(chart.sizes[0])
    # a range whose ghost planes do not wrap is a view, with no copy; a
    # wrapping one is indexed, which copies only those planes, where
    # ``np.take`` would first copy a strided input whole
    if start >= 2 and stop + 2 <= arr.shape[0]:
        return arr[start - 2 : stop + 2]
    return arr[np.arange(start - 2, stop + 2) % arr.shape[0]]


def deriv_window(chart: Chart, window: np.ndarray, axis: int) -> np.ndarray:
    """Derivative along ``axis`` on the own planes of an axis-0 window.

    On an fd4 chart ``window`` holds a range of axis-0 planes with two
    ghost planes past each end (as ``window`` cuts them), and the result
    covers the range: bit-identical to the same planes of ``deriv`` of the
    whole field.  Along axis 0 the product takes the rows of the window's
    own planes, which read the ghost planes in place, with no copy; along
    the others it takes the own planes, as ``deriv`` does.  A spectral
    window is the whole field, with no ghost planes.
    """
    if not 0 <= axis < chart.n:
        raise FieldError(f"axis must be in [0, {chart.n}), got {axis}")
    if chart.scheme == "spectral":
        return deriv(chart, window, axis)
    if axis == 0:
        return _fd4(window, 0, chart.spacings[0], 2)
    return _fd4(window[2:-2], axis, chart.spacings[axis], 0)


def gradient(chart: Chart, arr: np.ndarray) -> np.ndarray:
    """Stack of partial derivatives, component axis last."""
    return np.stack([deriv(chart, arr, a) for a in range(chart.n)], axis=-1)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _slot(n: int, a: int, b: int) -> int:
    """Index of component (a, b), a <= b, in the packed order."""
    # rows 0..a-1 of the packed order hold n + (n-1) + ... + (n-a+1) slots
    return a * n - a * (a - 1) // 2 + b - a


def _dense_slots(n: int) -> list[int]:
    """Packed slot of each dense (i, j) entry, row-major."""
    return [_slot(n, min(i, j), max(i, j)) for i in range(n) for j in range(n)]


def sym2_pack_indices(n: int) -> list[tuple[int, int]]:
    """Lexicographic (i <= j) component order for symmetric 2-tensors."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym2_pack(dense: np.ndarray, n: int) -> np.ndarray:
    idx = sym2_pack_indices(n)
    return np.stack([dense[..., i, j] for i, j in idx], axis=-1)


def sym2_unpack(packed: np.ndarray, n: int) -> np.ndarray:
    return np.take(packed, _dense_slots(n), axis=-1).reshape(packed.shape[:-1] + (n, n))


@dataclass
class MetricField:
    """SPD metric field, stored deduplicated (i <= j components).

    Construction runs one batched LDL^T on the packed components; its pivots
    check positivity.  ``det`` (the pivots' product) and the packed inverse
    come from a fresh factor when first read, one factor for both when the
    inverse is read first.  The factor itself is never kept, and no dense
    (n, n) field is.
    """

    chart: Chart
    packed: np.ndarray  # (*sizes, n*(n+1)//2)

    def __post_init__(self):
        n = self.chart.n
        self.packed = _field(self.chart, self.packed, (n * (n + 1) // 2,), "MetricField")
        self._factor()

    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        """LDL^T in place on a component-major copy of ``packed``.

        Slot (k, k) ends as the pivot D_k and slot (k, j), k < j, as the
        multiplier L_jk.  Returns the factor and its one scratch grid array.
        """
        n = self.chart.n
        # the scratch (``det`` keeps it) comes before the transient copy, so
        # freeing the copy leaves no heap hole under a kept array
        tmp = np.empty(self.chart.sizes)
        a = np.empty(self.packed.shape[-1:] + self.chart.sizes)
        for s in range(self.chart.sizes[0]):  # slab by slab, the transpose in cache
            a[:, s] = np.moveaxis(self.packed[s], -1, 0)
        for k in range(n):
            d = a[_slot(n, k, k)]
            # checked before any division by it; a NaN pivot fails too
            if not d.min() > 0:
                self._not_positive(d)
            for j in range(k + 1, n):
                kj = a[_slot(n, k, j)]
                # slots (k, i), i < j, already hold L_ik; (k, j) still A_kj
                for i in range(k + 1, j):
                    ij = a[_slot(n, i, j)]
                    np.subtract(ij, np.multiply(a[_slot(n, k, i)], kj, out=tmp), out=ij)
                np.divide(kj, d, out=kj)
                np.multiply(kj, kj, out=tmp)
                tmp *= d
                jj = a[_slot(n, j, j)]
                np.subtract(jj, tmp, out=jj)
        return a, tmp

    def _not_positive(self, pivot: np.ndarray):
        """Raise at the first point with a failed pivot or a non-positive
        eigenvalue; the quoted minimum is nan if some entry is not finite."""
        dense = sym2_unpack(self.packed, self.chart.n)
        finite = np.isfinite(dense).all(axis=(-2, -1))
        eigmin = np.full(self.chart.sizes, np.nan)
        eigmin[finite] = np.linalg.eigvalsh(dense[finite])[:, 0]
        where = tuple(int(i) for i in np.argwhere(~(eigmin > 0) | ~(pivot > 0))[0])
        raise FieldError(
            f"metric is not positive definite at grid point {where} "
            f"(min eigenvalue {np.min(eigmin):.3e})"
        )

    @cached_property
    def inverse(self) -> np.ndarray:
        """g^{-1} = M^T D^{-1} M with M = L^{-1}, packed like ``packed``."""
        n = self.chart.n
        # both before the factor, as in _factor; ``det`` comes from the
        # pivots of the same factor when it is not formed yet
        out = np.empty(self.packed.shape)
        det = None if "det" in self.__dict__ else np.empty(self.chart.sizes)
        a, tmp = self._factor()
        if det is not None:
            self.det = self._pivot_product(a, det)
        # M_ij = -(L_ij + sum_{j<k<i} L_ik M_kj) overwrites L_ij, column by column
        for j in range(n):
            for i in range(j + 1, n):
                m = a[_slot(n, j, i)]
                for k in range(j + 1, i):
                    np.add(m, np.multiply(a[_slot(n, k, i)], a[_slot(n, j, k)], out=tmp), out=m)
                np.negative(m, out=m)
        for k in range(n):
            np.reciprocal(a[_slot(n, k, k)], out=a[_slot(n, k, k)])
        # entry (i, j), i <= j, is sum_{k>=j} M_ki M_kj / D_k; it overwrites
        # slot (i, j), whose other readers are all in earlier columns (the
        # pivot slot (j, j) is read by its whole column, so it goes last)
        for j in range(n):
            for i in range(j + 1):
                e = a[_slot(n, i, j)]
                if i < j:
                    e *= a[_slot(n, j, j)]
                for k in range(j + 1, n):
                    np.multiply(a[_slot(n, i, k)], a[_slot(n, j, k)], out=tmp)
                    tmp *= a[_slot(n, k, k)]
                    e += tmp
        # slot (i, j) is the packed entry (i, j): transposed point-major
        # into ``out`` slab by slab, as in _factor
        for s in range(self.chart.sizes[0]):
            np.copyto(out[s], np.moveaxis(a[:, s], 0, -1))
        return out

    @cached_property
    def det(self) -> np.ndarray:
        """Product of the LDL^T pivots; forming the inverse forms it too."""
        a, tmp = self._factor()
        return self._pivot_product(a, tmp)

    def _pivot_product(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Product of the pivots of the factor ``a`` into ``out``."""
        n = self.chart.n
        np.multiply(a[0], a[_slot(n, 1, 1)], out=out)
        for k in range(2, n):
            out *= a[_slot(n, k, k)]
        return out

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return np.sqrt(self.det)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def integrate(g: MetricField, f) -> float:
    """Point-sum quadrature of the scalar field ``f`` over the volume
    element of ``g``: sum f sqrt(det g) times the cell volume.

    ``g.sqrt_det`` is positive by construction, so it is not checked again:
    a metric checks its LDL^T pivots, and ``conformal_metric`` forms it in
    closed form from a u > 0 it has checked.  ``flat_metric``'s is exactly
    1, the coordinate measure.
    """
    f = _field(g.chart, f, (), "integrate")
    return float(np.sum(f * g.sqrt_det) * g.chart.cell_volume)


# ---------------------------------------------------------------------------
# the flux-form Laplacian


def _apply_axes(chart: Chart) -> list[tuple[np.ndarray, float]]:
    """Per axis, the flux apply's derivative matrix and the scale s_a it
    leaves to ``FluxForm``: the integer fd4 band and 1/(12 h), or the
    spectral matrix (it carries 2 pi / L) and 1."""
    return [
        (_circulant(chart.scheme, N, L), 1.0 if chart.scheme == "spectral" else 1.0 / (12.0 * h))
        for N, L, h in zip(chart.sizes, chart.lengths, chart.spacings)
    ]


@dataclass(frozen=True, eq=False)
class FluxForm:
    """Coefficient sqrt(det g) g^{ab} s_a s_b of the flux-form Laplacian of
    a metric, the axis scales s_a of ``_apply_axes`` folded in; ``component``
    divides them out.  ``coefficient[c]`` is the c-th packed (a <= b)
    component, a contiguous grid array.  Form it once per metric and hand it
    to every apply; ``flux_laplacian`` forms one itself from a metric.
    """

    chart: Chart
    sqrt_det: np.ndarray
    coefficient: np.ndarray  # (n*(n+1)//2, *sizes)

    @classmethod
    def of(cls, g: MetricField) -> FluxForm:
        inv = g.inverse
        scales = [s for _, s in _apply_axes(g.chart)]
        pair_scales = np.array([scales[a] * scales[b] for a, b in sym2_pack_indices(g.chart.n)])
        pair_scales = pair_scales.reshape((-1,) + (1,) * (g.chart.n - 1))
        coef = np.empty(inv.shape[-1:] + g.chart.sizes)
        # one axis-0 slab at a time, so the transposing reads of the packed
        # g^{-1} stay in cache
        for i in range(g.chart.sizes[0]):
            np.multiply(g.sqrt_det[i], np.moveaxis(inv[i], -1, 0), out=coef[:, i])
            coef[:, i] *= pair_scales
        return cls(g.chart, g.sqrt_det, coef)

    def component(self, a: int, b: int) -> np.ndarray:
        """The physical sqrt(det g) g^{ab} for any index order."""
        scales = [s for _, s in _apply_axes(self.chart)]
        return self.coefficient[_slot(self.chart.n, min(a, b), max(a, b))] / (scales[a] * scales[b])


def flux_laplacian(g: MetricField | FluxForm, u: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator in flux form on a full-grid scalar field.

    (1/sqrt(det g)) sum_a D_a(sqrt(det g) g^{ab} D_b u); pass a ``FluxForm``
    to reuse its coefficient across applies.  Whole-field products of u with
    each axis's matrix (``_apply_axes``), the flux components sum_b
    coef^{ab} du_b, products back and one division by sqrt(det g).  Only the
    pointwise flux sums are split among the workers, each point summing in
    the order of b, so every worker count gives the same bits.
    """
    form = g if isinstance(g, FluxForm) else FluxForm.of(g)
    chart = form.chart
    n = chart.n
    axes = _apply_axes(chart)
    u = np.ascontiguousarray(_field(chart, u, (), "flux_laplacian"))  # not copied per product
    du = [_axis_product(M, u, b, np.empty(chart.sizes)) for b, (M, _) in enumerate(axes)]
    flux = [np.empty(chart.sizes) for _ in range(n)]

    def fluxes(part: slice) -> None:
        term = np.empty(flux[0][part].shape)
        for a in range(n):
            acc = flux[a][part]
            for b in range(n):
                coef = form.coefficient[_slot(n, min(a, b), max(a, b))][part]
                np.multiply(coef, du[b][part], out=term if b else acc)
                if b:
                    acc += term

    _in_parts(fluxes, slice(0, chart.sizes[0]))
    # the derivatives of u are spent, so the products back reuse their buffers
    out = _axis_product(axes[0][0], flux[0], 0, du[0])
    for a in range(1, n):
        out += _axis_product(axes[a][0], flux[a], a, du[a])
    out /= form.sqrt_det
    return out
