"""Periodic structured charts and the discrete calculus on them.

A chart is a uniform grid on the n-torus: axis ``a`` has ``sizes[a]`` points
spanning ``[0, lengths[a])`` with periodic wraparound.

Each argument takes one representation.  A field is a raw array: a scalar
field has the grid shape ``sizes``, and a field with components stores them
in trailing axes after the grid axes (point-major layout, components
contiguous per point).  The metric is the one wrapped field: a
``MetricField`` holds the ``n*(n+1)//2`` lexicographic (i <= j) packed
components and caches its dense (n, n) form, inverse and volume factor.

Differentiation defaults to 4th-order centered stencils; second derivatives
are compositions of first-derivative stencils, so mixed partials commute to
roundoff.  Inputs of 2^20 elements or more (an 8 MB field) run the same
stencil slab by slab, cut along axis 0 (axis 1 when differentiating along
axis 0), so the ghost copy and the temporaries of one slab stay in L2 cache;
the results are bit-identical to the one-shot stencil, which scalar fields
of the usual grid sizes keep.  A spectral scheme is available behind the
chart's ``scheme`` switch.  Integration is the plain point sum times the
cell volume, which is spectrally accurate on periodic grids and makes the
discrete divergence theorem hold to roundoff (the stencil telescopes over
each periodic axis).

The Laplace-Beltrami operator is applied in flux form,
(1/sqrt(det g)) sum_a D_a(sqrt(det g) g^{ab} D_b u).  Its coefficient
sqrt(det g) g^{ab} is formed once per metric as a ``FluxForm``: the packed
(a <= b) components, each a contiguous grid array.  An apply is then n
derivatives of u, contiguous multiply-adds for each flux component, n
derivatives back and one division by sqrt(det g).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Chart",
    "MetricField",
    "FluxForm",
    "make_chart",
    "deriv",
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
    def shape(self) -> tuple[int, ...]:
        return self.sizes

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
        if size < 8 or size % 2 != 0:
            raise ChartError(f"axis {a}: size must be even and >= 8, got {size}")
    for a, length in enumerate(lengths):
        if not np.isfinite(length) or length <= 0:
            raise ChartError(f"axis {a}: length must be positive, got {length}")
    if scheme not in _SCHEMES:
        raise ChartError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    return Chart(n=int(n), sizes=sizes, lengths=lengths, scheme=scheme)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def _ghost_shifts(arr: np.ndarray, axis: int):
    """Periodic shifts by -2..2 along ``axis``, as slices of one copy padded
    with two ghost cells at each end: ``shifted(s)[i] == arr[i + s]``."""
    size = arr.shape[axis]
    ext = np.take(arr, np.arange(-2, size + 2) % size, axis=axis)
    lead = (slice(None),) * axis

    def shifted(s: int) -> np.ndarray:
        return ext[lead + (slice(2 + s, 2 + s + size),)]

    return shifted


#: inputs of at least this many elements are differentiated slab by slab
_SLAB_MIN = 1 << 20


def _stencil_fd4(arr: np.ndarray, axis: int, spacing: float, out=None) -> np.ndarray:
    # 5-point centered stencil on the ghost-cell shifts
    shifted = _ghost_shifts(arr, axis)
    out = np.subtract(shifted(1), shifted(-1), out=out)
    out *= 8.0
    out -= np.subtract(shifted(2), shifted(-2))
    out /= 12.0 * spacing
    return out


def _deriv_fd4(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """fd4 derivative; large inputs run the same stencil on one-index slabs
    of a grid axis other than ``axis``, so results are bit-identical."""
    if arr.size < _SLAB_MIN:
        return _stencil_fd4(arr, axis, spacing)
    cut = 1 if axis == 0 else 0
    out = np.empty(arr.shape)
    lead = (slice(None),) * cut
    for i in range(arr.shape[cut]):
        sl = lead + (slice(i, i + 1),)
        _stencil_fd4(arr[sl], axis, spacing, out=out[sl])
    return out


def _deriv_spectral(arr: np.ndarray, axis: int, size: int, length: float) -> np.ndarray:
    k = np.fft.rfftfreq(size, d=length / size) * 2.0 * np.pi
    k[-1] = 0.0  # drop the odd Nyquist mode
    shape = [1] * arr.ndim
    shape[axis] = k.size
    spec = np.fft.rfft(arr, axis=axis)
    spec *= 1j * k.reshape(shape)
    return np.fft.irfft(spec, n=size, axis=axis)


def _grid_broadcast(chart: Chart, arr: np.ndarray) -> np.ndarray:
    """Expand degenerate leading axes (from sparse meshes) to full grid shape."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim < chart.n:
        raise FieldError(
            f"array with {arr.ndim} axes cannot cover a {chart.n}-axis grid"
        )
    lead = arr.shape[: chart.n]
    if lead == chart.sizes:
        return arr
    for a, (have, want) in enumerate(zip(lead, chart.sizes)):
        if have not in (1, want):
            raise FieldError(
                f"axis {a}: grid extent {have} incompatible with chart size {want}"
            )
    return np.broadcast_to(arr, chart.sizes + arr.shape[chart.n :])


def deriv(chart: Chart, arr: np.ndarray, axis: int) -> np.ndarray:
    """Partial derivative of a raw array along a chart axis.

    Component axes may trail the grid axes; ``axis`` always refers to the
    grid axis.  Degenerate leading axes broadcast to full grid shape first,
    so fields built from sparse meshes differentiate correctly.
    """
    if not 0 <= axis < chart.n:
        raise FieldError(f"axis must be in [0, {chart.n}), got {axis}")
    arr = _grid_broadcast(chart, arr)
    if chart.scheme == "spectral":
        return _deriv_spectral(arr, axis, chart.sizes[axis], chart.lengths[axis])
    return _deriv_fd4(arr, axis, chart.spacings[axis])


def gradient(chart: Chart, arr: np.ndarray) -> np.ndarray:
    """Stack of partial derivatives, component axis last."""
    return np.stack([deriv(chart, arr, a) for a in range(chart.n)], axis=-1)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _check_grid_shape(chart: Chart, data: np.ndarray, extra: tuple[int, ...], kind: str):
    expected = chart.sizes + extra
    if data.shape != expected:
        raise FieldError(f"{kind}: expected shape {expected}, got {data.shape}")


def _coerce_grid_shape(chart: Chart, data, extra: tuple[int, ...], kind: str):
    """As _check_grid_shape, but degenerate leading axes broadcast up."""
    data = np.asarray(data, dtype=float)
    expected = chart.sizes + extra
    if data.shape == expected:
        return data
    if data.ndim == len(expected) and data.shape[chart.n :] == extra:
        try:
            return np.array(np.broadcast_to(data, expected))
        except ValueError:
            pass
    raise FieldError(f"{kind}: expected shape {expected}, got {data.shape}")


def sym2_pack_indices(n: int) -> list[tuple[int, int]]:
    """Lexicographic (i <= j) component order for symmetric 2-tensors."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym2_pack(dense: np.ndarray, n: int) -> np.ndarray:
    idx = sym2_pack_indices(n)
    return np.stack([dense[..., i, j] for i, j in idx], axis=-1)


def sym2_unpack(packed: np.ndarray, n: int) -> np.ndarray:
    out = np.empty(packed.shape[:-1] + (n, n), dtype=packed.dtype)
    for c, (i, j) in enumerate(sym2_pack_indices(n)):
        out[..., i, j] = packed[..., c]
        out[..., j, i] = packed[..., c]
    return out


@dataclass
class MetricField:
    """SPD metric field, stored deduplicated (i <= j components), with cached
    dense form, inverse and volume factors."""

    chart: Chart
    packed: np.ndarray  # (*sizes, n*(n+1)//2)

    def __post_init__(self):
        n = self.chart.n
        self.packed = _coerce_grid_shape(
            self.chart, self.packed, (n * (n + 1) // 2,), "MetricField"
        )
        self._check_spd()

    @classmethod
    def from_dense(cls, chart: Chart, dense: np.ndarray):
        """Metric from dense (*sizes, n, n) components, symmetric to 1e-12."""
        dense = _coerce_grid_shape(
            chart, dense, (chart.n, chart.n), "MetricField dense input"
        )
        skew = np.max(np.abs(dense - np.swapaxes(dense, -1, -2)))
        scale = max(np.max(np.abs(dense)), 1e-300)
        if skew > 1e-12 * scale:
            raise FieldError(
                f"dense input is not symmetric: max skew {skew:.3e} vs scale {scale:.3e}"
            )
        return cls(chart, sym2_pack(dense, chart.n))

    @cached_property
    def dense(self) -> np.ndarray:
        return sym2_unpack(self.packed, self.chart.n)

    def _check_spd(self):
        g = self.dense
        try:
            np.linalg.cholesky(g)
            return
        except np.linalg.LinAlgError:
            pass
        # Locate the first offending point for the error message.
        eigmin = np.linalg.eigvalsh(g)[..., 0]
        bad = np.argwhere(eigmin <= 0)
        where = tuple(int(i) for i in bad[0]) if len(bad) else "unknown"
        raise FieldError(
            f"metric is not positive definite at grid point {where} "
            f"(min eigenvalue {float(np.min(eigmin)):.3e})"
        )

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.dense)

    @cached_property
    def det(self) -> np.ndarray:
        return np.linalg.det(self.dense)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return np.sqrt(self.det)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def integrate(chart: Chart, f, density) -> float:
    """Point-sum quadrature of ``f`` against a positive density.

    The density is the discrete volume element (for a metric, its
    ``sqrt_det``); pass 1.0 for the coordinate measure.
    """
    fd = np.asarray(f, dtype=float)
    dens = np.asarray(density, dtype=float)
    if dens.ndim == 0:
        if dens <= 0:
            raise FieldError(f"density must be positive, got {float(dens)}")
    else:
        if np.min(dens) <= 0:
            bad = np.argwhere(dens <= 0)[0]
            raise FieldError(
                f"density must be positive everywhere, first violation at "
                f"{tuple(int(i) for i in bad)}"
            )
    return float(np.sum(fd * dens) * chart.cell_volume)


# ---------------------------------------------------------------------------
# the flux-form Laplacian


@dataclass(frozen=True, eq=False)
class FluxForm:
    """Coefficient sqrt(det g) g^{ab} of the flux-form Laplacian of a metric.

    ``coefficient[c]`` is the c-th packed (a <= b) component, each a
    contiguous grid array, so an apply is whole-array multiply-adds.  Form
    it once per metric and hand it to every apply; ``flux_laplacian`` forms
    one itself when given the metric.
    """

    chart: Chart
    sqrt_det: np.ndarray
    coefficient: np.ndarray  # (n*(n+1)//2, *sizes)

    @classmethod
    def of(cls, g: MetricField) -> FluxForm:
        inv = g.inverse
        pairs = sym2_pack_indices(g.chart.n)
        coef = np.empty((len(pairs),) + g.chart.sizes)
        # one axis-0 slab at a time, so the strided reads of g^{-1} stay in cache
        for i in range(g.chart.sizes[0]):
            for c, (a, b) in enumerate(pairs):
                np.multiply(g.sqrt_det[i], inv[i, ..., a, b], out=coef[c, i])
        return cls(g.chart, g.sqrt_det, coef)

    def component(self, a: int, b: int) -> np.ndarray:
        """sqrt(det g) g^{ab} for any index order."""
        a, b = min(a, b), max(a, b)
        # rows 0..a-1 of the packed order hold n + (n-1) + ... + (n-a+1) slots
        return self.coefficient[a * self.chart.n - a * (a - 1) // 2 + b - a]


def _flux_divergence(form: FluxForm, vec: list[np.ndarray]) -> np.ndarray:
    """sum_a D_a(sum_b sqrt(det g) g^{ab} vec_b), one flux component at a time."""
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


def flux_laplacian(g: MetricField | FluxForm, u: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator in flux form on raw scalar data.

    (1/sqrt(det g)) sum_a D_a(sqrt(det g) g^{ab} D_b u); pass a ``FluxForm``
    to reuse its coefficient across applies.
    """
    form = g if isinstance(g, FluxForm) else FluxForm.of(g)
    du = [deriv(form.chart, u, b) for b in range(form.chart.n)]
    out = _flux_divergence(form, du)
    out /= form.sqrt_det
    return out
