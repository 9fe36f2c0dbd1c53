"""Conformal machinery: the curvature functional F = R + t |W| and the
modified Laplacian L phi = -a_n Lap phi + F phi.

A conformal factor u > 0 rescales the metric to u^{4/(n-2)} g (the power
convention, with multiplier psi = u^{4/(n-2)}).  Under that rescaling L is
covariant: L of the rescaled metric equals conjugation by u up to the
critical exponent p_n = (n+2)/(n-2), so F of the rescaled metric is
u^{-p_n} L u.  The tests check this law and the pointwise transformation
laws of the curvature against a direct recomputation on the rescaled metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBundle, curvature_scalars
from .grid import FieldError, FluxForm, MetricField, flux_laplacian

__all__ = [
    "ConformalParams",
    "scalar_weyl",
    "conformal_metric",
    "modified_laplacian_apply",
]


@dataclass(frozen=True)
class ConformalParams:
    """Coupling t and the dimension-dependent constants of L."""

    t: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"dimension must be >= 3, got {self.n}")

    @property
    def a_n(self) -> float:
        return 4.0 * (self.n - 1) / (self.n - 2)

    @property
    def p_n(self) -> float:
        return (self.n + 2) / (self.n - 2)


def _as_positive(name: str, arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    # a NaN entry fails too
    if not np.min(arr) > 0:
        bad = tuple(int(i) for i in np.argwhere(~(arr > 0))[0])
        raise FieldError(
            f"{name} must be positive everywhere, first violation "
            f"{float(arr[bad]):.3e} at grid point {bad}"
        )
    return arr


def scalar_weyl(g: MetricField, t: float, bundle: CurvatureBundle | None = None) -> np.ndarray:
    """Pointwise F = R + t |W|_g.

    Without ``bundle``, the curvature stack runs slab by slab along axis 0
    and keeps only R and |W|^2 (``curvature_scalars``): each slab forms its
    Riemann, Ricci and Weyl fields from a window of Christoffel symbols,
    the slab's planes with two ghost planes past each end, which its axis-0
    derivative reads.  The result is bit-identical to reading a
    ``CurvatureBundle`` of ``g``, which ``bundle`` reuses.
    """
    scal, wnorm2 = curvature_scalars(g, bundle)
    return scal + t * np.sqrt(wnorm2)


def conformal_metric(g: MetricField, u: np.ndarray) -> MetricField:
    """Rescaled metric psi g, psi = u^{4/(n-2)}, for positive u.

    Its inverse g^{-1} / psi and volume factor psi^{n/2} sqrt(det g) come in
    closed form from those of ``g``.
    """
    u = _as_positive("conformal factor u", u)
    n = g.chart.n
    psi = u ** (4.0 / (n - 2))
    out = MetricField(g.chart, psi[..., None] * g.packed)
    out.inverse = g.inverse / psi[..., None, None]
    out.sqrt_det = psi ** (0.5 * n) * g.sqrt_det
    return out


def modified_laplacian_apply(
    g: MetricField | FluxForm, phi: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """Apply L phi = -a_n Lap_g phi + F phi.

    ``F`` is the curvature functional, formed once by the caller
    (``scalar_weyl``, or a coefficient that overrides geometry) and reused
    for every apply, many thousands of times in the solver, so the coupling
    t enters only through it; a_n depends on the dimension alone.  ``g``
    may be a ``FluxForm`` of the metric.
    """
    n = g.chart.n
    a_n = 4.0 * (n - 1) / (n - 2)
    phi = np.asarray(phi, dtype=float)
    return -a_n * flux_laplacian(g, phi) + F * phi
