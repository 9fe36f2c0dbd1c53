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

from .curvature import curvature_bundle
from .grid import FieldError, FluxForm, MetricField, flux_laplacian
from .tensor import riemann_norm

__all__ = [
    "ConformalParams",
    "u_to_psi",
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


def u_to_psi(u: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(u, dtype=float) ** (4.0 / (n - 2))


def _as_positive(name: str, arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if np.min(arr) <= 0:
        bad = tuple(int(i) for i in np.unravel_index(int(np.argmin(arr)), arr.shape))
        raise FieldError(
            f"{name} must be positive everywhere, min {float(np.min(arr)):.3e} "
            f"at grid point {bad}"
        )
    return arr


def scalar_weyl(g: MetricField, t: float, bundle=None) -> np.ndarray:
    """Pointwise F = R + t |W|_g; pass ``bundle`` to reuse the curvature
    stack of ``g``."""
    if bundle is None:
        bundle = curvature_bundle(g)
    return bundle.scal + t * riemann_norm(bundle.W.pair, g.inverse)


def conformal_metric(g: MetricField, u: np.ndarray) -> MetricField:
    """Rescaled metric psi g, psi = u^{4/(n-2)}, for positive u.

    Its inverse g^{-1} / psi and volume factor psi^{n/2} sqrt(det g) come in
    closed form from those of ``g``.
    """
    u = _as_positive("conformal factor u", u)
    n = g.chart.n
    psi = u_to_psi(u, n)
    out = MetricField(g.chart, psi[..., None] * g.packed)
    out.inverse = g.inverse / psi[..., None, None]
    out.sqrt_det = psi ** (0.5 * n) * g.sqrt_det
    return out


def modified_laplacian_apply(
    g: MetricField | FluxForm,
    t: float,
    phi: np.ndarray,
    F: np.ndarray | None = None,
) -> np.ndarray:
    """Apply L phi = -a_n Lap_g phi + F phi.

    Pass ``F`` to reuse a precomputed curvature functional (the solver does,
    many thousands of times); otherwise it is computed from ``g``.  A
    ``FluxForm`` of g serves for g once ``F`` is given.
    """
    params = ConformalParams(t, g.chart.n)
    if F is None:
        if isinstance(g, FluxForm):
            raise ValueError("a FluxForm carries no curvature; pass F")
        F = scalar_weyl(g, t)
    phi = np.asarray(phi, dtype=float)
    return -params.a_n * flux_laplacian(g, phi) + F * phi
