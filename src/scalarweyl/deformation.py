"""Graph-type metric deformations g' = g + df (x) df.

Adding the square of an exact 1-form to a metric changes its curvature in
closed form: the volume element picks up a factor w^{1/2} with
w = 1 + |grad f|^2, the inverse metric is a rank-one update, the scalar
curvature changes by four explicit terms, and the (0,4) Weyl tensor changes
by an error tensor built from fifteen Kulkarni-Nomizu blocks in the Hessian
and curvature of the undeformed metric.  Everything here is assembled from
those closed forms; the direct curvature pipeline applied to g' serves as
the oracle in the tests.

Index bookkeeping: ``grad`` holds the covariant components f_a (coordinate
partials), ``hess`` the covariant Hessian with respect to the undeformed
metric, and raised objects are produced on the fly with g^{-1}.  Every
block's second Kulkarni-Nomizu factor is h, g or df (x) df; the product is
bilinear, so the error tensor is assembled in pair storage from one product
per second factor, whose first factor is the coefficient-weighted sum of
the first factors of that group's blocks.

The ingredients come in two parts.  The scalar ingredients (the raised
gradient, the Laplacian and the Hessian and Ricci contractions against it)
feed the scalar closed form, the energy and the block coefficients; only
the error tensor needs the (n, n) Kulkarni-Nomizu factors S, Q, V and
df (x) df, so only ``weyl_error`` builds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBundle, curvature_bundle, hessian
from .grid import Chart, MetricField, gradient, integrate, sym2_pack
from .tensor import Riem4Field, kulkarni_nomizu, riemann_norm, vv_contract

BLOCK_COUNT = 15


@dataclass(frozen=True)
class DeformationBundle:
    """Undeformed curvature stack plus the derivative data of the deforming
    function, with the deformed metric built once."""

    base: CurvatureBundle
    f: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    w: np.ndarray
    g_prime: MetricField

    @property
    def chart(self) -> Chart:
        return self.base.g.chart

    @property
    def n(self) -> int:
        return self.base.g.chart.n


def deform(
    g: MetricField,
    f,
    grad: np.ndarray | None = None,
    hess: np.ndarray | None = None,
    base: CurvatureBundle | None = None,
) -> DeformationBundle:
    """Bundle for the deformation g' = g + df (x) df.

    ``grad`` and ``hess`` (covariant Hessian) may substitute analytic
    derivatives for the stencil ones; with both supplied the bundle is exact
    for closed-form test fields.
    """
    if base is None:
        base = curvature_bundle(g)
    elif base.g is not g:
        raise ValueError("curvature bundle was computed for a different metric")
    chart = g.chart
    f = np.asarray(f, dtype=float)
    if grad is None:
        grad = gradient(chart, f)
    if hess is None:
        hess = hessian(chart, base.gamma, f, grad=grad)
    fup = np.einsum("...ab,...b->...a", g.inverse, grad)
    w = 1.0 + np.einsum("...a,...a->...", grad, fup)
    packed = g.packed + sym2_pack(grad[..., :, None] * grad[..., None, :], chart.n)
    g_prime = MetricField(chart, packed)
    return DeformationBundle(base=base, f=f, grad=grad, hess=hess, w=w, g_prime=g_prime)


def deformed_inverse(g: MetricField, grad: np.ndarray) -> np.ndarray:
    """Closed-form inverse of g + df (x) df: the rank-one downdate
    g^{ab} - f^a f^b / (1 + |grad f|^2)."""
    fup = np.einsum("...ab,...b->...a", g.inverse, grad)
    w = 1.0 + np.einsum("...a,...a->...", grad, fup)
    return g.inverse - fup[..., :, None] * fup[..., None, :] / w[..., None, None]


def _scalar_ingredients(bundle: DeformationBundle) -> dict:
    """Pointwise scalars of the closed forms, plus the raised gradient
    ``fup`` and ``u = h(., fup)``."""
    inv = bundle.base.g.inverse
    h = bundle.hess
    fup = np.einsum("...ab,...b->...a", inv, bundle.grad)
    lap = np.einsum("...ab,...ab->...", inv, h)
    hup = np.matmul(h, inv)  # mixed h_a{}^c
    h2 = np.einsum("...ab,...ab->...", hup, np.matmul(inv, h))
    u = np.einsum("...ab,...b->...a", h, fup)
    beta = np.einsum("...a,...a->...", u, fup)
    u2 = np.einsum("...a,...ab,...b->...", u, inv, u)
    return {
        "fup": fup,
        "lap": lap,
        "u": u,
        "beta": beta,
        "u2": u2,
        "rvv": np.einsum("...ab,...a,...b->...", bundle.base.ric, fup, fup),
        "c7": lap**2 - h2,
        "c10": lap * beta - u2,
    }


def _kn_factors(bundle: DeformationBundle, ing: dict) -> dict:
    """Kulkarni-Nomizu factors of the fifteen blocks, by block-table name."""
    g = bundle.base.g
    h = bundle.hess
    grad = bundle.grad
    u = ing["u"]
    hh = np.matmul(np.matmul(h, g.inverse), h)  # (h g^{-1} h)_ab
    return {
        "gdense": g.dense,
        "F2": grad[..., :, None] * grad[..., None, :],
        "h": h,
        "S": vv_contract(bundle.base.riem.pair, ing["fup"]),
        "Q": ing["lap"][..., None, None] * h - hh,
        "V": ing["beta"][..., None, None] * h - u[..., :, None] * u[..., None, :],
        "ric": bundle.base.ric,
    }


def _block_table(
    ing: dict, scal: np.ndarray, w: np.ndarray, n: int
) -> list[tuple[np.ndarray, str, str]]:
    """Coefficient field and factor names for each of the fifteen blocks."""
    cn2 = 1.0 / (n - 2.0)
    cnn = 1.0 / ((n - 1.0) * (n - 2.0))
    one = np.ones_like(w)
    return [
        (0.5 / w, "h", "h"),
        # the Ricci block enters with a minus sign: the plus variant fails
        # the direct Weyl-difference oracle (coefficient fit lands on -1.0)
        (-cn2 * one, "ric", "F2"),
        (cnn * scal, "gdense", "F2"),
        (cn2 / w, "S", "gdense"),
        (cn2 / w, "S", "F2"),
        (-cnn * ing["rvv"] / w, "gdense", "gdense"),
        (-2.0 * cnn * ing["rvv"] / w, "gdense", "F2"),
        (-cn2 / w, "Q", "gdense"),
        (-cn2 / w, "Q", "F2"),
        (0.5 * cnn * ing["c7"] / w, "gdense", "gdense"),
        (cnn * ing["c7"] / w, "gdense", "F2"),
        (cn2 / w**2, "V", "gdense"),
        (cn2 / w**2, "V", "F2"),
        (-cnn * ing["c10"] / w**2, "gdense", "gdense"),
        (-2.0 * cnn * ing["c10"] / w**2, "gdense", "F2"),
    ]


def weyl_error(
    bundle: DeformationBundle,
    include=None,
    flip_block: int | None = None,
) -> Riem4Field:
    """Change of the (0,4) Weyl tensor under the deformation, in closed form.

    ``include`` restricts assembly to a subset of the fifteen blocks
    (1-based, display order) for isolation tests.  ``flip_block`` negates one
    block; the flagship identity test must then fail, which is how the
    verification pipeline proves it is alive.
    """
    return _weyl_error(bundle, _scalar_ingredients(bundle), include, flip_block)


def _weyl_error(bundle, ing, include=None, flip_block=None) -> Riem4Field:
    """``weyl_error`` on scalar ingredients the caller already holds."""
    n = bundle.n
    table = _block_table(ing, bundle.base.scal, bundle.w, n)
    if include is None:
        picked = set(range(1, BLOCK_COUNT + 1))
    else:
        picked = set(include)
        if not picked <= set(range(1, BLOCK_COUNT + 1)):
            raise ValueError(f"block indices must lie in 1..{BLOCK_COUNT}")
    if flip_block is not None and flip_block not in range(1, BLOCK_COUNT + 1):
        raise ValueError(f"flip_block must lie in 1..{BLOCK_COUNT}")

    # one product per second factor, of the summed weighted first factors
    factors = _kn_factors(bundle, ing)
    firsts: dict[str, np.ndarray] = {}
    for idx, (coeff, a, b) in enumerate(table, start=1):
        if idx not in picked:
            continue
        c = -coeff if idx == flip_block else coeff
        if b in firsts:
            firsts[b] += c[..., None, None] * factors[a]
        else:
            firsts[b] = c[..., None, None] * factors[a]
    if not firsts:
        raise ValueError("no blocks selected")
    # drop S, Q and V: only the second factors stay alive through the products
    seconds = {b: factors[b] for b in firsts}
    del factors
    first, *rest = seconds
    mat = kulkarni_nomizu(firsts.pop(first), seconds[first])
    for b in rest:
        mat += kulkarni_nomizu(firsts.pop(b), seconds[b])
    return Riem4Field(bundle.chart, mat)


def deformed_scalar_closed_form(bundle: DeformationBundle) -> np.ndarray:
    """Scalar curvature of g + df (x) df from the four-term closed form."""
    return _scalar_closed_form(bundle, _scalar_ingredients(bundle))


def _scalar_closed_form(bundle: DeformationBundle, ing: dict) -> np.ndarray:
    w = bundle.w
    return (
        bundle.base.scal
        - 2.0 * ing["rvv"] / w
        + ing["c7"] / w
        - 2.0 * ing["c10"] / w**2
    )


def deformed_norm(
    mat: np.ndarray, g: MetricField, phi, grad: np.ndarray | None = None
) -> np.ndarray:
    """Pointwise norm of curvature-type pair matrices under
    g + d(phi) (x) d(phi), contracted with the closed-form inverse of
    :func:`deformed_inverse`.  ``grad`` substitutes analytic first
    derivatives of ``phi``."""
    if grad is None:
        grad = gradient(g.chart, np.asarray(phi, dtype=float))
    return riemann_norm(mat, deformed_inverse(g, grad))


def _ricci_hessian_blocks(bundle: DeformationBundle, ing: dict) -> tuple[float, float]:
    """The Ricci block -int Ric(f^, f^) / w dV and the Hessian block
    (n-1)/(n-2) int (|u|^2 / w^2 - beta^2 / w^3) dV, over the undeformed
    volume, of the deformation functionals."""
    chart, w = bundle.chart, bundle.w
    dens = bundle.base.g.sqrt_det
    ricci = -integrate(chart, ing["rvv"] / w, dens)
    hess = ((bundle.n - 1.0) / (bundle.n - 2.0)) * integrate(
        chart, ing["u2"] / w**2 - ing["beta"] ** 2 / w**3, dens
    )
    return ricci, hess


def deformation_energy(
    g: MetricField,
    phi,
    t: float,
    base: CurvatureBundle | None = None,
    grad: np.ndarray | None = None,
    hess: np.ndarray | None = None,
) -> float:
    """Integral functional whose negativity certifies that the conformal
    class of g + d(phi) (x) d(phi) contains a constant-curvature
    representative: undeformed scalar and Weyl terms measured in the
    deformed norm, the error-tensor norm, a Ricci correction, and the
    Hessian correction from the conformal factor (1+|grad phi|^2)^{-1/4}.

    Closed-form ``grad``/``hess`` substitute for the stencils as in
    :func:`deform`.
    """
    if t <= 0:
        raise ValueError("the deformation functional is only defined for t > 0")
    chart = g.chart
    phi = np.asarray(phi, dtype=float)
    bundle = deform(g, phi, grad=grad, hess=hess, base=base)
    dens = bundle.base.g.sqrt_det
    ing = _scalar_ingredients(bundle)

    wnorm = deformed_norm(bundle.base.W.pair, g, phi, grad=bundle.grad)
    enorm = deformed_norm(_weyl_error(bundle, ing).pair, g, phi, grad=bundle.grad)
    i1 = integrate(chart, bundle.base.scal + t * wnorm, dens)
    i2 = t * integrate(chart, enorm, dens)
    i3, i4 = _ricci_hessian_blocks(bundle, ing)
    return i1 + i2 + i3 + i4
