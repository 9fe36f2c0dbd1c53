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
from .grid import (
    Chart,
    CovectorField,
    FieldError,
    MetricField,
    divergence_total,
    gradient,
    integrate,
    sym2_pack,
)
from .tensor import (
    Riem4Field,
    kulkarni_nomizu,
    pair_contract,
    pair_lift,
    riemann_norm,
    vv_contract,
)

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
    hup = np.einsum("...ab,...bc->...ac", h, inv)  # mixed h_a{}^c
    h2 = np.einsum("...ab,...ab->...", hup, np.einsum("...ab,...bc->...ac", inv, h))
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
    hup = np.einsum("...ab,...bc->...ac", h, g.inverse)  # mixed h_a{}^c
    hh = np.einsum("...ac,...cb->...ab", hup, h)  # (h g^{-1} h)_ab
    return {
        "gdense": g.dense,
        "F2": grad[..., :, None] * grad[..., None, :],
        "h": h,
        "S": vv_contract(bundle.base.riem, ing["fup"]),
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
    n = bundle.n
    ing = _scalar_ingredients(bundle)
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
    mat = kulkarni_nomizu(firsts.pop(first), seconds[first], n)
    for b in rest:
        mat += kulkarni_nomizu(firsts.pop(b), seconds[b], n)
    return Riem4Field(bundle.chart, mat)


def deformed_scalar_closed_form(bundle: DeformationBundle) -> np.ndarray:
    """Scalar curvature of g + df (x) df from the four-term closed form."""
    ing = _scalar_ingredients(bundle)
    w = bundle.w
    return (
        bundle.base.scal
        - 2.0 * ing["rvv"] / w
        + ing["c7"] / w
        - 2.0 * ing["c10"] / w**2
    )


def scalar_divergence_identity(bundle: DeformationBundle) -> tuple[float, float]:
    """Residuals of the divergence form of the deformed scalar curvature.

    Returns ``(pointwise, integral)``: the pointwise gap between the closed
    form and the divergence form R - R_ab f^a f^b / w + div(V), and the
    defect of the global identity int R' dV = int R dV - int R_ab f^a f^b / w dV,
    evaluated with the flux-form divergence so it vanishes to roundoff.
    """
    chart = bundle.chart
    g = bundle.base.g
    ing = _scalar_ingredients(bundle)
    w = bundle.w
    v = (ing["lap"][..., None] * bundle.grad - ing["u"]) / w[..., None]

    closed = deformed_scalar_closed_form(bundle)

    vup = np.einsum("...ab,...b->...a", g.inverse, v)
    from .grid import deriv

    div_pt = 0.0
    for a in range(chart.n):
        div_pt = div_pt + deriv(chart, g.sqrt_det * vup[..., a], a)
    div_pt = div_pt / g.sqrt_det
    div_form = bundle.base.scal - ing["rvv"] / w + div_pt
    pointwise = float(np.max(np.abs(closed - div_form)))

    integral = abs(divergence_total(CovectorField(chart, v), g))
    return pointwise, integral


def _frame_lifts(inv: np.ndarray, v_cov: np.ndarray):
    """Split pair lifts along the direction of a covector: tangential
    projector block, mixed block, and the stretch factor D = 1 + |v|^2."""
    vup = np.einsum("...ab,...b->...a", inv, v_cov)
    s2 = np.einsum("...a,...a->...", v_cov, vup)
    big = s2 > 0
    unit = np.zeros_like(vup)
    np.divide(vup, np.sqrt(s2)[..., None], out=unit, where=big[..., None])
    what = unit[..., :, None] * unit[..., None, :]
    p = inv - what
    n = inv.shape[-1]
    return pair_lift(p, p, n), pair_lift(p, what, n), 1.0 + s2


def deformed_norm(
    T,
    g: MetricField,
    phi,
    k: float = 1.0,
    method: str = "closed_inverse",
    grad: np.ndarray | None = None,
) -> np.ndarray:
    """Pointwise norm of a curvature-type tensor under g + d(k phi) (x) d(k phi).

    ``closed_inverse`` contracts with the rank-one-downdated inverse;
    ``frame_split`` decomposes along the gradient direction into tangential,
    once-contracted and twice-contracted blocks weighted 1, 4/D, 4/D^2 with
    D = 1 + k^2 |grad phi|^2.  The two agree identically; both are kept as
    independent paths for the oracle tests.
    """
    chart = g.chart
    if grad is None:
        grad = gradient(chart, np.asarray(phi, dtype=float))
    v = k * grad
    mat = T.pair if isinstance(T, Riem4Field) else np.asarray(T)
    if method == "closed_inverse":
        vup = np.einsum("...ab,...b->...a", g.inverse, v)
        d = 1.0 + np.einsum("...a,...a->...", v, vup)
        binv = g.inverse - vup[..., :, None] * vup[..., None, :] / d[..., None, None]
        kk = pair_lift(binv, binv, chart.n)
        val = pair_contract(mat, mat, kk, kk)
    elif method == "frame_split":
        lpp, lpw, d = _frame_lifts(g.inverse, v)
        dd = d[..., None, None]
        tang = pair_contract(mat, mat, lpp, lpp)
        mix = pair_contract(mat, mat, lpp, lpw) + pair_contract(mat, mat, lpw, lpp)
        radrad = pair_contract(mat, mat, lpw, lpw)
        val = tang + 2.0 * mix / d + 4.0 * radrad / d**2
    else:
        raise ValueError("method must be 'closed_inverse' or 'frame_split'")
    return np.sqrt(np.maximum(val, 0.0))


def weyl_error_conformal_residual(g: MetricField, psi, k: float) -> float:
    """Residual of the scaling law tying the error tensors of a conformal
    pair: E of (psi g, k psi) against psi * E of (g, 2k sqrt(psi))."""
    psi = np.asarray(psi, dtype=float)
    if np.min(psi) <= 0:
        bad = tuple(int(i) for i in np.unravel_index(int(np.argmin(psi)), psi.shape))
        raise FieldError(
            f"conformal factor must be positive everywhere, min "
            f"{float(np.min(psi)):.3e} at grid point {bad}"
        )
    chart = g.chart
    scaled = MetricField(chart, psi[..., None] * g.packed)
    lhs = weyl_error(deform(scaled, k * psi)).pair
    # the (0,4) tensor picks up one power of the factor, same direction as
    # the Weyl scaling checked in conformal.formula_check
    rhs = psi[..., None, None] * weyl_error(deform(g, 2.0 * k * np.sqrt(psi))).pair
    return float(np.max(np.abs(lhs - rhs)))


def deformation_energy(
    g: MetricField,
    phi,
    t: float,
    base: CurvatureBundle | None = None,
    grad: np.ndarray | None = None,
    hess: np.ndarray | None = None,
    include_weyl: bool = True,
) -> float:
    """Integral functional whose negativity certifies that the conformal
    class of g + d(phi) (x) d(phi) contains a constant-curvature
    representative: undeformed scalar and Weyl terms measured in the
    deformed norm, the error-tensor norm, a Ricci correction, and the
    Hessian correction from the conformal factor (1+|grad phi|^2)^{-1/4}.

    Closed-form ``grad``/``hess`` substitute for the stencils as in
    :func:`deform`.  ``include_weyl=False`` drops both curvature-norm terms,
    leaving the scalar-curvature functional; t is then ignored (for t <= 0
    the dropped terms are nonpositive, so the scalar value is an upper
    bound).
    """
    if include_weyl and t <= 0:
        raise ValueError("the deformation functional is only defined for t > 0")
    chart = g.chart
    phi = np.asarray(phi, dtype=float)
    bundle = deform(g, phi, grad=grad, hess=hess, base=base)
    n, w = chart.n, bundle.w
    dens = bundle.base.g.sqrt_det

    if include_weyl:
        wnorm = deformed_norm(bundle.base.W, g, phi, grad=bundle.grad)
        enorm = deformed_norm(weyl_error(bundle), g, phi, grad=bundle.grad)
        i1 = integrate(chart, bundle.base.scal + t * wnorm, dens)
        i2 = t * integrate(chart, enorm, dens)
    else:
        i1 = integrate(chart, bundle.base.scal, dens)
        i2 = 0.0

    ing = _scalar_ingredients(bundle)
    i3 = -integrate(chart, ing["rvv"] / w, dens)
    i4 = ((n - 1.0) / (n - 2.0)) * integrate(
        chart, ing["u2"] / w**2 - ing["beta"] ** 2 / w**3, dens
    )
    return i1 + i2 + i3 + i4
