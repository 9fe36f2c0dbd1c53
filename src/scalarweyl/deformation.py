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
metric, and raised objects are produced on the fly with g^{-1}.  Symmetric
2-tensor fields follow ``grid``'s one layout rule: the whole-grid ones (g,
g^{-1}, Ricci, ``hess``) are packed, and each part unpacks the planes it
reads once, in ``_scalar_ingredients``, into the dense (n, n) form that the
closed forms and the ``tensor`` kernels take.  The Hessian's Christoffel
term comes from the curvature stack's windows of symbols, part by part.
``deform`` takes one of two routes: without a curvature bundle, the sweep
that forms the bundle contracts the symbols too; given one, ``hessian``
streams them once more.  No whole-grid Christoffel field is formed.  Every
block's second Kulkarni-Nomizu factor is h, g or df (x) df; the product is
bilinear, so the error tensor is assembled in pair storage from one product
per second factor, whose first factor is the coefficient-weighted sum of the
first factors of that group's blocks.  ``weyl_error`` always sums all
fifteen blocks; the tests' whole-field oracle assembles any subset of the
same table.

The ingredients come in two parts.  The scalar ingredients (the raised
gradient and w, both from ``_raised``, the Laplacian and the Hessian and
Ricci contractions against the raised gradient) feed the scalar closed
form, the energy and the block coefficients; only the error tensor needs
the (n, n) Kulkarni-Nomizu factors S, Q, V and df (x) df.  The Riemann
tensor of g enters only through S_ik = Riem_{ipkq} f^p f^q, and the
curvature bundle keeps W, not Riemann: with Riem = W + KN(P, g), P the
Schouten tensor of Ricci and R, S is the 1-3 trace of W against
f^ (x) f^ plus the closed form |f^|^2 P + P(f^, f^) g - (P f^) (x) df
- df (x) (P f^) (``_riemann_vv``).

Every closed form is pointwise, so it runs in the curvature stack's slabs
of axis-0 planes, each split among the workers (``curvature._each_part``):
the ingredients, the factors and the block products exist for one part at
a time, and each part writes its planes of the whole-grid outputs (the
error tensor, R', the integrands of the energy).  The undeformed inverse
that every part reads was formed by ``deform``'s sweep.  The energy's two
norms share one deformed inverse and its pair lift per part, and each
integral runs once over a whole-grid integrand, so every result is
bit-identical to one pass over all planes, whatever the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curvature import CurvatureBundle, _bundle, _each_part, _schouten, hessian
from .grid import Chart, MetricField, gradient, integrate, sym2_pack_indices, sym2_unpack
from .tensor import (
    Riem4Field,
    kulkarni_nomizu,
    lifted_norm_squared,
    pair_indices,
    pair_lift,
    riemann_norm,
    vv_contract,
)

BLOCK_COUNT = 15


@dataclass(frozen=True)
class DeformationBundle:
    """Undeformed curvature stack plus the derivative data of the deforming
    function: ``grad`` (..., n) and the packed (..., n (n + 1) / 2)
    Hessian ``hess``.  The deformed metric is built on first read and kept.
    The raised gradient and w are formed per part, by ``_raised``."""

    base: CurvatureBundle
    grad: np.ndarray
    hess: np.ndarray

    @property
    def chart(self) -> Chart:
        return self.base.g.chart

    @property
    def n(self) -> int:
        return self.base.g.chart.n

    @cached_property
    def g_prime(self) -> MetricField:
        """The metric g + df (x) df.  The closed forms never read it, so
        ``deformation_energy`` pays neither its packed field nor its
        factorization."""
        packed = np.empty(self.base.g.packed.shape)
        for k, (i, j) in enumerate(sym2_pack_indices(self.n)):
            np.multiply(self.grad[..., i], self.grad[..., j], out=packed[..., k])
        packed += self.base.g.packed
        return MetricField(self.chart, packed)


def deform(
    g: MetricField,
    f,
    grad: np.ndarray | None = None,
    base: CurvatureBundle | None = None,
) -> DeformationBundle:
    """Bundle for the deformation g' = g + df (x) df.

    ``grad`` may substitute analytic first derivatives for the stencil
    ones.  Without ``base``, one sweep forms the curvature stack and the
    Hessian's Christoffel term; given ``base``, ``hessian`` forms the
    symbols once more.
    """
    if base is not None and base.g is not g:
        raise ValueError("curvature bundle was computed for a different metric")
    if grad is None:
        grad = gradient(g.chart, np.asarray(f, dtype=float))
    if base is None:
        base, hess = _bundle(g, grad)
    else:
        hess = hessian(g, grad)
    return DeformationBundle(base=base, grad=grad, hess=hess)


def _raised(inv: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(fup, w)``: the gradient ``grad`` of f raised by the inverse metric
    ``inv``, and w = 1 + |grad f|^2."""
    fup = np.einsum("...ab,...b->...a", inv, grad)
    return fup, 1.0 + np.einsum("...a,...a->...", grad, fup)


def _downdate(inv: np.ndarray, fup: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The closed-form inverse of g + df (x) df: the rank-one downdate
    g^{ab} - f^a f^b / w of the inverse ``inv`` of g, with ``fup`` the
    raised gradient and w = 1 + |grad f|^2."""
    return inv - fup[..., :, None] * fup[..., None, :] / w[..., None, None]


def _scalar_ingredients(bundle: DeformationBundle, planes: slice) -> dict:
    """Pointwise scalars of the closed forms on the axis-0 ``planes``, plus
    the raised gradient ``fup`` and ``w`` from ``_raised``, ``u = h(., fup)``,
    the planes of the undeformed scalar curvature and of ``grad``, and the
    dense (n, n) g^{-1}, h and Ricci of those planes, each unpacked once."""
    base = bundle.base
    n = bundle.n
    inv = sym2_unpack(base.g.inverse[planes], n)
    h = sym2_unpack(bundle.hess[planes], n)
    ric = sym2_unpack(base.ric[planes], n)
    grad = bundle.grad[planes]
    fup, w = _raised(inv, grad)
    lap = np.einsum("...ab,...ab->...", inv, h)
    hup = np.matmul(h, inv)  # mixed h_a{}^c
    h2 = np.einsum("...ab,...ab->...", hup, np.matmul(inv, h))
    u = np.einsum("...ab,...b->...a", h, fup)
    beta = np.einsum("...a,...a->...", u, fup)
    u2 = np.einsum("...a,...ab,...b->...", u, inv, u)
    return {
        "inv": inv,
        "h": h,
        "ric": ric,
        "grad": grad,
        "fup": fup,
        "lap": lap,
        "u": u,
        "beta": beta,
        "u2": u2,
        "rvv": np.einsum("...ab,...a,...b->...", ric, fup, fup),
        "c7": lap**2 - h2,
        "c10": lap * beta - u2,
        "w": w,
        "scal": base.scal[planes],
    }


def _riemann_vv(
    W: np.ndarray, P: np.ndarray, gdense: np.ndarray, grad: np.ndarray, fup: np.ndarray
) -> np.ndarray:
    """``S_ik = Riem_{ipkq} f^p f^q`` from Riem = W + KN(P, g), for the
    Weyl pair matrices ``W``, the Schouten tensor ``P`` and the dense metric
    ``gdense``, with ``grad`` = df and ``fup`` = f^ = g^{-1} df:
    ``vv_contract(W, fup) + |f^|^2 P + P(f^, f^) g - (P f^) (x) df
    - df (x) (P f^)``, the four correction terms added in place through
    one scratch field."""
    S = vv_contract(W, fup)
    pf = np.einsum("...ab,...b->...a", P, fup)
    tmp = np.multiply(np.einsum("...a,...a->...", grad, fup)[..., None, None], P)
    S += tmp
    S += np.multiply(np.einsum("...a,...a->...", fup, pf)[..., None, None], gdense, out=tmp)
    # one outer product; its transpose is the symmetric term
    S -= np.multiply(pf[..., :, None], grad[..., None, :], out=tmp)
    S -= tmp.swapaxes(-1, -2)
    return S


def _kn_factors(bundle: DeformationBundle, ing: dict, planes: slice) -> dict:
    """Kulkarni-Nomizu factors of the fifteen blocks on the axis-0
    ``planes``, by block-table name, from the dense fields of the scalar
    ingredients ``ing`` of those planes."""
    base = bundle.base
    h, ric, grad, u = ing["h"], ing["ric"], ing["grad"], ing["u"]
    gdense = sym2_unpack(base.g.packed[planes], bundle.n)
    hh = np.matmul(np.matmul(h, ing["inv"]), h)  # (h g^{-1} h)_ab
    P = _schouten(ric, ing["scal"], gdense)
    return {
        "gdense": gdense,
        "F2": grad[..., :, None] * grad[..., None, :],
        "h": h,
        "S": _riemann_vv(base.W.pair[planes], P, gdense, grad, ing["fup"]),
        "Q": ing["lap"][..., None, None] * h - hh,
        "V": ing["beta"][..., None, None] * h - u[..., :, None] * u[..., None, :],
        "ric": ric,
    }


def _block_table(ing: dict, n: int) -> list[tuple[np.ndarray, str, str]]:
    """Coefficient field and factor names for each of the fifteen blocks."""
    cn2 = 1.0 / (n - 2.0)
    cnn = 1.0 / ((n - 1.0) * (n - 2.0))
    w = ing["w"]
    one = np.ones_like(w)
    return [
        (0.5 / w, "h", "h"),
        # the Ricci block enters with a minus sign: the plus variant fails
        # the direct Weyl-difference oracle (coefficient fit lands on -1.0)
        (-cn2 * one, "ric", "F2"),
        (cnn * ing["scal"], "gdense", "F2"),
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


def weyl_error(bundle: DeformationBundle, flip_block: int | None = None) -> Riem4Field:
    """Change of the (0,4) Weyl tensor under the deformation, in closed form,
    assembled slab by slab from all fifteen blocks.

    ``flip_block`` negates one block (1-based, display order); the flagship
    identity test must then fail, which is how the verification pipeline
    proves it is alive.
    """
    if flip_block is not None and flip_block not in range(1, BLOCK_COUNT + 1):
        raise ValueError(f"flip_block must lie in 1..{BLOCK_COUNT}")
    m = len(pair_indices(bundle.n))
    out = np.empty(bundle.chart.sizes + (m, m))

    def run(part: slice) -> None:
        ing = _scalar_ingredients(bundle, part)
        out[part] = _error_tensor(bundle, ing, part, flip_block)

    _each_part(bundle.chart, run)
    return Riem4Field(bundle.chart, out)


def _error_tensor(
    bundle: DeformationBundle,
    ing: dict,
    planes: slice,
    flip_block: int | None = None,
) -> np.ndarray:
    """Pair matrices of the error tensor on the axis-0 ``planes``, from the
    scalar ingredients of those planes."""
    # one product per second factor, of the summed weighted first factors
    factors = _kn_factors(bundle, ing, planes)
    firsts: dict[str, np.ndarray] = {}
    for idx, (coeff, a, b) in enumerate(_block_table(ing, bundle.n), start=1):
        c = -coeff if idx == flip_block else coeff
        if b in firsts:
            firsts[b] += c[..., None, None] * factors[a]
        else:
            firsts[b] = c[..., None, None] * factors[a]
    # drop S, Q and V: only the second factors stay alive through the products
    seconds = {b: factors[b] for b in firsts}
    del factors
    first, *rest = seconds
    mat = kulkarni_nomizu(firsts.pop(first), seconds[first])
    for b in rest:
        mat += kulkarni_nomizu(firsts.pop(b), seconds[b])
    return mat


def deformed_scalar_closed_form(bundle: DeformationBundle) -> np.ndarray:
    """Scalar curvature of g + df (x) df from the four-term closed form,
    slab by slab."""
    out = np.empty(bundle.chart.sizes)

    def run(part: slice) -> None:
        out[part] = _scalar_closed_form(_scalar_ingredients(bundle, part))

    _each_part(bundle.chart, run)
    return out


def _scalar_closed_form(ing: dict) -> np.ndarray:
    w = ing["w"]
    return ing["scal"] - 2.0 * ing["rvv"] / w + ing["c7"] / w - 2.0 * ing["c10"] / w**2


def deformed_norm(mat: np.ndarray, g: MetricField, grad: np.ndarray) -> np.ndarray:
    """Pointwise norm of curvature-type pair matrices under
    g + df (x) df, given the first derivatives ``grad`` of f, contracted
    with the closed-form inverse of ``_downdate``."""
    inv = sym2_unpack(g.inverse, g.chart.n)
    return riemann_norm(mat, _downdate(inv, *_raised(inv, grad)))


def _energy_terms(bundle: DeformationBundle, planes: slice):
    """``(lift, E, ricci, hess)`` of the deformation functionals on the
    axis-0 ``planes``: the pair lift of the deformed inverse, the error
    tensor, and the integrands Ric(f^, f^) / w and |u|^2 / w^2 - beta^2 / w^3
    of the Ricci and Hessian blocks."""
    ing = _scalar_ingredients(bundle, planes)
    w = ing["w"]
    inv = _downdate(ing["inv"], ing["fup"], w)
    return (
        pair_lift(inv, inv),
        _error_tensor(bundle, ing, planes),
        ing["rvv"] / w,
        ing["u2"] / w**2 - ing["beta"] ** 2 / w**3,
    )


def _ricci_hessian_blocks(
    bundle: DeformationBundle, ricci: np.ndarray, hess: np.ndarray
) -> tuple[float, float]:
    """The Ricci block -int Ric(f^, f^) / w dV and the Hessian block
    (n-1)/(n-2) int (|u|^2 / w^2 - beta^2 / w^3) dV of the deformation
    functionals, over the undeformed volume, from their whole-grid
    integrands."""
    g = bundle.base.g
    ricci_block = -integrate(g, ricci)
    hess_block = ((bundle.n - 1.0) / (bundle.n - 2.0)) * integrate(g, hess)
    return ricci_block, hess_block


def deformation_energy(
    g: MetricField, phi, t: float, base: CurvatureBundle | None = None
) -> float:
    """Integral functional whose negativity certifies that the conformal
    class of g + d(phi) (x) d(phi) contains a constant-curvature
    representative: undeformed scalar and Weyl terms measured in the
    deformed norm, the error-tensor norm, a Ricci correction, and the
    Hessian correction from the conformal factor (1+|grad phi|^2)^{-1/4}.

    The deformation comes from :func:`deform` on the stencil derivatives
    of ``phi``, reusing ``base`` when given.  The integrands are formed slab
    by slab, the two norms under one pair lift of the deformed inverse; each
    integral runs once over the whole grid.
    """
    if t <= 0:
        raise ValueError("the deformation functional is only defined for t > 0")
    chart = g.chart
    bundle = deform(g, phi, base=base)
    base = bundle.base
    curv, enorm, ricci, hess_term = (np.empty(chart.sizes) for _ in range(4))

    def run(part: slice) -> None:
        lift, E, ricci[part], hess_term[part] = _energy_terms(bundle, part)
        wnorm = np.sqrt(lifted_norm_squared(base.W.pair[part], lift))
        curv[part] = base.scal[part] + t * wnorm
        enorm[part] = np.sqrt(lifted_norm_squared(E, lift))

    _each_part(chart, run)
    i1 = integrate(base.g, curv)
    i2 = t * integrate(base.g, enorm)
    i3, i4 = _ricci_hessian_blocks(bundle, ricci, hess_term)
    return i1 + i2 + i3 + i4
