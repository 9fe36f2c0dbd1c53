"""End-to-end production of metrics with constant negative scalar-Weyl curvature.

The pipeline bends a background metric inside a few disjoint balls until the
integral certificate of the conformal solver goes negative, then hands off to
the solver.  The bending is radial: an even profile with a quantified slope
band generates a conformal multiplier psi supported in each ball, the metric
is rescaled by psi and sheared by d(k psi) (x) d(k psi), and the certifying
integral is evaluated along two independent routes -- once through the
deformation-energy functional on the rescaled metric, once as an expansion
assembled directly on the background via the conformal transformation laws.
Route agreement at discretization order is the module's central identity
check; a parameter search trusts no cell the two routes cannot confirm.

Everything rests on flat-ball backgrounds: the metric is exactly Euclidean on
each ball, so coordinate distance is geodesic distance and every radial field
has closed-form derivatives.  On such balls the shear's Weyl error tensor
vanishes identically -- a rotationally symmetric metric is locally
conformally flat -- so the curvature-norm blocks of the expansion sit at
roundoff; they are evaluated anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .conformal import conformal_metric
from .curvature import CurvatureBundle, curvature_bundle
from .deformation import deform, deformation_energy, deformed_norm, weyl_error
from .grid import Chart, FieldError, MetricField, integrate, sym2_pack
from .presets import smooth_bridge
from .tensor import Riem4Field, riemann_norm_squared
from .yamabe import (
    SolveReport,
    TrichotomyResult,
    first_eigenvalue,
    solve_constant_F,
)

#: default search grids: ball radius as a fraction of the shortest period,
#: shear strength in octaves.  Small radii deepen the negative well of the
#: profile term; large k suppresses the 1/k^2 remainder blocks.
RADIUS_DIVISORS = (16.0, 12.0, 8.0, 6.0)
SHEAR_GRID = (1.0, 2.0, 4.0, 8.0, 16.0)

#: a ball whose radius spans fewer grid cells than this cannot carry the
#: profile's slope band; the search records such cells instead of
#: evaluating quadratures the grid cannot support.
MIN_CELLS_PER_RADIUS = 3.0

_PROFILE_NODES = 8192


# ---------------------------------------------------------------------------
# radial profile


@dataclass(frozen=True)
class BumpProfile:
    """Even radial profile rising from a floor to 1 with a quantified slope.

    ``value``, ``slope`` and ``second`` evaluate the profile and its first
    two derivatives with respect to the radial coordinate (the even
    extension is implied; closures act on |x|).  The five defining
    conditions, all checked by dense sampling in :func:`make_bump`:

      1. even in x,
      2. identically 1 for |x| >= 1,
      3. bounded below by ``floor`` > 0,
      4. strictly increasing on (0, 1),
      5. slope >= 1 on ``band`` = [(1/4)^{1/(dim-1)}, (3/4)^{1/(dim-1)}].

    The band is placed so the annulus where the profile climbs steeply
    carries at least half the volume of the unit ball in ``dim`` dimensions.
    """

    value: Callable[[np.ndarray], np.ndarray]
    slope: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray]
    floor: float
    dim: int
    band: tuple[float, float]


def _bridge_slope(t: np.ndarray) -> np.ndarray:
    """Derivative of the C-infinity step lo/(lo+hi)."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 1e-9, 1.0 - 1e-9)
    with np.errstate(under="ignore"):
        lo = np.exp(-1.0 / tc)
        hi = np.exp(-1.0 / (1.0 - tc))
        num = lo * hi * (1.0 / tc**2 + 1.0 / (1.0 - tc) ** 2)
        val = num / (lo + hi) ** 2
    return np.where(inside, val, 0.0)


def make_bump(floor: float, dim: int, nodes: int = _PROFILE_NODES) -> BumpProfile:
    """Profile passing the five :class:`BumpProfile` conditions.

    The slope is a plateau window: C-infinity bridges rise from 0 at the
    origin to 1 at the lower band edge and fall back to 0 at radius 1, so
    the slope equals its peak value exactly on the band.  The profile is the
    floor plus the normalized running integral of that window; the peak
    slope is fixed by the endpoint condition value(1) = 1, and condition 5
    is attainable only while the required rise 1 - floor exceeds the
    window's mass.  Too deep a floor is reported with the feasible maximum.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"profile floor must lie in (0, 1), got {floor}")
    if dim < 3:
        raise ValueError(f"dimension must be >= 3, got {dim}")
    lo_edge = 0.25 ** (1.0 / (dim - 1.0))
    hi_edge = 0.75 ** (1.0 / (dim - 1.0))

    def window(x):
        x = np.asarray(x, dtype=float)
        rise = smooth_bridge(x / lo_edge)
        fall = smooth_bridge((1.0 - x) / (1.0 - hi_edge))
        return rise * fall

    def window_slope(x):
        x = np.asarray(x, dtype=float)
        rise = smooth_bridge(x / lo_edge)
        fall = smooth_bridge((1.0 - x) / (1.0 - hi_edge))
        d_rise = _bridge_slope(x / lo_edge) / lo_edge
        d_fall = -_bridge_slope((1.0 - x) / (1.0 - hi_edge)) / (1.0 - hi_edge)
        return d_rise * fall + rise * d_fall

    # running integral of the window on a fine grid, O(h^4) via the closed
    # three-point rule, then cubic Hermite between nodes (slopes are exact)
    xs = np.linspace(0.0, 1.0, nodes + 1)
    h = 1.0 / nodes
    ws = window(xs)
    inc = np.empty(nodes)
    inc[:-1] = (h / 12.0) * (5.0 * ws[:-2] + 8.0 * ws[1:-1] - ws[2:])
    inc[-1] = (h / 12.0) * (-ws[-3] + 8.0 * ws[-2] + 5.0 * ws[-1])
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    mass = float(cum[-1])

    peak = (1.0 - floor) / mass
    if peak < 1.0 - 1e-12:
        raise ValueError(
            f"floor {floor} leaves too little rise for a unit slope band; "
            f"the maximum feasible floor is {1.0 - mass:.6f}"
        )

    def _running(xi):
        j = np.minimum((xi * nodes).astype(int), nodes - 1)
        tl = xi * nodes - j
        c0, c1 = cum[j], cum[j + 1]
        s0, s1 = ws[j], ws[j + 1]
        t2, t3 = tl * tl, tl * tl * tl
        return (
            c0 * (2.0 * t3 - 3.0 * t2 + 1.0)
            + h * s0 * (t3 - 2.0 * t2 + tl)
            + c1 * (-2.0 * t3 + 3.0 * t2)
            + h * s1 * (t3 - t2)
        )

    def value(x):
        x = np.abs(np.asarray(x, dtype=float))
        inside = x < 1.0
        xi = np.where(inside, x, 0.0)
        return np.where(inside, floor + peak * _running(xi), 1.0)

    def slope(x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x < 1.0, peak * window(x), 0.0)

    def second(x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x < 1.0, peak * window_slope(x), 0.0)

    profile = BumpProfile(
        value=value,
        slope=slope,
        second=second,
        floor=floor,
        dim=dim,
        band=(lo_edge, hi_edge),
    )
    _check_profile(profile)
    return profile


def _check_profile(p: BumpProfile) -> None:
    """Dense-sampling validation of the five profile conditions."""
    xs = np.linspace(0.0, 1.25, 10_000)
    vals = p.value(xs)
    slopes = p.slope(xs)
    checks = [
        (np.max(np.abs(p.value(-xs) - vals)) == 0.0, "evenness"),
        (np.all(vals[xs >= 1.0] == 1.0), "tail value 1"),
        (np.all(vals >= p.floor - 1e-12), "floor bound"),
        (np.all(slopes >= 0.0), "monotonicity"),
        (
            np.all(slopes[(xs >= p.band[0] / 8.0) & (xs <= 1.0 - (1.0 - p.band[1]) / 8.0)] > 0.0),
            "interior slope positivity",
        ),
        (
            np.all(slopes[(xs >= p.band[0]) & (xs <= p.band[1])] >= 1.0 - 1e-9),
            "unit slope on the band",
        ),
    ]
    for ok, name in checks:
        if not ok:
            raise RuntimeError(f"profile condition failed: {name}")


# ---------------------------------------------------------------------------
# radial fields


@dataclass(frozen=True)
class RadialFields:
    """Conformal multiplier, its volume power, and their exact derivatives.

    ``psi`` is the multiplier (profile to the power 2/(n-2)), ``f`` the
    volume weight psi^{(n-2)/2} (the profile itself), with covariant
    gradients and Hessians from the closed-form radial chain rule.  All
    fields are identically (1, 0, 0) outside the union of balls.
    """

    chart: Chart
    psi: np.ndarray
    grad_psi: np.ndarray
    hess_psi: np.ndarray
    f: np.ndarray
    grad_f: np.ndarray
    hess_f: np.ndarray


def _flat_ball_check(g: MetricField, center, limit: float) -> None:
    chart = g.chart
    rho = np.sqrt(np.sum(chart.min_image(chart.mesh(), center) ** 2, axis=-1))
    mask = rho <= limit
    dev = g.dense[mask] - np.eye(chart.n)
    worst = float(np.max(np.abs(dev))) if dev.size else 0.0
    if worst > 1e-12:
        raise FieldError(
            f"metric is not flat on the ball of radius {limit:.4f} around "
            f"{tuple(float(c) for c in center)}: max deviation {worst:.3e}"
        )


def _radial_pieces(chart: Chart, center, r: float, profile: BumpProfile):
    """(rho, direction, value, slope, second) for one ball, slope in s = rho/r."""
    disp = chart.min_image(chart.mesh(), center)
    rho = np.sqrt(np.sum(disp**2, axis=-1))
    core = rho < 1e-12 * r
    safe = np.where(core, 1.0, rho)
    direction = disp / safe[..., None]
    s = rho / r
    return rho, core, direction, profile.value(s), profile.slope(s), profile.second(s)


def _assemble(chart, r, rho, core, direction, slo, sec):
    """Gradient and Hessian of a radial scalar from its profile derivatives.

    The tangential Hessian coefficient slope/(r rho) needs the limit at the
    center; the profiles here are flat there, so the guarded value is 0.
    """
    n = chart.n
    grad = (slo / r)[..., None] * direction
    radial = direction[..., :, None] * direction[..., None, :]
    tangential = np.eye(n) - radial
    coef_t = np.where(core, 0.0, slo / (r * np.where(core, 1.0, rho)))
    hess = (sec / r**2)[..., None, None] * radial + coef_t[..., None, None] * tangential
    hess = np.where(core[..., None, None], 0.0, hess)
    return grad, hess


def radial_fields(
    chart: Chart,
    center,
    r: float,
    profile: BumpProfile,
    g: MetricField | None = None,
) -> RadialFields:
    """Single-ball radial fields; pass ``g`` to enforce the flat-ball floor.

    The multiplier is the profile raised to 2/(n-2); the weight f equals the
    profile itself, the power that turns dV of the rescaled metric into
    f psi dV.  Flatness of ``g`` on a slightly larger ball guarantees the
    coordinate distance is geodesic and the coordinate Hessian is covariant.
    """
    if len(center) != chart.n:
        raise ValueError(f"center must have {chart.n} coordinates, got {len(center)}")
    if not 0.0 < 2.2 * r <= float(min(chart.lengths)):
        raise ValueError(
            f"ball radius {r} does not fit the chart; need 0 < 2.2 r <= "
            f"{float(min(chart.lengths)):.4f}"
        )
    if g is not None:
        if g.chart is not chart:
            raise ValueError("metric lives on a different chart")
        _flat_ball_check(g, center, 1.1 * r)

    rho, core, direction, val, slo, sec = _radial_pieces(chart, center, r, profile)
    q = 2.0 / (chart.n - 2.0)
    psi = val**q
    psi_s = q * val ** (q - 1.0) * slo
    psi_ss = q * (q - 1.0) * val ** (q - 2.0) * slo**2 + q * val ** (q - 1.0) * sec
    grad_psi, hess_psi = _assemble(chart, r, rho, core, direction, psi_s, psi_ss)
    grad_f, hess_f = _assemble(chart, r, rho, core, direction, slo, sec)
    return RadialFields(
        chart=chart,
        psi=psi,
        grad_psi=grad_psi,
        hess_psi=hess_psi,
        f=val,
        grad_f=grad_f,
        hess_f=hess_f,
    )


def _merge(parts: list[RadialFields], chart: Chart) -> RadialFields:
    """Combine disjointly supported balls: deviations from 1 add."""
    psi = 1.0 + sum(p.psi - 1.0 for p in parts)
    f = 1.0 + sum(p.f - 1.0 for p in parts)
    return RadialFields(
        chart=chart,
        psi=psi,
        grad_psi=sum(p.grad_psi for p in parts),
        hess_psi=sum(p.hess_psi for p in parts),
        f=f,
        grad_f=sum(p.grad_f for p in parts),
        hess_f=sum(p.hess_f for p in parts),
    )


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ConstructionConfig:
    """One candidate of the construction: balls, radius, shear, coupling.

    ``centers`` are ball centers (ideally grid points so the flat plateau of
    the background contains the exact center), ``r`` the common ball radius,
    ``k`` the shear strength, ``t`` the coupling of the curvature functional,
    ``floor`` the profile parameter.  The search grids that produced the
    config ride along for the record.
    """

    chart: Chart
    centers: tuple
    r: float
    k: float
    t: float
    floor: float = 0.1
    r_grid: tuple = ()
    k_grid: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "centers",
            tuple(tuple(float(c) for c in p) for p in self.centers),
        )
        if not self.centers:
            raise ValueError("need at least one ball center")
        for p in self.centers:
            if len(p) != self.chart.n:
                raise ValueError(
                    f"center {p} must have {self.chart.n} coordinates"
                )
        if not 0.0 < 2.2 * self.r <= float(min(self.chart.lengths)):
            raise ValueError(
                f"ball radius {self.r} does not fit the chart; need "
                f"0 < 2.2 r <= {float(min(self.chart.lengths)):.4f}"
            )
        if self.k <= 0.0:
            raise ValueError(f"shear strength must be positive, got {self.k}")
        if not 0.0 < self.floor < 1.0:
            raise ValueError(f"profile floor must lie in (0, 1), got {self.floor}")
        worst = _closest_pair(self.chart, self.centers)
        if worst is not None and worst <= 2.0 * self.r:
            raise ValueError(
                f"balls of radius {self.r} overlap: closest centers are "
                f"{worst:.4f} apart, need more than {2.0 * self.r:.4f}"
            )

    @property
    def balls(self) -> int:
        return len(self.centers)


def _pair_distance(chart: Chart, a, b) -> float:
    d = 0.0
    for x, y, length in zip(a, b, chart.lengths):
        w = abs(x - y) % length
        w = min(w, length - w)
        d += w * w
    return float(np.sqrt(d))


def _closest_pair(chart: Chart, centers) -> float | None:
    if len(centers) < 2:
        return None
    return min(
        _pair_distance(chart, centers[i], centers[j])
        for i in range(len(centers))
        for j in range(i + 1, len(centers))
    )


def _default_centers(chart: Chart) -> tuple:
    """Four torus-symmetric centers snapped to grid points.

    Quarter-period patterns: all-low, all-high, and the two alternating
    mixtures.  Any pair differs by half a period in at least one axis, so
    pairwise distances stay at least half the shortest period.
    """
    fracs = [
        [0.25] * chart.n,
        [0.75] * chart.n,
        [0.25 if a % 2 == 0 else 0.75 for a in range(chart.n)],
        [0.75 if a % 2 == 0 else 0.25 for a in range(chart.n)],
    ]
    out = []
    for pattern in fracs:
        point = tuple(
            round(fr * size) % size * sp
            for fr, size, sp in zip(pattern, chart.sizes, chart.spacings)
        )
        if point not in out:
            out.append(point)
    return tuple(out)


def _disjoint_prefix(chart: Chart, centers, r: float) -> tuple:
    """Largest prefix of centers with pairwise gaps above one diameter."""
    kept: list = []
    for c in centers:
        if all(_pair_distance(chart, c, other) > 2.0 * r for other in kept):
            kept.append(tuple(float(x) for x in c))
    return tuple(kept)


def _config_fields(
    g: MetricField, config: ConstructionConfig, profile: BumpProfile
) -> RadialFields:
    parts = [
        radial_fields(g.chart, center, config.r, profile, g=g)
        for center in config.centers
    ]
    return _merge(parts, g.chart)


# ---------------------------------------------------------------------------
# the certifying integral, two routes


def _phi_expansion(
    g: MetricField,
    t: float,
    k: float,
    fields: RadialFields,
    base: CurvatureBundle,
    include_weyl: bool = True,
) -> float:
    """Certifying integral assembled on the background metric.

    Every block comes from pushing the deformation-energy functional of the
    rescaled-and-sheared metric through the conformal transformation laws of
    scalar curvature, Ricci, Hessian, and the quartic error tensor.  The
    curvature norms are taken against the background sheared by
    d(2k sqrt(psi)): rescaling that shear by psi reproduces the deformed
    metric, and the norm of a curvature-type tensor drops two powers of the
    multiplier while the tensors themselves gain one, leaving single powers
    of the volume weight f in front of both norm blocks.

    ``include_weyl=False`` drops the two curvature-norm blocks, leaving the
    scalar-curvature functional (the t -> 0 limit, an upper bound for any
    t <= 0 since t |W| <= 0 only helps).
    """
    chart = g.chart
    n = chart.n
    inv = g.inverse
    dens = g.sqrt_det
    psi, f = fields.psi, fields.f

    psi_up = np.einsum("...ab,...b->...a", inv, fields.grad_psi)
    s2 = np.einsum("...a,...a->...", fields.grad_psi, psi_up)
    dhat = psi / k**2 + s2

    f_up = np.einsum("...ab,...b->...a", inv, fields.grad_f)
    lap_f = np.einsum("...ab,...ab->...", inv, fields.hess_f)

    ric_pp = np.einsum("...ab,...a,...b->...", base.ric, psi_up, psi_up)
    scal_block = base.scal * f - ric_pp / dhat * f

    if include_weyl:
        root = np.sqrt(psi)
        eta = 2.0 * k * root
        grad_eta = (k / root)[..., None] * fields.grad_psi
        hess_eta = (k / root)[..., None, None] * fields.hess_psi - (
            0.5 * k / root**3
        )[..., None, None] * (
            fields.grad_psi[..., :, None] * fields.grad_psi[..., None, :]
        )
        sheared = deform(g, eta, grad=grad_eta, hess=hess_eta, base=base)
        w_norm = deformed_norm(base.W, g, eta, grad=grad_eta)
        e_norm = deformed_norm(weyl_error(sheared), g, eta, grad=grad_eta)
        scal_block = scal_block + t * w_norm * f
        error_term = t * integrate(chart, e_norm * f, dens)
    else:
        error_term = 0.0

    hess_pp = np.einsum("...ab,...a,...b->...", fields.hess_f, psi_up, psi_up)
    grad_fp = np.einsum("...a,...a->...", fields.grad_f, psi_up)

    hp = np.einsum("...ab,...b->...a", fields.hess_psi, psi_up)
    hp2 = np.einsum("...a,...ab,...b->...", hp, inv, hp)
    beta = np.einsum("...a,...a->...", hp, psi_up)

    cnn = (n - 1.0) / (n - 2.0)
    total = (
        integrate(chart, scal_block, dens)
        + error_term
        + integrate(chart, hess_pp / dhat, dens)
        + (0.5 * (n - 1.0) / k**2) * integrate(chart, grad_fp / dhat, dens)
        - (1.0 / (k**2 * (n - 2.0))) * integrate(chart, psi * lap_f / dhat, dens)
        + cnn * integrate(chart, (hp2 / dhat**2 - beta**2 / dhat**3) * f, dens)
        + (cnn / k**2)
        * integrate(chart, (0.25 * s2**3 / psi - s2 * beta) / dhat**3 * f, dens)
    )
    return float(total)


def _phi_deformation(
    g: MetricField,
    t: float,
    k: float,
    fields: RadialFields,
    include_weyl: bool = True,
) -> float:
    """Certifying integral through the deformation-energy route.

    Works on the rescaled metric psi g directly: its curvature comes from
    the stencil pipeline, independent of the transformation laws the
    expansion route uses.  The deforming function's gradient is analytic;
    its covariant Hessian comes from the rescaled metric's own stencil
    Christoffel symbols.
    """
    chart = g.chart
    scaled = MetricField(chart, fields.psi[..., None] * g.packed)
    return deformation_energy(
        scaled,
        k * fields.psi,
        t,
        grad=k * fields.grad_psi,
        include_weyl=include_weyl,
    )


def phi_functional(
    g: MetricField,
    t: float,
    config: ConstructionConfig,
    base: CurvatureBundle | None = None,
    cross_check: bool = True,
) -> tuple[float, float]:
    """Certifying integral of a config, with the two-route residual.

    Returns ``(value, residual)`` where ``value`` is the background-side
    expansion and ``residual`` the absolute gap to the deformation-energy
    route (NaN when ``cross_check`` is off).  Negative value certifies that
    the conformal class of the rescaled-and-sheared metric contains one
    with constant negative curvature functional.
    """
    if t <= 0.0:
        raise ValueError("the certifying integral is defined for t > 0")
    if config.chart is not g.chart:
        raise ValueError("config and metric live on different charts")
    if base is None:
        base = curvature_bundle(g)
    profile = make_bump(config.floor, g.chart.n)
    fields = _config_fields(g, config, profile)
    if np.min(fields.psi) <= 0.0:
        raise FieldError("conformal multiplier must stay positive")
    value = _phi_expansion(g, t, config.k, fields, base)
    if not cross_check:
        return value, float("nan")
    other = _phi_deformation(g, t, config.k, fields)
    return value, abs(other - value)


def _certificate_pair_from_fields(
    g: MetricField,
    t: float,
    k: float,
    fields: RadialFields,
) -> tuple[float, float]:
    chart = g.chart
    n = chart.n
    scaled = MetricField(chart, fields.psi[..., None] * g.packed)
    phi = k * fields.psi
    grad = k * fields.grad_psi
    bundle = deform(scaled, phi, grad=grad)
    dens = scaled.sqrt_det
    w = bundle.w

    err = weyl_error(bundle)
    wnorm = deformed_norm(bundle.base.W, scaled, phi, grad=bundle.grad)
    enorm = deformed_norm(err, scaled, phi, grad=bundle.grad)
    snorm = deformed_norm(
        Riem4Field(chart, bundle.base.W.pair + err.pair),
        scaled,
        phi,
        grad=bundle.grad,
    )

    fup = np.einsum("...ab,...b->...a", scaled.inverse, bundle.grad)
    uvec = np.einsum("...ab,...b->...a", bundle.hess, fup)
    beta = np.einsum("...a,...a->...", uvec, fup)
    u2 = np.einsum("...a,...ab,...b->...", uvec, scaled.inverse, uvec)
    rvv = np.einsum("...ab,...a,...b->...", bundle.base.ric, fup, fup)
    tail = -integrate(chart, rvv / w, dens) + (
        (n - 1.0) / (n - 2.0)
    ) * integrate(chart, u2 / w**2 - beta**2 / w**3, dens)

    scal = integrate(chart, bundle.base.scal, dens)
    value = scal + t * integrate(chart, wnorm + enorm, dens) + tail
    bound = scal + t * integrate(chart, snorm, dens) + tail
    return float(value), float(bound)


def certificate_pair(
    g: MetricField,
    t: float,
    config: ConstructionConfig,
) -> tuple[float, float]:
    """Certifying integral and the test-energy lower bound it dominates.

    Both numbers are assembled from one deformation bundle of the rescaled
    metric through the closed-form routes, so they differ exactly by the
    integrated triangle gap t * int(|W'| + |E| - |W' + E|) dV', which is
    pointwise nonnegative: the first return is >= the second at any
    resolution, up to roundoff.  The second is the conformal test-function
    energy of the sheared metric evaluated along the same algebra; its
    negativity is what licenses the constant-curvature solve.
    """
    if t <= 0.0:
        raise ValueError("the certifying integral is defined for t > 0")
    if config.chart is not g.chart:
        raise ValueError("config and metric live on different charts")
    profile = make_bump(config.floor, g.chart.n)
    fields = _config_fields(g, config, profile)
    return _certificate_pair_from_fields(g, t, config.k, fields)


# ---------------------------------------------------------------------------
# parameter search


@dataclass(frozen=True)
class SearchCell:
    """One evaluated (radius, shear) cell of the landscape."""

    r: float
    k: float
    balls: int
    value: float
    residual: float = float("nan")
    accepted: bool = False
    note: str = ""


@dataclass
class SearchReport:
    succeeded: bool
    config: ConstructionConfig | None
    landscape: list = field(default_factory=list)
    message: str = ""


def search_parameters(
    g: MetricField,
    t: float,
    centers=None,
    r_grid=None,
    k_grid=None,
    floor: float = 0.1,
    base: CurvatureBundle | None = None,
) -> SearchReport:
    """Grid search for a config with a negative certifying integral.

    Radii ascend from the smallest (the profile term of the integral deepens
    as the radius shrinks) and shears descend from the largest (the 1/k^2
    remainders fade); each radius keeps the largest prefix of centers whose
    balls stay disjoint.  A cell wins only when both routes agree: the
    expansion value is negative, the deformation-energy route is negative,
    and their gap is below a quarter of the magnitude.  Cells whose radius
    spans fewer than MIN_CELLS_PER_RADIUS grid cells are recorded but not
    evaluated; the grid cannot carry the profile there.  Failure is data:
    the report carries the whole landscape.

    Cells are independent (a parallel map would merge to the same report);
    they are evaluated sequentially here, cheapest-first.
    """
    chart = g.chart
    if centers is None:
        centers = _default_centers(chart)
    length = float(min(chart.lengths))
    if r_grid is None:
        r_grid = tuple(length / d for d in RADIUS_DIVISORS)
    if k_grid is None:
        k_grid = SHEAR_GRID
    if base is None:
        base = curvature_bundle(g)
    include_weyl = t > 0.0
    profile = make_bump(floor, chart.n)
    spacing = float(max(chart.spacings))

    landscape: list[SearchCell] = []
    for r in sorted(r_grid):
        kept = _disjoint_prefix(chart, centers, r)
        if not kept:
            landscape.append(
                SearchCell(r=r, k=float("nan"), balls=0, value=float("nan"),
                           note="no disjoint balls at this radius")
            )
            continue
        if r < MIN_CELLS_PER_RADIUS * spacing:
            for k in sorted(k_grid, reverse=True):
                landscape.append(
                    SearchCell(r=r, k=k, balls=len(kept), value=float("nan"),
                               note="radius below three grid cells; profile unresolvable")
                )
            continue
        config = None
        fields = None
        for k in sorted(k_grid, reverse=True):
            config = ConstructionConfig(
                chart=chart, centers=kept, r=r, k=k, t=t, floor=floor,
                r_grid=tuple(r_grid), k_grid=tuple(k_grid),
            )
            if fields is None:
                fields = _config_fields(g, config, profile)
            value = _phi_expansion(g, t, k, fields, base, include_weyl=include_weyl)
            if not value < 0.0:
                landscape.append(SearchCell(r=r, k=k, balls=len(kept), value=value))
                continue
            other = _phi_deformation(g, t, k, fields, include_weyl=include_weyl)
            residual = abs(other - value)
            agreed = other < 0.0 and residual <= 0.25 * abs(value)
            note = "" if agreed else "routes disagree; cell not trusted"
            landscape.append(
                SearchCell(r=r, k=k, balls=len(kept), value=value,
                           residual=residual, accepted=agreed, note=note)
            )
            if agreed:
                return SearchReport(
                    succeeded=True,
                    config=config,
                    landscape=landscape,
                    message=(
                        f"negative certificate {value:.4f} at r={r:.4f}, k={k}, "
                        f"{len(kept)} balls; route gap {residual:.2e}"
                    ),
                )
    evaluated = [c for c in landscape if np.isfinite(c.value)]
    best = min(evaluated, key=lambda c: c.value) if evaluated else None
    tail = (
        f"; best cell r={best.r:.4f}, k={best.k}, value {best.value:.4f}"
        if best
        else "; no evaluable cells"
    )
    return SearchReport(
        succeeded=False,
        config=None,
        landscape=landscape,
        message="no cell reached a trusted negative value" + tail,
    )


# ---------------------------------------------------------------------------
# end-to-end pipeline


def _sheared_metric(g: MetricField, fields: RadialFields, k: float) -> MetricField:
    """psi g + d(k psi) (x) d(k psi), the metric the certificate speaks about."""
    chart = g.chart
    packed = fields.psi[..., None] * g.packed + sym2_pack(
        k**2 * fields.grad_psi[..., :, None] * fields.grad_psi[..., None, :], chart.n
    )
    return MetricField(chart, packed)


def _certificate_factor(
    g: MetricField, fields: RadialFields, k: float
) -> np.ndarray:
    """Conformal factor whose energy the sheared metric's certificate uses.

    (1 + |grad(k psi)|^2 of the rescaled metric) to the power -(n-2)/8: the
    conformal weight that undoes the volume stretch of the shear, so the
    energy of this factor on the sheared metric is bounded by the
    certifying integral (the norm blocks only gain from the shear).
    """
    psi_up = np.einsum("...ab,...b->...a", g.inverse, fields.grad_psi)
    s2 = np.einsum("...a,...a->...", fields.grad_psi, psi_up)
    return (1.0 + k**2 * s2 / fields.psi) ** (-(g.chart.n - 2.0) / 8.0)


@dataclass
class ConstructionResult:
    """Outcome of the end-to-end pipeline.

    ``path`` is "direct" when the background's conformal class already
    carried a negative verdict, "deformation" when a searched config was
    needed, "search" when the search exhausted its grid.  ``certificate``
    is the integral that licensed the solve; ``residual`` the recomputed
    max |F + 1| on the returned metric.
    """

    succeeded: bool
    path: str
    metric: MetricField | None
    solve: SolveReport | None
    search: SearchReport | None
    trichotomy: TrichotomyResult
    config: ConstructionConfig | None = None
    certificate: float = float("nan")
    residual: float = float("nan")
    message: str = ""


def construct_constant_F(
    g0: MetricField,
    t: float,
    centers=None,
    r_grid=None,
    k_grid=None,
    floor: float = 0.1,
    tol: float = 1e-9,
    cg_maxiter: int = 5000,
    final_tol: float = 5e-3,
) -> ConstructionResult:
    """Produce a metric with F = R + t |W| identically -1 from a background.

    Trichotomy first: a class that is already negative goes straight to the
    solver, and any t <= 0 rides the scalar-curvature-only search (dropping
    t |W| <= 0 only weakens the certificate, never cheats it).  Otherwise
    the search supplies a config, the rescaled-and-sheared metric is built,
    its certificate is confirmed against the test-energy side of
    :func:`certificate_pair`, and the solver finishes inside that class.  The
    residual is the solver's independent curvature recomputation on the
    final metric; ``final_tol`` only grades it, the result always returns.
    """
    bundle0 = curvature_bundle(g0)
    tri = first_eigenvalue(g0, t, bundle=bundle0)
    if tri.verdict == "negative":
        try:
            report = solve_constant_F(
                g0, t, bundle=bundle0, tol=tol, cg_maxiter=cg_maxiter
            )
        except RuntimeError as exc:
            return ConstructionResult(
                succeeded=False,
                path="direct",
                metric=None,
                solve=None,
                search=None,
                trichotomy=tri,
                message=str(exc),
            )
        metric = conformal_metric(g0, report.u)
        ok = report.curvature_residual <= final_tol
        return ConstructionResult(
            succeeded=ok,
            path="direct",
            metric=metric,
            solve=report,
            search=None,
            trichotomy=tri,
            residual=report.curvature_residual,
            message="negative class; solved without deformation",
        )

    search = search_parameters(
        g0, t, centers=centers, r_grid=r_grid, k_grid=k_grid,
        floor=floor, base=bundle0,
    )
    if not search.succeeded:
        return ConstructionResult(
            succeeded=False,
            path="search",
            metric=None,
            solve=None,
            search=search,
            trichotomy=tri,
            message=search.message,
        )

    config = search.config
    profile = make_bump(config.floor, g0.chart.n)
    fields = _config_fields(g0, config, profile)
    sheared = _sheared_metric(g0, fields, config.k)
    cert = _certificate_pair_from_fields(g0, t, config.k, fields)[1]
    if not cert < 0.0:
        return ConstructionResult(
            succeeded=False,
            path="deformation",
            metric=None,
            solve=None,
            search=search,
            trichotomy=tri,
            config=config,
            certificate=cert,
            message=(
                f"search cell was negative but the test-energy certificate "
                f"came out {cert:.4e}; refusing to solve"
            ),
        )
    try:
        report = solve_constant_F(sheared, t, tol=tol, cg_maxiter=cg_maxiter)
    except RuntimeError as exc:
        return ConstructionResult(
            succeeded=False,
            path="deformation",
            metric=None,
            solve=None,
            search=search,
            trichotomy=tri,
            config=config,
            certificate=cert,
            message=str(exc),
        )
    metric = conformal_metric(sheared, report.u)
    ok = report.curvature_residual <= final_tol
    return ConstructionResult(
        succeeded=ok,
        path="deformation",
        metric=metric,
        solve=report,
        search=search,
        trichotomy=tri,
        config=config,
        certificate=cert,
        residual=report.curvature_residual,
        message=(
            f"certificate {cert:.4f}; final curvature residual "
            f"{report.curvature_residual:.3e}"
        ),
    )


# ---------------------------------------------------------------------------
# pinching


@dataclass(frozen=True)
class PinchingReport:
    """Pointwise audit of negative scalar curvature and Weyl pinching.

    ``worst_scal`` is the largest scalar curvature (negative means the
    scalar condition holds everywhere); ``worst_margin`` the largest value
    of |W|^2 - eps R^2 (negative means pinched everywhere).
    """

    eps: float
    scalar_negative: bool
    pinched: bool
    passed: bool
    worst_scal: float
    worst_margin: float


def pinching_report(
    g: MetricField, eps: float, bundle: CurvatureBundle | None = None
) -> PinchingReport:
    if eps <= 0.0:
        raise ValueError(f"pinching threshold must be positive, got {eps}")
    if bundle is None:
        bundle = curvature_bundle(g)
    wn2 = riemann_norm_squared(bundle.W, g)
    margin = wn2 - eps * bundle.scal**2
    worst_scal = float(np.max(bundle.scal))
    worst_margin = float(np.max(margin))
    scalar_negative = worst_scal < 0.0
    pinched = worst_margin < 0.0
    return PinchingReport(
        eps=eps,
        scalar_negative=scalar_negative,
        pinched=pinched,
        passed=scalar_negative and pinched,
        worst_scal=worst_scal,
        worst_margin=worst_margin,
    )
