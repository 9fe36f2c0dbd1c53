"""End-to-end production of metrics with constant negative scalar-Weyl curvature.

A background whose conformal class is already negative goes straight to the
solver.  Otherwise the pipeline bends it inside a few disjoint balls until
the certifying integral goes negative; both paths end in the same solve.
The bending is radial, after Aubin's mechanism (T. Aubin, J. Differential
Geom. 4, 1970): an even profile with a quantified slope band generates one
conformal multiplier psi, equal to 1 off the balls, and the metric is
rescaled by psi and sheared by d(k psi) (x) d(k psi).

Everything rests on flat-ball backgrounds: the metric is exactly Euclidean on
each ball, so coordinate distance is geodesic distance and every radial field
has closed-form derivatives.  On such a ball the background's curvature
vanishes, and the deformed metric is rotationally symmetric, hence locally
conformally flat, so its Weyl tensor and the shear's error tensor vanish too.
Outside the balls psi = 1.  The certifying integral therefore splits exactly,

    Phi = int_T F_0 dV + (#balls) |S^{n-1}| int_0^r I(rho) rho^{n-1} drho,

with F_0 the background's F and I built from the profile alone.  The search
evaluates every (radius, shear) cell by this one radial route, with the
quadrature's own error estimate.  Before the solve, the winning config is
confirmed on the grid: the test-energy bound of the sheared metric must be
negative too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .conformal import conformal_metric, scalar_weyl
from .curvature import _each_part, curvature_scalars
from .deformation import _energy_terms, _ricci_hessian_blocks, deform
from .grid import Chart, FieldError, MetricField, integrate, sym2_pack_indices, sym2_unpack
from .presets import smooth_bridge
from .tensor import lifted_norm_squared
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

#: floor of the radial profile every config is bent with (``make_bump``)
PROFILE_FLOOR = 0.1

#: a ball whose radius spans fewer grid cells than this cannot carry the
#: profile's slope band; the search records such cells instead of
#: evaluating configs whose deformed metric the grid solve cannot resolve.
MIN_CELLS_PER_RADIUS = 3.0

_PROFILE_NODES = 8192

#: trapezoid nodes of the radial certifying integral.  Its integrand is
#: C-infinity and flat at both ends of [0, r], so the rule converges faster
#: than any power: halving this count moves the value at roundoff.
_RADIAL_NODES = 20_000


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
    carries at least half the volume of the unit ball in the ``dim``
    dimensions given to :func:`make_bump`.
    """

    value: Callable[[np.ndarray], np.ndarray]
    slope: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray]
    floor: float
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


def make_bump(floor: float, dim: int) -> BumpProfile:
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
    nodes = _PROFILE_NODES
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
    """Conformal multiplier of a set of disjoint balls and its exact derivatives.

    ``psi`` is the profile raised to 2/(n-2) on each ball, with covariant
    gradient and Hessian from the closed-form radial chain rule; all three
    are identically (1, 0, 0) outside the union of balls.  The Hessian is
    packed (i <= j) like the metric.
    """

    chart: Chart
    psi: np.ndarray
    grad_psi: np.ndarray
    hess_psi: np.ndarray


def _check_balls(chart: Chart, centers, r: float) -> None:
    """Centers with one coordinate per axis, a radius that fits the chart,
    and balls with pairwise gaps above one diameter."""
    if not centers:
        raise ValueError("need at least one ball center")
    for p in centers:
        if len(p) != chart.n:
            raise ValueError(f"center {tuple(p)} must have {chart.n} coordinates")
    length = float(min(chart.lengths))
    if not 0.0 < 2.2 * r <= length:
        raise ValueError(
            f"ball radius {r} does not fit the chart; need 0 < 2.2 r <= {length:.4f}"
        )
    dropped = len(centers) - len(_disjoint_prefix(chart, centers, r))
    if dropped:
        raise ValueError(
            f"balls of radius {r} overlap: {dropped} of {len(centers)} centers "
            f"lie within {2.0 * r:.4f} of an earlier one"
        )


def _flat_ball_check(g: MetricField, center, limit: float) -> None:
    chart = g.chart
    rho = np.sqrt(np.sum(chart.min_image(chart.mesh(), center) ** 2, axis=-1))
    mask = rho <= limit
    # unpacked on the ball only, so no whole-grid (n, n) field is formed
    dev = sym2_unpack(g.packed[mask], chart.n) - np.eye(chart.n)
    worst = float(np.max(np.abs(dev))) if dev.size else 0.0
    if worst > 1e-12:
        raise FieldError(
            f"metric is not flat on the ball of radius {limit:.4f} around "
            f"{tuple(float(c) for c in center)}: max deviation {worst:.3e}"
        )


def _multiplier(v, v1, v2, q: float):
    """psi = v^q and its first two derivatives, from v and its own two."""
    psi = v**q
    p1 = q * v ** (q - 1.0) * v1
    p2 = q * (q - 1.0) * v ** (q - 2.0) * v1**2 + q * v ** (q - 1.0) * v2
    return psi, p1, p2


def radial_fields(g: MetricField, centers, r: float, profile: BumpProfile) -> RadialFields:
    """Radial fields of disjoint balls of radius ``r`` around ``centers`` on
    the chart of ``g``, which must be flat on each ball.

    The multiplier is the profile raised to 2/(n-2).  Flatness of ``g`` on a
    slightly larger ball guarantees the coordinate distance is geodesic and
    the coordinate Hessian is covariant.  The balls are disjoint, so each
    adds its deviation from (1, 0, 0).  The tangential Hessian coefficient
    psi'/rho needs the limit at a center; the profiles here are flat there,
    so the guarded value is 0.
    """
    chart = g.chart
    n = chart.n
    _check_balls(chart, centers, r)
    q = 2.0 / (n - 2.0)
    i, j = np.array(sym2_pack_indices(n)).T
    psi = np.ones(chart.sizes)
    grad = np.zeros(chart.sizes + (n,))
    hess = np.zeros(chart.sizes + (len(i),))
    for center in centers:
        _flat_ball_check(g, center, 1.1 * r)
        disp = chart.min_image(chart.mesh(), center)
        rho = np.sqrt(np.sum(disp**2, axis=-1))
        core = rho < 1e-12 * r
        safe = np.where(core, 1.0, rho)
        direction = disp / safe[..., None]
        s = rho / r
        ball, p1, p2 = _multiplier(
            profile.value(s), profile.slope(s) / r, profile.second(s) / r**2, q
        )
        psi += ball - 1.0
        grad += p1[..., None] * direction
        radial = direction[..., i] * direction[..., j]
        coef_t = np.where(core, 0.0, p1 / safe)
        part = p2[..., None] * radial + coef_t[..., None] * (np.eye(n)[i, j] - radial)
        hess += np.where(core[..., None], 0.0, part)
    return RadialFields(chart=chart, psi=psi, grad_psi=grad, hess_psi=hess)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ConstructionConfig:
    """One candidate of the construction: balls, radius and shear.

    ``centers`` are ball centers (ideally grid points so the flat plateau of
    the background contains the exact center), ``r`` the common ball radius,
    ``k`` the shear strength.  Every config is bent with the profile of
    floor ``PROFILE_FLOOR``.
    """

    chart: Chart
    centers: tuple
    r: float
    k: float

    def __post_init__(self):
        object.__setattr__(
            self,
            "centers",
            tuple(tuple(float(c) for c in p) for p in self.centers),
        )
        _check_balls(self.chart, self.centers, self.r)
        if self.k <= 0.0:
            raise ValueError(f"shear strength must be positive, got {self.k}")


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


def _resolving_size(chart: Chart, r: float) -> int:
    """Smallest number of points per axis at which a radius ``r`` spans
    MIN_CELLS_PER_RADIUS cells of every axis (charts take 8 at least)."""
    length = max(chart.lengths)
    size = max(8, math.floor(MIN_CELLS_PER_RADIUS * length / r))
    while r < MIN_CELLS_PER_RADIUS * (length / size):
        size += 1
    return size


def _disjoint_prefix(chart: Chart, centers, r: float) -> tuple:
    """Centers in order, each kept when its gap to every kept one exceeds 2 r."""
    kept: list = []
    for c in centers:
        c = tuple(float(x) for x in c)
        if all(np.linalg.norm(chart.min_image(np.asarray(c), b)) > 2.0 * r for b in kept):
            kept.append(c)
    return tuple(kept)


# ---------------------------------------------------------------------------
# the certifying integral on one flat ball


def _trapezoid(y: np.ndarray, h: float) -> float:
    return h * float(np.sum(y) - 0.5 * (y[0] + y[-1]))


def _phi_ball(profile: BumpProfile, n: int, r: float, k: float) -> tuple[float, float]:
    """One ball's share of the certifying integral, and its quadrature error.

    On a flat ball the background's curvature vanishes, and the rescaled and
    sheared metric is rotationally symmetric, hence conformally flat: W' = 0
    and the shear's error tensor E = 0, so the curvature-norm blocks drop
    out.  What remains -- the Hessian block, the (n-1)/(2k^2) gradient block,
    the Laplacian block and the two (n-1)/(n-2) blocks -- depends on the
    radius alone, through the profile's value, slope and second derivative.
    Their sum I is integrated as |S^{n-1}| int_0^r I rho^{n-1} drho by the
    trapezoid rule in s = rho / r; the error estimate is the gap to the same
    rule on every second node.
    """
    s = np.linspace(0.0, 1.0, _RADIAL_NODES + 1)
    v = profile.value(s)
    rho = r * s
    # radial derivatives of the weight f = v and of the multiplier psi = v^q
    f1, f2 = profile.slope(s) / r, profile.second(s) / r**2
    psi, p1, p2 = _multiplier(v, f1, f2, 2.0 / (n - 2.0))
    # the profile is flat at the center, so f1 / rho -> 0 there
    lap_f = f2 + (n - 1.0) * np.divide(f1, rho, out=np.zeros_like(rho), where=rho > 0.0)
    s2 = p1**2
    dhat = psi / k**2 + s2
    beta = p2 * s2
    cnn = (n - 1.0) / (n - 2.0)
    integrand = (
        f2 * s2 / dhat
        + (0.5 * (n - 1.0) / k**2) * f1 * p1 / dhat
        - psi * lap_f / (k**2 * (n - 2.0) * dhat)
        + cnn * ((p2 * p1) ** 2 / dhat**2 - beta**2 / dhat**3) * v
        + (cnn / k**2) * (0.25 * s2**3 / psi - s2 * beta) / dhat**3 * v
    ) * rho ** (n - 1)
    sphere = 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)
    fine = _trapezoid(integrand, r / _RADIAL_NODES)
    coarse = _trapezoid(integrand[::2], 2.0 * r / _RADIAL_NODES)
    return sphere * fine, sphere * abs(fine - coarse)


# ---------------------------------------------------------------------------
# parameter search


@dataclass(frozen=True)
class SearchCell:
    """One evaluated (radius, shear) cell of the landscape.

    ``residual`` is the radial quadrature's error estimate of ``value``; the
    cell is accepted when ``value + residual`` is negative.
    """

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
    coefficient: np.ndarray | None = None,
) -> SearchReport:
    """Grid search for a config with a negative certifying integral.

    Each cell is evaluated by the exact split of the certifying integral on
    flat balls: the background term int ``coefficient`` dV, formed once,
    plus the ball count times the radial integral of :func:`_phi_ball`.
    ``coefficient`` is the background's F (its scalar curvature R for
    t <= 0, where dropping t |W| <= 0 only weakens the certificate); it is
    formed from ``g`` as F at max(t, 0) when omitted.  Before a radius is
    evaluated, the metric must be flat on 1.1 r around every kept center, or
    FieldError names the ball.

    Radii ascend from the smallest and shears descend from the largest;
    each radius keeps, in order, the centers whose balls miss those kept
    before.  A cell wins when its value plus its quadrature error is
    negative.  Cells whose radius spans fewer than MIN_CELLS_PER_RADIUS grid
    cells are recorded but not evaluated: the deformed metric built from a
    winning cell is solved on the grid, which cannot carry the profile
    there.  Failure is data: the report carries the whole landscape, and
    when no radius is resolved the message names the grid the largest one
    needs.
    """
    chart = g.chart
    if centers is None:
        centers = _default_centers(chart)
    if len(centers) == 0:
        raise ValueError("need at least one ball center")
    length = float(min(chart.lengths))
    if r_grid is None:
        r_grid = tuple(length / d for d in RADIUS_DIVISORS)
    if k_grid is None:
        k_grid = SHEAR_GRID
    if coefficient is None:
        coefficient = scalar_weyl(g, max(t, 0.0))
    background = integrate(g, coefficient)
    profile = make_bump(PROFILE_FLOOR, chart.n)
    spacing = float(max(chart.spacings))

    landscape: list[SearchCell] = []
    unresolved = []
    for r in sorted(r_grid):
        kept = _disjoint_prefix(chart, centers, r)
        if r < MIN_CELLS_PER_RADIUS * spacing:
            unresolved.append(r)
            note = f"radius below {MIN_CELLS_PER_RADIUS:g} grid cells; profile unresolvable"
            landscape.extend(
                SearchCell(r=r, k=k, balls=len(kept), value=float("nan"), note=note)
                for k in sorted(k_grid, reverse=True)
            )
            continue
        for center in kept:
            _flat_ball_check(g, center, 1.1 * r)
        for k in sorted(k_grid, reverse=True):
            config = ConstructionConfig(chart=chart, centers=kept, r=r, k=k)
            ball, error = _phi_ball(profile, chart.n, r, k)
            value = background + len(kept) * ball
            residual = len(kept) * error
            accepted = value + residual < 0.0
            landscape.append(
                SearchCell(r=r, k=k, balls=len(kept), value=value,
                           residual=residual, accepted=accepted)
            )
            if accepted:
                return SearchReport(
                    succeeded=True,
                    config=config,
                    landscape=landscape,
                    message=(
                        f"negative certificate {value:.4f} at r={r:.4f}, k={k}, "
                        f"{len(kept)} balls; quadrature error {residual:.2e}"
                    ),
                )
    evaluated = [c for c in landscape if np.isfinite(c.value)]
    if evaluated:
        best = min(evaluated, key=lambda c: c.value)
        tail = f"; best cell r={best.r:.4f}, k={best.k}, value {best.value:.4f}"
    elif unresolved:
        r = max(unresolved)
        tail = (
            f"; no evaluable cells: every radius with disjoint balls spans fewer "
            f"than {MIN_CELLS_PER_RADIUS:g} grid cells, and the largest, r={r:.4f}, "
            f"needs {_resolving_size(chart, r)} points per axis"
        )
    else:
        tail = "; no evaluable cells"
    return SearchReport(
        succeeded=False,
        config=None,
        landscape=landscape,
        message="no cell reached a trusted negative value" + tail,
    )


# ---------------------------------------------------------------------------
# end-to-end pipeline


def _test_energy_bound(
    g: MetricField, t: float, k: float, fields: RadialFields
) -> tuple[float, MetricField]:
    """Grid test-energy bound of the certifying integral of a config, and the
    metric it speaks about, psi g + d(k psi) (x) d(k psi).

    The bound is the conformal test-function energy of the sheared metric,
    assembled from one deformation bundle of the rescaled metric through the
    closed-form routes, slab by slab as ``deformation_energy`` is.  It sits
    below the certifying integral by the integrated triangle gap
    t * int(|W'| + |E| - |W' + E|) dV', which is pointwise nonnegative; its
    negativity is what licenses the constant-curvature solve.
    """
    chart = g.chart
    scaled = MetricField(chart, fields.psi[..., None] * g.packed)
    bundle = deform(scaled, k * fields.psi, grad=k * fields.grad_psi)
    base = bundle.base
    snorm, ricci, hess = (np.empty(chart.sizes) for _ in range(3))

    def run(part: slice) -> None:
        lift, E, ricci[part], hess[part] = _energy_terms(bundle, part)
        snorm[part] = np.sqrt(lifted_norm_squared(base.W.pair[part] + E, lift))

    _each_part(chart, run)
    ricci_block, hess_block = _ricci_hessian_blocks(bundle, ricci, hess)
    scal = integrate(scaled, base.scal)
    return (
        float(scal + t * integrate(scaled, snorm) + (ricci_block + hess_block)),
        bundle.g_prime,
    )


@dataclass
class ConstructionResult:
    """Outcome of the end-to-end pipeline.

    ``path`` is "direct" when the background's conformal class already
    carried a negative verdict, "deformation" when a searched config was
    needed, "search" when the search exhausted its grid.  ``certificate``
    is the integral that licensed the solve; ``residual`` the recomputed
    max |F + 1| on ``metric``, which is None unless the solve finished.
    """

    succeeded: bool
    path: str
    trichotomy: TrichotomyResult
    metric: MetricField | None = None
    solve: SolveReport | None = None
    search: SearchReport | None = None
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
    final_tol: float = 5e-3,
) -> ConstructionResult:
    """Produce a metric with F = R + t |W| identically -1 from a background.

    The background's F is streamed once, without holding its curvature
    tensors, and feeds the trichotomy and, for t > 0, the search.  A class
    that is already negative is solved directly, reusing that F and the
    trichotomy's verdict.  Otherwise the radial search supplies a config;
    for t <= 0 it streams and certifies with the scalar curvature alone,
    since dropping t |W| <= 0 only weakens the certificate.  The
    rescaled-and-sheared metric is built, and its grid test-energy bound
    must confirm the negative certificate.

    Both paths finish through one solve, on ``g0`` or on the sheared metric.
    A solver error is returned as a failed result of its path.  The residual
    is the solver's independent curvature recomputation on the final
    metric; ``final_tol`` only grades it, the result always returns, and its
    message names the residual, and ``final_tol`` when the residual misses
    it.  The solve takes ``solve_constant_F``'s default eigenfunction start.
    """
    F0 = scalar_weyl(g0, t)
    tri = first_eigenvalue(g0, F0)
    search = config = None
    cert = float("nan")
    if tri.verdict == "negative":
        path, g, verdict = "direct", g0, tri
    else:
        search = search_parameters(
            g0, t, centers=centers, r_grid=r_grid, k_grid=k_grid,
            coefficient=F0 if t > 0.0 else None,
        )
        if not search.succeeded:
            return ConstructionResult(
                succeeded=False,
                path="search",
                search=search,
                trichotomy=tri,
                message=search.message,
            )
        config = search.config
        profile = make_bump(PROFILE_FLOOR, g0.chart.n)
        fields = radial_fields(g0, config.centers, config.r, profile)
        cert, g = _test_energy_bound(g0, t, config.k, fields)
        if not cert < 0.0:
            return ConstructionResult(
                succeeded=False,
                path="deformation",
                search=search,
                trichotomy=tri,
                config=config,
                certificate=cert,
                message=(
                    f"search cell was negative but the test-energy certificate "
                    f"came out {cert:.4e}; refusing to solve"
                ),
            )
        path, verdict = "deformation", None

    try:
        report = solve_constant_F(g, t, trichotomy=verdict)
    except (RuntimeError, ValueError) as exc:
        # ValueError: a FieldError of the solve, or the solver refusing a
        # sheared metric whose own trichotomy verdict is not negative
        return ConstructionResult(
            succeeded=False,
            path=path,
            search=search,
            trichotomy=tri,
            config=config,
            certificate=cert,
            message=str(exc),
        )
    residual = report.curvature_residual
    head = "negative class; solved without deformation" if path == "direct" else (
        f"certificate {cert:.4f}"
    )
    message = f"{head}; final curvature residual {residual:.3e}"
    if not residual <= final_tol:
        message += f" above final_tol {final_tol:.1e}"
    return ConstructionResult(
        succeeded=residual <= final_tol,
        path=path,
        metric=conformal_metric(g, report.u),
        solve=report,
        search=search,
        trichotomy=tri,
        config=config,
        certificate=cert,
        residual=residual,
        message=message,
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


def pinching_report(g: MetricField, eps: float) -> PinchingReport:
    """Audit R < 0 and |W|^2 < eps R^2 at every point of ``g``, from the
    streamed R and |W|^2 (``curvature_scalars``)."""
    if eps <= 0.0:
        raise ValueError(f"pinching threshold must be positive, got {eps}")
    scal, wn2 = curvature_scalars(g)
    margin = wn2 - eps * scal**2
    worst_scal = float(np.max(scal))
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
