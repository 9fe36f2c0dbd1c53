"""End-to-end production of constant scalar-Weyl curvature metrics."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import metric_from_dense, phi_expansion
from scalarweyl import conformal, construct, curvature, yamabe
from scalarweyl.conformal import scalar_weyl
from scalarweyl.construct import (
    ConstructionConfig,
    SearchReport,
    _default_centers,
    _disjoint_prefix,
    _phi_ball,
    construct_constant_F,
    make_bump,
    pinching_report,
    radial_fields,
    search_parameters,
)
from scalarweyl.curvature import curvature_bundle
from scalarweyl.grid import FieldError, gradient, make_chart
from scalarweyl.presets import ball_flat_metric, flat_metric, fourier_metric, radial_cutoff

L = 2 * np.pi


def test_direct_path_reaches_constant_F_at_scheme_order():
    # t = -4 on this preset gives a clearly negative class (lambda_1 ~ -0.58),
    # so the pipeline solves without deformation; the recomputed max |F + 1|
    # measured 8.26e-3 at 12^4 and 3.48e-3 at 16^4 (order 3.0)
    results = {}
    for size in (12, 16):
        chart = make_chart(4, (size,) * 4, (2 * np.pi,) * 4)
        res = construct_constant_F(fourier_metric(chart, amplitude=0.2, seed=3), -4.0)
        assert res.path == "direct", res.message
        assert res.trichotomy.verdict == "negative"
        results[size] = res
    assert results[16].succeeded, results[16].residual
    assert results[16].message == (
        "negative class; solved without deformation; final curvature residual "
        f"{results[16].residual:.3e}"
    )
    order = np.log(results[12].residual / results[16].residual) / np.log(16 / 12)
    assert order >= 2.5


def test_constant_F_metric_with_positive_t_is_pinched():
    # the abstract's corollary: F = R + t|W| == -1 with t > 0 gives
    # R = -1 - t|W| < 0 and |W| < |R| / t, so the rescaled metric passes the
    # pinching audit at eps = 1/t^2 once the recomputed max |F + 1| is
    # below 1 (measured 0.315 at 12^4, worst R -1.03; lambda_1 = -0.0158)
    t = 0.02
    chart = make_chart(4, (12,) * 4, (L,) * 4)
    g = fourier_metric(chart, amplitude=0.5, seed=3)
    report = yamabe.solve_constant_F(g, t, init="eigen")
    assert report.trichotomy.verdict == "negative"
    assert report.curvature_residual < 1.0
    pinching = pinching_report(conformal.conformal_metric(g, report.u), 1.0 / t**2)
    assert pinching.passed, pinching


def test_construct_solves_the_positive_t_class_directly():
    # the class of the pinching case is negative (lambda_1 = -0.0158), so the
    # pipeline solves it directly; the eigenfunction start reaches a finite
    # recomputed max |F + 1| (0.315), where the barrier start stops at a
    # sign-indefinite rescaled coefficient
    chart = make_chart(4, (12,) * 4, (L,) * 4)
    res = construct_constant_F(fourier_metric(chart, amplitude=0.5, seed=3), 0.02)
    assert res.path == "direct", res.message
    assert res.solve is not None
    assert np.isfinite(res.residual)
    assert f"final curvature residual {res.residual:.3e}" in res.message


def test_construct_meets_final_tol_on_an_odd_spectral_grid():
    # the class of the test above on a spectral 13^4 chart, which carries no
    # Nyquist mode: the recomputed max |F + 1| measured 1.21e-3 after 4
    # Newton steps and 56 CG iterations, under the default final_tol 5e-3;
    # the even spectral 12^4 grid reads 1.03e-1
    chart = make_chart(4, (13,) * 4, (L,) * 4, scheme="spectral")
    res = construct_constant_F(fourier_metric(chart, amplitude=0.5, seed=3), 0.02)
    assert res.path == "direct", res.message
    assert res.succeeded, res.message
    assert res.residual <= 5e-3


def test_direct_path_names_a_missed_final_tol(monkeypatch):
    # a solve whose residual misses final_tol: the message names both
    chart = make_chart(4, (12,) * 4, (L,) * 4)
    g0 = fourier_metric(chart, amplitude=0.2, seed=3)
    report = SimpleNamespace(u=np.ones(chart.sizes), curvature_residual=0.25)
    monkeypatch.setattr(construct, "solve_constant_F", lambda *args, **kwargs: report)
    res = construct_constant_F(g0, -4.0, final_tol=0.1)
    assert res.path == "direct" and not res.succeeded
    assert res.message == (
        "negative class; solved without deformation; final curvature residual "
        "2.500e-01 above final_tol 1.0e-01"
    )


def test_direct_path_forms_one_verdict_and_one_background(monkeypatch):
    # the solve reuses the background F and the verdict of the trichotomy;
    # the second F is the independent recompute on the rescaled metric
    counts = {"scalar_weyl": 0, "first_eigenvalue": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (construct, yamabe, conformal):
        for name in counts:
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, counted(name, fn))
    chart = make_chart(4, (12,) * 4, (L,) * 4)
    res = construct_constant_F(fourier_metric(chart, amplitude=0.2, seed=3), -4.0)
    assert res.path == "direct", res.message
    assert res.solve.trichotomy is res.trichotomy
    assert counts == {"scalar_weyl": 2, "first_eigenvalue": 1}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ball_integral_scales_as_radius_power(n):
    # Phi_ball(r, k) = r^{n-2} Phi_ball(1, k/r): halving r and k together
    # divides the ball term by 2^{n-2}
    profile = make_bump(0.1, n)
    for r, k in [(1.3, 0.7), (0.9, 12.0)]:
        whole, _ = _phi_ball(profile, n, r, k)
        half, _ = _phi_ball(profile, n, r / 2, k / 2)
        assert abs(whole / half / 2.0 ** (n - 2) - 1.0) <= 1e-13


def test_radial_deformation_keeps_the_flat_torus_eigenvalue_at_zero():
    # the radial lemma: a flat ball rescaled by a radial psi, and sheared by
    # d(psi) x d(psi), is conformally flat with the flat torus's
    # lambda_1 = 0, so the grid lambda_1 must fall to 0 at the scheme's
    # order (measured 5.26e-4 -> 1.93e-4 for the rescale and 1.90e-4 ->
    # 6.78e-5 for the shear, orders 3.48 and 3.58).  The verdict reads
    # "positive" on both grids, so it is not asserted.
    lams = {"rescale": [], "shear": []}
    for size in (24, 32):
        chart = make_chart(3, (size,) * 3, (L,) * 3)
        d = chart.min_image(chart.mesh(), (np.pi,) * 3)
        psi = 1.0 - 0.5 * radial_cutoff(np.sqrt(np.sum(d * d, axis=-1)), 0.3, 2.6)
        rescaled = psi[..., None, None] * np.eye(3)
        dpsi = gradient(chart, psi)
        sheared = rescaled + dpsi[..., :, None] * dpsi[..., None, :]
        for kind, dense in (("rescale", rescaled), ("shear", sheared)):
            g = metric_from_dense(chart, dense)
            lams[kind].append(yamabe.first_eigenvalue(g, scalar_weyl(g, 0.0)).lam)
    for kind, (coarse, fine) in lams.items():
        assert fine > 0.0, (kind, fine)
        assert np.log(coarse / fine) / np.log(32 / 24) >= 3.0, (kind, coarse, fine)


def test_grid_expansion_converges_to_radial_integral():
    # one ball of radius L/4 on a flat 3-torus, where the certifying integral
    # is the ball term alone; measured gaps 2.1e-2 at 48^3 and 1.01e-3 at
    # 96^3, order 4.4
    r, k = L / 4, 1.0
    profile = make_bump(0.1, 3)
    radial, error = _phi_ball(profile, 3, r, k)
    assert abs(radial / 127.27953927 - 1.0) <= 1e-9
    assert error <= 1e-12 * radial
    gaps = {}
    for size in (48, 96):
        chart = make_chart(3, (size,) * 3, (L,) * 3)
        g = flat_metric(chart)
        fields = radial_fields(g, ((L / 2,) * 3,), r, profile)
        grid = phi_expansion(g, 1.0, k, fields, curvature_bundle(g), include_weyl=False)
        gaps[size] = abs(grid / radial - 1.0)
    assert gaps[96] <= 2e-3
    assert np.log2(gaps[48] / gaps[96]) >= 3.5


def test_search_path_reports_best_cell():
    # a positive class on a background flat on 1.8 around four quarter
    # centers: both cells are evaluated, positive, and the failure names the
    # best one (measured 9603.4 at k = 16 and 3649.3 at k = 4)
    chart = make_chart(4, (16,) * 4, (L,) * 4)
    centers = _default_centers(chart)
    g0 = ball_flat_metric(chart, centers, r_flat=1.8, r_rise=0.3, seed=0)
    res = construct_constant_F(g0, 1.0, centers, r_grid=(L / 4,), k_grid=(16, 4))
    assert res.path == "search", res.message
    assert res.trichotomy.verdict == "positive"
    values = [c.value for c in res.search.landscape]
    assert len(values) == 2 and all(np.isfinite(v) and v > 0.0 for v in values)
    best = min(res.search.landscape, key=lambda c: c.value)
    assert f"best cell r={best.r:.4f}, k={best.k}" in res.message


def test_search_rejects_background_curved_on_a_ball():
    chart = make_chart(4, (16,) * 4, (L,) * 4)
    with pytest.raises(FieldError, match="not flat on the ball"):
        search_parameters(fourier_metric(chart, seed=0), 1.0, r_grid=(L / 4,))


def test_direct_path_returns_a_solver_failure_as_data(monkeypatch):
    chart = make_chart(4, (12,) * 4, (L,) * 4)
    g0 = fourier_metric(chart, amplitude=0.2, seed=3)
    for exc in (RuntimeError("Newton stalled"), FieldError("u lost positivity")):

        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(construct, "solve_constant_F", failing)
        res = construct_constant_F(g0, -4.0)
        assert res.path == "direct"
        assert not res.succeeded
        assert res.metric is None and res.solve is None
        assert res.message == str(exc)


@pytest.mark.parametrize(
    "change, match",
    [
        ({"centers": ()}, "need at least one ball center"),
        ({"centers": ((1.0, 2.0, 3.0),)}, "must have 4 coordinates"),
        ({"r": L / 2.0}, "does not fit the chart"),
        ({"r": 0.0}, "does not fit the chart"),
        ({"k": 0.0}, "shear strength must be positive"),
        ({"k": -1.0}, "shear strength must be positive"),
        # the profile floor is the module constant make_bump receives, and
        # make_bump still checks it
        ({"floor": 0.0}, "profile floor must lie in"),
        ({"floor": 1.0}, "profile floor must lie in"),
        # the two balls touch across the periodic boundary
        ({"centers": ((0.1,) * 4, (L - 0.1, 0.1, 0.1, 0.1))}, "overlap: 1 of 2 centers"),
    ],
)
def test_config_rejects_invalid_input(change, match):
    chart = make_chart(4, (8,) * 4, (L,) * 4)
    args = dict(chart=chart, centers=_default_centers(chart), r=L / 8, k=4.0)
    ConstructionConfig(**args)
    with pytest.raises(ValueError, match=match):
        if "floor" in change:
            make_bump(change["floor"], chart.n)
        else:
            ConstructionConfig(**{**args, **change})


def test_search_rejects_an_empty_center_list():
    g = flat_metric(make_chart(4, (8,) * 4, (L,) * 4))
    with pytest.raises(ValueError, match="need at least one ball center"):
        search_parameters(g, 1.0, centers=())


def test_search_rejects_invalid_cells_through_the_config():
    # r = 2.5 spans more than three cells at 8^4 and fits; r = 3.0 does not fit
    g = flat_metric(make_chart(4, (8,) * 4, (L,) * 4))
    for k in (0.0, -1.0):
        with pytest.raises(ValueError, match="shear strength must be positive"):
            search_parameters(g, 1.0, r_grid=(2.5,), k_grid=(k,))
    with pytest.raises(ValueError, match="does not fit the chart"):
        search_parameters(g, 1.0, r_grid=(3.0,), k_grid=(4.0,))


def test_search_forms_the_background_coefficient_when_omitted():
    # on 12^4, r = 1.6 spans three cells and its 1.1 r ball stays inside the
    # flat 1.8 around each quarter center
    chart = make_chart(4, (12,) * 4, (L,) * 4)
    g = ball_flat_metric(chart, _default_centers(chart), r_flat=1.8, r_rise=0.3, seed=0)
    bundle = curvature_bundle(g)
    grids = dict(r_grid=(1.6,), k_grid=(16.0, 4.0))

    def values(report):
        return [c.value for c in report.landscape]

    for t in (1.0, 0.0, -1.0):
        given = scalar_weyl(g, t, bundle=bundle) if t > 0.0 else bundle.scal
        formed = values(search_parameters(g, t, **grids))
        assert len(formed) == 2 and all(np.isfinite(formed))
        assert formed == values(search_parameters(g, t, coefficient=given, **grids))
    # the t > 0 background carries t |W|, which the scalar curvature lacks
    assert values(search_parameters(g, 1.0, **grids)) != values(
        search_parameters(g, 1.0, coefficient=bundle.scal, **grids)
    )


def test_search_names_the_grid_its_largest_radius_needs():
    # the default radii run from L/16 to L/6; at 12^4 and 16^4 each spans
    # fewer than three cells, and L/6 first spans three cells at 18 points
    for size in (12, 16):
        g = flat_metric(make_chart(4, (size,) * 4, (L,) * 4))
        report = search_parameters(g, 1.0)
        assert not report.succeeded
        assert not any(np.isfinite(c.value) for c in report.landscape)
        assert report.message.endswith(
            "no evaluable cells: every radius with disjoint balls spans fewer than "
            f"3 grid cells, and the largest, r={L / 6:.4f}, needs 18 points per axis"
        ), report.message
    assert construct._resolving_size(make_chart(4, (12,) * 4, (L,) * 4), L / 6) == 18
    # an 18^4 grid does evaluate that radius
    g = flat_metric(make_chart(4, (18,) * 4, (L,) * 4))
    assert any(np.isfinite(c.value) for c in search_parameters(g, 1.0).landscape)


def test_search_and_radial_fields_cache_no_dense_metric():
    # the flatness check unpacks the metric on each ball only: a dense
    # (n, n) field cached on the background would live as long as it does
    chart = make_chart(4, (12,) * 4, (L,) * 4)
    g = flat_metric(chart)
    report = search_parameters(g, 1.0, r_grid=(L / 4,), k_grid=(4.0,))
    assert any(np.isfinite(c.value) for c in report.landscape), report.message
    assert "dense" not in g.__dict__
    radial_fields(g, _default_centers(chart)[:2], L / 8, make_bump(0.1, 4))
    assert "dense" not in g.__dict__


def test_radial_fields_adds_disjoint_balls():
    chart = make_chart(4, (12,) * 4, (L,) * 4)
    g = flat_metric(chart)
    profile = make_bump(0.1, 4)
    r = L / 8
    a, b = _default_centers(chart)[:2]
    both = radial_fields(g, (a, b), r, profile)
    one, two = (radial_fields(g, (c,), r, profile) for c in (a, b))
    assert np.any(one.psi != 1.0) and np.any(two.psi != 1.0)
    assert np.max(np.abs(both.psi - 1.0 - (one.psi - 1.0) - (two.psi - 1.0))) <= 1e-15
    for name in ("grad_psi", "hess_psi"):
        total = getattr(one, name) + getattr(two, name)
        assert np.max(np.abs(getattr(both, name) - total)) <= 1e-15
    with pytest.raises(ValueError, match="overlap"):
        radial_fields(g, (a, a), r, profile)
    with pytest.raises(ValueError, match="must have 4 coordinates"):
        radial_fields(g, (a[:3],), r, profile)


def forced_deformation_case(monkeypatch):
    """A positive class on 12^4, flat on 1.8 around the quarter centers, with
    the search forced to hand over the cell r = L/8, k = 4."""
    chart = make_chart(4, (12,) * 4, (L,) * 4)
    centers = _default_centers(chart)
    g0 = ball_flat_metric(chart, centers, r_flat=1.8, r_rise=0.3, seed=0)

    def forced(g, t, centers=None, **_):
        config = ConstructionConfig(
            chart=g.chart, centers=_disjoint_prefix(g.chart, centers, L / 8), r=L / 8, k=4.0
        )
        return SearchReport(succeeded=True, config=config, message="forced cell")

    monkeypatch.setattr(construct, "search_parameters", forced)
    return g0, centers


def test_deformation_path_refuses_a_positive_certificate(monkeypatch):
    # the grid test-energy bound of the sheared metric measured
    # 1160.141424252396 before its ingredients were shared with
    # deformation_energy
    g0, centers = forced_deformation_case(monkeypatch)
    res = construct_constant_F(g0, 1.0, centers)
    assert res.path == "deformation"
    assert not res.succeeded
    assert "refusing to solve" in res.message
    assert res.certificate == pytest.approx(1160.141424252396, rel=1e-12)


def test_deformation_path_reports_a_solver_verdict_error(monkeypatch):
    # with the certificate forced negative, the sheared metric's own
    # trichotomy is still positive and the solver refuses the class
    g0, centers = forced_deformation_case(monkeypatch)
    bound = construct._test_energy_bound
    monkeypatch.setattr(
        construct, "_test_energy_bound", lambda *args: (-1.0, bound(*args)[1])
    )
    res = construct_constant_F(g0, 1.0, centers)
    assert res.path == "deformation"
    assert not res.succeeded and res.solve is None
    assert res.certificate == -1.0
    assert "requires a negative first eigenvalue" in res.message
    assert "'positive'" in res.message


def test_deformation_path_names_a_missed_final_tol(monkeypatch):
    # with the certificate forced negative and a solve whose residual misses
    # final_tol, the message names both, as on the direct path
    g0, centers = forced_deformation_case(monkeypatch)
    monkeypatch.setattr(construct, "_test_energy_bound", lambda *args: (-1.0, g0))
    report = SimpleNamespace(u=np.ones(g0.chart.sizes), curvature_residual=0.25)
    monkeypatch.setattr(construct, "solve_constant_F", lambda *args, **kwargs: report)
    res = construct_constant_F(g0, 1.0, centers, final_tol=0.1)
    assert res.path == "deformation" and not res.succeeded
    assert res.message == (
        "certificate -1.0000; final curvature residual 2.500e-01 above final_tol 1.0e-01"
    )


def read_off(monkeypatch, bundle):
    """Have ``pinching_report`` read R and |W|^2 off ``bundle``."""
    monkeypatch.setattr(
        construct, "curvature_scalars", lambda g: curvature.curvature_scalars(g, bundle)
    )


def test_pinching_report_streams_what_the_bundle_route_reads(monkeypatch):
    # three planes per slab: slabs of 3, 3 and 2 planes
    monkeypatch.setattr(curvature, "_SLAB_POINTS", 3 * 8**3)
    chart = make_chart(4, (8,) * 4, (L,) * 4)
    g = fourier_metric(chart, amplitude=0.25, seed=2)
    bundle = curvature_bundle(g)
    for eps in (1e-3, 1.0, 1e3):
        with monkeypatch.context() as m:
            streamed = pinching_report(g, eps)
            read_off(m, bundle)
            read = pinching_report(g, eps)
        assert streamed.worst_scal == read.worst_scal
        assert streamed.worst_margin == read.worst_margin
        assert streamed == read


def test_pinching_report_reads_the_curvature_stack(monkeypatch):
    chart = make_chart(4, (8,) * 4, (L,) * 4)
    g = fourier_metric(chart, amplitude=0.25, seed=2)
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="must be positive"):
            pinching_report(g, eps)
    bundle = curvature_bundle(g)
    scal = scalar_weyl(g, 0.0, bundle=bundle)
    wnorm = scalar_weyl(g, 1.0, bundle=bundle) - scal
    # shifting R below zero everywhere reaches the passing branch
    negative = dataclasses.replace(bundle, scal=bundle.scal - (np.max(bundle.scal) + 1.0))
    for b, R in ((bundle, scal), (negative, negative.scal)):
        read_off(monkeypatch, b)
        for eps in (1e-3, 1.0, 1e3):
            rep = pinching_report(g, eps)
            margin = wnorm**2 - eps * R**2
            assert rep.worst_scal == np.max(R)
            assert rep.worst_margin == pytest.approx(
                np.max(margin), rel=1e-12, abs=1e-12 * np.max(np.abs(margin))
            )
            assert rep.scalar_negative == (np.max(R) < 0.0)
            assert rep.pinched == (rep.worst_margin < 0.0)
            assert rep.passed == (rep.scalar_negative and rep.pinched)
    assert pinching_report(g, 1e3).passed
    read_off(monkeypatch, bundle)
    assert not pinching_report(g, 1e-3).passed
