"""End-to-end production of constant scalar-Weyl curvature metrics."""

import dataclasses

import numpy as np
import pytest

from oracles import phi_expansion
from scalarweyl import conformal, construct, yamabe
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
from scalarweyl.grid import FieldError, make_chart
from scalarweyl.presets import ball_flat_metric, flat_metric, fourier_metric

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
    order = np.log(results[12].residual / results[16].residual) / np.log(16 / 12)
    assert order >= 2.5


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
        fields = radial_fields(g, (L / 2,) * 3, r, profile)
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


def test_pinching_report_reads_the_curvature_stack():
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
        for eps in (1e-3, 1.0, 1e3):
            rep = pinching_report(g, eps, bundle=b)
            margin = wnorm**2 - eps * R**2
            assert rep.worst_scal == np.max(R)
            assert rep.worst_margin == pytest.approx(
                np.max(margin), rel=1e-12, abs=1e-12 * np.max(np.abs(margin))
            )
            assert rep.scalar_negative == (np.max(R) < 0.0)
            assert rep.pinched == (rep.worst_margin < 0.0)
            assert rep.passed == (rep.scalar_negative and rep.pinched)
    assert pinching_report(g, 1e3, bundle=negative).passed
    assert not pinching_report(g, 1e-3, bundle=bundle).passed
