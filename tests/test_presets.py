"""Reference fields: separable Fourier sampling, resolution consistency,
the Gershgorin bound, and the packed flat and conformally flat metrics."""

import numpy as np
import pytest

from oracles import fourier_sum, metric_from_dense
from scalarweyl.grid import make_chart, sym2_pack_indices, sym2_unpack
from scalarweyl.presets import (
    _mode_table,
    _sample_modes,
    conformally_flat_metric,
    flat_metric,
    fourier_metric,
    fourier_scalar,
)

LENGTHS = (1.0, 2.0, 3.0, 1.5, 2.5, 0.5)


def charts():
    # cubic grids for n = 3..6 and non-cubic ones for n = 3, 4; every chart
    # has unequal lengths
    for n in (3, 4, 5, 6):
        yield make_chart(n, (8,) * n, LENGTHS[:n])
    for n in (3, 4):
        yield make_chart(n, (8, 10, 12, 8)[:n], LENGTHS[:n])


@pytest.mark.parametrize("chart", list(charts()), ids=lambda c: "x".join(map(str, c.sizes)))
def test_fourier_fields_match_termwise_oracle(chart):
    n, amplitude = chart.n, 0.7
    got = 1.0 + fourier_scalar(chart, amplitude=amplitude, seed=4, terms=9)
    rng = np.random.default_rng(4)
    modes, coeffs, phases = _mode_table(rng, n, 9)
    coeffs *= amplitude / np.sum(np.abs(coeffs))
    want = 1.0 + fourier_sum(chart, modes, coeffs, phases)
    assert np.max(np.abs(got - want)) <= 1e-14 * amplitude

    g = fourier_metric(chart, amplitude=amplitude, seed=5, terms=4)
    rng = np.random.default_rng(5)
    for c, (i, j) in enumerate(sym2_pack_indices(n)):
        modes, coeffs, phases = _mode_table(rng, n, 4)
        coeffs *= amplitude / n / np.sum(np.abs(coeffs))
        want = float(i == j) + fourier_sum(chart, modes, coeffs, phases)
        assert np.max(np.abs(g.packed[..., c] - want)) <= 1e-14 * amplitude
        # the component-major fill only moves the samples: bit for bit
        # the per-component strided fill
        sampled = float(i == j) + _sample_modes(chart, modes, coeffs, phases)
        assert np.array_equal(g.packed[..., c], sampled)


@pytest.mark.parametrize("n", [3, 4])
def test_fourier_fields_consistent_across_resolutions(n):
    coarse_chart = make_chart(n, (8,) * n, LENGTHS[:n])
    fine_chart = make_chart(n, (16,) * n, LENGTHS[:n])
    every_other = (slice(None, None, 2),) * n
    coarse = fourier_scalar(coarse_chart, amplitude=0.5, seed=9, terms=6)
    fine = fourier_scalar(fine_chart, amplitude=0.5, seed=9, terms=6)
    assert np.max(np.abs(coarse - fine[every_other])) <= 1e-15
    coarse = fourier_metric(coarse_chart, amplitude=0.5, seed=9).packed
    fine = fourier_metric(fine_chart, amplitude=0.5, seed=9).packed
    assert np.max(np.abs(coarse - fine[every_other])) <= 1e-15


@pytest.mark.parametrize("amplitude", [0.25, 0.9])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_fourier_metric_eigenvalues_within_gershgorin_bound(n, amplitude):
    chart = make_chart(n, (8,) * n, LENGTHS[:n])
    g = fourier_metric(chart, amplitude=amplitude, seed=n, terms=5)
    eig = np.linalg.eigvalsh(sym2_unpack(g.packed, n))
    assert np.all(eig > 1.0 - amplitude)
    assert np.all(eig < 1.0 + amplitude)


def test_flat_and_conformal_metrics_pack_as_from_dense():
    for chart in charts():
        n = chart.n
        eye = np.broadcast_to(np.eye(n), chart.sizes + (n, n))
        assert np.array_equal(flat_metric(chart).packed, metric_from_dense(chart, eye).packed)
        phi = fourier_scalar(chart, amplitude=0.3, seed=n)
        dense = np.exp(2.0 * phi)[..., None, None] * np.eye(n)
        assert np.array_equal(
            conformally_flat_metric(chart, phi).packed,
            metric_from_dense(chart, dense).packed,
        )
