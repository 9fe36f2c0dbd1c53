"""Reference fields: flat/band-limited/conformally-flat metrics, cutoffs.

Generators sample fixed low-frequency Fourier data from a seeded RNG, so two
charts with different resolutions (same seed, same lengths) sample the same
smooth field.  That makes Richardson refinement comparisons meaningful.
Sampling is separable: each term's phase splits into a sum over the leading
axes and one over the trailing axes, so all terms of a field come from one
matrix product.  A point shared by two resolutions still gets the same value
to roundoff.

Perturbation amplitudes are normalized analytically (never by a max over
grid points) to keep the field resolution-independent; the default bound
keeps every metric safely SPD by Gershgorin.
"""

from __future__ import annotations

import numpy as np

from .grid import Chart, MetricField, sym2_pack, sym2_pack_indices

__all__ = [
    "flat_metric",
    "fourier_scalar",
    "fourier_metric",
    "conformally_flat_metric",
    "smooth_bridge",
    "radial_cutoff",
    "ball_flat_metric",
]


def flat_metric(chart: Chart) -> MetricField:
    return MetricField(chart, np.tile(sym2_pack(np.eye(chart.n), chart.n), chart.shape + (1,)))


def _mode_table(rng: np.random.Generator, n: int, terms: int):
    # integer wavevectors with |m_a| <= 1, never all zero
    modes = np.zeros((terms, n), dtype=int)
    for r in range(terms):
        while not modes[r].any():
            modes[r] = rng.integers(-1, 2, size=n)
    coeffs = rng.standard_normal(terms)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=terms)
    return modes, coeffs, phases


def _sample_modes(chart: Chart, modes, coeffs, phases) -> np.ndarray:
    """sum_t c_t sin(k_t . x + phase_t) as one matrix product.

    The axes split at n // 2 into leading and trailing points, A and B the
    phase over each, and sin(A + B) = sin A cos B + cos A sin B puts every
    term in ``left @ right``: [c sin A, c cos A] by [cos B; sin B].
    """
    h = chart.n // 2
    k = 2.0 * np.pi * np.asarray(modes) / np.asarray(chart.lengths)  # (terms, n)

    def phase(axes) -> np.ndarray:  # (points over these axes, terms)
        xs = np.meshgrid(*(chart.axes()[a] for a in axes), indexing="ij")
        return sum(x.reshape(-1, 1) * k[:, a] for x, a in zip(xs, axes))

    A = phases + phase(range(h))
    B = phase(range(h, chart.n))
    left = np.concatenate([coeffs * np.sin(A), coeffs * np.cos(A)], axis=1)
    right = np.concatenate([np.cos(B), np.sin(B)], axis=1).T
    return (left @ right).reshape(chart.shape)


def fourier_scalar(
    chart: Chart, amplitude: float = 0.1, seed: int = 0, terms: int = 4
) -> np.ndarray:
    """Band-limited random scalar with mean 0 and |field| <= amplitude."""
    rng = np.random.default_rng(seed)
    modes, coeffs, phases = _mode_table(rng, chart.n, terms)
    coeffs *= amplitude / np.sum(np.abs(coeffs))
    return _sample_modes(chart, modes, coeffs, phases)


def fourier_metric(
    chart: Chart,
    amplitude: float = 0.25,
    seed: int = 0,
    terms: int = 3,
) -> MetricField:
    """Identity plus a band-limited symmetric perturbation, SPD by bound.

    Row sums of the perturbation stay below ``amplitude`` pointwise, so the
    eigenvalues stay within ``1 +/- amplitude``.
    """
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    n = chart.n
    rng = np.random.default_rng(seed)
    per_entry = amplitude / n
    npack = n * (n + 1) // 2
    # the kept array comes before the transient component-major one, so
    # freeing that leaves no heap hole under a kept array
    packed = np.empty(chart.shape + (npack,))
    comps = np.empty((npack,) + chart.shape)
    # the draws follow the packed (i <= j) order; each component fills a
    # contiguous grid array, and one transpose makes them point-major
    for c, (i, j) in enumerate(sym2_pack_indices(n)):
        modes, coeffs, phases = _mode_table(rng, n, terms)
        coeffs *= per_entry / np.sum(np.abs(coeffs))
        np.add(float(i == j), _sample_modes(chart, modes, coeffs, phases), out=comps[c])
    np.copyto(packed, np.moveaxis(comps, 0, -1))
    del comps  # before the metric forms its own component-major copy
    return MetricField(chart, packed)


def conformally_flat_metric(chart: Chart, phi: np.ndarray) -> MetricField:
    """Metric ``exp(2 phi) * identity``."""
    factor = np.exp(2.0 * np.asarray(phi, dtype=float))
    return MetricField(chart, factor[..., None] * sym2_pack(np.eye(chart.n), chart.n))


def smooth_bridge(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        hi = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return lo / (lo + hi)


def radial_cutoff(rho: np.ndarray, r_inner: float, r_outer: float) -> np.ndarray:
    """Smooth radial window: 1 for rho <= r_inner, 0 for rho >= r_outer."""
    if not 0.0 < r_inner < r_outer:
        raise ValueError(f"need 0 < r_inner < r_outer, got {r_inner}, {r_outer}")
    return 1.0 - smooth_bridge((np.asarray(rho) - r_inner) / (r_outer - r_inner))


def ball_flat_metric(
    chart: Chart,
    centers,
    r_flat: float,
    r_rise: float,
    amplitude: float = 0.2,
    seed: int = 0,
) -> MetricField:
    """Band-limited perturbed metric that is exactly flat inside given balls.

    The perturbation is multiplied by a smooth window vanishing identically
    for distance <= r_flat from every center and reaching 1 at
    r_flat + r_rise (periodic minimum-image distance).
    """
    pert = fourier_metric(chart, amplitude=amplitude, seed=seed)
    window = np.ones(chart.shape)
    mesh = chart.mesh()
    for center in np.atleast_2d(np.asarray(centers, dtype=float)):
        d = chart.min_image(mesh, center)
        rho = np.sqrt(np.sum(d * d, axis=-1))
        window = window * (1.0 - radial_cutoff(rho, r_flat, r_flat + r_rise))
    eye = sym2_pack(np.eye(chart.n), chart.n)
    return MetricField(chart, eye + window[..., None] * (pert.packed - eye))
