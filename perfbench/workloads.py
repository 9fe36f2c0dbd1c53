"""The benchmark's workloads: inputs from presets, one pass, a correctness gate.

Each workload has three parts:

- ``setup(seed)`` builds the charts and a list of inputs from
  ``scalarweyl.presets``; pass ``i`` runs on input ``i`` modulo its length;
- ``run_pass(inputs, stage)`` makes the timed calls into the package, each
  stage inside ``stage(name)`` (a span in the traced run, a no-op otherwise);
- ``check(inputs, out, probe)`` returns a JSON-ready record of the pass and
  the list of gate failures (empty when the outputs are correct); ``probe``
  is the run's ``accuracy_probe``.

Calls go through the module objects (``deformation.deform``), so the tracer's
wrappers are seen when it installs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from scalarweyl import construct, curvature, conformal, deformation, grid, presets, yamabe

PERIOD = 2.0 * np.pi
T = 1.0


def _torus(size: int, n: int = 4):
    return grid.make_chart(n, (size,) * n, (PERIOD,) * n)


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _rms(a) -> float:
    return float(np.sqrt(np.mean(a * a)))


# ---------------------------------------------------------------------------
# curvature_4d: the curvature stack and the 15-block Weyl error, no solve

CURVATURE_SIZE = 20


def _deformation_inputs(size: int, seed: int):
    chart = _torus(size)
    g = presets.fourier_metric(chart, amplitude=0.05, seed=seed)
    f = presets.fourier_scalar(chart, amplitude=0.3, seed=seed + 100)
    return g, f


def setup_curvature(seed: int) -> list[dict]:
    g, f = _deformation_inputs(CURVATURE_SIZE, seed)
    return [{"g": g, "f": f}]


def pass_curvature(inp: dict, stage) -> dict:
    g, f = inp["g"], inp["f"]
    with stage("deform"):
        b = deformation.deform(g, f)
    with stage("scalar_weyl"):
        F = conformal.scalar_weyl(g, T, bundle=b.base)
    with stage("energy"):
        energy = deformation.deformation_energy(g, f, T, base=b.base)
    with stage("oracle"):
        direct = curvature.curvature_bundle(b.g_prime)
        E = deformation.weyl_error(b)
        scal_closed = deformation.deformed_scalar_closed_form(b)
    return {"bundle": b, "F": F, "energy": energy, "direct": direct, "E": E,
            "scal_closed": scal_closed}


def identity_residuals(out: dict) -> tuple[np.ndarray, np.ndarray]:
    """W + E - W(g') and R'_closed - R(g') of one pass."""
    b, direct = out["bundle"], out["direct"]
    return b.base.W.pair + out["E"].pair - direct.W.pair, out["scal_closed"] - direct.scal


def check_curvature(inp: dict, out: dict, probe: dict) -> tuple[dict, list[str]]:
    residuals = identity_residuals(out)
    weyl_err, scalar_err = map(_max_abs, residuals)
    # From the probe's 16^4 residual of the same smooth fields, the 20^4 one
    # must fall at least at the Tier-1 rate, carried to this smaller step.
    need = (CURVATURE_SIZE / PROBE_SIZES[1]) ** np.log2(MIN_FALL_PER_DOUBLING)
    falls = [ref / _rms(r) for ref, r in zip(probe["rms"], residuals)]
    record = {"weyl_identity_err": weyl_err, "scalar_identity_err": scalar_err,
              "rms_falls": falls, "energy": float(out["energy"])}
    failures = [
        f"{name} RMS residual fell only {fall:.2f}x from {PROBE_SIZES[1]}^4 "
        f"to {CURVATURE_SIZE}^4, need at least {need:.2f}x"
        for name, fall in zip(IDENTITIES, falls)
        if not fall >= need
    ]
    if not np.isfinite(out["energy"]) or not np.all(np.isfinite(out["F"])):
        failures.append("deformation energy or F is not finite")
    return record, failures


# ---------------------------------------------------------------------------
# solve_4d: trichotomy plus constant-F solve on a manufactured coefficient

SOLVE_SIZE = 16
SOLVE_TOL = 1e-8
# Successive passes cycle through this many problems of the seed instead of
# repeating one, so a run averages over problems.
SOLVE_PROBLEMS = 4
# Fourier terms of the metric and of u*.  With the presets' defaults (3 and
# 4) the solver's iteration count spreads 16% between problems, with a tail
# to 1.5x the median; with more terms the difficulty evens out to 8%.
METRIC_TERMS, TARGET_TERMS = 9, 16


def solve_problem(chart, seed: int) -> dict:
    g = presets.fourier_metric(chart, amplitude=0.08, seed=seed, terms=METRIC_TERMS)
    u_star = 1.0 + 0.2 * presets.fourier_scalar(
        chart, amplitude=1.0, seed=seed + 100, terms=TARGET_TERMS
    )
    params = conformal.ConformalParams(T, chart.n)
    # the exact discrete solution of -a_n Lap u + F u = -u^p is u_star
    F = (params.a_n * grid.flux_laplacian(g, u_star) - u_star**params.p_n) / u_star
    return {"g": g, "F": F, "u_star": u_star}


def setup_solve(seed: int) -> list[dict]:
    chart = _torus(SOLVE_SIZE)
    return [solve_problem(chart, SOLVE_PROBLEMS * seed + i) for i in range(SOLVE_PROBLEMS)]


def pass_solve(inp: dict, stage) -> dict:
    with stage("solve"):
        report = yamabe.solve_constant_F(inp["g"], T, coefficient=inp["F"], init="barriers")
    return {"report": report}


def check_solve(inp: dict, out: dict, probe: dict) -> tuple[dict, list[str]]:
    report = out["report"]
    err = _max_abs(report.u - inp["u_star"])
    tri = report.trichotomy
    record = {"u_err": err, "verdict": tri.verdict, "lambda_1": tri.lam,
              "eig_iters": tri.iterations, "solve_iters": report.iterations}
    failures = []
    if tri.verdict != "negative":
        failures.append(f"trichotomy verdict {tri.verdict!r}, expected 'negative'")
    if not err <= SOLVE_TOL:
        failures.append(f"max|u - u*| = {err:.3e} above {SOLVE_TOL:.0e}")
    return record, failures


# ---------------------------------------------------------------------------
# construct_4d: the whole pipeline on a background with flat balls

CONSTRUCT_SIZE = 20
K_GRID = (16, 4)
FINAL_TOL = 5e-3  # construct_constant_F's default


def quarter_centers(chart) -> tuple:
    """The four quarter-period centers, snapped to grid points."""
    patterns = (
        [0.25] * chart.n,
        [0.75] * chart.n,
        [0.25 if a % 2 == 0 else 0.75 for a in range(chart.n)],
        [0.75 if a % 2 == 0 else 0.25 for a in range(chart.n)],
    )
    return tuple(
        tuple(round(fr * size) % size * sp for fr, size, sp in zip(p, chart.sizes, chart.spacings))
        for p in patterns
    )


def setup_construct(seed: int) -> list[dict]:
    chart = _torus(CONSTRUCT_SIZE)
    centers = quarter_centers(chart)
    g0 = presets.ball_flat_metric(
        chart, centers, r_flat=1.3, r_rise=0.3, amplitude=0.2, seed=seed
    )
    # L/6 is the only default radius this grid resolves to three cells
    return [{"g0": g0, "centers": centers, "r_grid": (PERIOD / 6,), "k_grid": K_GRID}]


def pass_construct(inp: dict, stage) -> dict:
    with stage("construct"):
        result = construct.construct_constant_F(
            inp["g0"], T, inp["centers"], r_grid=inp["r_grid"], k_grid=inp["k_grid"],
            final_tol=FINAL_TOL,
        )
    return {"result": result}


def check_construct(inp: dict, out: dict, probe: dict) -> tuple[dict, list[str]]:
    result = out["result"]
    cells = result.search.landscape if result.search is not None else []
    values = [c.value for c in cells]
    finite = [v for v in values if np.isfinite(v)]
    record = {
        "path": result.path,
        "succeeded": result.succeeded,
        "lambda_1": result.trichotomy.lam,
        "eig_iters": result.trichotomy.iterations,
        "solve_iters": result.solve.iterations if result.solve is not None else 0,
        "cells_evaluated": len(finite),
        "cells_accepted": sum(c.accepted for c in cells),
        "best_cell": min(finite, default=float("nan")),
    }
    failures = []
    if result.path != "search":
        failures.append(
            f"background took the {result.path!r} path, expected 'search' "
            f"(verdict {result.trichotomy.verdict!r})"
        )
    expected = len(inp["r_grid"]) * len(inp["k_grid"])
    if len(finite) != expected:
        failures.append(f"{len(finite)} of {expected} search cells have a finite value")
    if result.succeeded and not result.residual <= FINAL_TOL:
        failures.append(f"succeeded with residual {result.residual:.3e} above {FINAL_TOL:.0e}")
    return record, failures


# ---------------------------------------------------------------------------
# accuracy probe: the flagship identities on an 8 -> 16 doubling

PROBE_SIZES = (8, 16)
# test_weyl_error_ricci_sign: the max residual falls by more than 6x per doubling
MIN_FALL_PER_DOUBLING = 6.0
IDENTITIES = ("Weyl identity", "scalar identity")


def accuracy_probe(seed: int, flip_block: int | None = None) -> dict:
    """Residuals of the Weyl and scalar identities on the seed's curvature_4d
    fields at 8^4 and 16^4, their orders, and the gate on them.

    The gate reads the max norm, as Tier-1 does.  The reported orders use
    the RMS norm: across seeds they spread 1-2% around 3.5, the max-norm
    orders 4-7% around 3.3.  ``rms`` holds the 16^4 RMS residuals, against
    which the curvature_4d gate measures its own.
    """
    maxes, rmses = [], []
    for size in PROBE_SIZES:
        g, f = _deformation_inputs(size, seed)
        b = deformation.deform(g, f)
        out = {
            "bundle": b,
            "direct": curvature.curvature_bundle(b.g_prime),
            "E": deformation.weyl_error(b, flip_block=flip_block),
            "scal_closed": deformation.deformed_scalar_closed_form(b),
        }
        residuals = identity_residuals(out)
        maxes.append([_max_abs(r) for r in residuals])
        rmses.append([_rms(r) for r in residuals])
    (w0, s0), (w1, s1) = rmses
    return {
        "weyl_identity_order": float(np.log2(w0 / w1)),
        "scalar_identity_order": float(np.log2(s0 / s1)),
        "rms": rmses[1],
        "failures": [
            f"{name} max residual fell only {lo / hi:.2f}x on {PROBE_SIZES[0]}^4 -> "
            f"{PROBE_SIZES[1]}^4, need more than {MIN_FALL_PER_DOUBLING}"
            for name, lo, hi in zip(IDENTITIES, *maxes)
            if not lo / hi > MIN_FALL_PER_DOUBLING
        ],
    }


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], list[dict]]
    run_pass: Callable
    check: Callable
    sizes: tuple


WORKLOADS = {
    "curvature_4d": Workload(
        setup_curvature, pass_curvature, check_curvature, (CURVATURE_SIZE,) * 4
    ),
    "solve_4d": Workload(setup_solve, pass_solve, check_solve, (SOLVE_SIZE,) * 4),
    "construct_4d": Workload(
        setup_construct, pass_construct, check_construct, (CONSTRUCT_SIZE,) * 4
    ),
}
