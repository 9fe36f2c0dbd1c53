"""Spectral classification and constant-curvature solver checks.

The eigenvalue path is validated against a dense matrix assembled one basis
vector at a time, the nonlinear solver against manufactured solutions whose
coefficient is built from the discrete operator itself.  Eigenvalue
convergence on the doubling sequence 8/16/32 measures order 3.8; asserted
above 3.5.
"""

import re
import sys
import threading
import weakref
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conformal_energy, whole_field_flux_laplacian
from scalarweyl import conformal, grid, yamabe
from scalarweyl.conformal import (
    ConformalParams,
    conformal_metric,
    modified_laplacian_apply,
    scalar_weyl,
)
from scalarweyl.grid import (
    FieldError,
    FluxForm,
    flux_laplacian,
    integrate,
    make_chart,
    sym2_unpack,
)
from scalarweyl.presets import flat_metric, fourier_metric, fourier_scalar
from scalarweyl.yamabe import (
    _pcg,
    _penalty_apply,
    _penalty_strength,
    _preconditioner,
    _real_basis,
    _ritz_step,
    _shifted_solver,
    first_eigenvalue,
    solve_constant_F,
)


def torus(n, size, scheme="fd4"):
    return make_chart(n, (size,) * n, (2.0 * np.pi,) * n, scheme=scheme)


def waves(chart):
    """Broadcast coordinate fields of the first two axes."""
    ones = np.ones(chart.sizes)
    mesh = chart.mesh()
    return mesh[0] * ones, mesh[1] * ones


# ---------------------------------------------------------------------------
# penalty and preconditioner


def _roll_penalty(phi, dens, eta):
    # reference: each axis's fourth difference as a second difference of a
    # second difference, written with rolls
    def second(arr, axis):
        return np.roll(arr, -1, axis) - 2.0 * arr + np.roll(arr, 1, axis)

    acc = np.zeros_like(phi)
    for a in range(phi.ndim):
        acc += second(second(phi, a), a)
    return eta * acc / dens


@pytest.mark.parametrize("sizes", [(8, 10, 12), (8, 8, 10, 8), (8, 10, 8, 12, 10)])
def test_penalty_matches_roll_reference(sizes):
    rng = np.random.default_rng(5)
    dens = 1.0 + 0.5 * rng.random(sizes)
    # a constant 1 has a zero reference, so a zero bound: 1 stays exactly
    # in the penalty's kernel
    for phi in (rng.standard_normal(sizes), np.ones(sizes)):
        ref = _roll_penalty(phi, dens, 0.7)
        got = _penalty_apply(dens, 0.7)(phi)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _complex_preconditioner(chart, a_n, c_lap, q_mean, pen_mean):
    # reference: the full complex spectrum of the symbol, with each scheme's
    # first-derivative symbol written out: fd4's (8 sin kh - sin 2kh) / (6h),
    # and the spectral k, whose Nyquist mode the scheme drops
    denom = np.full(chart.sizes, q_mean)
    for a, (size, h) in enumerate(zip(chart.sizes, chart.spacings)):
        k = 2.0 * np.pi * np.fft.fftfreq(size, d=h)
        if chart.scheme == "spectral":
            d = np.where(np.arange(size) == size // 2, 0.0, k)
        else:
            d = (8.0 * np.sin(k * h) - np.sin(2.0 * k * h)) / (6.0 * h)
        shape = [1] * chart.n
        shape[a] = size
        pen = (2.0 * np.cos(k * h) - 2.0) ** 2
        denom = denom + (a_n * c_lap * d**2).reshape(shape)
        denom = denom + (pen_mean * pen).reshape(shape)
    return lambda r: np.real(np.fft.ifftn(np.fft.fftn(r) / denom))


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
# the third and fourth are the benchmark's 4D grids; the last two have
# unequal spacings, so each axis's symbol must carry its own scale
@pytest.mark.parametrize(
    "sizes, lengths",
    [
        ((8, 10, 12), (2.0 * np.pi,) * 3),
        ((8, 12, 8, 10), (2.0 * np.pi,) * 4),
        ((16,) * 4, (2.0 * np.pi,) * 4),
        ((20,) * 4, (2.0 * np.pi,) * 4),
        ((8, 10, 12), (1.0, 2.0, 3.0)),
        ((8, 12, 8, 10), (7.0, 2.0, 3.0, 4.0)),
    ],
    ids=[f"sizes{i}" for i in range(6)],
)
def test_real_fft_preconditioner_matches_complex_form(sizes, lengths, scheme):
    chart = make_chart(len(sizes), sizes, lengths, scheme=scheme)
    rng = np.random.default_rng(3)
    r = rng.standard_normal(sizes)
    q = 0.4 + rng.random(sizes)
    g = fourier_metric(chart, amplitude=0.2, seed=4)
    a_n = ConformalParams(1.0, chart.n).a_n
    # the symbol's coefficients: the mean of tr g^{-1} / n and of q dV
    inv = sym2_unpack(g.inverse, chart.n)
    c_lap = float(np.mean(np.trace(inv, axis1=-2, axis2=-1))) / chart.n
    q_mean = float(np.mean(q * g.sqrt_det))
    ref = _complex_preconditioner(chart, a_n, c_lap, q_mean, 0.2)(r)
    got = _preconditioner(FluxForm.of(g), 0.2)(q)(r)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("size", range(2, 26))
def test_real_basis_is_orthonormal(size):
    Q = _real_basis(size)
    eye = np.eye(size)
    assert np.max(np.abs(Q @ Q.T - eye)) <= 1e-14
    assert np.max(np.abs(Q.T @ Q - eye)) <= 1e-14


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("sizes", [(8, 10, 12), (8, 12, 8, 10)])
def test_preconditioner_is_symmetric_and_positive(sizes, scheme):
    # the preconditioner of CG and LOBPCG must be a symmetric positive
    # definite operator in the plain Euclidean product
    chart = make_chart(len(sizes), sizes, (2.0 * np.pi,) * len(sizes), scheme=scheme)
    rng = np.random.default_rng(7)
    g = fourier_metric(chart, amplitude=0.2, seed=4)
    precond = _preconditioner(FluxForm.of(g), 0.2)(0.4 + rng.random(sizes))
    for _ in range(3):
        a, b = rng.standard_normal((2,) + sizes)
        Pa, Pb = precond(a), precond(b)
        aPa, bPb = float(np.vdot(a, Pa)), float(np.vdot(b, Pb))
        assert aPa > 0.0 and bPb > 0.0
        # relative to the Cauchy-Schwarz bound sqrt(<a, Pa> <b, Pb>)
        assert abs(float(np.vdot(a, Pb)) - float(np.vdot(Pa, b))) <= 1e-13 * np.sqrt(aPa * bPb)


# ---------------------------------------------------------------------------
# trichotomy


def operator_matrix(g, t, coefficient=None):
    """Dense symmetric matrix of the shifted operator on the point basis.

    Density-symmetrized so plain ``eigvalsh`` applies; the brute-force
    eigenvalue oracle on tiny grids (the apply is assembled one basis vector
    at a time).  Carries the same checkerboard regularization as
    ``first_eigenvalue``, so the oracle and the eigensolver see the same
    spectrum.
    """
    chart = g.chart
    params = ConformalParams(t, chart.n)
    F = coefficient if coefficient is not None else scalar_weyl(g, t)
    F = np.asarray(F, dtype=float)
    pen = _penalty_apply(g.sqrt_det, _penalty_strength(params.a_n, F))
    npts = chart.npoints
    basis = np.zeros(chart.sizes)
    flat = basis.reshape(-1)
    A = np.empty((npts, npts))
    for j in range(npts):
        flat[j] = 1.0
        A[:, j] = (modified_laplacian_apply(g, basis, F=F) + pen(basis)).reshape(-1)
        flat[j] = 0.0
    s = np.sqrt(g.sqrt_det.reshape(-1))
    sym = (s[:, None] * A) / s[None, :]
    return 0.5 * (sym + sym.T)



def test_flat_torus_is_zero_class():
    g = flat_metric(torus(4, 8))
    tri = first_eigenvalue(g, scalar_weyl(g, 1.0))
    assert tri.verdict == "zero"
    assert abs(tri.lam) < 1e-12
    assert tri.iterations == 1


def test_constant_coefficient_shifts_the_spectrum_exactly():
    chart = torus(4, 8)
    tri = first_eigenvalue(flat_metric(chart), np.full(chart.sizes, -2.5))
    assert tri.verdict == "negative"
    assert abs(tri.lam + 2.5) < 1e-12


def test_eigenfunction_is_positive_and_normalized():
    chart = torus(4, 8)
    g = fourier_metric(chart, amplitude=0.08, seed=9)
    tri = first_eigenvalue(g, scalar_weyl(g, 1.0))
    assert float(np.min(tri.eigenfunction)) > 0.0
    norm = integrate(g, tri.eigenfunction**2)
    assert abs(norm - 1.0) < 1e-12


def test_eigenvalue_matches_dense_oracle():
    g = fourier_metric(torus(3, 8), amplitude=0.1, seed=4)
    tri = first_eigenvalue(g, scalar_weyl(g, 1.0))
    evals = np.linalg.eigvalsh(operator_matrix(g, 1.0))
    assert abs(tri.lam - evals[0]) < 1e-10
    # the regularized spectrum has an O(1) gap over the ground state
    assert evals[1] - evals[0] > 1.0


def test_eigenfunction_matches_dense_oracle_on_noncubic_chart():
    chart = make_chart(3, (8, 10, 12), (2.0 * np.pi,) * 3)
    g = fourier_metric(chart, amplitude=0.1, seed=4)
    x1, x2 = waves(chart)
    F = -1.0 + 1.5 * np.sin(x1) * np.cos(x2)
    assert float(np.max(F)) > 0.0 > float(np.min(F))
    tri = first_eigenvalue(g, F)
    evals, evecs = np.linalg.eigh(operator_matrix(g, 1.0, coefficient=F))
    assert abs(tri.lam - evals[0]) < 1e-10
    # the dense ground vector is density-symmetrized: undo the sqrt(sqrt(g))
    # scaling, then fix the sign and the L2(dV) norm as the solver does
    u = evecs[:, 0].reshape(chart.sizes) / np.sqrt(g.sqrt_det)
    u /= np.sqrt(integrate(g, u * u))
    u *= np.sign(integrate(g, u))
    assert float(np.max(np.abs(tri.eigenfunction - u))) < 1e-8


def test_eigensolver_failure_names_its_cause(monkeypatch):
    monkeypatch.setattr(yamabe, "_EIG_MAXITER", 2)
    g = fourier_metric(torus(4, 8), amplitude=0.08, seed=9)
    with pytest.raises(
        RuntimeError, match=r"eigensolver did not converge after 2 iterations: "
    ) as err:
        first_eigenvalue(g, scalar_weyl(g, 1.0))
    # and why: the applies (the starting one and one per iteration), the
    # last residual against the tolerance, and the spread over the grid of
    # the flux coefficient's trace, which the mean-coefficient
    # preconditioner leaves out
    msg = str(err.value)
    assert "3 operator applies" in msg
    res, tol = re.search(r"last residual (\S+) against tolerance (\S+),", msg).groups()
    scale = max(1.0, float(np.max(np.abs(scalar_weyl(g, 1.0)))))
    assert tol == f"{yamabe._EIG_TOL * scale:.3e}"
    assert float(res) > float(tol)
    form = FluxForm.of(g)
    trace = sum(form.component(a, a) for a in range(4))
    ratio = float(np.max(trace) / np.min(trace))
    assert ratio > 1.0
    assert f"trace max/min {ratio:.4f} over the grid" in msg


def test_eigensolver_operator_applies(monkeypatch):
    # one operator apply per iteration and no inner linear solves
    chart = torus(4, 12)
    g = fourier_metric(chart, amplitude=0.08, seed=11)
    params = ConformalParams(1.0, chart.n)
    u_star = 1.0 + 0.2 * np.sin(chart.mesh()[0]) * np.ones(chart.sizes)
    F = (params.a_n * flux_laplacian(g, u_star) - u_star**params.p_n) / u_star
    calls = []

    def counted(*args):
        calls.append(1)
        return flux_laplacian(*args)

    monkeypatch.setattr("scalarweyl.conformal.flux_laplacian", counted)
    tri = first_eigenvalue(g, F)
    assert tri.verdict == "negative"
    # every iteration applies the operator through flux_laplacian
    assert tri.iterations <= len(calls) <= 30


def test_ritz_step_drops_a_dependent_direction():
    # a last step that lies in span{y, w} makes the Gram matrix singular;
    # the step must then be the Rayleigh-Ritz step on span{y, w} alone
    rng = np.random.default_rng(0)
    for _ in range(50):
        A = rng.standard_normal((30, 30))
        A = A + A.T
        y, w = rng.standard_normal((2, 30))
        for p in (3.0 * y, w - 2.0 * y):
            # rows 0, 1 and 2 of the block's halves are y, w and p and their images
            XA = np.stack([np.stack([y, w, p]), np.stack([A @ y, A @ w, A @ p])])
            _ritz_step(XA, 3)
            got = XA[0, 0]
            XA = np.stack([np.stack([y, w, p]), np.stack([A @ y, A @ w, A @ p])])
            _ritz_step(XA, 2)
            want = XA[0, 0]
            assert np.allclose(got, want * np.sign(np.dot(got, want)), atol=1e-12)


def test_eigenvalue_converges_at_scheme_order():
    lams = {}
    for N in (8, 16, 32):
        g = fourier_metric(torus(3, N), amplitude=0.1, seed=4)
        lams[N] = first_eigenvalue(g, scalar_weyl(g, 1.0)).lam
    d1 = abs(lams[8] - lams[16])
    d2 = abs(lams[16] - lams[32])
    assert np.log2(d1 / d2) > 3.5


def test_verdict_is_invariant_under_conformal_rescale():
    chart = torus(4, 10)
    g = fourier_metric(chart, amplitude=0.1, seed=7)
    tri = first_eigenvalue(g, scalar_weyl(g, 1.0))
    assert tri.verdict == "positive"
    w = np.abs(1.0 + 0.25 * fourier_scalar(chart, amplitude=1.0, seed=23)) + 0.05
    gw = conformal_metric(g, w)
    assert first_eigenvalue(gw, scalar_weyl(gw, 1.0)).verdict == "positive"


def test_negative_verdict_survives_coefficient_transport():
    # conjugating by a positive factor transports the zeroth-order term;
    # the sign of the bottom of the spectrum must come along
    chart = torus(4, 10)
    g = fourier_metric(chart, amplitude=0.1, seed=7)
    x1, x2 = waves(chart)
    F = -2.5 + 0.3 * np.sin(x1)
    tri = first_eigenvalue(g, F)
    assert tri.verdict == "negative"
    w = np.abs(1.0 + 0.25 * fourier_scalar(chart, amplitude=1.0, seed=23)) + 0.05
    p = ConformalParams(1.0, chart.n).p_n
    transported = w ** (-p) * modified_laplacian_apply(g, w, F=F)
    tri2 = first_eigenvalue(conformal_metric(g, w), transported)
    assert tri2.verdict == "negative"


def test_negative_class_certificate_at_the_eigenfunction():
    chart = torus(4, 10)
    g = fourier_metric(chart, amplitude=0.1, seed=7)
    x1, _ = waves(chart)
    F = -2.5 + 0.3 * np.sin(x1)
    tri = first_eigenvalue(g, F)
    cert = conformal_energy(g, 1.0, tri.eigenfunction, coefficient=F)
    assert cert < 0.0
    assert abs(cert - tri.lam) < 1e-2 * abs(tri.lam)


# ---------------------------------------------------------------------------
# quotient and certificate


def yhat(g, t, u, scale_invariant=True):
    """Quotient of the operator energy by a power of the critical-exponent
    volume integral.

    The scale-invariant denominator exponent (n-2)/n makes the quotient
    blind to u -> cu; ``scale_invariant=False`` switches to the exponent
    (n-2)/2, under which the value scales by c^{2-n}.
    """
    chart = g.chart
    u = np.asarray(u, dtype=float)
    num = integrate(g, u * modified_laplacian_apply(g, u, F=scalar_weyl(g, t)))
    den = integrate(g, np.abs(u) ** (2.0 * chart.n / (chart.n - 2.0)))
    if den == 0.0:
        raise FieldError("quotient undefined: u vanishes identically")
    s = (chart.n - 2.0) / chart.n if scale_invariant else (chart.n - 2.0) / 2.0
    return num / den**s



def test_quotient_vanishes_on_flat_constants():
    chart = torus(4, 8)
    assert yhat(flat_metric(chart), 1.0, np.ones(chart.sizes)) == 0.0


@settings(max_examples=10, deadline=None)
@given(c=st.floats(min_value=0.1, max_value=10.0))
def test_quotient_scale_invariance(c):
    chart = torus(3, 8)
    g = fourier_metric(chart, amplitude=0.1, seed=7)
    u = np.abs(1.0 + 0.3 * fourier_scalar(chart, amplitude=1.0, seed=11)) + 0.1
    base = yhat(g, 1.0, u)
    assert abs(yhat(g, 1.0, c * u) - base) < 1e-10 * max(1.0, abs(base))


def test_quotient_literal_normalization_scales_by_known_power():
    chart = torus(4, 8)
    g = fourier_metric(chart, amplitude=0.1, seed=7)
    u = np.abs(1.0 + 0.3 * fourier_scalar(chart, amplitude=1.0, seed=11)) + 0.1
    y1 = yhat(g, 1.0, u, scale_invariant=False)
    y2 = yhat(g, 1.0, 2.0 * u, scale_invariant=False)
    assert abs(y2 / y1 - 2.0 ** (2 - chart.n)) < 1e-12


def test_quotient_rejects_identically_zero_input():
    chart = torus(4, 8)
    with pytest.raises(FieldError, match="vanishes"):
        yhat(flat_metric(chart), 1.0, np.zeros(chart.sizes))


def test_certificate_constant_input_is_total_curvature():
    chart = torus(4, 10)
    g = fourier_metric(chart, amplitude=0.1, seed=7)
    got = conformal_energy(g, 1.0, np.ones(chart.sizes))
    want = integrate(g, scalar_weyl(g, 1.0))
    assert abs(got - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("n", [3, 4])
def test_certificate_matches_analytic_gradient_integral(n):
    # one Fourier mode on the flat torus under the exact-derivative scheme:
    # the curvature term is zero and the gradient integral is elementary
    chart = torus(n, 16, scheme="spectral")
    u = 1.0 + 0.1 * np.sin(chart.mesh()[0]) * np.ones(chart.sizes)
    a_n = ConformalParams(1.0, n).a_n
    exact = a_n * 0.005 * (2.0 * np.pi) ** n
    got = conformal_energy(flat_metric(chart), 1.0, u)
    assert abs(got - exact) < 1e-12 * exact


def test_certificate_equals_operator_energy_to_roundoff():
    # central differences sum by parts exactly on the periodic grid
    chart = torus(4, 10)
    g = fourier_metric(chart, amplitude=0.1, seed=7)
    u = np.abs(1.0 + 0.3 * fourier_scalar(chart, amplitude=1.0, seed=11)) + 0.1
    e1 = conformal_energy(g, 1.0, u)
    F = scalar_weyl(g, 1.0)
    e2 = integrate(g, u * modified_laplacian_apply(g, u, F=F))
    assert abs(e1 - e2) < 1e-12 * max(1.0, abs(e1))


def test_certificate_requires_positive_input():
    chart = torus(4, 8)
    u = np.ones(chart.sizes)
    u[0, 0, 0, 0] = 0.0
    with pytest.raises(FieldError, match="u > 0"):
        conformal_energy(flat_metric(chart), 1.0, u)


# ---------------------------------------------------------------------------
# constant-curvature solve


def manufactured(chart):
    """Coefficient whose exact discrete solution is 1 + 0.2 sin(x1)."""
    g = flat_metric(chart)
    params = ConformalParams(1.0, chart.n)
    u_star = 1.0 + 0.2 * np.sin(chart.mesh()[0]) * np.ones(chart.sizes)
    F = (-(u_star**params.p_n) + params.a_n * flux_laplacian(g, u_star)) / u_star
    return g, F, u_star


@pytest.mark.parametrize("init", ["barriers", "eigen"])
def test_solver_recovers_manufactured_solution(init):
    g, F, u_star = manufactured(torus(4, 12))
    report = solve_constant_F(g, 1.0, coefficient=F, init=init)
    assert float(np.max(np.abs(report.u - u_star))) < 1e-10
    assert report.residual < 1e-9
    assert report.curvature_residual < 1e-9


def test_every_apply_of_L_runs_through_modified_laplacian_apply(monkeypatch):
    # the eigensolve, the conjugate-gradient applies, the Newton residual
    # and the barrier stage's history all apply L through the one route:
    # every scalarweyl module that holds flux_laplacian or
    # modified_laplacian_apply gets a wrapper, and no flux_laplacian call
    # may run outside modified_laplacian_apply
    g, F, _ = manufactured(torus(4, 12))
    apply_L, flux = conformal.modified_laplacian_apply, grid.flux_laplacian
    depth = [0]
    calls = {"inside": 0, "outside": 0}

    def wrapped_apply(*args, **kwargs):
        depth[0] += 1
        try:
            return apply_L(*args, **kwargs)
        finally:
            depth[0] -= 1

    def wrapped_flux(*args, **kwargs):
        calls["inside" if depth[0] else "outside"] += 1
        return flux(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "scalarweyl" or name.startswith("scalarweyl."):
            for attr, value in list(vars(module).items()):
                if value is apply_L:
                    monkeypatch.setattr(module, attr, wrapped_apply)
                elif value is flux:
                    monkeypatch.setattr(module, attr, wrapped_flux)
    runs = {
        "first_eigenvalue": lambda: first_eigenvalue(g, F),
        "eigen": lambda: solve_constant_F(g, 1.0, coefficient=F, init="eigen"),
        "barriers": lambda: solve_constant_F(g, 1.0, coefficient=F, init="barriers"),
    }
    for label, run in runs.items():
        calls.update(inside=0, outside=0)
        run()
        assert calls["inside"] > 0, label
        assert calls["outside"] == 0, (label, calls)


def test_barrier_solve_cg_work(monkeypatch):
    # the barrier stage is an initializer for Newton: its inner solves are
    # loose while the steps are large, and it hands over early
    iterations = []

    def counted(*args):
        x, it = _pcg(*args)
        iterations.append(it)
        return x, it

    monkeypatch.setattr("scalarweyl.yamabe._pcg", counted)
    g, F, u_star = manufactured(torus(4, 12))
    report = solve_constant_F(g, 1.0, coefficient=F, init="barriers")
    assert float(np.max(np.abs(report.u - u_star))) < 1e-10
    assert sum(iterations) <= 200


def test_barrier_stage_is_freed_before_newton(monkeypatch):
    # the barrier stage's rescaled FluxForm (and its solver, F1 and iterates
    # with it) dies when the stage hands over, so Newton's allocations do
    # not stack on it: no form of a metric other than g is alive when
    # Newton starts.  Checked by reference count alone, with no collection
    built = []
    of = FluxForm.of.__func__

    def tracked(cls, metric):
        form = of(cls, metric)
        built.append((weakref.ref(form), metric is g))
        return form

    newton = yamabe._newton_polish
    alive = []

    def checked(*args):
        alive.extend(ref() is not None for ref, on_g in built if not on_g)
        return newton(*args)

    g, F, u_star = manufactured(torus(4, 12))
    monkeypatch.setattr(FluxForm, "of", classmethod(tracked))
    monkeypatch.setattr(yamabe, "_newton_polish", checked)
    report = solve_constant_F(g, 1.0, coefficient=F, init="barriers")
    assert float(np.max(np.abs(report.u - u_star))) < 1e-10
    assert alive == [False], alive


def test_solve_reports_inner_cg_iterations(monkeypatch):
    # the report carries the inner CG iterations of both stages: the sum
    # over every conjugate-gradient solve, at least one per outer step
    counts = []

    def counted(*args):
        x, it = _pcg(*args)
        counts.append(it)
        return x, it

    monkeypatch.setattr("scalarweyl.yamabe._pcg", counted)
    g, F, _ = manufactured(torus(4, 12))
    for init in ("barriers", "eigen"):
        counts.clear()
        report = solve_constant_F(g, 1.0, coefficient=F, init=init)
        assert report.cg_iterations == sum(counts) > 0, init
        assert report.cg_iterations >= report.iterations > 0, init


def test_solve_forms_one_operator_per_stage(monkeypatch):
    # the trichotomy, Newton (both on g) and the barrier stage (on the
    # rescaled metric) each form the coefficient, and the preconditioner's
    # bases and symbols, once and reuse them for every apply and every
    # shift, however many Newton steps run
    metrics, solvers, shifts, bases = [], [], [], []
    of = FluxForm.of.__func__

    def counted_form(cls, g):
        metrics.append(g)
        return of(cls, g)

    def counted_solver(form):
        solvers.append(form)
        shifted = _shifted_solver(form)

        def counted_shift(q):
            shifts.append(form)
            return shifted(q)

        return counted_shift

    def counted_basis(size):
        bases.append(size)
        return _real_basis(size)

    monkeypatch.setattr(FluxForm, "of", classmethod(counted_form))
    monkeypatch.setattr("scalarweyl.yamabe._shifted_solver", counted_solver)
    monkeypatch.setattr("scalarweyl.yamabe._real_basis", counted_basis)
    g, F, _ = manufactured(torus(4, 12))
    newton_steps = []
    for tol in (1e-4, 1e-12):
        monkeypatch.setattr(yamabe, "_SOLVE_TOL", tol)
        for calls in (metrics, solvers, shifts, bases):
            calls.clear()
        solve_constant_F(g, 1.0, coefficient=F, init="barriers")
        assert len(metrics) == 3
        assert metrics[0] is g and metrics[1] is g and metrics[2] is not g
        # one solver for the barrier stage and one for Newton, on the forms
        # of the stages; one shift for the barrier stage, then one per
        # Newton step
        assert len(solvers) == 2 and solvers[0] is not solvers[1]
        newton_steps.append(len(shifts) - 1)
        # one basis per axis for each of the three preconditioners
        assert len(bases) == 3 * 4
    assert newton_steps[0] < newton_steps[1]


def test_solver_fixed_point_at_constant_negative_coefficient():
    chart = torus(4, 8)
    for init in ("barriers", "eigen"):
        report = solve_constant_F(
            flat_metric(chart), 1.0, coefficient=np.full(chart.sizes, -1.0), init=init
        )
        assert float(np.max(np.abs(report.u - 1.0))) < 1e-12, init


def test_solver_initializations_agree():
    # the negative regime has a unique solution, so both routes must land
    # on the same discrete function
    chart = torus(4, 12)
    g = fourier_metric(chart, amplitude=0.08, seed=9)
    x1, x2 = waves(chart)
    F = -2.0 + 0.4 * np.sin(x1) * np.cos(x2)
    u_a = solve_constant_F(g, 1.0, coefficient=F, init="barriers").u
    u_b = solve_constant_F(g, 1.0, coefficient=F, init="eigen").u
    assert float(np.max(np.abs(u_a - u_b))) < 1e-8


def test_solver_reports_solution_filtered_through_full_recompute():
    g, F, _ = manufactured(torus(4, 12))
    for init in ("barriers", "eigen"):
        report = solve_constant_F(g, 1.0, coefficient=F, init=init)
        assert report.trichotomy is not None
        assert report.trichotomy.verdict == "negative"
        assert report.wall_time > 0.0
        assert len(report.history) >= report.iterations


def test_solver_rejects_nonnegative_class():
    g = fourier_metric(torus(4, 8), amplitude=0.08, seed=9)
    with pytest.raises(ValueError, match="negative first eigenvalue"):
        solve_constant_F(g, 1.0)


def test_solver_rejects_unknown_initialization():
    chart = torus(4, 8)
    with pytest.raises(ValueError, match="bogus"):
        solve_constant_F(
            flat_metric(chart),
            1.0,
            coefficient=np.full(chart.sizes, -1.0),
            init="bogus",
        )


def test_solver_takes_coefficient_or_trichotomy_not_both():
    chart = torus(4, 8)
    g, F = flat_metric(chart), np.full(chart.sizes, -1.0)
    tri = first_eigenvalue(g, F)
    assert tri.coefficient is F
    with pytest.raises(ValueError, match="not both"):
        solve_constant_F(g, 1.0, coefficient=F, trichotomy=tri)


def test_eigenfunction_rescale_makes_coefficient_negative():
    # first stage of the solve: conformal change by the mean-one eigenfunction
    # must hand the monotone stage a pointwise negative coefficient
    chart = torus(4, 12)
    g = fourier_metric(chart, amplitude=0.08, seed=9)
    x1, x2 = waves(chart)
    F = -2.0 + 0.4 * np.sin(x1) * np.cos(x2)
    tri = first_eigenvalue(g, F)
    p = ConformalParams(1.0, chart.n).p_n
    u1 = tri.eigenfunction / (
        integrate(g, tri.eigenfunction)
        / integrate(g, np.ones(chart.sizes))
    )
    F1 = u1 ** (-p) * modified_laplacian_apply(g, u1, F=F)
    assert float(np.max(F1)) < 0.0


# ---------------------------------------------------------------------------
# the operator layer on the slab pool


def test_every_worker_count_gives_bit_identical_operator_outputs(monkeypatch):
    # 8 planes: two workers split them 4 + 4, three into uneven parts
    # (2 + 3 + 3), and three workers are more than a 2-core host's; a short
    # switch interval interleaves the parts' writes into the shared flux
    # arrays and outputs
    c = torus(4, 8)
    g = fourier_metric(c, amplitude=0.08, seed=11)
    form = FluxForm.of(g)
    params = ConformalParams(1.0, c.n)
    u_star = 1.0 + 0.2 * np.sin(c.mesh()[0]) * np.ones(c.sizes)
    F = (params.a_n * whole_field_flux_laplacian(form, u_star) - u_star**params.p_n) / u_star
    pen = _penalty_apply(form.sqrt_det, _penalty_strength(params.a_n, F))
    # a zero-stride view of a sparse-mesh field
    wave = np.broadcast_to(np.sin(c.mesh()[0]) * np.cos(2.0 * c.mesh()[3]), c.sizes)
    s = torus(4, 8, "spectral")
    gs = fourier_metric(s, amplitude=0.08, seed=11)
    us = fourier_scalar(s, amplitude=0.5, seed=112)
    # an odd chart: 9 planes split 4 + 5 and 3 + 3 + 3
    o = torus(4, 9, "spectral")
    go = fourier_metric(o, amplitude=0.08, seed=11)
    uo = 1.0 + fourier_scalar(o, amplitude=0.5, seed=112)
    Fo = -1.0 + fourier_scalar(o, amplitude=0.3, seed=113)

    def outputs():
        tri = first_eigenvalue(g, F)
        return [
            flux_laplacian(g, u_star), flux_laplacian(form, u_star),
            modified_laplacian_apply(form, u_star, F), pen(u_star),
            flux_laplacian(form, wave), flux_laplacian(gs, us),
            tri.lam, tri.eigenfunction,
            flux_laplacian(go, uo), first_eigenvalue(go, Fo).eigenfunction,
            *(solve_constant_F(g, 1.0, coefficient=F, init=init).u
              for init in ("eigen", "barriers")),
        ]

    monkeypatch.setattr(grid, "_WORKERS", 1)
    want = outputs()
    # one worker runs the whole-field steps: the serial oracle's bits
    assert np.array_equal(want[0], whole_field_flux_laplacian(form, u_star))
    assert np.array_equal(want[4], whole_field_flux_laplacian(form, wave))
    assert np.array_equal(want[5], whole_field_flux_laplacian(FluxForm.of(gs), us))
    assert np.array_equal(want[8], whole_field_flux_laplacian(FluxForm.of(go), uo))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3):
            monkeypatch.setattr(grid, "_WORKERS", workers)
            for got, ref in zip(outputs(), want, strict=True):
                assert np.array_equal(got, ref)
    finally:
        sys.setswitchinterval(interval)


class ThreadPerPart:
    """A pool that runs each submitted part on a thread of its own and
    records the submits, so a part that waits for the pool fails instead
    of hanging."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = Future()

        def target():
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)

        threading.Thread(target=target, daemon=True).start()
        return future


def test_a_spectral_apply_splits_like_fd4_and_an_apply_inside_a_part_is_not_split(monkeypatch):
    pool = ThreadPerPart()
    monkeypatch.setattr(grid, "_POOL", pool)
    monkeypatch.setattr(grid, "_WORKERS", 3)
    # the derivatives are whole-field products on either scheme and only the
    # pointwise flux sums split: each apply hands two of three parts over
    for scheme in ("spectral", "fd4"):
        s = torus(4, 8, scheme)
        form = FluxForm.of(fourier_metric(s, amplitude=0.08, seed=11))
        us = fourier_scalar(s, amplitude=0.5, seed=112)
        pool.submitted.clear()
        assert np.array_equal(flux_laplacian(form, us), whole_field_flux_laplacian(form, us))
        assert [part for _, part in pool.submitted] == [slice(2, 5), slice(5, 8)]
    # an apply inside a part runs inline: only the outer split submits
    c = torus(4, 8)
    form = FluxForm.of(fourier_metric(c, amplitude=0.08, seed=11))
    u = fourier_scalar(c, amplitude=0.5, seed=112)
    F = 1.0 + u * u
    want = modified_laplacian_apply(form, u, F)
    pool.submitted.clear()
    got = {}

    def run(part):
        got[part.start] = modified_laplacian_apply(form, u, F)

    grid._in_parts(run, slice(0, 3))
    assert len(pool.submitted) == 2
    assert sorted(got) == [0, 1, 2]
    for value in got.values():
        assert np.array_equal(value, want)
