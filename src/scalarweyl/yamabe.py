"""Spectral sign classification and the negative-case curvature solver.

The shifted operator L = -a_n Lap + F is self-adjoint in the volume-weighted
inner product, so its first eigenvalue classifies the conformal class: the
sign of lambda_1 is a conformal invariant, and a negative sign guarantees a
conformal factor u > 0 with F == -1 after rescaling.

The solver starts a damped Newton iteration from the first eigenfunction,
scaled so that its Rayleigh quotient matches the nonlinearity, and
polishes on the original metric, so the reported residual is that of the
original discrete equation, not of a conformally conjugated one.  A second
start, ``init="barriers"``, first changes the metric conformally by the
eigenfunction to make the curvature coefficient pointwise negative and runs
the monotone iteration between constant barriers; it hands over to Newton
once its step falls below 1e-3 of the upper barrier, and each of its inner
solves is only as tight as the last step asks (the inexact-Newton forcing
term of Eisenstat and Walker).  Eigen is the default: the barrier stage
needs the rescaled coefficient negative everywhere, which fails where the
spectral gap is small (t = 0.02 on a 12^4 ``fourier_metric``, amplitude
0.5), and where both succeed it takes more iterations.  The barrier
start stays only because the benchmark's solve workload names it.
Newton's own inner solves and tolerance fix the accuracy.  Inner linear
solves use conjugate gradient on the density-symmetrized operator,
preconditioned by the constant-coefficient symbol inverted in Fourier space.
Each stage forms the operator's coefficient once, as a ``grid.FluxForm`` of
its metric (the trichotomy and Newton on g, the barrier stage on the
rescaled metric), and every apply goes through ``grid.flux_laplacian`` on
that form.

The trichotomy eigensolve is a single-vector LOBPCG (locally optimal block
preconditioned conjugate gradient; Knyazev, SIAM J. Sci. Comput. 23(2),
2001) on the same symmetrized operator with the same Fourier preconditioner:
one operator apply per iteration and no inner linear solves.

Every tolerance and iteration cap is a module constant: ``_EIG_TOL`` and
``_EIG_MAXITER`` for the eigensolve, ``_SOLVE_TOL`` for the constant-F
solve, ``_NEWTON_MAXITER`` and ``_NEWTON_CG_TOL`` for its Newton polish,
and ``_CG_MAXITER`` for each conjugate-gradient solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .conformal import ConformalParams, conformal_metric, modified_laplacian_apply, scalar_weyl
from .grid import FieldError, FluxForm, MetricField, _ghost_shifts, flux_laplacian, integrate


@dataclass(frozen=True)
class TrichotomyResult:
    """First eigenvalue of the shifted operator and the sign verdict."""

    lam: float
    eigenfunction: np.ndarray  # positive, normalized to unit L2(dV) norm
    verdict: str  # "negative" | "zero" | "positive"
    residual: float
    iterations: int
    coefficient: np.ndarray  # the zeroth-order term F the verdict is for


@dataclass
class SolveReport:
    u: np.ndarray
    residual: float  # max |L u + u^p| on the input metric
    curvature_residual: float  # max |F + 1| recomputed on the rescaled metric
    iterations: int
    wall_time: float
    history: list = field(default_factory=list)
    trichotomy: TrichotomyResult | None = None


# ---------------------------------------------------------------------------
# checkerboard control
#
# The wide-stencil Laplacian (central first derivative applied twice) is
# blind to per-axis Nyquist modes, so the discrete spectrum bottom carries a
# cluster of 2^n - 1 spurious eigenvalues next to the physical lambda_1.
# The eigensolver therefore works with L + eta * sum_a B_a^2 / sqrt(det g),
# where B_a is the unscaled three-point second difference, so B_a^2 is the
# five-point [1, -4, 6, -4, 1] fourth difference: the penalty is
# positive semidefinite in the weighted product, kills nothing smooth
# (O(h^4) on resolved modes, same order as the scheme), leaves constants
# exactly in the kernel, and lifts the Nyquist cluster by O(eta).  The
# nonlinear solves never need it; their zeroth-order terms are already
# positive on those modes.


def _penalty_apply(dens, eta):
    def pen(phi):
        acc = (6.0 * phi.ndim) * phi
        for a in range(phi.ndim):
            shifted = _ghost_shifts(phi, a)
            acc += shifted(-2)
            acc += shifted(2)
            acc -= 4.0 * (shifted(-1) + shifted(1))
        return eta * acc / dens

    return pen


def _penalty_strength(a_n, F):
    return 0.25 * a_n * max(1.0, float(np.max(F) - np.min(F)))


# ---------------------------------------------------------------------------
# preconditioned conjugate gradient
#
# The operator -a_n Lap + q is self-adjoint with respect to sum(a b sqrt(g)),
# so CG runs on the similarity transform sqrt(sqrt(g)) A sqrt(sqrt(g))^{-1},
# which is symmetric in the plain Euclidean product and therefore compatible
# with the Fourier preconditioner (a fixed SPD circulant).


def _preconditioner(form, a_n, q, pen_mean=0.0):
    """Fourier inverse of the mean-coefficient symbol of -a_n Lap + q [+ penalty]."""
    chart = form.chart
    trace = sum(form.component(a, a) for a in range(chart.n)) / form.sqrt_det
    c_lap = float(np.mean(trace)) / chart.n
    q_mean = float(np.mean(q * form.sqrt_det))
    sym = np.zeros(chart.sizes)
    pen_sym = np.zeros(chart.sizes)
    for a, (size, h) in enumerate(zip(chart.sizes, chart.spacings)):
        k = 2.0 * np.pi * np.fft.fftfreq(size, d=h)
        if chart.scheme == "spectral":
            d = k.copy()
            d[size // 2] = 0.0  # odd Nyquist mode is dropped by the scheme
        else:
            d = (8.0 * np.sin(k * h) - np.sin(2.0 * k * h)) / (6.0 * h)
        shape = [1] * chart.n
        shape[a] = size
        sym = sym + (d**2).reshape(shape)
        pen_sym = pen_sym + ((2.0 * np.cos(k * h) - 2.0) ** 2).reshape(shape)
    denom = (
        a_n * max(c_lap, 1e-12) * sym + pen_mean * pen_sym + max(q_mean, 1e-12)
    )
    # the symbol is even in k, so the real transform's half spectrum of the
    # last axis carries all of it
    denom = denom[..., : chart.sizes[-1] // 2 + 1]
    axes = tuple(range(chart.n))

    def precond(r):
        spec = np.fft.rfftn(r, s=chart.sizes, axes=axes)
        spec /= denom
        return np.fft.irfftn(spec, s=chart.sizes, axes=axes)

    return precond


#: iteration cap of one conjugate-gradient solve
_CG_MAXITER = 5000
#: eigensolve: residual tolerance relative to max(1, max|F|), iteration cap
_EIG_TOL = 1e-9
_EIG_MAXITER = 80
#: constant-F solve: residual tolerance relative to max(1, max|F|); the
#: Newton polish's step cap and the relative tolerance of its inner solves
_SOLVE_TOL = 1e-9
_NEWTON_MAXITER = 40
_NEWTON_CG_TOL = 1e-10


def _pcg(apply_sym, b, precond, tol):
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    b2 = float(np.vdot(b, b))
    if b2 == 0.0:
        return x, 0
    for it in range(1, _CG_MAXITER + 1):
        Ap = apply_sym(p)
        alpha = rz / float(np.vdot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
        if float(np.vdot(r, r)) <= tol * tol * b2:
            return x, it
        z = precond(r)
        rz_next = float(np.vdot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise RuntimeError(
        f"conjugate gradient stalled above relative tolerance {tol:.1e} "
        f"after {_CG_MAXITER} iterations"
    )


def _shifted_solver(form, a_n, q):
    """Solve (-a_n Lap + q) x = b to a per-call relative tolerance."""
    sd = np.sqrt(form.sqrt_det)
    precond = _preconditioner(form, a_n, q)

    def apply_sym(y):
        phi = y / sd
        return sd * (-a_n * flux_laplacian(form, phi) + q * phi)

    def solve(b, tol):
        y, _ = _pcg(apply_sym, sd * b, precond, tol)
        return y / sd

    return solve


# ---------------------------------------------------------------------------
# trichotomy


# With unit columns, a Cholesky pivot of the Gram matrix is the sine of the
# angle between its column and the span of the ones before it.  Exactly
# dependent columns leave pivots up to about sqrt(eps) = 1.5e-8 after
# rounding, and the Ritz coefficients are then noise; the iterates measure
# 0.8 to 1.
_MIN_PIVOT = 1e-6


def _ritz_step(y, Ay, w, Aw, p, Ap):
    """Lowest Ritz pair of span{y, w, p}: the new y, Ay, p and Ap.

    The columns are normalized before the Gram matrix is factored; when p
    has become numerically dependent on y and w the Cholesky factorization
    fails or leaves a pivot below ``_MIN_PIVOT``, and the step is retried on
    span{y, w}.
    """
    cols = [y, w] if p is None else [y, w, p]
    imgs = [Ay, Aw] if p is None else [Ay, Aw, Ap]
    S = np.stack([c.reshape(-1) for c in cols])
    AS = np.stack([c.reshape(-1) for c in imgs])
    d = 1.0 / np.linalg.norm(S, axis=1)
    gram = d[:, None] * (S @ S.T) * d[None, :]
    H = d[:, None] * (S @ AS.T) * d[None, :]
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or float(np.min(np.diag(chol))) < _MIN_PIVOT:
        if p is None:
            raise RuntimeError(
                "eigensolver breakdown: the preconditioned residual is "
                "parallel to the iterate"
            )
        return _ritz_step(y, Ay, w, Aw, None, None)
    # H c = theta G c becomes a standard problem in the Cholesky frame
    M = np.linalg.solve(chol, np.linalg.solve(chol, 0.5 * (H + H.T)).T)
    _, vecs = np.linalg.eigh(M)
    c = np.linalg.solve(chol.T, vecs[:, 0]) * d
    step = c[1] * w
    Astep = c[1] * Aw
    if p is not None:
        step += c[2] * p
        Astep += c[2] * Ap
    y = c[0] * y + step
    Ay = c[0] * Ay + Astep
    nrm = float(np.linalg.norm(y))
    return y / nrm, Ay / nrm, step, Astep


def first_eigenvalue(
    g: MetricField,
    t: float,
    coefficient: np.ndarray | None = None,
) -> TrichotomyResult:
    """Smallest eigenvalue of -a_n Lap + F by single-vector LOBPCG.

    ``coefficient`` overrides the zeroth-order term (the geometric F when
    omitted); tests use it to dial in spectra with a known answer.

    The locally optimal block preconditioned conjugate gradient method
    (Knyazev, SIAM J. Sci. Comput. 23(2), 2001) runs with one vector on the
    density-symmetrized operator y = sqrt(sqrt(g)) u, starting from u = 1.
    Each iteration preconditions the residual r = A y - rho y with the
    Fourier inverse of the shifted symbol, w = T r, and takes the lowest
    Ritz pair on span{y, w, p}, where p is the last step: one operator
    apply (A w) per iteration and no inner linear solves.  It stops once
    the residual in the volume-weighted norm is below
    ``_EIG_TOL * max(1, max|F|)``, confirmed on a fresh apply because the
    recurrence for A y drifts; ``iterations`` counts the operator applies.
    A solve that does not converge in ``_EIG_MAXITER`` iterations raises
    and says why: the applies used, the last residual against the tolerance,
    and the max/min ratio over the grid of the trace of the flux
    coefficient sqrt(det g) g^{ab}, the spread that the mean-coefficient
    preconditioner leaves out.

    The operator carries the checkerboard regularization from the module
    comment; its coefficient is formed once, as a ``FluxForm`` of g.
    """
    chart = g.chart
    params = ConformalParams(t, chart.n)
    F = coefficient if coefficient is not None else scalar_weyl(g, t)
    F = np.asarray(F, dtype=float)
    form = FluxForm.of(g)
    dens = form.sqrt_det
    sd = np.sqrt(dens)

    # the Rayleigh quotient is bounded below by min F (the penalty is
    # positive semidefinite), so the preconditioner of the operator shifted
    # by sigma inverts a positive definite symbol with a unit margin
    sigma = float(np.min(F)) - 1.0
    eta = _penalty_strength(params.a_n, F)
    pen = _penalty_apply(dens, eta)
    precond = _preconditioner(
        form, params.a_n, F - sigma, pen_mean=eta * float(np.mean(1.0 / dens))
    )

    applies = 0

    def apply_sym(y):
        nonlocal applies
        applies += 1
        phi = y / sd
        return sd * (modified_laplacian_apply(form, phi, F) + pen(phi))

    # for unit y, |A y - rho y| is the residual of u = y / sqrt(sqrt(g)) in
    # the volume-weighted norm, with u of unit L2(dV) norm
    y = sd / float(np.linalg.norm(sd))
    Ay = apply_sym(y)
    fresh = True
    p = Ap = None
    scale = max(1.0, float(np.max(np.abs(F))))
    for it in range(1, _EIG_MAXITER + 1):
        lam = float(np.vdot(y, Ay))
        r = Ay - lam * y
        res = float(np.linalg.norm(r))
        if res <= _EIG_TOL * scale:
            if fresh:
                break
            Ay = apply_sym(y)
            fresh = True
            continue
        w = precond(r)
        y, Ay, p, Ap = _ritz_step(y, Ay, w, apply_sym(w), p, Ap)
        fresh = False
    else:
        trace = sum(form.component(a, a) for a in range(chart.n))
        raise RuntimeError(
            f"eigensolver did not converge after {_EIG_MAXITER} iterations: "
            f"{applies} operator applies, last residual {res:.3e} against "
            f"tolerance {_EIG_TOL * scale:.3e}, flux coefficient trace max/min "
            f"{float(np.max(trace) / np.min(trace)):.4f} over the grid (the "
            f"spread the mean-coefficient Fourier preconditioner leaves out)"
        )
    u = y / sd
    u /= np.sqrt(integrate(chart, u * u, dens))
    if integrate(chart, u, dens) < 0.0:
        u = -u
    band = 1e-6 * scale
    verdict = "zero" if abs(lam) < band else ("negative" if lam < 0.0 else "positive")
    return TrichotomyResult(lam, u, verdict, res, it, F)


# ---------------------------------------------------------------------------
# constant-curvature solve

# The barrier stage hands over to Newton once its step is below
# _HANDOFF * hi; each inner solve runs to the relative tolerance
# _FORCING * (last step) / hi, clamped to [1e-10, _FORCING].
_HANDOFF = 1e-3
_FORCING = 1e-2


def _newton_polish(form, a_n, F, p, u, tol_abs, history):
    res_of = lambda v: -a_n * flux_laplacian(form, v) + F * v + v**p
    r = res_of(u)
    res = float(np.max(np.abs(r)))
    for it in range(1, _NEWTON_MAXITER + 1):
        history.append(res)
        if res <= tol_abs:
            return u, res, it - 1
        q = F + p * u ** (p - 1.0)
        delta = _shifted_solver(form, a_n, q)(-r, _NEWTON_CG_TOL)
        step = 1.0
        while step > 1e-4:
            cand = u + step * delta
            if float(np.min(cand)) > 0.0:
                cand_r = res_of(cand)
                cand_res = float(np.max(np.abs(cand_r)))
                if cand_res < res:
                    u, r, res = cand, cand_r, cand_res
                    break
            step *= 0.5
        else:
            raise RuntimeError(
                f"Newton line search stalled at residual {res:.3e}"
            )
    raise RuntimeError(
        f"Newton polish did not reach {tol_abs:.1e}: residual {res:.3e} "
        f"after {_NEWTON_MAXITER} iterations"
    )


def solve_constant_F(
    g: MetricField,
    t: float,
    coefficient: np.ndarray | None = None,
    trichotomy: TrichotomyResult | None = None,
    init: str = "eigen",
) -> SolveReport:
    """Positive u with -a_n Lap u + F u = -u^{p_n}, i.e. F == -1 after
    rescaling the metric by u^{4/(n-2)}.

    Requires a negative trichotomy verdict.  ``init`` selects the start:
    "eigen" (the default) starts Newton directly from a scaled
    eigenfunction; "barriers" runs the monotone iteration on the
    eigenfunction-rescaled metric as an initializer, handed to Newton once
    its step falls below 1e-3 of the upper barrier, with inner solves whose
    tolerance follows the last step.
    Both finish on the original metric and must agree (the solution in the
    negative regime is unique).  Each stage forms the operator's
    coefficient once, as a ``FluxForm`` of its metric.

    ``trichotomy`` reuses a verdict that ``first_eigenvalue`` reached on the
    geometric F of ``g``; the solve then takes F from it instead of forming
    the curvature functional and the eigenpair again.

    The report carries two residuals: the discrete equation's own, and an
    independent one from rerunning the full curvature pipeline on the
    rescaled metric (skipped in favor of the transported coefficient when
    ``coefficient`` overrides geometry).
    """
    if init not in ("barriers", "eigen"):
        raise ValueError(f"init must be 'barriers' or 'eigen', got {init!r}")
    if coefficient is not None and trichotomy is not None:
        raise ValueError("pass either coefficient or trichotomy, not both")
    started = time.perf_counter()
    chart = g.chart
    params = ConformalParams(t, chart.n)
    a_n, p = params.a_n, params.p_n
    tri = trichotomy
    if tri is None:
        F = scalar_weyl(g, t) if coefficient is None else coefficient
        tri = first_eigenvalue(g, t, coefficient=F)
    if tri.verdict != "negative":
        raise ValueError(
            "constant F == -1 requires a negative first eigenvalue; the "
            f"trichotomy verdict here is {tri.verdict!r} "
            f"(lambda_1 = {tri.lam:.3e})"
        )
    F = tri.coefficient
    form = FluxForm.of(g)
    dens = form.sqrt_det

    history: list[float] = []
    iterations = 0
    # mean-one rescale keeps the conjugated metric O(1); any constant
    # multiple of the eigenfunction spans the same conformal ray
    u1 = tri.eigenfunction / (
        integrate(chart, tri.eigenfunction, dens) / integrate(chart, np.ones(chart.sizes), dens)
    )

    if init == "barriers":
        # conformal change by the eigenfunction: the transported coefficient
        # is lambda_1 u1^{1-p} up to the eigen-residual, hence negative
        F1 = u1 ** (-p) * modified_laplacian_apply(form, u1, F)
        if float(np.max(F1)) >= 0.0:
            raise RuntimeError(
                "eigenfunction rescale left the coefficient sign-indefinite "
                f"(max {float(np.max(F1)):.3e}); spectral gap too small at "
                "this resolution"
            )
        form1 = FluxForm.of(conformal_metric(g, u1))
        neg = -F1
        hi = float(np.max(neg)) ** (1.0 / (p - 1.0))
        shift = p * float(np.max(neg))
        # q = F1 + shift is fixed for the stage: one solver serves every step
        solve1 = _shifted_solver(form1, a_n, F1 + shift)
        u = np.full(chart.sizes, hi)
        delta = hi
        for _ in range(60):
            inner = max(1e-10, min(_FORCING, _FORCING * delta / hi))
            new = solve1(shift * u - u**p, inner)
            delta = float(np.max(np.abs(new - u)))
            u = new
            iterations += 1
            history.append(
                float(np.max(np.abs(-a_n * flux_laplacian(form1, u) + F1 * u + u**p)))
            )
            if delta <= _HANDOFF * hi:
                break
        u_tot = u1 * u
    else:
        # Rayleigh-matched amplitude for the bare eigenfunction start
        e2 = integrate(chart, -F * u1 * u1, dens)
        ep = integrate(chart, u1 ** (p + 1.0), dens)
        u_tot = max(e2 / ep, 1e-8) ** (1.0 / (p - 1.0)) * u1

    tol_abs = _SOLVE_TOL * max(1.0, float(np.max(np.abs(F))))
    u_tot, res, newton_iters = _newton_polish(
        form, a_n, F, p, u_tot, tol_abs, history
    )
    iterations += newton_iters

    if coefficient is None:
        recomputed = scalar_weyl(conformal_metric(g, u_tot), t)
    else:
        recomputed = u_tot ** (-p) * modified_laplacian_apply(form, u_tot, F)
    curvature_residual = float(np.max(np.abs(recomputed + 1.0)))

    return SolveReport(
        u=u_tot,
        residual=res,
        curvature_residual=curvature_residual,
        iterations=iterations,
        wall_time=time.perf_counter() - started,
        history=history,
        trichotomy=tri,
    )
