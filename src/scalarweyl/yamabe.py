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
preconditioned by the inverse of the constant-coefficient symbol, applied
in the real orthonormal Fourier basis of each axis (one
``grid._axis_product`` per axis each way); the report counts their
iterations over both stages in ``cg_iterations``.
Each stage forms the operator's coefficient once, as a ``grid.FluxForm`` of
its metric (the trichotomy and Newton on g, the barrier stage on the
rescaled metric; that stage is one function, ``_barrier_stage``, so what
it forms is freed before Newton starts), and every apply goes through
``conformal.modified_laplacian_apply`` on that form.  L depends on the
coupling t only through F, so the eigensolve takes F alone.

The trichotomy eigensolve is a single-vector LOBPCG (locally optimal block
preconditioned conjugate gradient; Knyazev, SIAM J. Sci. Comput. 23(2),
2001) on the same symmetrized operator with the same Fourier preconditioner:
one operator apply per iteration and no inner linear solves.  Its iterate,
preconditioned residual and last step are the rows of one (3, *sizes)
half of a (2, 3, *sizes) block, and their images under the operator the
rows of the other, allocated once: the Ritz step forms both Gram matrices
from one product over the block and updates it in place.

Every apply of L runs on ``grid``'s thread pool through the flux-form
Laplacian, which splits its pointwise flux sums, and every worker count
gives the same bits.  Nothing else here splits: the eigensolve's
checkerboard penalty is one whole-field circulant product per axis, and the
Fourier preconditioner's basis products take under a tenth of a 16^4
solve, too little for a split to repay its hand-offs.  Every 1-D operator
factor here is one of ``grid``'s circulants, applied or read through
``grid._axis_product``, so no stencil is written in this module.

Every tolerance and iteration cap is a module constant: ``_EIG_TOL`` and
``_EIG_MAXITER`` for the eigensolve, ``_SOLVE_TOL`` for the constant-F
solve, ``_NEWTON_MAXITER`` and ``_NEWTON_CG_TOL`` for its Newton polish,
and ``_CG_MAXITER`` for each conjugate-gradient solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .conformal import (
    ConformalParams,
    conformal_metric,
    laplacian_factor,
    modified_laplacian_apply,
    scalar_weyl,
)
from .grid import (
    FluxForm,
    MetricField,
    _apply_axes,
    _axis_product,
    _circulant,
    integrate,
)


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
    iterations: int  # barrier steps plus Newton steps
    cg_iterations: int  # conjugate-gradient iterations of all inner solves
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
# exactly in the kernel, and lifts the Nyquist cluster by O(eta).  B_a and
# B_a^2 are integer circulants, so 1 is exactly in the kernel of the
# penalty's one whole-field product per axis.  The nonlinear solves never
# need it; their zeroth-order terms are already positive on those modes.


def _second_difference(size):
    """B, ``grid``'s integer circulant (its length is unread)."""
    return _circulant("second", size, float(size))


def _penalty_apply(dens, eta):
    """The penalty eta * sum_a B_a^2 phi / dens, one ``grid._axis_product``
    of the whole field with the integer circulant B_a^2 per axis."""
    fourth = [B @ B for B in map(_second_difference, dens.shape)]

    def pen(phi):
        out = _axis_product(fourth[0], phi, 0, np.empty(phi.shape))
        buf = np.empty(phi.shape)
        for a in range(1, phi.ndim):
            out += _axis_product(fourth[a], phi, a, buf)
        out *= eta
        out /= dens
        return out

    return pen


def _penalty_strength(a_n, F):
    return 0.25 * a_n * max(1.0, float(np.max(F) - np.min(F)))


# ---------------------------------------------------------------------------
# preconditioned conjugate gradient
#
# The operator -a_n Lap + q is self-adjoint with respect to sum(a b sqrt(g)),
# so CG runs on the similarity transform sqrt(sqrt(g)) A sqrt(sqrt(g))^{-1},
# which is symmetric in the plain Euclidean product and therefore compatible
# with the Fourier preconditioner (a fixed SPD circulant).  Its symbol is a
# constant plus, for each axis, circulants M^T M of that axis, so it is
# diagonal in the tensor product of each axis's real orthonormal Fourier
# basis, with entry |M q_i|^2 on basis row q_i: read off the matrix itself.


def _real_basis(size):
    """Real orthonormal Fourier basis of a periodic axis of ``size`` points,
    one row per basis vector: the constant, then the cos and the sin row of
    each wave number 1 .. (size - 1) // 2, then on an even axis the Nyquist
    row (-1)^j.  Row i has wave number (i + 1) // 2."""
    j = np.arange(size)
    # the phase m j reduced mod size first, so every angle is below 2 pi
    angle = (2.0 * np.pi / size) * (np.outer((j + 1) // 2, j) % size)
    cos_row = (j % 2 == 1) | (j == 0)
    Q = np.where(cos_row[:, None], np.cos(angle), np.sin(angle))
    return Q / np.linalg.norm(Q, axis=1, keepdims=True)


def _symbol(M, Q):
    """|M q_i|^2 for each row q_i of Q, the circulant M^T M's diagonal."""
    return np.sum(_axis_product(M, Q, 1, np.empty(Q.shape)) ** 2, axis=1)


def _preconditioner(form, pen_mean):
    """``shifted(q)``: the inverse of the mean-coefficient symbol of
    -a_n Lap + q + pen_mean times the penalty's symbol, applied in each
    axis's real Fourier basis (``_real_basis``): a product with Q_a along
    every axis, a division by the symbol, a product with Q_a^T along every
    axis, each one ``grid._axis_product``.  On basis row q_i of axis a the
    Laplacian's symbol is |s_a D_a q_i|^2, with the apply's matrix D_a and
    scale s_a (``grid._apply_axes``), and the penalty's |B_a q_i|^2.

    The bases, the axis symbols and the mean flux trace depend on ``form``
    alone and are formed here, once; each ``shifted(q)`` forms only its
    denominator, the mean of q sqrt(det g) plus the axis symbols.  The
    products alternate between the result and one buffer shared by every
    ``shifted(q)``, so a call allocates only its result, and the
    preconditioners of one ``form`` serve one caller at a time."""
    chart = form.chart
    trace = sum(form.component(a, a) for a in range(chart.n)) / form.sqrt_det
    a_lap = laplacian_factor(chart.n) * max(float(np.mean(trace)) / chart.n, 1e-12)
    steps, symbols = [], []
    for a, (D, scale) in enumerate(_apply_axes(chart)):
        Q = _real_basis(chart.sizes[a])
        steps.append((a, Q))
        sym = a_lap * scale**2 * _symbol(D, Q) + pen_mean * _symbol(_second_difference(len(Q)), Q)
        shape = [1] * chart.n
        shape[a] = len(Q)
        symbols.append(sym.reshape(shape))
    # Q_a along every axis, then Q_a^T along every axis
    steps += [(a, Q.T) for a, Q in steps]
    buf = np.empty(chart.sizes)

    def shifted(q):
        denom = np.full(chart.sizes, max(float(np.mean(q * form.sqrt_det)), 1e-12))
        for sym in symbols:
            denom += sym

        def precond(r):
            out = np.empty(chart.sizes)
            # the 2n products alternate between buf and out and end in out
            x = r
            for i, (a, Q) in enumerate(steps):
                if i == chart.n:
                    x /= denom
                x = _axis_product(Q, x, a, (buf, out)[i % 2])
            return out

        return precond

    return shifted


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


def _shifted_solver(form):
    """``shifted(q)``: the solver of (-a_n Lap + q) x = b to a per-call
    relative tolerance; each solve returns x and its conjugate-gradient
    iteration count.  What depends on ``form`` alone, the preconditioner's
    bases and symbols included, is formed once for every q."""
    sd = np.sqrt(form.sqrt_det)
    preconditioner = _preconditioner(form, 0.0)

    def shifted(q):
        precond = preconditioner(q)

        def apply_sym(y):
            return sd * modified_laplacian_apply(form, y / sd, q)

        def solve(b, tol):
            y, it = _pcg(apply_sym, sd * b, precond, tol)
            return y / sd, it

        return solve

    return shifted


# ---------------------------------------------------------------------------
# trichotomy


# With unit columns, a Cholesky pivot of the Gram matrix is the sine of the
# angle between its column and the span of the ones before it.  Exactly
# dependent columns leave pivots up to about sqrt(eps) = 1.5e-8 after
# rounding, and the Ritz coefficients are then noise; the iterates measure
# 0.8 to 1.
_MIN_PIVOT = 1e-6


def _ritz_step(XA, rows):
    """Lowest Ritz pair of span{y, w, p}, the first ``rows`` rows of the
    iterates ``XA[0]`` of the (2, 3, *sizes) block ``XA`` (p only when
    ``rows`` is 3), whose images under the operator are the same rows of
    ``XA[1]``.

    One product of both halves' rows (a view when ``rows`` is 3) with the
    iterates' transpose forms S S^T over (A S) S^T.  The columns are
    normalized by the norms on its diagonal before the Gram matrix is
    factored; when p has become numerically dependent on y and w the
    Cholesky factorization fails or leaves a pivot below ``_MIN_PIVOT``,
    and the step is retried on span{y, w}.

    In both halves, in place, row 2 becomes the new step c_2 p + c_1 w and
    row 0 the new y, c_0 y + (row 2) normalized; row 1 (w, which the next
    iteration overwrites) is left scaled by c_1.
    """
    V = XA[:, :rows].reshape(2 * rows, -1)
    G = V @ V[:rows].T
    d = 1.0 / np.sqrt(np.diag(G[:rows]))
    gram = d[:, None] * G[:rows] * d[None, :]
    H = d[:, None] * G[rows:] * d[None, :]
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or float(np.min(np.diag(chol))) < _MIN_PIVOT:
        if rows == 2:
            raise RuntimeError(
                "eigensolver breakdown: the preconditioned residual is "
                "parallel to the iterate"
            )
        return _ritz_step(XA, 2)
    # H c = theta G c becomes a standard problem in the Cholesky frame
    M = np.linalg.solve(chol, np.linalg.solve(chol, 0.5 * (H + H.T)).T)
    _, vecs = np.linalg.eigh(M)
    c = np.linalg.solve(chol.T, vecs[:, 0]) * d
    if rows == 3:
        XA[:, 2] *= c[2]
        XA[:, 1] *= c[1]
        XA[:, 2] += XA[:, 1]
    else:
        np.multiply(c[1], XA[:, 1], out=XA[:, 2])
    XA[:, 0] *= c[0]
    XA[:, 0] += XA[:, 2]
    XA[:, 0] /= float(np.linalg.norm(XA[0, 0]))


def first_eigenvalue(g: MetricField, F: np.ndarray) -> TrichotomyResult:
    """Smallest eigenvalue of -a_n Lap + F by single-vector LOBPCG.

    ``F`` is the zeroth-order term: the curvature functional R + t |W| of
    ``g`` from ``scalar_weyl``, or any coefficient that overrides geometry.
    The coupling t enters only through it, so one curvature pass serves
    every t: ``first_eigenvalue(g, R + t * |W|)``.

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
    F = np.asarray(F, dtype=float)
    form = FluxForm.of(g)
    dens = form.sqrt_det
    sd = np.sqrt(dens)

    # the Rayleigh quotient is bounded below by min F (the penalty is
    # positive semidefinite), so the preconditioner of the operator shifted
    # by sigma inverts a positive definite symbol with a unit margin
    sigma = float(np.min(F)) - 1.0
    eta = _penalty_strength(laplacian_factor(chart.n), F)
    pen = _penalty_apply(dens, eta)
    precond = _preconditioner(form, eta * float(np.mean(1.0 / dens)))(F - sigma)

    applies = 0

    def apply_sym(y):
        nonlocal applies
        applies += 1
        phi = y / sd
        return sd * (modified_laplacian_apply(form, phi, F) + pen(phi))

    # for unit y, |A y - rho y| is the residual of u = y / sqrt(sqrt(g)) in
    # the volume-weighted norm, with u of unit L2(dV) norm
    # y, w and p are rows 0, 1 and 2 of XA[0], and A y, A w and A p those
    # of XA[1]: the Ritz step reads and updates them in place
    XA = np.empty((2, 3) + chart.sizes)
    (y, w, _), (Ay, Aw, _) = XA
    np.divide(sd, float(np.linalg.norm(sd)), out=y)
    Ay[...] = apply_sym(y)
    fresh = True
    rows = 2  # no last step yet
    scale = max(1.0, float(np.max(np.abs(F))))
    for it in range(1, _EIG_MAXITER + 1):
        lam = float(np.vdot(y, Ay))
        r = Ay - lam * y
        res = float(np.linalg.norm(r))
        if res <= _EIG_TOL * scale:
            if fresh:
                break
            Ay[...] = apply_sym(y)
            fresh = True
            continue
        w[...] = precond(r)
        Aw[...] = apply_sym(w)
        _ritz_step(XA, rows)
        rows = 3
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
    u /= np.sqrt(integrate(g, u * u))
    if integrate(g, u) < 0.0:
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


def _barrier_stage(g, form, F, p, u1, history):
    """``(u, iterations, cg_iterations)``: the monotone iteration between
    constant barriers on the metric conformally changed by ``u1``, handed
    over as the Newton start u = u1 * (its last iterate) on ``g``, whose
    ``form`` gives the transported coefficient.  Its rescaled ``FluxForm``,
    solver and iterates die when it returns, before Newton allocates."""
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
    solve1 = _shifted_solver(form1)(F1 + shift)
    u = np.full(g.chart.sizes, hi)
    delta = hi
    iterations = cg_iterations = 0
    for _ in range(60):
        inner = max(1e-10, min(_FORCING, _FORCING * delta / hi))
        new, cg = solve1(shift * u - u**p, inner)
        cg_iterations += cg
        delta = float(np.max(np.abs(new - u)))
        u = new
        iterations += 1
        history.append(
            float(np.max(np.abs(modified_laplacian_apply(form1, u, F1) + u**p)))
        )
        if delta <= _HANDOFF * hi:
            break
    return u1 * u, iterations, cg_iterations


def _newton_polish(form, F, p, u, tol_abs, history):
    res_of = lambda v: modified_laplacian_apply(form, v, F) + v**p
    r = res_of(u)
    res = float(np.max(np.abs(r)))
    cg_iters = 0
    shifted = _shifted_solver(form)
    for it in range(1, _NEWTON_MAXITER + 1):
        history.append(res)
        if res <= tol_abs:
            return u, res, it - 1, cg_iters
        q = F + p * u ** (p - 1.0)
        delta, cg = shifted(q)(-r, _NEWTON_CG_TOL)
        cg_iters += cg
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
    p = ConformalParams(t, chart.n).p_n
    tri = trichotomy
    if tri is None:
        tri = first_eigenvalue(g, scalar_weyl(g, t) if coefficient is None else coefficient)
    if tri.verdict != "negative":
        raise ValueError(
            "constant F == -1 requires a negative first eigenvalue; the "
            f"trichotomy verdict here is {tri.verdict!r} "
            f"(lambda_1 = {tri.lam:.3e})"
        )
    F = tri.coefficient
    form = FluxForm.of(g)

    history: list[float] = []
    # mean-one rescale keeps the conjugated metric O(1); any constant
    # multiple of the eigenfunction spans the same conformal ray
    u1 = tri.eigenfunction / (
        integrate(g, tri.eigenfunction) / integrate(g, np.ones(chart.sizes))
    )

    if init == "barriers":
        u_tot, iterations, cg_iterations = _barrier_stage(g, form, F, p, u1, history)
    else:
        iterations = cg_iterations = 0
        # Rayleigh-matched amplitude for the bare eigenfunction start
        e2 = integrate(g, -F * u1 * u1)
        ep = integrate(g, u1 ** (p + 1.0))
        u_tot = max(e2 / ep, 1e-8) ** (1.0 / (p - 1.0)) * u1

    tol_abs = _SOLVE_TOL * max(1.0, float(np.max(np.abs(F))))
    u_tot, res, newton_iters, cg = _newton_polish(form, F, p, u_tot, tol_abs, history)
    iterations += newton_iters
    cg_iterations += cg

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
        cg_iterations=cg_iterations,
        wall_time=time.perf_counter() - started,
        history=history,
        trichotomy=tri,
    )
