"""Pointwise multilinear algebra for curvature-type tensors.

A (0,4) tensor with the symmetries of a curvature tensor (antisymmetric in
each index pair, symmetric under pair exchange) is stored as a symmetric
matrix over the antisymmetric-pair basis: pairs ``(a < b)`` in lexicographic
order index rows and columns, so ``n = 4`` needs a 6x6 matrix per point
instead of 256 dense components.

All operations broadcast over arbitrary leading (grid) axes, so the same
code serves single points and whole fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .grid import Chart, FieldError, _check_grid_shape

__all__ = [
    "PointMetric",
    "Riem4Field",
    "pair_indices",
    "pair_from_dense",
    "dense_from_pair",
    "pair_lift",
    "pair_contract",
    "kulkarni_nomizu",
    "riemann_norm",
    "riemann_norm_squared",
    "trace_13",
    "vv_contract",
    "symmetrize_exchange",
    "bianchi_project",
    "bianchi_residual",
    "validate_riemann_symmetries",
    "riemann_symmetry_report",
]


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic antisymmetric pairs (a < b)."""
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


@lru_cache(maxsize=None)
def _pair_lookup(n: int):
    """(index, sign) tables: PIDX[a, b] is the pair slot, SGN[a, b] its sign."""
    m = len(pair_indices(n))
    pidx = np.zeros((n, n), dtype=int)
    sgn = np.zeros((n, n))
    for p, (a, b) in enumerate(pair_indices(n)):
        pidx[a, b] = p
        pidx[b, a] = p
        sgn[a, b] = 1.0
        sgn[b, a] = -1.0
    return m, pidx, sgn


def pair_from_dense(dense: np.ndarray, n: int) -> np.ndarray:
    """Project dense (..., n, n, n, n) onto pair-matrix storage.

    Exact for tensors with both pair antisymmetries; combined with
    ``symmetrize_exchange`` and ``bianchi_project`` this realizes the
    orthogonal projection onto curvature-type tensors.
    """
    pairs = pair_indices(n)
    m = len(pairs)
    out = np.empty(dense.shape[:-4] + (m, m), dtype=dense.dtype)
    for p, (a, b) in enumerate(pairs):
        for q, (c, d) in enumerate(pairs):
            out[..., p, q] = 0.25 * (
                dense[..., a, b, c, d]
                - dense[..., b, a, c, d]
                - dense[..., a, b, d, c]
                + dense[..., b, a, d, c]
            )
    return out


def dense_from_pair(mat: np.ndarray, n: int) -> np.ndarray:
    """Expand pair-matrix storage to the dense (..., n, n, n, n) tensor."""
    _, pidx, sgn = _pair_lookup(n)
    out = np.zeros(mat.shape[:-2] + (n, n, n, n), dtype=mat.dtype)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for c in range(n):
                for d in range(n):
                    if c == d:
                        continue
                    out[..., a, b, c, d] = (
                        sgn[a, b] * sgn[c, d] * mat[..., pidx[a, b], pidx[c, d]]
                    )
    return out


@dataclass
class PointMetric:
    """A single SPD matrix with cached inverse, for pointwise algebra."""

    g: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if self.g.ndim != 2 or self.g.shape[0] != self.g.shape[1]:
            raise FieldError(f"PointMetric expects a square matrix, got {self.g.shape}")
        if np.max(np.abs(self.g - self.g.T)) > 1e-12 * max(1.0, np.abs(self.g).max()):
            raise FieldError("PointMetric matrix is not symmetric")
        if np.min(np.linalg.eigvalsh(self.g)) <= 0:
            raise FieldError("PointMetric matrix is not positive definite")
        self.n = self.g.shape[0]
        self.inverse = np.linalg.inv(self.g)
        self.det = float(np.linalg.det(self.g))


@dataclass
class Riem4Field:
    """Curvature-type (0,4) tensor field in deduplicated pair storage."""

    chart: Chart
    pair: np.ndarray  # (*sizes, m, m), symmetric in the last two axes

    def __post_init__(self):
        self.pair = np.asarray(self.pair, dtype=float)
        m = len(pair_indices(self.chart.n))
        _check_grid_shape(self.chart, self.pair, (m, m), "Riem4Field")

    def dense(self) -> np.ndarray:
        return dense_from_pair(self.pair, self.chart.n)

    @classmethod
    def from_dense(cls, chart: Chart, dense: np.ndarray, project=False):
        mat = pair_from_dense(np.asarray(dense, dtype=float), chart.n)
        mat = symmetrize_exchange(mat)
        if project:
            mat = bianchi_project(mat, chart.n)
        return cls(chart, mat)


# ---------------------------------------------------------------------------
# products and contractions
# ---------------------------------------------------------------------------


def _dense_sym2(x) -> np.ndarray:
    from .grid import Sym2Field

    if isinstance(x, Sym2Field):
        return x.dense
    return np.asarray(x, dtype=float)


def kulkarni_nomizu(a, b, n: int | None = None) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric 2-tensors, pair storage.

    ``(a ? b)_{ijkt} = a_ik b_jt + a_jt b_ik - a_it b_jk - a_jk b_it``,
    returned as the (..., m, m) pair matrix; leading axes broadcast.
    """
    A = _dense_sym2(a)
    B = _dense_sym2(b)
    if n is None:
        n = A.shape[-1]
    pairs = pair_indices(n)
    m = len(pairs)
    out = np.empty(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (m, m), float)
    for p, (i, j) in enumerate(pairs):
        for q in range(p, m):
            k, t = pairs[q]
            val = (
                A[..., i, k] * B[..., j, t]
                + A[..., j, t] * B[..., i, k]
                - A[..., i, t] * B[..., j, k]
                - A[..., j, k] * B[..., i, t]
            )
            out[..., p, q] = val
            if q != p:
                out[..., q, p] = val
    return out


def pair_lift(m1: np.ndarray, m2: np.ndarray, n: int | None = None) -> np.ndarray:
    """Lift two (inverse-)metrics to the pair basis for contractions.

    For antisymmetric pairs P=(a,b), Q=(e,f) the ordered-index double sum of
    ``m1^{ae} m2^{bf}`` against the pair signs equals this matrix, so full
    eight-index contractions of two curvature-type tensors reduce to matrix
    algebra over pair space.  For symmetric inputs that matrix is the
    Kulkarni-Nomizu product of the two.
    """
    return kulkarni_nomizu(m1, m2, n)


def pair_contract(t1: np.ndarray, t2: np.ndarray, k12: np.ndarray, k34: np.ndarray):
    """Full contraction ``t1_{abcd} t2_{efgh} K12^{(ab)(ef)} K34^{(cd)(gh)}``.

    Both lift matrices must be symmetric (pair_lift of symmetric matrices is).
    """
    mid = np.matmul(np.matmul(k12, t2), k34)
    return np.sum(t1 * mid, axis=(-2, -1))


def _inverse_of(metric) -> np.ndarray:
    from .grid import MetricField

    if isinstance(metric, PointMetric):
        return metric.inverse
    if isinstance(metric, MetricField):
        return metric.inverse
    return np.asarray(metric, dtype=float)


def _pair_of(T, n: int | None = None) -> tuple[np.ndarray, int]:
    if isinstance(T, Riem4Field):
        return T.pair, T.chart.n
    T = np.asarray(T, dtype=float)
    if n is None:
        # dense input has four trailing equal axes; pair input two equal axes
        if T.ndim >= 4 and T.shape[-1] == T.shape[-4]:
            n = T.shape[-1]
            return pair_from_dense(T, n), n
        raise FieldError("cannot infer dimension; pass n explicitly")
    m = len(pair_indices(n))
    # for n = 3 a dense tensor also ends in (m, m) axes
    if T.shape[-2:] == (m, m) and T.shape[-4:] != (n,) * 4:
        return T, n
    return pair_from_dense(T, n), n


def riemann_norm_squared(T, metric, n: int | None = None) -> np.ndarray:
    """Squared norm ``T_{ijkt} T^{ijkt}`` with all indices raised by the metric."""
    inv = _inverse_of(metric)
    mat, n = _pair_of(T, n if n is not None else inv.shape[-1])
    k = pair_lift(inv, inv, n)
    val = pair_contract(mat, mat, k, k)
    return np.maximum(val, 0.0)


def riemann_norm(T, metric, n: int | None = None):
    """Norm of a curvature-type tensor; nonnegative scalar per point."""
    return np.sqrt(riemann_norm_squared(T, metric, n))


def trace_13(T, inv: np.ndarray, n: int | None = None) -> np.ndarray:
    """Ricci-type trace ``S_jt = g^{ik} T_{ijkt}`` from pair storage."""
    mat, n = _pair_of(T, n if n is not None else inv.shape[-1])
    _, pidx, sgn = _pair_lookup(n)
    shape = np.broadcast_shapes(mat.shape[:-2], inv.shape[:-2])
    out = np.zeros(shape + (n, n))
    for j in range(n):
        for t in range(j, n):
            acc = 0.0
            for i in range(n):
                if i == j:
                    continue
                for k in range(n):
                    if k == t:
                        continue
                    s = sgn[i, j] * sgn[k, t]
                    acc = acc + s * inv[..., i, k] * mat[..., pidx[i, j], pidx[k, t]]
            out[..., j, t] = acc
            if t != j:
                out[..., t, j] = acc
    return out


def vv_contract(T, v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Contraction ``S_ik = T_{ipkq} v^p v^q`` for a raised vector ``v``:
    the 1-3 trace of ``T`` against ``v (x) v``."""
    return trace_13(T, v[..., :, None] * v[..., None, :], n)


# ---------------------------------------------------------------------------
# symmetry handling
# ---------------------------------------------------------------------------


def symmetrize_exchange(mat: np.ndarray) -> np.ndarray:
    """Average over the pair-exchange symmetry."""
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def _quad_entries(n: int):
    _, pidx, _ = _pair_lookup(n)
    ents = []
    for a, b, c, d in combinations(range(n), 4):
        # cyclic sum omega = T_abcd - T_acbd + T_adbc in pair entries
        ents.append(
            (
                (pidx[a, b], pidx[c, d]),
                (pidx[a, c], pidx[b, d]),
                (pidx[a, d], pidx[b, c]),
            )
        )
    return ents


def bianchi_residual(T, n: int | None = None) -> np.ndarray:
    """Max first-Bianchi violation over the independent quadruples."""
    mat, n = _pair_of(T, n)
    worst = np.zeros(mat.shape[:-2])
    for (pq1, pq2, pq3) in _quad_entries(n):
        omega = mat[..., pq1[0], pq1[1]] - mat[..., pq2[0], pq2[1]] + mat[..., pq3[0], pq3[1]]
        worst = np.maximum(worst, np.abs(omega))
    return worst


def bianchi_project(mat: np.ndarray, n: int) -> np.ndarray:
    """Remove the totally antisymmetric part, enforcing first Bianchi."""
    out = mat.copy()
    for (pq1, pq2, pq3) in _quad_entries(n):
        omega = (
            out[..., pq1[0], pq1[1]] - out[..., pq2[0], pq2[1]] + out[..., pq3[0], pq3[1]]
        ) / 3.0
        for (p, q), sign in zip((pq1, pq2, pq3), (1.0, -1.0, 1.0)):
            out[..., p, q] -= sign * omega
            if p != q:
                out[..., q, p] -= sign * omega
    return out


def validate_riemann_symmetries(T, n: int | None = None, scale: float | None = None) -> float:
    """Max violation of the curvature-tensor symmetries and first Bianchi."""
    return riemann_symmetry_report(T, n=n, scale=scale)["max_violation"]


def riemann_symmetry_report(T, n: int | None = None, scale: float | None = None) -> dict:
    """Report violation magnitudes of the four curvature-tensor symmetries.

    Accepts dense (..., n, n, n, n) input (all four properties checked) or
    pair storage (antisymmetries are structural there, so only exchange and
    first Bianchi can be violated).  Returns absolute violations plus the
    scale used for the relative verdict.
    """
    report: dict = {}
    if isinstance(T, Riem4Field):
        dense = None
        mat, n = T.pair, T.chart.n
    else:
        T = np.asarray(T, dtype=float)
        if T.ndim >= 4 and T.shape[-1] == T.shape[-4]:
            dense = T
            n = T.shape[-1]
            mat = None
        else:
            dense = None
            mat, n = _pair_of(T, n)
    if dense is not None:
        scale = scale or max(float(np.max(np.abs(dense))), 1e-300)
        report["antisym_first_pair"] = float(
            np.max(np.abs(dense + np.swapaxes(dense, -4, -3)))
        )
        report["antisym_second_pair"] = float(
            np.max(np.abs(dense + np.swapaxes(dense, -2, -1)))
        )
        report["pair_exchange"] = float(
            np.max(np.abs(dense - np.transpose(dense, tuple(range(dense.ndim - 4)) + (-2, -1, -4, -3))))
        )
        report["first_bianchi"] = float(
            np.max(
                np.abs(
                    dense
                    + np.transpose(dense, tuple(range(dense.ndim - 4)) + (-4, -2, -1, -3))
                    + np.transpose(dense, tuple(range(dense.ndim - 4)) + (-4, -1, -3, -2))
                )
            )
        )
    else:
        scale = scale or max(float(np.max(np.abs(mat))), 1e-300)
        report["antisym_first_pair"] = 0.0
        report["antisym_second_pair"] = 0.0
        report["pair_exchange"] = float(np.max(np.abs(mat - np.swapaxes(mat, -1, -2))))
        report["first_bianchi"] = float(np.max(bianchi_residual(mat, n)))
    report["scale"] = float(scale)
    report["max_violation"] = max(
        report[k] for k in (
            "antisym_first_pair",
            "antisym_second_pair",
            "pair_exchange",
            "first_bianchi",
        )
    )
    report["ok"] = report["max_violation"] <= 1e-9 * report["scale"]
    return report
