"""Pointwise multilinear algebra for curvature-type tensors.

A (0,4) tensor with the symmetries of a curvature tensor (antisymmetric in
each index pair, symmetric under pair exchange) is stored as a symmetric
matrix over the antisymmetric-pair basis: pairs ``(a < b)`` in lexicographic
order index rows and columns, so ``n = 4`` needs a 6x6 matrix per point
instead of 256 dense components.

All operations broadcast over arbitrary leading (grid) axes, so the same
code serves single points and whole fields.  Fields are point-major (the
components of one point are adjacent), so a single component of a field is
strided.  The per-entry kernels ``kulkarni_nomizu`` and ``trace_13`` therefore
walk the points in blocks small enough that a block of each input, the
entry scratch and the output block stay in cache: the strided component
reads then hit cache, and each cache line of the fields crosses memory once.
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
    # sgn vanishes on the diagonal, which zeroes the entries with a == b or c == d
    return (sgn[:, :, None, None] * sgn[None, None]) * mat[
        ..., pidx[:, :, None, None], pidx[None, None]
    ]


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


# Points per block of the per-entry kernels.  For n = 4 a block of both
# factors and of the product takes about 1.1 MB, inside a 2 MB L2 cache.  On
# a Xeon with that L2, a 20^4 product ran fastest with 2048 points per block;
# 512 and 8192 were 1.7x and 2.3x slower.
_BLOCK = 2048


def _point_rows(x: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """``x`` broadcast to the leading shape ``lead``, with the leading axes
    flattened to one point axis; a view where one exists, else a copy."""
    return np.broadcast_to(x, lead + x.shape[-2:]).reshape((-1,) + x.shape[-2:])


def _components(block: np.ndarray) -> list[list[np.ndarray]]:
    """Views ``c[i][k] = block[:, i, k]``, made once per block rather than
    once per use."""
    return [[block[:, i, k] for k in range(block.shape[2])] for i in range(block.shape[1])]


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
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = _point_rows(A, lead)
    B = _point_rows(B, lead)
    out = np.empty(lead + (m, m))
    rows = out.reshape(-1, m, m)
    val = np.empty(min(_BLOCK, len(rows)))
    tmp = np.empty_like(val)
    for s in range(0, len(rows), _BLOCK):
        ac, bc = _components(A[s : s + _BLOCK]), _components(B[s : s + _BLOCK])
        ob = rows[s : s + _BLOCK]
        v, w = val[: len(ob)], tmp[: len(ob)]
        for p, (i, j) in enumerate(pairs):
            for q in range(p, m):
                k, t = pairs[q]
                np.multiply(ac[i][k], bc[j][t], out=v)
                v += np.multiply(ac[j][t], bc[i][k], out=w)
                v -= np.multiply(ac[i][t], bc[j][k], out=w)
                v -= np.multiply(ac[j][k], bc[i][t], out=w)
                ob[:, p, q] = v
                if q != p:
                    ob[:, q, p] = v
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


@lru_cache(maxsize=None)
def _trace_terms(n: int) -> dict[tuple[int, int], list[tuple[int, int, int, int, bool]]]:
    """For each entry (j, t >= j) of the 1-3 trace, its terms
    ``(i, k, P, Q, positive)``: ``g^{ik}`` times pair entry (P, Q), added when
    the product of the two pair signs is positive and subtracted otherwise."""
    _, pidx, sgn = _pair_lookup(n)
    return {
        (j, t): [
            (i, k, int(pidx[i, j]), int(pidx[k, t]), bool(sgn[i, j] * sgn[k, t] > 0))
            for i in range(n)
            if i != j
            for k in range(n)
            if k != t
        ]
        for j in range(n)
        for t in range(j, n)
    }


def trace_13(T, inv: np.ndarray, n: int | None = None) -> np.ndarray:
    """Ricci-type trace ``S_jt = g^{ik} T_{ijkt}`` from pair storage."""
    mat, n = _pair_of(T, n if n is not None else inv.shape[-1])
    inv = np.asarray(inv, dtype=float)
    lead = np.broadcast_shapes(mat.shape[:-2], inv.shape[:-2])
    M = _point_rows(mat, lead)
    G = _point_rows(inv, lead)
    out = np.empty(lead + (n, n))
    rows = out.reshape(-1, n, n)
    acc = np.empty(min(_BLOCK, len(rows)))
    tmp = np.empty_like(acc)
    for s in range(0, len(rows), _BLOCK):
        mc, gc = _components(M[s : s + _BLOCK]), _components(G[s : s + _BLOCK])
        ob = rows[s : s + _BLOCK]
        a, w = acc[: len(ob)], tmp[: len(ob)]
        for (j, t), terms in _trace_terms(n).items():
            a.fill(0.0)
            for i, k, p, q, positive in terms:
                np.multiply(gc[i][k], mc[p][q], out=w)
                if positive:
                    a += w
                else:
                    a -= w
            ob[:, j, t] = a
            if t != j:
                ob[:, t, j] = a
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
