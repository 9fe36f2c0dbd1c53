"""Pointwise multilinear algebra for curvature-type tensors.

A (0,4) tensor with the symmetries of a curvature tensor (antisymmetric in
each index pair, symmetric under pair exchange) is stored as a symmetric
matrix over the antisymmetric-pair basis: pairs ``(a < b)`` in lexicographic
order index rows and columns, so ``n = 4`` needs a 6x6 matrix per point
instead of 256 dense components.

Each argument takes one representation: curvature-type tensors are
(..., m, m) pair matrices with m = n (n - 1) / 2, and symmetric 2-tensors
(metrics, inverse metrics, Ricci-type tensors) are dense (..., n, n)
arrays.  The dimension n is the last axis of the (n, n) operand; only
``bianchi_project``, which has none, takes it as an argument.  A
``Riem4Field`` is the grid record of a pair-matrix field: callers pass its
``pair`` array.

All operations broadcast over arbitrary leading (grid) axes, so the same
code serves single points and whole fields.  Fields are point-major (the
components of one point are adjacent), so a single component of a field is
strided.  The per-entry kernels ``kulkarni_nomizu`` and ``trace_13`` work
component-major instead: each block of up to ``_BLOCK`` points is copied
once into (n, n, B) scratch per (n, n) operand and (m, m, B) per pair-matrix
operand, every entry's multiply/add sequence runs on contiguous rows of B
points, and one transposing copy per block writes the (m, m, B) or
(n, n, B) result into the point-major output.  The arithmetic per entry is
that of the point-major loop, so the results are the same to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .grid import Chart, FieldError, _check_grid_shape

__all__ = [
    "Riem4Field",
    "pair_indices",
    "pair_lift",
    "pair_contract",
    "kulkarni_nomizu",
    "riemann_norm",
    "riemann_norm_squared",
    "lifted_norm_squared",
    "trace_13",
    "vv_contract",
    "bianchi_project",
]


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic antisymmetric pairs (a < b)."""
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


@lru_cache(maxsize=None)
def _pair_lookup(n: int):
    """(index, sign) tables: PIDX[a, b] is the pair slot, SGN[a, b] its sign."""
    pidx = np.zeros((n, n), dtype=int)
    sgn = np.zeros((n, n))
    for p, (a, b) in enumerate(pair_indices(n)):
        pidx[a, b] = p
        pidx[b, a] = p
        sgn[a, b] = 1.0
        sgn[b, a] = -1.0
    return pidx, sgn


@dataclass
class Riem4Field:
    """Curvature-type (0,4) tensor field in deduplicated pair storage."""

    chart: Chart
    pair: np.ndarray  # (*sizes, m, m), symmetric in the last two axes

    def __post_init__(self):
        self.pair = np.asarray(self.pair, dtype=float)
        m = len(pair_indices(self.chart.n))
        _check_grid_shape(self.chart, self.pair, (m, m), "Riem4Field")


# ---------------------------------------------------------------------------
# products and contractions
# ---------------------------------------------------------------------------


# Points per block of the per-entry kernels.  For n = 4 a block of 8192
# points takes 2 x 1 MB of factor scratch and 2.4 MB of product scratch.  On
# a 2-CPU Xeon (2 MB L2 per core, numpy 2.4.6) a 20^4 product took 82, 63,
# 62, 54 and 75 ms with blocks of 1024, 2048, 4096, 8192 and 16384 points
# (the 1-3 trace of its result 75, 59, 52, 46 and 53 ms), medians of 5
# alternating runs.  In the benchmark's curvature_4d pass 8192 beat 4096 in 4
# of 4 alternating pairs and tied with 16384: the stack calls these kernels
# on slab parts of about 8000 points.
_BLOCK = 8192


def _point_rows(x: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """``x`` broadcast to the leading shape ``lead``, with the leading axes
    flattened to one point axis; a view where one exists, else a copy."""
    return np.broadcast_to(x, lead + x.shape[-2:]).reshape((-1,) + x.shape[-2:])


def _gather(scratch: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Copy the point-major ``block`` (B, r, c) into the component-major
    ``scratch`` (r, c, >= B); returns the filled (r, c, B) view, whose
    component rows ``[i, k]`` are contiguous."""
    view = scratch[:, :, : len(block)]
    np.copyto(view, block.transpose(1, 2, 0))
    return view


def kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric (..., n, n) 2-tensors.

    ``(a ⊙ b)_{ijkt} = a_ik b_jt + a_jt b_ik - a_it b_jk - a_jk b_it``,
    returned as the (..., m, m) pair matrix; leading axes broadcast.
    """
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    n = A.shape[-1]
    pairs = pair_indices(n)
    m = len(pairs)
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = _point_rows(A, lead)
    B = _point_rows(B, lead)
    out = np.empty(lead + (m, m))
    rows = out.reshape(-1, m, m)
    size = min(_BLOCK, len(rows))
    sa, sb, so = np.empty((n, n, size)), np.empty((n, n, size)), np.empty((m, m, size))
    tmp = np.empty(size)
    for s in range(0, len(rows), _BLOCK):
        ac = _gather(sa, A[s : s + _BLOCK])
        bc = _gather(sb, B[s : s + _BLOCK])
        ob, w = so[:, :, : ac.shape[2]], tmp[: ac.shape[2]]
        for p, (i, j) in enumerate(pairs):
            for q in range(p, m):
                k, t = pairs[q]
                v = ob[p, q]
                np.multiply(ac[i, k], bc[j, t], out=v)
                v += np.multiply(ac[j, t], bc[i, k], out=w)
                v -= np.multiply(ac[i, t], bc[j, k], out=w)
                v -= np.multiply(ac[j, k], bc[i, t], out=w)
                if q != p:
                    ob[q, p] = v
        np.copyto(rows[s : s + _BLOCK], ob.transpose(2, 0, 1))
    return out


def pair_lift(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Lift two (inverse-)metrics to the pair basis for contractions.

    For antisymmetric pairs P=(a,b), Q=(e,f) the ordered-index double sum of
    ``m1^{ae} m2^{bf}`` against the pair signs equals this matrix, so full
    eight-index contractions of two curvature-type tensors reduce to matrix
    algebra over pair space.  For symmetric inputs that matrix is the
    Kulkarni-Nomizu product of the two.
    """
    return kulkarni_nomizu(m1, m2)


def pair_contract(t1: np.ndarray, t2: np.ndarray, k12: np.ndarray, k34: np.ndarray):
    """Full contraction ``t1_{abcd} t2_{efgh} K12^{(ab)(ef)} K34^{(cd)(gh)}``.

    Both lift matrices must be symmetric (pair_lift of symmetric matrices is).
    """
    mid = np.matmul(np.matmul(k12, t2), k34)
    return np.sum(t1 * mid, axis=(-2, -1))


def riemann_norm_squared(mat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Squared norm ``T_{ijkt} T^{ijkt}`` of the pair matrices ``mat``, with
    all indices raised by the (..., n, n) inverse metric ``inv``."""
    return lifted_norm_squared(mat, pair_lift(inv, inv))


def lifted_norm_squared(mat: np.ndarray, lift: np.ndarray) -> np.ndarray:
    """``riemann_norm_squared`` under an inverse metric given by its pair
    lift, so that several tensors can share one lift."""
    return np.maximum(pair_contract(mat, mat, lift, lift), 0.0)


def riemann_norm(mat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Norm of curvature-type pair matrices under the inverse metric ``inv``;
    nonnegative scalar per point."""
    return np.sqrt(riemann_norm_squared(mat, inv))


@lru_cache(maxsize=None)
def _trace_terms(n: int) -> dict[tuple[int, int], list[tuple[int, int, int, int, bool]]]:
    """For each entry (j, t >= j) of the 1-3 trace, its terms
    ``(i, k, P, Q, positive)``: ``g^{ik}`` times pair entry (P, Q), added when
    the product of the two pair signs is positive and subtracted otherwise."""
    pidx, sgn = _pair_lookup(n)
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


def trace_13(mat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Ricci-type trace ``S_jt = g^{ik} T_{ijkt}`` of the pair matrices
    ``mat`` against the (..., n, n) matrix ``inv``."""
    inv = np.asarray(inv, dtype=float)
    n = inv.shape[-1]
    m = len(pair_indices(n))
    if mat.shape[-2:] != (m, m):
        raise FieldError(
            f"expected (..., {m}, {m}) pair matrices for n = {n}, got {mat.shape}"
        )
    lead = np.broadcast_shapes(mat.shape[:-2], inv.shape[:-2])
    M = _point_rows(mat, lead)
    G = _point_rows(inv, lead)
    out = np.empty(lead + (n, n))
    rows = out.reshape(-1, n, n)
    size = min(_BLOCK, len(rows))
    sm, sg, so = np.empty((m, m, size)), np.empty((n, n, size)), np.empty((n, n, size))
    tmp = np.empty(size)
    for s in range(0, len(rows), _BLOCK):
        mc = _gather(sm, M[s : s + _BLOCK])
        gc = _gather(sg, G[s : s + _BLOCK])
        ob, w = so[:, :, : mc.shape[2]], tmp[: mc.shape[2]]
        for (j, t), terms in _trace_terms(n).items():
            a = ob[j, t]
            a.fill(0.0)
            for i, k, p, q, positive in terms:
                np.multiply(gc[i, k], mc[p, q], out=w)
                if positive:
                    a += w
                else:
                    a -= w
            if t != j:
                ob[t, j] = a
        np.copyto(rows[s : s + _BLOCK], ob.transpose(2, 0, 1))
    return out


def vv_contract(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Contraction ``S_ik = T_{ipkq} v^p v^q`` of the pair matrices ``mat``
    for a raised (..., n) vector ``v``: the 1-3 trace against ``v (x) v``."""
    return trace_13(mat, v[..., :, None] * v[..., None, :])


# ---------------------------------------------------------------------------
# symmetry handling
# ---------------------------------------------------------------------------


def _quad_entries(n: int):
    pidx, _ = _pair_lookup(n)
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
