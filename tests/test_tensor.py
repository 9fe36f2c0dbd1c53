"""Pair-basis storage, Kulkarni-Nomizu products, norms, symmetry checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bianchi_residual,
    dense_from_pair,
    pair_from_dense,
    riemann_symmetry_report,
    symmetrize_exchange,
)
from scalarweyl import tensor
from scalarweyl.grid import FieldError
from scalarweyl.tensor import (
    bianchi_project,
    kulkarni_nomizu,
    pair_contract,
    pair_indices,
    pair_lift,
    riemann_norm,
    riemann_norm_squared,
    trace_13,
    vv_contract,
)


def random_spd(n, seed=0, amp=0.4):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return np.eye(n) + amp * (a + a.T) / (2 * n)


def random_curvature_type(n, seed=0):
    """Dense tensor with both antisymmetries and pair exchange imposed."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n, n, n))
    t = t - np.swapaxes(t, 0, 1)
    t = t - np.swapaxes(t, 2, 3)
    return t + np.transpose(t, (2, 3, 0, 1))


def dense_norm_squared(t, inv):
    """Independent oracle: raise all four indices by brute force."""
    return float(
        np.einsum("abcd,efgh,ae,bf,cg,dh->", t, t, inv, inv, inv, inv, optimize=True)
    )


def test_pair_roundtrip_preserves_curvature_type():
    for n in (3, 4, 5, 6):
        t = random_curvature_type(n, seed=n)
        back = dense_from_pair(pair_from_dense(t, n), n)
        assert np.allclose(back, t, atol=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pair_from_dense_recovers_the_pair_matrix(n):
    # pair matrices that vary along axis 0 and broadcast over the rest keep
    # the n = 5 dense input of an 8^5 grid a view of 8 points
    m = len(pair_indices(n))
    rng = np.random.default_rng(n)
    b = rng.standard_normal((8,) + (1,) * (n - 1) + (m, m))
    P = bianchi_project(b + np.swapaxes(b, -1, -2), n)
    A = b - np.swapaxes(b, -1, -2)
    full = (8,) * n + (n,) * 4
    scale = 4.0 * np.finfo(float).eps * np.max(np.abs(P))

    def project(mat):
        dense = np.broadcast_to(dense_from_pair(mat, n), full)
        return symmetrize_exchange(pair_from_dense(dense, n))

    pair = project(P)
    assert np.max(np.abs(pair - P)) <= scale
    # an exchange-antisymmetric part is dropped: the result is symmetric
    pair = project(P + A)
    assert np.array_equal(pair, np.swapaxes(pair, -1, -2))
    assert np.max(np.abs(pair - P)) <= scale


def test_kn_identity_component():
    # (id ? id)_{0101} = 2 for the euclidean metric
    kn = kulkarni_nomizu(np.eye(4), np.eye(4))
    dense = dense_from_pair(kn, 4)
    assert dense[0, 1, 0, 1] == pytest.approx(2.0)
    assert dense[0, 1, 1, 0] == pytest.approx(-2.0)
    assert dense[0, 0, 1, 1] == pytest.approx(0.0)


def dense_kn(a, b):
    return (
        np.einsum("...ik,...jt->...ijkt", a, b)
        + np.einsum("...jt,...ik->...ijkt", a, b)
        - np.einsum("...it,...jk->...ijkt", a, b)
        - np.einsum("...jk,...it->...ijkt", a, b)
    )


def test_kn_matches_dense_formula():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5, 6):
        a = rng.standard_normal((n, n))
        a = a + a.T
        b = rng.standard_normal((n, n))
        b = b + b.T
        dense = dense_from_pair(kulkarni_nomizu(a, b), n)
        assert np.allclose(dense, dense_kn(a, b), atol=1e-13)
        # a point factor against a field factor broadcasts over the field
        field = rng.standard_normal((2, 3, n, n))
        field = field + np.swapaxes(field, -1, -2)
        kn = kulkarni_nomizu(np.eye(n), field)
        m = len(pair_indices(n))
        assert kn.shape == (2, 3, m, m)
        assert np.allclose(dense_from_pair(kn, n), dense_kn(np.eye(n), field), atol=1e-13)


def test_gkng_norm_is_8n_n_minus_1():
    # |g ? g|^2 = 8 n (n-1), independent of the metric
    for n in (3, 4, 5):
        g = random_spd(n, seed=10 + n)
        inv = np.linalg.inv(g)
        kn = kulkarni_nomizu(g, g)
        val = riemann_norm_squared(kn, inv)
        assert val == pytest.approx(8 * n * (n - 1), rel=1e-12)
        # and against the brute-force dense contraction
        assert val == pytest.approx(
            dense_norm_squared(dense_from_pair(kn, n), inv), rel=1e-12
        )


def test_identity_kn_norm_value():
    # |id ? id|^2 = 8 n (n-1): 96 at n = 4
    for n in (3, 4, 5, 6):
        eye = np.eye(n)
        assert riemann_norm(kulkarni_nomizu(eye, eye), eye) == pytest.approx(
            np.sqrt(8.0 * n * (n - 1))
        )


def test_norm_metric_scaling():
    # fixed (0,4) tensor, metric g -> c^2 g: norm scales as c^-4
    for n in (3, 4, 5, 6):
        t = pair_from_dense(random_curvature_type(n, seed=9), n)
        g = random_spd(n, seed=9)
        c = 1.7
        v1 = riemann_norm(t, np.linalg.inv(g))
        v2 = riemann_norm(t, np.linalg.inv(c**2 * g))
        assert v2 == pytest.approx(v1 / c**4, rel=1e-12)


def test_kernels_read_a_block_of_n3_pair_matrices_per_point():
    # a (3, 3) block of n = 3 pair matrices has the shape of one dense n = 3
    # tensor, (3, 3, 3, 3); each point of the block is still one pair matrix
    n = 3
    rng = np.random.default_rng(61)
    P = np.stack(
        [pair_from_dense(random_curvature_type(n, seed=s), n) for s in range(9)]
    ).reshape(3, 3, 3, 3)
    inv = np.linalg.inv(random_spd(n, seed=62))
    v = rng.standard_normal(n)
    for kernel, arg in ((riemann_norm, inv), (trace_13, inv), (vv_contract, v)):
        got = kernel(P, arg)
        want = np.stack([kernel(P[idx], arg) for idx in np.ndindex(3, 3)])
        assert got.shape == (3, 3) + want.shape[1:]
        np.testing.assert_allclose(got.reshape(want.shape), want, rtol=1e-13, atol=0.0)
    # the dimension comes from the (n, n) operand: n = 4 pair matrices
    # against an n = 3 inverse are refused, not misread
    with pytest.raises(FieldError, match="pair matrices for n = 3"):
        trace_13(kulkarni_nomizu(np.eye(4), np.eye(4)), inv)


def test_pair_contract_matches_dense():
    for n in (3, 4, 5, 6):
        t1 = random_curvature_type(n, seed=1)
        t2 = random_curvature_type(n, seed=2)
        inv = np.linalg.inv(random_spd(n, seed=3))
        k = pair_lift(inv, inv)
        got = pair_contract(pair_from_dense(t1, n), pair_from_dense(t2, n), k, k)
        expect = np.einsum(
            "abcd,efgh,ae,bf,cg,dh->", t1, t2, inv, inv, inv, inv, optimize=True
        )
        assert got == pytest.approx(float(expect), rel=1e-12)


def test_mixed_pair_lift_frame_sums():
    # projector/normal lifts pick out frame component sums of |T|^2
    n = 4
    t = random_curvature_type(n, seed=12)
    rho = np.array([1.0, 0.0, 0.0, 0.0])
    W = np.outer(rho, rho)
    P = np.eye(n) - W
    mat = pair_from_dense(t, n)
    # sum over fully tangential components
    got_tttt = pair_contract(mat, mat, pair_lift(P, P), pair_lift(P, P))
    expect = float(np.sum(t[1:, 1:, 1:, 1:] ** 2))
    assert got_tttt == pytest.approx(expect, rel=1e-12)
    # one normal leg in the second slot
    got_trtt = pair_contract(mat, mat, pair_lift(P, W), pair_lift(P, P))
    expect = float(np.sum(t[1:, 0, 1:, 1:] ** 2))
    assert got_trtt == pytest.approx(expect, rel=1e-12)
    # normal legs in slots two and four
    got_trtr = pair_contract(mat, mat, pair_lift(P, W), pair_lift(P, W))
    expect = float(np.sum(t[1:, 0, 1:, 0] ** 2))
    assert got_trtr == pytest.approx(expect, rel=1e-12)


def test_trace_13_of_kn():
    # g^{ik} (a ? g)_{ijkt} = (tr_g a) g_jt + (n-2) a_jt
    rng = np.random.default_rng(22)
    for n in (3, 4, 5, 6):
        g = random_spd(n, seed=21)
        inv = np.linalg.inv(g)
        a = rng.standard_normal((n, n))
        a = a + a.T
        ric = trace_13(kulkarni_nomizu(a, g), inv)
        tra = float(np.einsum("ik,ik->", inv, a))
        assert np.allclose(ric, tra * g + (n - 2) * a, atol=1e-12)
        # sanity: trace of g ? g
        ric2 = trace_13(kulkarni_nomizu(g, g), inv)
        assert np.allclose(ric2, 2 * (n - 1) * g, atol=1e-12)


def test_kernels_on_noncontiguous_views():
    rng = np.random.default_rng(52)
    n = 4
    a = rng.standard_normal((6, 4, n, n))
    a = a + np.swapaxes(a, -1, -2)
    b = rng.standard_normal((6, 4, n, n))
    b = b + np.swapaxes(b, -1, -2)
    inv = np.linalg.inv(np.eye(n) + 0.1 * a)
    mat = kulkarni_nomizu(a, b)
    # a grid-axis swap and a strided slice of a field
    for view in (lambda x: np.swapaxes(x, 0, 1), lambda x: x[::2]):
        av, bv, iv, mv = view(a), view(b), view(inv), view(mat)
        assert not av.flags.c_contiguous and not mv.flags.c_contiguous
        assert np.array_equal(
            kulkarni_nomizu(av, bv), kulkarni_nomizu(av.copy(), bv.copy())
        )
        assert np.array_equal(
            trace_13(mv, iv), trace_13(mv.copy(), iv.copy())
        )
    # a point inverse against a field matrix broadcasts over the field
    pinv = np.linalg.inv(random_spd(n, seed=53))
    got = trace_13(mat, pinv)
    assert got.shape == (6, 4, n, n)
    for idx in ((0, 0), (5, 3)):
        assert np.array_equal(got[idx], trace_13(mat[idx], pinv))


def test_kernels_across_point_blocks():
    # more points than one block of the kernels, the last block partial
    rng = np.random.default_rng(54)
    n = 4
    lead = (2, tensor._BLOCK // 2 + 3)
    a = rng.standard_normal(lead + (n, n))
    a = a + np.swapaxes(a, -1, -2)
    b = rng.standard_normal(lead + (n, n))
    b = b + np.swapaxes(b, -1, -2)
    kn = kulkarni_nomizu(a, b)
    dense = dense_from_pair(kn, n)
    assert np.allclose(dense, dense_kn(a, b), atol=1e-13)
    inv = np.linalg.inv(np.eye(n) + 0.1 * a)
    expect = np.einsum("...ik,...ijkt->...jt", inv, dense)
    assert np.allclose(trace_13(kn, inv), expect, atol=1e-12)


def test_vv_contract_matches_dense():
    rng = np.random.default_rng(32)
    for n in (3, 4, 5, 6):
        t = random_curvature_type(n, seed=31)
        v = rng.standard_normal(n)
        got = vv_contract(pair_from_dense(t, n), v)
        expect = np.einsum("ipkq,p,q->ik", t, v, v)
        assert np.allclose(got, expect, atol=1e-12)


def test_kn_satisfies_first_bianchi():
    n = 4
    rng = np.random.default_rng(41)
    a = rng.standard_normal((n, n))
    a = a + a.T
    b = rng.standard_normal((n, n))
    b = b + b.T
    kn = kulkarni_nomizu(a, b)
    assert float(np.max(bianchi_residual(kn, n))) < 1e-13
    assert np.allclose(bianchi_project(kn, n), kn, atol=1e-13)


def test_bianchi_project_removes_violation():
    n = 4
    rng = np.random.default_rng(42)
    m = len(pair_indices(n))
    mat = rng.standard_normal((m, m))
    mat = symmetrize_exchange(mat)
    assert float(bianchi_residual(mat, n)) > 1e-3
    fixed = bianchi_project(mat, n)
    assert float(bianchi_residual(fixed, n)) < 1e-13
    # idempotent
    assert np.allclose(bianchi_project(fixed, n), fixed, atol=1e-13)


def test_validate_symmetries_clean_and_corrupted():
    n = 4
    t = random_curvature_type(n, seed=51)
    t = dense_from_pair(bianchi_project(pair_from_dense(t, n), n), n)
    rep = riemann_symmetry_report(t)
    assert rep["ok"]
    assert rep["max_violation"] < 1e-12
    bad = t.copy()
    bump = 0.5 * np.max(np.abs(t))
    bad[0, 1, 2, 3] += bump
    rep = riemann_symmetry_report(bad)
    assert not rep["ok"]
    # the reported magnitude tracks the injected violation
    assert 0.1 * bump < rep["max_violation"] <= 4 * bump


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_kn_bilinear_and_commutative(s1, s2):
    n = 4
    rng = np.random.default_rng(s1)
    a = rng.standard_normal((n, n))
    a = a + a.T
    rng = np.random.default_rng(s2)
    b = rng.standard_normal((n, n))
    b = b + b.T
    lam = 0.5 + (s1 % 7)
    assert np.allclose(
        kulkarni_nomizu(lam * a, b), lam * kulkarni_nomizu(a, b), atol=1e-11
    )
    assert np.allclose(kulkarni_nomizu(a, b), kulkarni_nomizu(b, a), atol=1e-12)
    assert np.allclose(
        kulkarni_nomizu(a + b, b), kulkarni_nomizu(a, b) + kulkarni_nomizu(b, b), atol=1e-11
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 6))
def test_norm_triangle_inequality(seed, n):
    t1 = pair_from_dense(random_curvature_type(n, seed=seed), n)
    t2 = pair_from_dense(random_curvature_type(n, seed=seed + 1), n)
    inv = np.linalg.inv(random_spd(n, seed=seed + 2))
    ns = riemann_norm(t1 + t2, inv)
    assert ns <= riemann_norm(t1, inv) + riemann_norm(t2, inv) + 1e-10
    assert riemann_norm_squared(t1, inv) >= 0.0


def test_kn_two_dimensional_component():
    # smallest case: single pair (0,1), identity inputs
    kn = kulkarni_nomizu(np.eye(2), np.eye(2))
    assert kn.shape == (1, 1)
    assert dense_from_pair(kn, 2)[0, 1, 0, 1] == pytest.approx(2.0)


def test_norm_linear_metric_scaling():
    # g -> c g multiplies the norm of a fixed (0,4) tensor by c^-2
    for n in (3, 4, 5, 6):
        t = pair_from_dense(random_curvature_type(n, seed=77), n)
        g = random_spd(n, seed=78)
        c = 2.3
        assert riemann_norm(t, np.linalg.inv(c * g)) == pytest.approx(
            riemann_norm(t, np.linalg.inv(g)) / c**2, rel=1e-12
        )
