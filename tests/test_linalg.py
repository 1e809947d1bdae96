"""Kernels: randomized SVD and top-k eigenpairs."""

import numpy as np
import pytest

from derivop.linalg import (
    CountingOperator,
    LinearOperator,
    check_orthonormal,
    dense_operator,
    fix_signs,
    randomized_svd,
    symmetric_eig_topk,
)


def random_orthonormal(n, k, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


def random_low_rank(nrows, ncols, rank, rng, scale=None):
    """Exact-rank matrix with controlled singular values."""
    U = random_orthonormal(nrows, rank, rng)
    V = random_orthonormal(ncols, rank, rng)
    s = scale if scale is not None else np.sort(rng.uniform(1, 5, rank))[::-1]
    return (U * s) @ V.T


def assert_valid_factors(jac):
    """U and V orthonormal, sigma non-negative and descending."""
    check_orthonormal(jac.U, "U")
    check_orthonormal(jac.V, "V")
    assert np.all(jac.sigma >= 0) and np.all(np.diff(jac.sigma) <= 0)


class TestLinearOperator:
    def test_dense_wrapper_adjoint_consistency(self):
        rng = np.random.default_rng(0)
        op = dense_operator(rng.standard_normal((6, 9)))
        for _ in range(20):
            v = rng.standard_normal(9)
            w = rng.standard_normal(6)
            lhs = w @ op.apply(v)
            rhs = v @ op.apply_transpose(w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_as_dense_round_trip(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 7))
        op = dense_operator(A)
        np.testing.assert_allclose(op.apply(np.eye(op.ncols)), A)

    def test_counting_operator_counts_columns(self):
        op = CountingOperator(dense_operator(np.ones((3, 5))))
        op.apply(np.ones(5))
        op.apply(np.ones((5, 4)))
        op.apply_transpose(np.ones((3, 2)))
        assert (op.n_apply, op.n_apply_transpose) == (5, 2)


class TestRandomizedSVD:
    def test_diagonal_matrix(self):
        jac = randomized_svd(dense_operator(np.diag([3.0, 2.0, 0.0, 0.0])),
                             rank=2, oversample=2, seed=0)
        np.testing.assert_allclose(jac.sigma, [3.0, 2.0], atol=1e-12)
        # signed coordinate axes, sign-fixed to positive
        np.testing.assert_allclose(np.abs(jac.U[:2, :2]), np.eye(2),
                                   atol=1e-12)
        np.testing.assert_allclose(jac.U, jac.V, atol=1e-12)

    def test_exact_low_rank_recovery(self):
        rng = np.random.default_rng(7)
        A = random_low_rank(200, 300, 5, rng)
        jac = randomized_svd(dense_operator(A), rank=5, oversample=10,
                             power_iters=1, seed=11)
        err = np.linalg.norm(jac.as_dense() - A) / np.linalg.norm(A)
        assert err <= 1e-9

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (7, 7)])
    def test_covering_sketch_is_exact(self, shape):
        rng = np.random.default_rng(14)
        A = rng.standard_normal(shape)
        op = CountingOperator(dense_operator(A))
        jac = randomized_svd(op, rank=4, oversample=min(shape) - 4, seed=1)
        assert op.n_apply + op.n_apply_transpose == min(shape)
        np.testing.assert_allclose(jac.sigma,
                                   np.linalg.svd(A, compute_uv=False)[:4],
                                   rtol=1e-13)
        assert_valid_factors(jac)

    def test_zero_operator(self):
        jac = randomized_svd(dense_operator(np.zeros((10, 10))), rank=3,
                             oversample=3, seed=0)
        np.testing.assert_array_equal(jac.sigma, np.zeros(3))

    def test_factor_invariants(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((12, 20))
        jac = randomized_svd(dense_operator(A), rank=6, oversample=4, seed=5)
        assert_valid_factors(jac)

    def test_rank_oversample_validation(self):
        op = dense_operator(np.eye(4))
        with pytest.raises(ValueError):
            randomized_svd(op, rank=3, oversample=5)
        with pytest.raises(ValueError):
            randomized_svd(op, rank=0)

    def test_power_iteration_improves_recovery(self):
        rng = np.random.default_rng(9)
        # rapidly decaying spectrum so the sketch quality matters
        A = random_low_rank(60, 80, 20, rng, scale=2.0 ** -np.arange(20.0))
        errs = {}
        for p in (0, 2):
            jac = randomized_svd(dense_operator(A), rank=8, oversample=2,
                                 power_iters=p, seed=13)
            errs[p] = np.linalg.norm(jac.as_dense() - A)
        assert errs[2] <= errs[0]

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        op = dense_operator(rng.standard_normal((15, 18)))
        a = randomized_svd(op, rank=4, oversample=3, seed=21)
        b = randomized_svd(op, rank=4, oversample=3, seed=21)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.V, b.V)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        op = dense_operator(rng.standard_normal((10, 13)))
        jac = randomized_svd(op, rank=3, oversample=3, seed=1)
        peaks = np.abs(jac.U).argmax(axis=0)
        assert np.all(jac.U[peaks, np.arange(3)] > 0)


def test_check_orthonormal():
    rng = np.random.default_rng(6)
    Q = random_orthonormal(7, 3, rng)
    check_orthonormal(Q, "Q")
    with pytest.raises(ValueError, match="Q not orthonormal"):
        check_orthonormal(Q * (1.0 + 1e-9), "Q")
    # more columns than rows can never be orthonormal
    with pytest.raises(ValueError, match="W not orthonormal"):
        check_orthonormal(np.eye(2, 3), "W")
    # a stack (n, d, r) passes only if every matrix in it does
    stack = np.stack([random_orthonormal(9, 4, rng) for _ in range(5)])
    check_orthonormal(stack, "S")
    for scale in (2.0, 1.0 + 1e-9):
        bad = stack.copy()
        bad[3] *= scale
        with pytest.raises(ValueError, match="S not orthonormal"):
            check_orthonormal(bad, "S")


class TestSymmetricEig:
    def test_diagonal_matrix(self):
        vals, vecs = symmetric_eig_topk(np.diag([1.0, 5.0, 3.0]), k=2)
        np.testing.assert_allclose(vals, [5.0, 3.0])
        np.testing.assert_allclose(np.abs(vecs),
                                   np.eye(3)[:, [1, 2]], atol=1e-12)
        assert np.all(vecs[np.abs(vecs).argmax(axis=0), [0, 1]] > 0)

    def test_rank_one(self):
        v = np.array([0.6, -0.8])
        vals, vecs = symmetric_eig_topk(np.outer(v, v), k=1)
        assert vals[0] == pytest.approx(1.0)
        # sign-fixed: largest-magnitude entry positive, so -v is returned
        np.testing.assert_allclose(vecs[:, 0], -v, atol=1e-12)

    def test_spd_reconstruction(self):
        rng = np.random.default_rng(10)
        B = rng.standard_normal((8, 8))
        S = B @ B.T
        vals, vecs = symmetric_eig_topk(S, k=8)
        rebuilt = (vecs * vals) @ vecs.T
        assert np.linalg.norm(S - rebuilt) <= 1e-8 * np.linalg.norm(S)
        assert np.all(np.diff(vals) <= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eig_topk(np.array([[0.0, 1.0], [0.0, 0.0]]), k=1)
        with pytest.raises(ValueError):
            symmetric_eig_topk(np.eye(3), k=4)


def test_fix_signs_joint_flip_preserves_product():
    rng = np.random.default_rng(11)
    U = rng.standard_normal((5, 3))
    V = rng.standard_normal((7, 3))
    s = rng.uniform(1, 2, 3)
    U2, V2 = fix_signs(U, V)
    np.testing.assert_allclose((U2 * s) @ V2.T, (U * s) @ V.T, atol=1e-12)
