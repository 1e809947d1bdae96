"""Kernels: randomized SVD and top-k eigenpairs."""

import numpy as np
import pytest
import scipy.linalg
from reference import random_orthonormal

from derivop import linalg
from derivop.linalg import (
    CountingOperator,
    LinearOperator,
    check_orthonormal,
    dense_operator,
    fix_signs,
    randomized_svd,
    symmetric_eig_topk,
)


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

    def test_dense_operator_round_trip(self):
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
        err = np.linalg.norm((jac.U * jac.sigma) @ jac.V.T - A) \
            / np.linalg.norm(A)
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

    def test_graded_spectrum_one_qr_per_step(self):
        # sigma_i = 10^(-i/2): the 30 probes span 15 decades.
        rng = np.random.default_rng(8)
        sigma = 10.0 ** (-np.arange(200) / 2)
        A = (random_orthonormal(200, 200, rng) * sigma) \
            @ random_orthonormal(300, 200, rng).T
        dense, bases = dense_operator(A), []

        def apply_transpose(Q):
            bases.append(Q)
            return dense.apply_transpose(Q)

        op = LinearOperator(200, 300, dense.apply, apply_transpose)
        jac = randomized_svd(op, rank=20, oversample=10, power_iters=1,
                             seed=3)
        assert_valid_factors(jac)
        assert len(bases) == 2  # the power step's and the final range basis
        for Q in bases:  # all 30 columns, not just the top 20 kept
            assert np.linalg.norm(Q.T @ Q - np.eye(30)) <= 1e-13
        s = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(jac.sigma, s[:20], rtol=0,
                                   atol=1e-14 * s[0])

    @pytest.mark.parametrize("shape", [(8, 30), (30, 8)])
    def test_exact_branches_rebuild(self, shape):
        A = np.random.default_rng(6).standard_normal(shape)
        jac = randomized_svd(dense_operator(A), rank=8, oversample=0)
        assert_valid_factors(jac)
        err = np.linalg.norm((jac.U * jac.sigma) @ jac.V.T - A)
        assert err <= 1e-14 * np.linalg.norm(A)

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
            errs[p] = np.linalg.norm((jac.U * jac.sigma) @ jac.V.T - A)
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


class TestDirectLapack:
    """_orthonormalize and _svd_of_transpose call dgeqrf, dorgqr and dgesdd
    directly; scipy's QR and numpy's SVD are the oracle."""

    SHAPES = [(289, 25), (1089, 30), (100, 30)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_match_scipy_qr_and_numpy_svd(self, shape):
        Y = np.random.default_rng(shape[0]).standard_normal(shape)
        Q, R = scipy.linalg.qr(Y, mode="economic")
        np.testing.assert_allclose(linalg._orthonormalize(Y), Q, rtol=0,
                                   atol=1e-13)
        Ur, sr, Wt = np.linalg.svd(R.T)
        Vr = (Wt @ Q.T).T
        U, s, V = linalg._svd_of_transpose(Y)
        np.testing.assert_allclose(U, Ur, rtol=0, atol=1e-13)
        np.testing.assert_allclose(s, sr, rtol=1e-13, atol=0)
        np.testing.assert_allclose(V, Vr, rtol=0, atol=1e-13)
        assert V.strides == Vr.strides == (8, 8 * shape[0])
        assert U.strides == Ur.strides == (8 * shape[1], 8)

    @pytest.mark.parametrize("name", ["dgeqrf", "dorgqr", "dgesdd"])
    def test_nonzero_info_raises(self, name, monkeypatch):
        wrapper = getattr(linalg.lapack, name)

        def fails(*args, **kwargs):
            return (*wrapper(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(linalg.lapack, name, fails)
        Y = np.random.default_rng(1).standard_normal(self.SHAPES[-1])
        kernels = [linalg._svd_of_transpose]
        if name != "dgesdd":
            kernels.append(linalg._orthonormalize)
        for kernel in kernels:
            with pytest.raises(np.linalg.LinAlgError, match=f"{name} .* 1"):
                kernel(Y)


def test_check_orthonormal():
    rng = np.random.default_rng(6)
    Q = random_orthonormal(7, 3, rng)
    check_orthonormal(Q, "Q")
    with pytest.raises(ValueError, match="Q not orthonormal"):
        check_orthonormal(Q * (1.0 + 1e-9), "Q")
    # checked before the product, which would warn on NaN or Inf
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="Q has non-finite entries"):
            check_orthonormal(np.where(np.arange(3) == 1, bad, Q), "Q")
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


def psd_with_spectrum(lam, rng):
    Q = random_orthonormal(len(lam), len(lam), rng)
    return (Q * lam) @ Q.T


def dsyevr_topk(S, k):
    """The LAPACK subset path of ``symmetric_eig_topk``, called directly."""
    vals, vecs = scipy.linalg.eigh(S, subset_by_index=[len(S) - k,
                                                       len(S) - 1])
    return vals[::-1].copy(), fix_signs(vecs[:, ::-1])


def assert_top_eigenpairs(S, vals, vecs):
    """Values and spanned subspace equal to those of np.linalg.eigh."""
    k = len(vals)
    ref_vals, ref_vecs = np.linalg.eigh(S)
    ref_vals, ref_vecs = ref_vals[::-1][:k], ref_vecs[:, ::-1][:, :k]
    np.testing.assert_allclose(vals, ref_vals, rtol=1e-12)
    np.testing.assert_allclose(vecs @ vecs.T, ref_vecs @ ref_vecs.T,
                               atol=1e-10)
    assert np.all(vecs[np.abs(vecs).argmax(axis=0), np.arange(k)] > 0)


@pytest.fixture
def no_dsyevr(monkeypatch):
    """Fail any call that reaches LAPACK's subset driver."""
    def refuse(*args, **kwargs):
        raise AssertionError("fell back to scipy.linalg.eigh")
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)


class TestSymmetricEig:
    # Sizes with 12 k <= d, where subspace iteration runs before dsyevr.
    D, K = 240, 20

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # checked before the asymmetry test, whose S - S^T would warn on Inf
        S = np.eye(4)
        S[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_eig_topk(S, k=2)

    def test_rejects_non_finite_in_last_row_block(self):
        # the check runs over row blocks; row 140 of 150 is in the last one
        S = np.eye(150)
        S[140, 140] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_eig_topk(S, k=2)

    @pytest.mark.parametrize("k", [1, 12, 25])
    def test_matches_full_eigh(self, k):
        """k = 25 = n is a complete basis, as dino-pipeline's output basis."""
        n = 25
        # top four eigenvalues in a cluster 1e-4 apart, then a gap
        lam = np.concatenate([1.0 - 1e-4 * np.arange(4),
                              np.geomspace(0.5, 1e-2, n - 4)])
        S = psd_with_spectrum(lam, np.random.default_rng(12))
        vals, vecs = symmetric_eig_topk(S, k)
        assert np.all(np.diff(vals) <= 0)
        assert_top_eigenpairs(S, vals, vecs)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eig_topk(np.array([[0.0, 1.0], [0.0, 0.0]]), k=1)
        with pytest.raises(ValueError):
            symmetric_eig_topk(np.eye(3), k=4)

    def fast_decay(self):
        # top k in [0.05, 1] with a cluster of four 1e-9 apart, then a gap
        top = np.concatenate([np.geomspace(1.0, 0.05, self.K - 4),
                              0.3 * (1.0 - 1e-9 * np.arange(4))])
        lam = np.concatenate([np.sort(top)[::-1],
                              np.geomspace(1e-6, 1e-12, self.D - self.K)])
        return psd_with_spectrum(lam, np.random.default_rng(20))

    def test_fast_decay_with_cluster(self, no_dsyevr):
        S = self.fast_decay()
        assert_top_eigenpairs(S, *symmetric_eig_topk(S, self.K))

    def test_rank_below_k(self, no_dsyevr):
        rng = np.random.default_rng(21)
        rank = 5
        B = rng.standard_normal((self.D, rank))
        S = B @ B.T
        vals, vecs = symmetric_eig_topk(S, self.K)
        assert_top_eigenpairs(S, vals[:rank], vecs[:, :rank])
        # the rest span part of the null space, with Ritz values at round-off
        assert np.all(np.abs(vals[rank:]) <= 1e-12 * vals[0])
        check_orthonormal(vecs, "vecs")
        assert np.linalg.norm(S @ vecs[:, rank:]) <= 1e-12 * vals[0]

    def test_slow_decay_reaches_cap(self, monkeypatch):
        S = psd_with_spectrum(1.0 / (1.0 + np.arange(self.D)),
                              np.random.default_rng(22))
        steps = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr",
                            lambda Y: steps.append(1) or qr(Y))
        vals, vecs = symmetric_eig_topk(S, self.K)
        assert len(steps) == linalg._SUBSPACE_ITERS
        ref_vals, ref_vecs = dsyevr_topk(S, self.K)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(vecs, ref_vecs)

    def test_indefinite_falls_back(self):
        # 40 eigenvalues at -100 outweigh the top k's tail: the iteration
        # alone would converge to Ritz values at -100.
        k = 10
        lam = np.concatenate([[500.0, 400.0, 300.0, 200.0, 150.0],
                              np.full(40, -100.0),
                              np.geomspace(10.0, 1e-2, self.D - 45)])
        S = psd_with_spectrum(lam, np.random.default_rng(23))
        assert_top_eigenpairs(S, *symmetric_eig_topk(S, k))

    def test_bitwise_repeatable(self, no_dsyevr):
        S = self.fast_decay()
        (v1, x1), (v2, x2) = (symmetric_eig_topk(S, self.K) for _ in range(2))
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(x1, x2)


def test_fix_signs_joint_flip_preserves_product():
    rng = np.random.default_rng(11)
    U = rng.standard_normal((5, 3))
    V = rng.standard_normal((7, 3))
    s = rng.uniform(1, 2, 3)
    U2, V2 = fix_signs(U, V)
    np.testing.assert_allclose((U2 * s) @ V2.T, (U * s) @ V.T, atol=1e-12)
