"""Reduced bases: active subspace, derivative output basis, PCA baselines."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from reference import hashes_under_blas_threads

from derivop.bases import (
    _GRAM_BLOCK,
    ReducedBasisPair,
    active_subspace,
    derivative_informed_bases,
    derivative_output_basis,
    input_gram,
    load_bases,
    output_gram,
    pca_bases,
    pca_basis,
    save_bases,
)
from derivop.datagen import Dataset, generate_dataset
from derivop.io import LoadError, load_arrays, save_arrays
from derivop.linalg import symmetric_eig_topk
from derivop.models import ToyMap


def dataset_from_jacobians(jacs, rng):
    """Wrap explicit dense Jacobians in a Dataset via exact per-sample SVDs."""
    jacs = np.asarray(jacs, dtype=float)
    n, d_q, d_m = jacs.shape
    r = min(d_q, d_m)
    U = np.empty((n, d_q, r))
    S = np.empty((n, r))
    V = np.empty((n, d_m, r))
    for i, J in enumerate(jacs):
        u, s, vt = np.linalg.svd(J, full_matrices=False)
        U[i], S[i], V[i] = u[:, :r], s[:r], vt[:r].T
    return Dataset(m=rng.standard_normal((n, d_m)),
                   q=rng.standard_normal((n, d_q)),
                   jac_u=U, jac_sigma=S, jac_v=V, meta={})


@pytest.fixture(scope="module")
def toy_ds():
    return generate_dataset(ToyMap.default(), None, 16, rank=5, seed=1)


class TestActiveSubspace:
    def test_constant_single_row_jacobian(self):
        rng = np.random.default_rng(0)
        d_m = 6
        J = np.zeros((1, d_m))
        J[0, 0] = 1.0  # every sample's Jacobian is e1^T
        ds = dataset_from_jacobians([J] * 4, rng)
        vecs, vals = active_subspace(ds, 1)
        assert vals[0] == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(vecs[:, 0]), np.eye(d_m)[:, 0],
                                   atol=1e-12)

    def test_matches_dense_gram_oracle(self, toy_ds):
        dense = np.zeros((toy_ds.d_m, toy_ds.d_m))
        for i in range(toy_ds.n_samples):
            J = (toy_ds.jac_u[i] * toy_ds.jac_sigma[i]) @ toy_ds.jac_v[i].T
            dense += J.T @ J
        dense /= toy_ds.n_samples
        np.testing.assert_allclose(input_gram(toy_ds), dense, atol=1e-12)
        vecs, vals = active_subspace(toy_ds, 4)
        oracle = np.linalg.eigvalsh(dense)[::-1][:4]
        np.testing.assert_allclose(vals, oracle, atol=1e-10)

    def test_sigma_scaling_homogeneity(self, toy_ds):
        scaled = Dataset(m=toy_ds.m, q=toy_ds.q, jac_u=toy_ds.jac_u,
                         jac_sigma=2.0 * toy_ds.jac_sigma,
                         jac_v=toy_ds.jac_v, meta={})
        v1, l1 = active_subspace(toy_ds, 3)
        v2, l2 = active_subspace(scaled, 3)
        np.testing.assert_allclose(v2, v1, atol=1e-10)
        np.testing.assert_allclose(l2, 4.0 * l1, rtol=1e-10)

    def test_order_independence(self, toy_ds):
        perm = np.random.default_rng(2).permutation(toy_ds.n_samples)
        shuffled = toy_ds.subset(perm)
        v1, l1 = active_subspace(toy_ds, 3)
        v2, l2 = active_subspace(shuffled, 3)
        np.testing.assert_allclose(v2, v1, atol=1e-10)
        np.testing.assert_allclose(l2, l1, rtol=1e-10)

    def test_shared_subspace_recovery(self):
        # all Jacobians have the same 2-dim right singular subspace
        rng = np.random.default_rng(3)
        d_m, d_q, k = 8, 4, 2
        S, _ = np.linalg.qr(rng.standard_normal((d_m, k)))
        jacs = [rng.standard_normal((d_q, k)) @ S.T for _ in range(6)]
        ds = dataset_from_jacobians(jacs, rng)
        vecs, _ = active_subspace(ds, k)
        # principal angles: projections of vecs onto S should be complete
        sines = np.linalg.svd(vecs.T @ S, compute_uv=False)
        assert np.all(np.abs(sines - 1.0) <= 1e-8)

    def test_rank_validation(self, toy_ds):
        with pytest.raises(ValueError):
            active_subspace(toy_ds, toy_ds.d_m + 1)

    def test_iterative_eigensolve_matches_dense_oracle(self, monkeypatch):
        """d_M >= 12 rank_in, as fine-sketch's input basis: the basis comes
        from subspace iteration, with LAPACK's subset driver barred."""
        rng = np.random.default_rng(4)
        d_m, d_q, n, rank_in = 120, 4, 8, 5
        R = np.linalg.qr(rng.standard_normal((d_m, d_m)))[0]
        decay = np.geomspace(1.0, 1e-30, d_m)
        jacs = [rng.standard_normal((d_q, d_m)) * decay @ R.T
                for _ in range(n)]
        ds = dataset_from_jacobians(jacs, rng)
        dense = sum(J.T @ J for J in jacs) / n
        ref = np.linalg.eigh(dense)[1][:, ::-1][:, :rank_in]

        def refuse(*args, **kwargs):
            raise AssertionError("fell back to scipy.linalg.eigh")
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        psi, _ = active_subspace(ds, rank_in)
        np.testing.assert_allclose(psi @ psi.T, ref @ ref.T, atol=1e-10)


def column_major(stack):
    """The same (n, d, r) values with each d x r matrix column-major."""
    return stack.transpose(0, 2, 1).copy().transpose(0, 2, 1)


@pytest.mark.parametrize("n", [1, _GRAM_BLOCK - 1, _GRAM_BLOCK + 1,
                               2 * _GRAM_BLOCK + 3])
def test_grams_match_per_sample_sum_across_blocks(n):
    """Full and partial Gram blocks both equal the per-sample sum, for
    row-major factors and column-major ones (as generated), and each Gram
    is C-ordered and exactly symmetric."""
    rng = np.random.default_rng(n)
    ds = dataset_from_jacobians(rng.standard_normal((n, 7, 11)), rng)
    dense_in, dense_out = np.zeros((11, 11)), np.zeros((7, 7))
    for i in range(n):
        J = (ds.jac_u[i] * ds.jac_sigma[i]) @ ds.jac_v[i].T
        dense_in += J.T @ J
        dense_out += J @ J.T
    dense_in, dense_out = dense_in / n, dense_out / n
    flipped = replace(ds, jac_u=column_major(ds.jac_u),
                      jac_v=column_major(ds.jac_v))
    assert flipped.jac_v.strides[1] == 8 and ds.jac_v.strides[2] == 8
    for data in (ds, flipped):
        for gram, dense in ((input_gram, dense_in), (output_gram, dense_out)):
            G = gram(data)
            assert G.flags.c_contiguous
            np.testing.assert_array_equal(G, G.T)
            assert np.linalg.norm(G - dense) <= 1e-13 * np.linalg.norm(dense)


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_and_eigensolve_allocate_no_second_square(monkeypatch):
    """input_gram holds one d x d array, and the subspace path of
    symmetric_eig_topk no d x d temporary (d_M = 1089, as fine-sketch)."""
    rng = np.random.default_rng(5)
    n, d_m, d_q, r = 4, 1089, 10, 8
    V = column_major(np.linalg.qr(rng.standard_normal((n, d_m, r)))[0])
    U = np.linalg.qr(rng.standard_normal((n, d_q, r)))[0]
    sigma = rng.uniform(1.0, 2.0, (n, 1)) * np.geomspace(1.0, 1e-7, r)
    ds = Dataset(m=rng.standard_normal((n, d_m)),
                 q=rng.standard_normal((n, d_q)),
                 jac_u=U, jac_sigma=sigma, jac_v=V, meta={})
    G = input_gram(ds)
    assert traced_peak(input_gram, ds) <= 1.25 * G.nbytes

    def refuse(*args, **kwargs):
        raise AssertionError("fell back to scipy.linalg.eigh")
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    # The subspace iteration alone peaks at 0.097x; an unblocked
    # finiteness check (a d x d boolean temporary) reads 0.125x.
    assert traced_peak(symmetric_eig_topk, G, 8) <= 0.11 * G.nbytes


# Prints the SHA-256 of both Grams of the generated dataset.
GRAM_HASH_SCRIPT = """
from derivop.bases import input_gram, output_gram
for gram in (input_gram, output_gram):
    print(hashlib.sha256(gram(ds).tobytes()).hexdigest())
"""


@pytest.mark.parametrize("n, per_side, rank", [(17, 5, 25), (33, 10, 20)],
                         ids=["exact", "sketched"])
def test_grams_invariant_to_blas_threads(n, per_side, rank):
    one, two = hashes_under_blas_threads(GRAM_HASH_SCRIPT, n, per_side, rank)
    assert len(one) == 2
    assert one == two


class TestOutputBasis:
    def test_constant_rank_one_jacobian(self):
        rng = np.random.default_rng(4)
        u = np.array([0.6, 0.8, 0.0])
        v = np.zeros(5)
        v[2] = 1.0
        J = 3.0 * np.outer(u, v)
        ds = dataset_from_jacobians([J] * 3, rng)
        vecs, vals = derivative_output_basis(ds, 1)
        np.testing.assert_allclose(np.abs(vecs[:, 0]), u, atol=1e-12)
        assert vals[0] == pytest.approx(9.0)

    def test_matches_dense_gram_oracle(self, toy_ds):
        dense = np.zeros((toy_ds.d_q, toy_ds.d_q))
        for i in range(toy_ds.n_samples):
            J = (toy_ds.jac_u[i] * toy_ds.jac_sigma[i]) @ toy_ds.jac_v[i].T
            dense += J @ J.T
        dense /= toy_ds.n_samples
        np.testing.assert_allclose(output_gram(toy_ds), dense, atol=1e-12)

    def test_full_rank_gives_complete_basis(self, toy_ds):
        vecs, _ = derivative_output_basis(toy_ds, toy_ds.d_q)
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(toy_ds.d_q),
                                   atol=1e-10)


class TestPCA:
    def test_line_with_mean(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal(50)
        mu = np.array([1.0, -2.0, 3.0])
        samples = mu + np.outer(t, np.eye(3)[0])
        vecs, mean = pca_basis(samples, 1)
        np.testing.assert_allclose(mean, samples.mean(axis=0))
        np.testing.assert_allclose(np.abs(vecs[:, 0]), np.eye(3)[:, 0],
                                   atol=1e-10)

    def test_complete_basis_reconstructs(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((30, 4))
        vecs, mean = pca_basis(samples, 4)
        centered = samples - mean
        rebuilt = centered @ vecs @ vecs.T
        np.testing.assert_allclose(rebuilt, centered, atol=1e-10)

    def test_anisotropic_cloud_leading_direction(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((10_000, 2)) * np.array([3.0, 1.0])
        vecs, _ = pca_basis(samples, 1)
        angle = np.degrees(np.arccos(min(abs(vecs[0, 0]), 1.0)))
        assert angle < 5.0

    def test_rank_validation(self):
        samples = np.random.default_rng(8).standard_normal((3, 5))
        with pytest.raises(ValueError):
            pca_basis(samples, 3)  # > N - 1
        with pytest.raises(ValueError):
            pca_basis(samples[:1], 1)


class TestPairsAndPersistence:
    def test_derivative_pair_defaults(self, toy_ds):
        pair = derivative_informed_bases(toy_ds)
        assert pair.rank_in == min(2 * toy_ds.d_q, toy_ds.d_m)
        assert pair.rank_out == toy_ds.d_q
        assert pair.tag == "derivative-informed"
        np.testing.assert_allclose(pair.b, toy_ds.q.mean(axis=0))

    def test_pca_pair_tagged(self, toy_ds):
        pair = pca_bases(toy_ds, rank_in=5, rank_out=4)
        assert pair.tag == "pca"
        assert pair.rank_in == 5 and pair.rank_out == 4

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            ReducedBasisPair(psi=2 * np.eye(4)[:, :2], phi=np.eye(3),
                             b=np.zeros(3))

    @pytest.mark.parametrize("name", ["psi", "phi"])
    def test_non_finite_basis_rejected(self, name):
        bases = {"psi": np.eye(4)[:, :2], "phi": np.eye(3)}
        bases[name][0, 1] = np.nan
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            ReducedBasisPair(**bases, b=np.zeros(3))

    @pytest.mark.parametrize("name,bad", [("Psi", np.nan), ("Phi", np.inf),
                                          ("b", -np.inf)])
    def test_non_finite_values_rejected(self, tmp_path, toy_ds, name, bad):
        # the values pass the checksum, since it is taken over what was saved
        save_bases(derivative_informed_bases(toy_ds, rank_in=6, rank_out=5),
                   tmp_path / "b")
        arrays, manifest = load_arrays(tmp_path / "b")
        arrays[name].flat[1] = bad
        del manifest["arrays"]
        save_arrays(tmp_path / "b", arrays, meta=manifest)
        with pytest.raises(LoadError, match=f"array '{name}' is not finite"):
            load_bases(tmp_path / "b")

    def test_round_trip(self, tmp_path, toy_ds):
        pair = derivative_informed_bases(toy_ds, rank_in=6, rank_out=5)
        save_bases(pair, tmp_path / "b")
        back = load_bases(tmp_path / "b")
        np.testing.assert_array_equal(back.psi, pair.psi)
        np.testing.assert_array_equal(back.phi, pair.phi)
        np.testing.assert_array_equal(back.b, pair.b)
        assert back.tag == pair.tag

    def test_missing_array_rejected(self, tmp_path, toy_ds):
        save_bases(derivative_informed_bases(toy_ds, rank_in=6, rank_out=5),
                   tmp_path / "b")
        arrays, manifest = load_arrays(tmp_path / "b")
        del arrays["Psi"], manifest["arrays"]
        save_arrays(tmp_path / "b", arrays, meta=manifest)
        with pytest.raises(LoadError, match="Psi"):
            load_bases(tmp_path / "b")

    def test_sign_convention(self, toy_ds):
        pair = derivative_informed_bases(toy_ds, rank_in=4, rank_out=3)
        for Q in (pair.psi, pair.phi):
            peaks = np.abs(Q).argmax(axis=0)
            assert np.all(Q[peaks, np.arange(Q.shape[1])] > 0)
