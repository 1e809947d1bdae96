"""Dataset generation, persistence round-trips, and reduced projection."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from derivop import datagen
from derivop.datagen import (
    Dataset,
    GenerationError,
    generate_dataset,
    load_dataset,
    reduce_dataset,
    sample_seed,
    save_dataset,
)
from derivop.io import LoadError, load_arrays, save_arrays
from derivop.linalg import check_orthonormal
from derivop.models import (
    Grid,
    NewtonConvergenceError,
    PriorConfig,
    RDModel,
    ToyMap,
    jacobian_operator,
    sample_prior,
    solve_state,
    toy_map,
)


@pytest.fixture(scope="module")
def toy_ds():
    return generate_dataset(ToyMap.default(), None, 12, rank=5, seed=3)


@pytest.fixture(scope="module")
def rd_ds():
    grid = Grid(9)
    model = RDModel(grid=grid)
    prior = PriorConfig(delta=1.0, gamma=0.1, grid=grid)
    return generate_dataset(model, prior, 8, rank=10, seed=17)


class TestSampleSeed:
    def test_order_independent_and_distinct(self):
        seeds = [sample_seed(99, i) for i in range(1000)]
        assert len(set(seeds)) == 1000
        assert sample_seed(99, 7) == seeds[7]

    def test_run_seed_changes_everything(self):
        a = {sample_seed(1, i) for i in range(100)}
        b = {sample_seed(2, i) for i in range(100)}
        assert not a & b


class TestGenerate:
    def test_toy_svd_reconstructs_analytic_jacobian(self):
        tm = ToyMap.default()
        # inner width 5 bounds the Jacobian rank, so rank 5 is exact
        ds = generate_dataset(tm, None, 1, rank=5, seed=0)
        _, jac_true = toy_map(tm, ds.m[0])
        rebuilt = (ds.jac_u[0] * ds.jac_sigma[0]) @ ds.jac_v[0].T
        err = np.linalg.norm(rebuilt - jac_true) / np.linalg.norm(jac_true)
        assert err <= 1e-9

    def test_rd_shapes(self, rd_ds):
        assert rd_ds.m.shape == (8, 81)
        assert rd_ds.q.shape == (8, 25)
        assert rd_ds.jac_u.shape == (8, 25, 10)
        assert rd_ds.jac_sigma.shape == (8, 10)
        assert rd_ds.jac_v.shape == (8, 81, 10)

    def test_sigma_descending_nonnegative(self, rd_ds, toy_ds):
        for ds in (rd_ds, toy_ds):
            assert np.all(ds.jac_sigma >= 0)
            assert np.all(np.diff(ds.jac_sigma, axis=1) <= 0)

    def test_per_sample_factors_valid(self, rd_ds):
        check_orthonormal(rd_ds.jac_u, "jac_u")
        check_orthonormal(rd_ds.jac_v, "jac_v")

    @staticmethod
    def _assert_bitwise_equal(a, b):
        for name in ("m", "q", "jac_u", "jac_sigma", "jac_v"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_deterministic_across_thread_counts(self):
        tm = ToyMap.default()
        one = generate_dataset(tm, None, 10, rank=4, seed=5, threads=1)
        four = generate_dataset(tm, None, 10, rank=4, seed=5, threads=4)
        self._assert_bitwise_equal(one, four)

    @pytest.mark.parametrize("rank", [10, 25], ids=["sketched", "exact"])
    def test_rd_deterministic_across_thread_counts(self, rank):
        grid = Grid(9)
        model = RDModel(grid=grid)
        prior = PriorConfig(delta=1.0, gamma=0.1, grid=grid)
        one = generate_dataset(model, prior, 6, rank=rank, seed=5, threads=1)
        two = generate_dataset(model, prior, 6, rank=rank, seed=5, threads=2)
        self._assert_bitwise_equal(one, two)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_newton_failure_names_its_sample(self, monkeypatch, threads):
        grid = Grid(9)
        model = RDModel(grid=grid)
        prior = PriorConfig(delta=1.0, gamma=0.1, grid=grid)
        bad = 3  # the parameter this sample draws makes Newton fail
        m_bad = sample_prior(prior, np.random.default_rng(sample_seed(5, bad)))

        def failing_solve(model, m):
            if np.array_equal(m, m_bad):
                raise NewtonConvergenceError("forced failure", [1.0])
            return solve_state(model, m)

        monkeypatch.setattr(datagen, "solve_state", failing_solve)
        with pytest.raises(GenerationError) as info:
            generate_dataset(model, prior, 6, rank=4, seed=5, threads=threads)
        assert info.value.index == bad
        assert isinstance(info.value.__cause__, NewtonConvergenceError)

    def test_offline_solve_count_formula(self, rd_ds):
        # rank + oversample probes, each touched twice per power round
        # plus once for the sketch and once forming the small factor.
        r, over, p = 10, 10, 1
        expected = (r + over) * (2 * p + 2)
        counts = rd_ds.meta["linearized_solves_per_sample"]
        assert counts == [expected] * rd_ds.n_samples

    def test_full_rank_is_exact_from_adjoint_solves(self):
        grid = Grid(9)
        model = RDModel(grid=grid)
        prior = PriorConfig(delta=1.0, gamma=0.1, grid=grid)
        ds = generate_dataset(model, prior, 3, seed=4)  # rank defaults to d_Q
        assert ds.meta["linearized_solves_per_sample"] == [model.d_q] * 3
        for i in range(ds.n_samples):
            op = jacobian_operator(model, ds.m[i], solve_state(model, ds.m[i]))
            J = op.apply(np.eye(op.ncols))
            s = np.linalg.svd(J, compute_uv=False)
            np.testing.assert_allclose(ds.jac_sigma[i], s, rtol=0,
                                       atol=1e-12 * s[0])
            rebuilt = ds.jacobian(i).as_dense()
            assert np.linalg.norm(rebuilt - J) <= 1e-12 * np.linalg.norm(J)

    def test_rank_validation(self):
        tm = ToyMap.default()
        with pytest.raises(ValueError):
            generate_dataset(tm, None, 2, rank=9)  # > d_q = 8
        with pytest.raises(ValueError):
            generate_dataset(tm, None, 0, rank=4)

    def test_inconsistent_shapes_rejected(self, toy_ds):
        with pytest.raises(ValueError):
            Dataset(m=toy_ds.m, q=toy_ds.q[:-1], jac_u=toy_ds.jac_u,
                    jac_sigma=toy_ds.jac_sigma, jac_v=toy_ds.jac_v, meta={})

    def test_jacobian_fields_optional(self, toy_ds):
        values = Dataset(m=toy_ds.m, q=toy_ds.q)
        assert values.n_samples == values.size == toy_ds.n_samples
        # jac_r is latent whatever m is, so only its sample count is checked
        Dataset(m=toy_ds.m, q=toy_ds.q, jac_r=np.zeros((12, 2, 3)))
        with pytest.raises(ValueError):
            Dataset(m=toy_ds.m, q=toy_ds.q, jac_r=np.zeros((11, 2, 3)))
        with pytest.raises(ValueError):
            Dataset(m=toy_ds.m, q=toy_ds.q, jac_u=toy_ds.jac_u)


class TestPersistence:
    def test_round_trip(self, tmp_path, rd_ds):
        save_dataset(rd_ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        np.testing.assert_array_equal(back.m, rd_ds.m)
        np.testing.assert_array_equal(back.q, rd_ds.q)
        np.testing.assert_array_equal(back.jac_u, rd_ds.jac_u)
        np.testing.assert_array_equal(back.jac_sigma, rd_ds.jac_sigma)
        np.testing.assert_array_equal(back.jac_v, rd_ds.jac_v)
        assert back.meta["rank"] == 10

    def test_same_seed_byte_identical_files(self, tmp_path):
        tm = ToyMap.default()
        for name in ("one", "two"):
            ds = generate_dataset(tm, None, 6, rank=4, seed=9)
            save_dataset(ds, tmp_path / name)
        for f in sorted((tmp_path / "one").iterdir()):
            assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes()

    def test_corrupted_sigma_rejected(self, tmp_path, toy_ds):
        save_dataset(toy_ds, tmp_path / "d")
        target = tmp_path / "d" / "jac_sigma.bin"
        raw = bytearray(target.read_bytes())
        raw[0] ^= 0x01
        target.write_bytes(bytes(raw))
        with pytest.raises(LoadError):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("name, bad", [("q", np.nan), ("jac_V", np.inf),
                                           ("jac_sigma", -np.inf)])
    def test_non_finite_values_rejected(self, tmp_path, toy_ds, name, bad):
        # the values pass the checksum, since it is taken over what was saved
        save_dataset(toy_ds, tmp_path / "d")
        arrays, manifest = load_arrays(tmp_path / "d")
        arrays[name].flat[3] = bad
        meta = {k: v for k, v in manifest.items()
                if k not in ("arrays", "format_version")}
        save_arrays(tmp_path / "d", arrays, meta=meta)
        with pytest.raises(LoadError, match=f"'{name}'"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("name, corrupt", [
        ("jac_U", lambda a: 2.0 * a),
        ("jac_V", lambda a: 2.0 * a),
        ("jac_sigma", lambda a: a[:, ::-1]),
        ("jac_sigma", lambda a: a - a[:, -1:] - 1.0),  # last sigma -1
    ], ids=["2U", "2V", "reversed_sigma", "negative_sigma"])
    def test_invalid_factors_rejected(self, tmp_path, toy_ds, name, corrupt):
        # the h1 and gn expansions assume orthonormal U_i, V_i and an
        # ordered non-negative sigma_i, so a load checks every sample
        save_dataset(toy_ds, tmp_path / "d")
        arrays, manifest = load_arrays(tmp_path / "d")
        arrays[name] = np.ascontiguousarray(corrupt(arrays[name]))
        meta = {k: v for k, v in manifest.items()
                if k not in ("arrays", "format_version")}
        save_arrays(tmp_path / "d", arrays, meta=meta)
        with pytest.raises(LoadError, match=f"'{name}'"):
            load_dataset(tmp_path / "d")

    def test_excess_rank_rejected(self, tmp_path, toy_ds):
        save_dataset(toy_ds, tmp_path / "d")
        path = Path(tmp_path / "d" / "manifest.json")
        manifest = json.loads(path.read_text())
        manifest["rank"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(LoadError):
            load_dataset(tmp_path / "d")

    def test_empty_set_rejected(self, tmp_path, toy_ds):
        save_dataset(toy_ds.subset([]), tmp_path / "d")
        with pytest.raises(LoadError, match="0 samples"):
            load_dataset(tmp_path / "d")

    def test_rank_zero_rejected(self, tmp_path, toy_ds):
        # a set without Jacobian columns gives NaN Jacobian metrics
        empty = replace(toy_ds, jac_u=toy_ds.jac_u[:, :, :0],
                        jac_sigma=toy_ds.jac_sigma[:, :0],
                        jac_v=toy_ds.jac_v[:, :, :0],
                        meta=dict(toy_ds.meta, rank=0))
        save_dataset(empty, tmp_path / "d")
        with pytest.raises(LoadError, match="of rank 0"):
            load_dataset(tmp_path / "d")

    def test_missing_array_rejected(self, tmp_path, toy_ds):
        save_dataset(toy_ds, tmp_path / "d")
        arrays, manifest = load_arrays(tmp_path / "d")
        del arrays["jac_V"], manifest["arrays"]
        save_arrays(tmp_path / "d", arrays, meta=manifest)
        with pytest.raises(LoadError, match="jac_V"):
            load_dataset(tmp_path / "d")

    def test_latent_set_not_saved(self, tmp_path, toy_ds):
        pair = TestReduce._pair(np.eye(toy_ds.d_m)[:, :4], np.eye(toy_ds.d_q),
                                np.zeros(toy_ds.d_q), None, None)
        with pytest.raises(ValueError):
            save_dataset(reduce_dataset(toy_ds, pair), tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_set_without_factors_not_saved(self, tmp_path, toy_ds):
        with pytest.raises(ValueError):
            save_dataset(replace(toy_ds, jac_v=None), tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_wrong_object_kind_rejected(self, tmp_path, toy_ds):
        save_dataset(toy_ds, tmp_path / "d")
        path = Path(tmp_path / "d" / "manifest.json")
        manifest = json.loads(path.read_text())
        manifest["object"] = "bases"
        path.write_text(json.dumps(manifest))
        with pytest.raises(LoadError):
            load_dataset(tmp_path / "d")


class TestReduce:
    @staticmethod
    def _pair(psi, phi, b, d_m, d_q):
        from derivop.bases import ReducedBasisPair
        return ReducedBasisPair(psi=psi, phi=phi, b=b, tag="test")

    def test_identity_bases_slice_coordinates(self, toy_ds):
        d_m, d_q = toy_ds.d_m, toy_ds.d_q
        psi = np.eye(d_m)[:, :4]
        phi = np.eye(d_q)
        red = reduce_dataset(toy_ds, self._pair(psi, phi, np.zeros(d_q),
                                                d_m, d_q))
        np.testing.assert_allclose(red.m, toy_ds.m[:, :4])
        np.testing.assert_allclose(red.q, toy_ds.q)
        dense0 = (toy_ds.jac_u[0] * toy_ds.jac_sigma[0]) @ toy_ds.jac_v[0].T
        np.testing.assert_allclose(red.jac_r[0], dense0[:, :4], atol=1e-12)

    def test_random_bases_match_dense_oracle(self, rd_ds):
        rng = np.random.default_rng(20)
        psi, _ = np.linalg.qr(rng.standard_normal((rd_ds.d_m, 6)))
        phi, _ = np.linalg.qr(rng.standard_normal((rd_ds.d_q, 4)))
        b = rng.standard_normal(rd_ds.d_q)
        red = reduce_dataset(rd_ds, self._pair(psi, phi, b,
                                               rd_ds.d_m, rd_ds.d_q))
        for i in range(rd_ds.n_samples):
            dense = (rd_ds.jac_u[i] * rd_ds.jac_sigma[i]) @ rd_ds.jac_v[i].T
            np.testing.assert_allclose(red.jac_r[i], phi.T @ dense @ psi,
                                       atol=1e-10)

    def test_mean_shift_centers_outputs(self, toy_ds):
        d_q = toy_ds.d_q
        phi = np.eye(d_q)
        psi = np.eye(toy_ds.d_m)[:, :3]
        b = toy_ds.q.mean(axis=0)
        red = reduce_dataset(toy_ds, self._pair(psi, phi, b,
                                                toy_ds.d_m, d_q))
        np.testing.assert_allclose(red.q.mean(axis=0), 0.0, atol=1e-12)

    def test_dimension_mismatch_rejected(self, toy_ds):
        psi = np.eye(7)[:, :2]
        phi = np.eye(toy_ds.d_q)
        with pytest.raises(ValueError):
            reduce_dataset(toy_ds, self._pair(psi, phi,
                                              np.zeros(toy_ds.d_q), 7,
                                              toy_ds.d_q))

    def test_latent_set_rejected(self, toy_ds):
        # square bases pass the dimension check on a latent set, whose q
        # would then have b subtracted twice
        d_m, d_q = toy_ds.d_m, toy_ds.d_q
        pair = self._pair(np.eye(d_m), np.eye(d_q), np.ones(d_q), d_m, d_q)
        latent = reduce_dataset(toy_ds, pair)
        with pytest.raises(ValueError, match="latent"):
            reduce_dataset(latent, pair)

    def test_subset_preserves_samples(self, toy_ds):
        sub = toy_ds.subset([2, 0, 5])
        np.testing.assert_array_equal(sub.m[0], toy_ds.m[2])
        np.testing.assert_array_equal(sub.q[2], toy_ds.q[5])
        assert sub.n_samples == 3
        assert sub.meta["n_samples"] == 3 and toy_ds.meta["n_samples"] == 12

    def test_subset_slices_solve_counts(self, toy_ds):
        ds = replace(toy_ds, meta=dict(
            toy_ds.meta, linearized_solves_per_sample=list(range(12))))
        sub = ds.subset(np.array([5, 1]))
        assert sub.meta["linearized_solves_per_sample"] == [5, 1]
        assert len(ds.meta["linearized_solves_per_sample"]) == 12

    def test_set_without_factors_keeps_jac_r(self, toy_ds):
        pair = self._pair(np.eye(toy_ds.d_m)[:, :4], np.eye(toy_ds.d_q),
                          np.zeros(toy_ds.d_q), None, None)
        jac_r = np.ones((toy_ds.n_samples, toy_ds.d_q, 4))
        red = reduce_dataset(Dataset(m=toy_ds.m, q=toy_ds.q, jac_r=jac_r),
                             pair)
        assert red.latent and red.jac_u is None and red.jac_sigma is None
        assert red.jac_r is jac_r
        np.testing.assert_array_equal(red.m, toy_ds.m[:, :4])

    def test_subset_of_latent_set_stays_latent(self, toy_ds):
        pair = self._pair(np.eye(toy_ds.d_m)[:, :4], np.eye(toy_ds.d_q),
                          np.zeros(toy_ds.d_q), None, None)
        latent = replace(reduce_dataset(toy_ds, pair), jac_u=None,
                         jac_sigma=None, jac_v=None)
        sub = latent.subset(np.array([3, 1]))
        assert sub.latent and sub.jac_u is None
        np.testing.assert_array_equal(sub.jac_r, latent.jac_r[[3, 1]])
