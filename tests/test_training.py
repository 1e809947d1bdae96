"""Optimizer, matrix-subsampling estimator, and the training loop."""

import itertools

import numpy as np
import pytest

from derivop import training
from derivop.bases import derivative_informed_bases
from derivop.datagen import Dataset, generate_dataset, reduce_dataset
from derivop.linalg import TruncatedJacobian
from derivop.models import ToyMap
from derivop.netop import (
    MLPSpec,
    NetworkWeights,
    OperatorModel,
    forward,
    loss_and_grad,
)
from derivop.training import (
    AdamState,
    LossConfig,
    TrainingError,
    adam_step,
    ms_penalty,
    subsample_indices,
    train,
)


def random_orthonormal(n, k, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


@pytest.fixture(scope="module")
def toy_ds():
    return generate_dataset(ToyMap.default(), None, 64, rank=5, seed=2)


class TestLossConfig:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            LossConfig(variant="h2")
        with pytest.raises(ValueError):
            LossConfig(variant="l2", h1_weight=-1.0)
        with pytest.raises(ValueError):
            LossConfig(variant="h1_truncated_ms")  # k missing
        with pytest.raises(ValueError):
            LossConfig(variant="h1_truncated_ms", k=2, ms_mode="sideways")


class TestSubsampling:
    def test_full_subset_is_permutation(self):
        rng = np.random.default_rng(0)
        ridx, cidx = subsample_indices(6, 6, "independent", rng)
        assert sorted(ridx) == list(range(6))
        assert sorted(cidx) == list(range(6))

    def test_dependent_mode_shares_indices(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ridx, cidx = subsample_indices(7, 3, "dependent", rng)
            np.testing.assert_array_equal(ridx, cidx)

    def test_uniform_marginal_frequency(self):
        rng = np.random.default_rng(2)
        counts = np.zeros(5)
        n_draws = 100_000
        for _ in range(n_draws):
            ridx, _ = subsample_indices(5, 2, "dependent", rng)
            counts[ridx] += 1
        freqs = counts / n_draws
        np.testing.assert_allclose(freqs, 0.4, atol=0.01)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            subsample_indices(4, 5, "dependent", rng)
        with pytest.raises(ValueError):
            subsample_indices(4, 0, "dependent", rng)


class TestMSPenalty:
    @staticmethod
    def _make_jac_with_projected_error(E_target, rng):
        """jac (rank r) and a model Jacobian with U^T (J - Jw) V == E_target."""
        r = E_target.shape[0]
        d_q, d_m = r + 3, r + 4
        U = random_orthonormal(d_q, r, rng)
        V = random_orthonormal(d_m, r, rng)
        sigma = np.sort(rng.uniform(1, 3, r))[::-1]
        jac = TruncatedJacobian(U=U, sigma=sigma, V=V)
        model_jac = jac.as_dense() - U @ E_target @ V.T
        return jac, model_jac

    def test_dependent_enumeration_2x2_k1(self):
        rng = np.random.default_rng(4)
        E = np.array([[1.0, 2.0], [3.0, 4.0]])
        jac, model_jac = self._make_jac_with_projected_error(E, rng)
        vals = [ms_penalty(jac, model_jac, (np.array([i]), np.array([i])))
                for i in range(2)]
        assert np.mean(vals) == pytest.approx(8.5, rel=1e-12)

    def test_independent_enumeration_2x2_k1(self):
        rng = np.random.default_rng(5)
        E = np.array([[1.0, 2.0], [3.0, 4.0]])
        jac, model_jac = self._make_jac_with_projected_error(E, rng)
        vals = [ms_penalty(jac, model_jac, (np.array([i]), np.array([j])))
                for i in range(2) for j in range(2)]
        assert np.mean(vals) == pytest.approx(7.5, rel=1e-12)
        assert np.mean(vals) == pytest.approx(
            (1 / 4) * np.sum(E**2), rel=1e-12)

    def test_exact_model_gives_zero_everywhere(self):
        rng = np.random.default_rng(6)
        jac, _ = self._make_jac_with_projected_error(np.zeros((3, 3)), rng)
        model_jac = jac.as_dense()
        for idx in itertools.combinations(range(3), 2):
            pen = ms_penalty(jac, model_jac, (np.array(idx), np.array(idx)))
            assert pen <= 1e-20

    def test_full_enumeration_matches_expectations(self):
        """Averaging over every subset reproduces both closed forms."""
        rng = np.random.default_rng(7)
        r, k = 5, 2
        E = rng.standard_normal((r, r))
        jac, model_jac = self._make_jac_with_projected_error(E, rng)
        subsets = list(itertools.combinations(range(r), k))

        indep = [ms_penalty(jac, model_jac, (np.array(a), np.array(b)))
                 for a in subsets for b in subsets]
        expected_indep = (k**2 / r**2) * np.sum(E**2)
        assert np.mean(indep) == pytest.approx(expected_indep, rel=1e-12)

        dep = [ms_penalty(jac, model_jac, (np.array(a), np.array(a)))
               for a in subsets]
        diag2 = np.sum(np.diag(E) ** 2)
        off2 = np.sum(E**2) - diag2
        expected_dep = (k / r) * diag2 + (k * (k - 1)) / (r * (r - 1)) * off2
        assert np.mean(dep) == pytest.approx(expected_dep, rel=1e-12)

    def test_rescaled_draws_are_unbiased(self):
        rng = np.random.default_rng(8)
        r, k = 5, 2
        E = rng.standard_normal((r, r))
        jac, model_jac = self._make_jac_with_projected_error(E, rng)
        subsets = list(itertools.combinations(range(r), k))
        total = np.sum(E**2)

        indep = [ms_penalty(jac, model_jac, (np.array(a), np.array(b)),
                            mode="independent", rescale=True)
                 for a in subsets for b in subsets]
        assert np.mean(indep) == pytest.approx(total, rel=1e-12)

        dep = [ms_penalty(jac, model_jac, (np.array(a), np.array(a)),
                          mode="dependent", rescale=True)
               for a in subsets]
        assert np.mean(dep) == pytest.approx(total, rel=1e-12)

    def test_index_out_of_range_rejected(self):
        rng = np.random.default_rng(9)
        jac, model_jac = self._make_jac_with_projected_error(
            np.zeros((3, 3)), rng)
        with pytest.raises(ValueError):
            ms_penalty(jac, model_jac, (np.array([3]), np.array([0])))


class TestAdam:
    def test_zero_gradient_keeps_weights(self):
        w = np.array([1.0, -2.0, 0.5])
        state = AdamState.fresh(3)
        new_state, w_new = adam_step(state, w, np.zeros(3))
        np.testing.assert_array_equal(w_new, w)
        assert new_state.step == 1

    def test_first_step_magnitude(self):
        # unit gradient: bias correction makes m_hat = 1, v_hat = 1, so the
        # update is alpha / (1 + eps)
        state = AdamState.fresh(1)
        _, w_new = adam_step(state, np.zeros(1), np.ones(1))
        assert w_new[0] == pytest.approx(-9.99999e-4, rel=1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal(6)
        g = rng.standard_normal(6)
        s1, w1 = adam_step(AdamState.fresh(6), w, g)
        s2, w2 = adam_step(AdamState.fresh(6), w, g)
        np.testing.assert_array_equal(w1, w2)
        s1b, w1b = adam_step(s1, w1, g)
        s2b, w2b = adam_step(s2, w2, g)
        np.testing.assert_array_equal(w1b, w2b)

    def test_non_finite_gradient_rejected(self):
        state = AdamState.fresh(2)
        with pytest.raises(TrainingError):
            adam_step(state, np.zeros(2), np.array([1.0, np.nan]))


class TestTrain:
    @staticmethod
    def _model(ds, seed=0):
        spec = MLPSpec.dense((ds.d_m, 12, ds.d_q), init_seed=seed)
        return OperatorModel(kind="generic", spec=spec,
                             weights=NetworkWeights.init(spec))

    def test_l2_loss_decreases(self, toy_ds):
        model = self._model(toy_ds)
        _, hist = train(toy_ds, model, LossConfig(variant="l2"), epochs=20,
                        batch_size=16, seed=1)
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert len(hist.train_loss) == 20

    def test_zero_epochs_returns_model_unchanged(self, toy_ds):
        model = self._model(toy_ds)
        out, hist = train(toy_ds, model, LossConfig(variant="l2"), epochs=0,
                          seed=1)
        np.testing.assert_array_equal(out.weights.flat, model.weights.flat)
        assert hist.train_loss == []

    def test_seed_determinism_bitwise(self, toy_ds):
        cfg = LossConfig(variant="h1_truncated_ms", k=2)
        runs = []
        for _ in range(2):
            model = self._model(toy_ds, seed=3)
            out, hist = train(toy_ds, model, cfg, epochs=4, batch_size=16,
                              seed=7)
            runs.append((out.weights.flat.copy(), list(hist.train_loss)))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_different_seeds_differ(self, toy_ds):
        cfg = LossConfig(variant="l2")
        outs = []
        for seed in (1, 2):
            out, _ = train(toy_ds, self._model(toy_ds, seed=3), cfg,
                           epochs=2, batch_size=16, seed=seed)
            outs.append(out.weights.flat)
        assert not np.array_equal(outs[0], outs[1])

    def test_reduced_model_on_full_dataset(self, toy_ds):
        bases = derivative_informed_bases(toy_ds, rank_in=6, rank_out=5)
        spec = MLPSpec.dense((6, 8, 5), init_seed=0)
        model = OperatorModel(kind="reduced_basis", spec=spec,
                              weights=NetworkWeights.init(spec), bases=bases)
        for variant, k in (("h1_full", None), ("h1_truncated", None),
                           ("h1_truncated_ms", 2)):
            cfg = LossConfig(variant=variant, k=k)
            _, hist = train(toy_ds, model, cfg, epochs=3, batch_size=16,
                            seed=2)
            assert len(hist.train_loss) == 3

    def test_reduced_model_on_set_without_jacobians(self, toy_ds):
        # l2 reads no Jacobian field, so a bare (m, q) set trains the same
        bases = derivative_informed_bases(toy_ds, rank_in=6, rank_out=5)
        spec = MLPSpec.dense((6, 8, 5), init_seed=0)
        model = OperatorModel(kind="reduced_basis", spec=spec,
                              weights=NetworkWeights.init(spec), bases=bases)
        bare = Dataset(m=toy_ds.m, q=toy_ds.q)
        outs = [train(ds, model, LossConfig(), epochs=2, batch_size=16,
                      seed=2)[0].weights.flat for ds in (bare, toy_ds)]
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_ms_k_exceeding_rank_rejected(self, toy_ds):
        model = self._model(toy_ds)
        cfg = LossConfig(variant="h1_truncated_ms", k=toy_ds.rank + 1)
        with pytest.raises((ValueError, TrainingError)):
            train(toy_ds, model, cfg, epochs=1, seed=0)

    @pytest.mark.parametrize("kind, variant, k", [
        ("generic", "h1_truncated_ms", 2), ("generic", "h1_truncated", None),
        ("reduced_basis", "h1_truncated_ms", 2)])
    def test_set_without_factors_names_them(self, toy_ds, kind, variant, k):
        # checked before anything reads the stored rank
        if kind == "generic":
            model = self._model(toy_ds)
        else:
            bases = derivative_informed_bases(toy_ds, rank_in=6, rank_out=5)
            spec = MLPSpec.dense((6, 8, 5), init_seed=0)
            model = OperatorModel(kind=kind, spec=spec,
                                  weights=NetworkWeights.init(spec),
                                  bases=bases)
        cfg = LossConfig(variant=variant, k=k)
        bare = Dataset(m=toy_ds.m, q=toy_ds.q)
        for data, holdout in ((bare, None), (toy_ds, bare)):
            with pytest.raises(ValueError, match="jac_u, jac_sigma, jac_v"):
                train(data, model, cfg, epochs=1, holdout=holdout)

    @pytest.mark.parametrize("redraw", ["epoch", "batch"])
    def test_ms_redraw_schedule(self, toy_ds, monkeypatch, redraw):
        # "epoch" draws one index pair per epoch and hands it to every batch
        # of that epoch; "batch" draws a fresh pair for each batch
        draws, used = [], []

        def counting_draw(*args):
            draws.append(subsample_indices(*args))
            return draws[-1]

        def recording_loss(model, batch, cfg, ms_idx=None):
            used.append(ms_idx)
            return loss_and_grad(model, batch, cfg, ms_idx=ms_idx)

        monkeypatch.setattr(training, "subsample_indices", counting_draw)
        monkeypatch.setattr(training, "loss_and_grad", recording_loss)
        cfg = LossConfig(variant="h1_truncated_ms", k=2, ms_redraw=redraw)
        epochs, per_epoch = 3, 4  # 64 samples in batches of 16
        train(toy_ds, self._model(toy_ds), cfg, epochs=epochs, batch_size=16,
              seed=5)
        assert len(used) == epochs * per_epoch
        if redraw == "epoch":
            assert len(draws) == epochs
            expected = [d for d in draws for _ in range(per_epoch)]
        else:
            assert len(draws) == epochs * per_epoch
            expected = draws
        assert all(u is d for u, d in zip(used, expected))

    def test_holdout_history_recorded(self, toy_ds):
        model = self._model(toy_ds)
        holdout = toy_ds.subset(range(8))
        _, hist = train(toy_ds.subset(range(8, 64)), model,
                        LossConfig(variant="l2"), epochs=2, batch_size=16,
                        seed=1, holdout=holdout)
        assert len(hist.holdout_loss) == 2
        assert all(np.isfinite(hist.holdout_loss))

    @pytest.mark.parametrize("variant", ["h1_full", "h1_truncated"])
    def test_reduced_holdout_prepared_once(self, toy_ds, monkeypatch,
                                           variant):
        # the holdout set is projected once per train call, not per epoch,
        # and its last loss is that of the final model
        bases = derivative_informed_bases(toy_ds, rank_in=6, rank_out=5)
        spec = MLPSpec.dense((6, 8, 5), init_seed=0)
        model = OperatorModel(kind="reduced_basis", spec=spec,
                              weights=NetworkWeights.init(spec), bases=bases)
        calls = []
        monkeypatch.setattr(
            training, "reduce_dataset",
            lambda *args: calls.append(1) or reduce_dataset(*args))
        holdout = toy_ds.subset(range(8))
        cfg = LossConfig(variant=variant)
        out, hist = train(toy_ds.subset(range(8, 64)), model, cfg, epochs=3,
                          batch_size=16, seed=1, holdout=holdout)
        assert len(calls) == 2
        expected, _ = loss_and_grad(out, reduce_dataset(holdout, bases), cfg)
        assert hist.holdout_loss[-1] == pytest.approx(expected, rel=1e-12)
