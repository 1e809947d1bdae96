"""Optimizer, matrix-subsampling estimator, and the training loop."""

import itertools

import numpy as np
import pytest
from reference import (
    criterion_4_case,
    fitted_sample,
    ms_enumeration_errors,
    ms_losses,
    random_orthonormal,
)

from derivop import datagen, netop, training
from derivop.bases import derivative_informed_bases
from derivop.datagen import Dataset, generate_dataset, reduce_dataset
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
    subsample_indices,
    train,
)


@pytest.fixture(scope="module")
def toy_ds():
    return generate_dataset(ToyMap.default(), None, 64, rank=5, seed=2)


class TestLossConfig:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            LossConfig(variant="h2")
        with pytest.raises(ValueError):
            LossConfig(variant="l2", h1_weight=-1.0)
        for weight in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="h1_weight"):
                LossConfig(variant="h1_full", h1_weight=weight)
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
    """The shipped h1_truncated_ms loss, ``loss_and_grad``, on one sample
    that the net fits exactly, so that the loss is the penalty alone."""

    @staticmethod
    def _net_with_projected_error(E_target, rng):
        """A one-layer linear net, an input m and rank-r factors (U, sigma,
        V) with U^T (U S V^T - J_net) V == E_target."""
        r = E_target.shape[0]
        d_q, d_m = r + 3, r + 4
        U = random_orthonormal(d_q, r, rng)
        V = random_orthonormal(d_m, r, rng)
        sigma = np.sort(rng.uniform(1, 3, r))[::-1]
        W = (U * sigma) @ V.T - U @ E_target @ V.T
        spec = MLPSpec(widths=(d_m, d_q), activations=("linear",))
        net = OperatorModel(kind="generic", spec=spec, weights=NetworkWeights(
            spec, np.concatenate([W.ravel(), np.zeros(d_q)])))
        return net, rng.standard_normal(d_m), U, sigma, V

    def _losses(self, E_target, seed, pairs, mode):
        net, *case = self._net_with_projected_error(
            E_target, np.random.default_rng(seed))
        return ms_losses(net, fitted_sample(net, *case), pairs, mode)

    def test_dependent_enumeration_2x2_k1(self):
        E = np.array([[1.0, 2.0], [3.0, 4.0]])
        vals = self._losses(E, 4, [(np.array([i]), np.array([i]))
                                   for i in range(2)], "dependent")
        assert np.mean(vals) == pytest.approx(8.5, rel=1e-12)

    def test_independent_enumeration_2x2_k1(self):
        E = np.array([[1.0, 2.0], [3.0, 4.0]])
        vals = self._losses(E, 5, [(np.array([i]), np.array([j]))
                                   for i in range(2) for j in range(2)],
                            "independent")
        assert np.mean(vals) == pytest.approx(7.5, rel=1e-12)
        assert np.mean(vals) == pytest.approx(
            (1 / 4) * np.sum(E**2), rel=1e-12)

    def test_exact_model_gives_zero_everywhere(self):
        pairs = [(np.array(idx), np.array(idx))
                 for idx in itertools.combinations(range(3), 2)]
        for pen in self._losses(np.zeros((3, 3)), 6, pairs, "dependent"):
            assert pen <= 1e-20

    def test_full_enumeration_matches_expectations(self):
        """Averaging over every subset reproduces both closed forms."""
        rng = np.random.default_rng(7)
        case = self._net_with_projected_error(rng.standard_normal((5, 5)),
                                              rng)
        assert max(ms_enumeration_errors(*case, k=2)) <= 1e-12

    def test_rescaled_draws_are_unbiased(self):
        rng = np.random.default_rng(8)
        case = self._net_with_projected_error(rng.standard_normal((5, 5)),
                                              rng)
        assert max(ms_enumeration_errors(*case, k=2, rescale=True)) <= 1e-12

    def test_index_out_of_range_rejected(self):
        net, *case = self._net_with_projected_error(
            np.zeros((3, 3)), np.random.default_rng(9))
        sample = fitted_sample(net, *case)
        cfg = LossConfig("h1_truncated_ms", k=1)
        # [-1] would wrap to column 2 while the target compares -1 != 2
        for idx in (([3], [0]), ([-1], [2])):
            with pytest.raises(ValueError, match="subsample indices"):
                loss_and_grad(net, sample, cfg, ms_idx=idx)

    def test_enumeration_fails_mutated_rules(self, monkeypatch):
        """Criterion 4's enumeration catches a target that ignores the
        column draw and a wrong off-diagonal unbiasing weight."""
        case = criterion_4_case()
        assert max(ms_enumeration_errors(*case, k=2)) <= 1e-12
        assert max(ms_enumeration_errors(*case, k=2, rescale=True)) <= 1e-12

        target = netop._ms_target
        with monkeypatch.context() as mp:
            mp.setattr(netop, "_ms_target",
                       lambda sigma, ridx, cidx: target(sigma, ridx, ridx))
            assert ms_enumeration_errors(*case, k=2)[0] > 1e-12

        def offdiag_weight_of_independent(r, ridx, cidx, mode):
            k = len(ridx)
            return np.where(ridx[:, None] == cidx[None, :], r / k,
                            (r / k) ** 2)

        with monkeypatch.context() as mp:
            mp.setattr(netop, "_ms_weight", offdiag_weight_of_independent)
            assert ms_enumeration_errors(*case, k=2, rescale=True)[1] > 1e-12


def adam_oracle(state, w, g):
    """The out-of-place Adam update that ``adam_step`` does in place."""
    t = state.step + 1
    m = training.ADAM_BETA1 * state.m + (1.0 - training.ADAM_BETA1) * g
    v = training.ADAM_BETA2 * state.v + (1.0 - training.ADAM_BETA2) * g**2
    m_hat = m / (1.0 - training.ADAM_BETA1**t)
    v_hat = v / (1.0 - training.ADAM_BETA2**t)
    w_new = w - state.alpha * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
    return AdamState(m=m, v=v, step=t, alpha=state.alpha), w_new


class TestAdam:
    def test_zero_gradient_keeps_weights(self):
        w = np.array([1.0, -2.0, 0.5])
        state = AdamState.fresh(3)
        new_state, w_new = adam_step(state, w.copy(), np.zeros(3))
        np.testing.assert_array_equal(w_new, w)
        assert new_state.step == 1

    def test_first_step_magnitude(self):
        # unit gradient: bias correction makes m_hat = 1, v_hat = 1, so the
        # update is alpha / (1 + eps)
        state = AdamState.fresh(1)
        _, w_new = adam_step(state, np.zeros(1), np.ones(1))
        assert w_new[0] == pytest.approx(-9.99999e-4, rel=1e-6)

    def test_determinism(self):
        # copies: the step updates its state and weights in place, so
        # shared arrays would make the comparison trivially true
        rng = np.random.default_rng(10)
        w = rng.standard_normal(6)
        g = rng.standard_normal(6)
        s1, w1 = adam_step(AdamState.fresh(6), w.copy(), g)
        s2, w2 = adam_step(AdamState.fresh(6), w.copy(), g)
        np.testing.assert_array_equal(w1, w2)
        s1b, w1b = adam_step(s1, w1, g)
        s2b, w2b = adam_step(s2, w2, g)
        np.testing.assert_array_equal(w1b, w2b)

    def test_in_place_matches_out_of_place_bitwise(self):
        rng = np.random.default_rng(11)
        d = 257
        w = rng.standard_normal(d)
        state = AdamState.fresh(d, alpha=3e-3)
        ref_state, ref_w = AdamState.fresh(d, alpha=3e-3), w.copy()
        m, v = state.m, state.v
        for _ in range(300):
            g = rng.standard_normal(d) * 10.0 ** rng.uniform(-8, 2, d)
            ref_state, ref_w = adam_oracle(ref_state, ref_w, g)
            out_state, out_w = adam_step(state, w, g)
            assert out_state is state and out_w is w
            assert state.m is m and state.v is v
            np.testing.assert_array_equal(state.m, ref_state.m)
            np.testing.assert_array_equal(state.v, ref_state.v)
            np.testing.assert_array_equal(w, ref_w)
        assert state.step == ref_state.step == 300

    def test_non_finite_gradient_rejected(self):
        state = AdamState.fresh(2)
        with pytest.raises(TrainingError):
            adam_step(state, np.zeros(2), np.array([1.0, np.nan]))

    def test_rejected_gradient_changes_nothing(self):
        rng = np.random.default_rng(12)
        state, w = AdamState.fresh(5), rng.standard_normal(5)
        adam_step(state, w, rng.standard_normal(5))
        before = (state.m.copy(), state.v.copy(), state.step, w.copy())
        for bad in (np.nan, np.inf):
            g = rng.standard_normal(5)
            g[3] = bad
            with pytest.raises(TrainingError):
                adam_step(state, w, g)
            np.testing.assert_array_equal(state.m, before[0])
            np.testing.assert_array_equal(state.v, before[1])
            assert state.step == before[2]
            np.testing.assert_array_equal(w, before[3])


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

    @pytest.mark.parametrize("batch_size,epochs", [(0, 1), (-4, 1),
                                                   (16, -2)])
    def test_empty_schedule_rejected(self, toy_ds, batch_size, epochs):
        # a batch size below 1 used to train nothing and report loss 0.0
        with pytest.raises(ValueError, match="batch_size >= 1"):
            train(toy_ds, self._model(toy_ds), LossConfig(variant="l2"),
                  epochs=epochs, batch_size=batch_size)

    @pytest.mark.parametrize("alpha", [-1e-3, 0.0, np.nan, np.inf])
    def test_bad_learning_rate_rejected(self, toy_ds, alpha):
        # a negative rate used to ascend the loss and return normally
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            train(toy_ds, self._model(toy_ds), LossConfig(variant="l2"),
                  epochs=1, alpha=alpha)

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

    def test_caller_weights_untouched(self, toy_ds):
        # train updates its own copy in place and returns another copy
        model = self._model(toy_ds, seed=3)
        w0 = model.weights.flat.copy()
        cfg = LossConfig(variant="h1_truncated")
        outs = [train(toy_ds, model, cfg, epochs=3, batch_size=16, seed=5,
                      holdout=toy_ds)[0] for _ in range(2)]
        np.testing.assert_array_equal(model.weights.flat, w0)
        assert not np.shares_memory(outs[0].weights.flat,
                                    outs[1].weights.flat)
        np.testing.assert_array_equal(outs[0].weights.flat,
                                      outs[1].weights.flat)

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
            datagen, "reduce_dataset",
            lambda *args: calls.append(1) or reduce_dataset(*args))
        holdout = toy_ds.subset(range(8))
        cfg = LossConfig(variant=variant)
        out, hist = train(toy_ds.subset(range(8, 64)), model, cfg, epochs=3,
                          batch_size=16, seed=1, holdout=holdout)
        assert len(calls) == 2
        expected, _ = loss_and_grad(out, reduce_dataset(holdout, bases, True), cfg)
        assert hist.holdout_loss[-1] == pytest.approx(expected, rel=1e-12)
