"""Evaluation metrics against dense brute-force oracles."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from reference import random_orthonormal, truncation_error_bound

from derivop import metrics
from derivop.bases import ReducedBasisPair
from derivop.datagen import Dataset, generate_dataset, project_factors
from derivop.linalg import TruncatedJacobian
from derivop.metrics import (
    EvalReport,
    ModelOutputs,
    evaluate,
    gauss_newton_accuracies,
    gradient_accuracy,
    h1_seminorm_accuracy,
    l2_accuracy,
    model_outputs,
    noise_std,
)
from derivop.models import (
    Grid,
    PriorConfig,
    RDModel,
    ToyMap,
    observe,
    solve_state,
    toy_map,
)
from derivop.netop import (
    _BLOCK_ROWS,
    PENALTY_FLOPS,
    MLPSpec,
    NetworkWeights,
    OperatorModel,
    forward,
    full_space_jacobian,
    parametric_jacobian,
)


def dense(preds, jacs, ds):
    """Oracle model: the ModelOutputs record on ``ds`` of the given
    predictions (n, d_Q) and dense Jacobians (n, d_Q, d_M), in the identity
    pair."""
    pair = ReducedBasisPair(psi=np.eye(ds.d_m), phi=np.eye(ds.d_q),
                            b=np.zeros(ds.d_q), tag="identity")
    return ModelOutputs(np.asarray(preds, dtype=float),
                        np.asarray(jacs, dtype=float), pair,
                        project_factors(ds, pair))


def true_jacobian(ds, i):
    """The dense Jacobian of sample i of ``ds``, from its stored factors."""
    return (ds.jac_u[i] * ds.jac_sigma[i]) @ ds.jac_v[i].T


def exact(ds):
    """The record of the true map at the rows of ``ds``, from its factors."""
    return dense(ds.q, [true_jacobian(ds, i) for i in range(ds.n_samples)],
                 ds)


def zero(ds):
    return dense(np.zeros_like(ds.q), np.zeros((ds.n_samples, ds.d_q, ds.d_m)),
                 ds)


def loop_metrics(model, ds, noise_pct=0.01, seed=0, n_misfit=4):
    """Per-sample reference: the loops the batched metrics replaced.

    Returns name -> (per-sample ratios, skip count) for h1, grad, gn, rgn.
    Reduced-basis models use the factored h1 and GN expansions; generic
    models and records, whose latent Jacobians are first expanded to
    Phi J Psi^T, form the dense d_Q x d_M residual and the d_M x d_M GN
    Hessians.
    """
    if isinstance(model, OperatorModel):
        reduced = model.kind == "reduced_basis"
        preds = forward(model, ds.m)
        jacs = [full_space_jacobian(model, m) for m in ds.m]
    else:
        reduced, preds = False, model.preds
        jacs = model.bases.phi @ model.jac @ model.bases.psi.T
    std = noise_std(ds, noise_pct)
    rng = np.random.default_rng(seed)
    ratios = {name: [] for name in ("h1", "grad", "gn", "rgn")}
    skipped = dict.fromkeys(ratios, 0)
    for i in range(ds.n_samples):
        U, s, V = ds.jac_u[i], ds.jac_sigma[i], ds.jac_v[i]
        if reduced:
            bases = model.bases
            J = parametric_jacobian(model, ds.m[i])
            mid = (U.T @ bases.phi) @ J @ (bases.psi.T @ V)
            h1_err2 = max(float(np.sum(s**2))
                          - 2.0 * float(np.sum(s * np.diag(mid)))
                          + float(np.sum(J**2)), 0.0)
            K = J.T @ J
            P = V.T @ bases.psi
            cross = float(np.sum((s[:, None] ** 2 * P) * (P @ K)))
            gn_err2 = max(float(np.sum(s**4)) - 2.0 * cross
                          + float(np.sum(K**2)), 0.0)
            red_model = P @ K @ P.T
        else:
            Jw = jacs[i]
            h1_err2 = float(np.sum(((U * s) @ V.T - Jw) ** 2))
            H_model = Jw.T @ Jw
            gn_err2 = float(np.sum(((V * s**2) @ V.T - H_model) ** 2))
            red_model = V.T @ H_model @ V
        h1_norm2, gn_norm2 = float(np.sum(s**2)), float(np.sum(s**4))
        if h1_norm2 == 0.0:
            skipped["h1"] += 1
        else:
            ratios["h1"].append(h1_err2 / h1_norm2)
        if gn_norm2 == 0.0:
            skipped["gn"] += 1
            skipped["rgn"] += 1
        else:
            ratios["gn"].append(gn_err2 / gn_norm2)
            ratios["rgn"].append(
                float(np.sum((np.diag(s**2) - red_model) ** 2)) / gn_norm2)
        jac_model = jacs[i]
        for _ in range(n_misfit):
            # misfit gradients J^T Gamma^{-1} (f - d), Gamma = std^2 I
            d = ds.q[i] + std * rng.standard_normal(ds.d_q)
            g_true = V @ (s * (U.T @ ((ds.q[i] - d) / std**2)))
            g_pred = jac_model.T @ ((preds[i] - d) / std**2)
            denom = float(np.sum(g_true**2))
            if denom == 0.0:
                skipped["grad"] += 1
            else:
                ratios["grad"].append(
                    float(np.sum((g_true - g_pred) ** 2)) / denom)
    return {name: (np.array(r), skipped[name]) for name, r in ratios.items()}


@pytest.fixture(scope="module")
def toy_ds():
    return generate_dataset(ToyMap.default(), None, 10, rank=5, seed=4)


@pytest.fixture(scope="module")
def net_model():
    spec = MLPSpec.dense((20, 10, 8), init_seed=3)
    return OperatorModel(kind="generic", spec=spec,
                         weights=NetworkWeights.init(spec))


class TestL2Accuracy:
    def test_exact_model_scores_one(self, toy_ds):
        acc, ratios, skipped = l2_accuracy(exact(toy_ds), toy_ds)
        assert acc == pytest.approx(1.0)
        assert skipped == 0

    def test_zero_model_scores_zero(self, toy_ds):
        acc, _, _ = l2_accuracy(zero(toy_ds), toy_ds)
        assert acc == pytest.approx(0.0)

    def test_hand_built_two_sample_case(self):
        ds = Dataset(m=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                     q=np.array([[3.0, 4.0], [0.0, 2.0]]),
                     jac_u=np.zeros((2, 2, 1)), jac_sigma=np.zeros((2, 1)),
                     jac_v=np.zeros((2, 3, 1)), meta={})
        preds = np.array([[3.0, 3.0], [1.0, 2.0]])
        model = dense(preds, np.zeros((2, 2, 3)), ds)
        acc, ratios, _ = l2_accuracy(model, ds)
        # per-sample relative squared errors: 1/25 and 1/4
        np.testing.assert_allclose(ratios, [1 / 25, 1 / 4])
        assert acc == pytest.approx(1.0 - np.sqrt((1 / 25 + 1 / 4) / 2))

    def test_zero_norm_samples_skipped(self):
        ds = Dataset(m=np.zeros((2, 3)),
                     q=np.array([[0.0, 0.0], [1.0, 0.0]]),
                     jac_u=np.zeros((2, 2, 1)), jac_sigma=np.zeros((2, 1)),
                     jac_v=np.zeros((2, 3, 1)), meta={})
        acc, ratios, skipped = l2_accuracy(zero(ds), ds)
        assert skipped == 1
        assert len(ratios) == 1


class TestH1Accuracy:
    def test_exact_model_scores_one(self, toy_ds):
        acc, _, _ = h1_seminorm_accuracy(exact(toy_ds), toy_ds)
        assert acc == pytest.approx(1.0, abs=1e-7)

    def test_zero_jacobian_scores_zero(self, toy_ds):
        acc, _, _ = h1_seminorm_accuracy(zero(toy_ds), toy_ds)
        assert acc == pytest.approx(0.0)

    @pytest.mark.parametrize("kind", ["generic", "reduced"])
    def test_net_matches_dense_oracle(self, toy_ds, kind):
        # both kinds take the factored expansion, a generic net's through
        # its first layer; both against the brute-force full-space Jacobian
        model = make_model(kind, toy_ds, seed=3)
        acc, ratios, _ = h1_seminorm_accuracy(model, toy_ds)
        oracle = []
        for i in range(toy_ds.n_samples):
            true = true_jacobian(toy_ds, i)
            err = true - full_space_jacobian(model, toy_ds.m[i])
            oracle.append(np.sum(err**2) / np.sum(true**2))
        np.testing.assert_allclose(ratios, oracle, rtol=1e-10)
        assert acc == pytest.approx(1.0 - np.sqrt(np.mean(oracle)),
                                    rel=1e-10)


class TestMisfitGradient:
    """The misfit gradients J^T Gamma^{-1} (f - d) that gradient_accuracy
    forms, the true one from the stored factors, against dense references."""

    def test_rank_one_algebra(self):
        # J = 2 u v^T and a model that predicts q + rho u with that J: the
        # gradient error 2 rho v / var is set against the true gradient
        # -2 std eta_u v / var, where eta_u is the noise draw along u
        u, v, rho = np.eye(3)[:, [0]], np.eye(5)[:, [1]], 0.7
        q = np.array([1.0, 0.5, -0.5])
        ds = Dataset(m=np.zeros((1, 5)), q=q[None], jac_u=u[None],
                     jac_sigma=np.array([[2.0]]), jac_v=v[None])
        model = dense([q + rho * u[:, 0]], [2.0 * u @ v.T], ds)
        _, ratios, skipped = gradient_accuracy(model, ds, seed=3, n_misfit=4)
        eta_u = np.random.default_rng(3).standard_normal((1, 4, 3))[0, :, 0]
        assert skipped == 0
        np.testing.assert_allclose(ratios, (rho / (noise_std(ds) * eta_u))**2,
                                   rtol=1e-12)

    def test_matches_dense_toy_jacobian(self, toy_ds):
        # rank 5 is exact for the toy map, so the true gradient from the
        # factors equals J^T (q - d) / var with the analytic J; the model
        # predicts q + delta with that J
        seed, n_misfit = 2, 3
        delta = 0.1 * np.random.default_rng(9).standard_normal(toy_ds.q.shape)
        jacs = [toy_map(ToyMap.default(), m)[1] for m in toy_ds.m]
        model = dense(toy_ds.q + delta, jacs, toy_ds)
        _, ratios, skipped = gradient_accuracy(model, toy_ds, seed=seed,
                                               n_misfit=n_misfit)
        std = noise_std(toy_ds)
        rng = np.random.default_rng(seed)
        oracle = []
        for i, J in enumerate(jacs):
            for _ in range(n_misfit):
                d = toy_ds.q[i] + std * rng.standard_normal(toy_ds.d_q)
                g_true = J.T @ (toy_ds.q[i] - d) / std**2
                g_pred = J.T @ (toy_ds.q[i] + delta[i] - d) / std**2
                oracle.append(np.sum((g_pred - g_true) ** 2)
                              / np.sum(g_true**2))
        assert skipped == 0
        np.testing.assert_allclose(ratios, oracle, rtol=1e-10)

    def test_matches_fd_of_misfit_through_rd_model(self):
        # at rank d_Q the stored factors are the exact Jacobian, so the true
        # gradient must equal the central-difference gradient of the misfit
        # 0.5 |F(m) - d|^2 / var, J_fd^T (F(m) - d) / var, which a model
        # with the exact value and the central-difference Jacobian J_fd has
        grid = Grid(9)
        rd = RDModel(grid=grid)
        ds = generate_dataset(rd, PriorConfig(delta=1.0, gamma=0.1, grid=grid),
                              1, seed=1)
        m, eps = ds.m[0], 1e-6

        def F(mm):
            return observe(rd, solve_state(rd, mm))

        J_fd = np.column_stack([(F(m + eps * e) - F(m - eps * e)) / (2 * eps)
                                for e in np.eye(rd.d_m)])
        model = dense(ds.q, [J_fd], ds)
        _, ratios, skipped = gradient_accuracy(model, ds, n_misfit=4)
        assert skipped == 0
        assert np.sqrt(np.max(ratios)) <= 1e-5

    def test_nonpositive_variance_rejected(self, toy_ds):
        with pytest.raises(ValueError):
            gradient_accuracy(exact(toy_ds), toy_ds, noise_pct=0.0)

    def test_negative_noise_rejected(self, toy_ds):
        # a negative scale has a positive variance std^2
        with pytest.raises(ValueError, match="noise scale"):
            gradient_accuracy(exact(toy_ds), toy_ds, noise_pct=-0.01)

    @pytest.mark.parametrize("n_misfit", [0, -1])
    def test_no_noise_draws_rejected(self, toy_ds, n_misfit):
        # with no draws the accuracy would be None with nothing skipped
        with pytest.raises(ValueError, match="n_misfit"):
            gradient_accuracy(exact(toy_ds), toy_ds, n_misfit=n_misfit)


class TestGradientAccuracy:
    def test_exact_model_scores_one(self, toy_ds):
        acc, _, _ = gradient_accuracy(exact(toy_ds), toy_ds, seed=0)
        assert acc == pytest.approx(1.0, abs=1e-6)

    def test_correct_values_zero_jacobian_scores_zero(self, toy_ds):
        hybrid = dense(toy_ds.q, zero(toy_ds).jac, toy_ds)
        acc, _, _ = gradient_accuracy(hybrid, toy_ds, seed=0)
        assert acc == pytest.approx(0.0, abs=1e-12)

    def test_matches_hand_assembled_dense_quantities(self, toy_ds, net_model):
        seed, n_misfit = 5, 2
        acc, ratios, _ = gradient_accuracy(net_model, toy_ds, seed=seed,
                                           n_misfit=n_misfit)
        std = noise_std(toy_ds)
        rng = np.random.default_rng(seed)
        preds = forward(net_model, toy_ds.m)
        oracle = []
        for i in range(toy_ds.n_samples):
            Jt = true_jacobian(toy_ds, i)
            Jm = full_space_jacobian(net_model, toy_ds.m[i])
            for _ in range(n_misfit):
                d = toy_ds.q[i] + std * rng.standard_normal(toy_ds.d_q)
                gt = Jt.T @ (toy_ds.q[i] - d) / std**2
                gp = Jm.T @ (preds[i] - d) / std**2
                oracle.append(np.sum((gt - gp) ** 2) / np.sum(gt**2))
        np.testing.assert_allclose(ratios, oracle, rtol=1e-12)

    def test_rotation_equivariance(self, toy_ds, net_model):
        # rotating q, d, predictions, and the Jacobians' observation rows
        # leaves every relative gradient error unchanged
        rng = np.random.default_rng(13)
        R, _ = np.linalg.qr(rng.standard_normal((toy_ds.d_q, toy_ds.d_q)))
        std = noise_std(toy_ds)
        preds = forward(net_model, toy_ds.m)
        for i in range(toy_ds.n_samples):
            Jt = true_jacobian(toy_ds, i)
            Jm = full_space_jacobian(net_model, toy_ds.m[i])
            d = toy_ds.q[i] + std * rng.standard_normal(toy_ds.d_q)

            def ratio(q, p, d, Jt, Jm):
                gt = Jt.T @ (q - d) / std**2
                gp = Jm.T @ (p - d) / std**2
                return np.sum((gt - gp) ** 2) / np.sum(gt**2)

            base = ratio(toy_ds.q[i], preds[i], d, Jt, Jm)
            rot = ratio(R @ toy_ds.q[i], R @ preds[i], R @ d, R @ Jt, R @ Jm)
            assert rot == pytest.approx(base, rel=1e-8)

    def test_forms_no_d_m_wide_gradient(self):
        # the gradients stay latent: the peak stays below the bytes of one
        # (n, n_misfit, d_M) array of them
        rng = np.random.default_rng(31)
        n, d_m, d_q, r, n_misfit = 16, 2000, 10, 5, 4
        ds = Dataset(
            m=rng.standard_normal((n, d_m)), q=rng.standard_normal((n, d_q)),
            jac_u=np.stack([random_orthonormal(d_q, r, rng)
                            for _ in range(n)]),
            jac_sigma=np.sort(rng.random((n, r)))[:, ::-1].copy(),
            jac_v=np.stack([random_orthonormal(d_m, r, rng)
                            for _ in range(n)]))
        pair = ReducedBasisPair(psi=random_orthonormal(d_m, r, rng),
                                phi=random_orthonormal(d_q, r, rng),
                                b=np.zeros(d_q))
        record = ModelOutputs(rng.standard_normal((n, d_q)),
                              rng.standard_normal((n, r, r)), pair,
                              project_factors(ds, pair))
        want = gradient_accuracy(record, ds, n_misfit=n_misfit)
        tracemalloc.start()
        try:
            got = gradient_accuracy(record, ds, n_misfit=n_misfit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got[1], want[1])
        assert peak < n * n_misfit * d_m * 8


class TestGaussNewton:
    def test_exact_model_scores_one(self, toy_ds):
        gn, rgn, _, _, _ = gauss_newton_accuracies(exact(toy_ds), toy_ds)
        assert gn == pytest.approx(1.0, abs=1e-7)
        assert rgn == pytest.approx(1.0, abs=1e-7)

    def test_zero_model_scores_zero(self, toy_ds):
        gn, rgn, _, _, _ = gauss_newton_accuracies(zero(toy_ds), toy_ds)
        assert gn == pytest.approx(0.0)
        assert rgn == pytest.approx(0.0)

    def test_matches_dense_oracle(self, toy_ds, net_model):
        _, _, full_r, red_r, _ = gauss_newton_accuracies(net_model, toy_ds)
        for i in range(toy_ds.n_samples):
            Jt = true_jacobian(toy_ds, i)
            Jm = full_space_jacobian(net_model, toy_ds.m[i])
            Ht, Hm = Jt.T @ Jt, Jm.T @ Jm
            assert full_r[i] == pytest.approx(
                np.sum((Ht - Hm) ** 2) / np.sum(Ht**2), rel=1e-10)
            V = toy_ds.jac_v[i]
            Rt, Rm = V.T @ Ht @ V, V.T @ Hm @ V
            assert red_r[i] == pytest.approx(
                np.sum((Rt - Rm) ** 2) / np.sum(Rt**2), rel=1e-10)

    def test_reduced_model_factored_path_matches_dense(self, toy_ds):
        rng = np.random.default_rng(14)
        psi, _ = np.linalg.qr(rng.standard_normal((toy_ds.d_m, 6)))
        phi, _ = np.linalg.qr(rng.standard_normal((toy_ds.d_q, 5)))
        bases = ReducedBasisPair(psi=psi, phi=phi, b=np.zeros(toy_ds.d_q))
        spec = MLPSpec.dense((6, 7, 5), init_seed=2)
        model = OperatorModel(kind="reduced_basis", spec=spec,
                              weights=NetworkWeights.init(spec), bases=bases)
        _, _, full_r, red_r, _ = gauss_newton_accuracies(model, toy_ds)
        for i in range(toy_ds.n_samples):
            Jt = true_jacobian(toy_ds, i)
            Jm = full_space_jacobian(model, toy_ds.m[i])
            Ht, Hm = Jt.T @ Jt, Jm.T @ Jm
            assert full_r[i] == pytest.approx(
                np.sum((Ht - Hm) ** 2) / np.sum(Ht**2), rel=1e-10)
            V = toy_ds.jac_v[i]
            Rt, Rm = V.T @ Ht @ V, V.T @ Hm @ V
            assert red_r[i] == pytest.approx(
                np.sum((Rt - Rm) ** 2) / np.sum(Rt**2), rel=1e-10)


def make_model(kind, ds, seed):
    """A generic net, a reduced-basis net, or a record of random values and
    dense Jacobians in the identity pair, sized for ``ds``."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return dense(rng.standard_normal((ds.n_samples, ds.d_q)),
                     rng.standard_normal((ds.n_samples, ds.d_q, ds.d_m)), ds)
    if kind == "generic":
        spec = MLPSpec.dense((ds.d_m, 10, ds.d_q), init_seed=seed)
        return OperatorModel(kind="generic", spec=spec,
                             weights=NetworkWeights.init(spec))
    psi, _ = np.linalg.qr(rng.standard_normal((ds.d_m, 6)))
    phi, _ = np.linalg.qr(rng.standard_normal((ds.d_q, 5)))
    bases = ReducedBasisPair(psi=psi, phi=phi, b=rng.standard_normal(ds.d_q))
    spec = MLPSpec.dense((6, 9, 5), init_seed=seed)
    return OperatorModel(kind="reduced_basis", spec=spec,
                         weights=NetworkWeights.init(spec), bases=bases)


@pytest.fixture(scope="module")
def ds17():
    ds = generate_dataset(ToyMap.default(), None, 17, rank=5, seed=9)
    ds.jac_sigma[3] = 0.0  # a zero-norm Jacobian inside the first block
    return ds


KINDS = ["generic", "reduced", "dense"]


class TestBatchedVsLoop:
    @pytest.mark.parametrize("n", [10, 17])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_per_sample_reference(self, ds17, kind, n):
        assert n % _BLOCK_ROWS != 0  # the last block is partial
        ds = ds17.subset(np.arange(n))
        model = make_model(kind, ds, seed=n)
        h1 = h1_seminorm_accuracy(model, ds)
        grad = gradient_accuracy(model, ds, seed=3, n_misfit=3)
        gn = gauss_newton_accuracies(model, ds)
        got = {"h1": (h1[1], h1[2]), "grad": (grad[1], grad[2]),
               "gn": (gn[2], gn[4]), "rgn": (gn[3], gn[4])}
        want = loop_metrics(model, ds, seed=3, n_misfit=3)
        assert (want["h1"][1], want["grad"][1], want["gn"][1]) == (1, 3, 1)
        for name, (ratios, skipped) in want.items():
            assert got[name][1] == skipped
            np.testing.assert_allclose(got[name][0], ratios, rtol=1e-12)
        assert h1[0] == pytest.approx(1.0 - np.sqrt(np.mean(want["h1"][0])),
                                      rel=1e-12)

    def test_noise_draws_equal_per_sample_stream(self, ds17, monkeypatch):
        draws = []
        real_rng = np.random.default_rng

        class Recorder:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def standard_normal(self, size):
                draws.append(self._rng.standard_normal(size))
                return draws[-1]

        model = make_model("generic", ds17, 1)
        monkeypatch.setattr(np.random, "default_rng", Recorder)
        gradient_accuracy(model, ds17, seed=6, n_misfit=3)
        monkeypatch.undo()
        rng = np.random.default_rng(6)
        stream = [rng.standard_normal(ds17.d_q)
                  for _ in range(ds17.n_samples * 3)]
        np.testing.assert_array_equal(np.concatenate(draws, axis=None),
                                      np.concatenate(stream))

    @pytest.mark.parametrize("kind", KINDS)
    def test_evaluate_matches_standalone_metrics(self, ds17, kind):
        model = make_model(kind, ds17, seed=2)
        report = evaluate(model, ds17, seed=4, n_misfit=2)
        l2 = l2_accuracy(model, ds17)
        h1 = h1_seminorm_accuracy(model, ds17)
        grad = gradient_accuracy(model, ds17, seed=4, n_misfit=2)
        gn = gauss_newton_accuracies(model, ds17)
        want = {"l2": l2[:2], "h1": h1[:2], "grad": grad[:2],
                "gn": (gn[0], gn[2]), "rgn": (gn[1], gn[3])}
        for name, (acc, ratios) in want.items():
            assert report.accuracies[name] == acc
            np.testing.assert_array_equal(report.per_sample[name], ratios)
        assert report.warnings == {"l2_skipped": l2[2], "h1_skipped": h1[2],
                                   "grad_skipped": grad[2],
                                   "gn_skipped": gn[4]}

    def test_evaluate_rejects_unknown_metrics(self, ds17):
        model = make_model("generic", ds17, seed=2)
        with pytest.raises(ValueError, match="'H1', 'l3'"):
            evaluate(model, ds17, metrics=("l3", "H1"))


def generic_net(widths, seed):
    spec = MLPSpec.dense(widths, init_seed=seed)
    return OperatorModel(kind="generic", spec=spec,
                         weights=NetworkWeights.init(spec))


@pytest.fixture(scope="module")
def wide_out_ds():
    """17 samples of a toy map whose output (12) is wider than its input
    (6)."""
    rng = np.random.default_rng(21)
    toy = ToyMap(B=rng.standard_normal((12, 5)) / np.sqrt(5),
                 C=rng.standard_normal((5, 6)) / np.sqrt(6))
    return generate_dataset(toy, None, 17, rank=5, seed=22)


class TestFactoredGeneric:
    """A generic net's record is latent through its first layer,
    J = J_r Q^T with W_1^T = Q R for the latent Jacobian J_r of its
    equivalent reduced-basis net, and scores as its dense Jacobian."""

    @pytest.mark.parametrize("hidden", [
        (10,),  # n_1 < d_M
        (20, 7),  # n_1 = d_M: square QR
        (26, 9),  # n_1 > d_M: square QR, R wider than tall
        (),  # one linear layer, J_r = R^T
    ])
    def test_matches_per_sample_reference(self, ds17, hidden):
        self._check(ds17, generic_net((20, *hidden, 8), seed=len(hidden)))

    @pytest.mark.parametrize("hidden", [(4,), (9, 14)])
    def test_output_wider_than_input(self, wide_out_ds, hidden):
        self._check(wide_out_ds, generic_net((6, *hidden, 12), seed=5))

    def _check(self, ds, model):
        assert ds.n_samples % _BLOCK_ROWS != 0  # the last block is partial
        record = model_outputs(model, ds)
        n_1 = model.spec.widths[1]
        assert record.jac.shape == (ds.n_samples, ds.d_q, min(n_1, ds.d_m))
        psi = record.bases.psi
        np.testing.assert_allclose(psi.T @ psi, np.eye(psi.shape[1]),
                                   rtol=0, atol=1e-14)
        np.testing.assert_array_equal(record.bases.phi, np.eye(ds.d_q))
        for i in (0, ds.n_samples - 1):
            np.testing.assert_allclose(
                record.jac[i] @ psi.T, full_space_jacobian(model, ds.m[i]),
                rtol=0, atol=1e-13)
        h1 = h1_seminorm_accuracy(record, ds)
        grad = gradient_accuracy(record, ds, seed=3, n_misfit=3)
        gn = gauss_newton_accuracies(record, ds)
        got = {"h1": (h1[1], h1[2]), "grad": (grad[1], grad[2]),
               "gn": (gn[2], gn[4]), "rgn": (gn[3], gn[4])}
        for name, (ratios, skipped) in loop_metrics(model, ds, seed=3,
                                                    n_misfit=3).items():
            assert got[name][1] == skipped
            np.testing.assert_allclose(got[name][0], ratios, rtol=1e-12)


class TestTruncationBound:
    def test_bound_holds_on_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            A = rng.standard_normal((8, 3))
            B = rng.standard_normal((3, 12))
            J = A @ B  # exact rank 3
            u, s, vt = np.linalg.svd(J, full_matrices=False)
            jac = TruncatedJacobian(U=u[:, :3], sigma=s[:3], V=vt[:3].T)
            Jw = rng.standard_normal((8, 12))
            lhs, rhs = truncation_error_bound(J, jac, Jw)
            assert lhs <= rhs + 1e-12 * rhs

    def test_equality_when_model_reproduces_truncation(self):
        rng = np.random.default_rng(16)
        J = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 12))
        u, s, vt = np.linalg.svd(J, full_matrices=False)
        jac = TruncatedJacobian(U=u[:, :3], sigma=s[:3], V=vt[:3].T)
        lhs, rhs = truncation_error_bound(J, jac,
                                          (jac.U * jac.sigma) @ jac.V.T)
        assert lhs <= 1e-20 and rhs <= 1e-20


class TestEvaluate:
    def test_metric_selection_and_report(self, tmp_path, toy_ds, net_model):
        report = evaluate(net_model, toy_ds, metrics=("l2", "gn"),
                          config={"run": "x"})
        assert set(report.accuracies) == {"l2", "gn"}
        report.save(tmp_path / "r")
        payload = json.loads((tmp_path / "r" / "report.json").read_text())
        assert payload["config"]["run"] == "x"
        assert set(payload["accuracies"]) == {"l2", "gn"}
        assert (tmp_path / "r" / "l2.csv").exists()
        assert (tmp_path / "r" / "gn.csv").exists()
        assert not (tmp_path / "r" / "h1.csv").exists()

    def test_order_invariance(self, toy_ds, net_model):
        perm = np.random.default_rng(17).permutation(toy_ds.n_samples)
        shuffled = toy_ds.subset(perm)
        a = evaluate(net_model, toy_ds, metrics=("l2", "h1", "gn", "rgn"))
        b = evaluate(net_model, shuffled, metrics=("l2", "h1", "gn", "rgn"))
        for key in a.accuracies:
            assert a.accuracies[key] == pytest.approx(b.accuracies[key],
                                                      rel=1e-12)

    def test_accuracies_bounded_above_by_one(self, toy_ds, net_model):
        report = evaluate(net_model, toy_ds)
        assert all(v <= 1.0 for v in report.accuracies.values())

    def test_all_skipped_metric_reports_null(self, tmp_path, toy_ds,
                                             net_model):
        # every stored sigma is 0, so h1, grad, gn and rgn skip every sample
        ds = dataclasses.replace(toy_ds.subset([0, 1]),
                                 jac_sigma=np.zeros((2, toy_ds.rank)))
        report = evaluate(net_model, ds, n_misfit=3)
        assert {k: v for k, v in report.accuracies.items() if v is None} \
            == dict.fromkeys(("h1", "grad", "gn", "rgn"))
        assert report.accuracies["l2"] is not None
        assert report.warnings == {"l2_skipped": 0, "h1_skipped": 2,
                                   "grad_skipped": 6, "gn_skipped": 2}
        report.save(tmp_path / "r")

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads((tmp_path / "r" / "report.json").read_text(),
                             parse_constant=reject)
        assert payload["accuracies"]["h1"] is None

    @pytest.mark.parametrize("kind", ["generic", "reduced"])
    def test_set_without_factors(self, ds17, kind):
        # the Jacobian metrics read the stored factors; l2 does not
        model = make_model(kind, ds17, seed=2)
        bare = Dataset(m=ds17.m, q=ds17.q)
        with pytest.raises(ValueError, match="lacks jac_u, jac_sigma, jac_v"):
            evaluate(model, bare)
        report = evaluate(model, bare, metrics=("l2",))
        assert report.accuracies == {"l2": l2_accuracy(model, ds17)[0]}

    @pytest.mark.parametrize("pct", [float("nan"), float("inf")])
    def test_non_finite_noise_scale_rejected(self, toy_ds, net_model, pct,
                                             monkeypatch):
        # raised before any metric runs, also when only l2 would run and
        # the report would record the scale
        def run(*args, **kwargs):
            raise AssertionError("a metric ran")

        for name in ("model_outputs", "l2_accuracy", "h1_seminorm_accuracy",
                     "gradient_accuracy", "gauss_newton_accuracies"):
            monkeypatch.setattr(metrics, name, run)
        for selected in (("l2",), metrics.METRICS):
            with pytest.raises(ValueError, match="noise scale"):
                evaluate(net_model, toy_ds, metrics=selected, noise_pct=pct)

    def test_nonfinite_accuracy_is_not_saved(self, tmp_path):
        report = EvalReport(accuracies={"l2": float("nan")})
        with pytest.raises(ValueError):
            report.save(tmp_path)
        assert not (tmp_path / "report.json").exists()


@pytest.fixture
def calls(monkeypatch):
    """Counts the model work the metrics do, by name."""
    counts = dict.fromkeys(("forward", "parametric_jacobian",
                            "project_factors"), 0)
    for name in counts:
        def counted(*args, _name=name, _real=getattr(metrics, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(metrics, name, counted)
    return counts


class TestOnePass:
    @pytest.mark.parametrize("kind", ["generic", "reduced"])
    def test_evaluate_runs_the_model_once(self, ds17, kind, calls):
        # one forward pass and one Jacobian read-off, of the net itself or
        # of a generic net's equivalent reduced-basis net
        evaluate(make_model(kind, ds17, seed=2), ds17)
        assert calls == {"forward": 1, "parametric_jacobian": 1,
                         "project_factors": 1}

    @pytest.mark.parametrize("kind", ["generic", "reduced"])
    def test_penalty_flops_count_training_only(self, ds17, kind):
        # the Jacobian read-offs charge their sweeps to a throwaway counter
        before = PENALTY_FLOPS.count
        evaluate(make_model(kind, ds17, seed=2), ds17)
        assert PENALTY_FLOPS.count == before

    @pytest.mark.parametrize("kind", ["generic", "reduced"])
    def test_l2_runs_no_tape(self, ds17, kind, calls):
        model = make_model(kind, ds17, seed=2)
        evaluate(model, ds17, metrics=("l2",))
        l2_accuracy(model, ds17)
        assert calls == {"forward": 2, "parametric_jacobian": 0,
                         "project_factors": 0}

    def test_record_comes_back_unchanged(self, ds17):
        record = model_outputs(make_model("reduced", ds17, seed=2), ds17)
        assert model_outputs(record, ds17) is record
        assert record.jac.shape == (17, 5, 6)
        assert len(record.projected) == 2
