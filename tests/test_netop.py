"""Neural operator: forward pass, exact Jacobians, and the hand-derived
weight gradients of every loss formulation (checked against finite
differences and against cross-formulation identities)."""

import json
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from reference import (
    make_generic,
    make_reduced,
    random_orthonormal,
    weights_of,
)
from scipy.special import expit

from derivop import datagen, netop
from derivop.bases import ReducedBasisPair
from derivop.datagen import Dataset, reduce_dataset
from derivop.io import LoadError, load_arrays, save_arrays
from derivop.netop import (
    PENALTY_FLOPS,
    _ACTIVATIONS,
    FlopCounter,
    MLPSpec,
    NetworkWeights,
    OperatorModel,
    _adjoint_sweep,
    _mlp_forward,
    _ms_target,
    _ms_weight,
    _penalty,
    _tangent_tape,
    forward,
    full_space_jacobian,
    as_reduced_basis,
    load_model,
    loss_and_grad,
    loss_set,
    parametric_jacobian,
    save_model,
)
from derivop.training import LossConfig


def batch_from_model(model, n, rng, exact=True, rank=None):
    """Batch whose targets come from the model itself (exact=True) or are
    random (exact=False); Jacobian factors are exact SVDs of dense targets."""
    d_m, d_q = model.d_m, model.d_q
    m = rng.standard_normal((n, d_m))
    r = rank or min(d_q, d_m)
    U = np.empty((n, d_q, r))
    S = np.empty((n, r))
    V = np.empty((n, d_m, r))
    if exact:
        q = np.atleast_2d(forward(model, m))
        dense = [full_space_jacobian(model, m[i]) for i in range(n)]
    else:
        q = rng.standard_normal((n, d_q))
        dense = [rng.standard_normal((d_q, d_m)) for _ in range(n)]
    for i, J in enumerate(dense):
        u, s, vt = np.linalg.svd(J, full_matrices=False)
        U[i], S[i], V[i] = u[:, :r], s[:r], vt[:r].T
    jac_r = None
    if model.kind == "reduced_basis":
        phi, psi = model.bases.phi, model.bases.psi
        jac_r = np.stack([phi.T @ ((U[i] * S[i]) @ V[i].T) @ psi
                          for i in range(n)])
    return Dataset(m=m, q=q, jac_u=U, jac_sigma=S, jac_v=V, jac_r=jac_r)


def off_phi_misfit(model, batch):
    """sum_i ||(I - Phi Phi^T)(q_i - b)||^2 / n: the w-independent part of
    the full-space misfit that a reduced-basis model's latent loss omits."""
    phi, b = model.bases.phi, model.bases.b
    off = (batch.q - b) - (batch.q - b) @ phi @ phi.T
    return float(np.sum(off**2)) / batch.n_samples


ALL_CFGS = [
    LossConfig(variant="l2"),
    LossConfig(variant="h1_full"),
    LossConfig(variant="h1_truncated"),
    LossConfig(variant="h1_truncated_ms", k=2),
]


class TestForward:
    def test_identity_linear_network(self):
        spec = MLPSpec(widths=(3, 3), activations=("linear",))
        weights = weights_of(spec, [(np.eye(3), np.zeros(3))])
        model = OperatorModel(kind="generic", spec=spec, weights=weights)
        m = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(forward(model, m), m)

    def test_reduced_zero_network_returns_shift(self):
        rng = np.random.default_rng(0)
        model = make_reduced(6, 4, 3, 2, (), rng)
        spec = MLPSpec(widths=(3, 2), activations=("linear",))
        model = OperatorModel(kind="reduced_basis", spec=spec,
                              weights=NetworkWeights(spec, np.zeros(spec.d_w)),
                              bases=model.bases)
        for _ in range(3):
            np.testing.assert_allclose(
                forward(model, rng.standard_normal(6)), model.bases.b)

    def test_softplus_at_zero(self):
        spec = MLPSpec(widths=(1, 1), activations=("softplus",))
        weights = weights_of(spec, [(np.eye(1), np.zeros(1))])
        model = OperatorModel(kind="generic", spec=spec, weights=weights)
        assert forward(model, np.zeros(1))[0] == pytest.approx(np.log(2.0))

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(1)
        model = make_generic(5, 3, (7,))
        M = rng.standard_normal((4, 5))
        batched = forward(model, M)
        for i in range(4):
            np.testing.assert_allclose(batched[i], forward(model, M[i]))

    def test_dimension_mismatch_rejected(self):
        model = make_generic(5, 3, (4,))
        with pytest.raises(ValueError):
            forward(model, np.zeros(6))


def within_ulps(got, ref, ulps):
    return np.all(np.abs(got - ref) <= ulps * np.spacing(np.abs(ref)))


class TestActivations:
    A = np.concatenate([np.linspace(-745.0, 745.0, 20001),
                        [0.0, 1e-300, -1e-300],
                        np.geomspace(1e-300, 745.0, 601),
                        -np.geomspace(1e-300, 745.0, 601)])

    @staticmethod
    def expit_ref(x):
        # scipy's expit underflows to 0 below about -709.78, where
        # expit(x) = exp(x) to double precision
        return np.where(x < -700.0, np.exp(np.minimum(x, -700.0)), expit(x))

    def test_softplus_matches_separate_passes(self):
        A = self.A
        value, d1, ratio = _ACTIVATIONS["softplus"](A)
        assert within_ulps(value, np.logaddexp(0.0, A), 4)
        assert within_ulps(d1, self.expit_ref(A), 4)
        assert within_ulps(ratio, self.expit_ref(-A), 4)

    def test_linear_is_exact(self):
        A = self.A.reshape(2, -1)
        value, d1, ratio = _ACTIVATIONS["linear"](A)
        assert value is A
        np.testing.assert_array_equal(d1, np.ones_like(A))
        np.testing.assert_array_equal(ratio, np.zeros_like(A))


class TestJacobian:
    def test_linear_network_jacobian_is_weight_matrix(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((3, 5))
        spec = MLPSpec(widths=(5, 3), activations=("linear",))
        weights = weights_of(spec, [(W, rng.standard_normal(3))])
        model = OperatorModel(kind="generic", spec=spec, weights=weights)
        np.testing.assert_allclose(parametric_jacobian(model, np.zeros(5)), W)

    def test_annihilates_basis_complements(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            model = make_reduced(9, 6, 4, 3, (5,), rng, seed=trial)
            m = rng.standard_normal(9)
            J = full_space_jacobian(model, m)
            psi, phi = model.bases.psi, model.bases.phi
            for _ in range(10):
                x = rng.standard_normal(9)
                x -= psi @ (psi.T @ x)  # right complement
                assert np.linalg.norm(J @ x) <= 1e-12 * max(
                    1.0, np.linalg.norm(J) * np.linalg.norm(x))
                y = rng.standard_normal(6)
                y -= phi @ (phi.T @ y)  # left complement
                assert np.linalg.norm(y @ J) <= 1e-12 * max(
                    1.0, np.linalg.norm(J) * np.linalg.norm(y))

    @staticmethod
    def assert_matches_finite_differences(model, rng):
        m = rng.standard_normal(model.d_m)
        J = full_space_jacobian(model, m)
        eps = 1e-6
        for _ in range(5):
            v = rng.standard_normal(model.d_m)
            fd = (forward(model, m + eps * v) - forward(model, m - eps * v)) \
                / (2 * eps)
            assert np.linalg.norm(fd - J @ v) <= 1e-6 * max(
                1.0, np.linalg.norm(J @ v))

    # the output is narrower than the input: the adjoint sweep
    @pytest.mark.parametrize("kind", ["generic", "reduced_basis"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(4)
        if kind == "generic":
            model = make_generic(6, 4, (8, 8))
        else:
            model = make_reduced(6, 4, 4, 3, (8,), rng)
        self.assert_matches_finite_differences(model, rng)

    # the output is wider than the input: the tangent tape
    @pytest.mark.parametrize("kind", ["generic", "reduced_basis"])
    def test_wide_output_matches_finite_differences(self, kind):
        rng = np.random.default_rng(4)
        if kind == "generic":
            model = make_generic(4, 6, (8, 8))
        else:
            model = make_reduced(6, 5, 3, 4, (8,), rng)
        self.assert_matches_finite_differences(model, rng)

    @pytest.mark.parametrize("widths", [(5, 7, 3), (3, 7, 5), (4, 6, 4)],
                             ids=["narrow-out", "wide-out", "tie"])
    def test_sweeps_agree(self, widths):
        # A_i^T J_i B_i off the tangent tape and off the adjoint sweep, with
        # identity and explicit seeds on either side
        rng = np.random.default_rng(17)
        spec = MLPSpec(widths=widths, activations=("softplus",) * 2)
        weights = NetworkWeights.init(spec)
        layers = weights.layers()
        n = 3
        _, d1s, _ = _mlp_forward(weights, rng.standard_normal((n, widths[0])))
        A = rng.standard_normal((n, widths[-1], 2))
        B = rng.standard_normal((n, widths[0], 4))
        for a, b in ((None, None), (A, None), (None, B), (A, B)):
            T0 = None if b is None else np.ascontiguousarray(
                b.transpose(2, 0, 1))
            *_, T = _tangent_tape(layers, d1s, T0, FlopCounter())
            fwd = T.transpose(1, 2, 0)
            if a is not None:
                fwd = a.transpose(0, 2, 1) @ fwd
            QL = None if a is None else np.ascontiguousarray(
                a.transpose(2, 0, 1))
            *_, (Q, _) = _adjoint_sweep(layers, d1s, QL, FlopCounter())
            adj = Q.transpose(1, 0, 2)
            if b is not None:
                adj = adj @ b
            np.testing.assert_allclose(adj, fwd, rtol=1e-13, atol=1e-14)


class TestLossAndGrad:
    @pytest.mark.parametrize("cfg", ALL_CFGS, ids=lambda c: c.variant)
    @pytest.mark.parametrize("kind", ["generic", "reduced_basis"])
    def test_interpolating_model_is_stationary(self, cfg, kind):
        rng = np.random.default_rng(5)
        if kind == "generic":
            model = make_generic(5, 4, (6,))
        else:
            model = make_reduced(5, 4, 3, 2, (6,), rng)
        batch = batch_from_model(model, 3, rng, exact=True)
        ms_idx = (np.array([0, 2]), np.array([0, 2])) \
            if cfg.variant == "h1_truncated_ms" else None
        loss, grad = loss_and_grad(model, batch, cfg, ms_idx=ms_idx)
        assert loss == pytest.approx(0.0, abs=1e-18)
        assert np.max(np.abs(grad)) <= 1e-12

    @pytest.mark.parametrize("cfg", ALL_CFGS, ids=lambda c: c.variant)
    @pytest.mark.parametrize("kind", ["generic", "reduced_basis"])
    def test_gradient_matches_finite_differences(self, cfg, kind):
        rng = np.random.default_rng(6)
        if kind == "generic":
            model = make_generic(4, 3, (5,))
        else:
            model = make_reduced(4, 3, 3, 2, (5,), rng)
        batch = batch_from_model(model, 4, rng, exact=False)
        ms_idx = (np.array([1, 2]), np.array([0, 2])) \
            if cfg.variant == "h1_truncated_ms" else None

        def f(w):
            return loss_and_grad(model.with_weights(w), batch, cfg,
                                 ms_idx=ms_idx)[0]

        w0 = model.weights.flat.copy()
        _, grad = loss_and_grad(model, batch, cfg, ms_idx=ms_idx)
        eps = 1e-6
        scale = max(1.0, np.max(np.abs(grad)))
        for j in range(len(w0)):
            e = np.zeros_like(w0)
            e[j] = eps
            fd = (f(w0 + e) - f(w0 - e)) / (2 * eps)
            assert abs(fd - grad[j]) <= 1e-5 * scale, \
                f"coordinate {j}: fd {fd} vs analytic {grad[j]}"

    def test_reduced_and_materialized_penalty_gradients_agree(self):
        # Embed the reduced-basis model as an equivalent generic network
        # (extra frozen linear layers holding Psi^T and Phi) and compare the
        # dense full-space penalty gradient against the latent one.
        rng = np.random.default_rng(7)
        d_m, d_q, r_in, r_out = 7, 5, 4, 3
        for trial in range(10):
            reduced = make_reduced(d_m, d_q, r_in, r_out, (6,), rng,
                                   seed=trial)
            psi, phi, b = (reduced.bases.psi, reduced.bases.phi,
                           reduced.bases.b)
            inner = reduced.weights.layers()
            widths = (d_m, r_in) + tuple(reduced.spec.widths[1:]) + (d_q,)
            acts = ("linear",) + reduced.spec.activations + ("linear",)
            gspec = MLPSpec(widths=widths, activations=acts)
            glayers = [(psi.T, np.zeros(r_in))] + list(inner) + [(phi, b)]
            generic = OperatorModel(
                kind="generic", spec=gspec,
                weights=weights_of(gspec, glayers))
            batch = batch_from_model(generic, 3, rng, exact=False)
            batch.jac_r = np.stack([
                phi.T @ ((batch.jac_u[i] * batch.jac_sigma[i])
                         @ batch.jac_v[i].T) @ psi
                for i in range(batch.n_samples)])
            cfg = LossConfig(variant="h1_full", h1_weight=0.7)
            _, g_full = loss_and_grad(generic, batch, cfg)
            _, g_red = loss_and_grad(reduced, batch, cfg)
            # slice out the shared inner-layer gradient from the generic net
            first = r_in * d_m + r_in
            inner_len = len(g_red)
            np.testing.assert_allclose(
                g_full[first:first + inner_len], g_red,
                rtol=1e-10, atol=1e-10 * max(1.0, np.max(np.abs(g_red))))

    def test_truncated_reduced_matches_dense_evaluation(self):
        # the factored penalty equals a brute-force dense computation; the
        # latent misfit lacks the part of q - b off Phi
        rng = np.random.default_rng(8)
        model = make_reduced(6, 5, 4, 3, (7,), rng)
        batch = batch_from_model(model, 2, rng, exact=False)
        cfg = LossConfig(variant="h1_truncated", h1_weight=1.0)
        loss, _ = loss_and_grad(model, batch, cfg)
        expected = float(np.mean(np.sum(
            (np.atleast_2d(forward(model, batch.m)) - batch.q) ** 2, axis=1)))
        expected -= off_phi_misfit(model, batch)
        n = batch.n_samples
        for i in range(n):
            Jw = full_space_jacobian(model, batch.m[i])
            U, s, V = batch.jac_u[i], batch.jac_sigma[i], batch.jac_v[i]
            expected += np.sum((np.diag(s) - U.T @ Jw @ V) ** 2) / n
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_missing_jacobian_data_rejected(self):
        rng = np.random.default_rng(9)
        model = make_generic(4, 3, (5,))
        batch = Dataset(m=rng.standard_normal((2, 4)),
                        q=rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            loss_and_grad(model, batch, LossConfig(variant="h1_truncated"))


# --- per-sample loop reference -------------------------------------------------
# The double-backprop algorithm as it ran before the batched sweeps:
# one sample at a time, penalty in factored order (B up the first half of
# the chain, A^T down the second), then the weight gradient of <M, J(w)>
# from explicit partial Jacobian products.  Kept only to check the batched
# implementation against.

def _loop_forward(model, X):
    zs, d1s, d2s = [X], [], []
    for (W, b), name in zip(model.weights.layers(), model.spec.activations):
        a = zs[-1] @ W.T + b
        if name == "linear":
            zs.append(a)
            d1s.append(np.ones_like(a))
            d2s.append(np.zeros_like(a))
        else:
            s = 1.0 / (1.0 + np.exp(-a))
            zs.append(np.logaddexp(0.0, a))
            d1s.append(s)
            d2s.append(s * (1.0 - s))
    return zs, d1s, d2s


def _loop_penalty(layers, d1, A, B, C, wgt):
    L = len(layers)
    mid = L // 2
    Rh = B
    for l in range(mid):
        W = layers[l][0]
        Rh = d1[l][:, None] * (W if Rh is None else W @ Rh)
    Lh = None if A is None else A.T
    for l in range(L - 1, mid - 1, -1):
        W = layers[l][0]
        Lh = d1[l][:, None] * W if Lh is None else (Lh * d1[l][None, :]) @ W
    S = Rh if Lh is None else Lh if Rh is None else Lh @ Rh
    E = S - C
    return E, float(np.sum(E**2 if wgt is None else wgt * E**2))


def _loop_accumulate(layers, zs, d1, d2, M, gWs, gbs, seed):
    L = len(layers)
    seeds = [0.0] * L
    if M is not None:
        Jparts, Rs = [np.eye(layers[0][0].shape[1])], []
        for (W, _), d in zip(layers, d1):
            Rs.append(W @ Jparts[-1])
            Jparts.append(d[:, None] * Rs[-1])
        G = M
        for l in range(L - 1, -1, -1):
            DG = d1[l][:, None] * G
            gWs[l] += DG @ Jparts[l].T
            seeds[l] = d2[l] * np.sum(G * Rs[l], axis=1)
            G = layers[l][0].T @ DG
    c = seed
    for l in range(L - 1, -1, -1):
        g_a = c * d1[l] + seeds[l]
        gbs[l] += g_a
        gWs[l] += np.outer(g_a, zs[l])
        c = layers[l][0].T @ g_a


def _loop_terms(model, batch, cfg, i, ms_idx):
    if cfg.variant == "h1_full":
        if model.kind == "reduced_basis":
            return None, None, batch.jac_r[i], None
        dense = (batch.jac_u[i] * batch.jac_sigma[i]) @ batch.jac_v[i].T
        return None, None, dense, None
    U, sigma, V = batch.jac_u[i], batch.jac_sigma[i], batch.jac_v[i]
    if cfg.variant == "h1_truncated":
        A, B, C, wgt = U, V, np.diag(sigma), None
    else:
        ridx, cidx = ms_idx
        A, B = U[:, ridx], V[:, cidx]
        C = _ms_target(sigma, ridx, cidx)
        wgt = _ms_weight(len(sigma), ridx, cidx, cfg.ms_mode) \
            if cfg.ms_rescale else None
    if model.kind == "reduced_basis":
        A, B = model.bases.phi.T @ A, model.bases.psi.T @ B
    return A, B, C, wgt


def loop_loss_and_grad(model, batch, cfg, ms_idx=None):
    """Per-sample reference for ``loss_and_grad`` (unprojected batches)."""
    layers = model.weights.layers()
    n = batch.n_samples
    full_space = model.kind == "reduced_basis" and not batch.latent
    X = batch.m @ model.bases.psi if full_space else batch.m
    zs, d1s, d2s = _loop_forward(model, X)
    if full_space:
        res = zs[-1] @ model.bases.phi.T + model.bases.b - batch.q
        seeds = (2.0 / n) * (res @ model.bases.phi)
    else:
        res = zs[-1] - batch.q
        seeds = (2.0 / n) * res
    loss = float(np.sum(res**2)) / n
    gWs = [np.zeros_like(W) for W, _ in layers]
    gbs = [np.zeros_like(b) for _, b in layers]
    for i in range(n):
        d1 = [d[i] for d in d1s]
        M = None
        if cfg.variant != "l2":
            A, B, C, wgt = _loop_terms(model, batch, cfg, i, ms_idx)
            E, pen = _loop_penalty(layers, d1, A, B, C, wgt)
            loss += cfg.h1_weight * pen / n
            M = (2.0 * cfg.h1_weight / n) * (E if wgt is None else wgt * E)
            if A is not None:
                M = A @ M
            if B is not None:
                M = M @ B.T
        _loop_accumulate(layers, [z[i] for z in zs], d1, [d[i] for d in d2s],
                         M, gWs, gbs, seeds[i])
    return loss, weights_of(model.spec, list(zip(gWs, gbs))).flat


REFERENCE_CFGS = [
    LossConfig(variant="l2"),
    LossConfig(variant="h1_full", h1_weight=0.7),
    LossConfig(variant="h1_truncated", h1_weight=1.3),
    *(LossConfig(variant="h1_truncated_ms", k=3, ms_mode=mode,
                 ms_rescale=rescale)
      for mode in ("dependent", "independent") for rescale in (False, True)),
]


def _cfg_id(cfg):
    if cfg.variant != "h1_truncated_ms":
        return cfg.variant
    return f"ms-{cfg.ms_mode}-{'rescaled' if cfg.ms_rescale else 'plain'}"


def _ms_draw(cfg, r, rng):
    if cfg.variant != "h1_truncated_ms":
        return None
    ridx = rng.choice(r, size=cfg.k, replace=False)
    cidx = ridx if cfg.ms_mode == "dependent" \
        else rng.choice(r, size=cfg.k, replace=False)
    return ridx, cidx


def assert_matches_reference(got, want):
    (loss, grad), (ref_loss, ref_grad) = got, want
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)


class TestBatchedTapeVsLoop:
    """Both batched sweeps reproduce the per-sample loop."""

    @pytest.mark.parametrize("cfg", REFERENCE_CFGS, ids=_cfg_id)
    @pytest.mark.parametrize("kind", ["generic", "generic_softplus_out",
                                      "reduced_basis"])
    def test_full_space_batches(self, cfg, kind):
        rng = np.random.default_rng(12)
        if kind == "generic":
            model = make_generic(7, 5, (6, 4), seed=2)
        elif kind == "generic_softplus_out":
            spec = MLPSpec(widths=(7, 6, 5), activations=("softplus",) * 2,
                           init_seed=2)
            model = OperatorModel(kind="generic", spec=spec,
                                  weights=NetworkWeights.init(spec))
        else:
            model = make_reduced(7, 5, 5, 4, (6, 4), rng, seed=2)
        batch = batch_from_model(model, 5, rng, exact=False, rank=4)
        ms_idx = _ms_draw(cfg, 4, rng)
        loss, grad = loop_loss_and_grad(model, batch, cfg, ms_idx=ms_idx)
        got = loss_and_grad(model, batch, cfg, ms_idx=ms_idx)
        if kind == "reduced_basis":
            # the reduced batch's loss is latent: it is the loss of the set
            # that reduce_dataset returns, without the misfit off Phi
            loss -= off_phi_misfit(model, batch)
            latent = reduce_dataset(batch, model.bases, True)
            l_loss, l_grad = loss_and_grad(model, latent, cfg, ms_idx=ms_idx)
            assert got[0] == l_loss
            np.testing.assert_array_equal(got[1], l_grad)
        assert_matches_reference(got, (loss, grad))

    # The fixtures above have a narrower output, so their h1_full penalty
    # takes the adjoint sweep; a wider output or a tie keeps the tangent tape.
    @pytest.mark.parametrize("kind,d_m,d_q,r_in,r_out", [
        ("generic", 5, 7, None, None),
        ("generic", 6, 6, None, None),
        ("reduced_basis", 7, 9, 4, 5),
        ("reduced_basis", 7, 9, 5, 5),
    ], ids=["generic-wide-out", "generic-tie", "reduced-wide-out",
            "reduced-tie"])
    def test_h1_full_tangent_tape(self, kind, d_m, d_q, r_in, r_out):
        rng = np.random.default_rng(18)
        if kind == "generic":
            model = make_generic(d_m, d_q, (6, 4), seed=2)
        else:
            model = make_reduced(d_m, d_q, r_in, r_out, (6, 4), rng, seed=2)
        cfg = REFERENCE_CFGS[1]
        batch = batch_from_model(model, 5, rng, exact=False)
        loss, grad = loop_loss_and_grad(model, batch, cfg)
        if kind == "reduced_basis":
            loss -= off_phi_misfit(model, batch)
        assert_matches_reference(loss_and_grad(model, batch, cfg),
                                 (loss, grad))

    # Row and column draws of unequal size put explicit factors A_i and B_i
    # on both sides of either sweep: fewer rows take the adjoint sweep.
    @pytest.mark.parametrize("rows,cols", [(2, 3), (3, 2)],
                             ids=["adjoint", "tangent"])
    @pytest.mark.parametrize("rescale", [False, True],
                             ids=["plain", "rescaled"])
    @pytest.mark.parametrize("kind", ["generic", "reduced_basis"])
    def test_factor_seeds_on_either_side(self, kind, rescale, rows, cols):
        rng = np.random.default_rng(19)
        if kind == "generic":
            model = make_generic(7, 5, (6, 4), seed=2)
        else:
            model = make_reduced(7, 5, 5, 4, (6, 4), rng, seed=2)
        batch = batch_from_model(model, 5, rng, exact=False, rank=4)
        cfg = LossConfig(variant="h1_truncated_ms", k=rows,
                         ms_mode="dependent", ms_rescale=rescale)
        ms_idx = (rng.choice(4, size=rows, replace=False),
                  rng.choice(4, size=cols, replace=False))
        loss, grad = loop_loss_and_grad(model, batch, cfg, ms_idx=ms_idx)
        if kind == "reduced_basis":
            loss -= off_phi_misfit(model, batch)
        assert_matches_reference(
            loss_and_grad(model, batch, cfg, ms_idx=ms_idx), (loss, grad))

    @pytest.mark.parametrize("cfg", REFERENCE_CFGS[:2], ids=_cfg_id)
    def test_reduced_latent_batches(self, cfg):
        rng = np.random.default_rng(13)
        model = make_reduced(9, 6, 5, 4, (6, 6), rng, seed=3)
        batch = Dataset(m=rng.standard_normal((6, 5)),
                        q=rng.standard_normal((6, 4)),
                        jac_r=rng.standard_normal((6, 4, 5)), latent=True)
        assert_matches_reference(loss_and_grad(model, batch, cfg),
                                 loop_loss_and_grad(model, batch, cfg))

    @pytest.mark.parametrize("cfg", REFERENCE_CFGS, ids=_cfg_id)
    def test_reduced_latent_factor_batches(self, cfg):
        # full-rank factors and no jac_r: reduce_dataset derives jac_r
        # exactly, and its latent set trains to the full-space gradient
        rng = np.random.default_rng(16)
        model = make_reduced(7, 5, 5, 4, (6, 4), rng, seed=2)
        batch = batch_from_model(model, 5, rng, exact=False)
        ms_idx = _ms_draw(cfg, batch.jac_sigma.shape[1], rng)
        want = loop_loss_and_grad(model, batch, cfg, ms_idx=ms_idx)
        ds = Dataset(m=batch.m, q=batch.q, jac_u=batch.jac_u,
                     jac_sigma=batch.jac_sigma, jac_v=batch.jac_v, meta={})
        latent = reduce_dataset(ds, model.bases, True)
        loss, grad = loss_and_grad(model, latent, cfg, ms_idx=ms_idx)
        assert_matches_reference((loss + off_phi_misfit(model, batch), grad),
                                 want)

    def test_latent_batch_needs_reduced_model(self):
        rng = np.random.default_rng(14)
        model = make_generic(4, 3, (5,))
        batch = batch_from_model(model, 2, rng, exact=False)
        batch.latent = True
        with pytest.raises(ValueError):
            loss_and_grad(model, batch, LossConfig(variant="h1_truncated"))

    @pytest.mark.parametrize("kind", ["generic", "reduced_basis"])
    def test_batched_jacobian_rows_equal_single_calls(self, kind):
        rng = np.random.default_rng(15)
        if kind == "generic":
            model = make_generic(6, 4, (8, 8))
        else:
            model = make_reduced(9, 6, 5, 4, (8,), rng)
        M = rng.standard_normal((5, model.d_m))
        batched = parametric_jacobian(model, M)
        assert batched.shape == (5, *parametric_jacobian(model, M[0]).shape)
        # BLAS may block a 5-row GEMM differently from a 1-row one, so rows
        # agree to a few float64 ulps rather than bitwise.
        for i in range(5):
            np.testing.assert_allclose(batched[i],
                                       parametric_jacobian(model, M[i]),
                                       rtol=1e-13, atol=1e-15)


class TestLossSet:
    """``loss_set`` is the one rule for what a loss reads of a set."""

    @pytest.mark.parametrize("cfg", ALL_CFGS, ids=_cfg_id)
    def test_full_space_batch_reads_its_loss_set(self, cfg, monkeypatch):
        # loss_and_grad projects a full-space batch through loss_set, so
        # the two calls are one computation
        rng = np.random.default_rng(21)
        model = make_reduced(7, 5, 5, 4, (6, 4), rng, seed=2)
        batch = batch_from_model(model, 5, rng, exact=False, rank=4)
        ms_idx = _ms_draw(cfg, 4, rng)
        want = loss_and_grad(model, loss_set(model, batch, cfg), cfg,
                             ms_idx=ms_idx)
        projections = []
        real = datagen.project_factors
        monkeypatch.setattr(datagen, "project_factors",
                            lambda *a: projections.append(1) or real(*a))
        loss, grad = loss_and_grad(model, batch, cfg, ms_idx=ms_idx)
        assert loss == want[0]
        np.testing.assert_array_equal(grad, want[1])
        # l2 reads no Jacobian field, so none is projected
        assert len(projections) == (cfg.variant != "l2")

    @pytest.mark.parametrize("kind", ["generic", "reduced_basis"])
    @pytest.mark.parametrize("cfg", ALL_CFGS, ids=_cfg_id)
    def test_fields_read(self, cfg, kind):
        rng = np.random.default_rng(22)
        model = make_generic(7, 5, (6,)) if kind == "generic" \
            else make_reduced(7, 5, 5, 4, (6,), rng)
        batch = batch_from_model(model, 3, rng, exact=False, rank=4)
        batch.meta = {"n_samples": 3}
        got = loss_set(model, batch, cfg)
        factors = ("jac_u", "jac_sigma", "jac_v")
        want = set() if cfg.variant == "l2" else {"jac_r"} \
            if cfg.variant == "h1_full" and kind == "reduced_basis" \
            else set(factors)
        assert {f for f in (*factors, "jac_r")
                if getattr(got, f) is not None} == want
        assert got.meta is None
        assert got.latent == (kind == "reduced_basis")


class TestAsReducedBasis:
    """A generic net is the reduced-basis net on the QR of its first layer."""

    @pytest.mark.parametrize("hidden", [(), (4,), (9, 3), (12, 6)],
                             ids=["one-layer", "n1<dM", "n1>dM", "n1>dM-deep"])
    def test_same_map_and_jacobian(self, hidden):
        rng = np.random.default_rng(24)
        model = make_generic(7, 5, hidden, seed=3)
        net = as_reduced_basis(model)
        assert net.kind == "reduced_basis" and net.d_m == 7 and net.d_q == 5
        assert net.spec.d_in == min(model.spec.widths[1], 7)
        M = rng.standard_normal((4, 7))
        np.testing.assert_allclose(forward(net, M), forward(model, M),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            parametric_jacobian(net, M) @ net.bases.psi.T,
            parametric_jacobian(model, M), rtol=0, atol=1e-13)

    def test_reduced_basis_net_is_itself(self):
        model = make_reduced(7, 5, 5, 4, (6,), np.random.default_rng(25))
        assert as_reduced_basis(model) is model


def read_off_net(kind):
    """A dipnet, or a generic net's equivalent reduced-basis net (its Psi an
    F-ordered Q), both at the dino-pipeline benchmark's latent widths."""
    if kind == "dipnet":
        return make_reduced(60, 30, 50, 25, (50, 50),
                            np.random.default_rng(26), seed=2)
    return as_reduced_basis(make_generic(60, 30, (50, 50), seed=2))


class TestOneTapeReadOff:
    """parametric_jacobian runs one forward tape over all rows and reads J
    off it in blocks of _BLOCK_ROWS rows."""

    @pytest.mark.parametrize("n", [17, 64])
    @pytest.mark.parametrize("kind", ["dipnet", "generic"])
    def test_one_tape_bitwise_equal_to_block_reads(self, kind, n,
                                                   monkeypatch):
        net = read_off_net(kind)
        M = np.random.default_rng(27).standard_normal((n, net.d_m))
        calls = []

        def counted(weights, X, _real=netop._mlp_forward):
            calls.append(X.shape)
            return _real(weights, X)

        monkeypatch.setattr(netop, "_mlp_forward", counted)
        J = parametric_jacobian(net, M)
        assert len(calls) == 1
        # each block reads as it would alone, whatever GEMM kernel BLAS
        # picks for a row count (the 1-row tail of 17 included)
        blocks = [parametric_jacobian(net, M[k:k + netop._BLOCK_ROWS])
                  for k in range(0, n, netop._BLOCK_ROWS)]
        np.testing.assert_array_equal(J, np.concatenate(blocks))

    @pytest.mark.parametrize("kind", ["generic", "reduced_basis"])
    def test_empty_single_and_partial_reads(self, kind):
        rng = np.random.default_rng(28)
        model = make_generic(6, 4, (8, 8)) if kind == "generic" \
            else make_reduced(9, 6, 5, 4, (8,), rng)
        shape = (model.d_q, model.d_m) if kind == "generic" \
            else (model.spec.d_out, model.spec.d_in)
        assert parametric_jacobian(model, np.empty((0, model.d_m))).shape \
            == (0, *shape)
        M = rng.standard_normal((11, model.d_m))  # 11 % _BLOCK_ROWS != 0
        J = parametric_jacobian(model, M)
        assert J.shape == (11, *shape)
        for i in (0, 7, 8, 10):
            single = parametric_jacobian(model, M[i])
            assert single.shape == shape
            np.testing.assert_allclose(J[i], single, rtol=1e-13, atol=1e-15)


# --- multiply counts -------------------------------------------------------
# PENALTY_FLOPS counts the penalty's evaluation path: the sweep, the read-off
# of A^T J B and the residual E.  The hand counts below are per sample, for
# h1_full (identity seeds on both sides) on a net of the given widths.

def tangent_flops(widths):
    cols = widths[0]
    count = widths[1] * cols  # T_1 = d1_1 * W_1
    for w_in, w_out in zip(widths[1:-1], widths[2:]):
        count += (w_out * w_in + w_out) * cols
    return count + widths[-1] * cols  # E


def adjoint_flops(widths):
    rows = widths[-1]
    count = widths[-2] * rows  # Q_{L-1} = W_L^T diag(d1_L)
    for w_in, w_out in zip(widths[:-2], widths[1:-1]):
        count += (w_out + w_out * w_in) * rows
    return count + rows * widths[0]  # E


DINO_LATENT = (50,) + (50,) * 6 + (25,)


class TestPenaltyFlops:
    """Deterministic multiply counts: no timing."""

    @pytest.fixture
    def dino_latent(self):
        # benchmark dipnet shapes: r_M = 50, six hidden layers of 50,
        # r_Q = rank = 25, batch 16
        rng = np.random.default_rng(20)
        n, r = 16, 25
        bases = ReducedBasisPair(psi=np.eye(50), phi=np.eye(25),
                                 b=np.zeros(25))
        spec = MLPSpec.dense(DINO_LATENT, init_seed=1)
        model = OperatorModel(kind="reduced_basis", spec=spec,
                              weights=NetworkWeights.init(spec), bases=bases)
        batch = Dataset(
            m=rng.standard_normal((n, 50)), q=rng.standard_normal((n, 25)),
            jac_u=random_orthonormal(25, r, rng)[None].repeat(n, 0),
            jac_sigma=rng.random((n, r)),
            jac_v=random_orthonormal(50, r, rng)[None].repeat(n, 0),
            jac_r=rng.standard_normal((n, 25, 50)), latent=True)
        return model, batch

    @staticmethod
    def count(model, batch, cfg, ms_idx=None):
        PENALTY_FLOPS.count = 0
        loss_and_grad(model, batch, cfg, ms_idx=ms_idx)
        return PENALTY_FLOPS.count

    def test_h1_full_takes_the_adjoint_sweep(self, dino_latent):
        got = self.count(*dino_latent, LossConfig(variant="h1_full"))
        assert got == 16 * adjoint_flops(DINO_LATENT) == 6_160_000
        assert got <= 0.6 * 16 * tangent_flops(DINO_LATENT)

    def test_ties_keep_the_tangent_tape(self, dino_latent):
        # rows == cols for both truncated penalties, so they keep the tangent
        # tape: 16 * 430625 and 16 * 168450 multiplies
        assert self.count(*dino_latent, LossConfig(variant="h1_truncated")) \
            == 6_890_000
        idx = (np.arange(10), np.arange(10))
        cfg = LossConfig(variant="h1_truncated_ms", k=10, ms_rescale=True)
        assert self.count(*dino_latent, cfg, ms_idx=idx) == 2_695_200

    @pytest.mark.parametrize("widths", [(6, 5, 4), (4, 5, 6), (5, 5, 5)],
                             ids=["narrow-out", "wide-out", "tie"])
    def test_mode_follows_the_shapes(self, widths):
        rng = np.random.default_rng(21)
        model = make_generic(widths[0], widths[-1], widths[1:-1])
        batch = batch_from_model(model, 3, rng, exact=False)
        want = adjoint_flops(widths) if widths[-1] < widths[0] \
            else tangent_flops(widths)
        assert self.count(model, batch, LossConfig(variant="h1_full")) \
            == 3 * want


def tangent_item_flops(widths, n, cols, identity):
    """Multiplies of each T_l, l = 1..L: its GEMM (none off an identity
    T_0) and its d1 scaling."""
    return [n * cols * (w_out + (0 if identity and l == 0 else w_out * w_in))
            for l, (w_in, w_out) in enumerate(zip(widths, widths[1:]))]


def adjoint_item_flops(widths, n, rows, identity):
    """Multiplies of each (Q_l, P_l), l = L..0: Q_l's GEMM (none for the
    seed Q_L, a d1 scaling for Q_{L-1} off an identity Q_L) and the d1
    scaling P_l = d1_l * Q_l (none for an identity Q_L or for Q_0)."""
    L = len(widths) - 1
    items = []
    for l in range(L, -1, -1):
        form_q = 0 if l == L else widths[l] * (
            1 if identity and l == L - 1 else widths[l + 1])
        form_p = 0 if l == 0 or (identity and l == L) else widths[l]
        items.append(n * rows * (form_q + form_p))
    return items


class TestLazySweeps:
    """Each pull of a sweep forms only the arrays it yields, so a consumer
    that stops early pays for nothing more: the penalty gradient never
    forms Q_0, nor T_L after an identity Q_L."""

    WIDTHS = (5, 7, 6, 3)
    N = 4

    def sweep_inputs(self, n=N):
        rng = np.random.default_rng(22)
        spec = MLPSpec(widths=self.WIDTHS, activations=("softplus",) * 3)
        weights = NetworkWeights.init(spec)
        _, d1s, ratios = _mlp_forward(weights,
                                      rng.standard_normal((n, spec.d_in)))
        return weights.layers(), d1s, ratios, rng

    @pytest.mark.parametrize("identity", [False, True],
                             ids=["explicit", "identity"])
    @pytest.mark.parametrize("k", range(4))
    def test_tangent_tape(self, k, identity):
        layers, d1s, _, rng = self.sweep_inputs()
        cols = self.WIDTHS[0] if identity else 2
        T0 = None if identity else rng.standard_normal(
            (cols, self.N, self.WIDTHS[0]))
        flops = FlopCounter()
        got = list(islice(_tangent_tape(layers, d1s, T0, flops), k))
        assert [T.shape for T in got] == \
            [(cols, self.N, w) for w in self.WIDTHS[1:k + 1]]
        assert all(T.flags.c_contiguous for T in got)
        assert flops.count == sum(
            tangent_item_flops(self.WIDTHS, self.N, cols, identity)[:k])

    @pytest.mark.parametrize("identity", [False, True],
                             ids=["explicit", "identity"])
    @pytest.mark.parametrize("k", range(5))
    def test_adjoint_sweep(self, k, identity):
        layers, d1s, _, rng = self.sweep_inputs()
        rows = self.WIDTHS[-1] if identity else 2
        QL = None if identity else rng.standard_normal(
            (rows, self.N, self.WIDTHS[-1]))
        flops = FlopCounter()
        got = list(islice(_adjoint_sweep(layers, d1s, QL, flops), k))
        widths = self.WIDTHS[::-1][:k]
        for l, (w, (Q, P)) in enumerate(zip(widths, got)):
            if identity and l == 0:
                assert Q is None and P is None
                continue
            assert Q.shape == (rows, self.N, w)
            assert Q.flags.c_contiguous
            if l == len(layers):
                assert P is None
            else:
                assert P.flags.c_contiguous
                np.testing.assert_array_equal(P, Q * d1s[-1 - l])
        assert flops.count == sum(
            adjoint_item_flops(self.WIDTHS, self.N, rows, identity)[:k])

    # No sweep may write over its seed: the adjoint seed (rows, n, n_L) is a
    # view of the caller's A, and with one column per sample the tangent
    # seed (cols, n, n_0) is a view of B, since np.ascontiguousarray does not
    # copy a contiguous transpose.
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("rows,cols", [(2, 3), (3, 2), (1, 3), (3, 1)],
                             ids=["adjoint", "tangent", "adjoint-view",
                                  "tangent-view"])
    def test_penalty_leaves_its_factors_unchanged(self, n, rows, cols):
        layers, d1s, ratios, rng = self.sweep_inputs(n)
        A = rng.standard_normal((n, self.WIDTHS[-1], rows))
        B = rng.standard_normal((n, self.WIDTHS[0], cols))
        A0, B0 = A.copy(), B.copy()
        S, pairs = _penalty(layers, d1s, ratios, A, B, FlopCounter())
        pairs(rng.standard_normal(S.shape))
        np.testing.assert_array_equal(A, A0)
        np.testing.assert_array_equal(B, B0)

    def test_kept_adjoint_sweep_lends_its_p(self, monkeypatch):
        # With an identity Q_L (rows 3 < cols 5), the gradient reads each
        # P_l that the kept sweep formed rather than forming it again
        layers, d1s, ratios, rng = self.sweep_inputs()
        yielded, received = [], []
        sweep, layer_pair = netop._adjoint_sweep, netop._layer_pair

        def recorded_sweep(*args):
            for Q, P in sweep(*args):
                yielded.append(P)
                yield Q, P

        def recorded_pair(*args):
            received.append(args[-1])
            return layer_pair(*args)

        monkeypatch.setattr(netop, "_adjoint_sweep", recorded_sweep)
        monkeypatch.setattr(netop, "_layer_pair", recorded_pair)
        S, pairs = _penalty(layers, d1s, ratios, None, None, FlopCounter())
        pairs(rng.standard_normal(S.shape))
        *below, top = received  # layers 1..L-1, then L
        assert top is None and len(below) == len(layers) - 1
        assert all(P is Y for P, Y in zip(below, yielded[-2:0:-1]))

    @pytest.mark.parametrize("widths", [(64,) * 7 + (16,), (16,) + (64,) * 7],
                             ids=["adjoint", "tangent"])
    def test_read_off_keeps_no_sweep_array(self, widths):
        # A read-off passes no ratios, so the picked sweep keeps none of its
        # (16, n, 64) arrays: the peak holds a few of them and the forward
        # tape, where keeping one per layer would take 7 on top of the tape
        model = make_generic(widths[0], widths[-1], widths[1:-1])
        m = np.random.default_rng(24).standard_normal((64, widths[0]))
        parametric_jacobian(model, m)
        tracemalloc.start()
        try:
            parametric_jacobian(model, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * (16 * 64 * 64 * 8)


class TestPersistence:
    def test_generic_round_trip(self, tmp_path):
        model = make_generic(5, 3, (6, 6), seed=4)
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.kind == "generic"
        assert back.spec == model.spec
        np.testing.assert_array_equal(back.weights.flat, model.weights.flat)

    def test_reduced_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        model = make_reduced(8, 5, 4, 3, (6,), rng)
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        np.testing.assert_array_equal(back.bases.psi, model.bases.psi)
        np.testing.assert_array_equal(back.bases.phi, model.bases.phi)
        np.testing.assert_array_equal(back.bases.b, model.bases.b)
        m = rng.standard_normal(8)
        np.testing.assert_array_equal(forward(back, m), forward(model, m))

    @pytest.mark.parametrize("widths", [None, [5, 6, 4]])
    def test_malformed_manifest_rejected(self, tmp_path, widths):
        # a missing key raises KeyError, widths that disagree with the
        # stored weight vector ValueError; both must surface as LoadError
        save_model(make_generic(5, 3, (6, 6)), tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        manifest = json.loads(path.read_text())
        if widths is None:
            del manifest["widths"]
        else:
            manifest["widths"] = widths
        path.write_text(json.dumps(manifest))
        with pytest.raises(LoadError):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("name,bad", [("weights", np.nan),
                                          ("weights", np.inf),
                                          ("Psi", np.nan)])
    def test_non_finite_values_rejected(self, tmp_path, name, bad):
        # the values pass the checksum, since it is taken over what was saved
        rng = np.random.default_rng(12)
        save_model(make_reduced(8, 5, 4, 3, (6,), rng), tmp_path / "m")
        arrays, manifest = load_arrays(tmp_path / "m")
        arrays[name].flat[2] = bad
        del manifest["arrays"]
        save_arrays(tmp_path / "m", arrays, meta=manifest)
        with pytest.raises(LoadError, match=f"array '{name}' is not finite"):
            load_model(tmp_path / "m")

    def test_mismatched_latent_widths_rejected(self):
        rng = np.random.default_rng(11)
        model = make_reduced(6, 4, 3, 2, (5,), rng)
        bad_spec = MLPSpec.dense((4, 5, 2))
        with pytest.raises(ValueError):
            OperatorModel(kind="reduced_basis", spec=bad_spec,
                          weights=NetworkWeights.init(bad_spec),
                          bases=model.bases)
