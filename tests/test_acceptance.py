"""Acceptance suite: ten end-to-end checks with stated tolerances and
runtime budgets.  Each test prints one PASS/FAIL line on the real terminal
(bypassing capture) so the verdicts are visible in any pytest run.
"""

from time import perf_counter

import numpy as np
import pytest
from reference import (
    criterion_4_case,
    make_generic,
    make_reduced,
    ms_enumeration_errors,
    random_orthonormal,
    truncation_error_bound,
    weights_of,
)

from derivop.bases import ReducedBasisPair
from derivop.datagen import Dataset, generate_dataset
from derivop.linalg import TruncatedJacobian, dense_operator, randomized_svd
from derivop.metrics import (
    gauss_newton_accuracies,
    gradient_accuracy,
    h1_seminorm_accuracy,
    l2_accuracy,
    noise_std,
)
from derivop.models import (
    Grid,
    PriorConfig,
    RDModel,
    ToyMap,
    jacobian_operator,
    observe,
    sample_prior,
    solve_state,
)
from derivop.netop import (
    PENALTY_FLOPS,
    MLPSpec,
    NetworkWeights,
    OperatorModel,
    forward,
    full_space_jacobian,
    loss_and_grad,
)
from derivop.replication import run_study
from derivop.training import LossConfig


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_factor_batch(d_m, d_q, r, n, rng, jac_r_dims=None, latent=False):
    """Random batch with orthonormal per-sample Jacobian factors."""
    U = np.stack([random_orthonormal(d_q, r, rng) for _ in range(n)])
    V = np.stack([random_orthonormal(d_m, r, rng) for _ in range(n)])
    S = np.sort(rng.uniform(0.5, 2.0, (n, r)))[:, ::-1].copy()
    jac_r = None
    if jac_r_dims is not None:
        jac_r = rng.standard_normal((n, *jac_r_dims))
    return Dataset(m=rng.standard_normal((n, d_m)),
                   q=rng.standard_normal((n, d_q)),
                   jac_u=U, jac_sigma=S, jac_v=V, jac_r=jac_r, latent=latent)


def test_01_adjoint_correctness(capsys):
    t0 = perf_counter()
    grid = Grid(9)
    model = RDModel(grid=grid, c_nl=1.0)
    prior = PriorConfig(delta=1.0, gamma=0.1, grid=grid)
    rng = np.random.default_rng(11)
    eps = 1e-5
    worst_fd, worst_adj = 0.0, 0.0
    for _ in range(20):
        m = sample_prior(prior, rng)
        u = solve_state(model, m)
        op = jacobian_operator(model, m, u)
        v = rng.standard_normal(model.d_m)
        v /= np.linalg.norm(v)
        q_plus = observe(model, solve_state(model, m + eps * v, u0=u))
        q_minus = observe(model, solve_state(model, m - eps * v, u0=u))
        fd = (q_plus - q_minus) / (2.0 * eps)
        jv = op.apply(v)
        worst_fd = max(worst_fd,
                       np.linalg.norm(jv - fd) / np.linalg.norm(fd))
        w = rng.standard_normal(model.d_q)
        lhs = float(jv @ w)
        rhs = float(v @ op.apply_transpose(w))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    elapsed = perf_counter() - t0
    ok = worst_fd <= 1e-6 and worst_adj <= 1e-10 and elapsed < 10.0
    _report(capsys, 1, ok,
            f"implicit-Jacobian products: max FD rel err {worst_fd:.2e} "
            f"(tol 1e-6), max adjoint rel err {worst_adj:.2e} (tol 1e-10), "
            f"{elapsed:.1f}s < 10s")


def test_02_randomized_svd_exact_rank(capsys):
    t0 = perf_counter()
    rng = np.random.default_rng(22)
    A = (random_orthonormal(200, 5, rng) * np.array([9.0, 5.0, 2.0, 0.7, 0.3])
         ) @ random_orthonormal(300, 5, rng).T
    jac = randomized_svd(dense_operator(A), rank=5, seed=0)
    recon = np.linalg.norm(A - (jac.U * jac.sigma) @ jac.V.T) \
        / np.linalg.norm(A)
    sig_err = np.max(np.abs(jac.sigma - np.linalg.svd(A, compute_uv=False)[:5])
                     ) / jac.sigma[0]
    elapsed = perf_counter() - t0
    ok = recon <= 1e-9 and sig_err <= 1e-9 and elapsed < 5.0
    _report(capsys, 2, ok,
            f"sketched SVD of exact rank-5 200x300 map: reconstruction rel "
            f"err {recon:.2e}, singular-value rel err {sig_err:.2e} "
            f"(tol 1e-9), {elapsed:.1f}s < 5s")


def test_03_truncation_error_bound(capsys):
    t0 = perf_counter()
    rng = np.random.default_rng(33)
    worst_slack = -np.inf
    for _ in range(100):
        J = (random_orthonormal(8, 3, rng) * rng.uniform(1, 4, 3)
             ) @ random_orthonormal(12, 3, rng).T
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        jac = TruncatedJacobian(U=U[:, :3], sigma=s[:3], V=Vt[:3].T)
        Jw = rng.standard_normal((8, 12))
        lhs, rhs = truncation_error_bound(J, jac, Jw)
        worst_slack = max(worst_slack, lhs - rhs - 1e-12 * rhs)
    # equality case: the model Jacobian equals the truncated factorization
    J = (random_orthonormal(8, 3, rng) * rng.uniform(1, 4, 3)
         ) @ random_orthonormal(12, 3, rng).T
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    jac = TruncatedJacobian(U=U[:, :3], sigma=s[:3], V=Vt[:3].T)
    lhs_eq, rhs_eq = truncation_error_bound(J, jac,
                                            (jac.U * jac.sigma) @ jac.V.T)
    elapsed = perf_counter() - t0
    ok = worst_slack <= 0.0 and lhs_eq <= 1e-20 and rhs_eq <= 1e-20 \
        and elapsed < 5.0
    _report(capsys, 3, ok,
            f"Jacobian-error upper bound on 100 rank-3 8x12 instances: max "
            f"LHS-RHS slack {worst_slack:.2e} <= 0, equality case "
            f"({lhs_eq:.1e}, {rhs_eq:.1e}) <= 1e-20, {elapsed:.1f}s < 5s")


def test_04_subsampled_penalty_expectation(capsys):
    t0 = perf_counter()
    err_indep, err_dep = ms_enumeration_errors(*criterion_4_case(), k=2)
    elapsed = perf_counter() - t0
    ok = err_indep <= 1e-12 and err_dep <= 1e-12 and elapsed < 5.0
    _report(capsys, 4, ok,
            f"subsampled-penalty expectations by full enumeration (r=5, "
            f"k=2): independent rel err {err_indep:.2e}, dependent rel err "
            f"{err_dep:.2e} (tol 1e-12), {elapsed:.1f}s < 5s")


def test_05_reduced_basis_gradient_identity(capsys):
    t0 = perf_counter()
    rng = np.random.default_rng(55)
    d_m, d_q, r_in, r_out = 9, 7, 4, 3
    worst_ann, worst_grad = 0.0, 0.0
    for trial in range(50):
        reduced = make_reduced(d_m, d_q, r_in, r_out, (6,), rng, seed=trial)
        psi, phi, b = reduced.bases.psi, reduced.bases.phi, reduced.bases.b
        m = rng.standard_normal(d_m)
        J = full_space_jacobian(reduced, m)
        scale = np.linalg.norm(J)
        for _ in range(10):
            x = rng.standard_normal(d_m)
            x -= psi @ (psi.T @ x)
            x /= np.linalg.norm(x)
            worst_ann = max(worst_ann, np.linalg.norm(J @ x) / scale)
            y = rng.standard_normal(d_q)
            y -= phi @ (phi.T @ y)
            y /= np.linalg.norm(y)
            worst_ann = max(worst_ann, np.linalg.norm(y @ J) / scale)
        # embed the reduced net as an equivalent generic one (frozen basis
        # layers) and compare the shared inner-layer loss gradients
        inner = reduced.weights.layers()
        widths = (d_m, r_in) + tuple(reduced.spec.widths[1:]) + (d_q,)
        acts = ("linear",) + reduced.spec.activations + ("linear",)
        gspec = MLPSpec(widths=widths, activations=acts)
        glayers = [(psi.T, np.zeros(r_in))] + list(inner) + [(phi, b)]
        generic = OperatorModel(
            kind="generic", spec=gspec,
            weights=weights_of(gspec, glayers))
        batch = random_factor_batch(d_m, d_q, min(d_m, d_q), 3, rng)
        batch.jac_r = np.stack([
            phi.T @ ((batch.jac_u[i] * batch.jac_sigma[i])
                     @ batch.jac_v[i].T) @ psi
            for i in range(batch.n_samples)])
        cfg = LossConfig(variant="h1_full", h1_weight=1.0)
        _, g_full = loss_and_grad(generic, batch, cfg)
        _, g_red = loss_and_grad(reduced, batch, cfg)
        first = r_in * d_m + r_in
        diff = np.max(np.abs(g_full[first:first + len(g_red)] - g_red))
        worst_grad = max(worst_grad, diff / max(np.max(np.abs(g_red)), 1e-300))
    elapsed = perf_counter() - t0
    ok = worst_ann <= 1e-12 and worst_grad <= 1e-10 and elapsed < 30.0
    _report(capsys, 5, ok,
            f"50 reduced-basis nets: max complement annihilation "
            f"{worst_ann:.2e} (tol 1e-12), max full-vs-latent penalty "
            f"gradient rel err {worst_grad:.2e} (tol 1e-10), "
            f"{elapsed:.1f}s < 30s")


def test_06_loss_gradients_vs_finite_differences(capsys):
    t0 = perf_counter()
    rng = np.random.default_rng(66)
    cfgs = [LossConfig(variant="l2"), LossConfig(variant="h1_full"),
            LossConfig(variant="h1_truncated"),
            LossConfig(variant="h1_truncated_ms", k=2)]
    worst = 0.0
    for cfg in cfgs:
        for kind in ("generic", "reduced_basis"):
            if kind == "generic":
                model = make_generic(4, 3, (5,))
            else:
                model = make_reduced(4, 3, 3, 2, (5,), rng)
            batch = random_factor_batch(4, 3, 3, 4, rng)
            if model.kind == "reduced_basis":
                phi, psi = model.bases.phi, model.bases.psi
                batch.jac_r = np.stack([
                    phi.T @ ((batch.jac_u[i] * batch.jac_sigma[i])
                             @ batch.jac_v[i].T) @ psi
                    for i in range(batch.n_samples)])
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
                worst = max(worst, abs(fd - grad[j]) / scale)
    elapsed = perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    _report(capsys, 6, ok,
            f"4 loss variants x 2 architectures, every weight coordinate: "
            f"max FD-vs-analytic rel err {worst:.2e} (tol 1e-5), "
            f"{elapsed:.1f}s < 60s")


def _dense_true(ds, i):
    return (ds.jac_u[i] * ds.jac_sigma[i]) @ ds.jac_v[i].T


def _oracle_metrics(model, ds, noise_pct=0.01, seed=0, n_misfit=4):
    """Brute-force dense re-computation of all five accuracy metrics."""
    preds = np.atleast_2d(forward(model, ds.m))
    l2 = 1.0 - np.sqrt(np.mean(np.sum((ds.q - preds) ** 2, axis=1)
                               / np.sum(ds.q**2, axis=1)))
    jw = [full_space_jacobian(model, ds.m[i]) for i in range(ds.n_samples)]
    jt = [_dense_true(ds, i) for i in range(ds.n_samples)]
    h1 = 1.0 - np.sqrt(np.mean([np.sum((a - b) ** 2) / np.sum(a**2)
                                for a, b in zip(jt, jw)]))
    std = noise_std(ds, noise_pct)
    rng = np.random.default_rng(seed)
    ratios = []
    for i in range(ds.n_samples):
        for _ in range(n_misfit):
            d = ds.q[i] + std * rng.standard_normal(ds.d_q)
            g_true = jt[i].T @ (ds.q[i] - d) / std**2
            g_pred = jw[i].T @ (preds[i] - d) / std**2
            ratios.append(np.sum((g_true - g_pred) ** 2) / np.sum(g_true**2))
    grad = 1.0 - np.sqrt(np.mean(ratios))
    gn_ratios, rgn_ratios = [], []
    for i in range(ds.n_samples):
        H_true = jt[i].T @ jt[i]
        H_model = jw[i].T @ jw[i]
        norm2 = np.sum(ds.jac_sigma[i] ** 4)
        gn_ratios.append(np.sum((H_true - H_model) ** 2) / norm2)
        V = ds.jac_v[i]
        rgn_ratios.append(
            np.sum((V.T @ H_true @ V - V.T @ H_model @ V) ** 2) / norm2)
    gn = 1.0 - np.sqrt(np.mean(gn_ratios))
    rgn = 1.0 - np.sqrt(np.mean(rgn_ratios))
    return {"l2": l2, "h1": h1, "grad": grad, "gn": gn, "rgn": rgn}


def test_07_metric_oracles(capsys):
    t0 = perf_counter()
    rng = np.random.default_rng(77)
    ds = generate_dataset(ToyMap.default(), None, 10, rank=5, seed=3)
    worst = 0.0
    for model in (make_generic(ds.d_m, ds.d_q, (8,)),
                  make_reduced(ds.d_m, ds.d_q, 6, 5, (8,), rng)):
        got = {
            "l2": l2_accuracy(model, ds)[0],
            "h1": h1_seminorm_accuracy(model, ds)[0],
            "grad": gradient_accuracy(model, ds)[0],
        }
        got["gn"], got["rgn"] = gauss_newton_accuracies(model, ds)[:2]
        want = _oracle_metrics(model, ds)
        for name in want:
            worst = max(worst, abs(got[name] - want[name]))
    elapsed = perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(capsys, 7, ok,
            f"l2/h1/grad/gn/rgn vs dense brute-force oracles on a 10-sample "
            f"analytic dataset (2 architectures): max abs deviation "
            f"{worst:.2e} (tol 1e-10), {elapsed:.1f}s < 10s")


def _penalty_flops(model, batch, cfg, ms_idx=None):
    PENALTY_FLOPS.count = 0
    loss_and_grad(model, batch, cfg, ms_idx=ms_idx)
    return PENALTY_FLOPS.count


def test_08_cost_scaling(capsys):
    t0 = perf_counter()
    rng = np.random.default_rng(88)
    hidden = (8, 8)
    base = {"r": 16, "d_m": 128, "d_q": 96}
    checks = []  # (label, measured_ratio, predicted_ratio)

    def truncated_cost(dims, cfg_k=None):
        model = make_generic(dims["d_m"], dims["d_q"], hidden)
        batch = random_factor_batch(dims["d_m"], dims["d_q"], dims["r"], 4,
                                    rng)
        if cfg_k is None:
            return _penalty_flops(model, batch,
                                  LossConfig(variant="h1_truncated"))
        idx = (np.arange(cfg_k), np.arange(cfg_k))
        return _penalty_flops(
            model, batch, LossConfig(variant="h1_truncated_ms", k=cfg_k),
            ms_idx=idx)

    # truncated penalty: cost ~ r * (d_M + d_Q + r)
    f_trunc = lambda d: d["r"] * (d["d_m"] + d["d_q"] + d["r"])
    c0 = truncated_cost(base)
    for dim in ("r", "d_m", "d_q"):
        doubled = {**base, dim: 2 * base[dim]}
        checks.append((f"truncated/{dim}", truncated_cost(doubled) / c0,
                       f_trunc(doubled) / f_trunc(base)))

    # subsampled penalty with fixed k: cost ~ k * (d_M + d_Q + k),
    # independent of the stored rank r
    k = 4
    f_ms = lambda d: k * (d["d_m"] + d["d_q"] + k)
    m0 = truncated_cost(base, cfg_k=k)
    for dim in ("r", "d_m", "d_q"):
        doubled = {**base, dim: 2 * base[dim]}
        checks.append((f"subsampled/{dim}", truncated_cost(doubled, cfg_k=k)
                       / m0, f_ms(doubled) / f_ms(base)))

    # reduced-basis full penalty on latent data: cost ~ r_in * r_out
    def reduced_cost(r_in, r_out):
        bases = ReducedBasisPair(psi=np.eye(r_in), phi=np.eye(r_out),
                                 b=np.zeros(r_out))
        spec = MLPSpec.dense((r_in, *hidden, r_out), init_seed=0)
        model = OperatorModel(kind="reduced_basis", spec=spec,
                              weights=NetworkWeights.init(spec), bases=bases)
        batch = Dataset(m=rng.standard_normal((4, r_in)),
                        q=rng.standard_normal((4, r_out)),
                        jac_r=rng.standard_normal((4, r_out, r_in)),
                        latent=True)
        return _penalty_flops(model, batch, LossConfig(variant="h1_full"))

    r_in, r_out = 96, 64
    red0 = reduced_cost(r_in, r_out)
    checks.append(("reduced/r_in", reduced_cost(2 * r_in, r_out) / red0, 2.0))
    checks.append(("reduced/r_out", reduced_cost(r_in, 2 * r_out) / red0, 2.0))

    worst = max(max(m / p, p / m) for _, m, p in checks)
    elapsed = perf_counter() - t0
    ok = worst <= 1.5 and elapsed < 60.0
    _report(capsys, 8, ok,
            f"penalty flop counters vs predicted ratios over {len(checks)} "
            f"dimension doublings: worst measured/predicted factor "
            f"{worst:.3f} (tol 1.5x), {elapsed:.1f}s < 60s")


@pytest.fixture(scope="module")
def study():
    t0 = perf_counter()
    first = run_study()
    elapsed = perf_counter() - t0
    second = run_study()
    return first, second, elapsed


def test_09_directional_replication(capsys, study):
    first, _, elapsed = study
    gaps = {"l2": [], "h1": [], "gn": []}
    for rec in first.per_seed:
        for name in gaps:
            gaps[name].append(rec["h1_full"][name] - rec["l2"][name])
    n = len(first.per_seed)
    ok_l2 = sum(g >= -0.02 for g in gaps["l2"]) > n / 2
    ok_h1 = sum(g >= 0.15 for g in gaps["h1"]) > n / 2
    ok_gn = sum(g >= 0.15 for g in gaps["gn"]) > n / 2
    ok = ok_l2 and ok_h1 and ok_gn and elapsed <= 1200.0
    med = {k: float(np.median(v)) for k, v in gaps.items()}
    _report(capsys, 9, ok,
            f"Jacobian-trained vs value-trained nets over {n} seeds: median "
            f"gaps l2 {med['l2']:+.3f} (>= -0.02), h1 {med['h1']:+.3f} "
            f"(>= 0.15), gn {med['gn']:+.3f} (>= 0.15); "
            f"{elapsed:.0f}s <= 1200s")


def test_10_replication_determinism(capsys, study):
    first, second, _ = study
    ok = first.per_seed == second.per_seed
    _report(capsys, 10, ok,
            "full pipeline rerun reproduces every report number bitwise"
            if ok else "rerun produced different numbers")
