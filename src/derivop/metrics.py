"""Monte Carlo evaluation suite over a held-out dataset: function accuracy,
Jacobian (H^1 semi-norm) accuracy, misfit-gradient accuracy, and full and
reduced Gauss-Newton Hessian accuracies.

All accuracies take the form 1 - sqrt(mean relative squared error) and may
be negative when the surrogate is worse than predicting zero.  The model
Jacobians at the test inputs are computed once and stacked; every metric is
batched array algebra over them.  Reduced-basis Jacobians stay latent and
the residuals are expanded through the stored SVD factors.  No model forms a
d_M x d_M matrix: with JV = J V and P = J - JV V^T, the GN error of a dense J
splits on range(V) into sums of squares whose largest product is d_Q x d_Q,
||V S^2 V^T - J^T J||^2 = ||S^2 - JV^T JV||^2 + 2 ||P^T JV||^2 + ||P P^T||^2,
and the first term is the reduced (rgn) error.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datagen import project_factors
from .netop import OperatorModel, forward, parametric_jacobian

# Test rows per block: the tangent tape and the dense residuals run one
# block at a time, so their transient memory stays bounded.
_BLOCK_ROWS = 8
METRICS = ("l2", "h1", "grad", "gn", "rgn")


@dataclass
class EvalReport:
    """Per-metric accuracies plus per-sample relative-error arrays."""

    accuracies: dict = field(default_factory=dict)
    per_sample: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    warnings: dict = field(default_factory=dict)

    def save(self, dirpath):
        dirpath = Path(dirpath)
        dirpath.mkdir(parents=True, exist_ok=True)
        payload = {"accuracies": self.accuracies, "config": self.config,
                   "warnings": self.warnings}
        with open(dirpath / "report.json", "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        for name, values in self.per_sample.items():
            with open(dirpath / f"{name}.csv", "w", newline="",
                      encoding="utf-8") as f:
                writer = csv.writer(f)
                writer.writerow(["sample", "relative_squared_error"])
                for i, v in enumerate(values):
                    writer.writerow([i, repr(float(v))])


def _predict(model, M):
    if isinstance(model, OperatorModel):
        return forward(model, M)
    return model.predict(M)


def _is_reduced(model):
    return isinstance(model, OperatorModel) and model.kind == "reduced_basis"


def _blocks(n):
    return [slice(k, k + _BLOCK_ROWS) for k in range(0, n, _BLOCK_ROWS)]


def _model_jacobians(model, M):
    """Model Jacobians at the rows of M, stacked: latent r_Q x r_M for
    reduced-basis models, dense d_Q x d_M for generic and duck-typed ones.
    The tangent tape runs on one block of rows at a time."""
    if not isinstance(model, OperatorModel):
        return np.stack([model.jacobian(m) for m in M])
    J = np.empty((len(M), model.spec.d_out, model.spec.d_in))
    for b in _blocks(len(M)):
        J[b] = parametric_jacobian(model, M[b])
    return J


def _accuracy(ratios):
    return 1.0 - float(np.sqrt(np.mean(ratios)))


def _skip_zero(err2, norm2):
    """Relative errors where the norm is nonzero, and the count skipped."""
    keep = norm2 != 0.0
    return err2[keep] / norm2[keep], int(np.sum(~keep))


def _sum_squares(A):
    """Squared Frobenius norms of stacked matrices, without a squared copy."""
    return np.einsum("...ij,...ij->...", A, A)


def l2_accuracy(model, test_ds):
    """1 - sqrt(mean ||q - f||^2 / ||q||^2); zero-norm samples are skipped."""
    preds = _predict(model, test_ds.m)
    ratios, skipped = _skip_zero(np.sum((test_ds.q - preds) ** 2, axis=1),
                                 np.sum(test_ds.q**2, axis=1))
    return _accuracy(ratios), ratios, skipped


def _h1_error2(U, s, V, J):
    """||U S V^T - J||_F^2 for a block of dense Jacobians."""
    resid = (U * s[:, None, :]) @ V.transpose(0, 2, 1)
    resid -= J
    return _sum_squares(resid)


def h1_seminorm_accuracy(model, test_ds, model_jac=None):
    """1 - sqrt(mean ||J_true - J_model||_F^2 / ||J_true||_F^2).

    ``model_jac`` holds the stacked model Jacobians of ``_model_jacobians``;
    they are computed when it is omitted.
    """
    J = _model_jacobians(model, test_ds.m) if model_jac is None else model_jac
    U, s, V = test_ds.jac_u, test_ds.jac_sigma, test_ds.jac_v
    true2 = np.sum(s**2, axis=1)
    if _is_reduced(model):
        # ||USV^T - Phi J Psi^T||^2 expanded through the factors.
        left, right = project_factors(test_ds, model.bases)
        cross = np.sum(s * np.sum(left * (J @ right), axis=1), axis=1)
        # clamp tiny negative round-off
        err2 = np.maximum(true2 - 2.0 * cross + _sum_squares(J), 0.0)
    else:
        err2 = np.concatenate([_h1_error2(U[b], s[b], V[b], J[b])
                               for b in _blocks(test_ds.n_samples)])
    ratios, skipped = _skip_zero(err2, true2)
    return _accuracy(ratios), ratios, skipped


def noise_std(test_ds, noise_pct=0.01):
    """1%-of-signal noise scale: pct * RMS over the test set of |q|/sqrt(d_Q)."""
    rms = float(np.sqrt(np.mean(np.sum(test_ds.q**2, axis=1) / test_ds.d_q)))
    return noise_pct * rms


def gradient_accuracy(model, test_ds, noise_pct=0.01, seed=0, n_misfit=4,
                      model_jac=None):
    """Misfit-gradient accuracy averaged over synthetic noisy data draws.

    For each test sample, d = q + eta with eta ~ N(0, (noise_pct * RMS)^2 I);
    the true gradient uses the stored Jacobian SVD, the predicted one the
    model's values and Jacobian.  One call draws all the noise, in the
    order of a loop over samples and then draws; draws whose true gradient
    is zero are skipped.  ``model_jac`` is as in h1_seminorm_accuracy.
    """
    std = noise_std(test_ds, noise_pct)
    var = std**2
    if var <= 0:
        raise ValueError("noise variances must be positive")
    J = _model_jacobians(model, test_ds.m) if model_jac is None else model_jac
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((test_ds.n_samples, n_misfit, test_ds.d_q))
    q = test_ds.q[:, None, :]
    d = q + std * noise
    # the misfit gradient J^T Gamma^{-1} (f - d), Gamma = var I, per draw:
    # of the true map (f = q) and of the model
    w_true = (q - d) / var
    w_pred = (_predict(model, test_ds.m)[:, None, :] - d) / var
    g_true = ((w_true @ test_ds.jac_u) * test_ds.jac_sigma[:, None, :]) \
        @ test_ds.jac_v.transpose(0, 2, 1)
    if _is_reduced(model):
        g_diff = ((w_pred @ model.bases.phi) @ J) @ model.bases.psi.T
    else:
        g_diff = w_pred @ J
    g_diff -= g_true
    ratios, skipped = _skip_zero(np.einsum("nkj,nkj->nk", g_diff, g_diff),
                                 np.einsum("nkj,nkj->nk", g_true, g_true))
    return _accuracy(ratios), ratios, skipped


def _diag_residual2(s2, G):
    """||diag(s2_i) - G_i||_F^2 for a stack of square G_i."""
    R = -G
    diag = np.arange(s2.shape[1])
    R[:, diag, diag] += s2
    return _sum_squares(R)


def _gn_error2(s2, V, J):
    """Full and reduced squared GN errors, stacked (2, n), for a block of
    dense Jacobians, by the split on range(V).  P = J - JV V^T is never
    formed: JV^T P = JV^T J - (JV^T JV) V^T and P P^T = J J^T - JV JV^T, so
    their round-off is squared along with them."""
    JV = J @ V
    JVt = JV.transpose(0, 2, 1)
    red_model = JVt @ JV
    cross = JVt @ J
    cross -= red_model @ V.transpose(0, 2, 1)
    PPt = J @ J.transpose(0, 2, 1)
    PPt -= JV @ JVt
    red = _diag_residual2(s2, red_model)
    return np.stack([red + 2.0 * _sum_squares(cross) + _sum_squares(PPt),
                     red])


def gauss_newton_accuracies(model, test_ds, model_jac=None):
    """Full and V_r-reduced Gauss-Newton Hessian accuracies.

    Dense model Jacobians use the orthogonal split of the module docstring;
    reduced-basis ones expand the full error through Psi^T V.
    ``model_jac`` is as in h1_seminorm_accuracy.
    """
    J = _model_jacobians(model, test_ds.m) if model_jac is None else model_jac
    s, V = test_ds.jac_sigma, test_ds.jac_v
    s2 = s**2
    norm2 = np.sum(s**4, axis=1)  # ||V S^2 V^T||^2 = ||S^2||^2
    if _is_reduced(model):
        JP = J @ project_factors(test_ds, model.bases)[1]  # J Psi^T V
        red_model = JP.transpose(0, 2, 1) @ JP
        cross = np.sum(s2 * np.diagonal(red_model, axis1=1, axis2=2), axis=1)
        # clamp tiny negative round-off
        full_err2 = np.maximum(
            norm2 - 2.0 * cross + _sum_squares(J @ J.transpose(0, 2, 1)), 0.0)
        red_err2 = _diag_residual2(s2, red_model)
    else:
        full_err2, red_err2 = np.concatenate(
            [_gn_error2(s2[b], V[b], J[b]) for b in _blocks(test_ds.n_samples)],
            axis=1)
    full_ratios, skipped = _skip_zero(full_err2, norm2)
    red_ratios, _ = _skip_zero(red_err2, norm2)
    return (_accuracy(full_ratios), _accuracy(red_ratios), full_ratios,
            red_ratios, skipped)


def truncation_error_bound(jac_true, jac, model_jac):
    """Both sides of the truncated-SVD Jacobian error bound (diagnostic).

    ``jac_true`` is the dense true Jacobian, ``jac`` its stored rank-r SVD,
    ``model_jac`` the dense model Jacobian.  Returns (lhs, rhs) with
    lhs = ||J_true - J_model||_F^2 and rhs the five-term sum of the
    truncated residual, the trailing singular-value energy, and the model's
    three complement-space norms.
    """
    U, s, V = jac.U, jac.sigma, jac.V
    Jw = np.asarray(model_jac, dtype=float)
    jac_true = np.asarray(jac_true, dtype=float)
    lhs = float(np.sum((jac_true - Jw) ** 2))
    term_tail = float(np.sum((jac_true - (U * s) @ V.T) ** 2))
    PU = U @ (U.T @ Jw)
    PV = (Jw @ V) @ V.T
    term_trunc = float(np.sum((np.diag(s) - U.T @ Jw @ V) ** 2))
    term_nn = float(np.sum((Jw - PU - PV + U @ (U.T @ Jw @ V) @ V.T) ** 2))
    term_left = float(np.sum(((Jw - PU) @ V) ** 2))
    term_right = float(np.sum((U.T @ (Jw - PV)) ** 2))
    rhs = term_trunc + term_tail + term_nn + term_left + term_right
    return lhs, rhs


def evaluate(model, test_ds, metrics=METRICS, noise_pct=0.01, seed=0,
             n_misfit=4, config=None):
    """Run the selected metrics and collect them into an EvalReport."""
    metrics = list(metrics)
    unknown = set(metrics) - set(METRICS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    report = EvalReport(config=dict(config or {}))
    report.config.update({"noise_pct": noise_pct, "noise_seed": seed,
                          "n_misfit": n_misfit,
                          "noise_std": noise_std(test_ds, noise_pct)})

    def put(name, result, skip_key=None):
        report.accuracies[name], report.per_sample[name] = result[:2]
        report.warnings[skip_key or f"{name}_skipped"] = result[2]

    if "l2" in metrics:
        put("l2", l2_accuracy(model, test_ds))
    jac = _model_jacobians(model, test_ds.m) \
        if {"h1", "grad", "gn", "rgn"} & set(metrics) else None
    if "h1" in metrics:
        put("h1", h1_seminorm_accuracy(model, test_ds, model_jac=jac))
    if "grad" in metrics:
        put("grad", gradient_accuracy(model, test_ds, noise_pct=noise_pct,
                                      seed=seed, n_misfit=n_misfit,
                                      model_jac=jac))
    if "gn" in metrics or "rgn" in metrics:
        gn, rgn, gn_ratios, rgn_ratios, skipped = \
            gauss_newton_accuracies(model, test_ds, model_jac=jac)
        if "gn" in metrics:
            put("gn", (gn, gn_ratios, skipped))
        if "rgn" in metrics:
            put("rgn", (rgn, rgn_ratios, skipped), skip_key="gn_skipped")
    return report
