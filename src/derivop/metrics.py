"""Monte Carlo evaluation suite over a held-out dataset: function accuracy,
Jacobian (H^1 semi-norm) accuracy, misfit-gradient accuracy, and full and
reduced Gauss-Newton Hessian accuracies.

All accuracies take the form 1 - sqrt(mean relative squared error) and may
be negative when the surrogate is worse than predicting zero; they are None
when every sample has zero norm.  A metric reads a model only through a
ModelOutputs record of its predictions and stacked Jacobians on the test
set, which ``model_outputs`` builds in one pass (``evaluate`` builds it once
for all metrics); every metric is batched array algebra over the record.
A record's Jacobians are the latent ones of the net's equivalent
reduced-basis net, and every residual is expanded through the stored SVD
factors and Psi^T V: no metric forms a d_M-wide vector, let alone a
d_Q x d_M matrix.  Dense Jacobians form a record in the identity pair.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datagen import project_factors
from .netop import as_reduced_basis, forward, parametric_jacobian

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
        # dumps first: a non-finite value raises before the file is opened
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        (dirpath / "report.json").write_text(text, encoding="utf-8")
        for name, values in self.per_sample.items():
            with open(dirpath / f"{name}.csv", "w", newline="",
                      encoding="utf-8") as f:
                writer = csv.writer(f)
                writer.writerow(["sample", "relative_squared_error"])
                for i, v in enumerate(values):
                    writer.writerow([i, repr(float(v))])


@dataclass(frozen=True)
class ModelOutputs:
    """What the metrics read of a model on a test set: ``preds`` (n, d_Q)
    and ``jac``, the latent (n, r_Q, r_M) Jacobians in the ``bases`` pair
    (a generic net's factored through the QR of W_1; dense ones in the
    identity pair), with ``projected = project_factors(test_ds, bases)``.
    Both ``bases`` and ``projected`` are always set."""

    preds: np.ndarray
    jac: np.ndarray
    bases: object
    projected: tuple


def model_outputs(model, test_ds):
    """The ModelOutputs of an OperatorModel on ``test_ds`` (a ModelOutputs
    comes back unchanged): its own ``forward`` and one ``parametric_jacobian``
    call (one forward tape, swept in row blocks) of its ``as_reduced_basis``
    net, in that net's pair.  The Jacobian metrics read the stored SVD
    factors, so a set without them raises ValueError."""
    missing = [f for f in ("jac_u", "jac_sigma", "jac_v")
               if getattr(test_ds, f) is None]
    if missing:
        raise ValueError("h1, grad, gn and rgn need the stored Jacobian SVD "
                         f"factors; the set lacks {', '.join(missing)}")
    if isinstance(model, ModelOutputs):
        return model
    net = as_reduced_basis(model)
    return ModelOutputs(forward(model, test_ds.m),
                        parametric_jacobian(net, test_ds.m), net.bases,
                        project_factors(test_ds, net.bases))


def _accuracy(ratios):
    return 1.0 - float(np.sqrt(np.mean(ratios))) if ratios.size else None


def _skip_zero(err2, norm2):
    """Relative errors where the norm is nonzero, and the count skipped."""
    keep = norm2 != 0.0
    return err2[keep] / norm2[keep], int(np.sum(~keep))


def _sum_squares(A):
    """Squared Frobenius norms of stacked matrices, without a squared copy."""
    return np.einsum("...ij,...ij->...", A, A)


def l2_accuracy(model, test_ds):
    """1 - sqrt(mean ||q - f||^2 / ||q||^2); zero-norm samples are skipped.
    Of an OperatorModel, only ``forward`` runs."""
    preds = model.preds if isinstance(model, ModelOutputs) \
        else forward(model, test_ds.m)
    ratios, skipped = _skip_zero(np.sum((test_ds.q - preds) ** 2, axis=1),
                                 np.sum(test_ds.q**2, axis=1))
    return _accuracy(ratios), ratios, skipped


def h1_seminorm_accuracy(model, test_ds):
    """1 - sqrt(mean ||J_true - J_model||_F^2 / ||J_true||_F^2)."""
    out = model_outputs(model, test_ds)
    J, s = out.jac, test_ds.jac_sigma
    true2 = np.sum(s**2, axis=1)
    # ||USV^T - Phi J Psi^T||^2 expanded through the factors.
    left, right = out.projected
    cross = np.sum(s * np.sum(left * (J @ right), axis=1), axis=1)
    # clamp tiny negative round-off
    err2 = np.maximum(true2 - 2.0 * cross + _sum_squares(J), 0.0)
    ratios, skipped = _skip_zero(err2, true2)
    return _accuracy(ratios), ratios, skipped


def noise_std(test_ds, noise_pct=0.01):
    """1%-of-signal noise scale: pct * RMS over the test set of |q|/sqrt(d_Q).
    Raises ValueError unless the scale is finite."""
    rms = float(np.sqrt(np.mean(np.sum(test_ds.q**2, axis=1) / test_ds.d_q)))
    std = noise_pct * rms
    if not np.isfinite(std):
        raise ValueError(f"noise scale must be finite, got {std}")
    return std


def gradient_accuracy(model, test_ds, noise_pct=0.01, seed=0, n_misfit=4):
    """Misfit-gradient accuracy averaged over synthetic noisy data draws.

    For each test sample, d = q + eta with eta ~ N(0, (noise_pct * RMS)^2 I);
    the true gradient uses the stored Jacobian SVD, the predicted one the
    model's values and Jacobian.  Both stay latent, r and r_M wide, and
    their error is expanded through Psi^T V: no d_M-wide gradient forms.
    One call draws all the noise, in the order of a loop over samples and
    then draws; draws whose true gradient is zero are skipped.  Raises
    ValueError unless ``n_misfit`` >= 1 and the noise scale is positive.
    """
    std = noise_std(test_ds, noise_pct)
    if std <= 0:
        raise ValueError(f"noise scale must be positive, got {std}")
    if n_misfit < 1:
        raise ValueError(f"n_misfit must be at least 1, got {n_misfit}")
    var = std**2
    out = model_outputs(model, test_ds)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((test_ds.n_samples, n_misfit, test_ds.d_q))
    q = test_ds.q[:, None, :]
    d = q + std * noise
    # the misfit gradient J^T Gamma^{-1} (f - d), Gamma = var I, per draw,
    # of the true map (f = q) and of the model, kept latent: g_true = a V_i^T
    # and g_pred = c Psi^T, so <g_pred, g_true> = <c Psi^T V_i, a>
    w_true = (q - d) / var
    w_pred = (out.preds[:, None, :] - d) / var
    a = (w_true @ test_ds.jac_u) * test_ds.jac_sigma[:, None, :]
    c = (w_pred @ out.bases.phi) @ out.jac
    true2 = np.einsum("nkr,nkr->nk", a, a)
    cross = np.einsum("nkr,nkr->nk", c @ out.projected[1], a)
    err2 = np.einsum("nkj,nkj->nk", c, c) - 2.0 * cross + true2
    ratios, skipped = _skip_zero(np.maximum(err2, 0.0), true2)  # round-off
    return _accuracy(ratios), ratios, skipped


def gauss_newton_accuracies(model, test_ds):
    """Full and V_r-reduced Gauss-Newton Hessian accuracies.

    The record's latent Jacobians J (its ``bases`` and ``projected`` are
    always set) expand the full error through Psi^T V; ||J^T J||^2 is
    taken as the norm of the narrower of J^T J and J J^T.
    """
    out = model_outputs(model, test_ds)
    J, s = out.jac, test_ds.jac_sigma
    s2 = s**2
    norm2 = np.sum(s**4, axis=1)  # ||V S^2 V^T||^2 = ||S^2||^2
    JP = J @ out.projected[1]  # J Psi^T V
    red_model = JP.transpose(0, 2, 1) @ JP
    cross = np.sum(s2 * np.diagonal(red_model, axis1=1, axis2=2), axis=1)
    Jt = J.transpose(0, 2, 1)
    gram = Jt @ J if J.shape[1] > J.shape[2] else J @ Jt
    # clamp tiny negative round-off
    full_err2 = np.maximum(norm2 - 2.0 * cross + _sum_squares(gram), 0.0)
    red_err2 = _sum_squares(red_model - s2[:, :, None] * np.eye(s.shape[1]))
    full_ratios, skipped = _skip_zero(full_err2, norm2)
    red_ratios, _ = _skip_zero(red_err2, norm2)
    return (_accuracy(full_ratios), _accuracy(red_ratios), full_ratios,
            red_ratios, skipped)


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

    if {"h1", "grad", "gn", "rgn"} & set(metrics):
        model = model_outputs(model, test_ds)
    if "l2" in metrics:
        put("l2", l2_accuracy(model, test_ds))
    if "h1" in metrics:
        put("h1", h1_seminorm_accuracy(model, test_ds))
    if "grad" in metrics:
        put("grad", gradient_accuracy(model, test_ds, noise_pct=noise_pct,
                                      seed=seed, n_misfit=n_misfit))
    if "gn" in metrics or "rgn" in metrics:
        gn, rgn, gn_ratios, rgn_ratios, skipped = \
            gauss_newton_accuracies(model, test_ds)
        if "gn" in metrics:
            put("gn", (gn, gn_ratios, skipped))
        if "rgn" in metrics:
            put("rgn", (rgn, rgn_ratios, skipped), skip_key="gn_skipped")
    return report
