"""Stochastic optimization layer: loss configuration, the matrix-subsampling
index sampler, a bias-corrected Adam optimizer, and the epoch/batch loop.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import reduce_dataset
from .netop import _ms_target, _ms_weight, _unread_fields, loss_and_grad

LOSS_VARIANTS = ("l2", "h1_full", "h1_truncated", "h1_truncated_ms")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-7
HOLDOUT_BATCH = 256  # rows per loss call when scoring a holdout set


class TrainingError(RuntimeError):
    """Non-finite gradient or propagated failure, tagged with coordinates."""


@dataclass(frozen=True)
class LossConfig:
    """Choice among the four loss formulations plus MS parameters."""

    variant: str = "l2"
    h1_weight: float = 1.0
    k: int = None  # MS subset size
    ms_mode: str = "dependent"
    ms_rescale: bool = False
    ms_redraw: str = "batch"  # or "epoch"

    def __post_init__(self):
        if self.variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")
        if self.h1_weight < 0:
            raise ValueError("h1_weight must be >= 0")
        if self.ms_mode not in ("dependent", "independent"):
            raise ValueError(f"unknown ms_mode {self.ms_mode!r}")
        if self.ms_redraw not in ("batch", "epoch"):
            raise ValueError(f"unknown ms_redraw {self.ms_redraw!r}")
        if self.variant == "h1_truncated_ms" and (self.k is None or self.k < 1):
            raise ValueError("h1_truncated_ms requires k >= 1")


def subsample_indices(r, k, mode, rng):
    """Uniform without-replacement index subsets of {0..r-1}.

    Dependent mode reuses the same subset for rows and columns.
    """
    if not 1 <= k <= r:
        raise ValueError(f"k = {k} out of range for r = {r}")
    ridx = rng.choice(r, size=k, replace=False)
    if mode == "dependent":
        return ridx, ridx
    if mode != "independent":
        raise ValueError(f"unknown mode {mode!r}")
    return ridx, rng.choice(r, size=k, replace=False)


def ms_penalty(jac, model_jac, idx, mode="dependent", rescale=False):
    """Subsampled truncated-Jacobian penalty for one sample.

    ``jac`` holds the stored SVD factors, ``model_jac`` is the model's dense
    full-space Jacobian, ``idx`` the (row, column) subsets.  With ``rescale``
    the dependent mode applies the diag/offdiag two-factor correction and
    the independent mode the r^2/k^2 factor, making the draw unbiased.
    """
    ridx, cidx = (np.asarray(i, dtype=np.intp) for i in idx)
    r = jac.rank
    if np.any(ridx >= r) or np.any(cidx >= r) or np.any(ridx < 0) \
            or np.any(cidx < 0):
        raise ValueError("subsample index out of range")
    E = _ms_target(jac.sigma, ridx, cidx) \
        - jac.U[:, ridx].T @ model_jac @ jac.V[:, cidx]
    if not rescale:
        return float(np.sum(E**2))
    return float(np.sum(_ms_weight(r, ridx, cidx, mode) * E**2))


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators shaped like the flat weight vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    alpha: float = 1e-3

    @classmethod
    def fresh(cls, d_w, alpha=1e-3):
        return cls(m=np.zeros(d_w), v=np.zeros(d_w), alpha=alpha)


def adam_step(state, w, g):
    """One bias-corrected Adam update; returns the new (state, weights)."""
    g = np.asarray(g, dtype=float)
    if g.shape != w.shape:
        raise ValueError("gradient shape mismatch")
    if not np.all(np.isfinite(g)):
        bad = int(np.argmax(~np.isfinite(g)))
        raise TrainingError(f"non-finite gradient component at index {bad}")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    w_new = w - state.alpha * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(m=m, v=v, step=t, alpha=state.alpha), w_new


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    train_loss: list = field(default_factory=list)
    holdout_loss: list = field(default_factory=list)  # None without holdout
    seed: int = 0

    def records(self):
        return [
            {"epoch": e, "train_loss": tl, "holdout_loss": hl}
            for e, (tl, hl) in enumerate(
                zip(self.train_loss, self.holdout_loss))
        ]


def _training_set(data, model, cfg):
    """The set as the loss reads it: latent for reduced-basis models,
    whatever the loss (the latent problem has the same w-gradient), and
    full-space for generic ones, less the metadata and the fields the loss
    never reads."""
    unread = _unread_fields(model, cfg.variant)
    missing = [f for f in ("jac_u", "jac_sigma", "jac_v")
               if f not in unread and getattr(data, f) is None]
    if missing:
        raise ValueError(f"{cfg.variant} needs the stored Jacobian SVD "
                         f"factors; the set lacks {', '.join(missing)}")
    if cfg.variant == "h1_truncated_ms" and cfg.k > data.rank:
        raise ValueError(f"k = {cfg.k} exceeds stored rank {data.rank}")
    if model.kind == "reduced_basis":
        data = reduce_dataset(data, model.bases)
    return replace(data, meta=None, **dict.fromkeys(unread))


def _mean_loss(model, data, cfg):
    """Mean loss over a set from ``_training_set`` without a gradient step
    (holdout evaluation)."""
    n = data.size
    # MS draws add noise to a monitoring metric; use the deterministic
    # truncated penalty instead when evaluating.
    eval_cfg = cfg if cfg.variant != "h1_truncated_ms" else \
        LossConfig(variant="h1_truncated", h1_weight=cfg.h1_weight)
    total = 0.0
    for start in range(0, n, HOLDOUT_BATCH):
        idx = np.arange(start, min(start + HOLDOUT_BATCH, n))
        loss, _ = loss_and_grad(model, data.subset(idx), eval_cfg)
        total += loss * len(idx)
    return total / n


def train(data, model, cfg, epochs=100, batch_size=32, seed=0,
          holdout=None, alpha=1e-3):
    """Adam training loop over shuffled mini-batches.

    Returns (trained model, TrainHistory).  Deterministic for a fixed seed:
    the run RNG drives both the per-epoch shuffle and the MS index draws.
    """
    train_set = _training_set(data, model, cfg)
    held = None if holdout is None else _training_set(holdout, model, cfg)
    n = train_set.size
    rng = np.random.default_rng(seed)
    state = AdamState.fresh(model.spec.d_w, alpha=alpha)
    w = model.weights.flat.copy()
    history = TrainHistory(seed=seed)
    rank = train_set.rank if cfg.variant == "h1_truncated_ms" else None

    for epoch in range(epochs):
        order = rng.permutation(n)
        ms_idx = None
        if cfg.variant == "h1_truncated_ms" and cfg.ms_redraw == "epoch":
            ms_idx = subsample_indices(rank, cfg.k, cfg.ms_mode, rng)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if cfg.variant == "h1_truncated_ms" and cfg.ms_redraw == "batch":
                ms_idx = subsample_indices(rank, cfg.k, cfg.ms_mode, rng)
            batch = train_set.subset(idx)
            current = model.with_weights(w)
            try:
                loss, grad = loss_and_grad(current, batch, cfg, ms_idx=ms_idx)
                state, w = adam_step(state, w, grad)
            except (ValueError, TrainingError) as exc:
                raise TrainingError(
                    f"epoch {epoch}, batch at sample {start}: {exc}") from exc
            epoch_loss += loss * len(idx)
        model = model.with_weights(w)
        history.train_loss.append(epoch_loss / n)
        history.holdout_loss.append(
            None if held is None else _mean_loss(model, held, cfg))
    return model, history


def write_history(history, path):
    import json

    with open(path, "w", encoding="utf-8") as f:
        for rec in history.records():
            f.write(json.dumps(rec, allow_nan=False) + "\n")
