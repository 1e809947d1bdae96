"""Stochastic optimization layer: loss configuration, the matrix-subsampling
index sampler, a bias-corrected Adam optimizer, and the epoch/batch loop.

The subsampled penalty, with its target and its unbiasing weights, lives in
``netop`` with the other losses, and so does ``loss_set``, which prepares
the sets; this module only draws the indices.
"""

from dataclasses import dataclass, field

import numpy as np

from .netop import loss_and_grad, loss_set

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
        if not (np.isfinite(self.h1_weight) and self.h1_weight >= 0):
            raise ValueError("h1_weight must be finite and >= 0")
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
    """One bias-corrected Adam update (Kingma & Ba, 2015), in place: it
    overwrites ``state.m``, ``state.v`` and ``w``, advances ``state.step``
    and returns (state, w).  A rejected gradient changes nothing."""
    g = np.asarray(g, dtype=float)
    if g.shape != w.shape:
        raise ValueError("gradient shape mismatch")
    if not np.all(np.isfinite(g)):
        bad = int(np.argmax(~np.isfinite(g)))
        raise TrainingError(f"non-finite gradient component at index {bad}")
    t = state.step = state.step + 1
    m, v = state.m, state.v
    # the out-of-place formula's operation order, so the bits stay the same
    tmp = np.multiply(1.0 - ADAM_BETA1, g)
    m *= ADAM_BETA1
    m += tmp
    np.square(g, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += tmp
    den = np.divide(v, 1.0 - ADAM_BETA2**t)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=tmp)
    tmp *= state.alpha
    tmp /= den
    w -= tmp
    return state, w


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    train_loss: list = field(default_factory=list)
    holdout_loss: list = field(default_factory=list)  # None without holdout

    def records(self):
        return [
            {"epoch": e, "train_loss": tl, "holdout_loss": hl}
            for e, (tl, hl) in enumerate(
                zip(self.train_loss, self.holdout_loss))
        ]


def _mean_loss(model, data, cfg):
    """Mean loss over a set from ``loss_set`` without a gradient step
    (holdout evaluation)."""
    n = data.n_samples
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
    if batch_size < 1 or epochs < 0:
        raise ValueError(f"need batch_size >= 1 and epochs >= 0, got "
                         f"{batch_size} and {epochs}")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"learning rate alpha must be finite and > 0, "
                         f"got {alpha}")
    train_set = loss_set(model, data, cfg)
    held = None if holdout is None else loss_set(model, holdout, cfg)
    n = train_set.n_samples
    rng = np.random.default_rng(seed)
    state = AdamState.fresh(model.spec.d_w, alpha=alpha)
    w = model.weights.flat.copy()  # adam_step updates it in place
    current = model.with_weights(w)
    history = TrainHistory()
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
            try:
                loss, grad = loss_and_grad(current, batch, cfg, ms_idx=ms_idx)
                state, w = adam_step(state, w, grad)
            except (ValueError, TrainingError) as exc:
                raise TrainingError(
                    f"epoch {epoch}, batch at sample {start}: {exc}") from exc
            epoch_loss += loss * len(idx)
        history.train_loss.append(epoch_loss / n)
        history.holdout_loss.append(
            None if held is None else _mean_loss(current, held, cfg))
    return model.with_weights(w.copy()), history


def write_history(history, path):
    import json

    with open(path, "w", encoding="utf-8") as f:
        for rec in history.records():
            f.write(json.dumps(rec, allow_nan=False) + "\n")
