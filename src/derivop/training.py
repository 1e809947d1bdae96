"""Stochastic optimization layer: loss configuration, the matrix-subsampling
index sampler, a bias-corrected Adam optimizer, and the epoch/batch loop.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io
from .datagen import Dataset, ReducedDataset, reduce_dataset
from .netop import Batch, loss_and_grad, save_model

LOSS_VARIANTS = ("l2", "h1_full", "h1_truncated", "h1_truncated_ms")


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
    target = np.where(ridx[:, None] == cidx[None, :],
                      jac.sigma[ridx][:, None], 0.0)
    E = target - jac.U[:, ridx].T @ model_jac @ jac.V[:, cidx]
    if not rescale:
        return float(np.sum(E**2))
    k = len(ridx)
    if mode == "independent":
        return float((r / k) ** 2 * np.sum(E**2))
    diag = ridx[:, None] == cidx[None, :]
    w = np.where(diag, r / k,
                 (r * (r - 1)) / (k * max(k - 1, 1)))
    return float(np.sum(w * E**2))


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators shaped like the flat weight vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7

    @classmethod
    def fresh(cls, d_w, alpha=1e-3, beta1=0.9, beta2=0.999, eps=1e-7):
        return cls(m=np.zeros(d_w), v=np.zeros(d_w), step=0, alpha=alpha,
                   beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state, w, g):
    """One bias-corrected Adam update; returns the new (state, weights)."""
    g = np.asarray(g, dtype=float)
    if g.shape != w.shape:
        raise ValueError("gradient shape mismatch")
    if not np.all(np.isfinite(g)):
        bad = int(np.argmax(~np.isfinite(g)))
        raise TrainingError(f"non-finite gradient component at index {bad}")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g**2
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    w_new = w - state.alpha * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = AdamState(m=m, v=v, step=t, alpha=state.alpha,
                          beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return new_state, w_new


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


def _training_arrays(data, model, cfg):
    """Pick the data representation the (model, loss) pair trains in.

    Reduced-basis models with l2 / h1_full train in reduced coordinates
    (the projected problem has the same w-gradient); truncated variants
    keep the full-space arrays and project inside the loss.
    """
    reduced_model = model.kind == "reduced_basis"
    if isinstance(data, ReducedDataset):
        if not reduced_model:
            raise ValueError("reduced datasets require a reduced-basis model")
        return {"m": data.m_r, "q": data.q_hat, "jac_r": data.jac_r,
                "latent": True}
    if not isinstance(data, Dataset):
        raise ValueError(f"unsupported dataset type {type(data)!r}")
    if cfg.variant == "h1_truncated_ms" and cfg.k > data.rank:
        raise ValueError(f"k = {cfg.k} exceeds stored rank {data.rank}")
    if reduced_model and cfg.variant in ("l2", "h1_full"):
        red = reduce_dataset(data, model.bases)
        return {"m": red.m_r, "q": red.q_hat, "jac_r": red.jac_r,
                "latent": True}
    return {"m": data.m, "q": data.q, "jac_u": data.jac_u,
            "jac_sigma": data.jac_sigma, "jac_v": data.jac_v, "latent": False}


def _make_batch(arrays, idx):
    def take(key):
        value = arrays.get(key)
        return None if value is None else value[idx]

    return Batch(m=arrays["m"][idx], q=arrays["q"][idx], jac_u=take("jac_u"),
                 jac_sigma=take("jac_sigma"), jac_v=take("jac_v"),
                 jac_r=take("jac_r"), latent=arrays["latent"])


def dataset_loss(model, data, cfg, batch_size=256):
    """Mean loss over a dataset without gradients (holdout evaluation)."""
    arrays = _training_arrays(data, model, cfg)
    n = arrays["m"].shape[0]
    # MS draws add noise to a monitoring metric; use the deterministic
    # truncated penalty instead when evaluating.
    eval_cfg = cfg if cfg.variant != "h1_truncated_ms" else \
        LossConfig(variant="h1_truncated", h1_weight=cfg.h1_weight)
    total = 0.0
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        batch = _make_batch(arrays, idx)
        loss, _ = loss_and_grad(model, batch, eval_cfg)
        total += loss * len(idx)
    return total / n


def train(data, model, cfg, epochs=100, batch_size=32, seed=0,
          holdout=None, checkpoint_dir=None, checkpoint_every=None,
          alpha=1e-3):
    """Adam training loop over shuffled mini-batches.

    Returns (trained model, TrainHistory).  Deterministic for a fixed seed:
    the run RNG drives both the per-epoch shuffle and the MS index draws.
    """
    arrays = _training_arrays(data, model, cfg)
    n = arrays["m"].shape[0]
    rng = np.random.default_rng(seed)
    state = AdamState.fresh(model.spec.d_w, alpha=alpha)
    w = model.weights.flat.copy()
    history = TrainHistory(seed=seed)
    rank = None if arrays["latent"] else arrays["jac_sigma"].shape[1] \
        if arrays.get("jac_sigma") is not None else None

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
            batch = _make_batch(arrays, idx)
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
            dataset_loss(model, holdout, cfg) if holdout is not None
            else None)
        if checkpoint_dir is not None and checkpoint_every \
                and (epoch + 1) % checkpoint_every == 0:
            save_checkpoint(model, state, history,
                            Path(checkpoint_dir) / f"epoch_{epoch + 1:04d}")
    return model, history


def save_checkpoint(model, state, history, dirpath):
    dirpath = Path(dirpath)
    save_model(model, dirpath / "model")
    io.save_arrays(dirpath / "optimizer",
                   {"m": state.m, "v": state.v},
                   meta={"object": "adam_state", "step": state.step,
                         "alpha": state.alpha, "beta1": state.beta1,
                         "beta2": state.beta2, "eps": state.eps})
    write_history(history, dirpath / "history.jsonl")


def write_history(history, path):
    import json

    with open(path, "w", encoding="utf-8") as f:
        for rec in history.records():
            f.write(json.dumps(rec, allow_nan=False) + "\n")
