"""Feed-forward neural operator with exact parametric Jacobians and
hand-derived weight gradients of Jacobian-penalty losses (no autodiff
framework).

Two wrappings of the same latent MLP:

* generic   - the raw MLP maps d_M -> d_Q;
* reduced_basis - f(m) = Phi phi(Psi^T m) + b with frozen orthonormal
  bases, whose native Jacobian lives in the latent r_Q x r_M space.

Every Jacobian product A_i^T J_i B_i comes off one of two batched sweeps,
each costing in proportion to the columns it carries per sample.  The
tangent tape carries the cols columns of a right factor B_i (or of the
identity) up the network, next to those of every other sample: T_0 = B_i and
T_l = d1_l * (W_l T_{l-1}), stored (cols, n, n_l), so T_L[:, i] is
(J(m_i) B_i)^T.  The adjoint sweep, its mirror, carries the rows columns of
a left factor A_i (or of the identity) down it: Q_L = A_i, P_l = d1_l * Q_l
and Q_{l-1} = W_l^T P_l, stored (rows, n, n_{l-1}), so Q_0[:, i] is
A_i^T J(m_i).  Every array is stored column-outer, (columns, n, width), so
that each layer's work is dense: one GEMM of the stacked
(columns * n, width) array by W_l^T or W_l, a d1 scaling that broadcasts the
(n, width) d1_l over the leading axis (inner loops n * width long, not
columns long), and a weight gradient that contracts the leading axes in one
GEMM, with no copy.  Each array forms only when pulled.  The shapes alone
pick the sweep: the adjoint one iff rows < cols, and ties keep the tangent
tape.  So h1_full penalties and the Jacobian read-offs take the adjoint
sweep when the net's output is narrower than its input, as DINO's r_Q x r_M
Jacobian is, and the truncated penalties (rows = cols) the tangent tape.

One combinator, ``_penalty``, holds that pick and serves the penalty
||C_i - A_i^T J_i B_i||^2.  It reads A^T J B off the picked sweep and keeps
that sweep's arrays; the one Jacobian read-off, ``parametric_jacobian``,
sweeps one forward tape a block of rows at a time with identity seeds
(evaluation reads a generic net's off its ``as_reduced_basis`` net).  The
weight gradient (double backpropagation: second-order adjoints, forward
over reverse) streams the other sweep against them, seeded from Ebar_i, the
loss gradient with respect to A_i^T J_i B_i: Q_L = A_i Ebar_i down a
kept tangent tape, or T_0 = B_i Ebar_i^T up a kept adjoint sweep, which
keeps its P_l too.  One rule per layer, ``_layer_pair``, reads the pair the
value-loss backward pass consumes off the two sides: dW_l = P_l T_{l-1}^T
and d2-seed_l = (d2/d1)_l * sum_c(Q_l * T_l), identity seeds included.

A loss reads its samples from a ``datagen.Dataset``: one container holds
generated sets, mini-batches and latent sets, and ``loss_set`` is the one
rule for what a loss reads: a reduced-basis model's loss always reads a
latent set from ``datagen.reduce_dataset``, the one place that projects
samples onto the bases.
"""

from collections import deque
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import qr

from . import datagen, io
from .bases import ReducedBasisPair


# --- activations -------------------------------------------------------------

def _softplus(A):
    """Softplus, d1 = expit(A) and d2/d1 = expit(-A), from one e = exp(-|A|):
    log(1 + e^A) = max(A, 0) + log1p(e), and d1 and d2/d1 are 1 or e over
    1 + e."""
    e = np.exp(-np.abs(A))
    pos, e1 = A >= 0, 1.0 + e
    return (np.maximum(A, 0.0) + np.log1p(e), np.where(pos, 1.0, e) / e1,
            np.where(pos, e, 1.0) / e1)


_ACTIVATIONS = {
    # A -> (value, first derivative d1, ratio d2/d1 of second to first
    # derivative); d2/d1 is finite everywhere, so the tape need not keep
    # W_l T_{l-1}
    "softplus": _softplus,
    "linear": lambda A: (A, np.ones_like(A), np.zeros_like(A)),
}


@dataclass(frozen=True)
class MLPSpec:
    """Layer widths (input, hidden..., output) and per-layer activations."""

    widths: tuple
    activations: tuple
    init_seed: int = 0

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("need at least one layer")
        if any(w < 1 for w in self.widths):
            raise ValueError("widths must be positive")
        if len(self.activations) != self.num_layers:
            raise ValueError("one activation per layer required")
        for a in self.activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")

    @classmethod
    def dense(cls, widths, init_seed=0):
        """Softplus hidden layers and a linear output layer."""
        widths = tuple(int(w) for w in widths)
        acts = ("softplus",) * (len(widths) - 2) + ("linear",)
        return cls(widths=widths, activations=acts, init_seed=init_seed)

    @property
    def num_layers(self):
        return len(self.widths) - 1

    @property
    def d_in(self):
        return self.widths[0]

    @property
    def d_out(self):
        return self.widths[-1]

    @property
    def d_w(self):
        return sum((self.widths[l + 1] * self.widths[l] + self.widths[l + 1])
                   for l in range(self.num_layers))


class NetworkWeights:
    """All trainable parameters as one flat float64 vector plus layer views."""

    def __init__(self, spec, flat):
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (spec.d_w,):
            raise ValueError(f"flat length {flat.shape} != d_w = {spec.d_w}")
        self.spec = spec
        self.flat = flat
        self._layers, offset = [], 0
        for fi, fo in zip(spec.widths, spec.widths[1:]):
            W = flat[offset:offset + fo * fi].reshape(fo, fi)
            offset += fo * fi
            self._layers.append((W, flat[offset:offset + fo]))
            offset += fo

    @classmethod
    def init(cls, spec):
        """Per-layer Gaussian init, variance 2 / (fan_in + fan_out)."""
        rng = np.random.default_rng(spec.init_seed)
        parts = []
        for l in range(spec.num_layers):
            fan_in, fan_out = spec.widths[l], spec.widths[l + 1]
            std = np.sqrt(2.0 / (fan_in + fan_out))
            parts.append(std * rng.standard_normal(fan_out * fan_in))
            parts.append(np.zeros(fan_out))
        return cls(spec, np.concatenate(parts))

    def layers(self):
        """List of (W_l, b_l) views into the flat vector, built once."""
        return self._layers


@dataclass(eq=False)
class OperatorModel:
    """A latent MLP, either raw ("generic") or basis-wrapped ("reduced_basis")."""

    kind: str
    spec: MLPSpec
    weights: NetworkWeights
    bases: ReducedBasisPair = None

    def __post_init__(self):
        if self.kind not in ("generic", "reduced_basis"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "reduced_basis":
            if self.bases is None:
                raise ValueError("reduced_basis model requires bases")
            if self.spec.d_in != self.bases.rank_in \
                    or self.spec.d_out != self.bases.rank_out:
                raise ValueError(
                    f"latent widths ({self.spec.d_in}, {self.spec.d_out}) do "
                    f"not match basis ranks ({self.bases.rank_in}, "
                    f"{self.bases.rank_out})")

    @property
    def d_m(self):
        return self.bases.psi.shape[0] if self.kind == "reduced_basis" \
            else self.spec.d_in

    @property
    def d_q(self):
        return self.bases.phi.shape[0] if self.kind == "reduced_basis" \
            else self.spec.d_out

    def with_weights(self, flat):
        return OperatorModel(kind=self.kind, spec=self.spec,
                             weights=NetworkWeights(self.spec, flat),
                             bases=self.bases)


def _mlp_forward(weights, X):
    """Forward pass with tape: returns (zs, d1s, ratios) lists over layers,
    ``ratios`` holding d2/d1 of each activation."""
    spec = weights.spec
    zs = [X]
    d1s, ratios = [], []
    for (W, b), act_name in zip(weights.layers(), spec.activations):
        A = zs[-1] @ W.T
        A += b
        value, d1, ratio = _ACTIVATIONS[act_name](A)
        zs.append(value)
        d1s.append(d1)
        ratios.append(ratio)
    return zs, d1s, ratios


def forward(model, m):
    """Full-space evaluation f(m); accepts a vector or a batch of rows."""
    M = np.atleast_2d(np.asarray(m, dtype=float))
    if M.shape[1] != model.d_m:
        raise ValueError(f"input dim {M.shape[1]} != d_M = {model.d_m}")
    if model.kind == "reduced_basis":
        M = M @ model.bases.psi
    out = _mlp_forward(model.weights, M)[0][-1]
    if model.kind == "reduced_basis":
        out = out @ model.bases.phi.T + model.bases.b
    return out[0] if np.ndim(m) == 1 else out


# --- Jacobian sweeps ----------------------------------------------------------

class FlopCounter:
    """Multiply-count for the Jacobian-penalty evaluation path."""

    def __init__(self):
        self.count = 0


PENALTY_FLOPS = FlopCounter()
_BLOCK_ROWS = 8  # rows per block of a Jacobian read-off's sweeps


def _tangent_tape(layers, d1s, T, flops):
    """Push tangent columns through the net, stacked over the batch.

    ``T`` is T_0 laid out (cols, n, n_0), or None for the identity
    (cols = n_0).  Yields T_l = d1_l * (W_l T_{l-1}) for l = 1..L, each
    (cols, n, n_l), C-contiguous and one GEMM of (cols * n, n_{l-1}) by
    W_l^T.  Multiplies are added to the FlopCounter ``flops``.
    """
    for (W, _), d1 in zip(layers, d1s):
        if T is None:
            # T_1[c, i, o] = W[o, c] d1[i, o]
            T = np.multiply(W.T[:, None, :], d1, order="C")
        else:
            # a contiguous W_l^T: OpenBLAS runs the NN product faster
            T = (T.reshape(-1, W.shape[1]) @ np.ascontiguousarray(W.T)
                 ).reshape(*T.shape[:2], len(W))
            T *= d1
            flops.count += W.shape[1] * T.size
        flops.count += T.size
        yield T


def _adjoint_sweep(layers, d1s, Q, flops):
    """Pull adjoint rows down the net, stacked over the batch.

    ``Q`` is Q_L laid out (rows, n, n_L), or None for the identity
    (rows = n_L).  Yields (Q_l, P_l) for l = L..1 and then (Q_0, None), with
    P_l = d1_l * Q_l and Q_{l-1} = W_l^T P_l, one GEMM of (rows * n, n_l) by
    W_l; each is (rows, n, width) and C-contiguous past the seed, and
    Q_0[:, i] is A_i^T J(m_i).  An identity seed yields (None, None) for
    Q_L = I and P_L = diag(d1_L).  Each pull forms only the arrays it
    yields, and their multiplies are added to the FlopCounter ``flops``.
    """
    P = None
    for (W, _), d1 in zip(layers[::-1], d1s[::-1]):
        if Q is not None:
            P = np.multiply(Q, d1, order="C")
            flops.count += P.size
        yield Q, P
        if P is None:
            # Q_{L-1}[r, i, k] = d1[i, r] W[r, k]
            Q = np.multiply(d1.T[:, :, None], W[:, None, :], order="C")
            flops.count += Q.size
        else:
            Q = (P.reshape(-1, len(W)) @ W).reshape(*P.shape[:2], W.shape[1])
            flops.count += W.shape[1] * P.size
    yield Q, None


def parametric_jacobian(model, m):
    """Exact Jacobian of the model at m: latent r_Q x r_M for reduced-basis
    models, d_Q x d_M for generic ones.  A batch of rows gives one per row.
    ``_penalty`` reads it off one forward tape, a block at a time, with
    identity seeds.  The tape runs on the rows zero-padded to whole blocks,
    stacked, one GEMM per block: whatever kernel BLAS picks by row count, a
    block gets the bits of its own read-off."""
    M = np.atleast_2d(np.asarray(m, dtype=float))
    n, d = M.shape
    X = np.zeros((-(-n // _BLOCK_ROWS), _BLOCK_ROWS, d))
    X.reshape(-1, d)[:n] = M
    if model.kind == "reduced_basis":
        X = X @ model.bases.psi
    d1s = [d1.reshape(-1, d1.shape[2])[:n]
           for d1 in _mlp_forward(model.weights, X)[1]]
    J = np.empty((n, model.spec.d_out, model.spec.d_in))
    for k in range(0, n, _BLOCK_ROWS):
        b = slice(k, k + _BLOCK_ROWS)
        J[b] = _penalty(model.weights.layers(), [d1[b] for d1 in d1s], None,
                        None, None, FlopCounter())[0]
    return J[0] if np.ndim(m) == 1 else J


def as_reduced_basis(model):
    """The reduced-basis net equal to ``model``: the model itself, or for a
    generic net, with W_1^T = Q R (Q d_M x min(n_1, d_M)), the net with
    Psi = Q, Phi = I, b = 0 and first-layer weight R^T.  Its latent
    Jacobian J_r gives the generic one as J = J_r Q^T."""
    if model.kind == "reduced_basis":
        return model
    W1 = model.weights.layers()[0][0]
    Q, R = qr(W1.T, mode="economic")
    spec = replace(model.spec, widths=(len(R), *model.spec.widths[1:]))
    flat = np.concatenate([R.T.ravel(), model.weights.flat[W1.size:]])
    pair = ReducedBasisPair(psi=Q, phi=np.eye(model.d_q),
                            b=np.zeros(model.d_q), tag="first layer")
    return OperatorModel("reduced_basis", spec, NetworkWeights(spec, flat),
                         pair)


def full_space_jacobian(model, m):
    """d_Q x d_M Jacobian; materializes Phi J Psi^T for reduced models."""
    J = parametric_jacobian(model, m)
    if model.kind == "reduced_basis":
        return model.bases.phi @ J @ model.bases.psi.T
    return J


# --- losses -------------------------------------------------------------------

def _ms_target(sigma, ridx, cidx):
    """Subsampled target U_[k]^T (U S V^T) V_[k'] for exact stored factors;
    ``sigma`` may be one sample's (r,) or a batch's (n, r)."""
    return np.where(ridx[:, None] == cidx[None, :],
                    sigma[..., ridx, None], 0.0)


def _ms_weight(r, ridx, cidx, mode):
    """Per-entry rescaling that unbiases the subsampled penalty."""
    k = len(ridx)
    if mode == "independent":
        return np.full((k, k), (r / k) ** 2)
    diag = ridx[:, None] == cidx[None, :]
    return np.where(diag, r / k, (r * (r - 1)) / (k * max(k - 1, 1)))


def loss_set(model, data, cfg):
    """The set as the loss ``cfg`` of ``model`` reads it, without metadata
    or unread fields: latent for a reduced-basis model (the latent problem
    has the same w-gradient).  l2 reads no Jacobian field, h1_full of a
    reduced-basis model only jac_r, and every other penalty the factors."""
    factors = ("jac_u", "jac_sigma", "jac_v")
    reduced = model.kind == "reduced_basis"
    unread = ((*factors, "jac_r") if cfg.variant == "l2"
              else factors if cfg.variant == "h1_full" and reduced
              else ("jac_r",))
    missing = [f for f in factors
               if f not in unread and getattr(data, f) is None]
    if missing:
        raise ValueError(f"{cfg.variant} needs the stored Jacobian SVD "
                         f"factors; the set lacks {', '.join(missing)}")
    if cfg.variant == "h1_truncated_ms" and cfg.k > data.rank:
        raise ValueError(f"k = {cfg.k} exceeds stored rank {data.rank}")
    if cfg.variant == "l2":  # nothing to project but m and q
        data = replace(data, **dict.fromkeys(unread))
    if reduced:
        data = datagen.reduce_dataset(data, model.bases, "jac_r" not in unread)
    return replace(data, meta=None, **dict.fromkeys(unread))


def _penalty_terms(model, batch, cfg, ms_idx):
    """(A, B, C, wgt) of the penalties ||C_i - A_i^T J_i B_i||^2, stacked
    over the batch; None stands for an identity factor or unit weights."""
    variant = cfg.variant
    if variant == "h1_full" and batch.latent:
        if batch.jac_r is None:
            raise ValueError("h1_full with a reduced model needs jac_r")
        return None, None, batch.jac_r, None
    if batch.jac_u is None:
        raise ValueError(f"{variant} needs the stored Jacobian SVD factors")
    U, sigma, V = batch.jac_u, batch.jac_sigma, batch.jac_v
    if variant == "h1_full":
        return None, None, (U * sigma[:, None, :]) @ V.transpose(0, 2, 1), None
    if variant == "h1_truncated":
        A, B = U, V
        C = sigma[:, :, None] * np.eye(sigma.shape[1])
        wgt = None
    elif variant == "h1_truncated_ms":
        if ms_idx is None:
            raise ValueError("h1_truncated_ms needs subsampled indices")
        r = sigma.shape[1]
        ridx, cidx = (np.asarray(i, dtype=np.intp) for i in ms_idx)
        if min(ridx.min(), cidx.min()) < 0 or max(ridx.max(), cidx.max()) >= r:
            raise ValueError(f"subsample indices must lie in [0, {r})")
        A, B = U[:, :, ridx], V[:, :, cidx]
        C = _ms_target(sigma, ridx, cidx)
        wgt = _ms_weight(r, ridx, cidx, cfg.ms_mode) \
            if cfg.ms_rescale else None
    else:
        raise ValueError(f"unknown loss variant {variant!r}")
    return A, B, C, wgt


def _layer_pair(W, d1, ratio, T_prev, T, Q, P):
    """One layer's (dW_l, d2-seed_l) off (cols, n, width) arrays:
    dW_l = P_l T_{l-1}^T, one GEMM over the two leading axes, and
    d2-seed_l = (d2/d1)_l * sum_c(Q_l * T_l).  ``T_prev`` None is T_0 = I.
    ``Q`` None is Q_L = I, so P_L = diag(d1_L), and only the diagonal of
    T_L is read, as d1_L * (W_L T_{L-1}): T_L is never formed."""
    if Q is None:
        return (np.einsum("bo,obk->ok", d1, T_prev),
                ratio * d1 * np.einsum("ok,obk->bo", W, T_prev))
    seed = ratio * np.einsum("cbw,cbw->bw", Q, T)
    gW = P.sum(axis=1).T if T_prev is None \
        else P.reshape(-1, P.shape[2]).T @ T_prev.reshape(-1, T_prev.shape[2])
    return gW, seed


def _penalty(layers, d1s, ratios, A, B, flops):
    """A^T J B stacked (n, rows, cols), and the function that maps Ebar (the
    loss gradient with respect to it) to the per-layer (dW_l, d2-seed_l).
    netop's one sweep pick: the sweep with fewer columns per sample gives
    A^T J B on the FlopCounter ``flops`` and is kept, P_l included; the other
    one streams from Ebar against it, on a throwaway counter, in the same
    (columns, n, width) layout.  The function frees each kept array after
    its layer, so it may run only once, or not at all.  ``ratios`` None, for
    a read-off of A^T J B alone, keeps no array; the function must not run."""
    rows = d1s[-1].shape[1] if A is None else A.shape[2]
    cols = layers[0][0].shape[1] if B is None else B.shape[2]
    keep = 1 if ratios is None else None  # sweep items kept (None: all)
    if rows < cols:
        QL = None if A is None else A.transpose(2, 0, 1)
        *QPs, (Q0, _) = deque(_adjoint_sweep(layers, d1s, QL, flops), keep)
        S = Q0.transpose(1, 0, 2)
        if B is not None:
            S = S @ B
            flops.count += Q0.size * B.shape[2]

        def pairs(Ebar):
            T = Ebar if B is None else Ebar @ B.transpose(0, 2, 1)
            T = np.ascontiguousarray(T.transpose(1, 0, 2))
            tape = _tangent_tape(layers, d1s, T, FlopCounter())
            out = []
            for (W, _), d1, ratio in zip(layers, d1s, ratios):
                T_prev, (Q, P) = T, QPs.pop()  # drops T_{l-1} before T_{l+1}
                T = None if Q is None else next(tape)
                out.append(_layer_pair(W, d1, ratio, T_prev, T, Q, P))
            return out
        return S, pairs

    T0 = None if B is None else np.ascontiguousarray(B.transpose(2, 0, 1))
    Ts = [T0, *deque(_tangent_tape(layers, d1s, T0, flops), keep)]
    S = Ts[-1].transpose(1, 2, 0)
    if A is not None:
        S = A.transpose(0, 2, 1) @ S
        flops.count += A.size * S.shape[2]

    def pairs(Ebar):
        sweep = _adjoint_sweep(layers, d1s, (Ebar if A is None else A @ Ebar)
                               .transpose(2, 0, 1), FlopCounter())
        # pops T_l, read for the last time; no frame holds (Q_l, P_l) while
        # Q_{l-1} forms, and Q_0 is never pulled
        return [_layer_pair(W, d1, ratio, Ts[-2], Ts.pop(), *next(sweep))
                for (W, _), d1, ratio in zip(
                    layers[::-1], d1s[::-1], ratios[::-1])][::-1]
    return S, pairs


def loss_and_grad(model, batch, cfg, ms_idx=None):
    """Batch-mean loss of the configured formulation and its exact w-gradient.

    A reduced-basis model reads its batch in latent coordinates: a
    full-space batch goes through ``loss_set`` first, so the loss
    omits the w-independent misfit sum_i ||(I - Phi Phi^T)(q_i - b)||^2 / n
    and the gradient is that of the full-space loss.  ``ms_idx`` is the
    (row, column) index pair drawn by the trainer for the matrix-subsampled
    variant; every index must lie in [0, r) for the stored rank r.
    """
    if batch.latent != (model.kind == "reduced_basis"):
        if batch.latent:
            raise ValueError("latent batches require a reduced-basis model")
        batch = loss_set(model, batch, cfg)
    weights = model.weights
    layers = weights.layers()
    nbatch = batch.n_samples
    d_in = batch.m.shape[1]
    if d_in != weights.spec.d_in:
        raise ValueError(f"input dim {d_in} != {weights.spec.d_in}")
    zs, d1s, ratios = _mlp_forward(weights, batch.m)

    res = zs[-1] - batch.q
    seed = (2.0 / nbatch) * res
    loss = float(np.sum(res**2)) / nbatch

    pairs = None  # per-layer (dW, d2-seed) of the penalty
    if cfg.variant != "l2":
        A, B, C, wgt = _penalty_terms(model, batch, cfg, ms_idx)
        S, penalty_pairs = _penalty(layers, d1s, ratios, A, B, PENALTY_FLOPS)
        E = S - C
        wE = E if wgt is None else wgt * E
        PENALTY_FLOPS.count += E.size * (1 if wgt is None else 2)
        loss += cfg.h1_weight * float(np.sum(wE * E)) / nbatch
        pairs = penalty_pairs((2.0 * cfg.h1_weight / nbatch) * wE)

    grad = NetworkWeights(weights.spec, np.empty_like(weights.flat))
    for l in range(len(layers) - 1, -1, -1):
        (W, _), (gW, gb) = layers[l], grad.layers()[l]
        g_a = seed * d1s[l]
        if pairs is not None:
            g_a += pairs[l][1]
        np.matmul(g_a.T, zs[l], out=gW)
        if pairs is not None:
            gW += pairs[l][0]
        g_a.sum(axis=0, out=gb)
        if l > 0:
            seed = g_a @ W
    return loss, grad.flat


# --- persistence ----------------------------------------------------------------

def save_model(model, dirpath):
    arrays = {"weights": model.weights.flat}
    meta = {
        "object": "operator_model",
        "kind": model.kind,
        "widths": list(model.spec.widths),
        "activations": list(model.spec.activations),
        "init_seed": model.spec.init_seed,
    }
    if model.kind == "reduced_basis":
        arrays.update(Psi=model.bases.psi, Phi=model.bases.phi,
                      b=model.bases.b)
        meta["bases_tag"] = model.bases.tag
    io.save_arrays(dirpath, arrays, meta=meta)


def load_model(dirpath):
    with io.loading(dirpath, "operator_model") as (arrays, manifest):
        spec = MLPSpec(widths=tuple(manifest["widths"]),
                       activations=tuple(manifest["activations"]),
                       init_seed=manifest.get("init_seed", 0))
        weights = NetworkWeights(spec, arrays["weights"])
        bases = None
        if manifest["kind"] == "reduced_basis":
            bases = ReducedBasisPair(psi=arrays["Psi"], phi=arrays["Phi"],
                                     b=arrays["b"],
                                     tag=manifest.get("bases_tag", "unknown"))
        return OperatorModel(kind=manifest["kind"], spec=spec,
                             weights=weights, bases=bases)
