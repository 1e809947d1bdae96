"""Training-data generation: sample parameters, solve states, compress
Jacobians, and persist/load the resulting datasets.

With the default rank d_Q the sketch covers the whole map, so
``randomized_svd`` forms it exactly from d_Q adjoint actions in one block
solve; for smaller ranks the randomized range finder compresses it.

Per-sample seeds derive from the run seed via a splitmix64 mix of the
sample index, so generation is order-independent and reproducible.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import io
from .linalg import CountingOperator, TruncatedJacobian, dense_operator, randomized_svd
from .models import (
    PriorConfig,
    RDModel,
    ToyMap,
    jacobian_operator,
    observe,
    sample_prior,
    solve_state,
    toy_map,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def sample_seed(seed, index):
    """splitmix64 finalizer of (seed + (index+1) * golden ratio), 64-bit."""
    z = (int(seed) + (index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class GenerationError(RuntimeError):
    """A sample failed during dataset generation; carries its index."""

    def __init__(self, index, cause):
        super().__init__(f"sample {index} failed: {cause}")
        self.index = index


@dataclass(eq=False)
class Dataset:
    """N samples of (m, q, truncated Jacobian) plus problem metadata."""

    m: np.ndarray  # N x d_M
    q: np.ndarray  # N x d_Q
    jac_u: np.ndarray  # N x d_Q x r
    jac_sigma: np.ndarray  # N x r
    jac_v: np.ndarray  # N x d_M x r
    meta: dict

    def __post_init__(self):
        n, d_m = self.m.shape
        d_q = self.q.shape[1]
        r = self.jac_sigma.shape[1]
        if self.q.shape[0] != n or self.jac_u.shape != (n, d_q, r) \
                or self.jac_sigma.shape != (n, r) or self.jac_v.shape != (n, d_m, r):
            raise ValueError("inconsistent dataset array shapes")

    @property
    def n_samples(self):
        return self.m.shape[0]

    @property
    def d_m(self):
        return self.m.shape[1]

    @property
    def d_q(self):
        return self.q.shape[1]

    @property
    def rank(self):
        return self.jac_sigma.shape[1]

    def jacobian(self, i):
        return TruncatedJacobian(
            U=self.jac_u[i], sigma=self.jac_sigma[i], V=self.jac_v[i]
        )

    def subset(self, indices):
        indices = np.asarray(indices)
        return Dataset(
            m=self.m[indices].copy(),
            q=self.q[indices].copy(),
            jac_u=self.jac_u[indices].copy(),
            jac_sigma=self.jac_sigma[indices].copy(),
            jac_v=self.jac_v[indices].copy(),
            meta=dict(self.meta, n_samples=len(indices)),
        )


@dataclass(eq=False)
class ReducedDataset:
    """Dataset projected into reduced coordinates of a basis pair."""

    m_r: np.ndarray  # N x rbar_M
    q_hat: np.ndarray  # N x rbar_Q
    jac_r: np.ndarray  # N x rbar_Q x rbar_M
    bases: "object"  # ReducedBasisPair

    @property
    def n_samples(self):
        return self.m_r.shape[0]


def _forward_with_jacobian(model, m):
    if isinstance(model, ToyMap):
        q, jac = toy_map(model, m)
        return q, dense_operator(jac)
    u = solve_state(model, m)
    return observe(model, u), jacobian_operator(model, m, u)


def _draw_parameter(model, prior_cfg, rng):
    if prior_cfg is None:
        return rng.standard_normal(model.d_m)
    return sample_prior(prior_cfg, rng)


def generate_dataset(model, prior_cfg, n_samples, rank=None, seed=0,
                     oversample=10, power_iters=1, threads=1):
    """Generate N training tuples (m_i, q_i, rank-r Jacobian SVD).

    ``rank`` defaults to d_Q.  ``model`` is an RDModel (with a PriorConfig)
    or a ToyMap (prior_cfg None draws standard-normal parameters).  The
    metadata counts the Jacobian-action columns (linearized solves) per sample.
    """
    if rank is None:
        rank = model.d_q
    if not 1 <= rank <= min(model.d_m, model.d_q):
        raise ValueError(f"rank {rank} out of range for map "
                         f"{model.d_q} x {model.d_m}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    # The sketch cannot be wider than the map; shrink the padding if needed.
    oversample = min(oversample, min(model.d_m, model.d_q) - rank)

    def one_sample(i):
        rng = np.random.default_rng(sample_seed(seed, i))
        m = _draw_parameter(model, prior_cfg, rng)
        svd_seed = int(rng.integers(1 << 63))
        try:
            q, op = _forward_with_jacobian(model, m)
        except Exception as exc:  # noqa: BLE001 - re-tagged with the index
            raise GenerationError(i, exc) from exc
        counted = CountingOperator(op)
        jac = randomized_svd(counted, rank, oversample=oversample,
                             power_iters=power_iters, seed=svd_seed)
        return m, q, jac, counted.n_apply + counted.n_apply_transpose

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_sample, range(n_samples)))
    else:
        results = [one_sample(i) for i in range(n_samples)]

    m_all = np.stack([r[0] for r in results])
    q_all = np.stack([r[1] for r in results])
    jac_u = np.stack([r[2].U for r in results])
    jac_s = np.stack([r[2].sigma for r in results])
    jac_v = np.stack([r[2].V for r in results])
    meta = {
        "problem": model.config_dict(),
        "prior": None if prior_cfg is None else
                 {"delta": prior_cfg.delta, "gamma": prior_cfg.gamma},
        "d_m": model.d_m,
        "d_q": model.d_q,
        "rank": rank,
        "oversample": oversample,
        "power_iters": power_iters,
        "n_samples": n_samples,
        "seed": seed,
        "linearized_solves_per_sample": [r[3] for r in results],
    }
    return Dataset(m=m_all, q=q_all, jac_u=jac_u, jac_sigma=jac_s,
                   jac_v=jac_v, meta=meta)


def save_dataset(ds, dirpath):
    arrays = {
        "m": ds.m,
        "q": ds.q,
        "jac_U": ds.jac_u,
        "jac_sigma": ds.jac_sigma,
        "jac_V": ds.jac_v,
    }
    io.save_arrays(dirpath, arrays, meta={"object": "dataset", **ds.meta})


def load_dataset(dirpath):
    arrays, manifest = io.load_arrays(dirpath)
    if manifest.get("object") != "dataset":
        raise io.LoadError(f"{dirpath} does not hold a dataset")
    meta = {k: v for k, v in manifest.items()
            if k not in ("arrays", "format_version", "object")}
    ds = Dataset(m=arrays["m"], q=arrays["q"], jac_u=arrays["jac_U"],
                 jac_sigma=arrays["jac_sigma"], jac_v=arrays["jac_V"],
                 meta=meta)
    if meta.get("rank") is not None and meta["rank"] != ds.rank:
        raise io.LoadError(
            f"manifest rank {meta['rank']} != stored rank {ds.rank}")
    if ds.rank > min(ds.d_m, ds.d_q):
        raise io.LoadError(f"stored rank {ds.rank} exceeds map dimensions")
    return ds


def reduce_dataset(ds, bases):
    """Project a dataset onto a reduced basis pair.

    jac_r = Phi^T (U S V^T) Psi is assembled from the stored factors; no
    d_Q x d_M matrix is ever formed.  Exact when the stored rank captures
    the full reduced SVD (the r = d_Q default).
    """
    psi, phi, b = bases.psi, bases.phi, bases.b
    if psi.shape[0] != ds.d_m or phi.shape[0] != ds.d_q:
        raise ValueError(
            f"basis dims ({psi.shape[0]}, {phi.shape[0]}) incompatible with "
            f"dataset dims ({ds.d_m}, {ds.d_q})")
    m_r = ds.m @ psi
    q_hat = (ds.q - b) @ phi
    left = np.einsum("qk,nqr->nkr", phi, ds.jac_u)  # Phi^T U_i
    right = np.einsum("nmr,mj->nrj", ds.jac_v, psi)  # V_i^T Psi
    jac_r = np.einsum("nkr,nr,nrj->nkj", left, ds.jac_sigma, right)
    return ReducedDataset(m_r=m_r, q_hat=q_hat, jac_r=jac_r, bases=bases)
