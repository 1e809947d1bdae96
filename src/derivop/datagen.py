"""Training-data generation: sample parameters, solve states, compress
Jacobians, and persist/load the resulting datasets.  One ``Dataset`` holds
a generated set, a mini-batch of it, or its latent projection.

With the default rank d_Q the sketch covers the whole map, so
``randomized_svd`` forms it exactly from d_Q adjoint actions in one block
solve; for smaller ranks the randomized range finder compresses it.

Per-sample seeds derive from the run seed via a splitmix64 mix of the
sample index, so generation is order-independent and reproducible.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import io
from .linalg import (CountingOperator, TruncatedJacobian, check_orthonormal,
                     dense_operator, randomized_svd)
from .models import (
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
    """N samples of (m, q, truncated Jacobian) plus problem metadata; any
    Jacobian field may be None, and ``latent`` marks a reduce_dataset result."""

    m: np.ndarray  # N x d_M
    q: np.ndarray  # N x d_Q
    jac_u: np.ndarray = None  # N x d_Q x r
    jac_sigma: np.ndarray = None  # N x r
    jac_v: np.ndarray = None  # N x d_M x r
    jac_r: np.ndarray = None  # N x r_Q x r_M, always latent
    latent: bool = False
    meta: dict = None

    def __post_init__(self):
        n, d_m = self.m.shape
        d_q = self.q.shape[1]
        r = None if self.jac_sigma is None else self.jac_sigma.shape[1]
        expected = ((self.q, (n, d_q)), (self.jac_u, (n, d_q, r)),
                    (self.jac_sigma, (n, r)), (self.jac_v, (n, d_m, r)))
        if any(a is not None and a.shape != shape for a, shape in expected) \
                or (self.jac_r is not None and len(self.jac_r) != n):
            raise ValueError("inconsistent dataset array shapes")

    @property
    def n_samples(self):
        return self.m.shape[0]

    size = n_samples

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
        """The samples ``indices`` of this set, with the same flags."""
        rows = {k: getattr(self, k)[indices]
                for k in ("m", "q", "jac_u", "jac_sigma", "jac_v", "jac_r")
                if getattr(self, k) is not None}
        meta, key = self.meta, "linearized_solves_per_sample"
        if meta is not None:
            meta = dict(meta, n_samples=len(rows["m"]))
            if key in meta:
                meta[key] = np.asarray(meta[key])[indices].tolist()
        return replace(self, **rows, meta=meta)


def _forward_with_jacobian(model, m):
    if isinstance(model, ToyMap):
        q, jac = toy_map(model, m)
        return q, dense_operator(jac)
    u = solve_state(model, m)
    return observe(model, u), jacobian_operator(model, m, u)


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
        m = rng.standard_normal(model.d_m) if prior_cfg is None \
            else sample_prior(prior_cfg, rng)
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
    arrays = {"m": ds.m, "q": ds.q, "jac_U": ds.jac_u,
              "jac_sigma": ds.jac_sigma, "jac_V": ds.jac_v}
    if ds.latent or any(a is None for a in arrays.values()):
        raise ValueError("cannot save a latent set or one without factors")
    io.save_arrays(dirpath, arrays,
                   meta={"object": "dataset", **(ds.meta or {})})


def load_dataset(dirpath):
    """Load a set written by save_dataset.  Raises io.LoadError unless all
    values are finite, there is at least one sample, the rank is in
    1..min(d_Q, d_M) and matches the manifest, every U_i and V_i is
    orthonormal, and every sigma_i is non-negative and descending."""
    with io.loading(dirpath, "dataset") as (arrays, manifest):
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise io.LoadError(f"{dirpath}: array {name!r} is not finite")
        meta = {k: v for k, v in manifest.items()
                if k not in ("arrays", "format_version", "object")}
        ds = Dataset(m=arrays["m"], q=arrays["q"], jac_u=arrays["jac_U"],
                     jac_sigma=arrays["jac_sigma"], jac_v=arrays["jac_V"],
                     meta=meta)
    if meta.get("rank") is not None and meta["rank"] != ds.rank:
        raise io.LoadError(
            f"manifest rank {meta['rank']} != stored rank {ds.rank}")
    if ds.n_samples < 1 or not 1 <= ds.rank <= min(ds.d_m, ds.d_q):
        raise io.LoadError(f"{dirpath}: {ds.n_samples} samples of rank "
                           f"{ds.rank} for a {ds.d_q} x {ds.d_m} map")
    try:
        check_orthonormal(ds.jac_u, "array 'jac_U'")
        check_orthonormal(ds.jac_v, "array 'jac_V'")
    except ValueError as exc:
        raise io.LoadError(f"{dirpath}: {exc}") from exc
    if np.any(ds.jac_sigma < 0) or np.any(np.diff(ds.jac_sigma, axis=1) > 0):
        raise io.LoadError(f"{dirpath}: array 'jac_sigma' is negative or "
                           "not descending")
    return ds


def project_factors(ds, bases):
    """Phi^T U_i and Psi^T V_i for every sample, by batched matmul."""
    psi, phi = bases.psi, bases.phi
    if psi.shape[0] != ds.d_m or phi.shape[0] != ds.d_q:
        raise ValueError(
            f"basis dims ({psi.shape[0]}, {phi.shape[0]}) incompatible with "
            f"dataset dims ({ds.d_m}, {ds.d_q})")
    # V_i^T Psi with a C-ordered Psi is the fastest BLAS orientation for
    # either layout of the stored V_i; return its transpose.
    right = np.matmul(ds.jac_v.transpose(0, 2, 1), np.ascontiguousarray(psi))
    return np.matmul(phi.T, ds.jac_u), right.transpose(0, 2, 1)


def reduce_dataset(ds, bases):
    """The set in the latent coordinates of a basis pair: m Psi and
    (q - b) Phi; for a set with factors, also the projected factors
    Phi^T U_i and Psi^T V_i and jac_r = Phi^T (U S V^T) Psi, which
    replaces any jac_r the set carries.  Every other field passes through
    unchanged, so a set without factors keeps its jac_r.

    jac_r is assembled from the stored factors; no d_Q x d_M matrix is
    ever formed.  Exact when the stored rank captures the full reduced SVD
    (the r = d_Q default).
    """
    if ds.latent:
        raise ValueError("the dataset is already latent")
    factors = {}
    if ds.jac_sigma is not None:
        left, right = project_factors(ds, bases)
        jac_r = (left * ds.jac_sigma[:, None, :]) @ right.transpose(0, 2, 1)
        factors = dict(jac_u=left, jac_v=right, jac_r=jac_r)
    return replace(ds, m=ds.m @ bases.psi, q=(ds.q - bases.b) @ bases.phi,
                   latent=True, **factors)
