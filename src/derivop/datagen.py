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
        """Samples ``indices``, same flags; ``*_per_sample`` meta sliced."""
        rows = {k: getattr(self, k)[indices]
                for k in ("m", "q", "jac_u", "jac_sigma", "jac_v", "jac_r")
                if getattr(self, k) is not None}
        meta = None if self.meta is None else {
            k: np.asarray(v)[indices].tolist()
            if k.endswith("_per_sample") else v
            for k, v in dict(self.meta, n_samples=len(rows["m"])).items()}
        return replace(self, **rows, meta=meta)


def generate_dataset(model, prior_cfg, n_samples, rank=None, seed=0,
                     oversample=10, power_iters=1, threads=1):
    """Generate N training tuples (m_i, q_i, rank-r Jacobian SVD).

    ``rank`` defaults to d_Q.  ``model`` is an RDModel (with a PriorConfig)
    or a ToyMap (prior_cfg None draws standard-normal parameters).  The
    metadata counts each sample's linearized solves and Newton iterations.
    States are solved as one Newton stack, which ``threads`` splits for the
    same bits but no speed-up (f2py's LAPACK wrappers hold the GIL); a
    :class:`GenerationError` names the lowest failing sample.
    """
    if rank is None:
        rank = model.d_q
    if not 1 <= rank <= min(model.d_m, model.d_q):
        raise ValueError(f"rank {rank} out of range for map "
                         f"{model.d_q} x {model.d_m}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if threads < 1 or oversample < 0 or power_iters < 0:  # before any solve
        raise ValueError(f"need threads >= 1, oversample >= 0 and power_iters"
                         f" >= 0, got {threads}, {oversample}, {power_iters}")
    # The sketch cannot be wider than the map; shrink the padding if needed.
    oversample = min(oversample, min(model.d_m, model.d_q) - rank)

    def stack(idx):
        """Samples idx; a failure is redone one by one to name the lowest."""
        rngs = [np.random.default_rng(sample_seed(seed, i)) for i in idx]
        M = np.stack([g.standard_normal(model.d_m) if prior_cfg is None
                      else sample_prior(prior_cfg, g) for g in rngs])
        svd_seeds = [int(g.integers(1 << 63)) for g in rngs]
        toy, out = isinstance(model, ToyMap), []
        try:
            U, history = ([None] * len(M), [[0]] * len(M)) if toy else \
                solve_state(model, M, full_output=True)
            for m, u, h, svd_seed in zip(M, U, history, svd_seeds):
                if toy:
                    q, jac = toy_map(model, m)
                    op = dense_operator(jac)
                else:
                    q, op = observe(model, u), jacobian_operator(model, m, u)
                counted = CountingOperator(op)
                jac = randomized_svd(counted, rank, oversample=oversample,
                                     power_iters=power_iters, seed=svd_seed)
                out.append((m, q, jac, counted.n_apply
                            + counted.n_apply_transpose, len(h) - 1))
        except Exception as exc:  # noqa: BLE001 - re-tagged with the index
            if len(idx) > 1:  # one at a time, the lowest failure raises
                for i in idx:
                    stack([i])
            raise GenerationError(idx[0], exc) from exc
        return out

    parts = [p.tolist() for p in np.array_split(range(n_samples), threads)
             if len(p)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # The pool takes the later parts while this thread takes the first.
        rest = pool.map(stack, parts[1:])
        results = stack(parts[0]) + [r for s in rest for r in s]
    m, q, jacs, solves, iters = zip(*results)
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
        "linearized_solves_per_sample": list(solves),
        "newton_iterations_per_sample": list(iters),
    }
    return Dataset(m=np.stack(m), q=np.stack(q),
                   jac_u=np.stack([j.U for j in jacs]),
                   jac_sigma=np.stack([j.sigma for j in jacs]),
                   jac_v=np.stack([j.V for j in jacs]), meta=meta)


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
        meta = {k: v for k, v in manifest.items()
                if k not in ("arrays", "format_version", "object")}
        # Each V_i column-major, as generated: the same BLAS orientations.
        jac_v = arrays["jac_V"].transpose(0, 2, 1).copy().transpose(0, 2, 1)
        ds = Dataset(m=arrays["m"], q=arrays["q"], jac_u=arrays["jac_U"],
                     jac_sigma=arrays["jac_sigma"], jac_v=jac_v, meta=meta)
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


def reduce_dataset(ds, bases, form_jac_r):
    """The set in the latent coordinates of a basis pair: m Psi and
    (q - b) Phi; for a set with factors, also the projected factors
    Phi^T U_i and Psi^T V_i and jac_r = Phi^T (U S V^T) Psi if
    ``form_jac_r`` (else None), which replaces any jac_r the set carries.
    Every other field passes through unchanged, so a set without factors
    keeps its jac_r.

    jac_r is assembled from the stored factors; no d_Q x d_M matrix is
    ever formed.  Exact when the stored rank captures the full reduced SVD
    (the r = d_Q default).
    """
    if ds.latent:
        raise ValueError("the dataset is already latent")
    factors = {}
    if ds.jac_sigma is not None:
        left, right = project_factors(ds, bases)
        jac_r = (left * ds.jac_sigma[:, None, :]) @ right.transpose(0, 2, 1) \
            if form_jac_r else None
        factors = dict(jac_u=left, jac_v=right, jac_r=jac_r)
    return replace(ds, m=ds.m @ bases.psi, q=(ds.q - bases.b) @ bases.phi,
                   latent=True, **factors)
