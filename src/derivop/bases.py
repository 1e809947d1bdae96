"""Reduced bases from compressed Jacobians: the derivative-informed input
basis (active subspace of E[J^T J]), the derivative-informed output basis
(dominant eigenvectors of E[J J^T]), and PCA baselines.
"""

from dataclasses import dataclass

import numpy as np

from . import io
from .linalg import symmetric_eig_topk


@dataclass(frozen=True, eq=False)
class ReducedBasisPair:
    """Orthonormal input basis Psi, output basis Phi, and affine shift b."""

    psi: np.ndarray  # d_M x rbar_M
    phi: np.ndarray  # d_Q x rbar_Q
    b: np.ndarray  # d_Q
    tag: str = "derivative-informed"

    def __post_init__(self):
        for name, Q in (("psi", self.psi), ("phi", self.phi)):
            r = Q.shape[1]
            if r > Q.shape[0]:
                raise ValueError(f"{name} has more columns than rows")
            err = np.linalg.norm(Q.T @ Q - np.eye(r))
            if err > 1e-10 * max(1.0, np.sqrt(r)):
                raise ValueError(f"{name} not orthonormal, |QtQ - I| = {err:.3e}")
        if self.b.shape != (self.phi.shape[0],):
            raise ValueError("shift b must match the output dimension")

    @property
    def rank_in(self):
        return self.psi.shape[1]

    @property
    def rank_out(self):
        return self.phi.shape[1]


def _gram(factors, sigma):
    """(1/N) sum_i X_i X_i^T with X_i = F_i S_i, one GEMM per sample."""
    G = np.zeros((factors.shape[1],) * 2)
    for F, s in zip(factors, sigma):
        X = F * s
        G += X @ X.T
    return G / len(factors)


def input_gram(ds):
    """Monte Carlo estimate (1/N) sum_i V_i S_i^2 V_i^T of E[J^T J]."""
    return _gram(ds.jac_v, ds.jac_sigma)


def output_gram(ds):
    """Monte Carlo estimate (1/N) sum_i U_i S_i^2 U_i^T of E[J J^T]."""
    return _gram(ds.jac_u, ds.jac_sigma)


def active_subspace(ds, rank_in):
    """Top eigenvectors of the input Gram matrix; returns (basis, eigvals)."""
    if not 1 <= rank_in <= ds.d_m:
        raise ValueError(f"rank_in {rank_in} out of range for d_M = {ds.d_m}")
    vals, vecs = symmetric_eig_topk(input_gram(ds), rank_in)
    return vecs, vals


def derivative_output_basis(ds, rank_out):
    """Top eigenvectors of the output Gram matrix; returns (basis, eigvals)."""
    if not 1 <= rank_out <= ds.d_q:
        raise ValueError(f"rank_out {rank_out} out of range for d_Q = {ds.d_q}")
    vals, vecs = symmetric_eig_topk(output_gram(ds), rank_out)
    return vecs, vals


def pca_basis(samples, rank):
    """Top principal directions of the centered sample covariance.

    Returns (basis, mean).  Requires rank <= min(N - 1, d).
    """
    samples = np.asarray(samples, dtype=float)
    n, d = samples.shape
    if n < 2:
        raise ValueError("PCA needs at least two samples")
    if not 1 <= rank <= min(n - 1, d):
        raise ValueError(f"rank {rank} out of range for {n} samples in dim {d}")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1)
    _, vecs = symmetric_eig_topk(cov, rank)
    return vecs, mean


def derivative_informed_bases(ds, rank_in=None, rank_out=None):
    """DIPNet-style basis pair: active subspace in, derivative basis out.

    Default ranks follow the 2*d_Q / d_Q convention; b is the output mean.
    """
    if rank_in is None:
        rank_in = min(2 * ds.d_q, ds.d_m)
    if rank_out is None:
        rank_out = ds.d_q
    psi, _ = active_subspace(ds, rank_in)
    phi, _ = derivative_output_basis(ds, rank_out)
    return ReducedBasisPair(psi=psi, phi=phi, b=ds.q.mean(axis=0),
                            tag="derivative-informed")


def pca_bases(ds, rank_in=None, rank_out=None):
    """PCA baseline basis pair from the sampled inputs and outputs."""
    if rank_in is None:
        rank_in = min(2 * ds.d_q, ds.d_m, ds.n_samples - 1)
    if rank_out is None:
        rank_out = min(ds.d_q, ds.n_samples - 1)
    psi, _ = pca_basis(ds.m, rank_in)
    phi, mean_q = pca_basis(ds.q, rank_out)
    return ReducedBasisPair(psi=psi, phi=phi, b=mean_q, tag="pca")


def save_bases(bases, dirpath):
    io.save_arrays(
        dirpath,
        {"Psi": bases.psi, "Phi": bases.phi, "b": bases.b},
        meta={"object": "bases", "tag": bases.tag,
              "rank_in": bases.rank_in, "rank_out": bases.rank_out},
    )


def load_bases(dirpath):
    arrays, manifest = io.load_arrays(dirpath)
    if manifest.get("object") != "bases":
        raise io.LoadError(f"{dirpath} does not hold a basis pair")
    return ReducedBasisPair(psi=arrays["Psi"], phi=arrays["Phi"],
                            b=arrays["b"], tag=manifest.get("tag", "unknown"))
