"""Reduced bases from compressed Jacobians: the derivative-informed input
basis (active subspace of E[J^T J]), the derivative-informed output basis
(dominant eigenvectors of E[J J^T]), and PCA baselines.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk

from . import io
from .linalg import check_orthonormal, symmetric_eig_topk


@dataclass(frozen=True, eq=False)
class ReducedBasisPair:
    """Orthonormal input basis Psi, output basis Phi, and affine shift b."""

    psi: np.ndarray  # d_M x rbar_M
    phi: np.ndarray  # d_Q x rbar_Q
    b: np.ndarray  # d_Q
    tag: str = "derivative-informed"

    def __post_init__(self):
        check_orthonormal(self.psi, "psi")
        check_orthonormal(self.phi, "phi")
        if self.b.shape != (self.phi.shape[0],):
            raise ValueError("shift b must match the output dimension")

    @property
    def rank_in(self):
        return self.psi.shape[1]

    @property
    def rank_out(self):
        return self.phi.shape[1]


_GRAM_BLOCK = 16  # samples per dsyrk; bounds the scaled block X_b
_MIRROR_COLS = 64  # columns per step of the triangle mirror


def _gram(factors, sigma):
    """(1/N) sum_i X_i X_i^T, X_i = F_i S_i, as a C-ordered d x d array: one
    in-place dsyrk per _GRAM_BLOCK samples adds X_b X_b^T to the upper
    triangle of an F-ordered G (X_b is a view for column-major F_i, as
    jac_v is), which is then mirrored and scaled.  G == G^T bitwise, with
    the same bits under 1 and 2 BLAS threads."""
    n, d, _ = factors.shape
    G = np.zeros((d, d), order="F")
    for i in range(0, n, _GRAM_BLOCK):
        X = factors[i:i + _GRAM_BLOCK] * sigma[i:i + _GRAM_BLOCK, None]
        dsyrk(1.0, X.transpose(0, 2, 1).reshape(-1, d).T, beta=1.0, c=G,
              overwrite_c=True)
    for j in range(0, d, _MIRROR_COLS):
        k = j + _MIRROR_COLS
        G[k:, j:k] = G[j:k, k:].T
        G[j:k, j:k] += np.triu(G[j:k, j:k], 1).T
    G /= n
    return G.T  # the same memory, C-ordered: the eigensolver's fast layout


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
    with io.loading(dirpath, "bases") as (arrays, manifest):
        return ReducedBasisPair(psi=arrays["Psi"], phi=arrays["Phi"],
                                b=arrays["b"],
                                tag=manifest.get("tag", "unknown"))
