"""Dense linear-algebra kernels: randomized SVD of matrix-free operators
and symmetric top-k eigendecomposition.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free linear map with an explicit transpose action.

    ``apply`` maps an ncols-vector, or an (ncols, k) block of them, to an
    nrows-vector or (nrows, k) block; ``apply_transpose`` the reverse.  The
    two must be adjoint-consistent: <apply(v), w> == <v, apply_transpose(w)>.
    """

    nrows: int
    ncols: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_transpose: Callable[[np.ndarray], np.ndarray]

    def apply_transpose_mat(self, X):
        return self.apply_transpose(X)


def dense_operator(A):
    """Wrap a dense matrix as a LinearOperator."""
    A = np.asarray(A, dtype=float)
    return LinearOperator(
        nrows=A.shape[0],
        ncols=A.shape[1],
        apply=lambda v: A @ v,
        apply_transpose=lambda w: A.T @ w,
    )


def _columns(x):
    return x.shape[1] if np.ndim(x) == 2 else 1


@dataclass
class CountingOperator:
    """LinearOperator wrapper counting the columns each action is given."""

    op: LinearOperator
    n_apply: int = 0
    n_apply_transpose: int = 0

    @property
    def nrows(self):
        return self.op.nrows

    @property
    def ncols(self):
        return self.op.ncols

    def apply(self, v):
        self.n_apply += _columns(v)
        return self.op.apply(v)

    def apply_transpose(self, w):
        self.n_apply_transpose += _columns(w)
        return self.op.apply_transpose(w)


def check_orthonormal(Q, name):
    """Raise ValueError unless |Q^T Q - I| <= 1e-10 * max(1, sqrt(#columns))
    for the matrix Q, or for every matrix of a stack Q of shape (n, d, r)."""
    r = Q.shape[-1]
    gram = np.swapaxes(Q, -1, -2) @ Q - np.eye(r)
    err = np.max(np.linalg.norm(gram, axis=(-2, -1)))
    if err > 1e-10 * max(1.0, np.sqrt(r)):
        raise ValueError(f"{name} not orthonormal, |QtQ - I| = {err:.3e}")


@dataclass(frozen=True)
class TruncatedJacobian:
    """Rank-r truncated SVD (U, sigma, V) of a d_Q x d_M map.

    U is d_Q x r and V is d_M x r with orthonormal columns; sigma is
    non-negative and sorted descending.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def rank(self):
        return self.sigma.shape[0]

    def as_dense(self):
        return (self.U * self.sigma) @ self.V.T


def fix_signs(U, companion=None):
    """Flip column signs so each column's largest-magnitude entry is positive.

    If ``companion`` is given its columns are flipped jointly (preserving
    the product U @ diag(s) @ companion.T).  Returns new arrays.
    """
    U = np.array(U, dtype=float)
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    U *= signs
    if companion is None:
        return U
    return U, np.asarray(companion, dtype=float) * signs


def _orthonormalize(Y):
    # Householder QR, re-orthogonalized once for robustness.
    Q, _ = np.linalg.qr(Y)
    Q, _ = np.linalg.qr(Q)
    return Q


def randomized_svd(op, rank, oversample=10, power_iters=1, seed=0):
    """Truncated SVD of a LinearOperator via the randomized range finder.

    Draws ``rank + oversample`` Gaussian probes, optionally runs
    ``power_iters`` rounds of subspace iteration, and truncates the small
    SVD back to ``rank``.  When ``rank + oversample`` equals the smaller
    dimension the probes would span the whole map, so the map is formed
    exactly by one block action on that identity and densely decomposed;
    ``seed`` and ``power_iters`` are then unused.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if oversample < 0 or power_iters < 0:
        raise ValueError("oversample and power_iters must be non-negative")
    ell = rank + oversample
    if ell > min(op.nrows, op.ncols):
        raise ValueError(
            f"rank + oversample = {ell} exceeds min(shape) = "
            f"{min(op.nrows, op.ncols)}"
        )
    if ell == op.nrows <= op.ncols:
        U, s, Vt = np.linalg.svd(op.apply_transpose(np.eye(ell)).T,
                                 full_matrices=False)
    elif ell == op.ncols:
        U, s, Vt = np.linalg.svd(op.apply(np.eye(ell)), full_matrices=False)
    else:
        rng = np.random.default_rng(seed)
        Omega = rng.standard_normal((op.ncols, ell))
        Q = _orthonormalize(op.apply(Omega))
        for _ in range(power_iters):
            Z = _orthonormalize(op.apply_transpose(Q))
            Q = _orthonormalize(op.apply(Z))
        # B = Q^T A, formed row-wise through the transpose action.
        Ub, s, Vt = np.linalg.svd(op.apply_transpose(Q).T, full_matrices=False)
        U = Q @ Ub[:, :rank]
    U, V = fix_signs(U[:, :rank], Vt[:rank].T)
    return TruncatedJacobian(U=U, sigma=s[:rank].copy(), V=V)


def symmetric_eig_topk(S, k):
    """Top-k eigenpairs of a symmetric matrix, descending, sign-fixed."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected square matrix, got shape {S.shape}")
    asym = np.linalg.norm(S - S.T)
    if asym > 1e-10 * max(1.0, np.linalg.norm(S)):
        raise ValueError(f"matrix not symmetric, |S - S^T| = {asym:.3e}")
    if not 1 <= k <= S.shape[0]:
        raise ValueError(f"k = {k} out of range for dim {S.shape[0]}")
    vals, vecs = np.linalg.eigh((S + S.T) / 2)
    order = np.argsort(vals)[::-1][:k]
    return vals[order].copy(), fix_signs(vecs[:, order])
