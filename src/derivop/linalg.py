"""Dense linear-algebra kernels: randomized SVD of matrix-free operators
and symmetric top-k eigendecomposition.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg import lapack


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
    """Raise ValueError unless Q is finite and |Q^T Q - I| <=
    1e-10 * max(1, sqrt(#columns)) for the matrix Q, or for every matrix of
    a stack Q of shape (n, d, r)."""
    if not np.all(np.isfinite(Q)):
        raise ValueError(f"{name} has non-finite entries")
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


def _lapack(name, *args, **kwargs):
    """LAPACK's ``name`` without scipy's checks; LinAlgError if info != 0."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"{name} returned info = {info}")
    return out


def _orthonormalize(Y):
    """Q of the thin Householder QR of a tall Y, by dgeqrf and dorgqr."""
    return _lapack("dorgqr", *_lapack("dgeqrf", Y)[:2], overwrite_a=True)[0]


def _svd_of_transpose(Bt):
    """Thin SVD (U, s, V) of B = Bt^T for a tall Bt, through the small SVD
    (dgesdd) of R^T from the Householder QR Bt = Q R; V = Q W.  U and V get
    a thin SVD's layouts, V as (W^T Q^T)^T: an F-ordered jac_u or C-ordered
    jac_v slows the batched products over the stored factors."""
    qr, tau, _ = _lapack("dgeqrf", Bt)
    U, s, Wt = _lapack("dgesdd", np.triu(qr[:len(tau)]).T)
    Q = _lapack("dorgqr", qr, tau, overwrite_a=True)[0]
    return np.ascontiguousarray(U), s, (Wt @ Q.T).T


def randomized_svd(op, rank, oversample=10, power_iters=1, seed=0):
    """Truncated SVD of a LinearOperator via the randomized range finder.

    Draws ``rank + oversample`` Gaussian probes, optionally runs
    ``power_iters`` rounds of subspace iteration (one Householder QR per
    step), and truncates the small SVD back to ``rank``.  When ``rank +
    oversample`` equals the smaller dimension the probes would span the
    whole map, so the map is formed exactly by one block action on that
    identity; ``seed`` and ``power_iters`` are then unused.  Either way the
    SVD runs on the square R of a Householder QR of the tall side.
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
        U, s, V = _svd_of_transpose(op.apply_transpose(np.eye(ell)))
    elif ell == op.ncols:
        V, s, U = _svd_of_transpose(op.apply(np.eye(ell)))
    else:
        rng = np.random.default_rng(seed)
        Omega = rng.standard_normal((op.ncols, ell))
        Q = _orthonormalize(op.apply(Omega))
        for _ in range(power_iters):
            Z = _orthonormalize(op.apply_transpose(Q))
            Q = _orthonormalize(op.apply(Z))
        # B = Q^T A, formed row-wise through the transpose action.
        Ub, s, V = _svd_of_transpose(op.apply_transpose(Q))
        U = Q @ Ub[:, :rank]
    U, V = fix_signs(U[:, :rank], V[:, :rank])
    return TruncatedJacobian(U=U, sigma=s[:rank].copy(), V=V)


# Subspace iteration skips dsyevr's O(d^3) tridiagonalization.
_SUBSPACE_MIN_RATIO = 12  # iterate only when 12 k <= d
_SUBSPACE_ITERS = 4
_RITZ_TOL = 1e-12  # residual bound relative to the top Ritz value
_ASYM_ROWS = 64  # rows per block of the checks: no d x d temporary


def _subspace_topk(S, k):
    """Top-k Ritz pairs of S, descending, by block subspace iteration with
    Rayleigh-Ritz; None if 12 k > d, if a Ritz value shows that S is not
    PSD, or if the pairs have not converged after the last step."""
    if _SUBSPACE_MIN_RATIO * k > len(S):
        return None
    Y = S @ np.random.default_rng(0).standard_normal((len(S), 3 * k))
    for _ in range(_SUBSPACE_ITERS):
        Q, _ = np.linalg.qr(Y)
        Y = S @ Q
        theta, W = np.linalg.eigh(Q.T @ Y)
        tol = _RITZ_TOL * theta[-1]
        if theta[0] < -tol:  # S is not PSD: the top |lambda| may be negative
            return None
        theta, W = theta[::-1][:k].copy(), W[:, ::-1][:, :k]
        X = Q @ W
        if np.all(np.linalg.norm(Y @ W - X * theta, axis=0) <= tol):
            return theta, X
    return None


def symmetric_eig_topk(S, k):
    """Top-k eigenpairs of a symmetric matrix, descending, sign-fixed.

    When 12 k <= d, block subspace iteration tries first (Halko, Martinsson
    & Tropp 2011): a start block S Omega of 3k Gaussian columns drawn from
    ``default_rng(0)``, then per step a Householder QR Q of the block, the
    next block S Q, and the eigenpairs of Q^T S Q.  It stops once each of
    the top k Ritz pairs has ||S v - lambda v|| <= 1e-12 lambda_1.  It finds
    the eigenvalues of largest magnitude, which are the top k only for PSD
    S, so a Ritz value below -1e-12 lambda_1 hands S to LAPACK's subset
    driver (dsyevr), as do 4 steps without convergence and 12 k > d.
    dsyevr reads one triangle of S and forms only the k wanted
    eigenvectors."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected square matrix, got shape {S.shape}")
    blocks = [slice(i, i + _ASYM_ROWS) for i in range(0, len(S), _ASYM_ROWS)]
    if not all(np.isfinite(S[b]).all() for b in blocks):
        raise ValueError("matrix has non-finite entries")
    asym = np.linalg.norm([np.linalg.norm(S[b] - S[:, b].T) for b in blocks])
    if asym > 1e-10 * max(1.0, np.linalg.norm(S)):
        raise ValueError(f"matrix not symmetric, |S - S^T| = {asym:.3e}")
    if not 1 <= k <= S.shape[0]:
        raise ValueError(f"k = {k} out of range for dim {S.shape[0]}")
    found = _subspace_topk(S, k)
    if found is None:
        n = len(S)
        vals, vecs = scipy.linalg.eigh(S, check_finite=False,
                                       subset_by_index=[n - k, n - 1])
        found = vals[::-1].copy(), vecs[:, ::-1]
    return found[0], fix_signs(found[1])
