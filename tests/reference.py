"""Tests-side references that no program code calls: the truncated-SVD
Jacobian error bound, the full enumeration of the shipped
matrix-subsampled (MS) penalty against its closed-form expectations, a
dense matrix built from band diagonals, a runner that hashes results
under 1 and 2 BLAS threads, and the random bases and nets several test
modules build.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import derivop
from derivop.bases import ReducedBasisPair
from derivop.datagen import Dataset
from derivop.models import state_jacobian
from derivop.netop import (
    MLPSpec,
    NetworkWeights,
    OperatorModel,
    forward,
    full_space_jacobian,
    loss_and_grad,
)
from derivop.training import LossConfig


def random_orthonormal(n, k, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


def make_generic(d_m, d_q, hidden, seed=0):
    spec = MLPSpec.dense((d_m, *hidden, d_q), init_seed=seed)
    return OperatorModel(kind="generic", spec=spec,
                         weights=NetworkWeights.init(spec))


def make_reduced(d_m, d_q, r_in, r_out, hidden, rng, seed=0):
    psi = random_orthonormal(d_m, r_in, rng)
    phi = random_orthonormal(d_q, r_out, rng)
    bases = ReducedBasisPair(psi=psi, phi=phi, b=rng.standard_normal(d_q))
    spec = MLPSpec.dense((r_in, *hidden, r_out), init_seed=seed)
    return OperatorModel(kind="reduced_basis", spec=spec,
                         weights=NetworkWeights.init(spec), bases=bases)


def weights_of(spec, layers):
    """NetworkWeights whose flat vector concatenates per-layer (W, b)."""
    return NetworkWeights(spec, np.concatenate(
        [np.ravel(a) for pair in layers for a in pair]))


def truncation_error_bound(jac_true, jac, model_jac):
    """Both sides of the truncated-SVD Jacobian error bound.

    ``jac_true`` is the dense true Jacobian, ``jac`` its stored rank-r SVD,
    ``model_jac`` the dense model Jacobian.  Returns (lhs, rhs) with
    lhs = ||J_true - J_model||_F^2 and rhs the five-term sum of the
    truncated residual, the trailing singular-value energy, and the model's
    three complement-space norms.
    """
    U, s, V = jac.U, jac.sigma, jac.V
    Jw = np.asarray(model_jac, dtype=float)
    jac_true = np.asarray(jac_true, dtype=float)
    lhs = float(np.sum((jac_true - Jw) ** 2))
    term_tail = float(np.sum((jac_true - (U * s) @ V.T) ** 2))
    PU = U @ (U.T @ Jw)
    PV = (Jw @ V) @ V.T
    term_trunc = float(np.sum((np.diag(s) - U.T @ Jw @ V) ** 2))
    term_nn = float(np.sum((Jw - PU - PV + U @ (U.T @ Jw @ V) @ V.T) ** 2))
    term_left = float(np.sum(((Jw - PU) @ V) ** 2))
    term_right = float(np.sum((U.T @ (Jw - PV)) ** 2))
    rhs = term_trunc + term_tail + term_nn + term_left + term_right
    return lhs, rhs


def criterion_4_case():
    """Criterion 4's instance: a small generic net, an input m and rank-5
    factors (U, sigma, V) of an 8 x 9 map, all from default_rng(44)."""
    rng = np.random.default_rng(44)
    r = 5
    U = np.linalg.qr(rng.standard_normal((r + 3, r)))[0]
    V = np.linalg.qr(rng.standard_normal((r + 4, r)))[0]
    sigma = np.sort(rng.uniform(1, 3, r))[::-1]
    spec = MLPSpec.dense((r + 4, 6, r + 3))
    net = OperatorModel(kind="generic", spec=spec,
                        weights=NetworkWeights.init(spec))
    return net, rng.standard_normal(r + 4), U, sigma, V


def fitted_sample(model, m, U, sigma, V):
    """A one-sample set with stored factors (U, sigma, V) whose value
    ``model`` fits exactly at ``m``, so its loss is the penalty alone."""
    return Dataset(m=m[None], q=forward(model, m)[None], jac_u=U[None],
                   jac_sigma=sigma[None], jac_v=V[None])


def ms_losses(model, sample, pairs, mode, rescale=False):
    """The shipped h1_truncated_ms loss of ``model`` on ``sample`` at each
    (row, column) index pair of ``pairs``."""
    cfg = LossConfig("h1_truncated_ms", k=len(pairs[0][0]), ms_mode=mode,
                     ms_rescale=rescale)
    return [loss_and_grad(model, sample, cfg, ms_idx=p)[0] for p in pairs]


def ms_enumeration_errors(model, m, U, sigma, V, k, rescale=False):
    """Relative errors (independent, dependent) of the shipped MS loss,
    averaged over every draw of k-subsets, against its expectation.

    With E = diag(sigma) - U^T J V and J the model's full-space Jacobian at
    m, unscaled independent draws average (k/r)^2 ||E||^2 and dependent ones
    (k/r) sum_i E_ii^2 + k(k-1)/(r(r-1)) sum_{i != j} E_ij^2; rescaled, both
    average ||E||^2.
    """
    r = len(sigma)
    E = np.diag(sigma) - U.T @ full_space_jacobian(model, m) @ V
    total, diag2 = np.sum(E**2), np.sum(np.diag(E) ** 2)
    if rescale:
        expected_indep = expected_dep = total
    else:
        expected_indep = (k**2 / r**2) * total
        expected_dep = (k / r) * diag2 \
            + (k * (k - 1)) / (r * (r - 1)) * (total - diag2)
    sample = fitted_sample(model, m, U, sigma, V)
    subsets = [np.array(s) for s in itertools.combinations(range(r), k)]
    pairs = [(a, b) for a in subsets for b in subsets]
    indep = np.mean(ms_losses(model, sample, pairs, "independent", rescale))
    dep = np.mean(ms_losses(model, sample, [(a, a) for a in subsets],
                            "dependent", rescale))
    return (abs(indep - expected_indep) / expected_indep,
            abs(dep - expected_dep) / expected_dep)


def dense_band(band, dirichlet):
    """The dense d x d matrix of band diagonals (diag, east, north), as
    ``state_jacobian`` and ``prior_operator`` return them, written entry by
    entry: row p holds diag[p], east on p -+ 1 and north on p -+ n, and with
    ``dirichlet`` the first and last n rows are identity rows."""
    diag, east, north = band
    d = len(diag)
    n, p = d - len(north), np.arange(d)
    A = np.zeros((d, d))
    A[p, p] = diag
    A[p[:-1], p[:-1] + 1] = A[p[:-1] + 1, p[:-1]] = east
    A[p[:-n], p[:-n] + n] = A[p[:-n] + n, p[:-n]] = north
    if dirichlet:
        A[:n] = A[-n:] = 0.0
        A[p[:n], p[:n]] = A[p[-n:], p[-n:]] = 1.0
    return A


def dense_state_jacobian(model, u, m):
    """dR/du at one state (u, m) as a dense matrix."""
    return dense_band(state_jacobian(model, u, m), True)


# Generates the 4-sample dataset ``ds`` of an RD problem (argv: grid nodes
# per side, sensors per side, rank); a caller appends lines that print hashes.
BLAS_HASH_SETUP = """
import hashlib, sys
from derivop.datagen import generate_dataset
from derivop.models import (Grid, PriorConfig, RDModel,
                            lower_half_observation_nodes)
n, per_side, rank = map(int, sys.argv[1:])
grid = Grid(n)
model = RDModel(grid=grid,
                obs_nodes=lower_half_observation_nodes(grid, per_side))
prior = PriorConfig(delta=1.0, gamma=0.1, grid=grid)
ds = generate_dataset(model, prior, 4, rank=rank, seed=7)
"""


def hashes_under_blas_threads(script, n, per_side, rank):
    """Printed words of BLAS_HASH_SETUP + ``script`` under 1 and 2 BLAS
    threads, one process each: OpenBLAS reads its thread count when it
    loads."""
    src = str(Path(derivop.__file__).resolve().parents[1])
    words = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", BLAS_HASH_SETUP + script, str(n),
             str(per_side), str(rank)], env=env, capture_output=True,
            text=True, check=True, timeout=300)
        words.append(run.stdout.split())
    return words
