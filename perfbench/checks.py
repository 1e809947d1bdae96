"""Output checks of the benchmark.

Each check compares a pipeline output with a computation made apart from
the program (central finite differences, a dense SVD, a brute-force metric)
or with a property the method must have, and raises :class:`CheckFailed`
with the measured discrepancy when the output is wrong.
"""

import numpy as np

from derivop import datagen, io, models, netop

# Central differences with this step agree with the exact Jacobian action to
# about 1e-9 relative on the reaction-diffusion problem (acceptance
# criterion 1 uses the same step and tolerance).
FD_STEP = 1e-5
FD_RTOL = 1e-6
# Roundoff bound for identities that hold exactly in exact arithmetic.
EXACT_RTOL = 1e-10
# Relative tolerance on per-sample errors recomputed with a finite-difference
# network Jacobian; the observed deviation is below 1e-8.
EVAL_RTOL = 1e-5


class CheckFailed(AssertionError):
    """A pipeline output disagrees with its independent recomputation."""


def _fd_observation(model, m, u, v):
    """(q(m + h v) - q(m - h v)) / 2h with q = observe(solve_state(.))."""
    q_plus = models.observe(model, models.solve_state(model, m + FD_STEP * v, u0=u))
    q_minus = models.observe(model, models.solve_state(model, m - FD_STEP * v, u0=u))
    return (q_plus - q_minus) / (2.0 * FD_STEP)


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def check_factors(ds):
    """Stored U and V are orthonormal; sigma is non-negative and descending."""
    eye = np.eye(ds.rank)
    for name, factors in (("U", ds.jac_u), ("V", ds.jac_v)):
        gram = np.einsum("nir,nis->nrs", factors, factors)
        err = float(np.max(np.linalg.norm(gram - eye, axis=(1, 2))))
        if err > EXACT_RTOL * np.sqrt(ds.rank):
            raise CheckFailed(f"stored {name} not orthonormal: "
                              f"max |{name}^T {name} - I| = {err:.3e}")
    if np.any(ds.jac_sigma < 0):
        raise CheckFailed("negative stored singular value")
    if np.any(np.diff(ds.jac_sigma, axis=1) > 0):
        raise CheckFailed("stored singular values not descending")


def check_jacobians_fd(model, ds, indices, n_dirs, seed):
    """Stored Jacobians against central differences of observe(solve_state).

    Two comparisons per random unit direction v, with fd the difference
    quotient:
      * U^T fd == S V^T v to finite-difference accuracy.  This holds for
        any range-finder output, because U^T J = S V^T exactly.
      * fd == U S V^T v to finite-difference accuracy plus sigma_r, the
        smallest stored singular value, when the sketch does not cover the
        map (rank < min(d_Q, d_M)); to finite-difference accuracy alone
        when it does.
    Returns the worst relative error of the second comparison.
    """
    rng = np.random.default_rng(seed)
    covers = ds.rank >= min(ds.d_q, ds.d_m)
    worst = 0.0
    for i in indices:
        m = ds.m[i]
        u = models.solve_state(model, m)
        q = models.observe(model, u)
        q_err = np.linalg.norm(q - ds.q[i])
        if q_err > EXACT_RTOL * np.linalg.norm(q):
            raise CheckFailed(f"sample {i}: stored q differs from a fresh "
                              f"solve by {q_err:.3e}")
        U, s, V = ds.jac_u[i], ds.jac_sigma[i], ds.jac_v[i]
        for _ in range(n_dirs):
            v = _unit(rng, ds.d_m)
            fd = _fd_observation(model, m, u, v)
            scale = np.linalg.norm(fd)
            svt_v = s * (V.T @ v)
            proj_err = np.linalg.norm(U.T @ fd - svt_v)
            if proj_err > FD_RTOL * scale:
                raise CheckFailed(
                    f"sample {i}: |U^T J v - S V^T v| = {proj_err:.3e} "
                    f"exceeds {FD_RTOL:g} |J v| = {FD_RTOL * scale:.3e}")
            err = np.linalg.norm(fd - U @ svt_v)
            tol = FD_RTOL * scale + (0.0 if covers else s[-1])
            if err > tol:
                raise CheckFailed(
                    f"sample {i}: |J v - U S V^T v| = {err:.3e} exceeds "
                    f"{tol:.3e} (sigma_r = {s[-1]:.3e})")
            worst = max(worst, err / scale)
    return worst


def dense_jacobian(model, m):
    """Dense d_Q x d_M Jacobian from d_Q transpose actions, validated
    against central differences along one random direction."""
    u = models.solve_state(model, m)
    op = models.jacobian_operator(model, m, u)
    J = op.apply_transpose_mat(np.eye(model.d_q)).T
    v = _unit(np.random.default_rng(0), model.d_m)
    fd = _fd_observation(model, m, u, v)
    err = np.linalg.norm(J @ v - fd)
    if err > FD_RTOL * np.linalg.norm(fd):
        raise CheckFailed(f"dense Jacobian disagrees with finite differences "
                          f"by {err:.3e}")
    return J


def check_dense_svd(J, jac):
    """Stored (U, sigma, V) of one sample against the SVD of its dense J.

    The stored sigma_i are singular values of a projection of J, so they
    cannot exceed the true ones; they fall short by at most sigma_{r+1}
    (observed: below 0.1 sigma_{r+1}).  U^T J = S V^T holds exactly.
    """
    true_s = np.linalg.svd(J, compute_uv=False)
    r = jac.rank
    s = jac.sigma
    tail = true_s[r] if r < true_s.size else 0.0
    roundoff = EXACT_RTOL * true_s[0]
    over = float(np.max(s - true_s[:r]))
    if over > roundoff:
        raise CheckFailed(f"stored sigma exceeds the dense SVD by {over:.3e}")
    under = float(np.max(true_s[:r] - s))
    if under > tail + roundoff:
        raise CheckFailed(f"stored sigma falls short of the dense SVD by "
                          f"{under:.3e} > sigma_(r+1) = {tail:.3e}")
    proj = np.linalg.norm(jac.U.T @ J - s[:, None] * jac.V.T)
    if proj > EXACT_RTOL * np.linalg.norm(J):
        raise CheckFailed(f"|U^T J - S V^T| = {proj:.3e}")
    return under / true_s[0]


_ARRAYS = ("m", "q", "jac_u", "jac_sigma", "jac_v")


def check_threads(serial, threaded):
    """A threaded run's samples are bitwise equal to the serial run's first ones."""
    n = threaded.n_samples
    for key in _ARRAYS:
        if not np.array_equal(getattr(threaded, key), getattr(serial, key)[:n]):
            raise CheckFailed(f"threaded generation differs from serial in {key}")
    solves = serial.meta["linearized_solves_per_sample"][:n]
    if threaded.meta["linearized_solves_per_sample"] != solves:
        raise CheckFailed("threaded generation differs in solve counts")


def check_round_trip(ds, dirpath):
    """The dataset saved at ``dirpath`` loads back bitwise equal to ``ds``."""
    try:
        loaded = datagen.load_dataset(dirpath)
    except io.LoadError as exc:
        raise CheckFailed(f"saved dataset does not load: {exc}") from exc
    for key in _ARRAYS:
        a, b = getattr(ds, key), getattr(loaded, key)
        if a.dtype != b.dtype or not np.array_equal(a, b):
            raise CheckFailed(f"reloaded dataset differs in {key}")
    if loaded.meta != ds.meta:
        raise CheckFailed("reloaded dataset differs in its metadata")


def fd_model_jacobian(net, m):
    """d_Q x d_M Jacobian of netop.forward by central differences."""
    steps = FD_STEP * np.eye(m.size)
    diff = netop.forward(net, m + steps) - netop.forward(net, m - steps)
    return diff.T / (2.0 * FD_STEP)


def check_eval_bruteforce(net, test_ds, report, indices):
    """Per-sample h1 and Gauss-Newton errors of ``report`` against a
    recomputation from the dense U S V^T and a finite-difference model
    Jacobian."""
    if report.warnings.get("h1_skipped") or report.warnings.get("gn_skipped"):
        raise CheckFailed("evaluation skipped samples with a zero Jacobian")
    worst = 0.0
    for i in indices:
        U, s, V = test_ds.jac_u[i], test_ds.jac_sigma[i], test_ds.jac_v[i]
        J_true = (U * s) @ V.T
        J_net = fd_model_jacobian(net, test_ds.m[i])
        H_true = (V * s**2) @ V.T
        expected = {
            "h1": np.sum((J_true - J_net) ** 2) / np.sum(s**2),
            "gn": np.sum((H_true - J_net.T @ J_net) ** 2) / np.sum(s**4),
        }
        for name, value in expected.items():
            got = report.per_sample[name][i]
            dev = abs(got - value) / value
            if not dev <= EVAL_RTOL:
                raise CheckFailed(
                    f"sample {i}: evaluate gives {name} error {got:.10g}, "
                    f"brute force {value:.10g} (rel. deviation {dev:.2e})")
            worst = max(worst, dev)
    return worst


def check_dino_beats_l2(dino, l2, margin):
    """The Jacobian-trained net has lower H1 and GN errors than the
    value-trained one and an L2 error no worse by more than ``margin``.

    ``dino`` and ``l2`` map metric names to accuracies (1 - error).
    """
    for name in ("h1", "gn"):
        if not 1.0 - dino[name] < 1.0 - l2[name]:
            raise CheckFailed(
                f"DINO {name} error {1.0 - dino[name]:.4f} is not below the "
                f"l2 net's {1.0 - l2[name]:.4f}")
    if not 1.0 - dino["l2"] <= 1.0 - l2["l2"] + margin:
        raise CheckFailed(
            f"DINO L2 error {1.0 - dino['l2']:.4f} exceeds the l2 net's "
            f"{1.0 - l2['l2']:.4f} by more than {margin}")


def check_loss_falls(label, losses):
    """Training loss is finite and its last epoch is below its first."""
    losses = np.asarray(losses, dtype=float)
    if losses.size < 2 or not np.all(np.isfinite(losses)):
        raise CheckFailed(f"{label}: non-finite or too short loss history")
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"{label}: loss did not fall "
                          f"({losses[0]:.4g} -> {losses[-1]:.4g})")
