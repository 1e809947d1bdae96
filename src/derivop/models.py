"""Desk-scale parametric forward models with adjoint-exact Jacobian actions.

A nonlinear reaction-diffusion problem on the unit square, discretized with
a conservative 5-point finite-difference stencil, plus a Matern-type
Gaussian prior sampler and a closed-form tanh toy map used as an oracle.

The PDE is -div(e^m grad u) + c_nl * u^3 = s with u = 1 on the top edge,
u = 0 on the bottom edge, and zero flux on the sides.  Face diffusivities
average e^m arithmetically from the two adjacent nodal values.

Every linear solve uses a banded Cholesky factorization of band diagonals:
the prior operator and dR/du without its Dirichlet rows are SPD, bandwidth n.
dR/dm acts by scipy DIA products with the stencil's five diagonals.
"""

from dataclasses import dataclass
from functools import cache, lru_cache
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .linalg import LinearOperator


class NewtonConvergenceError(RuntimeError):
    """Newton failed on stack row ``row``; carries its residual history."""

    def __init__(self, message, history, row):
        super().__init__(message)
        self.history = list(history)
        self.row = row


@dataclass(frozen=True)
class Grid:
    """Uniform n x n node grid on the unit square, row-major, bottom row first."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid needs n >= 3, got {self.n}")

    @property
    def h(self):
        return 1.0 / (self.n - 1)

    @property
    def num_nodes(self):
        return self.n * self.n

    def node(self, i, j):
        """Flat index of node at row i (y) and column j (x)."""
        return i * self.n + j

    def coords(self):
        """(num_nodes, 2) array of (x, y) node coordinates."""
        t = np.linspace(0.0, 1.0, self.n)
        x, y = np.meshgrid(t, t)  # rows indexed by y
        return np.column_stack([x.ravel(), y.ravel()])


@dataclass(frozen=True)
class PriorConfig:
    """Gaussian random field N(0, A^{-2}) with A = delta*I - gamma*Lap_h."""

    delta: float
    gamma: float
    grid: Grid

    def __post_init__(self):
        if not (np.isfinite(self.delta) and np.isfinite(self.gamma)
                and self.delta > 0 and self.gamma >= 0):
            raise ValueError("need finite delta > 0 and gamma >= 0")


def _banded_cholesky(J, dirichlet):
    """Banded Cholesky by dpbtrf, on LAPACK's upper band storage, of the
    matrix with band diagonals J = (diag, east, north) as ``state_jacobian``
    returns; with ``dirichlet`` its first and last n rows are identity rows,
    eliminated in ``solve``.  Raises ``LinAlgError`` unless the rest is SPD.
    ``solve(b, trans)`` solves A x = b ("N") or A^T x = b ("T") by dpbtrs
    for b (d,) or (d, k), O(n^3) flops per column; dpbtrf costs O(n^4)."""
    diag, east, north = J
    d, n = len(diag), len(diag) - len(north)
    lo, hi = (n, d - n) if dirichlet else (0, d)
    ab = np.zeros((n + 1, hi - lo), order="F")
    ab[n] = diag[lo:hi]
    ab[n - 1, 1:] = east[lo:hi - 1]
    ab[0, n:] = north[lo:hi - n]
    cb, info = lapack.dpbtrf(ab, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor not positive definite")
    south, top = north[:lo], north[hi - lo:hi]  # the Dirichlet coupling

    def solve(b, trans):
        x = np.array(b, dtype=float)
        xt = x.T  # rows last, for b of either shape
        if lo and trans == "N":  # b_free - A_fc b_fixed
            xt[..., lo:2 * lo] -= south * xt[..., :lo]
            xt[..., hi - lo:hi] -= top * xt[..., hi:]
        x[lo:hi] = lapack.dpbtrs(cb, x[lo:hi])[0]
        if lo and trans == "T":  # b_fixed - A_fc^T x_free
            xt[..., :lo] -= south * xt[..., lo:2 * lo]
            xt[..., hi:] -= top * xt[..., hi - lo:hi]
        return x

    return SimpleNamespace(solve=solve)


# The benchmark's tracer times every factorization by wrapping this name;
# an alias kept for perfbench, like ``LinearOperator.apply_transpose_mat``.
spla = SimpleNamespace(splu=_banded_cholesky)


@lru_cache(maxsize=8)
def prior_operator(cfg):
    """A = delta*I - gamma*Lap_h with the zero-flux boundary closure, as its
    band diagonals (diag, east, north) in ``state_jacobian``'s layout."""
    n, c = cfg.grid.n, cfg.gamma / cfg.grid.h**2
    diag = np.full((n, n), cfg.delta)
    for nbr in np.s_[1:], np.s_[:-1], np.s_[:, 1:], np.s_[:, :-1]:
        diag[nbr] += c  # once per neighbour: S, N, W, E
    east = np.full((n, n), -c)
    east[:, -1] = 0.0
    return diag.ravel(), east.ravel()[:-1], np.full(n * (n - 1), -c)


@lru_cache(maxsize=8)
def _prior_factor(cfg):
    return spla.splu(prior_operator(cfg), False)


def sample_prior(cfg, rng):
    """Draw m = A^{-1} xi with xi ~ N(0, I) in nodal coordinates."""
    xi = rng.standard_normal(cfg.grid.num_nodes)
    return _prior_factor(cfg).solve(xi, "N")


SOURCE_TICKS = np.linspace(0.2, 0.8, 5)  # bump centers, each axis
SOURCE_WIDTH, SOURCE_AMPLITUDE = 0.05, 1.0


def default_source(grid):
    """25 isotropic Gaussian bumps centered on SOURCE_TICKS x SOURCE_TICKS,
    evaluated at the grid nodes."""
    xy = grid.coords()
    s = np.zeros(grid.num_nodes)
    for cy in SOURCE_TICKS:
        for cx in SOURCE_TICKS:
            d2 = (xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2
            s += SOURCE_AMPLITUDE * np.exp(-d2 / (2.0 * SOURCE_WIDTH**2))
    return s


def lower_half_observation_nodes(grid, n_side=5):
    """n_side x n_side observation sub-grid in the lower half of the domain."""
    x_fracs = np.linspace(1.0 / 6.0, 5.0 / 6.0, n_side)
    y_fracs = np.linspace(1.0 / 12.0, 5.0 / 12.0, n_side)
    nodes = []
    for yf in y_fracs:
        i = int(round(yf * (grid.n - 1)))
        i = min(max(i, 1), grid.n - 2)
        for xf in x_fracs:
            j = int(round(xf * (grid.n - 1)))
            j = min(max(j, 1), grid.n - 2)
            nodes.append(grid.node(i, j))
    return np.array(nodes, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class RDModel:
    """Reaction-diffusion forward model m -> q on a uniform grid."""

    grid: Grid
    c_nl: float = 1.0
    source: np.ndarray = None
    obs_nodes: np.ndarray = None
    newton_tol: float = 1e-10
    newton_max_iters: int = 25

    def __post_init__(self):
        if not (np.isfinite(self.c_nl) and self.c_nl >= 0):
            raise ValueError("c_nl must be finite and >= 0")
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError("newton_tol must be finite and > 0")
        if not (isinstance(self.newton_max_iters, (int, np.integer))
                and self.newton_max_iters >= 1):
            raise ValueError("newton_max_iters must be an integer >= 1")
        if self.source is None:
            object.__setattr__(self, "source", default_source(self.grid))
        if self.obs_nodes is None:
            object.__setattr__(
                self, "obs_nodes", lower_half_observation_nodes(self.grid)
            )
        src = np.asarray(self.source, dtype=float)
        if src.shape != (self.grid.num_nodes,):
            raise ValueError("source length must equal the node count")
        object.__setattr__(self, "source", src)
        obs = np.asarray(self.obs_nodes, dtype=np.intp)
        n = self.grid.n
        for p in obs:
            i, j = divmod(int(p), n)
            if not 0 <= p < n * n or i in (0, n - 1) or j in (0, n - 1):
                raise ValueError(f"observation node {p} is not an interior "
                                 "node of the grid")
        object.__setattr__(self, "obs_nodes", obs)

    @property
    def d_m(self):
        return self.grid.num_nodes

    @property
    def d_u(self):
        return self.grid.num_nodes

    @property
    def d_q(self):
        return len(self.obs_nodes)

    def config_dict(self):
        return {
            "kind": "reaction_diffusion",
            "grid_n": self.grid.n,
            "c_nl": self.c_nl,
            "obs_nodes": self.obs_nodes.tolist(),
            "newton_tol": self.newton_tol,
            "newton_max_iters": self.newton_max_iters,
        }


def _faces(model, m):
    """Conductances 0.5 (e^m_p + e^m_q) / h^2 of m (d,) or (N, d) on the
    vertical faces (..., n-1, n), horizontal ones (..., n-2, n-1) inside."""
    n = model.grid.n
    k = np.exp(m).reshape(*np.shape(m)[:-1], n, n)
    return (0.5 * (k[..., :-1, :] + k[..., 1:, :]) / model.grid.h**2,
            0.5 * (k[..., 1:-1, :-1] + k[..., 1:-1, 1:]) / model.grid.h**2)


def residual(model, u, m):
    """Discrete residual R(u, m) of a state (d,) or a stack (N, d);
    Dirichlet rows are u - g, g = 1 on top."""
    n = model.grid.n
    wv, wh = _faces(model, m)
    U = u.reshape(*u.shape[:-1], n, n)
    C = U[..., 1:-1, :]
    # Each row sums its fluxes in the stencil's slot order: S, N, W, E.
    flux = wv[..., :-1, :] * (C - U[..., :-2, :]) \
        + wv[..., 1:, :] * (C - U[..., 2:, :])
    flux[..., 1:] += wh * (C[..., 1:] - C[..., :-1])
    flux[..., :-1] += wh * (C[..., :-1] - C[..., 1:])
    R = (model.c_nl * u**3 - model.source).reshape(U.shape)
    R[..., 1:-1, :] += flux
    R[..., 0, :] = U[..., 0, :]
    R[..., -1, :] = U[..., -1, :] - 1.0
    return R.reshape(u.shape)


def state_jacobian(model, u, m):
    """dR/du at (u, m) of a state (d,) or a stack (N, d) as band diagonals
    (diag, east, north), (..., d), (..., d-1), (..., d-n): non-Dirichlet row
    p holds diag[p], east[p-1] and east[p] (zero across a grid-row end) on
    p -+ 1, north[p-n] and north[p] on p -+ n; Dirichlet rows are identity."""
    n = model.grid.n
    wv, wh = _faces(model, m)
    shape = (*u.shape[:-1], n, n)
    diag = (3.0 * model.c_nl * u**2).reshape(shape)
    # Each row adds its conductances in the stencil's slot order: S, N, W, E.
    C = diag[..., 1:-1, :]
    C += wv[..., :-1, :]
    C += wv[..., 1:, :]
    C[..., 1:] += wh
    C[..., :-1] += wh
    diag[..., 0, :] = diag[..., -1, :] = 1.0
    east = np.zeros(shape)
    east[..., 1:-1, :-1] = -wh
    return (diag.reshape(u.shape), east.reshape(u.shape)[..., :-1],
            -wv.reshape(*u.shape[:-1], -1))


def parameter_jacobian(model, u, m):
    """dR/dm at (u, m) as a :class:`LinearOperator`; Dirichlet rows are zero.

    Row p holds e_pq = 0.5 e^{m_q} (u_p - u_q) / h^2 on neighbour q and the
    sum of -e_qp over S, N, W, E on its diagonal.  Both actions are DIA
    products, which sum each entry by increasing index as CSC ones do."""
    n, d, h2 = model.grid.n, model.d_m, model.grid.h**2
    k, U = 0.5 * np.exp(m).reshape(n, n), u.reshape(n, n)
    rows = np.zeros((5, n, n))
    N, E, C, W, S = rows[:, 1:-1]
    du = (U[1:] - U[:-1]) / h2  # up each vertical face
    lo, hi = k[:-1] * du, k[1:] * du
    S[:], N[:] = lo[:-1], -hi[1:]
    np.subtract(hi[:-1], lo[1:], out=C)
    du = (U[1:-1, 1:] - U[1:-1, :-1]) / h2  # east across each inner face
    lo, hi = k[1:-1, :-1] * du, k[1:-1, 1:] * du
    W[:, 1:], E[:, :-1] = lo, -hi
    C[:, 1:] += hi
    C[:, :-1] -= lo
    # The rows are the transpose's diagonals.  The forward ones, built on
    # the first forward action, run them reversed and shifted to DIA's entry
    # (j - o, j) at column j; np.roll wraps only zeros round.
    rows, offsets = rows.reshape(5, d), (-n, -1, 0, 1, n)
    transpose = sp.dia_array((rows, offsets), shape=(d, d))
    forward = cache(lambda: sp.dia_array(
        ([np.roll(r, o) for r, o in zip(rows[::-1], offsets)], offsets),
        shape=(d, d)))
    return LinearOperator(d, d, lambda v: forward() @ v,
                          lambda w: transpose @ w)


@lru_cache(maxsize=8)
def _start(model):
    """Newton's default start as a map of m (d,) or (N, d): the tangent
    predictor u_0 - [dR/du]^{-1} dR/dm m at the m = 0 state u_0 (dR/dm has
    zero Dirichlet rows), or the linear-in-y profile if u_0's solve fails."""
    m0, linear = np.zeros(model.d_m), model.grid.coords()[:, 1]
    try:
        u = solve_state(model, m0, u0=linear)
    except NewtonConvergenceError:
        return lambda m: np.broadcast_to(linear, m.shape).copy()
    lu = spla.splu(state_jacobian(model, u, m0), True)
    dRdm = parameter_jacobian(model, u, m0)
    return lambda m: u - lu.solve(dRdm.apply(m.T), "N").T


def solve_state(model, m, u0=None, full_output=False):
    """Newton solve of R(u, m) = 0 with Armijo backtracking for m (d,) or
    each row of a stack (N, d), from ``u0`` or else ``_start(model)(m)``.

    Residuals and trial steps are evaluated for all unfinished rows at once;
    each row keeps its own test ||R||_2 <= newton_tol * max(1, ||s||_2),
    step length and dR/du factor, so it gets the bits of its own solve.
    ``full_output`` adds the residual histories.  Raises ``ValueError`` for
    a non-finite m, else :class:`NewtonConvergenceError` for the lowest
    failing row (non-finite residual, dR/du not positive definite, stalled
    line search, iteration cap).
    """
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("m has non-finite entries")
    M = m.reshape(-1, model.d_m)
    U = np.array(_start(model)(M) if u0 is None else np.reshape(u0, M.shape),
                 dtype=float, order="C")
    tol = model.newton_tol * max(1.0, float(np.linalg.norm(model.source)))
    with np.errstate(over="ignore", invalid="ignore"):
        R = residual(model, U, M)
        # Row norms by ddot, as np.linalg.norm; norm(axis=1) changes bits.
        rnorm = np.sqrt([r @ r for r in R])
        history = [[r] for r in rnorm]
        errors = {k: ("non-finite residual", None)
                  for k in np.flatnonzero(~np.isfinite(rnorm))}
        for it in range(model.newton_max_iters + 1):
            act = np.array([k for k in range(len(M))
                            if k not in errors and rnorm[k] > tol], dtype=int)
            if it == model.newton_max_iters or not len(act):
                break
            J = state_jacobian(model, U[act], M[act])
            step = np.zeros((len(act), model.d_u))
            for i, k in enumerate(act):
                try:
                    lu = spla.splu([a[i] for a in J], True)
                    step[i] = lu.solve(-R[k], "N")
                except np.linalg.LinAlgError as exc:
                    errors[k] = (f"dR/du: {exc}", exc)
            # The rows still searching all try the same step length.
            alpha, todo = 1.0, np.array([k not in errors for k in act])
            while todo.any() and alpha > 1e-12:
                ks = act[todo]
                u_try = U[ks] + alpha * step[todo]
                R_try = residual(model, u_try, M[ks])
                r_try = np.sqrt([r @ r for r in R_try])
                ok = r_try <= (1.0 - 1e-4 * alpha) * rnorm[ks]
                U[ks[ok]], R[ks[ok]], rnorm[ks[ok]] = \
                    u_try[ok], R_try[ok], r_try[ok]
                for k in ks[ok]:
                    history[k].append(rnorm[k])
                todo[todo] = ~ok
                alpha *= 0.5
            errors |= {k: ("line search stalled", None) for k in act[todo]}
    errors |= {k: (f"no convergence in {it} iterations (||R|| = "
                   f"{rnorm[k]:.3e}, tol = {tol:.3e})", None) for k in act}
    if errors:
        k = min(errors)
        raise NewtonConvergenceError(errors[k][0], history[k], int(k)) \
            from errors[k][1]
    if m.ndim == 1:
        U, history = U[0], history[0]
    return (U, history) if full_output else U


def observe(model, u):
    """Pointwise observation q[i] = u[obs_nodes[i]]."""
    u = np.asarray(u, dtype=float)
    if u.shape != (model.d_u,):
        raise ValueError(f"state length {u.shape} != {model.d_u}")
    return u[model.obs_nodes].copy()


def jacobian_operator(model, m, u):
    """Matrix-free dq/dm at a converged state, reusing one factorization.

    Realizes -B [dR/du]^{-1} dR/dm with B the observation selector; the
    banded Cholesky factor of dR/du (with its Dirichlet rows eliminated)
    serves both the forward and the transpose action, each of which takes a
    vector or a block of columns in one solve.
    """
    m = np.asarray(m, dtype=float)
    u = np.asarray(u, dtype=float)
    lu = spla.splu(state_jacobian(model, u, m), True)
    dRdm = parameter_jacobian(model, u, m)
    obs = model.obs_nodes

    def apply(v):
        return -lu.solve(dRdm.apply(v), "N")[obs]

    def apply_transpose(w):
        rhs = np.zeros((model.d_u, *np.shape(w)[1:]))
        # accumulate: coarse grids may map several sensors to one node
        np.add.at(rhs, obs, w)
        return -dRdm.apply_transpose(lu.solve(rhs, "T"))

    return LinearOperator(model.d_q, model.d_m, apply, apply_transpose)


TOY_MAP_SEED = 714025


@dataclass(frozen=True, eq=False)
class ToyMap:
    """Analytic oracle map q = B tanh(C m) with exact dense Jacobian."""

    B: np.ndarray
    C: np.ndarray

    @classmethod
    def default(cls):
        """d_M = 20, d_Q = 8, inner width 5, drawn from TOY_MAP_SEED."""
        rng = np.random.default_rng(TOY_MAP_SEED)
        B = rng.standard_normal((8, 5)) / np.sqrt(5)
        C = rng.standard_normal((5, 20)) / np.sqrt(20)
        return cls(B=B, C=C)

    @property
    def d_m(self):
        return self.C.shape[1]

    @property
    def d_q(self):
        return self.B.shape[0]

    def config_dict(self):
        return {"kind": "toy_tanh", "d_m": self.d_m, "d_q": self.d_q,
                "p": self.B.shape[1], "seed": TOY_MAP_SEED}


def toy_map(model, m):
    """Evaluate the toy map and its exact Jacobian B diag(1 - tanh^2(Cm)) C."""
    m = np.asarray(m, dtype=float)
    t = np.tanh(model.C @ m)
    q = model.B @ t
    jac = (model.B * (1.0 - t**2)) @ model.C
    return q, jac
