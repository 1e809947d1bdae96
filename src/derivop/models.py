"""Desk-scale parametric forward models with adjoint-exact Jacobian actions.

A nonlinear reaction-diffusion problem on the unit square, discretized with
a conservative 5-point finite-difference stencil, plus a Matern-type
Gaussian prior sampler and a closed-form tanh toy map used as an oracle.

The PDE is -div(e^m grad u) + c_nl * u^3 = s with u = 1 on the top edge,
u = 0 on the bottom edge, and zero flux on the sides.  Face diffusivities
average e^m arithmetically from the two adjacent nodal values.

Every linear solve uses a banded Cholesky factorization: the prior operator
and dR/du without its Dirichlet rows are SPD with half-bandwidth n.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .linalg import LinearOperator


class NewtonConvergenceError(RuntimeError):
    """Newton failed to converge; carries the residual-norm history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


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
        if self.delta <= 0 or self.gamma < 0:
            raise ValueError("delta must be > 0 and gamma >= 0")


@dataclass(frozen=True, eq=False)
class _Stencil:
    """Edges of the 5-point stencil and the CSC pattern of the Jacobians.

    Edges (p, q) are slot-major (every node's first neighbour, then its
    second, ... in the order (i-1, j), (i+1, j), (i, j-1), (i, j+1)), so an
    unbuffered scatter-add sums each row in that order.  dR/du and dR/dm
    share one pattern: the edges of the non-Dirichlet rows, then the
    diagonal; ``order`` sorts these entries into CSC storage order.
    """

    p: np.ndarray
    q: np.ndarray
    fixed: np.ndarray
    ip: np.ndarray  # (ip, iq): the edges of the non-Dirichlet rows
    iq: np.ndarray
    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    def assemble(self, off, diag):
        """CSC matrix with ``off`` on the interior edges and ``diag``."""
        d = len(diag)
        data = np.concatenate([off, diag])[self.order]
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(d, d))


@lru_cache(maxsize=8)
def _stencil(grid):
    n, d = grid.n, grid.num_nodes
    i, j = np.divmod(np.arange(d), n)
    valid = np.stack([i > 0, i < n - 1, j > 0, j < n - 1])
    nbr = np.arange(d) + np.array([[-n], [n], [-1], [1]])
    # Move each node's valid neighbours to the front, keeping their order:
    # row k of the (4, d) arrays then holds every node's k-th neighbour.
    lead = np.argsort(~valid, axis=0, kind="stable")
    valid = np.take_along_axis(valid, lead, axis=0)
    p, q = np.nonzero(valid)[1], np.take_along_axis(nbr, lead, axis=0)[valid]
    fixed = (i == 0) | (i == n - 1)
    ip, iq = p[~fixed[p]], q[~fixed[p]]
    rows = np.concatenate([ip, np.arange(d)])
    cols = np.concatenate([iq, np.arange(d)])
    order = np.lexsort((rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=d))])
    st = _Stencil(p=p, q=q, fixed=fixed, ip=ip, iq=iq, order=order,
                  indices=rows[order].astype(np.int32),
                  indptr=indptr.astype(np.int32))
    for a in vars(st).values():
        a.setflags(write=False)  # shared by every matrix built on this grid
    return st


def _band_layout(indices, indptr, lo, hi, bw):
    """Slot maps of a CSC 5-point pattern whose rows outside [lo, hi) are
    identity rows: data slots ``src`` fill the flat positions ``dst`` of
    LAPACK's upper band storage of the free block, and slots ``cslot`` hold
    its coupling entries A[cp, cq] on the fixed columns."""
    cols = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    free = (indices >= lo) & (indices < hi)
    src = np.flatnonzero(free & (indices <= cols) & (cols < hi))
    dst = (bw + indices[src] - cols[src]) * (hi - lo) + cols[src] - lo
    cslot = np.flatnonzero(free & ((cols < lo) | (cols >= hi)))
    return SimpleNamespace(lo=lo, hi=hi, bw=bw, src=src, dst=dst, cslot=cslot,
                           cp=indices[cslot], cq=cols[cslot])


@lru_cache(maxsize=8)
def _state_layout(grid):
    """dR/du's layout: the Dirichlet rows are the first and last n."""
    st, n = _stencil(grid), grid.n
    return _band_layout(st.indices, st.indptr, n, grid.num_nodes - n, n)


def _banded_cholesky(A, lay):
    """LAPACK banded Cholesky of A's free block, which must be SPD (only its
    upper triangle is read); raises ``LinAlgError`` if it is not.  The
    factor's ``solve(b, trans)`` solves A x = b ("N") or A^T x = b ("T")
    for b of shape (d,) or (d, k) by block elimination of the identity
    rows, so b may be nonzero on them.  On an n x n grid the factorization
    costs O(n^4) flops, a solve O(n^3) per column."""
    ab = np.zeros((lay.bw + 1, lay.hi - lay.lo))
    ab.flat[lay.dst] = A.data[lay.src]
    cb = sla.cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    coupling = A.data[lay.cslot]

    def solve(b, trans):
        x = np.array(b, dtype=float)
        c = coupling.reshape(-1, *(1,) * (x.ndim - 1))
        if trans == "N":  # b_free - A_fc b_fixed
            np.subtract.at(x, lay.cp, c * x[lay.cq])
        x[lay.lo:lay.hi] = sla.cho_solve_banded(
            (cb, False), x[lay.lo:lay.hi], check_finite=False)
        if trans == "T":  # b_fixed - A_fc^T x_free
            np.subtract.at(x, lay.cq, c * x[lay.cp])
        return x

    return SimpleNamespace(solve=solve)


# The benchmark's tracer times every factorization by wrapping this name;
# an alias kept for perfbench, like ``LinearOperator.apply_transpose_mat``.
spla = SimpleNamespace(splu=_banded_cholesky)


@lru_cache(maxsize=8)
def prior_operator(cfg):
    """Sparse A = delta*I - gamma*Lap_h with the zero-flux boundary closure."""
    st = _stencil(cfg.grid)
    d = cfg.grid.num_nodes
    c = cfg.gamma / cfg.grid.h**2
    diag = np.full(d, cfg.delta)
    np.add.at(diag, st.p, c)
    rows = np.concatenate([st.p, np.arange(d)])
    cols = np.concatenate([st.q, np.arange(d)])
    vals = np.concatenate([np.full(len(st.p), -c), diag])
    return sp.csc_matrix((vals, (rows, cols)), shape=(d, d))


@lru_cache(maxsize=8)
def _prior_factor(cfg):
    A, d = prior_operator(cfg), cfg.grid.num_nodes
    return spla.splu(A, _band_layout(A.indices, A.indptr, 0, d, cfg.grid.n))


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
        if self.c_nl < 0:
            raise ValueError("c_nl must be >= 0")
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
            if i in (0, n - 1) or j in (0, n - 1):
                raise ValueError(f"observation node {p} is not interior")
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


def _conductance(model, st, k):
    """Face conductances 0.5 (k_p + k_q) / h^2 on the interior edges."""
    return 0.5 * (k[st.ip] + k[st.iq]) / model.grid.h**2


def residual(model, u, m):
    """Discrete residual R(u, m); Dirichlet rows are u - g, g = 1 on top."""
    st = _stencil(model.grid)
    g = np.zeros(model.d_u)
    g[-model.grid.n:] = 1.0
    R = np.where(st.fixed, u - g, model.c_nl * u**3 - model.source)
    w = _conductance(model, st, np.exp(m))
    return R + np.bincount(st.ip, weights=w * (u[st.ip] - u[st.iq]),
                           minlength=model.d_u)


def state_jacobian(model, u, m):
    """Sparse dR/du at (u, m)."""
    st = _stencil(model.grid)
    w = _conductance(model, st, np.exp(m))
    diag = np.where(st.fixed, 1.0, 3.0 * model.c_nl * u**2)
    np.add.at(diag, st.ip, w)
    return st.assemble(-w, diag)


def parameter_jacobian(model, u, m):
    """Sparse dR/dm at (u, m); Dirichlet rows are zero."""
    st = _stencil(model.grid)
    p, q = st.ip, st.iq
    k = np.exp(m)
    du = (u[p] - u[q]) / model.grid.h**2
    diag = np.bincount(p, weights=0.5 * k[p] * du, minlength=model.d_m)
    return st.assemble(0.5 * k[q] * du, diag)


def solve_state(model, m, u0=None):
    """Newton solve of R(u, m) = 0 with Armijo backtracking.

    Converges when ||R||_2 <= newton_tol * max(1, ||s||_2).  Raises
    ``ValueError`` for a non-finite m, else :class:`NewtonConvergenceError`
    with the residual history on any failure (non-finite residual, dR/du
    not positive definite, stalled line search, iteration cap).
    """
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("m has non-finite entries")
    grid = model.grid
    if u0 is None:
        # Linear-in-y profile satisfies the Dirichlet data exactly.
        u = np.repeat(np.linspace(0.0, 1.0, grid.n), grid.n)
    else:
        u = np.array(u0, dtype=float)
    tol = model.newton_tol * max(1.0, float(np.linalg.norm(model.source)))
    R = residual(model, u, m)
    rnorm = np.linalg.norm(R)
    history = [rnorm]
    if not np.isfinite(rnorm):
        raise NewtonConvergenceError("non-finite residual", history)
    for _ in range(model.newton_max_iters):
        if rnorm <= tol:
            return u
        J = state_jacobian(model, u, m)
        try:
            step = spla.splu(J, _state_layout(grid)).solve(-R, "N")
        except np.linalg.LinAlgError as exc:
            raise NewtonConvergenceError(f"dR/du: {exc}", history) from exc
        alpha = 1.0
        while alpha > 1e-12:
            u_try = u + alpha * step
            R_try = residual(model, u_try, m)
            if np.linalg.norm(R_try) <= (1.0 - 1e-4 * alpha) * rnorm:
                break
            alpha *= 0.5
        else:
            raise NewtonConvergenceError("line search stalled", history)
        u, R = u_try, R_try
        rnorm = np.linalg.norm(R)
        history.append(rnorm)
    if rnorm <= tol:
        return u
    raise NewtonConvergenceError(
        f"no convergence in {model.newton_max_iters} iterations "
        f"(||R|| = {rnorm:.3e}, tol = {tol:.3e})",
        history,
    )


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
    lu = spla.splu(state_jacobian(model, u, m), _state_layout(model.grid))
    dRdm = parameter_jacobian(model, u, m)
    obs = model.obs_nodes

    def apply(v):
        return -lu.solve(dRdm @ v, "N")[obs]

    def apply_transpose(w):
        rhs = np.zeros((model.d_u, *np.shape(w)[1:]))
        # accumulate: coarse grids may map several sensors to one node
        np.add.at(rhs, obs, w)
        return -(dRdm.T @ lu.solve(rhs, "T"))

    return LinearOperator(
        nrows=model.d_q,
        ncols=model.d_m,
        apply=apply,
        apply_transpose=apply_transpose,
    )


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
