"""Forward models: prior sampler, Newton solve, adjoint Jacobian, toy map."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from reference import dense_band, dense_state_jacobian
from scipy import sparse

from derivop import models
from derivop.models import (
    Grid,
    NewtonConvergenceError,
    PriorConfig,
    RDModel,
    ToyMap,
    jacobian_operator,
    lower_half_observation_nodes,
    observe,
    parameter_jacobian,
    prior_operator,
    residual,
    sample_prior,
    solve_state,
    state_jacobian,
    toy_map,
)


@pytest.fixture(scope="module")
def grid9():
    return Grid(9)


@pytest.fixture(scope="module")
def model9(grid9):
    return RDModel(grid=grid9)


@pytest.fixture(scope="module")
def prior9(grid9):
    return PriorConfig(delta=1.0, gamma=0.1, grid=grid9)


class TestGrid:
    def test_spacing_and_indexing(self):
        g = Grid(5)
        assert g.h == pytest.approx(0.25)
        assert g.num_nodes == 25
        assert g.node(0, 0) == 0
        assert g.node(1, 0) == 5  # bottom row first, row-major
        xy = g.coords()
        assert xy.shape == (25, 2)
        np.testing.assert_allclose(xy[g.node(2, 3)], [0.75, 0.5])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Grid(2)


class TestPrior:
    def test_pure_mass_term_scales_noise(self, grid9):
        cfg = PriorConfig(delta=2.0, gamma=0.0, grid=grid9)
        rng = np.random.default_rng(0)
        xi = np.random.default_rng(0).standard_normal(grid9.num_nodes)
        m = sample_prior(cfg, rng)
        np.testing.assert_allclose(m, xi / 2.0, atol=1e-12)

    def test_determinism(self, prior9):
        a = sample_prior(prior9, np.random.default_rng(5))
        b = sample_prior(prior9, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_empirical_covariance_matches_operator(self, prior9):
        # Monte Carlo covariance of m = A^{-1} xi should approach A^{-2}.
        A = dense_band(prior_operator(prior9), False)
        target = np.linalg.inv(A) @ np.linalg.inv(A)
        rng = np.random.default_rng(42)
        n = 10_000
        xs = np.stack([sample_prior(prior9, rng) for _ in range(n)])
        emp = xs.T @ xs / n
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel < 0.10

    def test_invalid_config_rejected(self, grid9):
        with pytest.raises(ValueError):
            PriorConfig(delta=0.0, gamma=0.1, grid=grid9)

    @pytest.mark.parametrize("delta, gamma", [
        (np.nan, 0.1), (1.0, np.nan), (np.inf, 0.1), (1.0, np.inf)])
    def test_non_finite_config_rejected(self, grid9, delta, gamma):
        # nan fails no comparison, and delta = inf draws all zeros
        with pytest.raises(ValueError, match="finite"):
            PriorConfig(delta=delta, gamma=gamma, grid=grid9)


class TestSolveState:
    def test_linear_profile_exact(self, grid9):
        model = RDModel(grid=grid9, c_nl=0.0,
                        source=np.zeros(grid9.num_nodes))
        u = solve_state(model, np.zeros(model.d_m))
        xy = grid9.coords()
        np.testing.assert_allclose(u, xy[:, 1], atol=1e-12)

    def test_linear_case_matches_direct_solve(self, grid9):
        model = RDModel(grid=grid9, c_nl=0.0)
        rng = np.random.default_rng(1)
        m = 0.3 * rng.standard_normal(model.d_m)
        u = solve_state(model, m)
        # one-shot oracle: solve J u = J u0 - R(u0) from any iterate
        u0 = np.zeros(model.d_m)
        J = dense_state_jacobian(model, u0, m)
        rhs = J @ u0 - residual(model, u0, m)
        u_direct = np.linalg.solve(J, rhs)
        assert np.linalg.norm(u - u_direct) <= 1e-10 * np.linalg.norm(u_direct)

    def test_linear_case_single_newton_step(self, grid9):
        model = RDModel(grid=grid9, c_nl=0.0)
        rng = np.random.default_rng(2)
        m = 0.2 * rng.standard_normal(model.d_m)
        try:
            solve_state(model, m)
        except NewtonConvergenceError as exc:  # pragma: no cover
            pytest.fail(f"unexpected failure: {exc.history}")
        # a cap of one iteration suffices; the history counts it
        _, history = solve_state(RDModel(grid=grid9, c_nl=0.0,
                                         newton_max_iters=1), m,
                                 full_output=True)
        assert len(history) == 2  # the initial residual and one step

    def test_discrete_maximum_principle(self, grid9):
        model = RDModel(grid=grid9, c_nl=0.0,
                        source=np.zeros(grid9.num_nodes))
        rng = np.random.default_rng(3)
        u = solve_state(model, rng.standard_normal(model.d_m) * 0.5)
        assert np.all(u >= -1e-12) and np.all(u <= 1.0 + 1e-12)

    def test_nonlinear_converges_from_prior_draw(self, model9, prior9):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = sample_prior(prior9, rng)
            u = solve_state(model9, m)
            R = residual(model9, u, m)
            tol = model9.newton_tol * max(1.0,
                                          np.linalg.norm(model9.source))
            assert np.linalg.norm(R) <= tol

    def test_dirichlet_rows_exact(self, model9, prior9):
        m = sample_prior(prior9, np.random.default_rng(6))
        u = solve_state(model9, m)
        n = model9.grid.n
        np.testing.assert_allclose(u[:n], 0.0, atol=1e-14)
        np.testing.assert_allclose(u[-n:], 1.0, atol=1e-14)

    def test_failure_carries_history(self, grid9):
        model = RDModel(grid=grid9, newton_max_iters=1, newton_tol=1e-15)
        with pytest.raises(NewtonConvergenceError) as info:
            solve_state(model, np.full(model.d_m, 2.0))
        assert len(info.value.history) >= 1

    def test_start_off_dirichlet_data(self, model9, prior9):
        # Nonzero Dirichlet residuals reach the factor's coupling block.
        m = sample_prior(prior9, np.random.default_rng(14))
        u0 = np.random.default_rng(15).standard_normal(model9.d_u)
        u = solve_state(model9, m, u0=u0)
        tol = model9.newton_tol * max(1.0, np.linalg.norm(model9.source))
        assert np.linalg.norm(residual(model9, u, m)) <= tol
        n = model9.grid.n
        np.testing.assert_allclose(u[:n], 0.0, atol=1e-14)
        np.testing.assert_allclose(u[-n:], 1.0, atol=1e-14)
        np.testing.assert_allclose(u, solve_state(model9, m), atol=1e-12)

    @pytest.mark.parametrize("knobs", [{"newton_max_iters": 1},
                                       {"newton_tol": 1e-15}])
    def test_failed_mean_state_falls_back_to_linear_profile(self, grid9,
                                                            prior9, knobs):
        # The m = 0 solve fails, so there is no predictor; the sample's own
        # solve then fails from the linear profile and says so.
        model = RDModel(grid=grid9, **knobs)
        m = sample_prior(prior9, np.random.default_rng(16))
        with pytest.raises(NewtonConvergenceError) as info:
            solve_state(model, m)
        start = residual(model, grid9.coords()[:, 1], m)
        assert info.value.history[0] == np.linalg.norm(start)

    @pytest.mark.parametrize("n, per_side", [(17, 5), (33, 10)],
                             ids=["dino-pipeline", "fine-sketch"])
    def test_predictor_start_takes_two_newton_steps(self, n, per_side,
                                                    monkeypatch):
        grid = Grid(n)
        model = RDModel(grid=grid,
                        obs_nodes=lower_half_observation_nodes(grid, per_side))
        prior = PriorConfig(delta=1.0, gamma=0.1, grid=grid)
        models._start(model)  # the m = 0 solve is not counted
        steps = []

        def counted(*args):
            steps.append(args)
            return state_jacobian(*args)

        monkeypatch.setattr(models, "state_jacobian", counted)
        rng = np.random.default_rng(17)
        for _ in range(16):
            m = sample_prior(prior, rng)
            steps.clear()
            u = solve_state(model, m)
            assert len(steps) <= 2
            u_lin = solve_state(model, m, u0=grid.coords()[:, 1])
            assert np.linalg.norm(u - u_lin) <= 1e-12 * np.linalg.norm(u_lin)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, model9, value):
        m = np.zeros(model9.d_m)
        m[40] = value
        with pytest.raises(ValueError, match="non-finite"):
            solve_state(model9, m)

    def test_overflowing_parameter_fails_explicitly(self, model9):
        m = np.zeros(model9.d_m)
        m[40] = 800.0  # e^m overflows
        with pytest.raises(NewtonConvergenceError) as info:
            solve_state(model9, m)
        assert len(info.value.history) == 1
        assert not np.isfinite(info.value.history[0])

    def test_indefinite_jacobian_fails_explicitly(self, grid9):
        # e^m underflows to 0: no diffusion, and with c_nl = 0 the interior
        # block of dR/du is zero.
        model = RDModel(grid=grid9, c_nl=0.0)
        with pytest.raises(NewtonConvergenceError,
                           match="not positive definite") as info:
            solve_state(model, np.full(model.d_m, -800.0))
        assert len(info.value.history) == 1


def mixed_stack(n):
    """Four prior draws on an n x n grid and the starts that make their
    Newton solves differ: rows 0 and 3 start from the predictor (2
    iterations), row 1, shifted by -6 (weak diffusion), from zero inside
    (its line search backtracks) and row 2 from the linear profile."""
    grid = Grid(n)
    model = RDModel(grid=grid)
    prior = PriorConfig(delta=1.0, gamma=0.1, grid=grid)
    M = np.stack([sample_prior(prior, np.random.default_rng(30 + k))
                  for k in range(4)])
    M[1] -= 6.0
    U0 = models._start(model)(M)
    U0[1, n:-n] = 0.0
    U0[2] = grid.coords()[:, 1]
    return model, M, U0


class TestStackedSolve:
    """A stack's rows get the bits of their own solves."""

    @pytest.mark.parametrize("n", [9, 17, 33])
    def test_rows_bitwise_equal_to_their_own_solves(self, n, monkeypatch):
        model, M, U0 = mixed_stack(n)
        U, history = solve_state(model, M, u0=U0, full_output=True)
        assert U.shape == M.shape
        for k in range(len(M)):
            u, h = solve_state(model, M[k], u0=U0[k], full_output=True)
            np.testing.assert_array_equal(U[k], u)
            assert history[k] == h
        iterations = [len(h) - 1 for h in history]
        assert iterations[0] == iterations[3] == 2 and iterations[2] == 3
        assert iterations[1] > 3
        # The default start of a stack is each row's own predictor start.
        prior_rows = M[[0, 3]]
        np.testing.assert_array_equal(solve_state(model, prior_rows),
                                      [solve_state(model, m)
                                       for m in prior_rows])
        # Row 1's line search backtracks: more residuals than iterations.
        residuals = []

        def counted(*args, **kwargs):
            residuals.append(args[1].shape)
            return residual(*args, **kwargs)

        monkeypatch.setattr(models, "residual", counted)
        _, h = solve_state(model, M[1], u0=U0[1], full_output=True)
        assert len(residuals) > len(h)

    def test_failing_row_raises_its_own_history(self, grid9):
        _, M, U0 = mixed_stack(9)
        model = RDModel(grid=grid9, newton_max_iters=3)
        M[3, 40] = 800.0  # e^m overflows: fails before the first step
        with pytest.raises(NewtonConvergenceError) as info:
            solve_state(model, M, u0=U0)
        # Row 3 fails first, but the lowest failing row is the one reported.
        assert info.value.row == 1
        with pytest.raises(NewtonConvergenceError,
                           match="no convergence in 3") as alone:
            solve_state(model, M[1], u0=U0[1])
        assert str(info.value) == str(alone.value)
        assert info.value.history == alone.value.history
        assert len(alone.value.history) == 4 and alone.value.row == 0


class TestBandedCholesky:
    """The factor helper against a dense solve, with right-hand sides that
    are nonzero on the Dirichlet rows."""

    @pytest.mark.parametrize("n", [9, 17, 33])
    def test_matches_sparse_solve(self, n):
        grid = Grid(n)
        model = RDModel(grid=grid, c_nl=1.5, obs_nodes=[grid.node(1, 1)])
        prior = PriorConfig(delta=1.3, gamma=0.37, grid=grid)
        rng = np.random.default_rng(n)
        u, m = rng.standard_normal((2, model.d_u))
        cases = ((dense_state_jacobian(model, u, m), models._banded_cholesky(
                      state_jacobian(model, u, m), True)),
                 (dense_band(prior_operator(prior), False),
                  models._prior_factor(prior)))
        for mat, factor in cases:
            for trans, op in (("N", mat), ("T", mat.T)):
                for b in (rng.standard_normal(model.d_u),
                          rng.standard_normal((model.d_u, 3))):
                    b_in = b.copy()
                    x = factor.solve(b, trans)
                    np.testing.assert_array_equal(b, b_in)  # b is not mutated
                    ref = np.linalg.solve(op, b)
                    assert x.shape == b.shape
                    assert np.linalg.norm(x - ref) <= \
                        1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [17, 33])
    def test_bitwise_equal_to_scipy_wrappers(self, n, monkeypatch):
        """The direct dpbtrf/dpbtrs calls give the factor and the solves
        that scipy's cholesky_banded and cho_solve_banded give."""
        grid = Grid(n)
        model = RDModel(grid=grid, obs_nodes=[grid.node(1, 1)])
        prior = PriorConfig(delta=1.0, gamma=0.1, grid=grid)
        rng = np.random.default_rng(n)
        u, m = rng.standard_normal((2, model.d_u))
        cases = ((state_jacobian(model, u, m), True),
                 (prior_operator(prior), False))
        rhs = (rng.standard_normal(model.d_u),
               rng.standard_normal((model.d_u, 30)))

        def run(dpbtrf, dpbtrs):
            """Band factors and solves with models' LAPACK calls replaced."""
            factors = []

            def factor(ab, overwrite_ab):
                factors.append(dpbtrf(ab, overwrite_ab))
                return factors[-1], 0

            monkeypatch.setattr(models, "lapack", SimpleNamespace(
                dpbtrf=factor, dpbtrs=lambda cb, b: (dpbtrs(cb, b), 0)))
            done = [models._banded_cholesky(*case) for case in cases]
            return factors + [f.solve(b, trans) for f in done
                              for trans in "NT" for b in rhs]

        lapack = models.lapack
        new = run(lambda ab, ow: lapack.dpbtrf(ab, overwrite_ab=ow)[0],
                  lambda cb, b: lapack.dpbtrs(cb, b)[0])
        old = run(lambda ab, ow: sla.cholesky_banded(
                      ab, overwrite_ab=ow, check_finite=False),
                  lambda cb, b: sla.cho_solve_banded(
                      (cb, False), b, check_finite=False))
        assert len(new) == len(old) == 2 + 2 * 2 * 2
        for x, ref in zip(new, old):
            np.testing.assert_array_equal(x, ref)

    def test_not_positive_definite_raises(self, grid9, prior9):
        band = tuple(-a for a in prior_operator(prior9))
        with pytest.raises(np.linalg.LinAlgError,
                           match="1-th leading minor not positive definite"):
            models._banded_cholesky(band, False)


class TestObserve:
    def test_all_ones(self, model9):
        np.testing.assert_array_equal(
            observe(model9, np.ones(model9.d_u)), np.ones(model9.d_q))

    def test_single_node(self, grid9):
        model = RDModel(grid=grid9, obs_nodes=np.array([grid9.node(1, 1)]))
        u = np.arange(grid9.num_nodes, dtype=float)
        np.testing.assert_array_equal(observe(model, u),
                                      [grid9.node(1, 1)])

    def test_default_layout_direct_indexing(self, grid9):
        nodes = lower_half_observation_nodes(grid9)
        assert len(nodes) == 25
        u = np.random.default_rng(7).standard_normal(grid9.num_nodes)
        model = RDModel(grid=grid9)
        np.testing.assert_array_equal(observe(model, u), u[nodes])
        # all observation nodes sit strictly in the lower half, interior
        xy = grid9.coords()[nodes]
        assert np.all(xy[:, 1] < 0.5)
        assert np.all((xy > 0) & (xy < 1))

    def test_boundary_observation_rejected(self, grid9):
        with pytest.raises(ValueError):
            RDModel(grid=grid9, obs_nodes=np.array([0]))

    @pytest.mark.parametrize("node", [81, 86, -11, -1])
    def test_observation_outside_grid_rejected(self, grid9, node):
        # -11 would read node 70 and 86 fail in generation
        with pytest.raises(ValueError, match="interior"):
            RDModel(grid=grid9, obs_nodes=[node])

    @pytest.mark.parametrize("c_nl", [np.nan, np.inf, -1.0])
    def test_invalid_reaction_coefficient_rejected(self, grid9, c_nl):
        with pytest.raises(ValueError, match="c_nl"):
            RDModel(grid=grid9, c_nl=c_nl)

    @pytest.mark.parametrize("knobs", [
        {"newton_tol": np.nan}, {"newton_tol": np.inf},
        {"newton_tol": -1.0}, {"newton_tol": 0.0},
        {"newton_max_iters": 0}, {"newton_max_iters": -3},
        {"newton_max_iters": 2.5}, {"newton_max_iters": np.nan},
    ], ids=["tol-nan", "tol-inf", "tol-negative", "tol-zero", "iters-0",
            "iters-negative", "iters-float", "iters-nan"])
    def test_invalid_newton_settings_rejected(self, grid9, knobs):
        # unchecked, a nan or inf tolerance returns the start state
        # unsolved, and the others fail later as solver errors
        with pytest.raises(ValueError, match=next(iter(knobs))):
            RDModel(grid=grid9, **knobs)

    def test_integer_newton_cap_accepted(self, grid9):
        model = RDModel(grid=grid9, newton_max_iters=np.int64(3),
                        newton_tol=1e-8)
        assert model.newton_max_iters == 3


def loop_assembly(model, u, m, prior):
    """Reference per-node loops for R, dense dR/du, dR/dm and the prior
    operator.

    Each row sums its diagonal (and the residual its flux) from the first
    term over the neighbours in the order (i-1, j), (i+1, j), (i, j-1),
    (i, j+1); the vectorized assembly must reproduce these sums bitwise.
    """
    n, h2, d = model.grid.n, model.grid.h**2, model.d_u
    k = np.exp(m)
    R = np.zeros(d)
    dRdu, dRdm, A = np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d))
    for p in range(d):
        i, j = divmod(p, n)
        nbrs = [a * n + b for a, b in ((i - 1, j), (i + 1, j), (i, j - 1),
                                       (i, j + 1)) if 0 <= a < n and 0 <= b < n]
        A[p, p] = prior.delta
        for q in nbrs:
            A[p, p] += prior.gamma / h2
            A[p, q] = -prior.gamma / h2
        if i in (0, n - 1):
            R[p] = u[p] - (1.0 if i == n - 1 else 0.0)
            dRdu[p, p] = 1.0
            continue
        dRdu[p, p] = 3.0 * model.c_nl * u[p] ** 2
        terms, flux = [], 0.0
        for q in nbrs:
            kf = 0.5 * (k[p] + k[q])
            dRdu[p, p] += kf / h2
            dRdu[p, q] = -kf / h2
            flux += kf / h2 * (u[p] - u[q])
            du = (u[p] - u[q]) / h2
            terms.append(0.5 * k[p] * du)
            dRdm[p, q] = 0.5 * k[q] * du
        R[p] = (model.c_nl * u[p] ** 3 - model.source[p]) + flux
        dRdm[p, p] = terms[0]
        for t in terms[1:]:
            dRdm[p, p] += t
    return R, dRdu, dRdm, A


class TestAssembly:
    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_matches_loop_reference_bitwise(self, n):
        grid = Grid(n)
        model = RDModel(grid=grid, c_nl=1.5, obs_nodes=[grid.node(1, 1)])
        prior = PriorConfig(delta=1.3, gamma=0.37, grid=grid)
        rng = np.random.default_rng(n)
        d = model.d_m
        for _ in range(3):
            u, m = rng.standard_normal((2, model.d_u))
            R, dRdu, dRdm, A = loop_assembly(model, u, m, prior)
            np.testing.assert_array_equal(residual(model, u, m), R)
            np.testing.assert_array_equal(
                dense_state_jacobian(model, u, m), dRdu)
            op = parameter_jacobian(model, u, m)
            np.testing.assert_array_equal(op.apply(np.eye(d)), dRdm)
            # Both actions sum each entry in a CSC product's order.
            csc = sparse.csc_array(dRdm)
            X = rng.standard_normal((d, 7))
            for x in (X[:, 0], X, np.asfortranarray(X)):
                np.testing.assert_array_equal(op.apply(x), csc @ x)
                np.testing.assert_array_equal(op.apply_transpose(x),
                                              csc.T @ x)
        np.testing.assert_array_equal(
            dense_band(prior_operator(prior), False), A)

    @pytest.mark.parametrize("which", ["u", "m"])
    def test_jacobians_match_residual_differences(self, model9, prior9,
                                                  which):
        rng = np.random.default_rng(13)
        m = sample_prior(prior9, rng)
        u = solve_state(model9, m) + 0.1 * rng.standard_normal(model9.d_u)
        J, x = ((dense_state_jacobian(model9, u, m), u) if which == "u" else
                (parameter_jacobian(model9, u, m).apply(np.eye(len(m))), m))
        eps = 1e-6

        def res(y):
            return residual(model9, *((y, m) if which == "u" else (u, y)))

        for c, e in enumerate(np.eye(len(x))):
            fd = (res(x + eps * e) - res(x - eps * e)) / (2 * eps)
            np.testing.assert_allclose(J[:, c], fd, rtol=0,
                                       atol=1e-7 * max(1.0, np.abs(fd).max()))


@pytest.fixture(scope="module", params=[0.0, 1.0], ids=["linear", "cubic"])
def setup(request, grid9, prior9):
    model = RDModel(grid=grid9, c_nl=request.param)
    m = sample_prior(prior9, np.random.default_rng(8))
    u = solve_state(model, m)
    return model, m, u, jacobian_operator(model, m, u)


class TestJacobianOperator:
    def test_zero_maps_to_zero(self, setup):
        model, _, _, op = setup
        np.testing.assert_array_equal(op.apply(np.zeros(model.d_m)),
                                      np.zeros(model.d_q))
        np.testing.assert_array_equal(
            op.apply_transpose(np.zeros(model.d_q)), np.zeros(model.d_m))

    def test_matches_finite_differences(self, setup):
        model, m, _, op = setup
        rng = np.random.default_rng(9)
        eps = 1e-5 * max(1.0, np.max(np.abs(m)))
        for _ in range(5):
            v = rng.standard_normal(model.d_m)
            qp = observe(model, solve_state(model, m + eps * v))
            qm = observe(model, solve_state(model, m - eps * v))
            fd = (qp - qm) / (2 * eps)
            jv = op.apply(v)
            assert np.linalg.norm(fd - jv) <= 1e-6 * np.linalg.norm(jv)

    def test_adjoint_consistency(self, setup):
        model, _, _, op = setup
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = rng.standard_normal(model.d_m)
            w = rng.standard_normal(model.d_q)
            lhs = w @ op.apply(v)
            rhs = v @ op.apply_transpose(w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_block_actions_match_columns(self, setup):
        model, _, _, op = setup
        rng = np.random.default_rng(12)
        for act, n in ((op.apply, model.d_m), (op.apply_transpose, model.d_q)):
            X = rng.standard_normal((n, 5))
            by_cols = np.column_stack([act(x) for x in X.T])
            np.testing.assert_allclose(act(X), by_cols, rtol=1e-12,
                                       atol=1e-14)

    def test_double_assembly_agrees(self, setup):
        model, _, _, op = setup
        by_cols = op.apply(np.eye(op.ncols))
        by_rows = np.column_stack(
            [op.apply_transpose(e) for e in np.eye(model.d_q)]).T
        assert np.linalg.norm(by_cols - by_rows) <= 1e-10


class TestToyMap:
    def test_zero_input(self):
        tm = ToyMap.default()
        q, jac = toy_map(tm, np.zeros(tm.d_m))
        np.testing.assert_array_equal(q, np.zeros(tm.d_q))
        np.testing.assert_allclose(jac, tm.B @ tm.C, atol=1e-14)

    def test_jacobian_matches_fd(self):
        tm = ToyMap.default()
        rng = np.random.default_rng(11)
        m = rng.standard_normal(tm.d_m)
        _, jac = toy_map(tm, m)
        eps = 1e-6
        fd = np.column_stack([
            (toy_map(tm, m + eps * e)[0] - toy_map(tm, m - eps * e)[0])
            / (2 * eps)
            for e in np.eye(tm.d_m)
        ])
        assert np.linalg.norm(fd - jac) <= 1e-7 * np.linalg.norm(jac)

    def test_rank_bounded_by_inner_width(self):
        tm = ToyMap.default()
        rng = np.random.default_rng(12)
        _, jac = toy_map(tm, rng.standard_normal(tm.d_m))
        assert np.linalg.matrix_rank(jac) <= tm.B.shape[1]

    def test_default_is_reproducible(self):
        a, b = ToyMap.default(), ToyMap.default()
        np.testing.assert_array_equal(a.B, b.B)
        np.testing.assert_array_equal(a.C, b.C)
