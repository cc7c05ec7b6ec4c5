from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import dstn

from memoctrl import (Box, SpaceTimeField, SpatialGrid, StateProblem,
                      TimeGrid, make_params, omega_mask, residual_state,
                      solve_adjoint, solve_linearized, solve_state)
from memoctrl.state import _anderson, _march_cn, discretization
from memoctrl import verify
from memoctrl.verify import (dense_state_gap, gradient_fd_gap,
                             manufactured_state)

from .conftest import control_field, setup_1d


def test_zero_data_zero_solution():
    params, grid, tgrid = setup_1d()
    prob = StateProblem(params=params, f=SpaceTimeField.zeros(grid, tgrid))
    u, report = solve_state(prob)
    assert np.all(u.values == 0.0)
    assert report.converged
    assert report.iterations == 1


def test_inadmissible_control_rejected():
    params, grid, tgrid = setup_1d()
    f = SpaceTimeField.zeros(grid, tgrid)
    bad = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    with pytest.raises(ValueError):
        StateProblem(params=params, f=f, v=bad)
    w = omega_mask(grid, params)
    vals = np.zeros((grid.nnodes, tgrid.nt + 1))
    vals[w, 0] = 1.0  # violates v(.,0) = 0
    with pytest.raises(ValueError):
        StateProblem(params=params, f=f, v=SpaceTimeField(grid, tgrid, vals))


def mms_error(nx, nt):
    params, grid, tgrid = setup_1d(nx=nx, nt=nt)
    f, u_star = manufactured_state(params, grid, tgrid)
    u, report = solve_state(StateProblem(params=params, f=f, tol=1e-10))
    assert report.converged
    return np.max(np.abs(u.values - u_star.values))


def test_manufactured_solution_second_order():
    errs = [mms_error(33, 64), mms_error(65, 128)]
    assert errs[0] < 2e-3
    assert errs[1] <= errs[0] / 3.5


def test_residual_contracts():
    params, grid, tgrid = setup_1d()
    f, _ = manufactured_state(params, grid, tgrid)
    prob = StateProblem(params=params, f=f, tol=1e-9)
    u, report = solve_state(prob)
    assert residual_state(u, prob) <= prob.tol
    # zero everything -> exactly zero residual
    zprob = StateProblem(params=params, f=SpaceTimeField.zeros(grid, tgrid))
    assert residual_state(SpaceTimeField.zeros(grid, tgrid), zprob) == 0.0


def test_residual_linear_in_perturbation():
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    f, _ = manufactured_state(params, grid, tgrid)
    prob = StateProblem(params=params, f=f, tol=1e-11)
    u, _ = solve_state(prob)
    node = grid.interior_idx[3]
    res = []
    for delta in (1e-3, 2e-3):
        up = u.copy()
        up.values[node, 5] += delta
        res.append(residual_state(up, prob))
    assert res[1] / res[0] == pytest.approx(2.0, rel=1e-3)


def test_picard_monotone_after_burn_in():
    params, grid, tgrid = setup_1d(nx=33, nt=64)
    f, _ = manufactured_state(params, grid, tgrid)
    _, report = solve_state(StateProblem(params=params, f=f, tol=1e-10))
    hist = report.residual_history
    assert all(b < a for a, b in zip(hist[2:], hist[3:]))


def test_affinity_of_state_map():
    params, grid, tgrid = setup_1d(nx=25, nt=32)
    f, _ = manufactured_state(params, grid, tgrid)
    v1 = control_field(params, grid, tgrid, lambda x, t: np.sin(2 * x) * t)
    v2 = control_field(params, grid, tgrid, lambda x, t: x * t ** 2)
    v12 = SpaceTimeField(grid, tgrid, v1.values + v2.values)
    u_a, _ = solve_state(StateProblem(params=params, f=f, v=v12, tol=1e-11))
    u_b, _ = solve_state(StateProblem(params=params, f=f, v=v1, tol=1e-11))
    theta = solve_linearized(v2, params, tol=1e-11)
    gap = np.max(np.abs(u_a.values - u_b.values - theta.values))
    assert gap < 1e-8


def test_linearized_homogeneity():
    params, grid, tgrid = setup_1d(nx=25, nt=32)
    v = control_field(params, grid, tgrid, lambda x, t: np.cos(x) * t)
    v2 = SpaceTimeField(grid, tgrid, 2.0 * v.values)
    th1 = solve_linearized(v, params, tol=1e-12)
    th2 = solve_linearized(v2, params, tol=1e-12)
    assert np.max(np.abs(th2.values - 2.0 * th1.values)) < 1e-10


def test_linearized_is_difference_quotient():
    params, grid, tgrid = setup_1d(nx=17, nt=32)
    f, _ = manufactured_state(params, grid, tgrid)
    v0 = control_field(params, grid, tgrid, lambda x, t: x * t)
    dv = control_field(params, grid, tgrid,
                            lambda x, t: np.sin(3 * x) * t ** 2)
    theta = solve_linearized(dv, params, tol=1e-12)
    for lam in (1e-2, 1e-3):
        v_lam = SpaceTimeField(grid, tgrid, v0.values + lam * dv.values)
        u1, _ = solve_state(StateProblem(params=params, f=f, v=v_lam, tol=1e-12))
        u0, _ = solve_state(StateProblem(params=params, f=f, v=v0, tol=1e-12))
        quotient = (u1.values - u0.values) / lam
        assert np.max(np.abs(quotient - theta.values)) < 1e-6 / lam


def test_control_outside_omega_never_enters():
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    f, _ = manufactured_state(params, grid, tgrid)
    v = control_field(params, grid, tgrid, lambda x, t: x * t)
    u_ref, _ = solve_state(StateProblem(params=params, f=f, v=v, tol=1e-11))
    tampered = StateProblem(params=params, f=f, v=v, tol=1e-11)
    # mutate after validation: values outside omega must be ignored entirely
    tampered.v.values[~omega_mask(grid, params)] = 123.0
    tampered.v.values[:, 0] = 0.0
    u_tam, _ = solve_state(tampered)
    assert np.array_equal(u_ref.values, u_tam.values)


def test_dense_oracle_small_instance():
    params, grid, tgrid = setup_1d(nx=9, nt=16)
    x = grid.coords[:, 0][:, None]
    t = tgrid.times[None, :]
    f = SpaceTimeField(grid, tgrid,
                       np.sin(np.pi * x) * (1.0 + t) * 1.0)
    v = control_field(params, grid, tgrid, lambda xs, tt: xs * tt)
    assert dense_state_gap(params, f, v) < 1e-6


def test_dense_oracle_empty_omega():
    # a controlled region that contains no grid node: the M-only equation
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0,
                         domain_box=Box((0.0,), (1.0,)),
                         omega_box=Box((0.315,), (0.33,)))
    grid = SpatialGrid(params.domain_box, (9,))
    tgrid = TimeGrid(T=1.0, nt=16)
    assert omega_mask(grid, params).sum() == 0
    x = grid.coords[:, 0][:, None]
    t = tgrid.times[None, :]
    f = SpaceTimeField(grid, tgrid, x * (1 - x) * np.exp(-t))
    assert dense_state_gap(params, f, None) < 1e-6


def test_gap_functions_refuse_unconverged_solves(monkeypatch):
    # a solve that stops at its Picard cap can still sit near the dense
    # solve, so the gap must not be reported at all
    def capped(problem):
        u, report = solve_state(problem)
        return u, replace(report, converged=False)

    monkeypatch.setattr(verify, "solve_state", capped)
    params, grid, tgrid = setup_1d(nx=9, nt=8)
    f = SpaceTimeField(grid, tgrid, np.ones((grid.nnodes, tgrid.nt + 1)))
    v = control_field(params, grid, tgrid, lambda xs, tt: xs * tt)
    with pytest.raises(RuntimeError, match="did not converge"):
        dense_state_gap(params, f, v)
    with pytest.raises(RuntimeError, match="did not converge"):
        gradient_fd_gap(params, f, v, v)


def test_nan_detection_aborts():
    params, grid, tgrid = setup_1d(nx=9, nt=8)
    f = SpaceTimeField.zeros(grid, tgrid)
    vals = f.values.copy()
    vals[4, 3] = np.nan
    with pytest.raises(ValueError):
        SpaceTimeField(grid, tgrid, vals)


def test_dense_oracle_2d():
    # the unit square, then the GRIDS below: an anisotropic box with unequal
    # node counts and spacings per axis, and a 3-D grid; every omega box
    # keeps off the boundary nodes
    square = (Box((0.0, 0.0), (1.0, 1.0)), Box((0.25, 0.25), (0.75, 0.75)),
              (7, 7))
    for domain, omega, shape in [square] + GRIDS[1:]:
        params, grid, tgrid = grid_case(domain, omega, shape)
        t = tgrid.times[None, :]
        bump = np.ones((grid.nnodes, 1))
        for ax in range(grid.dim):
            x = grid.coords[:, ax][:, None]
            bump *= np.sin(np.pi * (x - domain.lo[ax])
                           / (domain.hi[ax] - domain.lo[ax]))
        f = SpaceTimeField(grid, tgrid, (1.0 + bump) * np.ones_like(t))
        assert omega_mask(grid, params).any()
        assert dense_state_gap(params, f, None) < 1e-6


def _march_three_term(ctx, rhs, ic):
    """The per-mode march as one three-term update per step (reference)."""
    ncols = rhs.shape[1]
    axes = tuple(range(1, len(ctx.shape) + 1))
    hat = np.empty((ncols,) + ctx.shape)
    hat[0] = ic.reshape(ctx.shape)
    hat[1:] = (0.5 * (rhs[:, :-1] + rhs[:, 1:])).T.reshape(hat[1:].shape)
    hat = dstn(hat, type=1, axes=axes, norm="ortho", overwrite_x=True)
    for k in range(1, ncols):
        hat[k] = ctx.decay * hat[k - 1] + ctx.gain * hat[k]
    hat = dstn(hat, type=1, axes=axes, norm="ortho", overwrite_x=True)
    u = hat.reshape(ncols, -1).T.copy()
    u[:, 0] = ic
    return u


GRIDS = [
    (Box((0.0,), (1.0,)), Box((0.25,), (0.75,)), (17,)),
    (Box((0.0, 0.0), (2.0, 1.0)), Box((0.5, 0.25), (1.5, 0.75)), (7, 5)),
    (Box((0.0,) * 3, (1.0,) * 3), Box((0.25,) * 3, (0.75,) * 3), (5, 4, 5)),
]


def grid_case(domain, omega, shape, nt=8):
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0, sim_dim=domain.dim,
                         domain_box=domain, omega_box=omega)
    return params, SpatialGrid(params.domain_box, shape), TimeGrid(T=1.0,
                                                                   nt=nt)


@pytest.mark.parametrize("domain, omega, shape", GRIDS)
def test_march_matches_three_term_recurrence(domain, omega, shape):
    params, grid, tgrid = grid_case(domain, omega, shape, nt=12)
    ctx = discretization(params, grid, tgrid)
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=(len(ctx.interior), tgrid.nt + 1))
    ic = rng.normal(size=len(ctx.interior))
    assert np.array_equal(_march_cn(ctx, rhs, ic),
                          _march_three_term(ctx, rhs, ic))


@pytest.mark.parametrize("domain, omega, shape", GRIDS)
def test_picard_residual_matches_state_residual(domain, omega, shape):
    # the loop's residual is the memory update; residual_state applies
    # the Laplacian to the returned field
    params, grid, tgrid = grid_case(domain, omega, shape)
    f = SpaceTimeField.from_function(
        grid, tgrid, lambda *a: 1.0 + np.cos(3.0 * a[0] + a[-1]))
    prob = StateProblem(params=params, f=f, tol=1e-8)
    u, report = solve_state(prob)
    assert report.converged and report.iterations > 1
    assert report.final_residual == pytest.approx(residual_state(u, prob),
                                                  rel=1e-6)


@pytest.mark.parametrize("domain, omega, shape", GRIDS)
def test_warm_start_at_solution_takes_one_iteration(domain, omega, shape):
    params, grid, tgrid = grid_case(domain, omega, shape)
    f = SpaceTimeField.from_function(
        grid, tgrid, lambda *a: 1.0 + np.sin(2.0 * a[0] - a[-1]))
    prob = StateProblem(params=params, f=f, tol=1e-11)
    u_star, cold = solve_state(prob)
    u, warm = solve_state(prob, guess=u_star)
    assert cold.iterations > 1 and warm.converged
    assert warm.iterations == 1
    assert np.max(np.abs(u.values - u_star.values)) < 1e-10

    p_star, cold = solve_adjoint(u_star, params, tol=1e-11)
    p, warm = solve_adjoint(u_star, params, tol=1e-11, guess=p_star)
    assert cold.iterations > 1 and warm.converged
    assert warm.iterations == 1
    assert np.max(np.abs(p.values - p_star.values)) < 1e-10


def affine_map(seed, n=40):
    """x -> A x + b with eigenvalues 0.96, 0.9, -0.8 and 37 in [-0.1, 0.1].

    Returns (A, b, step), step in the form _anderson iterates.
    """
    rng = np.random.default_rng(seed)
    eig = np.concatenate([[0.96, 0.9, -0.8], rng.uniform(-0.1, 0.1, n - 3)])
    V = rng.normal(size=(n, n))
    A = V @ np.diag(eig) @ np.linalg.inv(V)
    b = rng.normal(size=n)

    def step(x):
        g = A @ x + b
        return g, float(np.linalg.norm(g - x)), x

    return A, b, step


@pytest.mark.parametrize("seed", range(5))
def test_anderson_solves_affine_fixed_point(seed):
    # plain iteration needs about 600 steps at this tolerance
    A, b, step = affine_map(seed)
    x, iterations, history, converged = _anderson(
        step, np.zeros(len(b)), tol=1e-10, max_iter=30)
    assert converged and iterations <= 30
    assert len(history) == iterations and history[-1] <= 1e-10
    exact = np.linalg.solve(np.eye(len(b)) - A, b)
    assert np.max(np.abs(x - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_anderson_reports_iteration_cap():
    _, b, step = affine_map(0)
    _, iterations, history, converged = _anderson(
        step, np.zeros(len(b)), tol=1e-10, max_iter=3)
    assert not converged
    assert iterations == 3 and len(history) == 3
