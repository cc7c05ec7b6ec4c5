import numpy as np
import pytest

from memoctrl import (SpaceTimeField, SpatialGrid, TimeGrid, lift_timeop,
                      make_params, omega_mask, solve_adjoint, solve_optimality)
from memoctrl.optimality import control_from_adjoint, extract_control_ode
from memoctrl.oracles import dense_optimality_solve, shoot_h_gstar

from .conftest import setup_1d


def test_adjoint_zero_state():
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    p, report = solve_adjoint(SpaceTimeField.zeros(grid, tgrid), params)
    assert np.all(p.values == 0.0)
    assert report.converged


def test_adjoint_terminal_condition_exact():
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    x = grid.coords[:, 0][:, None]
    t = tgrid.times[None, :]
    u0 = SpaceTimeField(grid, tgrid, np.sin(np.pi * x) * (0.3 + t ** 2))
    p, _ = solve_adjoint(u0, params,
                         source=SpaceTimeField.zeros(grid, tgrid), tol=1e-10)
    inner = grid.interior_idx
    assert np.array_equal(p.values[inner, -1], u0.values[inner, -1])


def adjoint_mms_error(nx, nt):
    """p* = sin(pi x)(T - t): backward problem with manufactured source."""
    params, grid, tgrid = setup_1d(nx=nx, nt=nt)
    x = grid.coords[:, 0][:, None]
    t = tgrid.times[None, :]
    T = params.T
    p_star = SpaceTimeField(grid, tgrid, np.sin(np.pi * x) * (T - t))
    dp_dt = -np.sin(np.pi * x) * np.ones_like(t)
    lap = -np.pi ** 2 * p_star.values
    w = omega_mask(grid, params)
    Hs = lift_timeop(p_star, "H*", params).values
    Ms = lift_timeop(p_star, "M*", params).values
    g = -dp_dt - lap + params.An * p_star.values
    g[w] -= params.An * params.Bn * Hs[w]
    g[~w] -= params.An * params.Bn * Ms[~w]
    g[grid.boundary_mask] = 0.0
    # p*(T) = 0, so a zero "state" supplies the right terminal data
    # (tol sits above the CG noise floor, which grows with nt)
    p, report = solve_adjoint(SpaceTimeField.zeros(grid, tgrid), params,
                              source=SpaceTimeField(grid, tgrid, g), tol=1e-9)
    assert report.converged
    return np.max(np.abs(p.values - p_star.values))


def test_adjoint_manufactured_second_order():
    errs = [adjoint_mms_error(33, 64), adjoint_mms_error(65, 128)]
    assert errs[0] < 2e-3
    assert errs[1] <= errs[0] / 3.5


def test_optimality_zero_source():
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    result = solve_optimality(SpaceTimeField.zeros(grid, tgrid), params)
    assert result.converged
    assert np.all(result.u0.values == 0.0)
    assert np.all(result.p0.values == 0.0)
    assert np.all(result.v0.values == 0.0)


def test_optimality_desk_run_structure():
    params, grid, tgrid = setup_1d(nx=33, nt=48)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    result = solve_optimality(f, params, outer_tol=1e-8)
    assert result.converged
    assert result.outer_residual <= 1e-8
    # terminal coupling enforced at assembly
    inner = grid.interior_idx
    gap = np.max(np.abs(result.p0.values[inner, -1]
                        - result.u0.values[inner, -1]))
    assert gap < 1e-12
    # control is supported in omega and admissible
    w = omega_mask(grid, params)
    assert np.all(result.v0.values[~w] == 0.0)
    assert np.max(np.abs(result.v0.values[:, 0])) < 1e-12


def test_optimality_one_control_lift_per_sweep(monkeypatch):
    # each sweep's residual control also drives the next sweep's state solve
    import memoctrl.optimality as opt
    calls = []

    def counted(p0, params):
        calls.append(1)
        return control_from_adjoint(p0, params)

    params, grid, tgrid = setup_1d(nx=17, nt=16)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    monkeypatch.setattr(opt, "control_from_adjoint", counted)
    result = solve_optimality(f, params)
    assert result.converged and result.outer_iterations > 1
    assert len(calls) == result.outer_iterations
    assert np.array_equal(result.v0.values,
                          control_from_adjoint(result.p0, params).values)


def test_control_routes_agree():
    params, grid, tgrid = setup_1d(nx=33, nt=48)
    rng = np.random.default_rng(8)
    x = grid.coords[:, 0][:, None]
    t = tgrid.times[None, :]
    p0 = SpaceTimeField(grid, tgrid,
                        np.sin(np.pi * x) * np.exp(-t) + 0.1 * np.cos(x * t))
    v_lift = control_from_adjoint(p0, params)
    v_ode = extract_control_ode(p0, params)
    scale = np.max(np.abs(v_lift.values))
    assert np.max(np.abs(v_lift.values - v_ode.values)) < 1e-10 * max(1.0, scale)


def test_extract_control_matches_shooting():
    params, grid, _ = setup_1d(nx=17)
    tgrid = TimeGrid(T=1.0, nt=2000)
    x = grid.coords[:, 0]
    p0 = SpaceTimeField(grid, tgrid,
                        np.outer(np.sin(np.pi * x), np.exp(-tgrid.times)))
    v = extract_control_ode(p0, params)
    w = np.flatnonzero(omega_mask(grid, params))
    for node in w[::3]:
        amp = np.sin(np.pi * x[node])
        oracle = shoot_h_gstar(lambda tt: -amp * np.exp(-tt) / params.N,
                               params.Bn, params.mu, tgrid.T, tgrid.nt)
        assert np.max(np.abs(v.values[node] - oracle)) < 1e-6


def test_dense_coupled_oracle():
    params, grid, tgrid = setup_1d(nx=9, nt=16)
    x = grid.coords[:, 0][:, None]
    t = tgrid.times[None, :]
    f = SpaceTimeField(grid, tgrid, (1.0 + 0.5 * np.sin(np.pi * x)) * (1 + 0 * t))
    f.values[grid.boundary_mask] = f.values[grid.boundary_mask]  # keep as is
    result = solve_optimality(f, params, outer_tol=1e-11)
    assert result.converged
    u_dense, p_dense = dense_optimality_solve(params, grid, tgrid, f.values)
    inner = grid.interior_idx
    gap_u = np.max(np.abs(result.u0.values[inner] - u_dense))
    gap_p = np.max(np.abs(result.p0.values[inner] - p_dense))
    assert gap_u < 1e-6
    assert gap_p < 1e-6


@pytest.mark.parametrize("N", [0.01, 0.002])
def test_stiff_coupled_system_matches_dense(N):
    # plain Gauss-Seidel contracts by 0.83 (N=0.01) and 0.96 (N=0.002) per
    # sweep here; the accelerated sweep must still reach the fixed point
    params = make_params(n=3, C0=1.0, N=N, T=1.0)
    grid = SpatialGrid(params.domain_box, (17,))
    tgrid = TimeGrid(T=1.0, nt=16)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    result = solve_optimality(f, params, outer_tol=1e-11)
    assert result.converged
    assert result.outer_iterations <= 20
    u_dense, p_dense = dense_optimality_solve(params, grid, tgrid, f.values)
    inner = grid.interior_idx
    for got, want in ((result.u0, u_dense), (result.p0, p_dense)):
        gap = np.max(np.abs(got.values[inner] - want))
        assert gap <= 1e-10 * np.max(np.abs(want))


def test_extract_control_zero_adjoint():
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    v = extract_control_ode(SpaceTimeField.zeros(grid, tgrid), params)
    assert np.all(v.values == 0.0)


def test_direct_minimize_zero_data_zero_iterations():
    from memoctrl.optimality import direct_minimize
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    f = SpaceTimeField.zeros(grid, tgrid)
    v_star, history, info = direct_minimize(f, params)
    assert np.all(v_star.values == 0.0)
    assert history == [0.0]
    assert info["iterations"] == 0


def test_direct_minimize_iterates_stay_admissible():
    from memoctrl.optimality import direct_minimize
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    v_star, _, _ = direct_minimize(f, params, max_iter=3)
    w = omega_mask(grid, params)
    assert np.all(v_star.values[~w] == 0.0)
    assert np.all(v_star.values[:, 0] == 0.0)


def test_optimality_2d_smoke():
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0, sim_dim=2)
    grid = SpatialGrid(params.domain_box, (9, 9))
    tgrid = TimeGrid(T=1.0, nt=12)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, y, t: 1.0 + 0 * x)
    result = solve_optimality(f, params, outer_tol=1e-8)
    assert result.converged
    inner = grid.interior_idx
    assert np.max(np.abs(result.p0.values[inner, -1]
                         - result.u0.values[inner, -1])) < 1e-12
    w = omega_mask(grid, params)
    assert np.all(result.v0.values[~w] == 0.0)


def test_direct_minimize_monotone_from_perturbed_optimum():
    from memoctrl.optimality import direct_minimize
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    result = solve_optimality(f, params)
    w = omega_mask(grid, params)
    pert = np.zeros_like(result.v0.values)
    pert[w] = 0.05 * np.outer(np.sin(np.pi * grid.coords[w, 0]),
                              tgrid.times / tgrid.T)
    v_init = SpaceTimeField(grid, tgrid, result.v0.values + pert)
    _, history, _ = direct_minimize(f, params, v_init=v_init, max_iter=10)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    assert history[-1] < history[0]
