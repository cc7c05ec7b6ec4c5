import numpy as np
import pytest

from memoctrl import (SpaceTimeField, StateProblem, check_fp_identity,
                      check_GH_decomposition, check_HGstar_decomposition,
                      check_M_decomposition, evaluate_J0, gradient_J0,
                      omega_mask, solve_optimality, solve_state)
from memoctrl.fields import space_weights
from memoctrl.verify import decomposition_gap, fp_identity_gap, gradient_fd_gap

from .conftest import control_field, seeded_field, setup_1d


def staircase_measure(params, grid):
    return float(space_weights(grid) @ omega_mask(grid, params))


def test_all_zero():
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    z = SpaceTimeField.zeros(grid, tgrid)
    bd = evaluate_J0(z, z, params)
    assert all(val == 0.0 for val in bd.as_dict().values())


def test_total_is_sum_and_terms_nonnegative():
    params, grid, tgrid = setup_1d(nx=17, nt=32)
    rng = np.random.default_rng(0)
    u = SpaceTimeField(grid, tgrid, rng.normal(size=(grid.nnodes, tgrid.nt + 1)))
    u.values[grid.boundary_mask] = 0.0
    v = control_field(params, grid, tgrid, lambda x, t: np.sin(x) * t)
    bd = evaluate_J0(v, u, params)
    d = bd.as_dict()
    total = d.pop("total")
    assert total == pytest.approx(sum(d.values()), rel=1e-12)
    assert all(val >= -1e-14 for val in d.values())


def test_pure_control_closed_forms():
    params, grid, tgrid = setup_1d(nx=65, nt=128, T=1.0, N=2.0)
    An, Bn, mu, N, T = params.An, params.Bn, params.mu, params.N, params.T
    v = control_field(params, grid, tgrid, lambda x, t: t + 0.0 * x)
    u0 = SpaceTimeField.zeros(grid, tgrid)
    bd = evaluate_J0(v, u0, params)
    m = staircase_measure(params, grid)
    assert bd.grad_term == 0.0 and bd.H_bulk_term == 0.0
    assert bd.dv_term == pytest.approx(N * An * Bn * m * T, rel=1e-12)
    assert bd.v_terminal_term == pytest.approx(N * An * Bn * mu * m * T ** 2,
                                               rel=1e-12)
    assert bd.v_bulk_term == pytest.approx(N * An * Bn ** 2 * mu * m * T ** 3 / 3,
                                           rel=1e-3)


def test_manufactured_gradient_term():
    params, grid, tgrid = setup_1d(nx=129, nt=128)
    u = SpaceTimeField.from_function(grid, tgrid,
                                     lambda x, t: np.sin(np.pi * x) * t)
    v = SpaceTimeField.zeros(grid, tgrid)
    bd = evaluate_J0(v, u, params)
    assert bd.grad_term == pytest.approx(np.pi ** 2 / 6, rel=2e-3)


@pytest.mark.parametrize("checker", [
    check_M_decomposition,
    check_GH_decomposition,
    check_HGstar_decomposition,
])
def test_decompositions_second_order(checker):
    """Gap bounded by C*dt^2*|u|^2 and decaying at second order.

    Individual seeds can cancel accidentally on one grid, so the decay is
    judged on the worst gap over several seeds, by a log-log order fit.
    """
    nts = (128, 256, 512)
    gaps = []
    for nt in nts:
        params, grid, tgrid = setup_1d(nx=9, nt=nt)
        gaps.append(max(decomposition_gap(params, checker,
                                          seeded_field(grid, tgrid, seed))
                        for seed in (5, 21, 33)))
    # C calibrated once on the coarsest grid: C = 25
    assert gaps[0] <= 25.0 * (1.0 / nts[0]) ** 2
    order = np.polyfit(np.log([1.0 / nt for nt in nts]), np.log(gaps), 1)[0]
    assert order >= 1.6


def test_decomposition_positivity_witness():
    params, grid, tgrid = setup_1d(nx=17, nt=64)
    u = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x * t)
    lhs, rhs = check_M_decomposition(u, params)
    assert rhs > 0.0
    assert lhs == pytest.approx(rhs, rel=2e-3)


def test_decomposition_scaling_quadratic():
    params, grid, tgrid = setup_1d(nx=17, nt=32)
    p = seeded_field(grid, tgrid, seed=3)
    p2 = SpaceTimeField(grid, tgrid, 2.0 * p.values)
    l1, r1 = check_HGstar_decomposition(p, params)
    l2, r2 = check_HGstar_decomposition(p2, params)
    assert l2 == pytest.approx(4.0 * l1, rel=1e-12)
    assert r2 == pytest.approx(4.0 * r1, rel=1e-12)


def test_gh_decomposition_rhs_nonnegative():
    params, grid, tgrid = setup_1d(nx=17, nt=32)
    u = seeded_field(grid, tgrid, seed=9, params=params)
    _, rhs = check_GH_decomposition(u, params)
    assert rhs >= 0.0


def test_fp_identity_zero():
    params, grid, tgrid = setup_1d(nx=17, nt=16)
    f = SpaceTimeField.zeros(grid, tgrid)
    res = solve_optimality(f, params)
    lhs, rhs = check_fp_identity(f, res, params)
    assert lhs == 0.0 and rhs == 0.0


def test_fp_identity_desk_scale():
    params, grid, tgrid = setup_1d(nx=65, nt=128)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    res = solve_optimality(f, params)
    assert res.converged
    assert fp_identity_gap(params, f, res) <= 1e-3


def test_gradient_zero_direction():
    params, grid, tgrid = setup_1d(nx=17, nt=32)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    u, _ = solve_state(StateProblem(params=params, f=f, tol=1e-10))
    v0 = control_field(params, grid, tgrid, lambda x, t: x * t)
    zero = SpaceTimeField.zeros(grid, tgrid)
    assert gradient_J0(v0, u, params, zero) == 0.0


@pytest.mark.parametrize("seed", range(3))
def test_gradient_matches_central_difference(seed):
    params, grid, tgrid = setup_1d(nx=17, nt=32)
    rng = np.random.default_rng(300 + seed)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    v0 = control_field(params, grid, tgrid,
                       lambda x, t: rng.normal() * np.sin(np.pi * x) * t
                       + rng.normal() * x * t ** 2)
    dv = control_field(params, grid, tgrid,
                       lambda x, t: rng.normal() * np.cos(2 * x) * t
                       + rng.normal() * t ** 3)
    assert gradient_fd_gap(params, f, v0, dv) <= 1e-5


def test_gradient_linear_in_direction():
    params, grid, tgrid = setup_1d(nx=17, nt=32)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    u0, _ = solve_state(StateProblem(params=params, f=f, tol=1e-12))
    v0 = SpaceTimeField.zeros(grid, tgrid)
    va = control_field(params, grid, tgrid, lambda x, t: np.sin(x) * t)
    vb = control_field(params, grid, tgrid, lambda x, t: x * t ** 2)
    combo = SpaceTimeField(grid, tgrid, 2.0 * va.values - 3.0 * vb.values)
    ga = gradient_J0(v0, u0, params, va, tol=1e-12)
    gb = gradient_J0(v0, u0, params, vb, tol=1e-12)
    gc = gradient_J0(v0, u0, params, combo, tol=1e-12)
    assert gc == pytest.approx(2.0 * ga - 3.0 * gb, rel=1e-8)


def test_convexity_along_lines():
    params, grid, tgrid = setup_1d(nx=17, nt=32)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    v1 = control_field(params, grid, tgrid, lambda x, t: np.sin(np.pi * x) * t)
    v2 = control_field(params, grid, tgrid, lambda x, t: -x * t ** 2)

    def J(v):
        u, _ = solve_state(StateProblem(params=params, f=f, v=v, tol=1e-10))
        return evaluate_J0(v, u, params).total

    j1, j2 = J(v1), J(v2)
    for s in (0.25, 0.5, 0.75):
        mid = SpaceTimeField(grid, tgrid,
                             s * v1.values + (1 - s) * v2.values)
        assert J(mid) <= s * j1 + (1 - s) * j2 + 1e-9
