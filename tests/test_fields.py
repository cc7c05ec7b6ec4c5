import numpy as np
import pytest

from memoctrl import (Box, SpaceTimeField, SpatialGrid, TimeGrid,
                      integrate_space_at, integrate_spacetime, lift_timeop,
                      make_params, neg_laplacian, omega_mask, spacetime_inner)
from memoctrl.fields import grad_inner, space_weights
from memoctrl.oracles import dense_neg_laplacian
from memoctrl.timeops import apply_h_values


def grid1d(nx=65):
    return SpatialGrid(Box((0.0,), (1.0,)), (nx,))


def grid2d(nx=33, ny=17):
    return SpatialGrid(Box((0.0, 0.0), (1.0, 1.0)), (nx, ny))


def test_grid_basics():
    g = grid1d(11)
    assert g.nnodes == 11
    assert g.h == (0.1,)
    assert g.boundary_mask.sum() == 2
    assert len(g.interior_idx) == 9
    with pytest.raises(ValueError):
        SpatialGrid(Box((0.0,), (1.0,)), (2,))


def test_laplacian_zero_and_boundary():
    g = grid1d(21)
    inner = g.interior_idx
    assert np.all(neg_laplacian(g, np.zeros(len(inner))) == 0.0)
    # the Dirichlet data are zero: the first and last rows see no boundary
    # value, whatever the field holds there
    u = np.sin(np.pi * g.coords[:, 0]) + 1.0
    lap = neg_laplacian(g, u[inner])
    assert lap.shape == (len(inner),)
    h2 = g.h[0] ** 2
    assert lap[0] == pytest.approx((2.0 * u[1] - u[2]) / h2, rel=1e-14)
    assert lap[-1] == pytest.approx((2.0 * u[-2] - u[-3]) / h2, rel=1e-14)


def test_laplacian_1d_eigenfunction():
    g = grid1d(129)
    x = g.coords[:, 0]
    u = np.sin(np.pi * x)
    inner = g.interior_idx
    lap = neg_laplacian(g, u[inner])
    err = np.max(np.abs(lap - np.pi ** 2 * u[inner]))
    assert err < np.pi ** 4 / 12 * g.h[0] ** 2 * 1.1


def test_laplacian_2d_polynomial_exact():
    g = grid2d()
    x, y = g.coords[:, 0], g.coords[:, 1]
    u = x * (1 - x) * y * (1 - y)
    expected = 2.0 * (y * (1 - y) + x * (1 - x))
    inner = g.interior_idx
    lap = neg_laplacian(g, u[inner])
    assert np.max(np.abs(lap - expected[inner])) < 1e-11


def test_laplacian_matrix_symmetric_positive():
    # the stencil applied to the identity (a trailing axis) is its matrix
    g = grid2d(9, 7)
    n = len(g.interior_idx)
    L = neg_laplacian(g, np.eye(n))
    assert np.max(np.abs(L - L.T)) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=n)
        assert x @ L @ x > 0.0


def test_laplacian_matrix_matches_slice_version():
    # the stencil against the dense oracle's Kronecker sum, which shares no
    # code with it, in 1-D, 2-D and 3-D on fields with a trailing time axis
    rng = np.random.default_rng(1)
    for shape in ((11,), (9, 7), (5, 6, 7)):
        dim = len(shape)
        g = SpatialGrid(Box((0.0,) * dim, (1.0,) * dim), shape)
        u = rng.normal(size=(len(g.interior_idx), 4))
        ref = dense_neg_laplacian(g) @ u
        assert np.max(np.abs(neg_laplacian(g, u) - ref)) \
            <= 1e-12 * np.max(np.abs(ref)), shape


def test_omega_mask_staircase_and_boundary_guard():
    from memoctrl.params import ModelParams

    params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    g = grid1d(9)  # nodes at k/8
    mask = omega_mask(g, params)  # omega = [0.25, 0.75]
    x = g.coords[:, 0]
    assert np.array_equal(mask, (x >= 0.25) & (x <= 0.75))
    # make_params forbids omega touching the boundary, but the mask guard
    # also catches a raw construction that slips through
    raw = ModelParams(n=3, C0=1.0, N=1.0, T=1.0, Bn=1.0, An=1.0, mu=2.0,
                      sim_dim=1, domain_box=Box((0.0,), (1.0,)),
                      omega_box=Box((0.0,), (0.5,)))
    with pytest.raises(ValueError):
        omega_mask(g, raw)


def test_integrals_constant_field():
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0, sim_dim=2)
    g = grid2d(17, 17)
    tg = TimeGrid(T=1.0, nt=16)
    one = SpaceTimeField.from_function(g, tg, lambda x, y, t: 1.0)
    assert integrate_spacetime(one) == pytest.approx(1.0, abs=1e-13)
    w = omega_mask(g, params)
    masked = integrate_spacetime(one, mask=w)
    assert abs(masked - 0.25) <= 2 * max(g.h)


def test_mask_partition_is_exact():
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    g = grid1d(33)
    tg = TimeGrid(T=1.0, nt=8)
    rng = np.random.default_rng(2)
    fld = SpaceTimeField(g, tg, rng.normal(size=(g.nnodes, tg.nt + 1)))
    w = omega_mask(g, params)
    total = integrate_spacetime(fld)
    split = integrate_spacetime(fld, mask=w) + integrate_spacetime(fld, mask=~w)
    assert split == pytest.approx(total, rel=1e-13, abs=1e-13)


def test_integral_of_time_ramp():
    g = grid1d(17)
    tg = TimeGrid(T=2.0, nt=32)
    fld = SpaceTimeField.from_function(g, tg, lambda x, t: t)
    assert integrate_spacetime(fld) == pytest.approx(2.0, abs=1e-12)
    assert integrate_space_at(fld, -1) == pytest.approx(2.0, abs=1e-12)


def test_lift_zero_field():
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    g = grid1d(17)
    tg = TimeGrid(T=1.0, nt=16)
    z = SpaceTimeField.zeros(g, tg)
    for op in ("M", "M*", "G", "G*", "H", "H*", "G*H", "HG*"):
        assert np.all(lift_timeop(z, op, params).values == 0.0)


def test_lift_separable_field(params_=None):
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    g = grid1d(17)
    tg = TimeGrid(T=1.0, nt=64)
    spatial = np.cos(2 * np.pi * g.coords[:, 0])
    temporal = np.sin(np.pi * tg.times)
    fld = SpaceTimeField(g, tg, np.outer(spatial, temporal))
    lifted = lift_timeop(fld, "M", params)
    from memoctrl.timeops import relax_forward_values
    m_of_g = relax_forward_values(temporal, params.Bn, tg.dt)
    assert np.max(np.abs(lifted.values - np.outer(spatial, m_of_g))) < 1e-12


def test_lift_h_matches_per_node(params_=None):
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    g = grid1d(9)
    tg = TimeGrid(T=1.0, nt=32)
    rng = np.random.default_rng(3)
    fld = SpaceTimeField(g, tg, rng.normal(size=(g.nnodes, tg.nt + 1)))
    lifted = lift_timeop(fld, "H", params)
    for i in range(g.nnodes):
        row = apply_h_values(fld.values[i], params.Bn, params.mu, tg.dt)
        assert np.max(np.abs(lifted.values[i] - row)) < 1e-12


def test_lift_commutes_with_restriction():
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    g = grid1d(9)
    tg = TimeGrid(T=1.0, nt=32)
    rng = np.random.default_rng(4)
    fld = SpaceTimeField(g, tg, rng.normal(size=(g.nnodes, tg.nt + 1)))
    lifted = lift_timeop(fld, "G*", params)
    subset = np.array([1, 4, 7])
    from memoctrl.timeops import relax_backward_values
    restricted = relax_backward_values(fld.values[subset], params.mu, tg.dt)
    assert np.max(np.abs(lifted.values[subset] - restricted)) < 1e-14


def test_lift_unknown_tag_rejected():
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    g = grid1d(9)
    tg = TimeGrid(T=1.0, nt=8)
    z = SpaceTimeField.zeros(g, tg)
    with pytest.raises(ValueError):
        lift_timeop(z, "Q", params)


def test_grad_inner_manufactured():
    g = grid1d(129)
    tg = TimeGrid(T=1.0, nt=64)
    fld = SpaceTimeField.from_function(g, tg, lambda x, t: np.sin(np.pi * x) * t)
    # int_0^T t^2 dt * int_0^1 pi^2 cos^2(pi x) dx = (1/3)(pi^2/2)
    assert grad_inner(fld, fld) == pytest.approx(np.pi ** 2 / 6, rel=2e-3)


def test_space_weights_sum_to_measure():
    g = grid2d(13, 9)
    assert space_weights(g).sum() == pytest.approx(1.0, abs=1e-13)


def test_field_validation():
    g = grid1d(9)
    tg = TimeGrid(T=1.0, nt=8)
    with pytest.raises(ValueError):
        SpaceTimeField(g, tg, np.zeros((3, 3)))
    vals = np.zeros((g.nnodes, tg.nt + 1))
    vals[0, 0] = np.nan
    with pytest.raises(ValueError):
        SpaceTimeField(g, tg, vals)


def test_spacetime_inner_symmetry():
    g = grid1d(17)
    tg = TimeGrid(T=1.0, nt=8)
    rng = np.random.default_rng(5)
    a = SpaceTimeField(g, tg, rng.normal(size=(g.nnodes, tg.nt + 1)))
    b = SpaceTimeField(g, tg, rng.normal(size=(g.nnodes, tg.nt + 1)))
    assert spacetime_inner(a, b) == pytest.approx(spacetime_inner(b, a), rel=1e-14)
