import math

import numpy as np
import pytest

from memoctrl import make_params
from memoctrl.oracles import (picard_h, picard_hstar, rk4_march,
                              rk4_relax_forward, shoot_gstar_h, shoot_h_gstar)
from memoctrl.timeops import (TimeGrid, _exp_weights, apply_h_values,
                              apply_hstar_values, bvp_gstar_h_values,
                              bvp_h_gstar_values, relax_backward_values,
                              relax_forward_values, time_derivative_values,
                              trapezoid_weights)
from memoctrl.verify import (adjoint_pairs, composition_gaps, duality_gap,
                             shooting_gaps)

from .conftest import (fourier_callable, fourier_series, run_fresh_python,
                       series)


# --- relaxation maps ----------------------------------------------------------

def test_relax_forward_constant_source(tgrid):
    y = relax_forward_values(series(tgrid, np.ones_like), 1.0, tgrid.dt)
    assert y[-1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_relax_forward_zero_source(tgrid):
    y = relax_forward_values(series(tgrid, np.zeros_like), 3.7, tgrid.dt)
    assert np.all(y == 0.0)


def test_relax_forward_no_series():
    # LAPACK's wrapper corrupts the heap when handed no right-hand sides, so
    # the call runs repeatedly in a fresh interpreter that keeps allocating
    probe = ("import numpy as np\n"
             "from memoctrl.timeops import relax_forward_values\n"
             "for _ in range(50):\n"
             "    y = relax_forward_values(np.zeros((0, 9)), 3.7, 0.1)\n"
             "    np.linalg.inv(np.eye(60) + 1.0)\n"
             "print(y.shape)\n")
    out = run_fresh_python(probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "(0, 9)"


def test_relax_forward_resonant_exponential(tgrid):
    lam = 2.0
    y = relax_forward_values(series(tgrid, lambda t: np.exp(-lam * t)), lam,
                             tgrid.dt)
    mid = tgrid.nt // 2
    t_mid = tgrid.times[mid]
    # exact solution t e^{-lam t}; the integrator sees a piecewise-linear
    # source, so the defect is O(dt^2)
    assert y[mid] == pytest.approx(t_mid * math.exp(-lam * t_mid), abs=2e-5)
    oracle = rk4_relax_forward(lambda t: np.exp(-lam * t), lam, tgrid.T, tgrid.nt)
    assert np.max(np.abs(y - oracle)) < 2e-5


def test_relax_forward_exact_on_affine_source():
    grid = TimeGrid(T=2.0, nt=37)
    lam, a, b = 1.7, 0.4, -1.1
    y = relax_forward_values(series(grid, lambda t: a + b * t), lam, grid.dt)
    t = grid.times
    exact = (a + b * t) / lam - b / lam ** 2 \
        - (a / lam - b / lam ** 2) * np.exp(-lam * t)
    assert np.max(np.abs(y - exact)) < 1e-14


def test_relax_backward_constant_source(tgrid):
    y = relax_backward_values(series(tgrid, np.ones_like), 1.0, tgrid.dt)
    assert y[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert y[-1] == 0.0


def test_relax_backward_closed_form():
    grid = TimeGrid(T=1.5, nt=300)
    lam = 2.5
    y = relax_backward_values(series(grid, np.ones_like), lam, grid.dt)
    exact = (1.0 - np.exp(-lam * (grid.T - grid.times))) / lam
    assert np.max(np.abs(y - exact)) < 1e-13


def test_relax_backward_is_time_reversal(tgrid):
    rng = np.random.default_rng(7)
    psi = fourier_series(tgrid, rng)
    back = relax_backward_values(psi, 1.3, tgrid.dt)
    fwd = relax_forward_values(psi[::-1].copy(), 1.3, tgrid.dt)
    assert np.max(np.abs(back - fwd[::-1])) < 1e-12


def test_relax_rejects_bad_rate(tgrid):
    phi = series(tgrid, np.zeros_like)
    with pytest.raises(ValueError):
        relax_forward_values(phi, 0.0, tgrid.dt)
    with pytest.raises(ValueError):
        relax_backward_values(phi, -1.0, tgrid.dt)


def relax_reference(phi, rate, dt):
    """The exponential-integrator recurrence, stepped one time level at a time."""
    E, c0, c1 = _exp_weights(rate, dt)
    out = np.zeros_like(phi)
    for k in range(phi.shape[-1] - 1):
        out[..., k + 1] = E * out[..., k] + c0 * phi[..., k] + c1 * phi[..., k + 1]
    return out


@pytest.mark.parametrize("shape", [(2001,), (988, 9), (3, 4, 17), (5, 3)])
@pytest.mark.parametrize("z", [5e-4, 2e-3, 0.3, 50.0])
@pytest.mark.parametrize("reverse", [False, True])
def test_relax_forward_matches_stepwise_recurrence(shape, z, reverse):
    # z = rate*dt straddles the 1e-3 switch to series weights; (5, 3) is nt = 2
    dt = 0.01
    phi = np.random.default_rng(11).normal(size=shape)
    if reverse:
        phi = phi[..., ::-1]  # negative-stride view
    got = relax_forward_values(phi, z / dt, dt)
    ref = relax_reference(phi, z / dt, dt)
    assert got.shape == shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# --- the second-order boundary-value reductions --------------------------------

def test_bvp_gstar_h_zero_source(params, tgrid):
    A = bvp_gstar_h_values(series(tgrid, np.zeros_like), params.Bn, params.mu,
                           tgrid.dt)
    assert np.all(A == 0.0)


def test_bvp_gstar_h_discrete_contract(params):
    grid = TimeGrid(T=1.0, nt=512)
    dt = grid.dt
    a = bvp_gstar_h_values(series(grid, np.ones_like), params.Bn, params.mu,
                           dt)
    # terminal condition is eliminated exactly
    assert a[-1] == 0.0
    # the one-sided Robin residual at t=0 vanishes to round-off
    robin = -(-3 * a[0] + 4 * a[1] - a[2]) / (2 * dt) + params.mu * a[0]
    assert abs(robin) < 1e-10
    # interior rows of the tridiagonal system hold exactly
    interior = -(a[:-2] - 2 * a[1:-1] + a[2:]) / dt ** 2 \
        + params.Bn * params.mu * a[1:-1] - 1.0
    assert np.max(np.abs(interior)) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_bvp_gstar_h_matches_shooting(params, seed):
    rng = np.random.default_rng(100 + seed)
    fn = fourier_callable(rng, T=1.0)
    grid = TimeGrid(T=1.0, nt=2000)
    assert max(shooting_gaps(params, fn, grid).values()) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_bvp_h_gstar_matches_shooting(params, seed):
    rng = np.random.default_rng(200 + seed)
    fn = fourier_callable(rng, T=1.0)
    grid = TimeGrid(T=1.0, nt=2000)
    assert max(shooting_gaps(params, fn, grid).values()) < 1e-6


def shoot_reference(fn, kappa, hom0, T, nt, sub=4):
    """The shooting pair marched stage by stage with rk4_march."""
    def rhs(t, y):
        return np.array([y[1], kappa * y[0] - fn(t), y[3], kappa * y[2]])

    return rk4_march(rhs, [0.0, 0.0] + hom0, 0.0, T / (nt * sub), nt * sub)


def test_affine_shooting_matches_stepwise_rk4(params):
    fn = fourier_callable(np.random.default_rng(5), T=1.0)
    Bn, mu, nt, sub = params.Bn, params.mu, 2000, 4
    y = shoot_reference(fn, Bn * mu, [1.0, mu], 1.0, nt)
    ref = (y[:, 0] - y[-1, 0] / y[-1, 2] * y[:, 2])[::sub]
    got = shoot_gstar_h(fn, Bn, mu, 1.0, nt)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    y = shoot_reference(fn, Bn * mu, [0.0, 1.0], 1.0, nt)
    c = -(y[-1, 1] + mu * y[-1, 0]) / (y[-1, 3] + mu * y[-1, 2])
    ref = (y[:, 0] + c * y[:, 2])[::sub]
    got = shoot_h_gstar(fn, Bn, mu, 1.0, nt)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    ref = rk4_march(lambda t, y: np.array([fn(t) - Bn * y[0]]), [0.0], 0.0,
                    1.0 / (nt * sub), nt * sub)[::sub, 0]
    got = rk4_relax_forward(fn, Bn, 1.0, nt)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_bvp_sine_source_vs_shooting(params):
    grid = TimeGrid(T=1.0, nt=2000)
    for fn in (lambda t: np.sin(np.pi * t), lambda t: np.cos(np.pi * t / 2)):
        assert max(shooting_gaps(params, fn, grid).values()) < 1e-6


def test_bvp_h_gstar_is_mirror_of_gstar_h(params, tgrid):
    rng = np.random.default_rng(11)
    psi = fourier_series(tgrid, rng)
    C = bvp_h_gstar_values(psi, params.Bn, params.mu, tgrid.dt)
    mirrored = bvp_gstar_h_values(psi[::-1].copy(), params.Bn, params.mu,
                                  tgrid.dt)
    assert np.max(np.abs(C - mirrored[::-1])) < 1e-12


# --- H and H* recovered from the reductions ------------------------------------

def test_apply_h_zero(params, tgrid):
    out = apply_h_values(series(tgrid, np.zeros_like), params.Bn, params.mu,
                         tgrid.dt)
    assert np.all(out == 0.0)


def test_apply_h_initial_value_pinned(params):
    grid = TimeGrid(T=1.0, nt=128)
    out = apply_h_values(series(grid, np.ones_like), params.Bn, params.mu,
                         grid.dt)
    assert abs(out[0]) < 1e-10


def test_apply_hstar_terminal_value_pinned(params, tgrid):
    rng = np.random.default_rng(3)
    out = apply_hstar_values(fourier_series(tgrid, rng), params.Bn, params.mu,
                             tgrid.dt)
    assert abs(out[-1]) < 1e-10


@pytest.mark.parametrize("maker,oracle", [
    (apply_h_values, picard_h),
    (apply_hstar_values, picard_hstar),
])
def test_h_operators_match_picard_oracle(params, maker, oracle):
    grid = TimeGrid(T=1.0, nt=2000)
    t = grid.times
    src = np.sin(2 * np.pi * t) if maker is apply_h_values else t / grid.T
    ours = maker(src, params.Bn, params.mu, grid.dt)
    ref = oracle(src, params.Bn, params.mu, grid.dt)
    assert np.max(np.abs(ours - ref)) < 1e-6


# --- duality and the composition identities -------------------------------------

def draws(grid, rng):
    """Two seeded smooth sample arrays, phi then psi."""
    return fourier_series(grid, rng), fourier_series(grid, rng)


@pytest.mark.parametrize("name, seed", [pytest.param("M", 42, id="Bn"),
                                        pytest.param("G", 42, id="mu"),
                                        pytest.param("H", 43, id="H")])
def test_relax_duality(params, tgrid, name, seed):
    # the relaxations M (rate Bn) and G (rate mu), and H built from them
    pair = adjoint_pairs(params, tgrid.dt)[name]
    rng = np.random.default_rng(seed)
    for _ in range(20):
        assert duality_gap(pair, tgrid, *draws(tgrid, rng)) < 1e-4


def test_duality_gap_shrinks_second_order(params):
    gaps = []
    for nt in (256, 512):
        grid = TimeGrid(T=1.0, nt=nt)
        pair = adjoint_pairs(params, grid.dt)["H"]
        rng = np.random.default_rng(99)
        gaps.append(max(duality_gap(pair, grid, *draws(grid, rng))
                        for _ in range(5)))
    assert gaps[1] <= gaps[0] / 3.5


def test_composition_identities(params, tgrid):
    # G*(H(phi)) = G*H(phi), G(H*(phi)) = HG*(phi), and
    # H(phi) = G(phi) + (mu/N) G(H*(G(phi)))
    phi = fourier_series(tgrid, np.random.default_rng(5))
    norm = float(np.max(np.abs(phi)))
    for name, gap in composition_gaps(params, tgrid.dt, phi).items():
        assert gap < 1e-4 * norm, name


def test_composition_identities_decay_second_order(params):
    errs = []
    for nt in (256, 512):
        grid = TimeGrid(T=1.0, nt=nt)
        phi = fourier_series(grid, np.random.default_rng(6))
        errs.append(composition_gaps(params, grid.dt, phi)["GstarH"])
    assert errs[1] <= errs[0] / 3.5


# --- quadrature and derivative helpers ------------------------------------------

def test_inner_product_examples():
    grid = TimeGrid(T=2.0, nt=100)
    w = trapezoid_weights(grid.nt, grid.dt)
    one = series(grid, np.ones_like)
    assert np.dot(w, one * one) == pytest.approx(2.0, abs=1e-14)

    grid1 = TimeGrid(T=1.0, nt=100)
    w1 = trapezoid_weights(grid1.nt, grid1.dt)
    tt = series(grid1, lambda t: t)
    one1 = series(grid1, np.ones_like)
    assert np.dot(w1, tt * one1) == pytest.approx(0.5, abs=1e-14)

    s = series(grid1, lambda t: np.sin(np.pi * t))
    assert np.dot(w1, s * s) == pytest.approx(0.5, abs=1e-3)


def test_time_derivative_exact_on_quadratics():
    grid = TimeGrid(T=1.0, nt=50)
    f = series(grid, lambda t: 1.0 + 2.0 * t - 3.0 * t ** 2)
    d = time_derivative_values(f, grid.dt)
    assert np.max(np.abs(d - (2.0 - 6.0 * grid.times))) < 1e-12


def test_operator_convergence_against_oracles(params):
    """Halving dt cuts the max error against independent oracles by >= 3.5."""
    rng = np.random.default_rng(77)
    fn = fourier_callable(rng, T=1.0)
    errs = {"G*H": [], "HG*": [], "H": [], "H*": [], "relax": []}
    for nt in (250, 500):
        grid = TimeGrid(T=1.0, nt=nt)
        src = fn(grid.times)
        shoot = shooting_gaps(params, fn, grid)
        errs["G*H"].append(shoot["GstarH"])
        errs["HG*"].append(shoot["HGstar"])
        oracle_h = picard_h(src, params.Bn, params.mu, grid.dt)
        errs["H"].append(np.max(np.abs(
            apply_h_values(src, params.Bn, params.mu, grid.dt) - oracle_h)))
        oracle_hs = picard_hstar(src, params.Bn, params.mu, grid.dt)
        errs["H*"].append(np.max(np.abs(
            apply_hstar_values(src, params.Bn, params.mu, grid.dt) - oracle_hs)))
        errs["relax"].append(np.max(np.abs(
            relax_forward_values(src, params.Bn, grid.dt)
            - rk4_relax_forward(fn, params.Bn, grid.T, nt))))
    for name, (coarse, fine) in errs.items():
        assert fine <= coarse / 3.5, f"{name}: {coarse} -> {fine}"


def test_bvp_minimal_grid():
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    grid = TimeGrid(T=1.0, nt=2)
    A = bvp_gstar_h_values(series(grid, np.ones_like), params.Bn, params.mu,
                           grid.dt)
    assert A[-1] == 0.0
    assert np.all(np.isfinite(A))
    # interior equation at the middle node holds exactly
    res = -(A[0] - 2 * A[1] + A[2]) / grid.dt ** 2 \
        + params.Bn * params.mu * A[1] - 1.0
    assert abs(res) < 1e-12
