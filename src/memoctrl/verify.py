"""Executable verification suite: every module invariant as a named check.

Each check produces a (name, measured, allowed) row; the suite passes only
if every measured value is within its allowance.  All random inputs flow
from one seed.  Tampering with any derived constant (the absorption density
in particular) must trip at least one check; the capacity-oracle row is the
designated tripwire, since the oracle recomputes the constant from the
radial cell problem without ever using the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import oracles
from .cost import (check_fp_identity, check_GH_decomposition,
                   check_HGstar_decomposition, check_M_decomposition,
                   evaluate_J0, gradient_J0)
from .fields import (SpaceTimeField, SpatialGrid, integrate_spacetime,
                     laplacian_matrix, lift_timeop, omega_mask)
from .optimality import extract_control_ode, solve_optimality
from .params import capacity_limit
from .state import StateProblem, solve_linearized, solve_state
from .timeops import (TimeGrid, apply_h_values, apply_hstar_values,
                      bvp_gstar_h_values, bvp_h_gstar_values,
                      relax_backward_values, relax_forward_values,
                      trapezoid_weights)


@dataclass
class CheckResult:
    name: str
    measured: float
    allowed: float
    passed: bool

    @classmethod
    def of(cls, name, measured, allowed):
        return cls(name=name, measured=float(measured), allowed=float(allowed),
                   passed=bool(measured <= allowed))


def _fourier(rng, grid, modes=3):
    # three modes: the suite's "random smooth" class; higher modes inflate
    # the dt^2 constants beyond the documented allowances
    t = grid.times
    vals = np.full_like(t, rng.normal())
    for m in range(1, modes + 1):
        a, b = rng.normal(size=2)
        vals += a * np.sin(m * np.pi * t / grid.T) + b * np.cos(m * np.pi * t / grid.T)
    return vals


def _norm(w, x):
    return float(np.sqrt(np.dot(w, x * x)))


def run_suite(params, seed=42, tamper_an=1.0):
    """Run every invariant check; returns a list of CheckResult."""
    if tamper_an != 1.0:
        params = replace(params, An=params.An * tamper_an)
    rng = np.random.default_rng(seed)
    out = []
    T = params.T

    # --- constants -------------------------------------------------------
    out.append(CheckResult.of(
        "params/Bn-times-C0", abs(params.Bn * params.C0 - (params.n - 2)),
        1e-12 * (params.n - 2)))
    out.append(CheckResult.of(
        "params/mu-minus-Bn", abs(params.mu - params.Bn - 1.0 / params.N),
        1e-14 * params.mu))
    cap = capacity_limit(params.n, params.C0)
    out.append(CheckResult.of(
        "params/capacity-oracle-vs-An", abs(cap - params.An) / cap, 0.01))

    # --- time operators ----------------------------------------------------
    grid = TimeGrid(T=T, nt=256)
    dt = grid.dt
    w = trapezoid_weights(grid.nt, dt)

    def dual_gap(fwd, bwd):
        worst = 0.0
        for _ in range(10):
            phi, psi = _fourier(rng, grid), _fourier(rng, grid)
            g = abs(np.dot(w, fwd(phi) * psi) - np.dot(w, phi * bwd(psi)))
            worst = max(worst, g / (_norm(w, phi) * _norm(w, psi)))
        return worst

    out.append(CheckResult.of("timeops/duality-M", dual_gap(
        lambda x: relax_forward_values(x, params.Bn, dt),
        lambda x: relax_backward_values(x, params.Bn, dt)), 1e-4))
    out.append(CheckResult.of("timeops/duality-G", dual_gap(
        lambda x: relax_forward_values(x, params.mu, dt),
        lambda x: relax_backward_values(x, params.mu, dt)), 1e-4))
    out.append(CheckResult.of("timeops/duality-H", dual_gap(
        lambda x: apply_h_values(x, params.Bn, params.mu, dt),
        lambda x: apply_hstar_values(x, params.Bn, params.mu, dt)), 1e-4))

    phi = _fourier(rng, grid)
    nphi = float(np.max(np.abs(phi)))
    direct = bvp_gstar_h_values(phi, params.Bn, params.mu, dt)
    composed = relax_backward_values(
        apply_h_values(phi, params.Bn, params.mu, dt), params.mu, dt)
    out.append(CheckResult.of(
        "timeops/composition-GstarH", np.max(np.abs(direct - composed)),
        1e-4 * nphi))
    direct2 = bvp_h_gstar_values(phi, params.Bn, params.mu, dt)
    composed2 = relax_forward_values(
        apply_hstar_values(phi, params.Bn, params.mu, dt), params.mu, dt)
    out.append(CheckResult.of(
        "timeops/composition-HGstar", np.max(np.abs(direct2 - composed2)),
        1e-4 * nphi))
    g_of = relax_forward_values(phi, params.mu, dt)
    rebuilt = g_of + (params.mu / params.N) * relax_forward_values(
        apply_hstar_values(g_of, params.Bn, params.mu, dt), params.mu, dt)
    out.append(CheckResult.of(
        "timeops/composition-rebuild-H", np.max(np.abs(
            apply_h_values(phi, params.Bn, params.mu, dt) - rebuilt)),
        1e-4 * nphi))

    a, b = rng.normal(size=2)
    affine = a + b * grid.times
    lam = params.Bn
    exact = (a + b * grid.times) / lam - b / lam ** 2 \
        - (a / lam - b / lam ** 2) * np.exp(-lam * grid.times)
    out.append(CheckResult.of(
        "timeops/relax-affine-exact",
        np.max(np.abs(relax_forward_values(affine, lam, dt) - exact)), 1e-12))

    fine = TimeGrid(T=T, nt=2000)
    coeffs = [(rng.normal(), rng.normal()) for _ in range(3)]

    def src(t):
        val = 1.0
        for m, (ca, cb) in enumerate(coeffs, start=1):
            val = val + ca * np.sin(m * np.pi * t / T) + cb * np.cos(m * np.pi * t / T)
        return val

    sampled = src(fine.times)
    out.append(CheckResult.of(
        "timeops/bvp-GstarH-vs-shooting",
        np.max(np.abs(bvp_gstar_h_values(sampled, params.Bn, params.mu, fine.dt)
                      - oracles.shoot_gstar_h(src, params.Bn, params.mu, T, fine.nt))),
        1e-6))
    out.append(CheckResult.of(
        "timeops/bvp-HGstar-vs-shooting",
        np.max(np.abs(bvp_h_gstar_values(sampled, params.Bn, params.mu, fine.dt)
                      - oracles.shoot_h_gstar(src, params.Bn, params.mu, T, fine.nt))),
        1e-6))
    smooth = np.sin(2 * np.pi * fine.times / T)
    out.append(CheckResult.of(
        "timeops/H-vs-picard",
        np.max(np.abs(apply_h_values(smooth, params.Bn, params.mu, fine.dt)
                      - oracles.picard_h(smooth, params.Bn, params.mu, fine.dt))),
        1e-6))

    # --- spatial machinery -------------------------------------------------
    sgrid = SpatialGrid(params.domain_box, (17,) * params.sim_dim)
    L = laplacian_matrix(sgrid)
    x1 = rng.normal(size=L.shape[0])
    x2 = rng.normal(size=L.shape[0])
    out.append(CheckResult.of(
        "fields/laplacian-symmetry", abs(x1 @ (L @ x2) - x2 @ (L @ x1)),
        1e-12 * np.linalg.norm(x1) * np.linalg.norm(x2)))
    tg_small = TimeGrid(T=T, nt=16)
    fld = SpaceTimeField(sgrid, tg_small,
                         rng.normal(size=(sgrid.nnodes, tg_small.nt + 1)))
    wm = omega_mask(sgrid, params)
    out.append(CheckResult.of(
        "fields/mask-partition",
        abs(integrate_spacetime(fld, mask=wm) + integrate_spacetime(fld, mask=~wm)
            - integrate_spacetime(fld)),
        1e-12 * (1.0 + abs(integrate_spacetime(fld)))))
    spatial = rng.normal(size=sgrid.nnodes)
    temporal = _fourier(rng, tg_small)
    sep = SpaceTimeField(sgrid, tg_small, np.outer(spatial, temporal))
    lifted = lift_timeop(sep, "M", params)
    re_lift = np.outer(spatial, relax_forward_values(temporal, params.Bn,
                                                     tg_small.dt))
    out.append(CheckResult.of(
        "fields/lift-separability", np.max(np.abs(lifted.values - re_lift)),
        1e-12 * max(1.0, np.max(np.abs(re_lift)))))

    # --- state solver -------------------------------------------------------
    grid1 = SpatialGrid(params.domain_box, (17,) * params.sim_dim)
    tg1 = TimeGrid(T=T, nt=32)
    zero_prob = StateProblem(params=params,
                             f=SpaceTimeField.zeros(grid1, tg1))
    u_zero, rep_zero = solve_state(zero_prob)
    out.append(CheckResult.of(
        "state/zero-data", np.max(np.abs(u_zero.values)) + rep_zero.iterations - 1,
        0.0))

    xcol = grid1.coords[:, 0][:, None]
    trow = tg1.times[None, :]
    u_star = SpaceTimeField(grid1, tg1,
                            np.sin(np.pi * xcol) * trow
                            * np.ones((grid1.nnodes, tg1.nt + 1)))
    u_star.values[grid1.boundary_mask] = 0.0
    wmask = omega_mask(grid1, params)
    f_vals = (np.sin(np.pi * xcol) * np.ones_like(trow)
              + np.pi ** 2 * u_star.values + params.An * u_star.values)
    f_vals[wmask] -= params.An * params.Bn * lift_timeop(u_star, "H", params).values[wmask]
    f_vals[~wmask] -= params.An * params.Bn * lift_timeop(u_star, "M", params).values[~wmask]
    f_vals[grid1.boundary_mask] = 0.0
    u_mms, _ = solve_state(StateProblem(
        params=params, f=SpaceTimeField(grid1, tg1, f_vals), tol=1e-10))
    out.append(CheckResult.of(
        "state/manufactured-solution",
        np.max(np.abs(u_mms.values - u_star.values)), 6e-3))

    tiny_grid = SpatialGrid(params.domain_box, (9,) * params.sim_dim)
    tiny_tg = TimeGrid(T=T, nt=16)
    f_tiny = SpaceTimeField.from_function(
        tiny_grid, tiny_tg, lambda *args: 1.0 + 0.0 * args[0])
    u_tiny, _ = solve_state(StateProblem(params=params, f=f_tiny, tol=1e-12))
    dense = oracles.dense_state_solve(params, tiny_grid, tiny_tg, f_tiny.values,
                                      np.zeros_like(f_tiny.values))
    out.append(CheckResult.of(
        "state/dense-oracle",
        np.max(np.abs(u_tiny.values[tiny_grid.interior_idx] - dense)), 1e-6))

    # --- optimality system ---------------------------------------------------
    grid2 = SpatialGrid(params.domain_box, (33,) * params.sim_dim)
    tg2 = TimeGrid(T=T, nt=64)
    f2 = SpaceTimeField.from_function(grid2, tg2,
                                      lambda *args: 1.0 + 0.0 * args[0])
    result = solve_optimality(f2, params, outer_tol=1e-8)
    inner = grid2.interior_idx
    out.append(CheckResult.of(
        "optimality/outer-converged", 0.0 if result.converged else 1.0, 0.5))
    out.append(CheckResult.of(
        "optimality/terminal-coupling",
        np.max(np.abs(result.p0.values[inner, -1] - result.u0.values[inner, -1])),
        1e-10))
    v_ode = extract_control_ode(result.p0, params)
    out.append(CheckResult.of(
        "optimality/control-route-equivalence",
        np.max(np.abs(v_ode.values - result.v0.values)),
        1e-10 * max(1.0, np.max(np.abs(result.v0.values)))))

    lhs, rhs = check_fp_identity(f2, result, params)
    out.append(CheckResult.of(
        "cost/fp-identity", abs(lhs - rhs) / max(abs(rhs), 1e-300), 2e-3))

    bd = evaluate_J0(result.v0, result.u0, params)
    terms = bd.as_dict()
    total = terms.pop("total")
    out.append(CheckResult.of(
        "cost/total-equals-sum", abs(total - sum(terms.values())),
        1e-12 * max(1.0, abs(total))))
    out.append(CheckResult.of(
        "cost/terms-nonnegative", -min(terms.values()), 1e-14))

    # minimality of the assembled control against admissible perturbations
    worst = 0.0
    wm2 = omega_mask(grid2, params)
    for k in (1, 2):
        pvals = np.zeros_like(result.v0.values)
        pvals[wm2] = np.sin(k * np.pi * grid2.coords[wm2, 0])[:, None] \
            * (tg2.times / T)[None, :]
        pvals[:, 0] = 0.0
        for lam in (0.1, -0.1, 0.01, -0.01):
            v_try = SpaceTimeField(grid2, tg2,
                                   result.v0.values + lam * pvals)
            u_try, _ = solve_state(StateProblem(params=params, f=f2, v=v_try))
            worst = max(worst, total - evaluate_J0(v_try, u_try, params).total)
    out.append(CheckResult.of("optimality/minimality", worst, 1e-9))

    # --- decompositions and the gradient -------------------------------------
    grid3 = SpatialGrid(params.domain_box, (9,) * params.sim_dim)
    tg3 = TimeGrid(T=T, nt=128)
    x3 = grid3.coords[:, 0][:, None]
    t3 = tg3.times[None, :]
    fld3 = SpaceTimeField(grid3, tg3,
                          np.sin(np.pi * x3) * np.sin(np.pi * t3 / T)
                          + 0.5 * np.sin(2 * np.pi * x3) * np.cos(np.pi * t3 / T)
                          * np.ones((grid3.nnodes, tg3.nt + 1)))
    norm2 = float(np.max(np.abs(fld3.values))) ** 2
    for name, checker in (("M", check_M_decomposition),
                          ("GH", check_GH_decomposition),
                          ("HGstar", check_HGstar_decomposition)):
        l3, r3 = checker(fld3, params)
        out.append(CheckResult.of(
            f"cost/decomposition-{name}", abs(l3 - r3) / norm2,
            25.0 * tg3.dt ** 2))

    grid4 = SpatialGrid(params.domain_box, (17,) * params.sim_dim)
    tg4 = TimeGrid(T=T, nt=32)
    f4 = SpaceTimeField.from_function(grid4, tg4,
                                      lambda *args: 1.0 + 0.0 * args[0])
    wm4 = omega_mask(grid4, params)
    v0_vals = np.zeros((grid4.nnodes, tg4.nt + 1))
    v0_vals[wm4] = rng.normal() * np.outer(np.sin(np.pi * grid4.coords[wm4, 0]),
                                           tg4.times / T)
    v0_vals[:, 0] = 0.0
    v0f = SpaceTimeField(grid4, tg4, v0_vals)
    dv_vals = np.zeros_like(v0_vals)
    dv_vals[wm4] = np.outer(np.cos(grid4.coords[wm4, 0]),
                            (tg4.times / T) ** 2)
    dv_vals[:, 0] = 0.0
    dvf = SpaceTimeField(grid4, tg4, dv_vals)
    u0f, _ = solve_state(StateProblem(params=params, f=f4, v=v0f, tol=1e-12))
    grad = gradient_J0(v0f, u0f, params, dvf, tol=1e-12)
    lam = 1e-3

    def J_at(vv):
        uu, _ = solve_state(StateProblem(params=params, f=f4, v=vv, tol=1e-12))
        return evaluate_J0(vv, uu, params).total

    vp = SpaceTimeField(grid4, tg4, v0_vals + lam * dv_vals)
    vm = SpaceTimeField(grid4, tg4, v0_vals - lam * dv_vals)
    fd = (J_at(vp) - J_at(vm)) / (2 * lam)
    out.append(CheckResult.of(
        "cost/gradient-vs-finite-difference",
        abs(grad - fd) / max(abs(fd), 1e-300), 1e-5))

    # linearized-state affinity
    theta = solve_linearized(dvf, params, tol=1e-11)
    u_plus, _ = solve_state(StateProblem(params=params, f=f4, v=SpaceTimeField(
        grid4, tg4, v0_vals + dv_vals), tol=1e-11))
    out.append(CheckResult.of(
        "state/affinity",
        np.max(np.abs(u_plus.values - u0f.values - theta.values)), 1e-8))

    return out


def suite_passed(results):
    return all(r.passed for r in results)


def format_table(results):
    lines = []
    name_w = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{name_w}}  "
                     f"measured={r.measured:.3e}  allowed={r.allowed:.3e}")
    return "\n".join(lines)
