"""Executable verification suite: every module invariant as a named check.

Each check produces a (name, measured, allowed) row; the suite passes only
if every measured value is within its allowance.  All random inputs flow
from one seed.  Tampering with any derived constant (the absorption density
in particular) must trip at least one check; the capacity-oracle row is the
designated tripwire, since the oracle recomputes the constant from the
radial cell problem without ever using the closed form.

The public functions below measure the invariants the tests check too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import oracles
from .cost import (check_fp_identity, check_GH_decomposition,
                   check_HGstar_decomposition, check_M_decomposition,
                   evaluate_J0, gradient_J0)
from .fields import (SpaceTimeField, SpatialGrid, integrate_spacetime,
                     lift_timeop, neg_laplacian, omega_mask)
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


def _fourier(rng, grid):
    # three modes: the suite's "random smooth" class; higher modes inflate
    # the dt^2 constants beyond the documented allowances
    t = grid.times
    vals = np.full_like(t, rng.normal())
    for m in range(1, 4):
        a, b = rng.normal(size=2)
        vals += a * np.sin(m * np.pi * t / grid.T) + b * np.cos(m * np.pi * t / grid.T)
    return vals


def adjoint_pairs(params, dt):
    """M, G and H, each with its adjoint, as kernels on samples of step dt."""
    Bn, mu = params.Bn, params.mu
    return {
        "M": (lambda x: relax_forward_values(x, Bn, dt),
              lambda x: relax_backward_values(x, Bn, dt)),
        "G": (lambda x: relax_forward_values(x, mu, dt),
              lambda x: relax_backward_values(x, mu, dt)),
        "H": (lambda x: apply_h_values(x, Bn, mu, dt),
              lambda x: apply_hstar_values(x, Bn, mu, dt)),
    }


def duality_gap(pair, tgrid, phi, psi):
    """|<F phi, psi> - <phi, F* psi>| / (|phi| |psi|) for pair (F, F*)."""
    fwd, bwd = pair
    w = trapezoid_weights(tgrid.nt, tgrid.dt)
    gap = abs(np.dot(w, fwd(phi) * psi) - np.dot(w, phi * bwd(psi)))
    return gap / (np.sqrt(np.dot(w, phi * phi)) * np.sqrt(np.dot(w, psi * psi)))


def composition_gaps(params, dt, phi):
    """Max gaps of G*H = G*(H), HG* = G(H*), H = G + (mu/N) G(H*(G)) on phi."""
    _, (G, Gs), (H, Hs) = adjoint_pairs(params, dt).values()
    h, g = H(phi), G(phi)
    diffs = {"GstarH": bvp_gstar_h_values(phi, params.Bn, params.mu, dt) - Gs(h),
             "HGstar": bvp_h_gstar_values(phi, params.Bn, params.mu, dt)
             - G(Hs(phi)),
             "rebuild-H": h - (g + (params.mu / params.N) * G(Hs(g)))}
    return {name: np.max(np.abs(d)) for name, d in diffs.items()}


def shooting_gaps(params, fn, tgrid):
    """Max gaps of the G*H and HG* BVP solves to RK4 shooting of fn."""
    Bn, mu, src = params.Bn, params.mu, fn(tgrid.times)
    solves = {"GstarH": (bvp_gstar_h_values, oracles.shoot_gstar_h),
              "HGstar": (bvp_h_gstar_values, oracles.shoot_h_gstar)}
    return {name: np.max(np.abs(bvp(src, Bn, mu, tgrid.dt)
                                - shoot(fn, Bn, mu, tgrid.T, tgrid.nt)))
            for name, (bvp, shoot) in solves.items()}


def manufactured_state(params, grid, tgrid):
    """(f, u*) for u* = sin(pi x) t on a 1-D grid; f's memory terms use the
    production lifts, so a solve meets u* up to O(h^2 + dt^2)."""
    x = grid.coords[:, 0][:, None]
    t = tgrid.times[None, :]
    u_star = SpaceTimeField(grid, tgrid, np.sin(np.pi * x) * t)
    u_star.values[grid.boundary_mask] = 0.0
    w = omega_mask(grid, params)
    f_vals = (np.sin(np.pi * x) * np.ones_like(t)
              + np.pi ** 2 * u_star.values + params.An * u_star.values)
    f_vals[w] -= params.An * params.Bn * lift_timeop(u_star, "H", params).values[w]
    f_vals[~w] -= params.An * params.Bn * lift_timeop(u_star, "M", params).values[~w]
    f_vals[grid.boundary_mask] = 0.0
    return SpaceTimeField(grid, tgrid, f_vals), u_star


def _solve_converged(params, f, v):
    """State solve to 1e-12; RuntimeError if it stops at its Picard cap."""
    u, report = solve_state(StateProblem(params=params, f=f, v=v, tol=1e-12))
    if not report.converged:
        raise RuntimeError("state solve did not converge to tol 1e-12")
    return u


def dense_state_gap(params, f, v):
    """Max gap of a state solve to 1e-12 to the dense oracle (v None: v = 0)."""
    u = _solve_converged(params, f, v)
    v_vals = np.zeros_like(f.values) if v is None else v.values
    dense = oracles.dense_state_solve(params, f.grid, f.tgrid, f.values, v_vals)
    return np.max(np.abs(u.values[f.grid.interior_idx] - dense))


def fp_identity_gap(params, f, result):
    """|J0(v0) - int f p0| / |int f p0| at an optimality result."""
    lhs, rhs = check_fp_identity(f, result, params)
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def decomposition_gap(params, checker, u):
    """|lhs - rhs| / max|u|^2 of a cost.check_*_decomposition on u."""
    lhs, rhs = checker(u, params)
    return abs(lhs - rhs) / float(np.max(np.abs(u.values))) ** 2


def gradient_fd_gap(params, f, v, dv):
    """|J0'(v).dv - D| / |D|, D central with step 1e-3, solves to 1e-12."""
    def J(vals):
        vv = SpaceTimeField(f.grid, f.tgrid, vals)
        return evaluate_J0(vv, _solve_converged(params, f, vv), params).total

    u0 = _solve_converged(params, f, v)
    grad = gradient_J0(v, u0, params, dv, tol=1e-12)
    fd = (J(v.values + 1e-3 * dv.values) - J(v.values - 1e-3 * dv.values)) / 2e-3
    return abs(grad - fd) / max(abs(fd), 1e-300)


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
    for name, pair in adjoint_pairs(params, dt).items():
        worst = max(duality_gap(pair, grid, _fourier(rng, grid),
                                _fourier(rng, grid)) for _ in range(10))
        out.append(CheckResult.of(f"timeops/duality-{name}", worst, 1e-4))

    phi = _fourier(rng, grid)
    nphi = float(np.max(np.abs(phi)))
    for name, gap in composition_gaps(params, dt, phi).items():
        out.append(CheckResult.of(f"timeops/composition-{name}", gap,
                                  1e-4 * nphi))

    a, b = rng.normal(size=2)
    affine, lam = a + b * grid.times, params.Bn
    exact = affine / lam - b / lam ** 2 \
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

    for name, gap in shooting_gaps(params, src, fine).items():
        out.append(CheckResult.of(f"timeops/bvp-{name}-vs-shooting", gap,
                                  1e-6))
    smooth = np.sin(2 * np.pi * fine.times / T)
    out.append(CheckResult.of(
        "timeops/H-vs-picard",
        np.max(np.abs(apply_h_values(smooth, params.Bn, params.mu, fine.dt)
                      - oracles.picard_h(smooth, params.Bn, params.mu, fine.dt))),
        1e-6))

    # --- spatial machinery -------------------------------------------------
    sgrid = grid1 = SpatialGrid(params.domain_box, (17,) * params.sim_dim)
    x1, x2 = rng.normal(size=(2, len(sgrid.interior_idx)))
    out.append(CheckResult.of(
        "fields/laplacian-symmetry",
        abs(x1 @ neg_laplacian(sgrid, x2) - x2 @ neg_laplacian(sgrid, x1)),
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
    tg1 = TimeGrid(T=T, nt=32)
    u_zero, rep_zero = solve_state(StateProblem(
        params=params, f=SpaceTimeField.zeros(grid1, tg1)))
    out.append(CheckResult.of(
        "state/zero-data", np.max(np.abs(u_zero.values)) + rep_zero.iterations - 1,
        0.0))

    f_mms, u_star = manufactured_state(params, grid1, tg1)
    u_mms, _ = solve_state(StateProblem(params=params, f=f_mms, tol=1e-10))
    out.append(CheckResult.of(
        "state/manufactured-solution",
        np.max(np.abs(u_mms.values - u_star.values)), 6e-3))

    tiny = SpatialGrid(params.domain_box, (9,) * params.sim_dim)
    f_tiny = SpaceTimeField(tiny, tg_small, np.ones((tiny.nnodes, tg_small.nt + 1)))
    out.append(CheckResult.of(
        "state/dense-oracle", dense_state_gap(params, f_tiny, None), 1e-6))

    # --- optimality system ---------------------------------------------------
    grid2 = SpatialGrid(params.domain_box, (33,) * params.sim_dim)
    tg2 = TimeGrid(T=T, nt=64)
    f2 = SpaceTimeField(grid2, tg2, np.ones((grid2.nnodes, tg2.nt + 1)))
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

    out.append(CheckResult.of(
        "cost/fp-identity", fp_identity_gap(params, f2, result), 2e-3))

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
    for name, checker in (("M", check_M_decomposition),
                          ("GH", check_GH_decomposition),
                          ("HGstar", check_HGstar_decomposition)):
        out.append(CheckResult.of(
            f"cost/decomposition-{name}",
            decomposition_gap(params, checker, fld3), 25.0 * tg3.dt ** 2))

    f4 = SpaceTimeField(grid1, tg1, np.ones((grid1.nnodes, tg1.nt + 1)))
    wm1 = omega_mask(grid1, params)
    v0_vals = np.zeros((grid1.nnodes, tg1.nt + 1))
    v0_vals[wm1] = rng.normal() * np.outer(np.sin(np.pi * grid1.coords[wm1, 0]),
                                           tg1.times / T)
    v0_vals[:, 0] = 0.0
    v0f = SpaceTimeField(grid1, tg1, v0_vals)
    dv_vals = np.zeros_like(v0_vals)
    dv_vals[wm1] = np.outer(np.cos(grid1.coords[wm1, 0]),
                            (tg1.times / T) ** 2)
    dv_vals[:, 0] = 0.0
    dvf = SpaceTimeField(grid1, tg1, dv_vals)
    out.append(CheckResult.of(
        "cost/gradient-vs-finite-difference",
        gradient_fd_gap(params, f4, v0f, dvf), 1e-5))

    # linearized-state affinity
    u0f, _ = solve_state(StateProblem(params=params, f=f4, v=v0f, tol=1e-12))
    theta = solve_linearized(dvf, params, tol=1e-11)
    u_plus, _ = solve_state(StateProblem(params=params, f=f4, v=SpaceTimeField(
        grid1, tg1, v0_vals + dv_vals), tol=1e-11))
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
