"""The coupled forward-backward optimality system and two routes to v0.

The adjoint equation runs backward in time with the adjoint memory maps;
reversing the time axis swaps every operator for its adjoint partner, so the
backward solve reuses the forward Picard/Crank-Nicolson core verbatim on the
reversed trajectory with the state's terminal slice as initial data.

The coupled system is solved by block Gauss-Seidel sweeps -- state solve,
adjoint solve, new control lifted off the adjoint -- each an affine map on
the control that state._anderson accelerates.  From the second sweep on,
each Picard solve starts from the memory of the previous sweep's state or
adjoint.  The optimal control then comes out two ways -- as -1/N times the
lifted H(G*(p0)) map, and per node from the terminal-value second-order
problem -- which must agree to solver round-off.

direct_minimize is the independent cross-check: descent on the evaluated
cost functional itself with the adjoint-state gradient.  The raw L2 gradient
is dominated by the (dt v)^2 stiffness, making plain steepest descent
useless at any practical grid, so steps are preconditioned with the exact
control-space Hessian block (an H1-in-time Riesz map).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_banded

from .cost import evaluate_J0
from .fields import SpaceTimeField, lift_timeop, neg_laplacian
from .state import (StateProblem, _anderson, _cn_residual, _embed,
                    _memory_values, _solve_parabolic_memory, _state_source,
                    discretization, solve_state)
from .timeops import trapezoid_weights


@dataclass
class OptimalityResult:
    u0: SpaceTimeField
    p0: SpaceTimeField
    v0: SpaceTimeField
    reports: dict
    outer_iterations: int
    outer_residual: float
    converged: bool
    picard_per_sweep: dict


def adjoint_source(u0, params):
    """Right side of the adjoint equation for a given state trajectory:

    -Lap u0 + An*(u0 - Bn*mu*G*(H(u0)))*chi_omega
            + An*(u0 - Bn^2*M*(M(u0)))*chi_complement
    """
    ctx = discretization(params, u0.grid, u0.tgrid)
    interior, w = ctx.interior, ctx.omega
    GH = lift_timeop(u0, "G*H", params)
    MM = lift_timeop(lift_timeop(u0, "M", params), "M*", params)
    vals = np.zeros_like(u0.values)
    u_int = u0.values[interior]
    vals[interior] = neg_laplacian(u0.grid, u_int) + params.An * u_int
    vals[w] -= params.An * params.Bn * params.mu * GH.values[w]
    c = interior[ctx.c_int]
    vals[c] -= params.An * params.Bn ** 2 * MM.values[c]
    return SpaceTimeField(u0.grid, u0.tgrid, vals)


def solve_adjoint(u0, params, source=None, *, tol=1e-8, max_picard=200,
                  guess=None):
    """Backward solve with terminal condition p(T) = u0(T).

    source overrides the default adjoint right side (useful for manufactured
    problems); it must vanish where the Dirichlet condition holds.  guess, an
    adjoint field on the same grids, seeds the Picard loop with its memory.
    """
    ctx = discretization(params, u0.grid, u0.tgrid)
    if source is None:
        source = adjoint_source(u0, params)
    F_rev = source.values[ctx.interior][:, ::-1].copy()
    ic = u0.values[ctx.interior, -1].copy()
    q_guess = None if guess is None else guess.values[ctx.interior][:, ::-1]
    q_int, report = _solve_parabolic_memory(
        ctx, F_rev, ic, tol=tol, max_picard=max_picard, guess=q_guess)
    return _embed(ctx, q_int[:, ::-1]), report


def _adjoint_residual(ctx, p_int, F_adj_int):
    """Half-step residual of the backward equation, measured in reversed time."""
    q = p_int[:, ::-1]
    return _cn_residual(ctx, q, _memory_values(ctx, q), F_adj_int[:, ::-1])


def control_from_adjoint(p0, params):
    """v0 = -(1/N) H(G*(p0)) restricted to the controlled region."""
    w = discretization(params, p0.grid, p0.tgrid).omega
    lifted = lift_timeop(p0, "HG*", params)
    vals = np.zeros_like(p0.values)
    vals[w] = -lifted.values[w] / params.N
    return SpaceTimeField(p0.grid, p0.tgrid, vals)


def solve_optimality(f, params, *, outer_tol=1e-7, outer_max=100,
                     max_picard=200):
    """Anderson-accelerated Gauss-Seidel sweeps on the coupled system.

    The iterate is the control's controlled-region values; a sweep maps it
    to the control lifted off the adjoint of its state, and its residual is
    that of both equations at the sweep's u and p.  The inner solves run a
    decade tighter than the outer tolerance, and from the second sweep on
    start from the previous sweep's u and p.
    """
    inner_tol = min(1e-8, outer_tol / 10.0)
    grid, tgrid = f.grid, f.tgrid
    ctx = discretization(params, grid, tgrid)
    interior, w = ctx.interior, ctx.omega
    picard = {"state": [], "adjoint": []}
    u = p = None

    def sweep(v_w):
        nonlocal u, p
        v = SpaceTimeField.zeros(grid, tgrid)
        v.values[w] = v_w
        u, rep_u = solve_state(StateProblem(
            params=params, f=f, v=v, tol=inner_tol, max_picard=max_picard),
            guess=u)
        src = adjoint_source(u, params)
        p, rep_p = solve_adjoint(u, params, source=src, tol=inner_tol,
                                 max_picard=max_picard, guess=p)
        picard["state"].append(rep_u.iterations)
        picard["adjoint"].append(rep_p.iterations)
        # residuals of both equations; the state source is p's new control
        v_new = control_from_adjoint(p, params)
        u_int = u.values[interior]
        r_u = _cn_residual(ctx, u_int, _memory_values(ctx, u_int),
                           _state_source(ctx, f, v_new))
        r_p = _adjoint_residual(ctx, p.values[interior],
                                src.values[interior])
        return v_new.values[w], r_u + r_p, (u, p, v_new, rep_u, rep_p)

    (u, p, v, rep_u, rep_p), iterations, history, converged = _anderson(
        sweep, np.zeros_like(f.values[w]), tol=outer_tol, max_iter=outer_max)
    return OptimalityResult(
        u0=u, p0=p, v0=v, reports={"state": rep_u, "adjoint": rep_p},
        outer_iterations=iterations, outer_residual=history[-1],
        converged=converged, picard_per_sweep=picard)


def extract_control_ode(p0, params):
    """Per-node terminal-value problem for the optimal control:

        -v'' + Bn*mu*v = -(1/N) p0,   v(0) = 0,  v'(T) + mu*v(T) = 0,

    assembled directly (the Robin row at T eliminated through the last
    interior row); zero outside the controlled region.
    """
    grid, tgrid = p0.grid, p0.tgrid
    nt, dt = tgrid.nt, tgrid.dt
    kappa = params.Bn * params.mu
    mu = params.mu
    w = discretization(params, grid, tgrid).omega
    s = -p0.values[w] / params.N

    inv2 = 1.0 / dt ** 2
    n = nt  # unknowns v_1 .. v_nt
    ab = np.zeros((3, n))
    ab[1, :-1] = 2.0 * inv2 + kappa
    ab[0, 1:] = -inv2
    ab[2, :-2] = -inv2
    ab[1, -1] = 1.0 / dt + mu
    ab[2, -2] = -1.0 / dt + dt * kappa / 2.0
    rhs = np.empty((n, s.shape[0]))
    rhs[:-1, :] = s[:, 1:nt].T
    rhs[-1, :] = dt * s[:, nt - 1] / 2.0
    sol = solve_banded((1, 1), ab, rhs)
    vals = np.zeros_like(p0.values)
    vals[w, 1:] = sol.T
    return SpaceTimeField(grid, tgrid, vals)


def _control_hessian_time(params, tgrid):
    """Exact time-block of the control Hessian (shared across nodes).

    R(v) per node = N*An*Bn * v^T K v with K assembled from the staggered
    derivative quadrature, the trapezoid mass, and the terminal weight:
    K = D^T (dt I) D + Bn*mu*W + mu*e_T e_T^T, D the forward-difference map
    onto interval midpoints.
    """
    nt, dt = tgrid.nt, tgrid.dt
    D = (np.eye(nt + 1, nt + 1, 1)[:-1] - np.eye(nt + 1)[:-1]) / dt
    W = np.diag(trapezoid_weights(nt, dt))
    K = D.T @ (dt * np.eye(nt)) @ D + params.Bn * params.mu * W
    K[nt, nt] += params.mu
    return K


def direct_minimize(f, params, v_init=None, *, grad_tol=1e-9, max_iter=100,
                    inner_tol=1e-9, max_picard=300):
    """Descend the evaluated cost functional; cross-check for the coupled solve.

    Gradient: 2*An*Bn*(adjoint state on the controlled region) plus the exact
    derivative of the explicit control terms.  Steps are preconditioned with
    the control-Hessian time block; Armijo backtracking keeps the cost
    history non-increasing.  Returns (v_star, j_history, info).
    """
    grid, tgrid = f.grid, f.tgrid
    nt = tgrid.nt
    ctx = discretization(params, grid, tgrid)
    w = ctx.omega
    widx = np.flatnonzero(w)
    ws = ctx.ws_int[ctx.w_int]
    wt = trapezoid_weights(nt, tgrid.dt)
    K = _control_hessian_time(params, tgrid)
    K_red = K[1:, 1:]
    chol = cho_factor(K_red)
    NAnBn = params.N * params.An * params.Bn

    if v_init is None:
        v = SpaceTimeField.zeros(grid, tgrid)
    else:
        v = v_init.copy()
    if np.any(v.values[~w] != 0.0) or np.any(v.values[:, 0] != 0.0):
        raise ValueError("initial control must be admissible")

    def state_of(vf):
        u, rep = solve_state(StateProblem(params=params, f=f, v=vf,
                                          tol=inner_tol,
                                          max_picard=max_picard))
        return u, rep

    u, _ = state_of(v)
    J = evaluate_J0(v, u, params).total
    history = [J]
    info = {"converged": False, "reason": "max_iter", "iterations": 0}
    for it in range(1, max_iter + 1):
        p, _ = solve_adjoint(u, params, tol=inner_tol, max_picard=max_picard)
        vloc = v.values[widx]
        g = 2.0 * params.An * params.Bn * (ws[:, None] * wt[None, :]) \
            * p.values[widx]
        g += 2.0 * NAnBn * ws[:, None] * (vloc @ K.T)
        g[:, 0] = 0.0

        d = np.zeros_like(g)
        d[:, 1:] = -cho_solve(chol, g[:, 1:].T).T / (2.0 * NAnBn * ws[:, None])

        slope = float(np.sum(g * d))
        if slope >= 0.0 or -slope <= grad_tol ** 2:
            info.update(converged=True, reason="stationary", iterations=it - 1)
            break

        alpha = 1.0
        accepted = False
        while alpha > 1e-12:
            v_try = v.copy()
            v_try.values[widx] = vloc + alpha * d
            u_try, _ = state_of(v_try)
            J_try = evaluate_J0(v_try, u_try, params).total
            if J_try <= J + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            info.update(converged=False, reason="line_search_failure",
                        iterations=it)
            break
        v, u = v_try, u_try
        flat = J - J_try <= 1e-15 * max(1.0, abs(J))
        J = J_try
        history.append(J)
        info["iterations"] = it
        if flat:
            info.update(converged=True, reason="flat_cost")
            break
    return v, history, info
