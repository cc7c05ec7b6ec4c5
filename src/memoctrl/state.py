"""Solver for the limit state problem and its linearization.

The equation

    du/dt - Lap u + An*(u - Bn*H(u))*chi_omega
                  + An*(u - Bn*M(u))*chi_complement = f + An*Bn*v*chi_omega

is anticausal (H looks at the future), so no pure time-marching scheme
exists.  We iterate on the memory field m = An*Bn*(H(u)*chi_omega +
M(u)*chi_complement), from a caller's guess of the solution or zero: march
the local parabolic problem with Crank-Nicolson under the frozen m, recompute
m, and stop when the half-step space-time residual -- the Crank-Nicolson
equations with memory recomputed from the iterate -- drops below tolerance.
The exact march makes that residual the half-step mean of the memory update.
The map m -> m_new is affine, and _anderson (shared with the coupled sweep)
accelerates it: on an affine map Anderson acceleration matches GMRES step
for step (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011).

The march is exact: the Dirichlet Laplacian on the tensor grid is
diagonalised by the orthonormal DST-I (Buzbee, Golub & Nielson, SIAM J.
Numer. Anal. 7(4), 1970), so each sine mode obeys a scalar two-term
Crank-Nicolson recurrence.  Everything that depends only on the model
parameters and the two grids -- interior index, masks, quadrature weights
and per-mode coefficients -- lives in one cached Discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import dstn

from .fields import (SpaceTimeField, SpatialGrid, check_compatible,
                     neg_laplacian, omega_mask, space_weights)
from .timeops import (TimeGrid, apply_h_values, relax_forward_values)


@dataclass(frozen=True, eq=False)
class Discretization:
    """Setup shared by every solve on one (params, grid, tgrid); read-only.

    Interior rows are in C-order of the full grid (grid.interior_idx), which
    flattens the interior tensor of shape `shape`.  omega is the controlled-
    region mask on all nodes; w_int, c_int and ws_int restrict the mask, its
    complement and the space weights to interior rows.  decay and gain are
    the per-sine-mode Crank-Nicolson coefficients, of shape `shape`.
    """

    params: object
    grid: SpatialGrid
    tgrid: TimeGrid
    interior: np.ndarray
    shape: tuple
    omega: np.ndarray
    w_int: np.ndarray
    c_int: np.ndarray
    ws_int: np.ndarray
    decay: np.ndarray
    gain: np.ndarray

    @property
    def dt(self):
        return self.tgrid.dt


def _readonly(a):
    a.setflags(write=False)
    return a


@lru_cache(maxsize=16)
def discretization(params, grid, tgrid):
    """The Discretization of (params, grid, tgrid), built once per key."""
    interior = grid.interior_idx
    shape = tuple(m - 2 for m in grid.shape)
    omega = omega_mask(grid, params)
    w_int = omega[interior]
    # eigenvalues of the 1-D Dirichlet second difference, Kronecker-summed
    lam = np.zeros(shape)
    for ax, (m, h) in enumerate(zip(grid.shape, grid.h)):
        k = np.arange(1, m - 1)
        lam1 = (2.0 - 2.0 * np.cos(np.pi * k / (m - 1))) / h ** 2
        lam = lam + lam1.reshape([-1 if a == ax else 1
                                  for a in range(len(shape))])
    s = 0.5 * (params.An + lam)
    inv_dt = 1.0 / tgrid.dt
    return Discretization(
        params=params, grid=grid, tgrid=tgrid,
        interior=_readonly(interior.copy()), shape=shape,
        omega=_readonly(omega), w_int=_readonly(w_int),
        c_int=_readonly(~w_int),
        ws_int=_readonly(space_weights(grid)[interior]),
        decay=_readonly((inv_dt - s) / (inv_dt + s)),
        gain=_readonly(1.0 / (inv_dt + s)))


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)


@dataclass
class StateProblem:
    """Data and tolerances for one state solve.

    v lives on the controlled-region nodes (zero elsewhere) and must vanish
    at t = 0; pass v=None for the uncontrolled equation.
    """

    params: object
    f: SpaceTimeField
    v: SpaceTimeField = None
    tol: float = 1e-8
    max_picard: int = 200

    def __post_init__(self):
        if self.v is None:
            self.v = SpaceTimeField.zeros(self.f.grid, self.f.tgrid)
        check_compatible(self.f, self.v)
        if np.any(self.v.values[~self.ctx.omega, :] != 0.0):
            raise ValueError("control must vanish outside the controlled region")
        if np.any(self.v.values[:, 0] != 0.0):
            raise ValueError("control must vanish at t = 0 (admissibility)")

    @property
    def ctx(self):
        return discretization(self.params, self.f.grid, self.f.tgrid)


def _state_source(ctx, f, v):
    """Memory-free source on interior rows: f + An*Bn*v*chi_omega."""
    F_int = f.values[ctx.interior]
    F_int[ctx.w_int] += (ctx.params.An * ctx.params.Bn
                         * v.values[ctx.interior][ctx.w_int])
    return F_int


def _memory_values(ctx, u_int):
    """An*Bn*(H(u)*chi_omega + M(u)*chi_complement) on interior rows."""
    params, w_int, c_int = ctx.params, ctx.w_int, ctx.c_int
    out = np.zeros_like(u_int)
    if np.any(w_int):
        out[w_int] = apply_h_values(u_int[w_int], params.Bn, params.mu, ctx.dt)
    if np.any(c_int):
        out[c_int] = relax_forward_values(u_int[c_int], params.Bn, ctx.dt)
    return params.An * params.Bn * out


def _march_cn(ctx, rhs, ic):
    """Crank-Nicolson for du/dt + (An - Lap) u = rhs, u(0) = ic, per sine mode.

    The orthonormal DST-I is its own inverse.  Column 0 is ic itself, not
    its round trip through the transform, so terminal data handed over from
    another solve stays bit-exact.
    """
    ncols = rhs.shape[1]
    axes = tuple(range(1, len(ctx.shape) + 1))
    # time-major: hat[0] is ic, hat[k] the half-step source of step k
    hat = np.empty((ncols,) + ctx.shape)
    hat[0] = ic.reshape(ctx.shape)
    hat[1:] = (0.5 * (rhs[:, :-1] + rhs[:, 1:])).T.reshape(hat[1:].shape)
    hat = dstn(hat, type=1, axes=axes, norm="ortho", overwrite_x=True)
    # u_k = decay*u_{k-1} + gain*s_k, in place on the (ncols, modes) rows
    rows = hat.reshape(ncols, -1)
    rows[1:] *= ctx.gain.ravel()
    decay, tmp = ctx.decay.ravel(), np.empty(rows.shape[1])
    for k in range(1, ncols):
        rows[k] += np.multiply(decay, rows[k - 1], out=tmp)
    hat = dstn(hat, type=1, axes=axes, norm="ortho", overwrite_x=True)
    u = hat.reshape(ncols, -1).T.copy()
    u[:, 0] = ic
    return u


def _cn_residual(ctx, u_int, m_int, F_int):
    """Space-time L2 norm of the half-step Crank-Nicolson residual."""
    g = (ctx.params.An * u_int + neg_laplacian(ctx.grid, u_int)
         - (F_int + m_int))
    r = (u_int[:, 1:] - u_int[:, :-1]) / ctx.dt + 0.5 * g[:, 1:] \
        + 0.5 * g[:, :-1]
    return _space_time_norm(ctx, r)


def _space_time_norm(ctx, r):
    """sqrt(dt * sum over rows and half steps of ws * r^2)."""
    return float(np.sqrt(ctx.dt * np.sum(ctx.ws_int[:, None] * r ** 2)))


_ANDERSON_DEPTH = 5


def _anderson(step, x0, *, tol, max_iter):
    """Anderson-accelerated fixed-point iteration x = g(x).

    step(x) returns (g(x), residual at x, output at x).  The next x is g(x)
    less the least-squares fit of g(x) - x by its last _ANDERSON_DEPTH
    differences, applied to the matching differences of g.  Returns (output,
    iterations, residual history, converged) at the first x whose residual
    is <= tol, or at the last x when max_iter steps do not get there.
    """
    x = x0.ravel()
    dF, dG = np.empty((2, _ANDERSON_DEPTH, x.size))
    history = []
    for it in range(max_iter):
        g, res, out = step(x.reshape(x0.shape))
        history.append(res)
        if res <= tol:
            return out, it + 1, history, True
        g = g.ravel()
        f = g - x
        if it:
            j = (it - 1) % _ANDERSON_DEPTH
            dF[j], dG[j] = f - f_prev, g - g_prev
        f_prev, g_prev = f, g
        k = min(it, _ANDERSON_DEPTH)
        x = g - np.linalg.lstsq(dF[:k].T, f, rcond=None)[0] @ dG[:k]
    return out, max_iter, history, False


def _solve_parabolic_memory(ctx, F_int, ic_int, *, tol, max_picard,
                            guess=None):
    """Shared fixed-point core: returns interior trajectory and a report.

    F_int holds every memory-free source term on interior nodes.  The first
    march uses the memory of the interior trajectory `guess` (zero memory
    when it is None).  The residual is the half-step mean of the memory
    update m_new - m, which the exact march makes equal to _cn_residual.
    """
    def step(m):
        u = _march_cn(ctx, F_int + m, ic_int)
        if not np.all(np.isfinite(u)):
            raise FloatingPointError("state iterate became non-finite")
        m_new = _memory_values(ctx, u)
        dm = m_new - m
        return m_new, _space_time_norm(ctx, 0.5 * (dm[:, 1:] + dm[:, :-1])), u

    m0 = np.zeros_like(F_int) if guess is None else _memory_values(ctx, guess)
    u, iterations, history, converged = _anderson(
        step, m0, tol=tol, max_iter=max_picard)
    return u, SolveReport(iterations, history[-1], converged, history)


def _embed(ctx, interior_values):
    full = np.zeros((ctx.grid.nnodes, ctx.tgrid.nt + 1))
    full[ctx.interior] = interior_values
    return SpaceTimeField(ctx.grid, ctx.tgrid, full)


def solve_state(prob, guess=None):
    """Solve the limit state problem for (f, v); returns (u0, report).

    guess, a field on the same grids, seeds the Picard loop with its memory.
    """
    ctx = prob.ctx
    ic = np.zeros(len(ctx.interior))
    u_int, report = _solve_parabolic_memory(
        ctx, _state_source(ctx, prob.f, prob.v), ic, tol=prob.tol,
        max_picard=prob.max_picard,
        guess=None if guess is None else guess.values[ctx.interior])
    return _embed(ctx, u_int), report


def residual_state(u0, prob):
    """Half-step space-time residual of the state equation at a given field."""
    ctx = prob.ctx
    u_int = u0.values[ctx.interior]
    return _cn_residual(ctx, u_int, _memory_values(ctx, u_int),
                        _state_source(ctx, prob.f, prob.v))


def solve_linearized(v, params, tol=1e-8, max_picard=200):
    """State response to a control direction: the f = 0 solve (affine map)."""
    f0 = SpaceTimeField.zeros(v.grid, v.tgrid)
    prob = StateProblem(params=params, f=f0, v=v, tol=tol,
                        max_picard=max_picard)
    theta, _ = solve_state(prob)
    return theta
