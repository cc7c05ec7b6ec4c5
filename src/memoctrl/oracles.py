"""Independent numerical oracles for verification.

Everything here stays deliberately separate from the library's solution
paths: dense RK4 marching for initial-value and shooting solves, Picard
iteration on the defining non-local equations using only the relaxation
maps, and monolithic dense space-time solves of the marching schemes.  The
executable verification suite and the test suite both check the production
solvers against these.

The RK4 oracles call their source once, on an array of all stage times, and
march all steps as one banded forward substitution (see _rk4_affine).
"""

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .fields import omega_mask
from .timeops import (apply_h_values, bvp_gstar_h_values, bvp_h_gstar_values,
                      relax_backward_values, relax_forward_values)


def rk4_march(f, y0, t0, dt, nsteps):
    """Classic RK4; returns the trajectory including the initial point."""
    y = np.asarray(y0, dtype=float)
    out = np.empty((nsteps + 1, y.size))
    out[0] = y
    t = t0
    for i in range(nsteps):
        k1 = f(t, y)
        k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
        k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        out[i + 1] = y
    return out


def _rk4_affine(K, b, src_fn, y0, T, nsteps):
    """RK4 on y' = K y + b*src(t) from each column of y0, the source driving
    column 0 only; returns the trajectory, shape (nsteps + 1, d, ncols).

    One RK4 step of a linear system is affine, y_{k+1} = P y_k
    + Q (s_k, s_{k+1/2}, s_{k+1}).  P and Q are read off one rk4_march step
    of d + 3 copies: copy c < d starts from e_c without source, copy d + j
    from rest with a unit source at stage time j*dt/2 only.  All steps are
    then one unit lower-triangular banded system in the interleaved
    unknowns y_1..y_n (bandwidth 2d - 1), solved by forward substitution.
    src_fn is called once, on the 2*nsteps + 1 stage times.
    """
    d, dt = len(b), T / nsteps

    def unit_rhs(t, y):
        out = y.reshape(d + 3, d) @ K.T
        out[d + round(2.0 * t / dt)] += b
        return out.ravel()

    start = np.vstack([np.eye(d), np.zeros((3, d))]).ravel()
    PQ = rk4_march(unit_rhs, start, 0.0, dt, 1)[1].reshape(d + 3, d).T
    P, Q = PQ[:, :d], PQ[:, d:]
    s = np.broadcast_to(src_fn(np.arange(2 * nsteps + 1) * (dt / 2.0)),
                        (2 * nsteps + 1,))
    rhs = np.zeros((nsteps, d, y0.shape[1]))
    rhs[:, :, 0] = np.stack([s[:-1:2], s[1::2], s[2::2]], axis=1) @ Q.T
    rhs[0] += P @ y0
    ab = np.zeros((2 * d, nsteps * d))
    ab[0] = 1.0
    for i in range(d):
        for j in range(d):
            ab[d + i - j, j::d] = -P[i, j]
    x, _ = dtbtrs(ab, rhs.reshape(nsteps * d, -1), uplo="L", diag="U")
    return np.concatenate([y0[None], x.reshape(rhs.shape)])


def rk4_relax_forward(phi_fn, rate, T, nt, sub=4):
    """RK4 integration of y' + rate*y = phi, y(0) = 0, on the grid."""
    y = _rk4_affine(np.array([[-rate]]), np.array([1.0]), phi_fn,
                    np.zeros((1, 1)), T, nt * sub)
    return y[::sub, 0, 0]


def _shoot_pair(src_fn, kappa, hom0, T, nt, sub):
    """RK4 on y'' = kappa*y - src from rest (columns 0, 1) and on the
    homogeneous y'' = kappa*y from (y, y') = hom0 (columns 2, 3), marched
    together; returns the fine trajectory."""
    y = _rk4_affine(np.array([[0.0, 1.0], [kappa, 0.0]]), np.array([0.0, -1.0]),
                    src_fn, np.column_stack([np.zeros(2), hom0]), T, nt * sub)
    return y.transpose(0, 2, 1).reshape(len(y), 4)


def shoot_gstar_h(phi_fn, Bn, mu, T, nt, sub=4):
    """Shooting solve of -A'' + Bn*mu*A = phi, A(T)=0, -A'(0)+mu*A(0)=0."""
    y = _shoot_pair(phi_fn, Bn * mu, [1.0, mu], T, nt, sub)
    a = -y[-1, 0] / y[-1, 2]
    return (y[:, 0] + a * y[:, 2])[::sub]


def shoot_h_gstar(psi_fn, Bn, mu, T, nt, sub=4):
    """Shooting solve of -C'' + Bn*mu*C = psi, C(0)=0, C'(T)+mu*C(T)=0."""
    y = _shoot_pair(psi_fn, Bn * mu, [0.0, 1.0], T, nt, sub)
    c = -(y[-1, 1] + mu * y[-1, 0]) / (y[-1, 3] + mu * y[-1, 2])
    return (y[:, 0] + c * y[:, 2])[::sub]


def picard_h(phi_values, Bn, mu, dt, tol=1e-13, max_iter=500):
    """Fixed-point iteration on the defining equation of H:

        x' + mu*x = phi + (mu/N) G*(x),  x(0) = 0,

    written with (mu/N) = mu*(mu - Bn); uses only the relaxation maps.
    The map is a contraction with factor (mu - Bn)/mu < 1.
    """
    gain = mu * (mu - Bn)  # = (Bn + 1/N)/N
    x = np.zeros_like(phi_values)
    for _ in range(max_iter):
        fed = phi_values + gain * relax_backward_values(x, mu, dt)
        x_new = relax_forward_values(fed, mu, dt)
        if np.max(np.abs(x_new - x)) <= tol:
            return x_new
        x = x_new
    raise RuntimeError("Picard iteration for H did not converge")


def picard_hstar(psi_values, Bn, mu, dt, tol=1e-13, max_iter=500):
    """Fixed-point iteration on the defining equation of H*,
    -x' + mu*x = psi + (mu/N) G(x), x(T) = 0: picard_h in reversed time."""
    return picard_h(psi_values[..., ::-1], Bn, mu, dt, tol,
                    max_iter)[..., ::-1].copy()


def time_op_matrix(kernel, nt):
    """Dense matrix of a linear time operator.

    Every kernel acts along the last axis, so one call on the identity
    applies it to all unit vectors at once; row j is the image of e_j.
    """
    return kernel(np.eye(nt + 1)).T


def dense_neg_laplacian(grid):
    """Dense -Laplacian on interior nodes, C-order of grid.interior_idx: the
    Kronecker sum of the 1-D second differences with zero Dirichlet data,
    built without the production stencil."""
    L = np.zeros((1, 1))
    for n, h in zip(np.subtract(grid.shape, 2), grid.h):
        d2 = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h ** 2
        L = np.kron(L, np.eye(n)) + np.kron(np.eye(len(L)), d2)
    return L


def _add_cn_rows(A, row, col, params, grid, tgrid):
    """Add every interior node's Crank-Nicolson rows to A; return the nodes'
    omega flags and the interior Laplacian.

    Row row(i, 0) pins col(i, 0); row(i, k + 1) steps level k to k + 1 in the
    unknowns col(j, k), col(j, k + 1), the memory term An*Bn*H (omega) or
    An*Bn*M (the rest) as dense matrices of the production kernels.  A
    reversed-time block passes a column map that reverses the level index.
    """
    nt, dt = tgrid.nt, tgrid.dt
    w_int = omega_mask(grid, params)[grid.interior_idx]
    L = dense_neg_laplacian(grid)
    An, Bn = params.An, params.Bn
    mem_omega, mem_rest = (An * Bn * time_op_matrix(op, nt) for op in (
        lambda e: apply_h_values(e, Bn, params.mu, dt),
        lambda e: relax_forward_values(e, Bn, dt)))
    k = np.arange(nt)
    for i in range(len(w_int)):
        A[row(i, 0), col(i, 0)] = 1.0
        mem = mem_omega if w_int[i] else mem_rest
        r = row(i, k + 1)
        A[r, col(i, k + 1)] += 1.0 / dt + An / 2.0
        A[r, col(i, k)] += -1.0 / dt + An / 2.0
        for j in np.flatnonzero(L[i]):
            A[r, col(j, k)] += L[i, j] / 2.0
            A[r, col(j, k + 1)] += L[i, j] / 2.0
        A[r[:, None], col(i, np.arange(nt + 1))] -= 0.5 * (mem[:-1] + mem[1:])
    return w_int, L


def dense_state_solve(params, grid, tgrid, f_vals, v_vals):
    """Monolithic dense solve of the discrete state system.

    Assembles the Crank-Nicolson equations for every interior node and time
    level, with the memory terms represented by dense time-operator matrices
    extracted from the production kernels, and solves once with numpy.
    Feasible only for tiny instances; used as the equivalence oracle for the
    fixed-point solver.
    """
    interior = grid.interior_idx
    nint, nt = len(interior), tgrid.nt
    A = np.zeros((nint * (nt + 1),) * 2)
    idx = lambda i, k: i * (nt + 1) + k
    w_int, _ = _add_cn_rows(A, idx, idx, params, grid, tgrid)
    F = f_vals[interior].copy()
    F[w_int] += params.An * params.Bn * v_vals[interior][w_int]
    b = np.zeros((nint, nt + 1))
    b[:, 1:] = 0.5 * (F[:, :-1] + F[:, 1:])
    return np.linalg.solve(A, b.ravel()).reshape(nint, nt + 1)


def dense_optimality_solve(params, grid, tgrid, f_vals):
    """Monolithic dense solve of the coupled state/adjoint optimality system.

    Same construction as dense_state_solve, with the adjoint equations
    written in reversed time exactly as the production solver steps them,
    the terminal coupling row p(T) = u(T), and the control source
    -(An*Bn/N) H(G*(p)) chi_omega folded into the state block.  Returns
    (u_interior, p_interior).
    """
    interior = grid.interior_idx
    nint, nt, dt = len(interior), tgrid.nt, tgrid.dt
    An, Bn, mu, N = params.An, params.Bn, params.mu, params.N
    GHs_t, HGs_t, MsM_t = (time_op_matrix(op, nt) for op in (
        lambda e: bvp_gstar_h_values(e, Bn, mu, dt),
        lambda e: bvp_h_gstar_values(e, Bn, mu, dt),
        lambda e: relax_backward_values(relax_forward_values(e, Bn, dt), Bn, dt)))

    nun = nint * (nt + 1)
    A = np.zeros((2 * nun, 2 * nun))
    b = np.zeros(2 * nun)
    iu = lambda i, k: i * (nt + 1) + k
    ip = lambda i, k: nun + i * (nt + 1) + k

    F = f_vals[interior]
    b[:nun].reshape(nint, nt + 1)[:, 1:] = 0.5 * (F[:, :-1] + F[:, 1:])
    w_int, L = _add_cn_rows(A, iu, iu, params, grid, tgrid)
    # the adjoint in reversed time q(s) = p(T - s): row ip(i, k) steps q's
    # level k, which is p's level nt - k
    _add_cn_rows(A, ip, lambda i, k: ip(i, nt - k), params, grid, tgrid)

    # the adjoint source g(U) = L u + An u - An*Bn*mu*GHs(u) [omega]
    # - An*Bn^2*MsM(u) [complement], reversed: q's step k averages it over
    # u's levels nt - k and nt - k - 1, and moves to the left side
    k = np.arange(nt)
    for i in range(nint):
        # terminal coupling p(T) = u(T), i.e. q(0) = u(nt)
        A[ip(i, 0), iu(i, nt)] = -1.0
        if w_int[i]:
            # control source -(An*Bn/N) H(G*(p)), moved to the left side
            A[iu(i, 1):iu(i, nt + 1), ip(i, 0):ip(i, nt + 1)] += \
                (An * Bn / N) * 0.5 * (HGs_t[:-1] + HGs_t[1:])
        row_op = GHs_t if w_int[i] else MsM_t
        coef = An * Bn * mu if w_int[i] else An * Bn ** 2
        for krev in (nt - k, nt - k - 1):
            for j in np.flatnonzero(L[i]):
                A[ip(i, k + 1), iu(j, krev)] -= 0.5 * L[i, j]
            A[ip(i, k + 1), iu(i, krev)] -= 0.5 * An
            A[ip(i, 1):ip(i, nt + 1), iu(i, 0):iu(i, nt + 1)] += \
                0.5 * coef * row_op[krev]
    x = np.linalg.solve(A, b)
    return x[:nun].reshape(nint, nt + 1), x[nun:].reshape(nint, nt + 1)
