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

from .timeops import relax_backward_values, relax_forward_values


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
    """Dense integration of y' + rate*y = phi, y(0) = 0, sampled on the grid.

    phi_fn is called once, on an array of times.
    """
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
    """Shooting solve of -A'' + Bn*mu*A = phi, A(T)=0, -A'(0)+mu*A(0)=0.

    phi_fn is called once, on an array of times.
    """
    y = _shoot_pair(phi_fn, Bn * mu, [1.0, mu], T, nt, sub)
    a = -y[-1, 0] / y[-1, 2]
    return (y[:, 0] + a * y[:, 2])[::sub]


def shoot_h_gstar(psi_fn, Bn, mu, T, nt, sub=4):
    """Shooting solve of -C'' + Bn*mu*C = psi, C(0)=0, C'(T)+mu*C(T)=0.

    psi_fn is called once, on an array of times.
    """
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
    """Fixed-point iteration on the defining equation of H*."""
    gain = mu * (mu - Bn)
    x = np.zeros_like(psi_values)
    for _ in range(max_iter):
        fed = psi_values + gain * relax_forward_values(x, mu, dt)
        x_new = relax_backward_values(fed, mu, dt)
        if np.max(np.abs(x_new - x)) <= tol:
            return x_new
        x = x_new
    raise RuntimeError("Picard iteration for H* did not converge")


def time_op_matrix(kernel, nt):
    """Dense matrix of a linear time operator.

    Every kernel acts along the last axis, so one call on the identity
    applies it to all unit vectors at once; row j is the image of e_j.
    """
    return kernel(np.eye(nt + 1)).T


def dense_state_solve(params, grid, tgrid, f_vals, v_vals):
    """Monolithic dense solve of the discrete state system.

    Assembles the Crank-Nicolson equations for every interior node and time
    level, with the memory terms represented by dense time-operator matrices
    extracted from the production kernels, and solves once with numpy.
    Feasible only for tiny instances; used as the equivalence oracle for the
    fixed-point solver.
    """
    from .fields import laplacian_matrix, omega_mask
    from .timeops import apply_h_values

    interior = grid.interior_idx
    nint, nt, dt = len(interior), tgrid.nt, tgrid.dt
    w_int = omega_mask(grid, params)[interior]
    L = laplacian_matrix(grid).toarray()
    An, Bn = params.An, params.Bn
    H_t = time_op_matrix(
        lambda e: apply_h_values(e, params.Bn, params.mu, dt), nt)
    M_t = time_op_matrix(
        lambda e: relax_forward_values(e, params.Bn, dt), nt)

    F = f_vals[interior].copy()
    F[w_int] += An * Bn * v_vals[interior][w_int]

    nun = nint * (nt + 1)
    A = np.zeros((nun, nun))
    b = np.zeros(nun)
    idx = lambda i, k: i * (nt + 1) + k
    for i in range(nint):
        A[idx(i, 0), idx(i, 0)] = 1.0
    for i in range(nint):
        mem = An * Bn * (H_t if w_int[i] else M_t)
        for k in range(nt):
            r = idx(i, k + 1)
            A[r, idx(i, k + 1)] += 1.0 / dt + An / 2.0
            A[r, idx(i, k)] += -1.0 / dt + An / 2.0
            for j in range(nint):
                if L[i, j] != 0.0:
                    A[r, idx(j, k)] += L[i, j] / 2.0
                    A[r, idx(j, k + 1)] += L[i, j] / 2.0
            A[r, idx(i, 0):idx(i, nt + 1)] -= 0.5 * (mem[k, :] + mem[k + 1, :])
            b[r] = 0.5 * (F[i, k] + F[i, k + 1])
    x = np.linalg.solve(A, b)
    return x.reshape(nint, nt + 1)


def dense_optimality_solve(params, grid, tgrid, f_vals):
    """Monolithic dense solve of the coupled state/adjoint optimality system.

    Same construction as dense_state_solve, with the adjoint equations
    written in reversed time exactly as the production solver steps them,
    the terminal coupling row p(T) = u(T), and the control source
    -(An*Bn/N) H(G*(p)) chi_omega folded into the state block.  Returns
    (u_interior, p_interior).
    """
    from .fields import laplacian_matrix, omega_mask
    from .timeops import (apply_h_values, bvp_gstar_h_values,
                          bvp_h_gstar_values)

    interior = grid.interior_idx
    nint, nt, dt = len(interior), tgrid.nt, tgrid.dt
    w_int = omega_mask(grid, params)[interior]
    L = laplacian_matrix(grid).toarray()
    An, Bn, mu, N = params.An, params.Bn, params.mu, params.N
    H_t = time_op_matrix(
        lambda e: apply_h_values(e, Bn, mu, dt), nt)
    M_t = time_op_matrix(
        lambda e: relax_forward_values(e, Bn, dt), nt)
    GHs_t = time_op_matrix(
        lambda e: bvp_gstar_h_values(e, Bn, mu, dt), nt)
    HGs_t = time_op_matrix(
        lambda e: bvp_h_gstar_values(e, Bn, mu, dt), nt)
    MsM_t = time_op_matrix(
        lambda e: relax_backward_values(
            relax_forward_values(e, Bn, dt), Bn, dt), nt)

    nun = nint * (nt + 1)
    A = np.zeros((2 * nun, 2 * nun))
    b = np.zeros(2 * nun)
    iu = lambda i, k: i * (nt + 1) + k
    ip = lambda i, k: nun + i * (nt + 1) + k

    F = f_vals[interior]

    # ---- state block ----
    for i in range(nint):
        A[iu(i, 0), iu(i, 0)] = 1.0
        mem = An * Bn * (H_t if w_int[i] else M_t)
        for k in range(nt):
            r = iu(i, k + 1)
            A[r, iu(i, k + 1)] += 1.0 / dt + An / 2.0
            A[r, iu(i, k)] += -1.0 / dt + An / 2.0
            for j in range(nint):
                if L[i, j] != 0.0:
                    A[r, iu(j, k)] += L[i, j] / 2.0
                    A[r, iu(j, k + 1)] += L[i, j] / 2.0
            A[r, iu(i, 0):iu(i, nt + 1)] -= 0.5 * (mem[k, :] + mem[k + 1, :])
            if w_int[i]:
                # control source -(An*Bn/N) H(G*(p)), moved to the left side
                A[r, ip(i, 0):ip(i, nt + 1)] += (An * Bn / N) * 0.5 \
                    * (HGs_t[k, :] + HGs_t[k + 1, :])
            b[r] = 0.5 * (F[i, k] + F[i, k + 1])

    # ---- adjoint block, in reversed time q(s) = p(T - s) ----
    # q rows reference P columns through the index reversal k -> nt - k.
    for i in range(nint):
        # terminal coupling p(T) = u(T), i.e. q(0) = u(nt)
        A[ip(i, 0), ip(i, nt)] = 1.0
        A[ip(i, 0), iu(i, nt)] = -1.0
        mem = An * Bn * (H_t if w_int[i] else M_t)
        # source g(U) = L u + An u - An*Bn*mu*GHs(u) [omega]
        #                         - An*Bn^2*MsM(u) [complement], reversed
        for k in range(nt):
            r = ip(i, k + 1)
            # q-part: same CN stencil as the state block
            A[r, ip(i, nt - (k + 1))] += 1.0 / dt + An / 2.0
            A[r, ip(i, nt - k)] += -1.0 / dt + An / 2.0
            for j in range(nint):
                if L[i, j] != 0.0:
                    A[r, ip(j, nt - k)] += L[i, j] / 2.0
                    A[r, ip(j, nt - (k + 1))] += L[i, j] / 2.0
            for m in range(nt + 1):
                coef = -0.5 * (mem[k, m] + mem[k + 1, m])
                A[r, ip(i, nt - m)] += coef
            # minus the (reversed) source, which is linear in U
            for half, kk in ((0.5, k), (0.5, k + 1)):
                krev = nt - kk
                for j in range(nint):
                    if L[i, j] != 0.0:
                        A[r, iu(j, krev)] -= half * L[i, j]
                A[r, iu(i, krev)] -= half * An
                row_op = GHs_t if w_int[i] else MsM_t
                coef = An * Bn * mu if w_int[i] else An * Bn ** 2
                A[r, iu(i, 0):iu(i, nt + 1)] += half * coef * row_op[krev, :]
    x = np.linalg.solve(A, b)
    return x[:nun].reshape(nint, nt + 1), x[nun:].reshape(nint, nt + 1)
