"""Non-local-in-time operators on a uniform grid over (0, T).

Four operator families act on scalar time series:

* forward relaxation  y' + rate*y = phi,  y(0) = 0   (rate Bn: the M map,
  rate mu = Bn + 1/N: the G map),
* backward relaxation -y' + rate*y = psi, y(T) = 0   (adjoints M*, G*),
* the coupled pair (H, H*), defined by first-order problems that feed back
  through G* and G respectively.  Both reduce to a single two-point
  boundary-value problem:

      A = G*(H(phi)) solves  -A'' + Bn*mu*A = phi,
                             A(T) = 0,  -A'(0) + mu*A(0) = 0,
      C = H(G*(psi)) solves  -C'' + Bn*mu*C = psi,
                             C(0) = 0,   C'(T) + mu*C(T) = 0,

  and H(phi) = -A' + mu*A, H*(psi) = C' + mu*C.

The relaxations use the exact exponential integrator with a piecewise-linear
source, so they are exact for affine inputs and unconditionally stable.  The
integrator's recurrence over all time levels of all series is one unit
lower-bidiagonal system, solved by a single banded forward substitution
(LAPACK dtbtrs) with the series as right-hand sides.  The
BVPs use second-order central differences with the boundary conditions
eliminated to keep a tridiagonal system; the Robin rows are built from the
same one-sided derivative stencil as :func:`time_derivative`, so the
recovered H, H* satisfy their zero end condition to solver round-off.

All kernels accept arrays of shape (..., nt+1) and act along the last axis;
the thin TimeSeries wrappers below expose the documented surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dtbtrs


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_nt = T."""

    T: float
    nt: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.nt < 2:
            raise ValueError(f"need at least 2 intervals, got {self.nt}")

    @property
    def dt(self):
        return self.T / self.nt

    @cached_property
    def times(self):
        return np.linspace(0.0, self.T, self.nt + 1)


@dataclass
class TimeSeries:
    """Scalar function of time sampled on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nt + 1,):
            raise ValueError(f"expected {self.grid.nt + 1} samples, "
                             f"got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("time series contains non-finite values")

    @classmethod
    def from_function(cls, grid, fn):
        return cls(grid, np.asarray([fn(t) for t in grid.times], dtype=float))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError(f"time grids differ: {a.grid} vs {b.grid}")


def _exp_weights(rate, dt):
    """Decay factor and source weights of the exact one-step integrator.

    Over one step, y_{k+1} = E y_k + c0 phi_k + c1 phi_{k+1} with E = e^{-z},
    z = rate*dt, is exact for phi piecewise linear.  Small z uses series to
    avoid cancellation.
    """
    z = rate * dt
    E = math.exp(-z)
    if z > 1e-3:
        phi1 = -math.expm1(-z) / z
        g = (phi1 - E) / z
    else:
        phi1 = 1.0 - z / 2.0 + z * z / 6.0 - z ** 3 / 24.0 + z ** 4 / 120.0
        g = 0.5 - z / 3.0 + z * z / 8.0 - z ** 3 / 30.0 + z ** 4 / 144.0
    c0 = dt * g
    c1 = dt * (phi1 - g)
    return E, c0, c1


def relax_forward_values(phi, rate, dt):
    """y' + rate*y = phi, y(0) = 0, along the last axis."""
    if rate <= 0:
        raise ValueError(f"relaxation rate must be positive, got {rate}")
    phi = np.asarray(phi, dtype=float)
    E, c0, c1 = _exp_weights(rate, dt)
    flat = phi.reshape(-1, phi.shape[-1])
    out = np.zeros(flat.shape)
    # y_{k+1} - E y_k = s_k, y_0 = 0: one unit lower-bidiagonal solve whose
    # right-hand sides are the series (s.T is F-contiguous, so no copy)
    s = c0 * flat[:, :-1] + c1 * flat[:, 1:]
    if s.size:  # an empty right-hand side crashes the LAPACK wrapper
        ab = np.empty((2, s.shape[1]))
        ab[0] = 1.0
        ab[1] = -E
        y, _ = dtbtrs(ab, s.T, uplo="L", diag="U", overwrite_b=1)
        out[:, 1:] = y.T
    return out.reshape(phi.shape)


def relax_backward_values(psi, rate, dt):
    """-y' + rate*y = psi, y(T) = 0: time reversal of relax_forward_values."""
    psi = np.asarray(psi, dtype=float)
    return relax_forward_values(psi[..., ::-1], rate, dt)[..., ::-1].copy()


def time_derivative_values(f, dt):
    """Second-order d/dt: centered inside, one-sided at both ends."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dt)
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * dt)
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * dt)
    return out


def _bvp_banded(nt, dt, kappa, mu):
    """Tridiagonal system for -A'' + kappa*A = phi, A(nt)=0, Robin at 0.

    Unknowns A_0..A_{nt-1}.  The Robin condition -A'(0) + mu*A(0) = 0 is
    written with the one-sided second-order stencil and the A_2 entry is
    eliminated through the k=1 interior row, which keeps the system
    tridiagonal and makes the stenciled Robin residual exactly zero.
    """
    inv2 = 1.0 / dt ** 2
    ab = np.zeros((3, nt))
    ab[1, 0] = 1.0 / dt + mu
    ab[0, 1] = -1.0 / dt + dt * kappa / 2.0
    ab[1, 1:] = 2.0 * inv2 + kappa
    ab[0, 2:] = -inv2
    ab[2, :-1] = -inv2
    return ab


def bvp_gstar_h_values(phi, Bn, mu, dt):
    """A = G*(H(phi)): -A'' + Bn*mu*A = phi, A(T) = 0, -A'(0) + mu*A(0) = 0."""
    phi = np.asarray(phi, dtype=float)
    nt = phi.shape[-1] - 1
    kappa = Bn * mu
    ab = _bvp_banded(nt, dt, kappa, mu)
    flat = phi.reshape(-1, nt + 1)
    rhs = np.empty((nt, flat.shape[0]))
    rhs[0, :] = dt * flat[:, 1] / 2.0
    rhs[1:, :] = flat[:, 1:nt].T
    try:
        sol = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - coercive system
        raise RuntimeError("singular tridiagonal system in a coercive BVP; "
                           "this indicates an internal defect") from exc
    out = np.zeros_like(flat)
    out[:, :nt] = sol.T
    return out.reshape(phi.shape)


def bvp_h_gstar_values(psi, Bn, mu, dt):
    """C = H(G*(psi)): -C'' + Bn*mu*C = psi, C(0) = 0, C'(T) + mu*C(T) = 0.

    Exact mirror of bvp_gstar_h_values under time reversal.
    """
    psi = np.asarray(psi, dtype=float)
    return bvp_gstar_h_values(psi[..., ::-1], Bn, mu, dt)[..., ::-1].copy()


def apply_h_values(phi, Bn, mu, dt):
    """H(phi) = -A' + mu*A with A = G*(H(phi)); H(phi)(0) = 0 by construction."""
    A = bvp_gstar_h_values(phi, Bn, mu, dt)
    return -time_derivative_values(A, dt) + mu * A


def apply_hstar_values(psi, Bn, mu, dt):
    """H*(psi) = C' + mu*C with C = H(G*(psi)); H*(psi)(T) = 0 by construction."""
    C = bvp_h_gstar_values(psi, Bn, mu, dt)
    return time_derivative_values(C, dt) + mu * C


def trapezoid_weights(nt, dt):
    w = np.full(nt + 1, dt)
    w[0] = w[-1] = dt / 2.0
    return w


# --- TimeSeries-level surface -------------------------------------------------

def relax_forward(phi, rate):
    """M-type map: solves y' + rate*y = phi with y(0) = 0."""
    return TimeSeries(phi.grid, relax_forward_values(phi.values, rate, phi.grid.dt))


def relax_backward(psi, rate):
    """Adjoint map: solves -y' + rate*y = psi with y(T) = 0."""
    return TimeSeries(psi.grid, relax_backward_values(psi.values, rate, psi.grid.dt))


def bvp_gstar_h(phi, params):
    return TimeSeries(phi.grid, bvp_gstar_h_values(
        phi.values, params.Bn, params.mu, phi.grid.dt))


def bvp_h_gstar(psi, params):
    return TimeSeries(psi.grid, bvp_h_gstar_values(
        psi.values, params.Bn, params.mu, psi.grid.dt))


def apply_h(phi, params):
    return TimeSeries(phi.grid, apply_h_values(
        phi.values, params.Bn, params.mu, phi.grid.dt))


def apply_hstar(psi, params):
    return TimeSeries(psi.grid, apply_hstar_values(
        psi.values, params.Bn, params.mu, psi.grid.dt))


def inner_product(a, b):
    """Trapezoidal quadrature of a*b over (0, T)."""
    _check_same_grid(a, b)
    w = trapezoid_weights(a.grid.nt, a.grid.dt)
    return float(np.dot(w, a.values * b.values))


def time_derivative(f):
    return TimeSeries(f.grid, time_derivative_values(f.values, f.grid.dt))
