"""Model constants and controlled-region geometry.

The relaxation rate of the uncontrolled region is ``Bn = (n - 2)/C0`` and the
controlled region relaxes at ``mu = Bn + 1/N``.  The zeroth-order absorption
density ``An`` is the harmonic-capacity density of critically scaled balls,

    An = (n - 2) * sigma_{n-1} * C0**(n - 2),

with ``sigma_{n-1}`` the surface area of the unit sphere in R^n.  ``An`` is
never taken on faith: :func:`cell_capacity_oracle` recomputes it from the
radial harmonic cell problem by composite Gauss-Legendre quadrature of the
annulus energy, independent of the closed form, and the test suite requires
agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 20-point Gauss-Legendre rule on [-1, 1] for the capacity oracle's panels
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _gamma_half(m):
    """Gamma(m/2) for a positive integer m, by the half-integer recursion."""
    if m % 2 == 0:
        return float(math.factorial(m // 2 - 1))
    g = math.sqrt(math.pi)
    x = 0.5
    while x < m / 2 - 0.25:
        g *= x
        x += 1.0
    return g


def sphere_area(n):
    """Surface area of the unit sphere S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / _gamma_half(n)


def _analysis_dimension(n):
    """n as an int, if it is a whole number >= 3 (3.0 is; 3.5 is not)."""
    if n != int(n) or n < 3:
        raise ValueError(f"analysis dimension n must be a whole number >= 3, "
                         f"got {n!r}")
    return int(n)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-axis lower and upper corners."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError("box corners must have the same dimension")
        if len(lo) == 0:
            raise ValueError("box must have at least one axis")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"box must have positive extent on every axis: {lo} .. {hi}")

    @property
    def dim(self):
        return len(self.lo)

    def strictly_inside(self, other):
        """True if the closure of self is contained in the interior of other."""
        if self.dim != other.dim:
            return False
        return all(oa < a and b < ob
                   for a, b, oa, ob in zip(self.lo, self.hi, other.lo, other.hi))


@dataclass(frozen=True)
class ModelParams:
    """All model constants plus the geometry of the controlled region.

    ``n`` is the analysis dimension fixing the constants; ``sim_dim`` is the
    (decoupled) spatial dimension of the discretized limit problem.
    """

    n: int
    C0: float
    N: float
    T: float
    Bn: float
    An: float
    mu: float
    sim_dim: int
    domain_box: Box
    omega_box: Box


def make_params(n, C0, N, T, sim_dim=1, domain_box=None, omega_box=None):
    """Validate inputs and derive (Bn, mu, An).

    Raises ValueError for an n that is not a whole number >= 3 (below 3 the
    critical scaling exponent n/(n-2) degenerates), non-positive C0/N/T, or
    a controlled region whose closure is not strictly inside the domain.
    """
    n = _analysis_dimension(n)
    if C0 <= 0 or N <= 0 or T <= 0:
        raise ValueError("C0, N and T must all be positive")
    if sim_dim not in (1, 2, 3):
        raise ValueError(f"sim_dim must be 1, 2 or 3, got {sim_dim}")
    if domain_box is None:
        domain_box = Box((0.0,) * sim_dim, (1.0,) * sim_dim)
    if omega_box is None:
        omega_box = Box((0.25,) * sim_dim, (0.75,) * sim_dim)
    if domain_box.dim != sim_dim or omega_box.dim != sim_dim:
        raise ValueError("domain_box and omega_box must match sim_dim")
    if not omega_box.strictly_inside(domain_box):
        raise ValueError("closure of the controlled region must lie strictly "
                         "inside the domain")
    Bn = (n - 2) / C0
    mu = Bn + 1.0 / N
    An = (n - 2) * sphere_area(n) * C0 ** (n - 2)
    return ModelParams(n=n, C0=float(C0), N=float(N), T=float(T), Bn=Bn, An=An,
                       mu=mu, sim_dim=sim_dim, domain_box=domain_box,
                       omega_box=omega_box)


def cell_capacity_oracle(n, C0, eps_list):
    """Per-cell harmonic energy of the critically scaled ball, per unit volume.

    For each eps the radial problem on the annulus a <= r <= eps/4, with
    a = C0 * eps**(n/(n-2)), has the closed-form solution

        w(r) = (r^{2-n} - R^{2-n}) / (a^{2-n} - R^{2-n}),

    (w = 1 on the particle boundary, w = 0 on the outer sphere).  The oracle
    integrates |grad w|^2 over the annulus numerically -- by composite
    20-point Gauss-Legendre on the log-radius axis, in panels of width
    <= 1/(n-2), never through the closed-form capacity constant -- and scales
    by eps^{-n}.  The sequence converges to An as eps -> 0 at rate O(eps^2).
    """
    n = _analysis_dimension(n)
    values = []
    sigma = sphere_area(n)
    for eps in eps_list:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        a = C0 * eps ** (n / (n - 2))
        R = eps / 4.0
        if a >= R:
            raise ValueError(f"annulus collapses for eps={eps}: "
                             f"particle radius {a} >= cell radius {R}")
        denom = a ** (2 - n) - R ** (2 - n)

        # |grad w|^2 = (w'(r))^2, w'(r) = (2-n) r^{1-n} / denom; integrate the
        # energy density (w')^2 sigma r^{n-1} on a log-radius axis, where it
        # is the exponential sigma (n-2)^2 e^{(2-n)s} / denom^2.  A panel of
        # width <= 1/(n-2) sees it vary by at most a factor e.
        lo, hi = math.log(a), math.log(R)
        panels = max(1, math.ceil((n - 2) * (hi - lo)))
        half = 0.5 * (hi - lo) / panels
        mids = lo + half * (2.0 * np.arange(panels) + 1.0)
        s = mids[:, None] + half * _GL_NODES
        density = sigma * (n - 2) ** 2 * np.exp((2 - n) * s) / denom ** 2
        integral = half * float(np.sum(density @ _GL_WEIGHTS))
        values.append(eps ** (-n) * integral)
    return values


def capacity_limit(n, C0, eps_list=(4e-3, 2e-3)):
    """Richardson-extrapolated eps -> 0 limit of the capacity oracle.

    The oracle values behave like An * (1 + c * eps^2); two evaluations
    eliminate the leading term.
    """
    if len(eps_list) < 2:
        raise ValueError("need at least two eps values to extrapolate")
    values = cell_capacity_oracle(n, C0, eps_list)
    e1, e2 = eps_list[-2], eps_list[-1]
    v1, v2 = values[-2], values[-1]
    return (v2 * e1 ** 2 - v1 * e2 ** 2) / (e1 ** 2 - e2 ** 2)
