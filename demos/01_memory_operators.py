"""Tour of the non-local time operators.

The forward maps (rates Bn and mu) are exponential relaxations; their
adjoints run backward from T.  The coupled pair (H, H*) reduces to a
two-point boundary-value problem in time.  This script shows the duality
pairings, the composition identities relating all six maps, and a
comparison of the boundary-value reduction against an independent
Runge-Kutta shooting solve.
"""

import numpy as np

from memoctrl import (TimeGrid, apply_h_values, apply_hstar_values,
                      bvp_gstar_h_values, bvp_h_gstar_values, make_params,
                      relax_backward_values, relax_forward_values,
                      trapezoid_weights)
from memoctrl.oracles import shoot_gstar_h

params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
grid = TimeGrid(T=params.T, nt=512)
t, dt = grid.times, grid.dt
Bn, mu = params.Bn, params.mu
w = trapezoid_weights(grid.nt, dt)  # np.dot(w, a * b) is <a, b> on (0, T)

print(f"constants: Bn = {Bn}, mu = Bn + 1/N = {mu}, An = {params.An:.6f}")

phi = np.sin(2 * np.pi * t) + 0.5 * t
psi = np.cos(np.pi * t) - t ** 2

print("\n-- relaxation maps --")
m_phi = relax_forward_values(phi, Bn, dt)
g_phi = relax_forward_values(phi, mu, dt)
print(f"M(phi)(T) = {m_phi[-1]:+.6f}   (starts at "
      f"{m_phi[0]:+.1f} by construction)")
print(f"G(phi)(T) = {g_phi[-1]:+.6f}   (faster decay, larger rate)")

print("\n-- duality: <Op(phi), psi> == <phi, Op*(psi)> --")
for name, fwd, bwd in [
        ("M", lambda s: relax_forward_values(s, Bn, dt),
         lambda s: relax_backward_values(s, Bn, dt)),
        ("G", lambda s: relax_forward_values(s, mu, dt),
         lambda s: relax_backward_values(s, mu, dt)),
        ("H", lambda s: apply_h_values(s, Bn, mu, dt),
         lambda s: apply_hstar_values(s, Bn, mu, dt))]:
    lhs = float(np.dot(w, fwd(phi) * psi))
    rhs = float(np.dot(w, phi * bwd(psi)))
    print(f"  {name}: lhs = {lhs:+.8f}, rhs = {rhs:+.8f}, "
          f"gap = {abs(lhs - rhs):.2e}")

print("\n-- composition identities --")
h_phi = apply_h_values(phi, Bn, mu, dt)
direct = bvp_gstar_h_values(phi, Bn, mu, dt)
composed = relax_backward_values(h_phi, mu, dt)
print(f"  ||G*(H(phi)) - composition|| = "
      f"{np.max(np.abs(direct - composed)):.2e}")
direct2 = bvp_h_gstar_values(phi, Bn, mu, dt)
composed2 = relax_forward_values(apply_hstar_values(phi, Bn, mu, dt), mu, dt)
print(f"  ||H(G*(phi)) - composition|| = "
      f"{np.max(np.abs(direct2 - composed2)):.2e}")
rebuilt = g_phi + (mu / params.N) * relax_forward_values(
    apply_hstar_values(g_phi, Bn, mu, dt), mu, dt)
print(f"  ||H(phi) - [G + (mu/N) G(H*(G))]|| = "
      f"{np.max(np.abs(h_phi - rebuilt)):.2e}")

print("\n-- boundary-value reduction vs shooting oracle --")
oracle = shoot_gstar_h(lambda s: np.sin(2 * np.pi * s) + 0.5 * s,
                       Bn, mu, grid.T, grid.nt)
print(f"  max |tridiagonal - RK4 shooting| = "
      f"{np.max(np.abs(direct - oracle)):.2e}")
print(f"  end conditions: A(T) = {direct[-1]:.1e}, "
      f"H(phi)(0) = {h_phi[0]:.1e}")
