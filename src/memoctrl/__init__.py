"""Parabolic optimal control with exponential time-memory relaxation operators."""

from .cost import (CostBreakdown, check_fp_identity, check_GH_decomposition,
                   check_HGstar_decomposition, check_M_decomposition,
                   evaluate_J0, gradient_J0)
from .fields import (SpaceTimeField, SpatialGrid, integrate_spacetime,
                     lift_timeop, neg_laplacian, omega_mask, spacetime_inner)
from .optimality import (OptimalityResult, control_from_adjoint,
                         direct_minimize, extract_control_ode, solve_adjoint,
                         solve_optimality)
from .params import (Box, ModelParams, capacity_limit, cell_capacity_oracle,
                     make_params, sphere_area)
from .state import (SolveReport, StateProblem, residual_state,
                    solve_linearized, solve_state)
from .timeops import (TimeGrid, apply_h_values, apply_hstar_values,
                      bvp_gstar_h_values, bvp_h_gstar_values,
                      relax_backward_values, relax_forward_values,
                      time_derivative_values, trapezoid_weights)

__version__ = "0.1.0"
