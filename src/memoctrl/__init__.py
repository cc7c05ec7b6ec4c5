"""Parabolic optimal control with exponential time-memory relaxation operators."""

from .cost import (CostBreakdown, check_fp_identity, check_GH_decomposition,
                   check_HGstar_decomposition, check_M_decomposition,
                   evaluate_J0, gradient_J0)
from .fields import (SpaceTimeField, SpatialGrid, integrate_space_at,
                     integrate_spacetime, lift_timeop, neg_laplacian,
                     omega_mask, spacetime_inner)
from .optimality import (OptimalityResult, control_from_adjoint,
                         direct_minimize, extract_control_ode, solve_adjoint,
                         solve_optimality)
from .params import (Box, ModelParams, capacity_limit, cell_capacity_oracle,
                     make_params, sphere_area)
from .state import (SolveReport, StateProblem, residual_state,
                    solve_linearized, solve_state)
from .timeops import (TimeGrid, TimeSeries, apply_h, apply_hstar, bvp_gstar_h,
                      bvp_h_gstar, inner_product, relax_backward,
                      relax_forward, time_derivative)

__version__ = "0.1.0"
