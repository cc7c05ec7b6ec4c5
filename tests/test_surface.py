import inspect
import runpy
from pathlib import Path

import pytest

import memoctrl

# the names `import memoctrl` offers; the time operators are the array kernels
PUBLIC = {
    "Box", "CostBreakdown", "ModelParams", "OptimalityResult", "SolveReport",
    "SpaceTimeField", "SpatialGrid", "StateProblem", "TimeGrid",
    "apply_h_values", "apply_hstar_values", "bvp_gstar_h_values",
    "bvp_h_gstar_values", "capacity_limit", "cell_capacity_oracle",
    "check_GH_decomposition", "check_HGstar_decomposition",
    "check_M_decomposition", "check_fp_identity", "control_from_adjoint",
    "direct_minimize", "evaluate_J0", "extract_control_ode", "gradient_J0",
    "integrate_spacetime", "lift_timeop", "make_params", "neg_laplacian",
    "omega_mask", "relax_backward_values", "relax_forward_values",
    "residual_state", "solve_adjoint", "solve_linearized", "solve_optimality",
    "solve_state", "spacetime_inner", "sphere_area", "time_derivative_values",
    "trapezoid_weights",
}

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_public_exports():
    names = {name for name, value in vars(memoctrl).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == PUBLIC


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
