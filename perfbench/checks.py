"""Per-run correctness check of one workload call's outputs.

An `optimize` call passes when it exited 0, the manifest reports `converged`
for the outer, state and adjoint solves, p0(T) equals u0(T) on interior
nodes, `extract_control_ode(p0)` reproduces v0, and J0 in breakdown.json
matches the value recorded for the workload and seed.  A `verify` call
passes when it exited 0 with every one of the expected rows passing.
Each check returns a list of failure reasons; empty means the call passed.
"""

from __future__ import annotations

import json

import numpy as np

TERMINAL_TOL = 1e-10      # |p0(T) - u0(T)| on interior nodes
CONTROL_TOL = 1e-10       # |ode(p0) - v0| <= CONTROL_TOL * max(1, |v0|)


def read_field_values(path, nnodes, nt):
    """Value column of a field CSV as an (nnodes, nt+1) array."""
    vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=-1)
    if vals.shape != (nnodes * (nt + 1),):
        raise ValueError(f"{path} has {vals.shape[0]} rows, "
                         f"expected {nnodes * (nt + 1)}")
    return vals.reshape(nnodes, nt + 1)


def predicted_J0(reference, weights):
    """J0 of the seeded source from the recorded Gram matrix of its basis.

    The optimal pair is linear in the source and J0 is a quadratic form in
    the pair, so J0(sum_k w_k f_k) = w^T Q w with Q_kl = B(f_k, f_l).
    """
    Q = np.asarray(reference["gram"], dtype=float)
    w = np.asarray(weights, dtype=float)
    return float(w @ Q @ w)


def check_optimize(out_dir, code, cfg, reference, weights):
    """Failure reasons for one `optimize` call (empty list: passed)."""
    from memoctrl.cli import build_grids, build_params
    from memoctrl.fields import SpaceTimeField
    from memoctrl.optimality import extract_control_ode

    if code != 0:
        return [f"exit code {code}"]
    failures = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for solve in ("outer", "state", "adjoint"):
        if not manifest["reports"].get(solve, {}).get("converged"):
            failures.append(f"{solve} solve not converged")

    params = build_params(cfg)
    grid, tgrid = build_grids(cfg, params)
    fields = {name: read_field_values(out_dir / f"{name}.csv",
                                      grid.nnodes, tgrid.nt)
              for name in ("u0", "p0", "v0")}
    interior = grid.interior_idx
    p_T, u_T = fields["p0"][interior, -1], fields["u0"][interior, -1]
    gap = np.max(np.abs(p_T - u_T))
    if not gap <= TERMINAL_TOL:
        failures.append(f"|p0(T) - u0(T)| = {gap:.3e} > {TERMINAL_TOL:g}")

    v0 = fields["v0"]
    v_ode = extract_control_ode(
        SpaceTimeField(grid, tgrid, fields["p0"]), params).values
    excess = np.max(np.abs(v_ode - v0) / np.maximum(1.0, np.abs(v0)))
    if not excess <= CONTROL_TOL:
        failures.append(f"extract_control_ode(p0) vs v0: {excess:.3e} "
                        f"> {CONTROL_TOL:g} relative")

    J0 = json.loads((out_dir / "breakdown.json").read_text())["total"]
    want = predicted_J0(reference, weights)
    rel = abs(J0 - want) / abs(want)
    if not rel <= reference["rel_tol"]:
        failures.append(f"J0 = {J0!r}, recorded {want!r} "
                        f"(relative gap {rel:.3e} > {reference['rel_tol']:g})")
    return failures


def check_verify(out_dir, code, expected_rows):
    """Failure reasons for one `verify` call (empty list: passed)."""
    if code != 0:
        return [f"exit code {code}"]
    rows = json.loads((out_dir / "manifest.json").read_text())["verify_suite"]
    failures = [f"row {r['name']} failed" for r in rows if not r["passed"]]
    if len(rows) != expected_rows:
        failures.append(f"{len(rows)} rows, expected {expected_rows}")
    return failures


def fp_gap(out_dir, command):
    """The fp-identity relative gap the call reports."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if command == "optimize":
        return float(manifest["fp_identity"]["rel_gap"])
    row = next(r for r in manifest["verify_suite"]
               if r["name"] == "cost/fp-identity")
    return float(row["measured"])
