"""Command-line front end: solve, optimize, verify, sweep.

One flat JSON document configures a run (see CONFIG_EXAMPLE below and the
README); results go to an output directory as CSV fields, a cost-breakdown
JSON, and a run manifest recording the config echo, derived constants,
solver reports, file inventory, timings, and (for verify) the pass/fail
table.  Exit codes: 0 success, 1 config or validation error, 2 solver
non-convergence or breakdown, 3 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from .cost import evaluate_J0
from .fields import SpaceTimeField, SpatialGrid, omega_mask, spacetime_inner
from .optimality import solve_optimality
from .params import Box, make_params
from .state import StateProblem, solve_state
from .timeops import TimeGrid
from .verify import format_table, run_suite, suite_passed

CONFIG_EXAMPLE = {
    "n": 3,
    "C0": 1.0,
    "N": 1.0,
    "T": 1.0,
    "sim_dim": 1,
    "domain_box": {"lo": [0.0], "hi": [1.0]},
    "omega_box": {"lo": [0.25], "hi": [0.75]},
    "nodes_per_axis": [65],
    "nt": 128,
    "source": {"preset": "constant", "amplitude": 1.0},
    "control": {"preset": "zero"},
    "solver": {"tol": 1e-8, "max_picard": 200,
               "outer_tol": 1e-7, "outer_max": 100},
    "memory_cap_mb": 512,
}

# nodes x (nt + 1) float64 fields held at once during an optimize run, for
# the memory estimate: the tracemalloc peak of a whole CLI optimize call was
# 38.7 fields on 1-D 65 x 128, 37.2 on 129 x 256, 25.3 on 3-D 13^3 x 8 and
# 25.9 on 17^3 x 16 (caches cold; warm 37.8, 37.1, 23.7, 24.9)
_PERSISTENT_FIELDS = 40

# what a solver raises when it breaks down; reported as exit 2
_SOLVER_ERRORS = (RuntimeError, FloatingPointError, np.linalg.LinAlgError)


class ConfigError(ValueError):
    pass


def default_config():
    return copy.deepcopy(CONFIG_EXAMPLE)


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return normalize_config(raw)


def _real(value, what):
    """value, if it is a finite JSON number (an int beyond float range is not)."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return value


def _count(value, what, least):
    """value as an int, if it is a whole JSON number >= least."""
    if not float(_real(value, what)).is_integer() or value < least:
        raise ConfigError(f"{what} must be a whole number >= {least}, "
                          f"got {value!r}")
    return int(value)


def normalize_config(raw):
    """Fill defaults, validate every invariant, and return the canonical dict."""
    cfg = default_config()
    for key, val in raw.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(cfg[key], dict) and not isinstance(val, dict):
            raise ConfigError(f"{key} must be a JSON object")
        if key == "solver":
            bad = set(val) - set(cfg[key])
            if bad:
                raise ConfigError(f"unknown solver options {sorted(bad)}")
            cfg[key].update(val)
        else:
            cfg[key] = copy.deepcopy(val)
    for key in ("domain_box", "omega_box"):
        if set(cfg[key]) != {"lo", "hi"}:
            raise ConfigError(f"{key} needs the keys 'lo' and 'hi' only")
    cfg["n"] = _count(cfg["n"], "n (analysis dimension)", 3)
    try:
        params = build_params(cfg)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    nodes = cfg["nodes_per_axis"]
    if not isinstance(nodes, list) or len(nodes) != cfg["sim_dim"]:
        raise ConfigError("nodes_per_axis must list one count per axis")
    cfg["nodes_per_axis"] = [_count(m, "nodes per axis", 3) for m in nodes]
    cfg["nt"] = _count(cfg["nt"], "nt (time intervals)", 2)
    dt = params.T / cfg["nt"]  # dt * dt, unlike dt ** 2, cannot raise
    for name, value in (("An", params.An), ("Bn", params.Bn), ("mu", params.mu),
                        ("1/dt^2", 1.0 / (dt * dt) if dt * dt else math.inf)):
        if not 0 < value < math.inf:
            raise ConfigError(f"derived constant {name} = {value!r} is not "
                              f"finite and positive")
    s = cfg["solver"]
    for k in ("max_picard", "outer_max"):
        s[k] = _count(s[k], f"solver {k}", 1)
    for k in ("tol", "outer_tol"):
        if _real(s[k], f"solver {k}") <= 0:
            raise ConfigError(f"solver {k} must be positive, got {s[k]!r}")
    cap = _real(cfg["memory_cap_mb"], "memory_cap_mb")
    est_mb = (int(np.prod(cfg["nodes_per_axis"])) * (cfg["nt"] + 1)
              * _PERSISTENT_FIELDS * 8 / 2 ** 20)
    if est_mb > cap:
        raise ConfigError(
            f"estimated memory {est_mb:.0f} MB exceeds cap "
            f"{cap} MB (grid too large)")
    src = cfg["source"]
    if "csv" in src:
        source_keys = {"csv"}
        if not Path(src["csv"]).exists():
            raise ConfigError(f"source csv not found: {src['csv']}")
    elif src.get("preset") not in ("constant", "sine-product", "gaussian-bump"):
        raise ConfigError(f"unknown source preset {src.get('preset')!r}")
    elif src.get("time", "constant") not in ("constant", "ramp", "sine"):
        raise ConfigError(f"unknown source time modulation {src['time']!r}")
    else:
        source_keys = {"preset", "amplitude", "time"}
        if src["preset"] == "gaussian-bump":
            source_keys |= {"width", "center"}
            width = _real(src.get("width", 0.2), "source width")
            if not 0 < width * width < math.inf:
                raise ConfigError(f"source width must be > 0 with a finite, "
                                  f"nonzero square, got {width!r}")
            center = src.get("center", [0.0] * cfg["sim_dim"])
            if not isinstance(center, list) or len(center) != cfg["sim_dim"]:
                raise ConfigError("source center must list one number per "
                                  "axis")
            for c in center:
                _real(c, "source center coordinate")
    if cfg["control"].get("preset") not in ("zero", "ramp", "sine"):
        raise ConfigError(f"unknown control preset "
                          f"{cfg['control'].get('preset')!r}")
    for key, allowed in (("source", source_keys),
                         ("control", {"preset", "amplitude"})):
        bad = set(cfg[key]) - allowed
        if bad:
            raise ConfigError(f"unknown {key} keys {sorted(bad)}")
        _real(cfg[key].get("amplitude", 1.0), f"{key} amplitude")
    grid = SpatialGrid(params.domain_box, tuple(cfg["nodes_per_axis"]))
    omega_mask(grid, params)  # raises if omega grabs a boundary node
    return cfg


def build_params(cfg):
    return make_params(
        n=cfg["n"], C0=cfg["C0"], N=cfg["N"], T=cfg["T"],
        sim_dim=cfg["sim_dim"],
        domain_box=Box(tuple(cfg["domain_box"]["lo"]),
                       tuple(cfg["domain_box"]["hi"])),
        omega_box=Box(tuple(cfg["omega_box"]["lo"]),
                      tuple(cfg["omega_box"]["hi"])))


def build_grids(cfg, params):
    grid = SpatialGrid(params.domain_box,
                       tuple(int(m) for m in cfg["nodes_per_axis"]))
    tgrid = TimeGrid(T=params.T, nt=int(cfg["nt"]))
    return grid, tgrid


def build_source(cfg, params, grid, tgrid):
    src = cfg["source"]
    if "csv" in src:
        return field_from_csv(src["csv"], grid, tgrid)
    amp = float(src.get("amplitude", 1.0))
    kind = src["preset"]
    if kind == "constant":
        vals = np.full((grid.nnodes, tgrid.nt + 1), amp)
    elif kind == "sine-product":
        prof = np.ones(grid.nnodes)
        for ax, (lo, hi) in enumerate(zip(grid.box.lo, grid.box.hi)):
            prof *= np.sin(np.pi * (grid.coords[:, ax] - lo) / (hi - lo))
        vals = amp * prof[:, None] * np.ones(tgrid.nt + 1)[None, :]
    else:  # gaussian-bump
        center = src.get("center", [(lo + hi) / 2.0 for lo, hi
                                    in zip(grid.box.lo, grid.box.hi)])
        width = float(src.get("width", 0.2))
        d2 = np.zeros(grid.nnodes)
        for ax, cx in enumerate(center):
            d2 += (grid.coords[:, ax] - cx) ** 2
        vals = amp * np.exp(-d2 / (2 * width ** 2))[:, None] \
            * np.ones(tgrid.nt + 1)[None, :]
    tmod = src.get("time", "constant")
    if tmod == "ramp":
        vals = vals * (tgrid.times / tgrid.T)[None, :]
    elif tmod == "sine":
        vals = vals * np.sin(np.pi * tgrid.times / tgrid.T)[None, :]
    return SpaceTimeField(grid, tgrid, vals)


def build_control(cfg, params, grid, tgrid):
    ctl = cfg["control"]
    kind = ctl.get("preset", "zero")
    vals = np.zeros((grid.nnodes, tgrid.nt + 1))
    if kind != "zero":
        amp = float(ctl.get("amplitude", 1.0))
        w = omega_mask(grid, params)
        if kind == "ramp":
            vals[w] = amp * (tgrid.times / tgrid.T)[None, :]
        else:  # sine
            vals[w] = amp * np.sin(np.pi * tgrid.times / tgrid.T)[None, :]
        vals[:, 0] = 0.0
    return SpaceTimeField(grid, tgrid, vals)


# --- CSV I/O -------------------------------------------------------------

_AXIS_NAMES = ("x", "y", "z")

# nodes per write: the transient text is one block's rows, never the file
_CSV_BLOCK_NODES = 128


@lru_cache(maxsize=16)
def _coordinate_text(grid):
    """The "x,y,z," prefix of every node's rows, built once per grid."""
    return tuple("".join(f"{c!r}," for c in row)
                 for row in grid.coords.tolist())


def field_to_csv(field, path):
    """Columns (coords..., t, value), row-major: node index outer, time inner.

    Every number is repr(float), the shortest text that reads back exactly.
    """
    grid = field.grid
    prefixes = _coordinate_text(grid)
    times = [f"{t!r}," for t in field.tgrid.times.tolist()]
    with open(path, "w") as fh:
        fh.write(",".join(_AXIS_NAMES[:grid.dim]) + ",t,value\n")
        for start in range(0, grid.nnodes, _CSV_BLOCK_NODES):
            stop = start + _CSV_BLOCK_NODES
            rows = field.values[start:stop].tolist()
            fh.write("".join([f"{pre}{t}{v!r}\n"
                              for pre, row in zip(prefixes[start:stop], rows)
                              for t, v in zip(times, row)]))


def field_from_csv(path, grid, tgrid):
    """Read a field_to_csv file, checking every row's coordinates and time."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except ValueError as exc:
        raise ConfigError(f"cannot read field csv {path}: {exc}") from exc
    d, nt1 = grid.dim, tgrid.nt + 1
    expected = (grid.nnodes * nt1, d + 2)
    if data.shape != expected:
        raise ConfigError(f"field csv {path} has shape {data.shape} "
                          f"(rows, columns), expected {expected} for this grid")
    data = data.reshape(grid.nnodes, nt1, d + 2)
    if not np.allclose(data[..., :d], grid.coords[:, None, :], atol=1e-12):
        raise ConfigError(f"field csv {path} coordinates do not match the grid")
    if not np.allclose(data[..., d], tgrid.times, atol=1e-12):
        raise ConfigError(f"field csv {path} times do not match the time grid")
    # a copy, so the whole loadtxt array is not kept alive by a strided view
    return SpaceTimeField(grid, tgrid, data[..., d + 1].copy())


def breakdown_to_files(breakdown, out_dir):
    d = breakdown.as_dict()
    with open(out_dir / "breakdown.json", "w") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "breakdown.csv", "w") as fh:
        keys = sorted(d)
        fh.write(",".join(keys) + "\n")
        fh.write(",".join(repr(float(d[k])) for k in keys) + "\n")


def _write_manifest(out_dir, manifest):
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _base_manifest(cfg, params):
    return {
        "config": cfg,
        "derived_constants": {"An": params.An, "Bn": params.Bn,
                              "mu": params.mu},
        "reports": {},
        "outputs": [],
        "timings_s": {},
        "verify_suite": None,
    }


def _resolution(params, grid, tgrid):
    """Stiffness numbers of the grids: absorption and memory rate per step,
    absorption against the coarsest spatial cell."""
    return {"An_dt": params.An * tgrid.dt, "mu_dt": params.mu * tgrid.dt,
            "An_h2": params.An * max(grid.h) ** 2}


# each manifest report's loop and the solver option that caps it
_LOOPS = {"state": ("state Picard loop", "max_picard"),
          "adjoint": ("adjoint Picard loop", "max_picard"),
          "outer": ("outer sweep loop", "outer_max")}


def _exit_code(manifest):
    """0 if every reported loop converged; else 2, with one stderr line
    naming the first that did not."""
    for key, report in manifest["reports"].items():
        if not report["converged"]:
            loop, cap = _LOOPS[key]
            print(f"solver error: {loop} reached {cap} = "
                  f"{manifest['config']['solver'][cap]} without meeting its "
                  f"tolerance (final residual {report['final_residual']:.3e})",
                  file=sys.stderr)
            return 2
    return 0


def _report_dict(report):
    d = asdict(report)
    d["residual_history"] = [float(r) for r in d["residual_history"]]
    return d


# --- subcommands ----------------------------------------------------------

def cmd_solve(cfg, out_dir):
    params = build_params(cfg)
    grid, tgrid = build_grids(cfg, params)
    f = build_source(cfg, params, grid, tgrid)
    v = build_control(cfg, params, grid, tgrid)
    s = cfg["solver"]
    manifest = _base_manifest(cfg, params)
    manifest["resolution"] = _resolution(params, grid, tgrid)
    t0 = time.perf_counter()
    u, report = solve_state(StateProblem(
        params=params, f=f, v=v, tol=s["tol"], max_picard=s["max_picard"]))
    manifest["timings_s"]["solve"] = time.perf_counter() - t0
    manifest["reports"]["state"] = _report_dict(report)
    field_to_csv(u, out_dir / "u0.csv")
    manifest["outputs"].append("u0.csv")
    _write_manifest(out_dir, manifest)
    return _exit_code(manifest)


def cmd_optimize(cfg, out_dir):
    params = build_params(cfg)
    grid, tgrid = build_grids(cfg, params)
    f = build_source(cfg, params, grid, tgrid)
    s = cfg["solver"]
    manifest = _base_manifest(cfg, params)
    manifest["resolution"] = _resolution(params, grid, tgrid)
    t0 = time.perf_counter()
    result = solve_optimality(f, params, outer_tol=s["outer_tol"],
                              outer_max=s["outer_max"],
                              max_picard=s["max_picard"])
    manifest["timings_s"]["optimize"] = time.perf_counter() - t0
    for name, rep in result.reports.items():
        manifest["reports"][name] = _report_dict(rep)
    manifest["reports"]["outer"] = {
        "iterations": result.outer_iterations,
        "final_residual": result.outer_residual,
        "converged": result.converged,
        "picard_per_sweep": result.picard_per_sweep,
    }
    for name, field in (("u0", result.u0), ("p0", result.p0),
                        ("v0", result.v0)):
        field_to_csv(field, out_dir / f"{name}.csv")
        manifest["outputs"].append(f"{name}.csv")
    breakdown = evaluate_J0(result.v0, result.u0, params)
    breakdown_to_files(breakdown, out_dir)
    manifest["outputs"] += ["breakdown.json", "breakdown.csv"]
    lhs, rhs = breakdown.total, spacetime_inner(f, result.p0)
    manifest["fp_identity"] = {
        "J0_total": lhs, "integral_f_p0": rhs,
        "rel_gap": abs(lhs - rhs) / max(abs(rhs), 1e-300),
    }
    _write_manifest(out_dir, manifest)
    return _exit_code(manifest)


def cmd_verify(cfg, out_dir, seed, tamper_an=1.0):
    params = build_params(cfg)
    manifest = _base_manifest(cfg, params)
    manifest["seed"] = seed
    if tamper_an != 1.0:
        manifest["tamper_an"] = tamper_an
    t0 = time.perf_counter()
    results = run_suite(params, seed=seed, tamper_an=tamper_an)
    manifest["timings_s"]["verify"] = time.perf_counter() - t0
    manifest["verify_suite"] = [asdict(r) for r in results]
    _write_manifest(out_dir, manifest)
    print(format_table(results))
    ok = suite_passed(results)
    if not ok:
        worst = [r for r in results if not r.passed]
        for r in worst:
            print(f"FAILED invariant {r.name}: measured {r.measured:.6e} "
                  f"exceeds allowed {r.allowed:.6e}", file=sys.stderr)
    return 0 if ok else 3


_SWEEP_AXES = ("N", "C0", "omega_size", "nt", "h")


def _sweep_point_config(cfg, axis, value):
    point = copy.deepcopy(cfg)
    if axis == "N":
        point["N"] = float(value)
    elif axis == "C0":
        point["C0"] = float(value)
    elif axis == "nt":
        point["nt"] = int(value)
    elif axis == "h":
        point["nodes_per_axis"] = [int(value)] * cfg["sim_dim"]
    else:  # omega_size: scale the controlled box about its center
        lo = np.asarray(cfg["omega_box"]["lo"], dtype=float)
        hi = np.asarray(cfg["omega_box"]["hi"], dtype=float)
        center = (lo + hi) / 2.0
        half = (hi - lo) / 2.0 * float(value)
        point["omega_box"] = {"lo": (center - half).tolist(),
                              "hi": (center + half).tolist()}
    return normalize_config(point)


def _run_sweep_point(args):
    cfg, axis, value, out_sub = args
    out_dir = Path(out_sub)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        point = _sweep_point_config(cfg, axis, value)
        code = cmd_optimize(point, out_dir)
    except ConfigError as exc:
        return {"axis": axis, "value": value, "exit": 1, "error": str(exc)}
    except _SOLVER_ERRORS as exc:
        return {"axis": axis, "value": value, "exit": 2,
                "error": f"solver error: {exc}"}
    runtime = time.perf_counter() - t0
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    with open(out_dir / "breakdown.json") as fh:
        breakdown = json.load(fh)
    row = {"axis": axis, "value": value, "exit": code, "runtime_s": runtime}
    row.update({f"term_{k}": v for k, v in breakdown.items()})
    row.update(manifest["derived_constants"])
    row["N_param"] = manifest["config"]["N"]
    row["C0_param"] = manifest["config"]["C0"]
    row["fp_rel_gap"] = manifest["fp_identity"]["rel_gap"]
    row["outer_iterations"] = manifest["reports"]["outer"]["iterations"]
    row["converged"] = manifest["reports"]["outer"]["converged"]
    return row


def cmd_sweep(cfg, out_dir, axis, values, workers=1):
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; "
                          f"choose from {_SWEEP_AXES}")
    if len(values) < 2:
        raise ConfigError("sweep needs at least 2 values")
    jobs = [(cfg, axis, value, str(out_dir / f"point_{i:03d}"))
            for i, value in enumerate(values)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_point, jobs))
    else:
        rows = [_run_sweep_point(job) for job in jobs]
    keys = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    def fmt(x):
        if isinstance(x, bool) or x is None or isinstance(x, str):
            return str(x)
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return repr(float(x))

    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([fmt(row.get(k, "")) for k in keys] for row in rows)
    return 2 if any(row["exit"] != 0 for row in rows) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="memoctrl",
        description="Homogenized-limit optimal control runs and verification")
    parser.add_argument("--config", type=str, default=None,
                        help="path to the JSON run configuration")
    parser.add_argument("--out", type=str, default="out",
                        help="output directory")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for randomized verification inputs")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for sweep points")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="solve the state problem for the "
                                 "configured control")
    sub.add_parser("optimize", help="solve the coupled optimality system")
    pv = sub.add_parser("verify", help="run the executable invariant suite")
    pv.add_argument("--tamper-an", type=float, default=1.0,
                    help="multiply the absorption constant by this factor; "
                         "the suite must fail for any value != 1 "
                         "(sensitivity self-check)")
    ps = sub.add_parser("sweep", help="one optimize run per parameter value")
    ps.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    ps.add_argument("--values", required=True,
                    help="comma-separated list of values")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # usage errors are validation errors (exit 1); --help stays 0
        return 0 if exc.code == 0 else 1

    try:
        cfg = load_config(args.config) if args.config else normalize_config({})
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, seed=args.seed,
                              tamper_an=args.tamper_an)
        values = [float(v) for v in args.values.split(",") if v.strip()]
        if not values:
            raise ConfigError("empty sweep value list")
        return cmd_sweep(cfg, out_dir, args.axis, values,
                         workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
