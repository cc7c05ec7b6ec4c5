"""Per-layer spans and counts, recorded from outside the solver.

`Tracer.install()` wraps every public function of every `memoctrl` module
and puts the wrapper in each module namespace that binds the function, so a
call is traced whichever module looks the name up: `state` binds
`apply_h_values` by import, `optimality` binds `solve_state`, and the
`fields._TIME_OPS` lambdas resolve their kernels through `fields` globals.
Spans (name, start, end, parent) and the counts read off arguments and
return values stay in memory until the run ends.  A layer is a module;
`layer_metrics` turns the spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import defaultdict

MODULES = ("params", "timeops", "fields", "state", "optimality", "cost",
           "oracles", "verify", "cli")

# The CLI entry points span the whole call, so a span there would make the
# coverage figure trivially 1; everything below them is traced.
ENTRY_POINTS = {"cli.main", "cli.cmd_solve", "cli.cmd_optimize",
                "cli.cmd_verify", "cli.cmd_sweep"}

# Named groups of functions behind the per-layer metrics.
GROUPS = {
    "cli.config": ("cli.normalize_config",),
    "cli.read": ("cli.field_from_csv",),
    "cli.write": ("cli.field_to_csv", "cli.breakdown_to_files"),
    "optimality.solve": ("optimality.solve_optimality",),
    "optimality.adjoint": ("optimality.solve_adjoint",),
    "optimality.control": ("optimality.control_from_adjoint",),
    "optimality.adjoint_source": ("optimality.adjoint_source",),
    "timeops.relax": ("timeops.relax_forward_values",
                      "timeops.relax_backward_values"),
    "timeops.bvp": ("timeops.bvp_gstar_h_values", "timeops.bvp_h_gstar_values",
                    "timeops.apply_h_values", "timeops.apply_hstar_values"),
    "fields.lift": ("fields.lift_timeop",),
    "fields.quad": ("fields.spacetime_inner", "fields.dt_inner",
                    "fields.grad_inner", "fields.space_inner_at",
                    "fields.integrate_space_at", "fields.integrate_spacetime"),
    "fields.laplacian": ("fields.laplacian_matrix",),
    "fields.mask": ("fields.omega_mask",),
    "cost.eval": ("cost.evaluate_J0",),
    "cost.gradient": ("cost.gradient_J0", "cost.gradient_J0_terms"),
    "cost.fp_identity": ("cost.check_fp_identity",),
    "params.capacity": ("params.capacity_limit",),
    "oracles.all": ("oracles.shoot_gstar_h", "oracles.shoot_h_gstar",
                "oracles.picard_h", "oracles.picard_hstar",
                "oracles.rk4_march", "oracles.rk4_relax_forward",
                "oracles.dense_state_solve", "oracles.dense_optimality_solve"),
    "verify.suite": ("verify.run_suite",),
}

# (callee, caller) pairs every workload runs: each proves the wrapper sits
# where that caller looks the name up.
REQUIRED_EDGES = (
    ("timeops.apply_h_values", "state.solve_state"),
    ("timeops.relax_forward_values", "state.solve_state"),
    ("state.solve_state", "optimality.solve_optimality"),
    ("timeops.relax_backward_values", "fields.lift_timeop"),
    ("timeops.bvp_gstar_h_values", "fields.lift_timeop"),
)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _series(arr):
    shape = getattr(arr, "shape", ())
    rows = math.prod(shape[:-1]) if len(shape) > 1 else 1
    return {"series": rows, "samples": rows * (shape[-1] if shape else 0)}


def _solve_counts(out):
    """Counts of a (field, SolveReport) return value."""
    field, report = out
    hist = [float(r) for r in report.residual_history]
    return {"picard": report.iterations,
            "nt": field.tgrid.nt,
            "interior": len(field.grid.interior_idx),
            "log_ratio": sum(math.log(b / a) for a, b in zip(hist, hist[1:])
                             if a > 0 and b > 0),
            "ratios": sum(1 for a, b in zip(hist, hist[1:])
                          if a > 0 and b > 0)}


# Readers of counts, keyed by traced name: (args, kwargs, return) -> dict.
PROBES = {
    "cli.field_from_csv": lambda a, k, out: {"bytes": _file_size(a[0])},
    "cli.field_to_csv": lambda a, k, out: {"bytes": _file_size(a[1])},
    "cli.breakdown_to_files": lambda a, k, out: {"bytes": sum(
        _file_size(os.path.join(a[1], n))
        for n in ("breakdown.json", "breakdown.csv"))},
    "state.solve_state": lambda a, k, out: _solve_counts(out),
    "optimality.solve_adjoint": lambda a, k, out: _solve_counts(out),
    "optimality.solve_optimality":
        lambda a, k, out: {"sweeps": out.outer_iterations},
    "verify.run_suite": lambda a, k, out: {"rows": len(out)},
}
for _name in GROUPS["timeops.relax"] + GROUPS["timeops.bvp"]:
    PROBES[_name] = lambda a, k, out: _series(a[0])


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, counts]
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                rec[4] = probe(args, kwargs, out)
            return out
        return traced

    def install(self):
        modules = {m: importlib.import_module(f"memoctrl.{m}")
                   for m in MODULES}
        modules[""] = importlib.import_module("memoctrl")
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (short and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and name not in ENTRY_POINTS):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def wrapper_cost_s(calls=20_000, reps=10):
    """Seconds one span adds to a call: a wrapped no-op against a bare one.

    The fastest of `reps` rounds of `calls` calls each, so the estimate
    does not depend on the workload's own timing; probes are not counted.
    """
    def noop():
        return None

    tr = Tracer()
    wrapped = tr._wrap("noop", noop)
    clock = time.perf_counter
    best = {}
    for fn in (noop, wrapped):
        times = []
        for _ in range(reps):
            t0 = clock()
            for _ in range(calls):
                fn()
            times.append(clock() - t0)
            tr.spans.clear()
        best[fn] = min(times) / calls
    return best[wrapped] - best[noop]


def _ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield p
        p = spans[p][3]


def missing_edges(spans):
    """REQUIRED_EDGES never seen: the callee never ran under the caller."""
    seen = set()
    for i, s in enumerate(spans):
        for p in _ancestors(spans, i):
            seen.add((s[0], spans[p][0]))
    return [e for e in REQUIRED_EDGES if e not in seen]


def layer_metrics(spans, wall_s):
    """Per-layer busy/self times and counts from the spans of one run.

    A group's busy time sums its spans that have no ancestor in the same
    group, so nesting is not counted twice; self time is a span's duration
    minus that of its direct children.
    """
    group_of = {fn: g for g, fns in GROUPS.items() for fn in fns}
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    busy = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    under_opt = 0
    for i, (name, t0, t1, _, c) in enumerate(spans):
        layer = name.split(".")[0]
        dur = t1 - t0
        self_s[layer] += dur - child_time[i]
        anc = [spans[p][0] for p in _ancestors(spans, i)]
        anc_layers = {a.split(".")[0] for a in anc}
        if layer not in anc_layers:
            busy[layer] += dur
            calls[layer] += 1
        g = group_of.get(name)
        if g is not None and not any(group_of.get(a) == g for a in anc):
            busy[g] += dur
            calls[g] += 1
            for key, val in (c or {}).items():
                counts[f"{g}.{key}"] += val
        if name in ("state.solve_state", "optimality.solve_adjoint") and c:
            for key in ("picard", "log_ratio", "ratios"):
                counts[f"{name}.{key}"] += c[key]
            counts[f"{name}.steps"] += c["picard"] * c["nt"]
            counts[f"{name}.unknown_steps"] += \
                c["picard"] * c["nt"] * c["interior"]
            if "optimality.solve_optimality" in anc:
                under_opt += c["picard"]
    series = counts["timeops.relax.series"] + counts["timeops.bvp.series"]
    samples = counts["timeops.relax.samples"] + counts["timeops.bvp.samples"]
    sweeps = counts["optimality.solve.sweeps"]
    write_bytes = counts["cli.write.bytes"]
    unknown_steps = counts["state.solve_state.unknown_steps"]
    ratios = counts["state.solve_state.ratios"]
    m = {
        "cli.config_s": busy["cli.config"],
        "cli.read_s": busy["cli.read"],
        "cli.read_bytes": counts["cli.read.bytes"],
        "cli.write_s": busy["cli.write"],
        "cli.write_bytes": write_bytes,
        "cli.write_mb_per_s": (write_bytes / 1e6 / busy["cli.write"]
                               if busy["cli.write"] > 0 else 0.0),
        "state.busy_s": busy["state"],
        "state.self_s": self_s["state"],
        "state.calls": calls["state"],
        "state.picard_iters": counts["state.solve_state.picard"],
        "state.march_steps": counts["state.solve_state.steps"],
        "state.ns_per_unknown_step": (self_s["state"] / unknown_steps * 1e9
                                      if unknown_steps else 0.0),
        "state.contraction": (math.exp(counts["state.solve_state.log_ratio"]
                                       / ratios) if ratios else 0.0),
        "optimality.busy_s": busy["optimality"],
        "optimality.self_s": self_s["optimality"],
        "optimality.outer_sweeps": sweeps,
        "optimality.adjoint_s": busy["optimality.adjoint"],
        "optimality.adjoint_calls": calls["optimality.adjoint"],
        "optimality.adjoint_picard_iters":
            counts["optimality.solve_adjoint.picard"],
        "optimality.control_s": busy["optimality.control"],
        "optimality.control_calls": calls["optimality.control"],
        "optimality.adjoint_source_s": busy["optimality.adjoint_source"],
        "optimality.march_apps_per_sweep": (under_opt / sweeps
                                            if sweeps else 0.0),
        "timeops.relax_s": busy["timeops.relax"],
        "timeops.relax_calls": calls["timeops.relax"],
        "timeops.bvp_s": busy["timeops.bvp"],
        "timeops.bvp_calls": calls["timeops.bvp"],
        "timeops.series": series,
        "timeops.ns_per_sample": ((busy["timeops.relax"] + busy["timeops.bvp"])
                                  / samples * 1e9 if samples else 0.0),
        "fields.lift_s": busy["fields.lift"],
        "fields.lift_calls": calls["fields.lift"],
        "fields.quad_s": busy["fields.quad"],
        "fields.quad_calls": calls["fields.quad"],
        "fields.laplacian_builds": calls["fields.laplacian"],
        "fields.laplacian_s": busy["fields.laplacian"],
        "fields.mask_calls": calls["fields.mask"],
        "cost.eval_s": busy["cost.eval"],
        "cost.eval_calls": calls["cost.eval"],
        "cost.gradient_s": busy["cost.gradient"],
        "cost.fp_identity_s": busy["cost.fp_identity"],
        "params.capacity_s": busy["params.capacity"],
        "oracles.s": busy["oracles.all"],
        "oracles.calls": calls["oracles.all"],
        "verify.rows": counts["verify.suite.rows"],
        "verify.self_s": self_s["verify"],
        "trace.coverage": sum(self_s.values()) / wall_s,
    }
    return {k: int(v) if unit_of(k) in ("count", "bytes") else v
            for k, v in m.items()}


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_s", ".s")):
        return "s"
    if "ns_per" in name:
        return "ns"
    if name.endswith("_per_sweep"):
        return "1/sweep"
    if name in ("trace.coverage", "state.contraction"):
        return "1"
    return "count"
