"""Record the J0 reference of the optimize workloads in reference.json.

    python3 perfbench/record_reference.py [--shrink] [workload ...]

The optimal pair is linear in the source and J0 is a quadratic form in the
pair, so J0 of any seeded source sum_k w_k f_k is w^T Q w, with Q the Gram
matrix of the source basis under that form.  Q is measured here by
polarization, one `optimize` call per basis element and per pair, through
the same CLI path the benchmark times; two seeds are then run in full and
compared with the prediction.  Rerun it when a change moves the discrete
optimum itself (a new discretisation), never to make a failing check pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from itertools import combinations

import run  # pins the BLAS threads before numpy loads

import numpy as np  # noqa: E402

# Allowed relative gap between the breakdown's J0 and the prediction.  The
# solves stop at outer_tol 1e-7 (absolute), which moves J0 by ~1e-8
# relative; a change of discretisation moves it by ~1e-3.
REL_TOL = 1e-6
CHECK_SEEDS = (101, 202)


def optimize_J0(work, raw, grid, tgrid, values, tag):
    from memoctrl.cli import field_to_csv, main
    from memoctrl.fields import SpaceTimeField
    csv = work / f"source-{tag}.csv"
    field_to_csv(SpaceTimeField(grid, tgrid, values), csv)
    cfg_path = work / f"config-{tag}.json"
    cfg_path.write_text(json.dumps(dict(raw, source={"csv": str(csv)})))
    out = work / f"out-{tag}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(cfg_path), "--out", str(out), "optimize"])
    if code != 0:
        raise RuntimeError(f"optimize exited {code} for source {tag}")
    J0 = json.loads((out / "breakdown.json").read_text())["total"]
    shutil.rmtree(out)
    return J0


def record(workload, shrink, work):
    from memoctrl.cli import build_grids, build_params, normalize_config
    import checks
    import workloads as W
    raw = W.workload_config(workload, shrink)
    cfg = normalize_config(raw)
    params = build_params(cfg)
    grid, tgrid = build_grids(cfg, params)
    basis = W.source_basis(grid, tgrid)
    k = len(basis)
    diag = [optimize_J0(work, raw, grid, tgrid, basis[i], f"e{i}")
            for i in range(k)]
    Q = np.diag(diag)
    for i, j in combinations(range(k), 2):
        both = optimize_J0(work, raw, grid, tgrid, basis[i] + basis[j],
                           f"e{i}e{j}")
        Q[i, j] = Q[j, i] = (both - diag[i] - diag[j]) / 2.0
    ref = {"gram": Q.tolist(), "rel_tol": REL_TOL, "seed_check": {}}
    for seed in CHECK_SEEDS:
        w = W.source_weights(seed)
        got = optimize_J0(work, raw, grid, tgrid,
                          np.tensordot(w, basis, 1), f"seed{seed}")
        want = checks.predicted_J0(ref, w)
        ref["seed_check"][str(seed)] = {"J0": got, "predicted": want,
                                        "rel_gap": abs(got - want) / abs(want)}
        print(f"{workload.name} seed {seed}: J0 {got!r} predicted {want!r} "
              f"rel gap {abs(got - want) / abs(want):.3e}", flush=True)
    return ref


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*")
    parser.add_argument("--shrink", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(run.HERE))
    run.import_memoctrl()
    import workloads as W
    names = args.names or [n for n, w in W.WORKLOADS.items()
                           if w.command == "optimize"]
    path = run.HERE / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        work = run.WORK / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        key = name + ("@shrunk" if args.shrink else "")
        refs[key] = record(W.WORKLOADS[name], args.shrink, work)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
