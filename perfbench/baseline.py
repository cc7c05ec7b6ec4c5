"""Measure the benchmark's spread and record a baseline.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Runs run.py once per seed (1..10) and BENCHMARK.json workload, two sets
over, with tracing off and BENCHMARK.json's run length, then once per
workload with tracing on.  For every
end-to-end metric it prints each set's median and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to a third of the metric's bound in BENCHMARK.json, and
the same for the raw wall and CPU times, the reference kernel's time and
the memory growth that run.py prints.
With `--out` it writes every run's figures there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import tracer

SETS, SEEDS = 2, 10
# Printed figures whose spread is shown beside the gated metrics'.
SHOWN = ("wall_s", "wall_min_s", "cpu_s", "ref_kernel_s", "rss_growth_mb")


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def printed(stdout):
    """The metric table run.py prints above the result line."""
    table = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 4 and parts[1] != "n/a":
            table[parts[0]] = float(parts[1])
    return table


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"environment": None, "run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for seed in range(1, SEEDS + 1):
                res, stdout = one_run(name, seed, seconds, 0)
                if record["environment"] is None:
                    record["environment"] = dict(
                        line[4:].split(": ", 1) for line in stdout.splitlines()
                        if line.startswith("env "))
                runs.append({"seed": seed, "correct": res["correct"],
                             "attempted": res["attempted"],
                             "failed": res["failed"], **printed(stdout),
                             **{k: v["value"]
                                for k, v in res["metrics"].items()}})
                print(f"{name} set {s} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                    + f" failed={res['failed']}/{res['attempted']}",
                    flush=True)
            sets.append(runs)
        summary = {}
        for metric, bound in [*bounds.items(), *((m, None) for m in SHOWN)]:
            meds = [statistics.median(r[metric] for r in runs)
                    for runs in sets]
            sprs = [spread([r[metric] for r in runs]) for runs in sets]
            summary[metric] = {"medians": meds, "spreads": sprs,
                               "bound": bound}
            print(f"{name} {metric}: medians "
                  + " ".join(f"{m:.6g}" for m in meds) + "  spreads "
                  + " ".join(f"{x:.4f}" for x in sprs)
                  + (f"  (bound {bound}, a third {bound / 3:.4f})"
                     if bound else "  (printed, not gated)"), flush=True)
        one_run(name, 1, seconds, 1)
        trace = json.loads((run.WORK / f"trace-{name}-seed1.json").read_text())
        entry = {"sets": sets, "summary": summary, "traced_seed1": {
            "wall_s": trace["wall_s"], "layers": trace["layers"],
            "shares": {k: v / trace["wall_s"]
                       for k, v in trace["layers"].items()
                       if tracer.unit_of(k) == "s"
                       and k != "trace.overhead_s"}}}
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
