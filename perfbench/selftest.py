"""Fast self-test of the benchmark on shrunken grids.

    python3 perfbench/selftest.py

Runs every workload through run.py with tracing on (which also makes the
untraced, checked calls) and one with tracing off, and checks each result
line against BENCHMARK.json.  In process it then shows that the correctness
check fails a perturbed v0.csv, a non-converged manifest and a wrong J0,
that the traced counts repeat exactly, and that run.py refuses to run in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds.  The figures it prints mean nothing: the
grids are tiny.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run  # pins the BLAS threads before numpy loads

FAILS = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        FAILS.append(what)


def run_cli(workload, trace, cwd=run.ROOT, script=run.HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--shrink"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result_lines(spec):
    import workloads as W
    for name in W.WORKLOADS:
        for trace in ((0, 1) if name == "optimize-3d" else (1,)):
            proc = run_cli(name, trace)
            lines = proc.stdout.splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                res = {}
            want = spec["per_layer" if trace else "end_to_end"]
            expect(proc.returncode == 0 and res.get("correct") is True
                   and res.get("failed") == 0 and res.get("attempted", 0) >= 1,
                   f"{name} trace={trace}: exit 0, correct, nothing failed")
            expect(set(res.get("metrics", {})) == {m["name"] for m in want}
                   and all(res["metrics"][m["name"]]["unit"] == m["unit"]
                           for m in want),
                   f"{name} trace={trace}: exactly the BENCHMARK.json metrics")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])


def check_failures_detected():
    import checks
    import tracer
    import workloads as W
    r = run.Run(W.WORKLOADS["optimize-1d"], 7, shrink=True)
    try:
        _, _, out, code = r.call()
        expect(r.check(out, code) == [], "unperturbed outputs pass")
        good = r.work / "good"
        shutil.copytree(out, good)

        v0 = (out / "v0.csv").read_text().splitlines()
        row = len(v0) // 2 + 1
        cells = v0[row].split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-6) + 1e-9)
        v0[row] = ",".join(cells)
        (out / "v0.csv").write_text("\n".join(v0) + "\n")
        bad = checks.check_optimize(out, 0, r.cfg, r.reference, r.weights)
        expect(any("extract_control_ode" in b for b in bad),
               "a perturbed v0.csv fails the check")

        shutil.rmtree(out)
        shutil.copytree(good, out)
        man = json.loads((out / "manifest.json").read_text())
        man["reports"]["state"]["converged"] = False
        (out / "manifest.json").write_text(json.dumps(man))
        bad = checks.check_optimize(out, 0, r.cfg, r.reference, r.weights)
        expect(bad == ["state solve not converged"],
               "a non-converged manifest fails the check")

        bad = checks.check_optimize(good, 0, r.cfg, r.reference,
                                    r.weights * 1.001)
        expect(len(bad) == 1 and bad[0].startswith("J0"),
               "a J0 off the recorded value fails the check")
        expect(checks.check_optimize(good, 2, r.cfg, r.reference, r.weights)
               == ["exit code 2"], "a non-zero exit fails the check")

        counts = []
        for _ in range(2):
            wall, out, tr = r.traced_call()
            m = tracer.layer_metrics(tr.spans, wall)
            counts.append({k: v for k, v in m.items()
                           if tracer.unit_of(k) in ("count", "bytes")})
        expect(counts[0] == counts[1] and counts[0]["state.picard_iters"] > 0,
               "traced counts repeat exactly at a fixed seed")
        expect(not r.failures, "traced calls match the untraced outputs")
        expect(tracer.missing_edges([["x", 0.0, 1.0, -1, None]])
               == list(tracer.REQUIRED_EDGES),
               "a trace without the required spans is flagged")
    finally:
        r.close()


def check_refuses_bare_tree():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_cli("optimize-1d", 0, cwd=bare,
                       script=bare / run.HERE.name / "run.py")
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               "without the program, run.py exits non-zero, prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    sys.path.insert(0, str(run.HERE))
    run.import_memoctrl()
    spec = run.load_spec()
    check_result_lines(spec)
    check_failures_detected()
    check_refuses_bare_tree()
    print(f"selftest: {len(FAILS)} failed")
    return 1 if FAILS else 0


if __name__ == "__main__":
    sys.exit(main())
