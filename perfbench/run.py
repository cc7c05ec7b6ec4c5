"""Time-to-solution benchmark of memoctrl.

    python3 perfbench/run.py --workload optimize-1d --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One process, one caller, one call at a time (a closed loop).  The run builds
the workload's inputs from the seed, times `import memoctrl.cli` plus
`normalize_config` in fresh interpreters (`setup_s`, the median), then
calls `memoctrl.cli.main` in this process again and again for `--seconds`
seconds with tracing off.  Before the first call and after each call it
times a fixed reference kernel (hostspeed.py) for about a tenth of the
call's time.  `scaled_wall_s` is the median over the calls of each call's
wall time scaled by the kernel's nominal over its median time around that
call, so a host that runs slower while neighbours are busy moves it less
than the raw wall time (`wall_s`, the median, printed with the fastest and
slowest call, the CPU time and the kernel's time).  Every call's outputs are
checked (see checks.py) before the next.  With `--trace 1` one more call
runs with every public memoctrl function wrapped (see tracer.py) and the
run reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` (calls) and `metrics`, each metric a value and unit,
as named in BENCHMARK.json.  The lines above it print every metric by name
with unit and sample count.  `--workload all` runs each workload in its own
process and prints one table.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 5
VERIFY_ROWS = 31  # rows of run_suite at this commit

SETUP_SNIPPET = """
import json, sys, time
raw = json.load(open(sys.argv[1]))
t0 = time.perf_counter()
import memoctrl.cli
memoctrl.cli.normalize_config(raw)
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a result of the program)."""


def import_memoctrl():
    """Import memoctrl from this checkout's src/, never from elsewhere."""
    if not (SRC / "memoctrl" / "__init__.py").is_file():
        raise BenchError(f"no memoctrl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import memoctrl
    if SRC not in Path(memoctrl.__file__).resolve().parents:
        raise BenchError(f"memoctrl imported from {memoctrl.__file__}, "
                         f"not from {SRC}")
    return memoctrl


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment():
    """What the figures depend on besides the code."""
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text()
    except OSError:
        l3 = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"cpu": cpu, "nproc": os.cpu_count(), "l3": l3.strip(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def digest(out_dir, names):
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed, shrink=False):
        from memoctrl.cli import build_grids, build_params, field_to_csv, \
            normalize_config
        from memoctrl.fields import SpaceTimeField
        import numpy as np
        import hostspeed
        import workloads as W

        self.workload = workload
        self.work = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        raw = W.workload_config(workload, shrink)
        self.weights = None
        if workload.command == "optimize":
            cfg = normalize_config(raw)
            params = build_params(cfg)
            grid, tgrid = build_grids(cfg, params)
            self.weights = W.source_weights(seed)
            src = np.tensordot(self.weights, W.source_basis(grid, tgrid), 1)
            csv = self.work / "source.csv"
            field_to_csv(SpaceTimeField(grid, tgrid, src), csv)
            raw["source"] = {"csv": str(csv)}
            self.field_mb = grid.nnodes * (tgrid.nt + 1) * 8 / 1e6
        else:
            self.field_mb = None
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(raw, indent=1))
        self.cfg = normalize_config(raw)
        self.argv = ["--config", str(self.config_path), "--seed", str(seed)]
        refs = json.loads((HERE / "reference.json").read_text())
        key = workload.name + ("@shrunk" if shrink else "")
        self.reference = refs.get(key)
        self.kernel = hostspeed.ReferenceKernel()
        self.kernel.work()      # so its memory counts before the calls
        self.calls = 0
        self.failures = []      # (call index, reason)
        self.first_digest = None

    # --- set-up -----------------------------------------------------------

    def setup_times(self, reps=SETUP_REPS):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        for _ in range(reps):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_SNIPPET, str(self.config_path)],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise BenchError(f"set-up failed: {proc.stderr.strip()}")
            times.append(float(proc.stdout.split()[-1]))
        return times

    # --- one call of the workload ------------------------------------------

    def call(self):
        """Run the workload once; returns (wall s, CPU s, output dir, code).

        CPU time is the process's user + system time over the call (the
        call runs in one thread), so time the host gives to other
        processes is left out of it.
        """
        import memoctrl.cli
        out = self.work / f"call{self.calls}"
        argv = self.argv + ["--out", str(out), self.workload.command]
        self.calls += 1
        with contextlib.redirect_stdout(io.StringIO()):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = memoctrl.cli.main(argv)
            except Exception:  # a traceback is a failed call, not a crash
                code = "exception"
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        return wall, cpu, out, code

    def check(self, out, code):
        """Check one call's outputs; records and returns failure reasons."""
        import checks
        if code != 0:
            reasons = [f"exit code {code}"]
        elif self.workload.command == "verify":
            reasons = checks.check_verify(out, code, VERIFY_ROWS)
        else:
            names = ("u0.csv", "p0.csv", "v0.csv", "breakdown.json")
            d = digest(out, names)
            if self.first_digest is None:
                if self.reference is None:
                    reasons = ["no recorded J0 for this workload"]
                else:
                    reasons = checks.check_optimize(
                        out, code, self.cfg, self.reference, self.weights)
                if not reasons:
                    self.first_digest = d
            elif d != self.first_digest:
                reasons = ["outputs differ from the first call's"]
            else:
                reasons = []
        self.failures += [(self.calls - 1, r) for r in reasons]
        return reasons

    def timed_calls(self, seconds):
        """Calls for `seconds` seconds (at least one).

        Returns the calls' wall and CPU times and the blocks of times of
        the host speed kernel: one block before the first call and one
        after each call, each about a tenth of the call's wall time (at
        least one run), none of it counted in `seconds`.  The first call's
        outputs stay for the checks; each later call is compared with them
        and removed.
        """
        import hostspeed

        def kernel_block(wall):
            n = max(1, round(0.1 * wall / hostspeed.REF_S))
            return [self.kernel.time() for _ in range(n)]

        walls, cpus, blocks = [], [], [kernel_block(0.0)]
        start = time.perf_counter()
        untimed_s = 0.0
        while True:
            wall, cpu, out, code = self.call()
            walls.append(wall)
            cpus.append(cpu)
            t0 = time.perf_counter()
            self.check(out, code)
            if out.name != "call0":
                shutil.rmtree(out, ignore_errors=True)
            blocks.append(kernel_block(wall))
            untimed_s += time.perf_counter() - t0
            spent = time.perf_counter() - start - untimed_s
            if spent + statistics.median(walls) > seconds:
                return walls, cpus, blocks

    def traced_call(self):
        """One call with every public memoctrl function wrapped."""
        import tracer
        tr = tracer.Tracer()
        with tr:
            wall, _, out, code = self.call()
        self.check(out, code)
        for a, b in tracer.missing_edges(tr.spans):
            self.failures.append(
                (self.calls - 1, f"traced run: no span of {a} under {b}"))
        return wall, out, tr

    def failed_calls(self):
        return len({i for i, _ in self.failures})

    def fp_gap(self):
        """The first call's fp-identity gap; None when it wrote none."""
        import checks
        try:
            return checks.fp_gap(self.work / "call0", self.workload.command)
        except (OSError, KeyError, StopIteration, ValueError):
            return None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def scaled_wall(walls, blocks):
    """Median over the calls of wall time x REF_S / the median kernel time
    just before and after the call: the call's time on a host where the
    kernel takes REF_S."""
    import hostspeed
    return hostspeed.REF_S * statistics.median(
        wall / statistics.median(blocks[i] + blocks[i + 1])
        for i, wall in enumerate(walls))


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def units_of(spec):
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args, spec):
    import workloads as W
    workload = W.WORKLOADS[args.workload]
    env = environment()
    for key, val in env.items():
        print(f"env {key}: {val}")
    run = Run(workload, args.seed, shrink=args.shrink)
    try:
        if run.field_mb is not None:
            print(f"field size {run.field_mb:.3f} MB per field "
                  f"(L3 {env['l3']}): no memory-bandwidth claim")
        rss_before_mb = maxrss_mb()
        walls, cpus, blocks = run.timed_calls(args.seconds)
        peak_rss_mb = maxrss_mb()
        if args.trace:
            wall_t, _, tr = run.traced_call()
            import tracer
            layers = tracer.layer_metrics(tr.spans, wall_t)
            layers["trace.overhead_s"] = \
                len(tr.spans) * tracer.wrapper_cost_s()
            trace_file = WORK / f"trace-{workload.name}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"workload": workload.name, "seed": args.seed,
                 "wall_s": wall_t, "layers": layers, "spans": tr.spans}))
            print(f"spans: {len(tr.spans)} written to {trace_file}")
            table = [(k, v, tracer.unit_of(k), 1) for k, v in layers.items()]
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            setup = run.setup_times()
            table = [
                ("scaled_wall_s", scaled_wall(walls, blocks), "s",
                 len(walls)),
                ("wall_s", statistics.median(walls), "s", len(walls)),
                ("wall_min_s", min(walls), "s", len(walls)),
                ("wall_max_s", max(walls), "s", len(walls)),
                ("cpu_s", statistics.median(cpus), "s", len(cpus)),
                ("ref_kernel_s", statistics.median(sum(blocks, [])), "s",
                 len(sum(blocks, []))),
                ("setup_s", statistics.median(setup), "s", len(setup)),
                ("peak_rss_mb", peak_rss_mb, "MB", 1),
                ("rss_growth_mb", peak_rss_mb - rss_before_mb, "MB", 1),
                ("fp_gap", run.fp_gap(), "1", 1),
                ("failed_frac", run.failed_calls() / run.calls, "1",
                 run.calls),
            ]
            wanted = [m["name"] for m in spec["end_to_end"]]
        failed = run.failed_calls()
        for i, reason in run.failures:
            print(f"FAILED call {i}: {reason}")
        print(f"workload {workload.name} seed {args.seed}: "
              f"{run.calls} call(s), {failed} failed")
        for name, value, unit, n in table:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:34s} {shown:>14s} {unit:6s} (n={n})")
        values = {name: value for name, value, _, _ in table}
        units = units_of(spec)
        result = {
            "correct": failed == 0,
            "attempted": run.calls,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in wanted},
        }
    finally:
        run.close()
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; one summary table."""
    import workloads as W
    rows = {}
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.shrink:
            cmd.append("--shrink")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        rows[name] = json.loads(lines[-1])
    print(json.dumps(rows))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true",
                        help="self-test grids (tiny; figures meaningless)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        spec = load_spec()
        import_memoctrl()
        if args.workload == "all":
            run_all(args)
        else:
            import workloads as W
            if args.workload not in W.WORKLOADS:
                raise BenchError(f"unknown workload {args.workload!r}; "
                                 f"choose from {sorted(W.WORKLOADS)} or all")
            run_one(args, spec)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
