"""Benchmark for scce: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload boot_cli --seed 1 --seconds 20 --trace 0

The package is imported from ./src. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it record the run's provenance and its unscaled wall times. Times are
reported at a reference machine speed (see speed.py). With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run times half its ops untraced and half
traced, reports the per-layer metrics derived from the spans, and writes the
spans to .perfbench/. See perfbench/README.md for the workloads and metrics.
"""

import os

# BLAS and OpenMP run one thread each, set before numpy loads, so that no
# workload uses more threads than the 2 vCPUs the benchmark was built on.
# SCCE_THREADS, read by scce at call time, is set per workload in main().
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SCCE_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
# Fresh interpreters timed per run for setup_s. The run's own import of scce
# has already written the bytecode caches they read.
SETUP_REPEATS = {"full": 3, "toy": 1}


def import_program():
    """Import scce from ./src, and only from there."""
    if not (SRC / "scce" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'scce'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import scce
    if Path(scce.__file__).resolve().parent != (SRC / "scce").resolve():
        sys.exit(f"error: imported scce from {scce.__file__}, not from {SRC}")
    return scce


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "git_sha": sha,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}, "seed": seed}


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median time of a fresh interpreter running `import scce, scce.cli`:
    at the reference speed, and as measured."""
    cmd = [sys.executable, "-c", "import scce, scce.cli"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    walls, kernels = [], [speed.kernel_seconds()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        kernels.append(speed.kernel_seconds())
    scaled = [w * f for w, f in zip(walls, speed.factors(kernels))]
    return statistics.median(scaled), statistics.median(walls)


class Tally:
    """Ops attempted and failed; wall time, speed factor and work of each op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.factors: list[float] = []
        self.work: list[int] = []

    def run(self, wl, state, ref, call) -> None:
        """Run and check one op; a failed op does no work."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call(wl.op, state)
        except Exception:
            wall = time.perf_counter() - t0
            problems = [traceback.format_exc(limit=3)]
        else:
            wall = time.perf_counter() - t0
            problems = wl.check(state, out, ref)
        self.walls.append(wall)
        if problems:
            self.failed += 1
            self.work.append(0)
            print(f"op {self.attempted} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        else:
            self.work.append(wl.work(state, out))

    def measure(self, wl, state, ref, seconds: float, call=None) -> slice:
        """Run ops until their summed wall time reaches `seconds` (at least one),
        each between two runs of the speed kernel; return the slice of the
        tallies that holds them."""
        call = call or (lambda op, s: op(s))
        start = len(self.walls)
        kernels = [speed.kernel_seconds()]
        while len(self.walls) == start or sum(self.walls[start:]) < seconds:
            self.run(wl, state, ref, call)
            kernels.append(speed.kernel_seconds())
        self.factors += speed.factors(kernels)
        return slice(start, len(self.walls))

    def op_s(self, ops: slice) -> float:
        """Median op time at the reference speed."""
        return statistics.median(w * f for w, f in zip(self.walls[ops], self.factors[ops]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["boot_cli", "mc_cell", "wide_panel", "csv_ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full",
                        help="toy inputs are for the benchmark's self-test")
    parser.add_argument("--references", type=Path, default=HERE / "references.json",
                        help="stored reference results (default: perfbench/references.json)")
    args = parser.parse_args(argv)

    import_program()
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    threads = wl.threads
    os.environ["SCCE_THREADS"] = str(threads)
    print(json.dumps({"provenance": provenance(args.seed), "workload": args.workload,
                      "size": args.size}), flush=True)

    setup_s, setup_wall_s = measure_setup(SETUP_REPEATS[args.size])
    input_seed = args.seed % workloads.N_REF_SEEDS
    ref = json.loads(args.references.read_text())[args.size][args.workload][str(input_seed)]
    OUT.mkdir(exist_ok=True)
    state = wl.setup(workloads.SIZES[args.size][args.workload], input_seed, OUT)
    try:
        tally = Tally()
        if not args.trace:
            ops = tally.measure(wl, state, ref, args.seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (tally.op_s(ops), "s"),
                "work_per_s": (statistics.median(
                    n / (w * f) for n, w, f in
                    zip(tally.work[ops], tally.walls[ops], tally.factors[ops])), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            untraced = tally.measure(wl, state, ref, args.seconds / 2)
            recorder = spans.Recorder()
            recorder.install()
            try:
                traced = tally.measure(wl, state, ref, args.seconds / 2, call=recorder.run_op)
            finally:
                recorder.uninstall()
            layer = spans.layer_metrics(recorder, threads, tally.factors[traced])
            layer["trace.overhead_frac"] = tally.op_s(traced) / tally.op_s(untraced) - 1.0
            metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
            trace_path = OUT / f"trace-{args.size}-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "threads": threads,
                "op_walls": tally.walls[traced], "speed_factors": tally.factors[traced],
                "span_fields": list(spans.Span.__dataclass_fields__),
                "ops": recorder.dump()}))
    finally:
        if "csv" in state:
            Path(state["csv"]).unlink(missing_ok=True)

    print(json.dumps({"unscaled": {
        "setup_wall_s": setup_wall_s, "op_wall_s": statistics.median(tally.walls),
        "kernel_s": speed.REFERENCE_S / statistics.median(tally.factors)}}))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
