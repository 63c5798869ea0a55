"""prunerank benchmark: one workload per process, a single-client closed loop.

    python3 perfbench/run.py --workload paper-prune --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Set-up (import, seeded input generation, oracle, one warm-up op) runs
SETUP_REPS times and its median is reported. The loop then sends the next
op only after the previous one returns, for --seconds (at least one op, so
--seconds 0 runs exactly one), and checks every op's output. After every op
it times a fixed reference kernel (reference.py), and the gated latency
metrics divide each op's time by the reference time around it, which
cancels the drift of a shared host. --trace 1 runs the same loop untraced
and then traced, each for half of --seconds, and reports per-layer metrics
from the traced half.

Every metric is printed by name and unit, then a provenance line, then one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. Files
go to .perfbench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ["paper-prune", "bounds-cli", "small-cli", "listwise-train"]
# Set-ups per untraced run; a traced run sets up once.
SETUP_REPS = 3

# End-to-end metrics with --trace 0, in output order: the result line holds these.
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ref", "ref"),
    ("op_cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
]
# Raw times, printed with the others but left out of the result line: they
# move with the host's speed as much as with the program's.
RAW = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_cpu_ms", "ms"),
    ("ref_p50_ms", "ms"),
]
# A tail percentile needs at least this many ops beyond it.
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke tests")
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; numpy must not be loaded yet."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit() -> str:
    try:
        # The ceiling keeps git from finding a repository above ROOT when ROOT is not one.
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return "unknown"


def tail(latencies_ms: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with enough ops beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p, ordered[min(n - 1, int(p / 100.0 * n))]
    return None


class Loop:
    """Outcome of one measured closed loop."""

    def __init__(self):
        self.latency_ms: list[float] = []
        self.cpu_ms: list[float] = []
        # Each op's wall and CPU time over the mean reference time before and after it.
        self.wall_ref: list[float] = []
        self.cpu_ref: list[float] = []
        self.reference_ms: list[float] = []
        self.last_reference: tuple[float, float] | None = None
        self.attempted = 0
        self.failed = 0
        self.near_ties = 0


def run_op(workload, i: int, loop: Loop, reference=None, tracer=None) -> None:
    """Time one op and then the reference kernel, then check the op's output.

    A raise in the op or its check counts as a failed op.
    """
    loop.attempted += 1
    if tracer is not None:
        span = tracer.begin_op(i)
    problem = ""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        output = workload.op(i)
    except Exception:
        problem = f"op {i} raised:\n{traceback.format_exc()}"
    finally:
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.end_op(span)
    before = loop.last_reference
    if reference is not None:
        loop.last_reference = reference.time()
        loop.reference_ms.append(loop.last_reference[0])
    if not problem:
        loop.latency_ms.append((t1 - t0) * 1e3)
        loop.cpu_ms.append((c1 - c0) * 1e3)
        if before is not None:  # None for a warm-up op, which has no reference
            after = loop.last_reference
            loop.wall_ref.append(loop.latency_ms[-1] * 2 / (before[0] + after[0]))
            loop.cpu_ref.append(loop.cpu_ms[-1] * 2 / (before[1] + after[1]))
        try:
            result = workload.check(output)
            loop.near_ties += result.near_ties
            problem = "" if result.ok else f"check failed on op {i}: {result.detail}"
        except Exception:
            problem = f"check raised on op {i}:\n{traceback.format_exc()}"
    if problem:
        loop.failed += 1
        if loop.failed == 1:
            print(problem, file=sys.stderr)


def measure(workload, seconds: float, first_op: int, reference, tracer=None) -> Loop:
    loop = Loop()
    loop.last_reference = reference.time()
    deadline = time.perf_counter() + seconds
    while loop.attempted == 0 or time.perf_counter() < deadline:
        run_op(workload, first_op + loop.attempted, loop, reference, tracer)
    return loop


def set_up(cls, args, out_dir: Path, reps: int):
    """Build the workload `reps` times; return the last one, its warm-up Loop and set-up times."""
    times = []
    warmup = Loop()
    workload = None
    for _ in range(reps):
        workload = None  # free the previous inputs before generating new ones
        t0 = time.perf_counter()
        workload = cls(args.seed, args.size, out_dir)
        workload.setup()
        run_op(workload, 0, warmup)
        times.append(time.perf_counter() - t0)
    return workload, warmup, times


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(loop: Loop, setup_s: float) -> dict:
    lat = loop.latency_ms
    return {
        "setup_s": setup_s,
        "op_p50_ref": median(loop.wall_ref),
        "op_cpu_ref": median(loop.cpu_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # op time only: the benchmark's own output checks are not the program's cost
        "ops_per_s": len(lat) / (sum(lat) / 1e3) if lat else 0.0,
        "op_p50_ms": median(lat),
        "op_cpu_ms": median(loop.cpu_ms),
        "ref_p50_ms": median(loop.reference_ms),
    }


def print_metrics(title: str, values: dict, units: list[tuple[str, str]]) -> None:
    print(f"== {title}")
    for name, unit in units:
        print(f"  {name:<48} {values[name]:.6g} {unit}")


def run_workload(args) -> int:
    blas_threads = cap_blas_threads()
    if not (SRC / "prunerank" / "__init__.py").is_file():
        print(f"prunerank sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np
    import prunerank

    import_s = time.perf_counter() - t0
    if Path(prunerank.__file__).resolve().parent != SRC / "prunerank":
        print(f"imported prunerank from {prunerank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    import tracing
    import workloads

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        reps = 1 if args.trace else SETUP_REPS
        workload, warmup, setup_times = set_up(cls, args, out_dir, reps)
        setup_s = import_s + statistics.median(setup_times)
        kernel = reference.Reference(workload.reference_kernel(), op_ms=statistics.median(warmup.latency_ms or [0.0]))
        # A traced run splits --seconds between its two loops, so it costs what an untraced one does.
        loop_s = args.seconds / 2 if args.trace else args.seconds
        plain = measure(workload, loop_s, first_op=1, reference=kernel)
        loops = [warmup, plain]
        e2e = end_to_end(plain, setup_s)
        print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
        print(f"  set-up reps: {', '.join(f'{t:.4f}' for t in setup_times)} s (+ import {import_s:.4f} s)")
        print_metrics("end to end (untraced)", e2e, END_TO_END)
        print_metrics("raw times (untraced, printed only)", e2e, RAW)
        # op_tail_ms and failed_op_ratio stay out of the result line: the first
        # is absent when a run has too few ops, the second is 0 on a healthy run.
        n = len(plain.latency_ms)
        p_tail = tail(plain.latency_ms)
        print(f"  {'op_tail_ms':<48} " + (
            f"{p_tail[1]:.6g} ms (p{p_tail[0]:g} of {n} ops)" if p_tail else f"n/a ({n} ops: too few for a tail)"
        ))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, loop_s, first_op=1 + plain.attempted, reference=kernel, tracer=tracer)
            finally:
                tracer.uninstall()
            loops.append(traced)
            results = tracer.summary(len(traced.latency_ms))
            # Compared in reference units, so host drift between the two loops cancels.
            extra_ref = median(traced.wall_ref) - e2e["op_p50_ref"]
            results["trace.overhead_ms"] = extra_ref * e2e["ref_p50_ms"]
            print_metrics("per layer (traced)", results, tracing.per_layer_metrics())
            attributed = sum(v for k, v in results.items() if k.endswith(".self_s"))
            print(
                f"  attribution: self times {attributed:.6f} + unattributed "
                f"{results['trace.unattributed_s']:.6f} = traced op {results['trace.op_s']:.6f} s/op"
            )
            spans_path = OUT / f"spans-{args.workload}.tsv"  # the latest traced run only
            tracer.write_spans(spans_path)
            print(f"  spans: {len(tracer.spans)} written to {spans_path}")
            units = tracing.per_layer_metrics()
        else:
            results, units = e2e, END_TO_END
        attempted = sum(loop.attempted for loop in loops)
        failed = sum(loop.failed for loop in loops)
        near_ties = sum(loop.near_ties for loop in loops)
        print(f"  {'failed_op_ratio':<48} {failed / attempted:.6g} ratio")
        print(f"  ops: {attempted} attempted incl. warm-up, {failed} failed, {near_ties} boundary near-ties (not failures)")
        provenance = {
            "package": f"prunerank {prunerank.__version__}",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name(np),
            "blas_threads_configured": blas_threads,
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "seed": args.seed,
            "workload": args.workload,
            "op_count": len(plain.latency_ms),
            "reference": {"kernel": kernel.run.__qualname__.split(".")[0], "runs_after_each_op": kernel.reps},
            **workload.provenance(),
            "computed_label": "computed_per_op values are counted from shapes, not measured",
        }
        print("provenance: " + json.dumps(provenance, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": results[name], "unit": unit} for name, unit in units},
        }))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    summary = {}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
        code = code or (0 if summary[name]["correct"] else 1)
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
