#!/usr/bin/env python3
"""Benchmark of the hannerfaces CLI pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload exact_scan --seed 0 --seconds 35 --trace 0

One process runs one workload as a closed loop: a single caller sends the
workload's CLI calls (``hannerfaces.cli.main(argv)`` in-process, stdout
captured) one at a time, and repeats the list while another pass fits in
``--seconds``, at least MIN_PASSES times.  Every output is checked against
an independent reference outside the timed region (see oracles.py).

Times are scaled to a reference host speed.  On a shared host the speed
drifts by tens of percent over minutes, so a fixed calibration routine
(CPython big-int square, numpy log-sum-exp loop, small-int loop; it calls
nothing in hannerfaces) runs before the first pass, after every task of at
least SEGMENT_S seconds and at the end of every pass.  Each task time is
multiplied by CALIBRATION_REF_S over the mean of the two calibrations
around it.  The raw times are printed too.

``--trace 0`` reports the end-to-end metrics: wall_s (one pass over the
task list, as the sum of each task's median scaled time), setup_s (median
over fresh interpreters of the scaled time from process start until the
first task is ready) and peak_rss_mib.
``--trace 1`` repeats the untraced passes, then runs one more pass with
spans around every layer entry point (spans.py) and reports the per-layer
metrics; the spans go to perfbench/.out/.

The table above the last line names every metric with its unit.  The last
line is one JSON object: correct, attempted, failed, metrics.  The exit
code is 0 when every check passed, 1 when one failed, and 2 when the
package cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller and no helper threads: keep numpy's BLAS pool at one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_PROBES = 9
MIN_PASSES = 3
SEGMENT_S = 1.0
PROBE_TIMEOUT_S = 60
# What calibrate() takes on a quiet 2-CPU Xeon VM; scaled times read as
# seconds on such a host.
CALIBRATION_REF_S = 0.20

import numpy as np  # noqa: E402  (after the thread settings)
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Units of every metric the benchmark reports.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def import_cli():
    """hannerfaces.cli from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "hannerfaces" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hannerfaces package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from hannerfaces import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"error: hannerfaces was imported from {cli.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return cli


def run_task(cli, argv) -> tuple[float, int, str]:
    """Time one in-process CLI call; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(list(argv))
        elapsed = time.perf_counter() - t0
    return elapsed, rc, out.getvalue()


def run_pass(cli, tasks, cals=None):
    """Run every task once; returns the raw pass time, (seconds, exit code,
    stdout) per task and, given ``cals``, each task's scaled time.

    A calibration, appended to ``cals``, follows every task of at least
    SEGMENT_S seconds and the last task, so each task is scaled by the
    calibrations just before and after the stretch it ran in.
    """
    results, scaled_times, start = [], [], 0
    for k, task in enumerate(tasks):
        results.append(run_task(cli, task.argv))
        if cals is not None and (results[-1][0] >= SEGMENT_S or k == len(tasks) - 1):
            cals.append(calibrate())
            scaled_times += [scaled(t, cals[-2], cals[-1]) for t, _, _ in results[start:]]
            start = len(results)
    return sum(t for t, _, _ in results), results, scaled_times


_CAL_INT = random.Random(20260317).getrandbits(1 << 20)
_CAL_VEC = np.linspace(0.0, 100.0, 2048)


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work the layers do, none of it in
    hannerfaces: a 1-Mbit square, log-sum-exp convolution rows over 2048
    floats, and a small-int loop, in roughly equal parts."""
    t0 = time.perf_counter()
    _CAL_INT * _CAL_INT
    v = _CAL_VEC
    for _ in range(5):
        for k in range(v.shape[0]):
            s = v[: k + 1] + v[k::-1]
            m = s.max()
            m + np.log2(np.exp2(s - m).sum())
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` at the reference host speed, from the calibrations around it."""
    return seconds * CALIBRATION_REF_S / ((cal_before + cal_after) / 2)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times from spawning a fresh interpreter to its first task being
    ready, and the calibrations made before and after each of them."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    times, cals = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe failed (exit {rc}, said {line.strip()!r})")
        times.append(t1 - t0)
        cals.append(calibrate())
    return times, cals


def setup_probe(args) -> int:
    """Child side of measure_setup: imports, parser, inputs, then 'ready'."""
    cli = import_cli()
    cli.build_parser()
    workloads.build(args.workload, args.seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def check_outputs(tasks, passes) -> tuple[list[str], int]:
    """Check the first pass against the oracles and every later pass against
    the first (identical invocations must print identical bytes).

    Returns the error messages and the number of failed task runs.
    """
    errors = []
    first_ok = []
    for task, (_, rc, out) in zip(tasks, passes[0][1]):
        try:
            errs = task.check(out)
        except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError) as exc:
            errs = [f"{task.argv[0]}: output does not parse: {type(exc).__name__}: {exc}"]
        if rc != 0:
            errs.insert(0, f"{task.argv[0]}: exit code {rc}")
        errors += [f"{' '.join(task.argv)}: {e}" for e in errs]
        first_ok.append(not errs)
    failed = 0
    for i, (_, results) in enumerate(passes):
        for task, ok, ref, (_, rc, out) in zip(tasks, first_ok, passes[0][1], results):
            if not ok or rc != 0 or out != ref[2]:
                failed += 1
                if ok:
                    errors.append(f"{' '.join(task.argv)}: pass {i} output differs from pass 0")
    return errors, failed


def known_defects(cli) -> int:
    """Outputs of the CLI's JSON probe that do not parse as JSON."""
    _, _, out = run_task(cli, workloads.TREES_JSON_PROBE)
    try:
        json.loads(out)
    except ValueError:
        return 1
    return 0


def micro_rows(seed: int) -> dict[str, float]:
    """Kernel rows at fixed sizes: log kernel at K = 512/2048/8192, and the
    exact square against schoolbook at K = 512 with 4096-bit coefficients."""
    import numpy as np
    from hannerfaces import _kernels

    def timed(fn, *a):
        t0 = time.perf_counter()
        out = fn(*a)
        return time.perf_counter() - t0, out

    rows = {}
    gen = np.random.default_rng(seed)
    for k in (512, 2048, 8192):
        f, g = gen.uniform(0, 1000, k), gen.uniform(0, 1000, k)
        rows[f"micro.log_convolve.k{k}_s"], out = timed(_kernels.log_convolve, f, g)
        if not np.isfinite(out).all():
            raise RuntimeError(f"log_convolve at K={k} returned non-finite values")
    rng = random.Random(seed)
    f = [rng.getrandbits(4096) for _ in range(512)]
    rows["micro.convolve_exact.k512_s"], fast = timed(_kernels.convolve_exact, f, f, 512)
    rows["micro.schoolbook.k512_s"], slow = timed(_kernels.convolve_schoolbook, f, f, 512)
    if fast != slow:
        raise RuntimeError("convolve_exact differs from convolve_schoolbook at K=512")
    return rows


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, stdout_bytes: int):
    """Per-layer rows of the traced pass; ``untraced_wall`` is the raw wall
    time of the untraced pass just before it."""
    t = tracer.layer_times()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    row = lambda name: t.get(name, empty)  # noqa: E731
    c = tracer.counts
    exact, mul, log = row("kernels.exact"), row("kernels.mul"), row("kernels.log")
    return {
        "schedule.calls": row("schedule")["calls"],
        "schedule.busy_s": row("schedule")["busy_s"],
        "kernels.exact.calls": exact["calls"],
        "kernels.exact.busy_s": exact["busy_s"],
        "kernels.exact.operand_mbit": c["kernels.exact.operand_bits"] / 1e6,
        "kernels.exact.small_call_ratio": c["kernels.exact.small_calls"] / exact["calls"]
        if exact["calls"]
        else 0.0,
        "kernels.exact.packing_s": exact["self_s"],
        "kernels.mul.calls": mul["calls"],
        "kernels.mul.busy_s": mul["busy_s"],
        "kernels.log.calls": log["calls"],
        "kernels.log.busy_s": log["busy_s"],
        "kernels.log.pairs": c["kernels.log.pairs"],
        "kernels.log.mpairs_per_s": c["kernels.log.pairs"] / 1e6 / log["busy_s"]
        if log["busy_s"]
        else 0.0,
        "recursion.runs": row("recursion.run")["calls"],
        "recursion.steps": row("recursion.step")["calls"],
        "recursion.step.busy_s": row("recursion.step")["busy_s"],
        "recursion.combine_s": row("recursion.step")["self_s"],
        "asymptotics.scan.busy_s": row("asymptotics.scan")["busy_s"],
        "asymptotics.scan.self_s": row("asymptotics.scan")["self_s"],
        "phimap.compose.calls": row("phimap.compose")["calls"],
        "phimap.compose.busy_s": row("phimap.compose")["busy_s"],
        "phimap.compose.self_s": row("phimap.compose")["self_s"],
        "trees.enumerated": c["trees.enumerated"],
        "trees.weight.calls": row("trees.weight")["calls"],
        "trees.weight.busy_s": row("trees.weight")["busy_s"],
        "trees.sum_check.self_s": row("trees.sum_check")["self_s"],
        "geometry.build.busy_s": row("geometry.build")["busy_s"],
        "geometry.lattice.busy_s": row("geometry.lattice")["busy_s"],
        "geometry.faces": c["geometry.faces"],
        "cli.emit_s": row("cli.emit")["busy_s"],
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("mpairs_per_s"):
        return "Mpairs/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mbit"):
        return "Mbit"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def environment() -> dict:
    from hannerfaces import _kernels
    import numpy

    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "active_kernel": _kernels.ACTIVE_KERNEL,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def print_table(metrics: dict, walls: tuple[float, float] | None = None):
    """One row per metric; with (untraced, traced) walls, times also as a share
    of the pass they were measured in (pipeline times untraced, layers traced)."""
    for name, value in metrics.items():
        share = ""
        layer = "." in name and not name.startswith(("micro.", "trace."))
        if walls and unit_of(name) == "s" and (layer or name in workloads.PIPELINES):
            wall = walls[layer]
            share = f"  {100 * value / wall:6.1f}% of wall_s"
        print(f"{name:32s} {value:>16.6g} {unit_of(name):9s}{share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    cli = import_cli()
    setup_times, setup_cals = measure_setup(args)
    tasks = workloads.build(args.workload, args.seed)

    passes, cals, scaled_passes = [], [calibrate()], []
    t_start = time.perf_counter()
    while True:
        wall, results, scaled_times = run_pass(cli, tasks, cals)
        if passes:
            # An output equal to the first pass's is kept as that same string,
            # so peak_rss_mib does not grow with the number of passes.
            first = [out for _, _, out in passes[0][1]]
            results = [(t, rc, ref if out == ref else out) for (t, rc, out), ref in zip(results, first)]
        passes.append((wall, results))
        scaled_passes.append(scaled_times)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [wall for wall, _ in passes]
    # Each task's median over the passes; wall_s sums them.
    typical = [
        statistics.median(times[i] for times in scaled_passes) for i in range(len(tasks))
    ]
    wall_s = sum(typical)

    errors, failed = check_outputs(tasks, passes)
    attempted = len(tasks) * len(passes)
    env = environment()
    print(f"workload {args.workload} seed {args.seed}: {len(tasks)} tasks x {len(passes)} passes")
    print("raw pass wall times (s): " + " ".join(f"{w:.4f}" for w in walls))
    print("calibration times (s): " + " ".join(f"{c:.4f}" for c in cals))
    print("raw setup probe times (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    print("setup calibration times (s): " + " ".join(f"{c:.4f}" for c in setup_cals))
    for i, task in enumerate(tasks):
        print("  hannerfaces " + " ".join(task.argv))
        print("    raw times (s): " + " ".join(f"{r[i][0]:.4f}" for _, r in passes))
    print("environment: " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(
                scaled(t, setup_cals[j], setup_cals[j + 1]) for j, t in enumerate(setup_times)
            ),
            "peak_rss_mib": peak_rss_mib,
        }
        print_table(metrics)
    else:
        metrics = {
            name: sum(t for task, t in zip(tasks, typical) if task.pipeline == name)
            for name in workloads.PIPELINES
        }
        metrics["wall_raw_s"] = statistics.median(walls)
        metrics["calibration_s"] = statistics.median(cals)
        defects = known_defects(cli) if args.workload == "certify" else 0
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, traced, _ = run_pass(cli, tasks)
        finally:
            tracer.uninstall()
        attempted += len(tasks)
        for task, (_, rc, out), (_, _, ref) in zip(tasks, traced, passes[0][1]):
            if rc != 0 or out != ref:
                failed += 1
                errors.append(f"{' '.join(task.argv)}: traced output differs from untraced")
        stdout_bytes = sum(len(out.encode()) for _, _, out in traced)
        metrics["fail_ratio"] = failed / attempted
        metrics["cli.unparsable_outputs"] = defects
        metrics.update(layer_metrics(tracer, traced_wall, walls[-1], stdout_bytes))
        metrics.update(micro_rows(args.seed))
        OUT.mkdir(exist_ok=True)
        tracer.dump(
            OUT / f"spans_{args.workload}.json.gz",
            {"workload": args.workload, "seed": args.seed, "wall_s": traced_wall, "environment": env},
        )
        print(f"traced pass raw wall {traced_wall:.6g} s, last untraced pass {walls[-1]:.6g} s")
        print_table(metrics, (wall_s, traced_wall))
        if defects:
            print("known defect: `trees --format json` prints a verdict line before the JSON")

    for line in errors:
        print("CHECK FAILED: " + line)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
