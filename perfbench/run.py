#!/usr/bin/env python3
"""swarmform benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The untraced mode (--trace 0) prints the
end-to-end metrics, the traced mode (--trace 1) the per-layer ones; both end
with one JSON object {"correct", "attempted", "failed", "metrics"} as the last
stdout line.  See perfbench/README.md for the workloads and metrics.

This launcher imports nothing of the program.  It starts the measuring
process (worker.py) and, in the untraced mode, a few more processes that
only set up; `setup_s` is the median time from starting a process to its
`ready` line, less the calibration kernels timed during set-up, scaled to
the reference host speed of calibrate.py by all of them.  All load comes
from the one worker process, with BLAS and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import calibrate  # noqa: E402  (numpy, after the thread pinning above)

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
# Set-up samples: at least SETUP_MIN, and more, up to SETUP_MAX, while
# their sum stays under SETUP_BUDGET_S.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
WORKLOAD_NAMES = ("reference", "swarm_400", "dense_bound", "robot_tick")
# Every process must end well inside the 180 s a run may take.
TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def start(args, setup_only: bool) -> tuple[subprocess.Popen, float, list[float]]:
    """Start a worker; returns it once it printed `ready`, with the set-up
    time and the durations of the calibration kernels timed during set-up."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    word, _, kernels = line.partition(" ")
    try:
        if word != "ready":
            raise ValueError(line)
        return proc, elapsed, [float(d) for d in json.loads(kernels)]
    except ValueError:  # json.JSONDecodeError included
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})") from None


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker and return the rest of its stdout."""
    try:
        rest, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return rest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    missing = [rel for rel in ("src/swarmform/__init__.py", "scenarios/reference.yaml",
                               "scenarios/reference_noisy.yaml")
               if not (REPO / rel).is_file()]
    if missing:
        print(f"error: not a swarmform checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        setup_times, kernels = [], []
        while not args.trace and len(setup_times) < SETUP_MAX - 1 and (
                len(setup_times) < SETUP_MIN - 1 or sum(setup_times) < SETUP_BUDGET_S):
            proc, elapsed, k = start(args, setup_only=True)
            finish(proc)
            setup_times.append(elapsed - sum(k))
            kernels += k
        proc, elapsed, k = start(args, setup_only=False)
        setup_times.append(elapsed - sum(k))
        kernels += k
        lines = finish(proc).strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not isinstance(result, dict) or "metrics" not in result:
        print("error: worker printed no result", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    info = result.pop("info", {})
    if not args.trace:
        k = calibrate.scale(kernels)
        metrics["setup_s"] = {"value": statistics.median(setup_times) * k, "unit": "s"}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{'failed_frac':48s} {frac:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for key, value in info.items():
        print(f"# {key}: {value}")
    if not args.trace:
        print(f"# setup samples (s): {[round(t, 4) for t in setup_times]}, "
              f"calibration: {len(kernels)} kernels, scale {k:.4f}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
