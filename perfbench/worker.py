"""The measuring process of the swarmform benchmark.

Started by run.py, never by hand.  It sets up the workload, prints `ready`
and the durations of the calibration kernels timed during set-up on stdout
(the launcher times set-up to that line), measures, and prints one
JSON object as its last stdout line; run.py adds `setup_s` and prints the
result.  With --setup-only it exits after `ready`.  Every timing it reports
is scaled to the reference host speed of calibrate.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from swarmform import planner  # noqa: E402
from swarmform.apf import PenetrationWarning  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# In a simulation workload, seconds of plan_tick calls timed after each job
# per second of that job's wall: a fifth of the measured time goes to
# single calls.
CALLS_PER_JOB_WALL = 0.25
# A pass of plan_tick calls is scaled to the reference host speed by the
# calibration kernels timed up to this many seconds around it; a job by
# those timed inside it (see calibrate.py).
PASS_PAD_S = 0.5


@dataclass
class Setup:
    workload: wl.Workload
    seed: int
    scenario: object
    path: Path            # the scenario file jobs parse
    log: object = None    # robot_tick: the run its inputs come from
    metrics: object = None
    sets: list | None = None


def setup(workload: wl.Workload, seed: int, work: Path, inputs: bool = True) -> Setup:
    """Everything before the first timed call: load or generate the inputs.

    `robot_tick` also simulates the run its planner inputs come from,
    unless `inputs` is false (the traced mode does not time planner calls).
    """
    scenario = workload.scenario(seed)
    s = Setup(workload, seed, scenario, wl.scenario_file(workload, scenario, work))
    if inputs and not workload.jobs_timed:
        s.log, s.metrics = wl.simulator.run(scenario)
        s.sets = wl.build_input_sets(scenario, s.log, wl.pick_robot_ticks(workload, s.log, seed))
    return s


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


def check_plan_outputs(sets, outs) -> list[str]:
    bad = [s for s, o in zip(sets, outs) if not wl.close(o, s.expect)]
    if bad:
        s = bad[0]
        return [f"{len(bad)} plan_tick outputs differ from the run (first: tick {s.tick} robot {s.robot})"]
    return []


def one_pass(sets, dt, samples: array | None):
    """Call plan_tick once per input set; returns the outputs and the
    pass's (start, end) in seconds of time.perf_counter."""
    plan_tick = planner.plan_tick
    clock = time.perf_counter_ns
    outs = []
    t_pass = clock()
    for s in sets:
        t0 = clock()
        r = plan_tick(s.state, s.v_des, s.neighbors, s.p, dt)
        t1 = clock()
        outs.append(r)
        if samples is not None:
            samples.append(t1 - t0)
    t_end = clock()
    return [wl.outputs(r) for r in outs], (t_pass / 1e9, t_end / 1e9)


def warm_up(sets, dt, tally: Tally) -> None:
    """One untimed pass, checked against the run the inputs came from."""
    outs, _ = one_pass(sets, dt, None)
    tally.record("warm-up pass", check_plan_outputs(sets, outs))


def timed_passes(sets, dt, budget_s: float, samples: array, passes: list, tally: Tally) -> None:
    """Closed loop of checked passes over the input sets for `budget_s`
    seconds; appends each pass's (start, end) to `passes`."""
    gc.collect()
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline:
        outs, span = one_pass(sets, dt, samples)
        passes.append(span)
        tally.record("pass", check_plan_outputs(sets, outs))


def setup_checks(s: Setup, golden, tally: Tally) -> None:
    """robot_tick only: check the run its inputs come from, and the inputs."""
    problems = wl.log_problems(s.log, s.metrics)
    outs, _ = one_pass(s.sets, s.scenario.dt, None)
    if golden is not None:
        with_sets = s.seed == wl.DEFAULT_SEED
        problems += wl.golden_problems(golden, s.log, s.sets if with_sets else None,
                                       outs if with_sets else None)
    if not any(o[7] < 1.0 for o in outs):
        problems.append("no input set has a hard-clamped a_s < 1")
    tally.record("input run", problems)


def jobs_and_calls(s: Setup, work: Path, seconds: float, golden, tally: Tally):
    """Closed loop of jobs for a simulation workload.

    After each job, plan_tick is timed on inputs rebuilt from the first job
    for a quarter of that job's wall, so that the calls sample the same
    stretch of time as the jobs.  Another job starts while it is expected
    to end nearer to `seconds` than the last one did; there are always at
    least two.  Returns the first job, the (start, end) of every job and of
    its simulator.run, the call samples and the passes.
    """
    first, jobs = None, []
    samples, passes = array("q"), []
    t_start = time.perf_counter()
    while True:
        out = work / f"job{len(jobs)}"
        try:
            job = wl.run_job(s.path, out)
        except Exception as exc:  # a failing job is counted, not fatal
            tally.record(f"job {len(jobs)}", [f"{type(exc).__name__}: {exc}"])
            break
        problems = wl.job_problems(job, first)
        if first is None and golden is not None:
            problems += wl.golden_problems(golden, job.log)
        tally.record(f"job {len(jobs)}", problems)
        shutil.rmtree(out)
        jobs.append(((job.start, job.start + job.wall_s),
                     (job.run_start, job.run_start + job.run_s)))
        dt = job.scenario.dt
        if first is None:
            first = job
            picks = wl.pick_robot_ticks(s.workload, job.log, s.seed)
            sets = wl.build_input_sets(job.scenario, job.log, picks)
            warm_up(sets, dt, tally)
        timed_passes(sets, dt, CALLS_PER_JOB_WALL * job.wall_s, samples, passes, tally)
        del job  # hold at most two logs, the first and the running one
        elapsed = time.perf_counter() - t_start
        if len(jobs) >= 2 and elapsed + elapsed / len(jobs) / 2 > seconds:
            break
    return first, jobs, samples, passes


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def set_percentiles(samples, n_sets: int, pass_scales) -> tuple[float, float]:
    """p50 and p99 in microseconds, over the input sets, of each set's time.

    Each call is scaled by its pass's factor, and a set's time is the median
    of its calls over all passes, so the host's stalls drop out of it; what
    is left varies with the input, for example with the hard clamp's extra
    work.
    """
    per_call = np.frombuffer(samples, dtype=np.int64).reshape(-1, n_sets)
    per_call = per_call * np.asarray(pass_scales, dtype=float)[:, None]
    p50, p99 = np.quantile(np.median(per_call, axis=0), [0.50, 0.99]) / 1e3
    return float(p50), float(p99)


def measure(s: Setup, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    w = s.workload
    golden = wl.load_golden(w) if wl.golden_applies(w, s.seed) else None
    info: dict = {}
    with calibrate.Sampler() as sampler:
        if w.jobs_timed:
            first, jobs, samples, passes = jobs_and_calls(s, work, seconds, golden, tally)
        else:
            setup_checks(s, golden, tally)
            warm_up(s.sets, s.scenario.dt, tally)
            samples, passes = array("q"), []
            timed_passes(s.sets, s.scenario.dt, seconds, samples, passes, tally)
    k_pass = [sampler.factor(t0 - PASS_PAD_S, t1 + PASS_PAD_S) for t0, t1 in passes]
    if w.jobs_timed:
        if first is None:
            raise RuntimeError(f"the first job failed: {tally.reasons}")
        walls = [sampler.scaled(*job) for job, _ in jobs]
        run_s = median([sampler.scaled(*run) for _, run in jobs])
        ticks = first.log.n_robots * first.log.n_ticks
        info["jobs"] = len(jobs)
        info["job_walls_s"] = [round(wall, 4) for wall in walls]
    else:
        walls = [sampler.scaled(t0, t1, PASS_PAD_S) for t0, t1 in passes]
        run_s = median(walls)
        ticks = len(s.sets)
    info["passes"] = len(passes)
    info["plan_tick_samples"] = len(samples)
    p50, p99 = set_percentiles(samples, wl.N_INPUT_SETS, k_pass)
    durations = [d for _, d in sampler.kernels]
    info["calibration"] = {"kernels": len(durations), "median_ms": 1e3 * median(durations),
                           "scale": calibrate.scale(durations)}
    metrics = {
        "robot_ticks_per_s": (ticks / run_s, "1/s"),
        "job_wall_s": (median(walls), "s"),
        "plan_tick_us_p50": (p50, "us"),
        "plan_tick_us_p99": (p99, "us"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    return metrics, info


def measure_traced(s: Setup, work: Path, tally: Tally) -> tuple[dict, dict]:
    """The same job untraced, traced, and untraced again; per-layer metrics.

    The traced trajectory must be bit-identical to the untraced ones, and
    the spans must form one tree under the job; the tracing overhead is
    measured against the untraced runs' mean.
    """
    untraced = [wl.run_job(s.path, work / "untraced0")]
    with tracing.Tracer() as tracer:
        with tracer.span("bench.job"):
            t0 = time.perf_counter()
            job = wl.run_job(s.path, work / "traced")
            job_wall = time.perf_counter() - t0
    untraced.append(wl.run_job(s.path, work / "untraced1"))
    for i, u in enumerate(untraced):
        tally.record(f"untraced job {i}", wl.job_problems(u, None))
    problems = wl.job_problems(job, None)
    if not all(wl.same_trajectory(job.log, u.log) for u in untraced):
        problems.append("traced trajectory differs from the untraced one")
    layer = tracing.per_layer(
        tracer,
        n_robots=job.log.n_robots,
        n_ticks=job.log.n_ticks,
        job_wall_s=job_wall,
        run_wall_s=job.run_s,
        untraced_run_wall_s=sum(u.run_s for u in untraced) / len(untraced),
        csv_bytes=(job.out / "trajectory.csv").stat().st_size,
    )
    problems += tracer.problems("bench.job")
    tally.record("traced job", problems)
    # The self times under `run` add up to its span by construction; what is
    # left is the clock reads between the span and the job's own timer.
    stats = tracer.stats()
    under_run = sum(st["self_ns"] for name, st in stats.items()
                    if name != "bench.job" and not name.startswith("fileio."))
    residual = 1.0 - under_run / 1e9 / job.run_s
    trace_file = HERE / "out" / f"trace-{s.workload.name}.npz"
    tracer.save(trace_file)
    info = {"spans": len(tracer.start), "absent": tracer.absent,
            "span_residual": residual, "trace_file": str(trace_file.relative_to(HERE.parent))}
    return layer, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    warnings.simplefilter("ignore", PenetrationWarning)
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with calibrate.Sampler() as sampler:
            s = setup(wl.WORKLOADS[args.workload], args.seed, work, inputs=not args.trace)
        print("ready", json.dumps([d for _, d in sampler.kernels]), flush=True)
        if args.setup_only:
            return 0
        tally = Tally()
        if args.trace:
            metrics, info = measure_traced(s, work, tally)
        else:
            metrics, info = measure(s, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["failures"] = tally.reasons
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
        "info": info,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
