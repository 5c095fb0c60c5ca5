"""Workload definitions of the swarmform benchmark.

Every workload is a scenario plus a set of single-robot planner inputs drawn
from a run of it.  A *job* makes the calls `swarmform run` makes: parse the
scenario file, write the resolved scenario, simulate, export the trajectory
CSV and write the metrics summary.  The benchmark reaches the program only
through the public functions of its layer modules (`simulator`, `network`,
`apf`, `planner`, `fileio`), always as module attributes, so the traced mode
can rebind them.
"""

from __future__ import annotations

import dataclasses
import resource
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swarmform import apf, fileio, network, simulator
from swarmform.constraints import ConstraintSpec
from swarmform.planner import PlannerGains, PlannerState
from swarmform.simulator import Scenario
from swarmform.transform import FormationParams, apply_transform, unit_grid

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = HERE / "golden"

# Seed the golden subsamples were recorded with.
DEFAULT_SEED = 0
# Tolerance of every comparison against recorded or logged outputs.
TOL = 1e-9
# Planner input sets per workload: ten of them lie beyond the p99.
N_INPUT_SETS = 1000
# Golden subsample: about this many evenly spaced ticks and robots.
GOLDEN_TICKS = 30
GOLDEN_ROBOTS = 25


def _scenario(**kwargs) -> Scenario:
    """Scenario with `r_d = r_c` while `Scenario` still has an `r_d` field."""
    if "r_d" in {f.name for f in dataclasses.fields(Scenario)}:
        kwargs["r_d"] = kwargs["r_c"]
    return Scenario(**kwargs)


def _graph_args(scenario: Scenario) -> tuple:
    """Range arguments of `network.build_graph` for this scenario."""
    if hasattr(scenario, "r_d"):
        return (scenario.r_c, scenario.r_d)
    return (scenario.r_c,)


def reference(seed: int) -> Scenario:
    # Noise-free as shipped: the seed has no effect by design.
    return fileio.parse_scenario(SCENARIOS / "reference.yaml")


def swarm_400(seed: int) -> Scenario:
    # Sparse: r_c = 1.5 on a unit grid reaches the 8 grid neighbours only.
    # The goal rotates and translates; the scaling stays in the soft set.
    return _scenario(
        base=unit_grid(20, 1.0),
        eta_init=FormationParams.identity(),
        eta_goal=FormationParams(0.3, 1.0, 1.0, 1.0, 0.5),
        r_c=1.5,
        dt=1e-3,
        t_final=12e-3,
        init_noise_sigma=0.02,
        rng_seed=seed,
    )


def dense_bound(seed: int) -> Scenario:
    # Dense: r_c covers the whole swarm (degree 99), dt * lam * (N - 1) =
    # 0.792 < 1.  The scaling starts outside the soft set (|s| = 2.49 >
    # r_soft) and the goal (|s| = 4.24) lies outside the hard set, so the
    # soft pull and the hard clamp both act.
    return _scenario(
        base=unit_grid(10, 1.0),
        eta_init=FormationParams(0.0, 1.76, 1.76, 0.0, 0.0),
        eta_goal=FormationParams(0.2, 3.0, 3.0, 2.0, 1.0),
        gains=PlannerGains(lam=8.0, mu=1.0, k_fb=2.0),
        constraints=ConstraintSpec(eps_soft=0.75, eps_hard=0.5, r_soft=1.6, r_hard=2.5),
        r_c=100.0,
        dt=1e-3,
        t_final=150e-3,
        init_noise_sigma=0.02,
        rng_seed=seed,
    )


def robot_tick(seed: int) -> Scenario:
    # The bundled run in which the hard clamp binds.  The run itself is the
    # shipped one; the seed only picks which robot-ticks become inputs.
    shipped = fileio.parse_scenario(SCENARIOS / "reference_noisy.yaml")
    return shipped.with_gains(k_fb=0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int], Scenario]
    shipped_file: str | None  # jobs parse this file as shipped, else the emitted one
    seed_moves_run: bool      # the seed changes the simulated trajectory
    jobs_timed: bool          # timed loop: jobs then planner calls, else calls only


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", reference, "reference.yaml", False, True),
        Workload("swarm_400", swarm_400, None, True, True),
        Workload("dense_bound", dense_bound, None, True, True),
        Workload("robot_tick", robot_tick, None, False, False),
    )
}


def scenario_file(workload: Workload, scenario: Scenario, work: Path) -> Path:
    """The file a job parses: the shipped one, or the scenario emitted once."""
    if workload.shipped_file is not None:
        return SCENARIOS / workload.shipped_file
    path = work / "input.yaml"
    fileio.emit_scenario(scenario, path)
    return path


@dataclass
class Job:
    scenario: Scenario
    log: simulator.TrajectoryLog
    metrics: simulator.RunMetrics
    out: Path
    start: float     # time.perf_counter at the job's start
    run_start: float  # time.perf_counter at simulator.run's start
    wall_s: float    # parse + emit + run + export + summary
    run_s: float     # simulator.run alone
    export_s: float  # fileio.export_csv alone


def run_job(path: Path, out: Path) -> Job:
    """One `swarmform run`: the calls and outputs of the CLI, timed."""
    clock = time.perf_counter
    t0 = clock()
    scenario = fileio.parse_scenario(path)
    out.mkdir(parents=True, exist_ok=True)
    fileio.emit_scenario(scenario, out / "scenario.yaml")
    t1 = clock()
    log, metrics = simulator.run(scenario)
    t2 = clock()
    fileio.export_csv(log, out / "trajectory.csv")
    t3 = clock()
    fileio.write_metrics_summary(metrics, out / "metrics.txt")
    t4 = clock()
    return Job(scenario, log, metrics, out, t0, t1, t4 - t0, t2 - t1, t3 - t2)


def count_lines(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))


def log_problems(log, metrics) -> list[str]:
    """Checks that hold on every seed.  `goal_param_error` is left out on
    purpose: it has a known angle-wrap defect whose fix must not read as a
    benchmark failure."""
    problems = [
        f"non-finite {name}"
        for name in ("positions", "velocities", "etas", "a_s")
        if not np.isfinite(getattr(log, name)).all()
    ]
    if metrics.hard_violation_count != 0:
        problems.append(f"hard_violation_count = {metrics.hard_violation_count}")
    return problems


def job_problems(job: Job, first: Job | None) -> list[str]:
    """Checks of one job's outputs; `first` is the run's first job, which
    every later job must reproduce bit for bit."""
    problems = log_problems(job.log, job.metrics)
    rows = count_lines(job.out / "trajectory.csv") - 1
    if rows != job.log.n_ticks * job.log.n_robots:
        problems.append(f"trajectory.csv has {rows} rows")
    if fileio.parse_scenario(job.out / "scenario.yaml") != job.scenario:
        problems.append("scenario.yaml does not parse back to the scenario")
    if "hard_violation_count" not in (job.out / "metrics.txt").read_text():
        problems.append("metrics.txt lacks hard_violation_count")
    if first is not None and not same_trajectory(job.log, first.log):
        problems.append("trajectory differs from the first job's")
    return problems


def same_trajectory(a, b) -> bool:
    """Bitwise equality of every logged array."""
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("times", "positions", "velocities", "etas", "a_s", "neighbor_counts")
    )


# ---- planner input sets ---------------------------------------------------


@dataclass(frozen=True)
class InputSet:
    """Everything robot i saw at tick k, and what the run made of it."""

    tick: int
    robot: int
    state: PlannerState
    v_des: np.ndarray
    neighbors: list
    p: np.ndarray
    expect: tuple  # the run's v_cmd and a_s at the tick, and its eta one tick later


def pick_robot_ticks(workload: Workload, log, seed: int) -> list[tuple[int, int]]:
    """(tick, robot) pairs whose planner inputs are timed.

    Simulation workloads take fixed ticks and robots (the seed already moves
    their run).  `robot_tick` draws with the seed from its one shipped run,
    stratified so that the share of hard-clamped inputs is the run's share
    on every seed.
    """
    t, n = log.n_ticks - 1, log.n_robots  # the last tick has no successor
    if workload.jobs_timed:
        n_ticks = max(3, -(-N_INPUT_SETS // n))
        ticks = np.unique(np.linspace(0, t - 1, min(n_ticks, t)).round().astype(int))
        per_tick = -(-N_INPUT_SETS // len(ticks))
        robots = np.unique(np.linspace(0, n - 1, min(per_tick, n)).round().astype(int))
        return [(int(k), int(i)) for k in ticks for i in robots][:N_INPUT_SETS]
    bound = (log.a_s[:t] < 1.0).reshape(-1)
    n_bound = int(round(N_INPUT_SETS * bound.mean()))
    rng = np.random.default_rng(seed)
    flat = np.concatenate([
        rng.choice(np.flatnonzero(bound), n_bound, replace=False),
        rng.choice(np.flatnonzero(~bound), N_INPUT_SETS - n_bound, replace=False),
    ])
    rng.shuffle(flat)
    return [(int(f // n), int(f % n)) for f in flat]


def build_input_sets(scenario: Scenario, log, picks) -> list[InputSet]:
    """Rebuild each picked robot's planner inputs from the logged swarm state,
    through the same graph, exchange and potential-field calls the run makes."""
    n = log.n_robots
    slots = scenario.base.slots
    goal_slots = [apply_transform(scenario.eta_goal, c) for c in slots]
    by_tick: dict[int, list[int]] = {}
    for k, i in picks:
        by_tick.setdefault(k, []).append(i)
    built = {}
    for k, robots in by_tick.items():
        positions = log.positions[k]
        etas = [FormationParams.from_array(log.etas[k, j]) for j in range(n)]
        graph = network.build_graph(positions, *_graph_args(scenario))
        received = network.exchange(graph, etas)
        for i in robots:
            others = positions[np.arange(n) != i]
            v_des = apf.desired_velocity(
                positions[i], goal_slots[i], scenario.obstacles, others, scenario.apf
            )
            state = PlannerState(
                eta=etas[i],
                slot=slots[i],
                gains=scenario.gains_for(i),
                constraints=scenario.constraints,
            )
            expect = (
                *log.velocities[k, i].tolist(),
                *log.etas[k + 1, i].tolist(),
                float(log.a_s[k, i]),
            )
            built[(k, i)] = InputSet(k, i, state, v_des, received[i], positions[i].copy(), expect)
    return [built[p] for p in picks]


def outputs(result) -> tuple:
    """(vx, vy, phi, sx, sy, tx, ty, a_s) of one plan_tick result."""
    e = result.eta_next
    return (float(result.v_cmd[0]), float(result.v_cmd[1]), e.phi, e.sx, e.sy, e.tx, e.ty, result.a_s)


def close(a, b) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= TOL for x, y in zip(a, b))


# ---- golden subsample -------------------------------------------------------


def golden_path(workload: Workload) -> Path:
    return GOLDEN / f"{workload.name}.npz"


def golden_applies(workload: Workload, seed: int) -> bool:
    """The golden file was recorded on DEFAULT_SEED; a run the seed does not
    move is checked against it on every seed."""
    return seed == DEFAULT_SEED or not workload.seed_moves_run


def golden_index(log) -> tuple[np.ndarray, np.ndarray]:
    t, n = log.n_ticks, log.n_robots
    ticks = np.unique(np.append(np.arange(0, t, max(1, t // GOLDEN_TICKS)), t - 1))
    robots = np.arange(0, n, max(1, n // GOLDEN_ROBOTS))
    return ticks, robots


def golden_record(log, sets: list[InputSet] | None = None,
                  plan_outputs: list[tuple] | None = None) -> dict:
    ticks, robots = golden_index(log)
    sub = np.ix_(ticks, robots)
    record = {"ticks": ticks, "robots": robots,
              "positions": log.positions[sub], "etas": log.etas[sub]}
    if sets is not None:
        record["picks"] = np.array([(s.tick, s.robot) for s in sets], dtype=np.int64)
        record["plan_outputs"] = np.array(plan_outputs, dtype=float)
    return record


def golden_problems(golden: dict, log, sets: list[InputSet] | None = None,
                    plan_outputs: list[tuple] | None = None) -> list[str]:
    """Compare a run (and optionally the planner outputs on its input sets)
    with the recorded subsample, within TOL."""
    ticks, robots = golden["ticks"], golden["robots"]
    if log.n_ticks <= ticks.max() or log.n_robots <= robots.max():
        return [f"log shape {log.positions.shape[:2]} does not cover the golden subsample"]
    sub = np.ix_(ticks, robots)
    problems = []
    for name in ("positions", "etas"):
        dev = float(np.max(np.abs(getattr(log, name)[sub] - golden[name])))
        if not dev <= TOL:
            problems.append(f"{name} deviate from golden by {dev:.3g}")
    if sets is not None and "picks" in golden:
        picks = np.array([(s.tick, s.robot) for s in sets], dtype=np.int64)
        if not np.array_equal(picks, golden["picks"]):
            problems.append("input-set picks differ from golden")
        else:
            dev = float(np.max(np.abs(np.array(plan_outputs) - golden["plan_outputs"])))
            if not dev <= TOL:
                problems.append(f"plan_tick outputs deviate from golden by {dev:.3g}")
    return problems


def load_golden(workload: Workload) -> dict | None:
    path = golden_path(workload)
    if not path.is_file():
        return None
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

