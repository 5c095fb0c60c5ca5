"""Closed-loop multi-robot simulation.

Each synchronous tick computes the swarm's pairwise squared distances once
and builds two things from them in array passes: the communication graph, a
CSR neighbour table over which every robot receives its neighbours'
parameter vectors, and every robot's potential-field velocity.  Then each
robot runs its own planner tick (`plan_tick`) on barrier-time data only,
and the single-integrator dynamics are integrated with explicit Euler.
This is the same as running each robot's planner in parallel with a
per-tick synchronization barrier.

Runs are deterministic: all randomness comes from one seed, split into one
independent stream per robot (numpy SeedSequence spawning), and is used
only for the initial-position perturbation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .apf import ApfGains, Obstacle, obstacle_arrays, potential_field
from .constraints import MEMBERSHIP_TOL, ConstraintSpec, soft_set_distance
from .network import build_graph, exchange, square_distances
from .planner import PlannerGains, PlannerState, plan_tick
from .transform import (
    BaseConfiguration,
    FormationParams,
    apply_transform,
    apply_transform_many,
)

# Not called by the tick loop, which evaluates the field for the whole swarm
# with potential_field; kept under this module's name because the traced
# benchmark (perfbench/tracing.py) rebinds it here and requires it present.
from .apf import desired_velocity  # noqa: F401

# (tick, robot, robot) entries per block of ticks in compute_metrics, which
# bound its temporaries.
_BLOCK_PAIRS = 25_000


class ConsensusStabilityWarning(UserWarning):
    """A run's explicit-Euler consensus step dt * lam * deg reached 1: an
    update is no longer a convex combination, so the parameter spread may
    grow.  The iteration diverges only once dt * lam * lambda_max(L) > 2.
    The message names the first tick and robot (lowest id) that reached 1."""


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Complete description of one experiment, its fields in file order.

    `gains` is either one PlannerGains shared by all robots or a tuple with
    one entry per robot.  `init_noise_sigma` is the standard deviation (in
    meters, per axis) of the Gaussian perturbation applied to the initial
    positions; zero disables it.  The initial scaling must lie in the hard
    set, which the planner keeps it in; the goal may lie outside it.
    """

    base: BaseConfiguration
    eta_init: FormationParams = field(default_factory=FormationParams.identity)
    eta_goal: FormationParams
    obstacles: tuple[Obstacle, ...] = ()
    gains: PlannerGains | tuple[PlannerGains, ...] = PlannerGains(32.0, 20.0, 2.0)
    apf: ApfGains = ApfGains()
    constraints: ConstraintSpec = ConstraintSpec()
    r_c: float = 10.0
    dt: float = 1e-3
    t_final: float = 9.0
    init_noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ValueError(f"t_final must be >= dt, got {self.t_final}")
        if not self.r_c > 0.0:
            raise ValueError(f"r_c must be > 0, got {self.r_c}")
        if not (math.isfinite(self.init_noise_sigma) and self.init_noise_sigma >= 0.0):
            raise ValueError("init_noise_sigma must be finite and >= 0")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        s, spec = self.eta_init, self.constraints
        if not spec.in_hard_set(s.sx, s.sy, tol=MEMBERSHIP_TOL):
            raise ValueError(f"eta_init scaling ({s.sx}, {s.sy}) lies outside the hard set of {spec}")
        if isinstance(self.gains, tuple) and len(self.gains) != len(self.base):
            raise ValueError(
                f"per-robot gains need one entry per robot "
                f"({len(self.gains)} given for {len(self.base)} robots)"
            )
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    @property
    def n_robots(self) -> int:
        return len(self.base)

    @property
    def n_ticks(self) -> int:
        # ceil with a guard against .../dt landing one ulp above an integer
        return int(math.ceil(self.t_final / self.dt - 1e-9))

    def gains_for(self, i: int) -> PlannerGains:
        if isinstance(self.gains, tuple):
            return self.gains[i]
        return self.gains

    def with_gains(self, **kwargs) -> "Scenario":
        """Copy of the scenario with `PlannerGains` fields replaced on every
        robot."""
        if isinstance(self.gains, tuple):
            new = tuple(replace(g, **kwargs) for g in self.gains)
        else:
            new = replace(self.gains, **kwargs)
        return replace(self, gains=new)


@dataclass(frozen=True, eq=False)
class TrajectoryLog:
    """Per-tick, per-robot trajectory records as dense arrays.

    Row (k, i) holds robot i's state at the start of tick k together with
    the command computed during that tick: position, commanded velocity,
    the parameter vector the tick ran on, the applied derivative scale
    `a_s`, and the neighbour count.
    """

    times: np.ndarray          # (T,)
    positions: np.ndarray      # (T, N, 2)
    velocities: np.ndarray     # (T, N, 2)
    etas: np.ndarray           # (T, N, 5)
    a_s: np.ndarray            # (T, N)
    neighbor_counts: np.ndarray  # (T, N)

    def __post_init__(self):
        t = len(self.times)
        n = self.positions.shape[1] if self.positions.ndim == 3 else 0
        expect = {
            "positions": (t, n, 2),
            "velocities": (t, n, 2),
            "etas": (t, n, 5),
            "a_s": (t, n),
            "neighbor_counts": (t, n),
        }
        for name, shape in expect.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"log field {name} has shape "
                                 f"{getattr(self, name).shape}, expected {shape}")
        if t > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("log times must be strictly increasing")

    @property
    def n_ticks(self) -> int:
        return len(self.times)

    @property
    def n_robots(self) -> int:
        return self.positions.shape[1]

    def identical(self, other: "TrajectoryLog") -> bool:
        """Bitwise equality of every record."""
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class RunMetrics:
    """Quantitative summary of one run.

    The first three fields are per-tick series; the rest are run-level
    scalars.  `hard_violation_count` counts ticks on which some robot's
    scaling fails `ConstraintSpec.in_hard_set` with `MEMBERSHIP_TOL`, the
    planner's own predicate — it must be zero in every passing run.
    `consensus_step_max` is the largest dt * lam_i * deg_i over ticks and
    robots; below 1 each consensus update is a convex combination, so the
    parameter spread cannot grow (divergence needs dt * lam * lambda_max(L) > 2).
    """

    times: np.ndarray
    formation_error: np.ndarray    # per-tick max over robots, meters
    disagreement: np.ndarray       # per-tick max componentwise parameter spread
    soft_set_distance: np.ndarray  # per-tick max distance of s to the soft set
    min_robot_distance: float
    min_obstacle_clearance: float
    hard_violation_count: int
    goal_param_error: float
    consensus_step_max: float

    def time_avg_disagreement(self) -> float:
        return float(np.mean(self.disagreement))

    def time_avg_soft_distance(self) -> float:
        return float(np.mean(self.soft_set_distance))

    def final_formation_error(self) -> float:
        return float(self.formation_error[-1])

    def max_formation_error(self) -> float:
        return float(np.max(self.formation_error))

    def summary(self) -> dict:
        return {
            "ticks": int(len(self.times)),
            "formation_error_final": self.final_formation_error(),
            "formation_error_max": self.max_formation_error(),
            "disagreement_mean": self.time_avg_disagreement(),
            "disagreement_final": float(self.disagreement[-1]),
            "soft_set_distance_mean": self.time_avg_soft_distance(),
            "min_robot_distance": self.min_robot_distance,
            "min_obstacle_clearance": self.min_obstacle_clearance,
            "hard_violation_count": self.hard_violation_count,
            "goal_param_error": self.goal_param_error,
            "consensus_step_max": self.consensus_step_max,
        }


def step_world(positions, velocities, dt: float) -> np.ndarray:
    """Explicit Euler step of the single-integrator dynamics: p + dt * v."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return np.asarray(positions, dtype=float) + dt * np.asarray(velocities, dtype=float)


def initial_positions(scenario: Scenario) -> np.ndarray:
    """Slot positions under the initial parameters, plus seeded Gaussian noise.

    The scenario seed is split with numpy's SeedSequence into one child
    stream per robot, so per-robot noise draws are independent of robot
    count ordering and reproduce exactly for a given seed.
    """
    pts = np.array(
        [apply_transform(scenario.eta_init, c) for c in scenario.base.slots]
    )
    if scenario.init_noise_sigma > 0.0:
        streams = np.random.SeedSequence(scenario.rng_seed).spawn(len(pts))
        for i, ss in enumerate(streams):
            gen = np.random.Generator(np.random.PCG64(ss))
            pts[i] += gen.normal(0.0, scenario.init_noise_sigma, 2)
    return pts


def swarm_half(scenario: Scenario, positions, etas, goals, centers, radii):
    """A tick's range graph, the etas each robot receives over it and every
    robot's desired velocity, from one distance matrix: `(graph, received,
    v_des)`.  `run` and `bench.collect_samples` share it.  It calls through
    this module's names, which perfbench/tracing.py rebinds.
    """
    d2 = square_distances(positions)
    graph = build_graph(positions, scenario.r_c, d2)
    received = exchange(graph, etas)
    v_des = potential_field(positions, goals, centers, radii, positions, d2, scenario.apf)
    return graph, received, v_des


def run(scenario: Scenario) -> tuple[TrajectoryLog, RunMetrics]:
    """Simulate the full closed loop over the scenario horizon.

    A `ValueError` from a robot's planner tick, such as the
    :class:`NonFiniteInputError` of a non-finite input, aborts the run with
    its type kept and the robot id and time put in front of its message.
    """
    n = scenario.n_robots
    n_ticks = scenario.n_ticks
    dt = scenario.dt
    slots = scenario.base.slots
    goals = np.array([apply_transform(scenario.eta_goal, c) for c in slots])
    centers, radii = obstacle_arrays(scenario.obstacles)

    positions = initial_positions(scenario)
    states = [
        PlannerState(
            eta=scenario.eta_init,
            slot=slots[i],
            gains=scenario.gains_for(i),
            constraints=scenario.constraints,
        )
        for i in range(n)
    ]

    times = np.arange(n_ticks) * dt
    log_pos = np.empty((n_ticks, n, 2))
    log_vel = np.empty((n_ticks, n, 2))
    log_eta = np.empty((n_ticks, n, 5))
    log_a_s = np.empty((n_ticks, n))
    log_nbrs = np.empty((n_ticks, n), dtype=np.int64)

    for k in range(n_ticks):
        etas = [st.eta for st in states]
        graph, received, v_des = swarm_half(scenario, positions, etas, goals, centers, radii)
        results = []
        rows = zip(states, v_des.tolist(), received, positions.tolist())
        for i, (st, v, nbrs, p) in enumerate(rows):
            try:
                results.append(plan_tick(st, v, nbrs, p, dt))
            except ValueError as exc:
                raise type(exc)(f"robot {i} at t={times[k]:.6f}s: {exc}") from exc
        for st, res in zip(states, results):
            st.eta = res.eta_next
        log_nbrs[k] = graph[0][1:] - graph[0][:-1]
        log_a_s[k] = [res.a_s for res in results]
        log_pos[k] = positions
        log_vel[k] = [res.v_cmd for res in results]
        log_eta[k] = [(e.phi, e.sx, e.sy, e.tx, e.ty) for e in etas]
        positions = step_world(positions, log_vel[k], dt)

    log = TrajectoryLog(
        times=times,
        positions=log_pos,
        velocities=log_vel,
        etas=log_eta,
        a_s=log_a_s,
        neighbor_counts=log_nbrs,
    )
    return log, compute_metrics(log, scenario)


def compute_metrics(log: TrajectoryLog, scenario: Scenario) -> RunMetrics:
    """Derive the run metrics from a trajectory log in one pass over blocks of
    ticks, each of about `_BLOCK_PAIRS` (tick, robot, robot) entries, so that
    its temporaries stay small.  Deterministic, whatever the block size.

    A tick counts as a hard-set violation when some robot's scaling fails
    `ConstraintSpec.in_hard_set` with `MEMBERSHIP_TOL`, the planner's own
    predicate.
    """
    t, n = log.n_ticks, log.n_robots
    if t == 0:
        raise ValueError("cannot compute metrics from an empty log")
    spec = scenario.constraints
    slots = scenario.base.as_array()[None, :, :]
    centers, radii = obstacle_arrays(scenario.obstacles)

    formation_error = np.empty(t)
    disagreement = np.empty(t)
    soft_dist = np.empty(t)
    hard_violation_count = 0
    min_obstacle_clearance = min_d2 = math.inf
    ticks = max(1, _BLOCK_PAIRS // (n * n))
    for start in range(0, t, ticks):
        block = slice(start, start + ticks)
        etas = log.etas[block]
        positions = log.positions[block]
        slot_pos = apply_transform_many(etas, slots)
        err = np.linalg.norm(positions - slot_pos, axis=-1)
        formation_error[block] = err.max(axis=1)
        spread = etas.max(axis=1) - etas.min(axis=1)
        disagreement[block] = spread.max(axis=1)
        s = etas[..., 1], etas[..., 2]
        soft_dist[block] = soft_set_distance(*s, spec).max(axis=1)
        inside = spec.in_hard_set(*s, tol=MEMBERSHIP_TOL).all(axis=1)
        hard_violation_count += int(np.count_nonzero(~inside))

        gap = np.linalg.norm(positions[:, :, None, :] - centers, axis=-1) - radii
        min_obstacle_clearance = min(min_obstacle_clearance,
                                     float(np.min(gap, initial=math.inf)))
        min_d2 = min(min_d2, float(square_distances(positions).min()))

    # The rotation is compared modulo a full turn: wrapped to (-pi, pi].
    delta = log.etas[-1].mean(axis=0) - scenario.eta_goal.as_array()
    delta[0] = math.pi - (math.pi - delta[0]) % (2.0 * math.pi)
    goal_param_error = float(np.linalg.norm(delta))

    dt_lam = scenario.dt * np.array([scenario.gains_for(i).lam for i in range(n)])
    consensus_step_max = float(np.max(dt_lam * log.neighbor_counts.max(axis=0)))
    if consensus_step_max >= 1.0:
        # Row-major order: the first tick, then its lowest robot id.
        tick, robot = np.argwhere(dt_lam * log.neighbor_counts >= 1.0)[0]
        warnings.warn(
            f"consensus step dt * lam * deg reached {consensus_step_max:.4g} >= 1, "
            f"first at tick {tick} (t={log.times[tick]:.6f}s) by robot {robot}: "
            "the parameter spread may grow (no longer a convex combination)",
            ConsensusStabilityWarning,
            stacklevel=2,
        )

    return RunMetrics(
        times=log.times.copy(),
        formation_error=formation_error,
        disagreement=disagreement,
        soft_set_distance=soft_dist,
        min_robot_distance=math.sqrt(min_d2),
        min_obstacle_clearance=min_obstacle_clearance,
        hard_violation_count=hard_violation_count,
        goal_param_error=goal_param_error,
        consensus_step_max=consensus_step_max,
    )
