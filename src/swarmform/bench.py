"""Micro-benchmark of the planner steps.

Times each planner stage in isolation — tracking, consensus, soft
constraint, hard constraint, recovering velocity — plus the complete tick,
on representative robot states sampled from an actual scenario run.  Uses
the monotonic clock per call, a warmup phase, and reports min / median /
mean / max / variance per step, one table row per stage.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from .apf import obstacle_arrays, potential_field
from .network import build_graph, exchange, square_distances
from .planner import (
    PlannerState,
    Rate,
    consensus_term,
    plan_tick,
    raw_derivative,
    recover_velocity,
    scale_derivative,
    soft_term,
    tracking_term,
)
from .simulator import Scenario, run
from .transform import FormationParams, apply_transform

STEP_NAMES = (
    "tracking",
    "consensus",
    "soft constraint",
    "hard constraint",
    "recovering velocity",
    "complete method",
)


@dataclass(frozen=True)
class StepStats:
    """Latency statistics for one step, in seconds."""

    min: float
    median: float
    mean: float
    max: float
    variance: float


@dataclass(frozen=True)
class BenchReport:
    steps: dict[str, StepStats]
    warmup_iters: int
    measured_iters: int
    n_samples: int

    def format_table(self) -> str:
        cols = ("min", "median", "mean", "max", "variance")
        width = max(len(name) for name in self.steps)
        header = "step".ljust(width) + " | " + " | ".join(c.rjust(9) for c in cols)
        rule = "-" * len(header)
        lines = [header, rule]
        for name, st in self.steps.items():
            vals = " | ".join(f"{getattr(st, c):9.3g}" for c in cols)
            lines.append(name.ljust(width) + " | " + vals)
        lines.append(rule)
        lines.append(
            f"seconds per call; {self.measured_iters} iterations over "
            f"{self.n_samples} sampled states, {self.warmup_iters} warmup"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class _Sample:
    state: PlannerState
    v_des: np.ndarray
    neighbors: list
    p: np.ndarray
    dt: float
    d_raw: Rate
    d_scaled: Rate


def collect_samples(scenario: Scenario, max_samples: int = 256) -> list[_Sample]:
    """Run the scenario and rebuild planner inputs at evenly spaced ticks.

    The rebuilt states reproduce exactly what each robot saw during the
    run, so the timed calls exercise realistic parameter values, neighbour
    counts, and constraint activity.
    """
    log, _ = run(scenario)
    n = log.n_robots
    n_ticks_wanted = max(1, -(-max_samples // n))  # ceil division
    ticks = np.unique(
        np.linspace(0, log.n_ticks - 1, n_ticks_wanted).astype(int)
    )
    goals = np.array([apply_transform(scenario.eta_goal, c) for c in scenario.base.slots])
    centers, radii = obstacle_arrays(scenario.obstacles)
    samples: list[_Sample] = []
    for k in ticks:
        positions = log.positions[k]
        etas = [FormationParams.from_array(log.etas[k, i]) for i in range(n)]
        d2 = square_distances(positions)
        received = exchange(build_graph(positions, scenario.r_c, d2), etas)
        v_des = potential_field(
            positions, goals, centers, radii, positions, d2, scenario.apf
        )
        for i in range(n):
            if len(samples) >= max_samples:
                return samples
            state = PlannerState(
                eta=etas[i],
                slot=scenario.base.slots[i],
                gains=scenario.gains_for(i),
                constraints=scenario.constraints,
            )
            d_raw = raw_derivative(state, v_des[i], received[i])
            d_scaled, _ = scale_derivative(state.eta, d_raw, state.constraints, scenario.dt)
            samples.append(
                _Sample(
                    state=state,
                    v_des=v_des[i],
                    neighbors=received[i],
                    p=positions[i].copy(),
                    dt=scenario.dt,
                    d_raw=d_raw,
                    d_scaled=d_scaled,
                )
            )
    return samples


def _time_step(fn, samples, warmup_iters: int, measured_iters: int) -> np.ndarray:
    m = len(samples)
    for k in range(warmup_iters):
        fn(samples[k % m])
    out = np.empty(measured_iters)
    clock = time.perf_counter_ns
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for k in range(measured_iters):
            s = samples[k % m]
            t0 = clock()
            fn(s)
            t1 = clock()
            out[k] = t1 - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return out * 1e-9


def _stats(seconds: np.ndarray) -> StepStats:
    return StepStats(
        min=float(seconds.min()),
        median=float(np.median(seconds)),
        mean=float(seconds.mean()),
        max=float(seconds.max()),
        variance=float(seconds.var(ddof=1)) if len(seconds) > 1 else 0.0,
    )


def bench(
    scenario: Scenario,
    warmup_iters: int = 1000,
    measured_iters: int = 100_000,
    max_samples: int = 256,
) -> BenchReport:
    """Measure the per-call latency of every planner step on one scenario."""
    if warmup_iters < 0 or measured_iters <= 0:
        raise ValueError("iteration counts must be positive")
    if max_samples < 1:
        raise ValueError(f"max_samples must be >= 1, got {max_samples}")
    samples = collect_samples(scenario, max_samples=max_samples)

    step_fns = {
        "tracking": lambda s: tracking_term(s.state, s.v_des),
        "consensus": lambda s: consensus_term(s.state.eta, s.neighbors, s.state.gains.lam),
        "soft constraint": lambda s: soft_term(s.state.eta, s.state.constraints, s.state.gains.mu),
        "hard constraint": lambda s: scale_derivative(s.state.eta, s.d_raw, s.state.constraints, s.dt),
        "recovering velocity": lambda s: recover_velocity(s.state, s.d_scaled, s.p),
        "complete method": lambda s: plan_tick(s.state, s.v_des, s.neighbors, s.p, s.dt),
    }
    steps = {
        name: _stats(_time_step(fn, samples, warmup_iters, measured_iters))
        for name, fn in step_fns.items()
    }
    return BenchReport(
        steps=steps,
        warmup_iters=warmup_iters,
        measured_iters=measured_iters,
        n_samples=len(samples),
    )
