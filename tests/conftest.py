"""Shared fixtures: random samplers and a session-level cache of full runs."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from swarmform import (
    FormationParams,
    RunMetrics,
    Scenario,
    TrajectoryLog,
    parse_scenario,
    reference_scenario,
    run,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def random_eta(rng: np.random.Generator) -> FormationParams:
    """Parameter sample over the documented test ranges."""
    return FormationParams(
        phi=rng.uniform(-math.pi, math.pi),
        sx=rng.uniform(0.1, 3.0),
        sy=rng.uniform(0.1, 3.0),
        tx=rng.uniform(-20.0, 20.0),
        ty=rng.uniform(-20.0, 20.0),
    )


def random_slot(rng: np.random.Generator) -> tuple[float, float]:
    return (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))


@dataclass(frozen=True)
class CachedRun:
    scenario: Scenario
    log: TrajectoryLog
    metrics: RunMetrics
    wall_time: float


class RunCache:
    """Memoizes full runs of the reference scenario and of the bundled
    scenario files, so the gain-grid tests and the acceptance suite never
    simulate the same configuration twice."""

    def __init__(self):
        self._cache: dict[tuple, CachedRun] = {}

    def get(
        self,
        lam: float = 32.0,
        mu: float = 20.0,
        k_fb: float = 2.0,
        noise: float = 0.0,
        seed: int = 1,
    ) -> CachedRun:
        return self._run(
            (lam, mu, k_fb, noise, seed),
            lambda: replace(reference_scenario(), init_noise_sigma=noise,
                            rng_seed=seed).with_gains(lam=lam, mu=mu, k_fb=k_fb),
        )

    def bundled(self, name: str, mu: float) -> CachedRun:
        """Run of the bundled file `scenarios/<name>` with its mu replaced."""
        return self._run((name, mu), lambda: parse_scenario(SCENARIOS / name).with_gains(mu=mu))

    def _run(self, key: tuple, make_scenario) -> CachedRun:
        if key not in self._cache:
            scenario = make_scenario()
            t0 = time.perf_counter()
            log, metrics = run(scenario)
            wall = time.perf_counter() - t0
            self._cache[key] = CachedRun(scenario, log, metrics, wall)
        return self._cache[key]


@pytest.fixture(scope="session")
def run_cache() -> RunCache:
    return RunCache()
