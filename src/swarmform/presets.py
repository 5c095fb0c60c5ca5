"""Built-in scenarios."""

from __future__ import annotations

import math

from .apf import Obstacle
from .planner import PlannerGains
from .simulator import Scenario
from .transform import FormationParams, unit_grid

# Standard deviation of the reference noisy start (variance 0.5 per axis).
NOISE_SIGMA = math.sqrt(0.5)


def reference_scenario(
    lam: float = 32.0,
    mu: float = 20.0,
    k_fb: float = 2.0,
    *,
    init_noise_sigma: float = 0.0,
    rng_seed: int = 1,
) -> Scenario:
    """The repository's canonical experiment.

    Nine robots on a unit grid travel from the identity configuration to a
    rotated, enlarged formation 15 m to the right, squeezing between two
    circular obstacles on the way.  All gain studies and the acceptance
    suite run variations of this scenario.
    """
    return Scenario(
        base=unit_grid(3, 1.0),
        eta_init=FormationParams.identity(),
        eta_goal=FormationParams(5.0 * math.pi / 4.0, 1.5, 1.5, 15.0, 0.0),
        obstacles=(
            Obstacle(center=(6.0, -2.0), radius=2.0),
            Obstacle(center=(8.5, 5.0), radius=2.0),
        ),
        gains=PlannerGains(lam=lam, mu=mu, k_fb=k_fb),
        r_c=10.0,
        dt=1e-3,
        t_final=9.0,
        init_noise_sigma=init_noise_sigma,
        rng_seed=rng_seed,
    )
