"""Built-in scenarios."""

from __future__ import annotations

import math

from .apf import Obstacle
from .simulator import Scenario
from .transform import FormationParams, unit_grid

# Standard deviation of the reference noisy start (variance 0.5 per axis).
NOISE_SIGMA = math.sqrt(0.5)


def reference_scenario() -> Scenario:
    """The repository's canonical experiment.

    Nine robots on a unit grid travel from the identity configuration to a
    rotated, enlarged formation 15 m to the right, squeezing between two
    circular obstacles on the way.  Every other field takes `Scenario`'s
    default.  All gain studies and the acceptance suite run variations of
    this scenario, made with `with_gains` and `dataclasses.replace`.
    """
    return Scenario(
        base=unit_grid(3, 1.0),
        eta_goal=FormationParams(5.0 * math.pi / 4.0, 1.5, 1.5, 15.0, 0.0),
        obstacles=(
            Obstacle(center=(6.0, -2.0), radius=2.0),
            Obstacle(center=(8.5, 5.0), radius=2.0),
        ),
        rng_seed=1,
    )
