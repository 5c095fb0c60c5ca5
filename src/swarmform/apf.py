"""Artificial-potential-field local planner.

Produces each robot's desired velocity as the sum of three parts: constant
attraction toward the robot's slot in the goal formation (with a linear ramp
inside a switch distance so it vanishes at the goal), repulsion from the
single nearest obstacle, and repulsion from and the single nearest other
robot.  Repulsion magnitude is k_rep * (1/d - 1/nu) inside the cutoff
distance nu and zero beyond it, with d the surface distance after clearance
inflation.  These formulas are in velocity units so their outputs add
directly into the desired velocity.

`potential_field` evaluates the field for a whole swarm at once from the
robots' pairwise squared distances (the ones the communication graph is
built from).  The per-robot functions are views of it, so the field has one
implementation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

# Lower clamp on the inflated distance: keeps repulsion finite when a robot
# has penetrated an inflated obstacle instead of producing NaN/Inf.
REPULSION_FLOOR = 1e-3


class PenetrationWarning(UserWarning):
    """A robot is inside an inflated obstacle; repulsion uses the floor distance."""


@dataclass(frozen=True, slots=True)
class ApfGains:
    """Gains of the local potential-field planner, all strictly positive.

    k_att: cruise speed toward the goal (m/s)
    rho: switch distance below which attraction ramps linearly to zero (m)
    k_rep: repulsion strength (m/s)
    xi: clearance added to every obstacle/robot surface (m)
    nu: distance beyond which repulsion is zero (m)
    """

    k_att: float = 5.0
    rho: float = 0.1
    k_rep: float = 5.0
    xi: float = 0.25
    nu: float = 1.5

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"APF gain {f.name} must be finite and > 0, got {v}")


@dataclass(frozen=True, slots=True)
class Obstacle:
    """Circular obstacle."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        cx, cy = float(self.center[0]), float(self.center[1])
        object.__setattr__(self, "center", (cx, cy))
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"obstacle radius must be finite and >= 0, got {self.radius}")
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValueError("obstacle center must be finite")


def obstacle_arrays(obstacles) -> tuple[np.ndarray, np.ndarray]:
    """Centres (O, 2) and radii (O,) of a sequence of obstacles."""
    centers = np.array([o.center for o in obstacles], dtype=float).reshape(-1, 2)
    radii = np.array([o.radius for o in obstacles], dtype=float)
    return centers, radii


def _attraction(points: np.ndarray, goals: np.ndarray, gains: ApfGains) -> np.ndarray:
    d = goals - points
    dist = np.hypot(d[:, 0], d[:, 1])
    speed = np.where(dist > gains.rho, gains.k_att, gains.k_att * dist / gains.rho)
    at_goal = dist == 0.0
    v = speed[:, None] * d / np.where(at_goal, 1.0, dist)[:, None]
    return np.where(at_goal[:, None], 0.0, v)


def _away(d: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Unit vectors along the rows of `d`, whose lengths are `norm`.

    Coincident points give no direction, so they get a fixed one and the
    output stays deterministic.
    """
    coincident = norm == 0.0
    away = d / np.where(coincident, 1.0, norm)[:, None]
    away[coincident] = (1.0, 0.0)
    return away


def _repulsion(surface: np.ndarray, away: np.ndarray, gains: ApfGains) -> np.ndarray:
    d = surface - gains.xi
    for di in d[d <= 0.0].tolist():
        warnings.warn(
            f"inflated surface distance {di:.4f} m <= 0; clamping to {REPULSION_FLOOR}",
            PenetrationWarning,
            stacklevel=3,
        )
    d = np.maximum(d, REPULSION_FLOOR)
    active = d < gains.nu
    mag = gains.k_rep * (1.0 / d - 1.0 / gains.nu)
    return np.where(active[:, None], mag[:, None] * away, 0.0)


def potential_field(
    points: np.ndarray,
    goals: np.ndarray,
    obstacle_centers: np.ndarray,
    obstacle_radii: np.ndarray,
    robots: np.ndarray,
    robot_d2: np.ndarray,
    gains: ApfGains,
) -> np.ndarray:
    """Desired velocity at each of M points: attraction toward its goal plus
    repulsion from its nearest obstacle and its nearest robot.

    `points` and `goals` are (M, 2), the obstacles (O, 2) centres and (O,)
    radii, `robots` (K, 2) positions and `robot_d2` (M, K) the squared
    distances from each point to each robot, +inf where a robot must be
    ignored (the point itself).  Ties break toward the lowest index.  One
    :class:`PenetrationWarning` is emitted per clamped repulsion.
    """
    v = _attraction(points, goals, gains)
    rows = np.arange(len(points))
    if len(obstacle_radii):
        dx = points[:, None, 0] - obstacle_centers[None, :, 0]
        dy = points[:, None, 1] - obstacle_centers[None, :, 1]
        norm = np.hypot(dx, dy)
        surface = norm - obstacle_radii
        k = np.argmin(surface, axis=1)
        away = _away(points - obstacle_centers[k], norm[rows, k])
        v = v + _repulsion(surface[rows, k], away, gains)
    if robot_d2.shape[1]:
        k = np.argmin(robot_d2, axis=1)
        dist = np.sqrt(robot_d2[rows, k])
        v = v + _repulsion(dist, _away(points - robots[k], dist), gains)
    return v


def repulsive_velocity(surface_distance: float, away_direction, gains: ApfGains) -> np.ndarray:
    """Velocity pushing away from the nearest surface.

    `surface_distance` is the raw distance to the surface; the clearance
    `xi` is subtracted here.  Zero at or beyond the cutoff `nu`; otherwise
    magnitude k_rep * (1/d - 1/nu) along `away_direction`.  A non-positive
    inflated distance flags :class:`PenetrationWarning` and clamps to the
    floor instead of blowing up.
    """
    return _repulsion(np.array([float(surface_distance)]), _row(away_direction), gains)[0]


def desired_velocity(p, p_goal, obstacles, other_robots, gains: ApfGains) -> np.ndarray:
    """Sum of goal attraction and repulsion from the nearest obstacle and
    the nearest other robot.

    Only the single closest obstacle and the single closest robot
    contribute; ties break toward the lowest index.
    """
    point = _row(p)
    robots = np.asarray(other_robots, dtype=float).reshape(-1, 2)
    dx = point[:, 0:1] - robots[None, :, 0]
    dy = point[:, 1:2] - robots[None, :, 1]
    centers, radii = obstacle_arrays(obstacles)
    return potential_field(
        point, _row(p_goal), centers, radii, robots, dx * dx + dy * dy, gains
    )[0]


def _row(xy) -> np.ndarray:
    return np.array([[float(xy[0]), float(xy[1])]])
