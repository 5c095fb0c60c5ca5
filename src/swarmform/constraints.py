"""Scaling-parameter constraint sets: soft projection and hard derivative scaling.

Only the scaling pair (sx, sy) affects relative distances inside the
formation, so the rotation and translation parameters are unconstrained.
The admissible scaling region is a quarter-annulus-like set in the positive
quadrant: both components at least a lower wall, Euclidean norm at most an
upper radius.  A preferred (soft) set of that shape is enforced by a penalty
pull toward its Euclidean projection; a mandatory (hard) set of the same
shape is enforced by scaling the derivative so that no step can leave it.

The planner's path takes one robot's floats; `in_hard_set` and
`soft_set_distance` also judge whole logs elementwise, with the planner's
own decisions.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# Relative slack on the squared-norm test of the disk membership check.
# Keeps the projection exactly idempotent in floating point: every output
# lands within this band, and points inside the band are returned unchanged.
# The resulting membership slack (~r * 2e-13) stays below the 1e-12 the
# metrics and tests allow.
_DISK_BAND = 4e-13

# Slack of the hard-set membership that hard_scale_factor requires: points
# closer than this to the set count as on its boundary.
MEMBERSHIP_TOL = 1e-9


class OutsideHardSetError(ValueError):
    """A scaling vector violating the hard set was passed where membership is required."""


@dataclass(frozen=True, slots=True)
class ConstraintSpec:
    """Bounds of the soft and hard scaling sets.

    `eps_soft`/`eps_hard` are the per-axis lower walls, `r_soft`/`r_hard`
    the norm caps.  The hard set must contain the soft set, and the soft
    set must have a nonempty interior (its arc must clear the walls).
    """

    eps_soft: float = 0.75
    eps_hard: float = 0.75
    r_soft: float = 2.5
    r_hard: float = 2.5

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{f.name} must be finite and > 0, got {v}")
        if self.eps_hard > self.eps_soft:
            raise ValueError("eps_hard must not exceed eps_soft")
        if self.r_soft > self.r_hard:
            raise ValueError("r_soft must not exceed r_hard")
        if self.eps_soft * math.sqrt(2.0) >= self.r_soft:
            raise ValueError(
                "soft set is empty: need eps_soft * sqrt(2) < r_soft"
            )

    @property
    def delta_soft(self) -> float:
        """Coordinate where the soft arc meets a wall: sqrt(r_soft^2 - eps_soft^2)."""
        return math.sqrt(self.r_soft**2 - self.eps_soft**2)

    def in_hard_set(self, sx, sy, tol: float = 0.0):
        """Membership in the hard set grown by `tol`, elementwise; squared disk test."""
        e = self.eps_hard - tol
        r = self.r_hard + tol
        return (sx >= e) & (sy >= e) & (sx * sx + sy * sy <= r * r)


def project_scaling(sx: float, sy: float, spec: ConstraintSpec) -> tuple[float, float]:
    """Euclidean projection of a scaling vector onto the soft set.

    Clamping both components to the wall covers every point below or left of
    the set; if the clamped point still overshoots the arc it is pulled back
    radially, and radial results that would slide past a wall snap to the
    arc endpoint on that side.  Idempotent, including in floating point.
    """
    eps = spec.eps_soft
    r = spec.r_soft
    x = sx if sx > eps else eps
    y = sy if sy > eps else eps
    nn = x * x + y * y
    if nn <= r * r * (1.0 + _DISK_BAND):
        return (x, y)
    f = r / math.sqrt(nn)
    ux = x * f
    uy = y * f
    if ux <= eps:
        return (eps, spec.delta_soft)
    if uy <= eps:
        return (spec.delta_soft, eps)
    return (ux, uy)


def soft_set_distance(sx, sy, spec: ConstraintSpec):
    """Euclidean distance from scaling vectors to the soft set (0 inside).

    Elementwise on floats or arrays, with `project_scaling`'s branches bit
    for bit.  Measured with `math.hypot` (`np.hypot` can differ in the last
    bit), and only on the entries the projection moved.
    """
    sx, sy = np.asarray(sx, float), np.asarray(sy, float)
    eps, r, delta = spec.eps_soft, spec.r_soft, spec.delta_soft
    x, y = np.maximum(sx, eps), np.maximum(sy, eps)
    nn = x * x + y * y
    outside = nn > r * r * (1.0 + _DISK_BAND)
    f = np.where(outside, r / np.sqrt(nn), 1.0)
    px, py = x * f, y * f
    snap_x = outside & (px <= eps)
    snap_y = outside & ~snap_x & (py <= eps)
    dx = sx - np.where(snap_x, eps, np.where(snap_y, delta, px))
    dy = sy - np.where(snap_x, delta, np.where(snap_y, eps, py))
    moved = (dx != 0.0) | (dy != 0.0)
    dist = np.zeros(moved.shape)
    dist[moved] = np.frompyfunc(math.hypot, 2, 1)(dx[moved], dy[moved])
    return dist[()]


def hard_scale_factor(s, ds, spec: ConstraintSpec) -> float:
    """Largest step fraction in [0, 1] that keeps s + a*ds inside the hard set.

    The hard set is convex, so the feasible fractions form an interval
    [0, a*]; a* is the first time the ray s + a*ds crosses a wall (only
    possible where the respective ds component is negative) or the bounding
    circle, capped at 1.  A zero ds component can never cross its wall and
    contributes no candidate; with ds = 0 the full step is trivially
    feasible.  On the boundary with ds pointing outward the crossing time
    is 0 and the derivative is zeroed entirely.

    Raises :class:`OutsideHardSetError` if s is not in the hard set (beyond
    a small tolerance); that is a caller bug, not a recoverable state.
    """
    sx, sy = float(s[0]), float(s[1])
    dsx, dsy = float(ds[0]), float(ds[1])
    eps = spec.eps_hard
    r = spec.r_hard

    if not spec.in_hard_set(sx, sy, tol=MEMBERSHIP_TOL):
        raise OutsideHardSetError(
            f"s=({sx}, {sy}) outside hard set "
            f"(eps_hard={eps}, r_hard={r})"
        )

    a = 1.0
    # Wall crossings: only a negative component moves toward its wall.
    if dsx < 0.0:
        a = min(a, max(0.0, (eps - sx) / dsx))
    if dsy < 0.0:
        a = min(a, max(0.0, (eps - sy) / dsy))
    # Circle crossing: larger root of |s + a*ds|^2 = r^2.  gamma <= 0 inside
    # the disk (clamped against tolerance dust), so the larger root is >= 0.
    # The two algebraically equal forms are picked by the sign of the linear
    # coefficient to avoid cancellation.
    quad = dsx * dsx + dsy * dsy
    if quad > 0.0:
        lin = 2.0 * (dsx * sx + dsy * sy)
        gamma = min(0.0, sx * sx + sy * sy - r * r)
        disc = lin * lin - 4.0 * quad * gamma
        if disc >= 0.0:
            if lin > 0.0:
                root = -2.0 * gamma / (lin + math.sqrt(disc))
            else:
                root = (-lin + math.sqrt(disc)) / (2.0 * quad)
            if math.isfinite(root):
                a = min(a, root)
    return a

