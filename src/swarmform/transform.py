"""Planar formation transformation: parameter vector, Jacobian, pseudo-inverse.

A formation is a base configuration of slot positions mapped through a
rotation, a per-axis scaling, and a translation.  The five-parameter vector
(phi, sx, sy, tx, ty) fully describes the transformation; every robot in the
swarm carries its own instance of it.  All functions here are pure and
operate on immutable values, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Parameter ordering is fixed as (phi, sx, sy, tx, ty) everywhere.
PARAM_NAMES = ("phi", "sx", "sy", "tx", "ty")


class SingularMatrixError(ValueError):
    """The 2x2 normal system of the pseudo-inverse could not be solved."""


@dataclass(frozen=True, slots=True)
class FormationParams:
    """Transformation parameters: rotation angle, per-axis scaling, translation.

    The scaling must be strictly positive on both axes and every component
    finite.  The angle is deliberately not wrapped to (-pi, pi]: it evolves
    continuously, and averaging a wrapped angle across robots would be
    discontinuous.
    """

    phi: float
    sx: float
    sy: float
    tx: float
    ty: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"formation parameter {name} must be finite")
        if self.sx <= 0.0 or self.sy <= 0.0:
            raise ValueError(
                f"scaling must be strictly positive, got ({self.sx}, {self.sy})"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.phi, self.sx, self.sy, self.tx, self.ty])

    @classmethod
    def from_array(cls, arr) -> "FormationParams":
        phi, sx, sy, tx, ty = (float(x) for x in arr)
        return cls(phi, sx, sy, tx, ty)

    @classmethod
    def identity(cls) -> "FormationParams":
        return cls(0.0, 1.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class ParamDerivative:
    """Time derivative of a parameter vector, same (phi, s, t) ordering."""

    d_phi: float
    d_sx: float
    d_sy: float
    d_tx: float
    d_ty: float

    def __post_init__(self):
        for v in (self.d_phi, self.d_sx, self.d_sy, self.d_tx, self.d_ty):
            if not math.isfinite(v):
                raise ValueError("parameter derivative components must be finite")

    def __add__(self, other: "ParamDerivative") -> "ParamDerivative":
        return ParamDerivative(
            self.d_phi + other.d_phi,
            self.d_sx + other.d_sx,
            self.d_sy + other.d_sy,
            self.d_tx + other.d_tx,
            self.d_ty + other.d_ty,
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.d_phi, self.d_sx, self.d_sy, self.d_tx, self.d_ty])

    @classmethod
    def from_array(cls, arr) -> "ParamDerivative":
        a, b, c, d, e = (float(x) for x in arr)
        return cls(a, b, c, d, e)


@dataclass(frozen=True)
class BaseConfiguration:
    """Fixed slot positions defining the formation shape.

    Slot index doubles as the robot id for the whole run; the assignment of
    robots to slots is assumed known ahead of time.
    """

    slots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.slots) < 1:
            raise ValueError("a base configuration needs at least one slot")
        clean = tuple((float(x), float(y)) for x, y in self.slots)
        if not all(math.isfinite(v) for xy in clean for v in xy):
            raise ValueError("slot coordinates must be finite")
        object.__setattr__(self, "slots", clean)

    def __len__(self) -> int:
        return len(self.slots)

    def as_array(self) -> np.ndarray:
        return np.array(self.slots)


def unit_grid(side: int = 3, spacing: float = 1.0) -> BaseConfiguration:
    """Square grid of side x side slots centred on the origin."""
    if side < 1:
        raise ValueError("grid side must be >= 1")
    offset = (side - 1) / 2.0
    slots = tuple(
        ((ix - offset) * spacing, (iy - offset) * spacing)
        for ix in range(side)
        for iy in range(side)
    )
    return BaseConfiguration(slots)


def apply_transform(eta: FormationParams, c) -> np.ndarray:
    """Map a base-configuration slot to its world position.

    Computes R(phi) @ diag(sx, sy) @ c + t.
    """
    cx, cy = float(c[0]), float(c[1])
    cphi = math.cos(eta.phi)
    sphi = math.sin(eta.phi)
    x = eta.sx * cx
    y = eta.sy * cy
    return np.array([cphi * x - sphi * y + eta.tx, sphi * x + cphi * y + eta.ty])


def apply_transform_many(etas: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Vectorised apply_transform over arrays of parameter rows and slots.

    `etas` has shape (..., 5) and `slots` a broadcast-compatible (..., 2);
    returns positions of shape (..., 2).  Used for trajectory-level metrics.
    """
    etas = np.asarray(etas, dtype=float)
    slots = np.asarray(slots, dtype=float)
    cphi = np.cos(etas[..., 0])
    sphi = np.sin(etas[..., 0])
    x = etas[..., 1] * slots[..., 0]
    y = etas[..., 2] * slots[..., 1]
    px = cphi * x - sphi * y + etas[..., 3]
    py = sphi * x + cphi * y + etas[..., 4]
    return np.stack([px, py], axis=-1)


def jacobian(eta: FormationParams, c) -> np.ndarray:
    """2x5 Jacobian of the slot position with respect to (phi, sx, sy, tx, ty).

    The translation block is the 2x2 identity, which guarantees the rows are
    linearly independent for every valid parameter vector.
    """
    cx, cy = float(c[0]), float(c[1])
    cphi = math.cos(eta.phi)
    sphi = math.sin(eta.phi)
    sxcx = eta.sx * cx
    sycy = eta.sy * cy
    return np.array(
        [
            [-sphi * sxcx - cphi * sycy, cphi * cx, -sphi * cy, 1.0, 0.0],
            [cphi * sxcx - sphi * sycy, sphi * cx, cphi * cy, 0.0, 1.0],
        ]
    )


def pseudo_inverse(J: np.ndarray) -> np.ndarray:
    """Right Moore-Penrose pseudo-inverse J.T @ inv(J @ J.T) of a 2x5 Jacobian.

    The 2x2 system is solved with the closed-form determinant inverse; for
    Jacobians produced by :func:`jacobian` the translation block makes
    J @ J.T at least the identity, so the solve cannot degenerate in
    practice.  Raises :class:`SingularMatrixError` defensively otherwise.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (2, 5):
        raise ValueError(f"expected a 2x5 Jacobian, got shape {J.shape}")
    r0, r1 = J.tolist()
    m00 = sum(v * v for v in r0)
    m01 = sum(a * b for a, b in zip(r0, r1))
    m11 = sum(v * v for v in r1)
    det = m00 * m11 - m01 * m01
    if not math.isfinite(det) or abs(det) <= 1e-12:
        raise SingularMatrixError(f"J @ J.T is singular (det={det})")
    i00 = m11 / det
    i01 = -m01 / det
    i11 = m00 / det
    # J.T @ [[i00, i01], [i01, i11]]
    return np.array(
        [[a * i00 + b * i01, a * i01 + b * i11] for a, b in zip(r0, r1)]
    )
