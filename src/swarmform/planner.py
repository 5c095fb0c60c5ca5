"""Per-robot formation planner.

One tick composes four stages in parameter space and one back in velocity
space: map the desired velocity into a parameter rate through the
pseudo-inverse, pull toward the neighbours' parameter instances, pull
toward the soft scaling set, scale the rate so the Euler step cannot leave
the hard scaling set, then map the rate back to a velocity with a feedback
term that returns the robot to its slot after perturbations.

plan_tick is a pure function of the robot's own state, its desired velocity,
its own position, and the parameter vectors received from neighbours; no
global swarm state enters, which is what makes the planner decentralized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSpec, hard_scale_factor, project_scaling
from .transform import FormationParams, ParamDerivative, apply_transform, jacobian, pseudo_inverse


class NonFiniteInputError(ValueError):
    """A NaN or infinity reached the planner; failing fast beats propagating it."""


@dataclass(frozen=True, slots=True)
class PlannerGains:
    """Stiffness gains of one robot's planner.

    `lam` sets how fast neighbouring parameter instances agree, `mu` how
    hard the scaling is pulled back into the soft set, `k_fb` how fast the
    robot returns to its slot after a perturbation.  Consensus needs a
    strictly positive `lam`; zero is accepted for ablation runs.
    """

    lam: float
    mu: float
    k_fb: float

    def __post_init__(self):
        for name in ("lam", "mu", "k_fb"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"gain {name} must be finite and >= 0, got {v}")


@dataclass(slots=True)
class PlannerState:
    """Robot-local planner state: parameter instance, slot, gains, constraint bounds.

    The simulator owns one per robot and rewrites `eta` between ticks;
    plan_tick itself never mutates it.
    """

    eta: FormationParams
    slot: tuple[float, float]
    gains: PlannerGains
    constraints: ConstraintSpec


@dataclass(frozen=True, slots=True)
class TickResult:
    """Output of one planner tick.

    `a_s` is the hard-constraint derivative scale actually applied, kept for
    trajectory logging.
    """

    v_cmd: np.ndarray
    eta_next: FormationParams
    a_s: float


def tracking_term(state: PlannerState, v_des) -> ParamDerivative:
    """Parameter rate that tracks the desired velocity through the pseudo-inverse."""
    jp = pseudo_inverse(jacobian(state.eta, state.slot)).tolist()
    vx, vy = float(v_des[0]), float(v_des[1])
    return ParamDerivative(
        jp[0][0] * vx + jp[0][1] * vy,
        jp[1][0] * vx + jp[1][1] * vy,
        jp[2][0] * vx + jp[2][1] * vy,
        jp[3][0] * vx + jp[3][1] * vy,
        jp[4][0] * vx + jp[4][1] * vy,
    )


def consensus_term(
    eta_self: FormationParams, eta_neighbors, lam: float
) -> ParamDerivative:
    """Disagreement pull -lam * sum_j (eta_self - eta_j), componentwise."""
    if lam < 0.0:
        raise ValueError("consensus gain must be >= 0")
    acc_phi = acc_sx = acc_sy = acc_tx = acc_ty = 0.0
    for other in eta_neighbors:
        acc_phi += eta_self.phi - other.phi
        acc_sx += eta_self.sx - other.sx
        acc_sy += eta_self.sy - other.sy
        acc_tx += eta_self.tx - other.tx
        acc_ty += eta_self.ty - other.ty
    return ParamDerivative(
        -lam * acc_phi, -lam * acc_sx, -lam * acc_sy, -lam * acc_tx, -lam * acc_ty
    )


def soft_term(eta: FormationParams, spec: ConstraintSpec, mu: float) -> ParamDerivative:
    """Penalty pull -mu * (eta - proj(eta)) toward the soft scaling set.

    Only the scaling components can differ from their projection, so the
    rotation and translation rates are always zero here.
    """
    if mu < 0.0:
        raise ValueError("soft-constraint gain must be >= 0")
    px, py = project_scaling(eta.sx, eta.sy, spec)
    return ParamDerivative(0.0, -mu * (eta.sx - px), -mu * (eta.sy - py), 0.0, 0.0)


def raw_derivative(state: PlannerState, v_des, eta_neighbors) -> ParamDerivative:
    """Sum of the tracking, consensus and soft-constraint parameter rates,
    before the hard-constraint scaling."""
    eta = state.eta
    gains = state.gains
    return (
        tracking_term(state, v_des)
        + consensus_term(eta, eta_neighbors, gains.lam)
        + soft_term(eta, state.constraints, gains.mu)
    )


def scale_derivative(
    eta: FormationParams, d_raw: ParamDerivative, spec: ConstraintSpec, dt: float
) -> tuple[ParamDerivative, float]:
    """Apply the hard-constraint scaling to a raw parameter rate.

    The scale factor is computed for the Euler displacement dt * d_s rather
    than the raw rate, so the post-integration scaling is guaranteed inside
    the hard set, not just the continuous-time limit.
    """
    a_s = hard_scale_factor(
        (eta.sx, eta.sy), (dt * d_raw.d_sx, dt * d_raw.d_sy), spec
    )
    if a_s == 1.0:
        return d_raw, a_s
    scaled = ParamDerivative(
        d_raw.d_phi, a_s * d_raw.d_sx, a_s * d_raw.d_sy, d_raw.d_tx, d_raw.d_ty
    )
    return scaled, a_s


def recover_velocity(state: PlannerState, d_eta: ParamDerivative, p_current) -> np.ndarray:
    """Map a parameter rate back to a velocity command.

    J @ d_eta moves the robot with its slot; the feedback term
    -k_fb * (p - slot position) rejects perturbations that broke formation.
    """
    r0, r1 = jacobian(state.eta, state.slot).tolist()
    slot_pos = apply_transform(state.eta, state.slot)
    k = state.gains.k_fb
    d = d_eta
    vx = (
        r0[0] * d.d_phi
        + r0[1] * d.d_sx
        + r0[2] * d.d_sy
        + d.d_tx
        - k * (float(p_current[0]) - slot_pos[0])
    )
    vy = (
        r1[0] * d.d_phi
        + r1[1] * d.d_sx
        + r1[2] * d.d_sy
        + d.d_ty
        - k * (float(p_current[1]) - slot_pos[1])
    )
    return np.array([vx, vy])


def plan_tick(
    state: PlannerState,
    v_des,
    eta_neighbors,
    p_current,
    dt: float,
) -> TickResult:
    """Run one synchronous planner tick for a single robot.

    Sums the tracking, consensus, and soft-constraint parameter rates,
    scales the result so the Euler step stays inside the hard scaling set,
    integrates the local parameter instance, and recovers the velocity
    command from the pre-integration parameters.

    Raises :class:`NonFiniteInputError` on NaN/Inf velocities or positions
    and ValueError on a non-positive dt.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    vx, vy = float(v_des[0]), float(v_des[1])
    px, py = float(p_current[0]), float(p_current[1])
    if not (math.isfinite(vx) and math.isfinite(vy)):
        raise NonFiniteInputError(f"desired velocity is not finite: ({vx}, {vy})")
    if not (math.isfinite(px) and math.isfinite(py)):
        raise NonFiniteInputError(f"position is not finite: ({px}, {py})")

    eta = state.eta
    d_raw = raw_derivative(state, (vx, vy), eta_neighbors)
    d_eta, a_s = scale_derivative(eta, d_raw, state.constraints, dt)

    eta_next = FormationParams(
        eta.phi + dt * d_eta.d_phi,
        eta.sx + dt * d_eta.d_sx,
        eta.sy + dt * d_eta.d_sy,
        eta.tx + dt * d_eta.d_tx,
        eta.ty + dt * d_eta.d_ty,
    )
    v_cmd = recover_velocity(state, d_eta, (px, py))
    return TickResult(v_cmd=v_cmd, eta_next=eta_next, a_s=a_s)
