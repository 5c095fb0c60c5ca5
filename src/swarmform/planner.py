"""Per-robot formation planner.

One tick composes four stages in parameter space and one back in velocity
space: map the desired velocity into a parameter rate through the
pseudo-inverse, pull toward the neighbours' parameter instances, pull
toward the soft scaling set, scale the rate so the Euler step cannot leave
the hard scaling set, then map the rate back to a velocity with a feedback
term that returns the robot to its slot after perturbations.

The stages pass rates as float 5-tuples (d_phi, d_sx, d_sy, d_tx, d_ty) and
the command as a float pair; a tick builds no array, and its one value
object is the next FormationParams, whose finiteness check also covers every
rate component.

plan_tick is a pure function of the robot's own state, its desired velocity,
its own position, and the parameter vectors received from neighbours; no
global swarm state enters, which is what makes the planner decentralized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .constraints import ConstraintSpec, hard_scale_factor, project_scaling
from .transform import FormationParams, apply_transform, jacobian, pseudo_inverse

# A parameter rate (d_phi, d_sx, d_sy, d_tx, d_ty), as the stages pass it.
Rate = tuple[float, float, float, float, float]


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
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"gain {f.name} must be finite and >= 0, got {v}")


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

    `v_cmd` is the (vx, vy) pair of `recover_velocity`; `a_s` the
    hard-constraint derivative scale actually applied, kept for trajectory
    logging.
    """

    v_cmd: tuple[float, float]
    eta_next: FormationParams
    a_s: float


def tracking_term(state: PlannerState, v_des) -> Rate:
    """Parameter rate that tracks the desired velocity through the pseudo-inverse."""
    r0, r1, r2, r3, r4 = pseudo_inverse(jacobian(state.eta, state.slot))
    vx, vy = float(v_des[0]), float(v_des[1])
    return (
        r0[0] * vx + r0[1] * vy,
        r1[0] * vx + r1[1] * vy,
        r2[0] * vx + r2[1] * vy,
        r3[0] * vx + r3[1] * vy,
        r4[0] * vx + r4[1] * vy,
    )


def consensus_term(eta_self: FormationParams, eta_neighbors, lam: float) -> Rate:
    """Disagreement pull -lam * sum_j (eta_self - eta_j), componentwise."""
    if lam < 0.0:
        raise ValueError("consensus gain must be >= 0")
    phi, sx, sy, tx, ty = eta_self.phi, eta_self.sx, eta_self.sy, eta_self.tx, eta_self.ty
    acc_phi = acc_sx = acc_sy = acc_tx = acc_ty = 0.0
    for other in eta_neighbors:
        acc_phi += phi - other.phi
        acc_sx += sx - other.sx
        acc_sy += sy - other.sy
        acc_tx += tx - other.tx
        acc_ty += ty - other.ty
    return (-lam * acc_phi, -lam * acc_sx, -lam * acc_sy, -lam * acc_tx, -lam * acc_ty)


def soft_term(eta: FormationParams, spec: ConstraintSpec, mu: float) -> Rate:
    """Penalty pull -mu * (eta - proj(eta)) toward the soft scaling set.

    Only the scaling components can differ from their projection, so the
    rotation and translation rates are always zero here.
    """
    if mu < 0.0:
        raise ValueError("soft-constraint gain must be >= 0")
    px, py = project_scaling(eta.sx, eta.sy, spec)
    return (0.0, -mu * (eta.sx - px), -mu * (eta.sy - py), 0.0, 0.0)


def raw_derivative(state: PlannerState, v_des, eta_neighbors) -> Rate:
    """Sum of the tracking, consensus and soft-constraint parameter rates,
    before the hard-constraint scaling."""
    t = tracking_term(state, v_des)
    c = consensus_term(state.eta, eta_neighbors, state.gains.lam)
    s = soft_term(state.eta, state.constraints, state.gains.mu)
    return (t[0] + c[0] + s[0], t[1] + c[1] + s[1], t[2] + c[2] + s[2],
            t[3] + c[3] + s[3], t[4] + c[4] + s[4])


def scale_derivative(
    eta: FormationParams, d_raw: Rate, spec: ConstraintSpec, dt: float
) -> tuple[Rate, float]:
    """Apply the hard-constraint scaling to a raw parameter rate.

    The scale factor is computed for the Euler displacement dt * d_s rather
    than the raw rate, so the post-integration scaling is guaranteed inside
    the hard set, not just the continuous-time limit.  An unscaled rate
    (a_s == 1) is returned as given.
    """
    d_phi, d_sx, d_sy, d_tx, d_ty = d_raw
    a_s = hard_scale_factor((eta.sx, eta.sy), (dt * d_sx, dt * d_sy), spec)
    if a_s == 1.0:
        return d_raw, a_s
    return (d_phi, a_s * d_sx, a_s * d_sy, d_tx, d_ty), a_s


def recover_velocity(state: PlannerState, d_eta: Rate, p_current) -> tuple[float, float]:
    """Map a parameter rate back to a velocity command.

    J @ d_eta moves the robot with its slot; the feedback term
    -k_fb * (p - slot position) rejects perturbations that broke formation.
    """
    r0, r1 = jacobian(state.eta, state.slot)
    slot_x, slot_y = apply_transform(state.eta, state.slot)
    k = state.gains.k_fb
    px, py = float(p_current[0]), float(p_current[1])
    d_phi, d_sx, d_sy, d_tx, d_ty = d_eta
    vx = r0[0] * d_phi + r0[1] * d_sx + r0[2] * d_sy + d_tx - k * (px - slot_x)
    vy = r1[0] * d_phi + r1[1] * d_sx + r1[2] * d_sy + d_ty - k * (py - slot_y)
    return (vx, vy)


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

    Raises :class:`NonFiniteInputError` on NaN/Inf velocities or positions,
    and ValueError on a non-positive dt or a non-finite parameter rate (for
    example a consensus sum that overflows).
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

    # The tick's one value object.  Its check is the rates' finiteness check
    # too: a non-finite rate cannot integrate to a finite parameter.
    d_phi, d_sx, d_sy, d_tx, d_ty = d_eta
    eta_next = FormationParams(
        eta.phi + dt * d_phi, eta.sx + dt * d_sx, eta.sy + dt * d_sy,
        eta.tx + dt * d_tx, eta.ty + dt * d_ty,
    )
    v_cmd = recover_velocity(state, d_eta, (px, py))
    return TickResult(v_cmd=v_cmd, eta_next=eta_next, a_s=a_s)
