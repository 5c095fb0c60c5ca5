"""Scenario files, trajectory CSV export, and metrics summaries.

Scenario files are YAML with a flat, strictly-checked schema: unknown keys
are rejected outright so a typo cannot silently fall back to a default.
Every omitted key takes its documented default from the corresponding
dataclass, and the resolved scenario can be written back out
(`emit_scenario`) so a run's effective configuration is always on disk.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

from .apf import ApfGains, Obstacle
from .constraints import ConstraintSpec
from .planner import PlannerGains
from .simulator import RunMetrics, Scenario, TrajectoryLog
from .transform import BaseConfiguration, FormationParams

CSV_HEADER = "t,robot,px,py,vx,vy,phi,sx,sy,tx,ty,a_s,neighbors"

_TOP_KEYS = (
    "base",
    "eta_init",
    "eta_goal",
    "obstacles",
    "gains",
    "apf",
    "constraints",
    "r_c",
    "dt",
    "t_final",
    "init_noise_sigma",
    "rng_seed",
)
_ETA_KEYS = ("phi", "sx", "sy", "tx", "ty")
_GAIN_KEYS = {"lambda": "lam", "mu": "mu", "k_fb": "k_fb"}
_APF_KEYS = ("k_att", "rho", "k_rep", "xi", "nu")
_CONSTRAINT_KEYS = ("eps_soft", "eps_hard", "r_soft", "r_hard")
_OBSTACLE_KEYS = ("center", "radius")


class ParseError(ValueError):
    """The scenario file is malformed: bad syntax, unknown or missing keys,
    or values of the wrong shape."""


class ValidationError(ValueError):
    """The scenario file is well-formed but violates a value invariant."""


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    unknown = [k for k in mapping if k not in allowed]
    if unknown:
        raise ParseError(f"unknown key '{unknown[0]}' in {where}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{where} must be a pair [x, y], got {value!r}")
    return (_number(value[0], where), _number(value[1], where))


def _parse_eta(value, where: str) -> FormationParams:
    mapping = _require_mapping(value, where)
    _reject_unknown(mapping, _ETA_KEYS, where)
    kwargs = {k: _number(mapping[k], f"{where}.{k}") for k in mapping}
    defaults = {"phi": 0.0, "sx": 1.0, "sy": 1.0, "tx": 0.0, "ty": 0.0}
    defaults.update(kwargs)
    try:
        return FormationParams(**defaults)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _parse_gains_mapping(value, where: str) -> PlannerGains:
    mapping = _require_mapping(value, where)
    _reject_unknown(mapping, _GAIN_KEYS, where)
    defaults = {"lam": 32.0, "mu": 20.0, "k_fb": 2.0}
    for key, field in _GAIN_KEYS.items():
        if key in mapping:
            defaults[field] = _number(mapping[key], f"{where}.{key}")
    try:
        return PlannerGains(**defaults)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    """Build a validated Scenario from a parsed scenario mapping."""
    _require_mapping(data, "scenario")
    _reject_unknown(data, _TOP_KEYS, "scenario")
    for required in ("base", "eta_goal"):
        if required not in data:
            raise ParseError(f"missing required key '{required}'")

    if not isinstance(data["base"], (list, tuple)) or not data["base"]:
        raise ParseError("base must be a non-empty list of [x, y] slots")
    slots = tuple(_pair(p, f"base[{i}]") for i, p in enumerate(data["base"]))
    try:
        base = BaseConfiguration(slots)
    except ValueError as exc:
        raise ValidationError(f"base: {exc}") from exc

    kwargs: dict = {"base": base, "eta_goal": _parse_eta(data["eta_goal"], "eta_goal")}
    if "eta_init" in data:
        kwargs["eta_init"] = _parse_eta(data["eta_init"], "eta_init")

    if "obstacles" in data:
        if not isinstance(data["obstacles"], (list, tuple)):
            raise ParseError("obstacles must be a list")
        parsed = []
        for i, entry in enumerate(data["obstacles"]):
            where = f"obstacles[{i}]"
            mapping = _require_mapping(entry, where)
            _reject_unknown(mapping, _OBSTACLE_KEYS, where)
            if "center" not in mapping or "radius" not in mapping:
                raise ParseError(f"{where} needs 'center' and 'radius'")
            try:
                parsed.append(
                    Obstacle(
                        center=_pair(mapping["center"], f"{where}.center"),
                        radius=_number(mapping["radius"], f"{where}.radius"),
                    )
                )
            except ValueError as exc:
                if isinstance(exc, ParseError):
                    raise
                raise ValidationError(f"{where}: {exc}") from exc
        kwargs["obstacles"] = tuple(parsed)

    if "gains" in data:
        if isinstance(data["gains"], (list, tuple)):
            kwargs["gains"] = tuple(
                _parse_gains_mapping(g, f"gains[{i}]")
                for i, g in enumerate(data["gains"])
            )
        else:
            kwargs["gains"] = _parse_gains_mapping(data["gains"], "gains")

    if "apf" in data:
        mapping = _require_mapping(data["apf"], "apf")
        _reject_unknown(mapping, _APF_KEYS, "apf")
        values = {k: _number(v, f"apf.{k}") for k, v in mapping.items()}
        try:
            kwargs["apf"] = ApfGains(**values)
        except ValueError as exc:
            raise ValidationError(f"apf: {exc}") from exc

    if "constraints" in data:
        mapping = _require_mapping(data["constraints"], "constraints")
        _reject_unknown(mapping, _CONSTRAINT_KEYS, "constraints")
        values = {k: _number(v, f"constraints.{k}") for k, v in mapping.items()}
        try:
            kwargs["constraints"] = ConstraintSpec(**values)
        except ValueError as exc:
            raise ValidationError(f"constraints: {exc}") from exc

    for key in ("r_c", "dt", "t_final", "init_noise_sigma"):
        if key in data:
            kwargs[key] = _number(data[key], key)
    if "rng_seed" in data:
        kwargs["rng_seed"] = _integer(data["rng_seed"], "rng_seed")

    try:
        return Scenario(**kwargs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Mapping form of a scenario, every field explicit."""

    def eta_map(eta: FormationParams) -> dict:
        return {"phi": eta.phi, "sx": eta.sx, "sy": eta.sy, "tx": eta.tx, "ty": eta.ty}

    def gains_map(g: PlannerGains) -> dict:
        return {"lambda": g.lam, "mu": g.mu, "k_fb": g.k_fb}

    if isinstance(scenario.gains, tuple):
        gains = [gains_map(g) for g in scenario.gains]
    else:
        gains = gains_map(scenario.gains)
    return {
        "base": [list(slot) for slot in scenario.base.slots],
        "eta_init": eta_map(scenario.eta_init),
        "eta_goal": eta_map(scenario.eta_goal),
        "obstacles": [
            {"center": list(o.center), "radius": o.radius} for o in scenario.obstacles
        ],
        "gains": gains,
        "apf": {k: getattr(scenario.apf, k) for k in _APF_KEYS},
        "constraints": {k: getattr(scenario.constraints, k) for k in _CONSTRAINT_KEYS},
        "r_c": scenario.r_c,
        "dt": scenario.dt,
        "t_final": scenario.t_final,
        "init_noise_sigma": scenario.init_noise_sigma,
        "rng_seed": scenario.rng_seed,
    }


def parse_scenario(path) -> Scenario:
    """Read and validate a scenario file.

    Raises :class:`ParseError` on malformed files (with line information
    when the YAML parser provides it) and :class:`ValidationError` when a
    value violates an invariant.
    """
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}" if mark is not None else ""
        raise ParseError(f"invalid YAML in {path}{location}: {exc}") from exc
    if data is None:
        raise ParseError(f"scenario file {path} is empty")
    return scenario_from_dict(data)


def emit_scenario(scenario: Scenario, path) -> None:
    """Write the fully-resolved scenario as YAML; parse_scenario inverts it."""
    text = yaml.safe_dump(
        scenario_to_dict(scenario), sort_keys=False, default_flow_style=None
    )
    Path(path).write_text(text)


def export_csv(log: TrajectoryLog, path) -> None:
    """Write the trajectory log as CSV, one row per robot per tick.

    Floats carry 12 significant digits; identical logs produce identical
    bytes.
    """
    t, n = log.n_ticks, log.n_robots
    rows = np.empty((t * n, 13))
    rows[:, 0] = np.repeat(log.times, n)
    rows[:, 1] = np.tile(np.arange(n), t)
    rows[:, 2:4] = log.positions.reshape(t * n, 2)
    rows[:, 4:6] = log.velocities.reshape(t * n, 2)
    rows[:, 6:11] = log.etas.reshape(t * n, 5)
    rows[:, 11] = log.a_s.reshape(t * n)
    rows[:, 12] = log.neighbor_counts.reshape(t * n)
    fmt = ["%.12g", "%d"] + ["%.12g"] * 10 + ["%d"]
    np.savetxt(path, rows, fmt=fmt, delimiter=",", header=CSV_HEADER, comments="")


def format_metrics_summary(metrics: RunMetrics) -> str:
    lines = []
    for key, value in metrics.summary().items():
        if isinstance(value, float):
            if math.isinf(value):
                lines.append(f"{key}: inf")
            else:
                lines.append(f"{key}: {value:.12g}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def write_metrics_summary(metrics: RunMetrics, path) -> None:
    Path(path).write_text(format_metrics_summary(metrics))
