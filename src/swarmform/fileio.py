"""Scenario files, trajectory CSV export, and metrics summaries.

Scenario files are YAML with a flat, strictly-checked schema: unknown keys
are rejected outright so a typo cannot silently fall back to a default, and
a key given twice in one mapping so a later line cannot silently win.
The schema comes from the dataclasses: a record's keys are its fields
(`PlannerGains.lam` is spelled `lambda`), and every omitted key or field
takes the default that `Scenario` and the record classes define, an
omitted `eta_goal` field the identity's.  The resolved scenario can be
written back out (`emit_scenario`) so a run's effective configuration is
always on disk.  Both directions go through PyYAML's libyaml classes
when PyYAML was built with libyaml, and through its pure-Python classes
otherwise: the same results and bytes, picked once at import.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .apf import Obstacle
from .simulator import RunMetrics, Scenario, TrajectoryLog
from .transform import BaseConfiguration, FormationParams

CSV_HEADER = "t,robot,px,py,vx,vy,phi,sx,sy,tx,ty,a_s,neighbors"
_CSV_ROW = ",".join(["%.12g", "%d"] + ["%.12g"] * 10 + ["%d"]) + "\n"

# The top-level keys, in file order: Scenario's fields.
_TOP_KEYS = tuple(f.name for f in fields(Scenario))
# File keys of the record fields whose key is not their field name.
FILE_KEYS = {"lam": "lambda"}


class ParseError(ValueError):
    """The scenario file is malformed: bad syntax, unknown or missing keys,
    or values of the wrong shape."""


class ValidationError(ValueError):
    """The scenario file is well-formed but violates a value invariant."""


# libyaml when PyYAML has it; the pure-Python classes only as the fallback.
_LOADER, _DUMPER = ((yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__
                    else (yaml.SafeLoader, yaml.SafeDumper))


class _UniqueKeys:
    """Loader mixin that rejects a key given twice in one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):  # the base class rejects the others
                if key.value in seen:
                    line = key.start_mark.line + 1
                    raise ParseError(f"duplicate key '{key.value}' at line {line}")
                seen.add(key.value)
        return super().construct_mapping(node, deep=deep)


class _StrictLoader(_UniqueKeys, _LOADER):
    """The safe loader of the chosen backend, with unique keys."""


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


def _record(value, where: str, default):
    """`default` with the fields that the mapping `value` sets replaced.

    The keys are the file keys of `default`'s fields, the values numbers.
    """
    mapping = _require_mapping(value, where)
    names = {FILE_KEYS.get(f.name, f.name): f.name for f in fields(default)}
    _reject_unknown(mapping, names, where)
    values = {names[k]: _number(v, f"{where}.{k}") for k, v in mapping.items()}
    try:
        return replace(default, **values)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _record_dict(record) -> dict:
    """Inverse of :func:`_record`: every field of `record`, by file key."""
    return {FILE_KEYS.get(f.name, f.name): getattr(record, f.name) for f in fields(record)}


def _obstacle(value, where: str) -> Obstacle:
    mapping = _require_mapping(value, where)
    names = [f.name for f in fields(Obstacle)]
    _reject_unknown(mapping, names, where)
    if any(name not in mapping for name in names):
        raise ParseError(f"{where} needs " + " and ".join(map(repr, names)))
    center = _pair(mapping["center"], f"{where}.center")
    radius = _number(mapping["radius"], f"{where}.radius")
    try:
        return Obstacle(center, radius)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _field(key: str, value, default):
    """Scenario field `key` read from its file value; `default` is the
    field's default, or the record whose fields an omitted key takes."""
    if key == "base":
        if not isinstance(value, (list, tuple)) or not value:
            raise ParseError("base must be a non-empty list of [x, y] slots")
        slots = tuple(_pair(p, f"base[{i}]") for i, p in enumerate(value))
        try:
            return BaseConfiguration(slots)
        except ValueError as exc:
            raise ValidationError(f"base: {exc}") from exc
    if key == "obstacles":
        if not isinstance(value, (list, tuple)):
            raise ParseError("obstacles must be a list")
        return tuple(_obstacle(o, f"obstacles[{i}]") for i, o in enumerate(value))
    if key == "gains" and isinstance(value, (list, tuple)):  # one entry per robot
        return tuple(_record(g, f"gains[{i}]", default) for i, g in enumerate(value))
    if is_dataclass(default):
        return _record(value, key, default)
    if isinstance(default, int):
        return _integer(value, key)
    return _number(value, key)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a validated Scenario from a parsed scenario mapping."""
    _require_mapping(data, "scenario")
    _reject_unknown(data, _TOP_KEYS, "scenario")
    defaults = {
        f.name: f.default if f.default_factory is MISSING else f.default_factory()
        for f in fields(Scenario)
        if f.default is not MISSING or f.default_factory is not MISSING
    }
    for key in _TOP_KEYS:
        if key not in data and key not in defaults:
            raise ParseError(f"missing required key '{key}'")
    defaults["eta_goal"] = FormationParams.identity()
    kwargs = {
        key: _field(key, data[key], defaults.get(key)) for key in _TOP_KEYS if key in data
    }
    try:
        return Scenario(**kwargs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Mapping form of a scenario, every field explicit, in file order."""
    out = {}
    for key in _TOP_KEYS:
        value = getattr(scenario, key)
        if key == "base":
            value = [list(slot) for slot in value.slots]
        elif key == "obstacles":
            value = [{"center": list(o.center), "radius": o.radius} for o in value]
        elif isinstance(value, tuple):  # per-robot gains
            value = [_record_dict(g) for g in value]
        elif is_dataclass(value):
            value = _record_dict(value)
        out[key] = value
    return out


def parse_scenario(path) -> Scenario:
    """Read and validate a scenario file.

    Raises :class:`ParseError` on malformed files (with line information
    when the YAML parser provides it) and :class:`ValidationError` when a
    value violates an invariant.
    """
    raw = Path(path).read_bytes()  # as bytes, a non-UTF-8 byte is a YAMLError
    try:
        data = yaml.load(raw, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}" if mark is not None else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ParseError(f"invalid YAML in {path}{location}: {problem}") from exc
    if data is None:
        raise ParseError(f"scenario file {path} is empty")
    return scenario_from_dict(data)


def emit_scenario(scenario: Scenario, path) -> None:
    """Write the fully-resolved scenario as YAML; parse_scenario inverts it."""
    text = yaml.dump(
        scenario_to_dict(scenario), Dumper=_DUMPER, sort_keys=False, default_flow_style=None
    )
    Path(path).write_text(text)


def export_csv(log: TrajectoryLog, path) -> None:
    """Write the trajectory log as CSV, one row per robot per tick.

    Floats carry 12 significant digits; identical logs produce identical
    bytes, the ones `np.savetxt` writes with the same formats.  The rows are
    formatted in blocks of whole ticks, about 512 rows each, with one `%`
    per block, so memory holds one block at a time.
    """
    t, n = log.n_ticks, log.n_robots
    ticks = max(1, 512 // max(n, 1))
    with open(path, "w", encoding="ascii") as f:
        f.write(CSV_HEADER + "\n")
        for start in range(0, t, ticks):
            b = slice(start, start + ticks)
            times, ids = np.broadcast_arrays(log.times[b, None, None], np.arange(n)[:, None])
            rows = np.concatenate((times, ids, log.positions[b], log.velocities[b], log.etas[b],
                                   log.a_s[b, :, None], log.neighbor_counts[b, :, None]), axis=2)
            f.write((_CSV_ROW * (len(rows) * n)) % tuple(rows.ravel().tolist()))


def format_metrics_summary(metrics: RunMetrics) -> str:
    lines = []
    for key, value in metrics.summary().items():
        if isinstance(value, float):
            lines.append(f"{key}: {value:.12g}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def write_metrics_summary(metrics: RunMetrics, path) -> None:
    Path(path).write_text(format_metrics_summary(metrics))
