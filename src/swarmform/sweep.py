"""Parameter-sweep driver: rerun one scenario across a gain grid."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .fileio import FILE_KEYS
from .planner import PlannerGains
from .simulator import RunMetrics, Scenario, TrajectoryLog, run

# The sweepable gains: PlannerGains' fields, by scenario-file key.
PARAM_FIELDS = {FILE_KEYS.get(f.name, f.name): f.name for f in fields(PlannerGains)}


def value_name(value: float) -> str:
    """A sweep value as its files and table row name it, at the CSV's precision."""
    return f"{value:.12g}"


@dataclass(frozen=True)
class SweepEntry:
    """Outcome of one sweep point; `error` is set when the run failed."""

    value: float
    metrics: RunMetrics | None
    log: TrajectoryLog | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def sweep(scenario: Scenario, parameter: str, values) -> list[SweepEntry]:
    """Run the scenario once per gain value, same seed throughout.

    A failing value is recorded with its error and the remaining values
    still run.
    """
    if parameter not in PARAM_FIELDS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; "
            f"expected one of {list(PARAM_FIELDS)}"
        )
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    field = PARAM_FIELDS[parameter]
    entries: list[SweepEntry] = []
    for value in values:
        try:
            variant = scenario.with_gains(**{field: float(value)})
            log, metrics = run(variant)
            entries.append(SweepEntry(float(value), metrics, log))
        except Exception as exc:  # keep sweeping; the entry carries the failure
            entries.append(
                SweepEntry(float(value), None, None, f"{type(exc).__name__}: {exc}")
            )
    return entries


def format_sweep_table(parameter: str, entries) -> str:
    cols = (
        "disagreement_mean",
        "soft_set_distance_mean",
        "formation_error_final",
        "goal_param_error",
        "min_robot_distance",
        "hard_violation_count",
    )
    names = [value_name(e.value) for e in entries]
    width = max([10] + [len(name) for name in names])
    header = parameter.ljust(width) + " | " + " | ".join(c.rjust(len(c)) for c in cols)
    lines = [header, "-" * len(header)]
    for name, e in zip(names, entries):
        if not e.ok:
            lines.append(f"{name:<{width}} | FAILED: {e.error}")
            continue
        s = e.metrics.summary()
        cells = []
        for c in cols:
            v = s[c]
            cells.append(
                (f"{v:.6g}" if isinstance(v, float) else str(v)).rjust(len(c))
            )
        lines.append(f"{name:<{width}} | " + " | ".join(cells))
    return "\n".join(lines)
