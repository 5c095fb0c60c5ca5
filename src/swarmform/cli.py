"""Command-line front end: run scenarios, sweep gains, benchmark the planner."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .bench import bench
from .fileio import (
    ParseError,
    ValidationError,
    emit_scenario,
    export_csv,
    format_metrics_summary,
    parse_scenario,
    write_metrics_summary,
)
from .simulator import Scenario, run
from .sweep import PARAM_FIELDS, format_sweep_table, sweep, value_name


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    """The scenario with the command-line overrides applied, all at once.

    Raises :class:`ValidationError` when the result breaks an invariant.
    """
    fields = {"rng_seed": args.seed, "dt": args.dt, "t_final": args.t_final}
    gains = {name: getattr(args, name, None) for name in PARAM_FIELDS.values()}
    fields = {k: v for k, v in fields.items() if v is not None}
    gains = {k: v for k, v in gains.items() if v is not None}
    try:
        scenario = replace(scenario, **fields)
        return scenario.with_gains(**gains) if gains else scenario
    except ValueError as exc:
        raise ValidationError(f"rejected override: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, exit code 2
        self.exit(2, f"swarmform: error: {message}\n")


def _at_least(minimum: int):
    def count(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)
    return count


def gain_grid(text: str) -> list[float]:
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    names = [value_name(v) for v in values]
    for i, name in enumerate(names):
        if name in names[:i]:  # both runs would write the same files
            raise argparse.ArgumentTypeError(f"repeats the value {name}")
    return values


def _add_common_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override rng_seed")
    parser.add_argument("--dt", type=float, default=None, help="override time step (s)")
    parser.add_argument(
        "--t-final", type=float, default=None, help="override simulated horizon (s)"
    )


def _cmd_run(args) -> int:
    scenario = _apply_overrides(parse_scenario(args.scenario), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_scenario(scenario, out / "scenario.yaml")
    t0 = time.perf_counter()
    log, metrics = run(scenario)
    elapsed = time.perf_counter() - t0
    export_csv(log, out / "trajectory.csv")
    write_metrics_summary(metrics, out / "metrics.txt")
    print(f"simulated {scenario.n_ticks} ticks x {scenario.n_robots} robots "
          f"in {elapsed:.2f}s")
    print(format_metrics_summary(metrics), end="")
    print(f"wrote {out / 'trajectory.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _apply_overrides(parse_scenario(args.scenario), args)
    entries = sweep(scenario, args.param, args.values)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for entry in entries:
        if not entry.ok:
            continue
        tag = f"{args.param}_{value_name(entry.value)}"
        export_csv(entry.log, out / f"trajectory_{tag}.csv")
        write_metrics_summary(entry.metrics, out / f"metrics_{tag}.txt")
    table = format_sweep_table(args.param, entries)
    (out / f"sweep_{args.param}.txt").write_text(table + "\n")
    print(table)
    failures = [e for e in entries if not e.ok]
    if failures:
        print(f"{len(failures)} of {len(entries)} runs failed", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:
    scenario = _apply_overrides(parse_scenario(args.scenario), args)
    report = bench(
        scenario,
        warmup_iters=args.warmup,
        measured_iters=args.iters,
        max_samples=args.max_samples,
    )
    table = report.format_table()
    print(table)
    if args.out is not None:
        Path(args.out).write_text(table + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swarmform",
        description="Decentralized rigid-formation planner: simulate, sweep, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and export CSV + metrics")
    p_run.add_argument("--scenario", required=True, help="scenario YAML file")
    p_run.add_argument("--out", required=True, help="output directory")
    _add_common_overrides(p_run)
    for key, name in PARAM_FIELDS.items():
        p_run.add_argument(f"--{key}", dest=name, type=float, default=None,
                           help=f"override the planner gain {key}")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun a scenario across a gain grid")
    p_sweep.add_argument("--scenario", required=True, help="scenario YAML file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--param", required=True,
                         choices=tuple(PARAM_FIELDS),
                         help="gain to vary")
    p_sweep.add_argument("--values", required=True, type=gain_grid,
                         help="comma-separated gain values, e.g. 1,2,8,32")
    _add_common_overrides(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bench = sub.add_parser("bench", help="micro-benchmark the planner steps")
    p_bench.add_argument("--scenario", required=True, help="scenario YAML file")
    p_bench.add_argument("--iters", type=_at_least(1), default=100_000,
                         help="measured iterations per step")
    p_bench.add_argument("--warmup", type=_at_least(0), default=1000,
                         help="warmup iterations per step")
    p_bench.add_argument("--max-samples", type=_at_least(1), default=256,
                         help="number of robot states sampled from the run")
    p_bench.add_argument("--out", default=None, help="also write the table here")
    _add_common_overrides(p_bench)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  A bad scenario file, a rejected override or an
    unreadable file is reported on one stderr line with exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"swarmform: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
