import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from swarmform import (
    CSV_HEADER,
    FormationParams,
    ParseError,
    PlannerGains,
    TrajectoryLog,
    ValidationError,
    emit_scenario,
    export_csv,
    format_metrics_summary,
    parse_scenario,
    reference_scenario,
    run,
    scenario_from_dict,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
base:
  - [-1.0, 0.0]
  - [1.0, 0.0]
eta_goal: {phi: 0.0, sx: 1.0, sy: 1.0, tx: 5.0, ty: 0.0}
"""


class TestParseScenario:
    def test_minimal_file_gets_documented_defaults(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(MINIMAL)
        sc = parse_scenario(path)
        assert sc.dt == 1e-3
        assert sc.t_final == 9.0
        assert sc.constraints.eps_soft == 0.75
        assert sc.constraints.eps_hard == 0.75
        assert sc.constraints.r_soft == 2.5
        assert sc.constraints.r_hard == 2.5
        assert sc.apf.k_att == 5.0
        assert sc.apf.rho == 0.1
        assert sc.apf.k_rep == 5.0
        assert sc.apf.xi == 0.25
        assert sc.apf.nu == 1.5
        assert sc.eta_init == FormationParams.identity()
        assert sc.obstacles == ()
        assert sc.r_c == 10.0
        assert sc.init_noise_sigma == 0.0

    def test_zero_scaling_is_a_validation_error(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(MINIMAL + "eta_init: {sx: 0.0, sy: 1.0}\n")
        with pytest.raises(ValidationError, match="strictly positive"):
            parse_scenario(path)

    @pytest.mark.parametrize("eta_init", ["{sx: 0.2}", "{sx: 3.0}"])
    def test_initial_scaling_outside_hard_set_fails_at_load(self, tmp_path, eta_init):
        path = tmp_path / "s.yaml"
        path.write_text(MINIMAL + f"eta_init: {eta_init}\n")
        with pytest.raises(ValidationError, match="eta_init"):
            parse_scenario(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(MINIMAL + "cruising_speed: 3.0\n")
        with pytest.raises(ParseError, match="cruising_speed"):
            parse_scenario(path)

    def test_unknown_nested_key_rejected(self):
        data = {
            "base": [[0.0, 0.0]],
            "eta_goal": {"phi": 0.0},
            "gains": {"lambda": 1.0, "kp": 3.0},
        }
        with pytest.raises(ParseError, match="kp"):
            scenario_from_dict(data)

    def test_missing_required_key_rejected(self):
        with pytest.raises(ParseError, match="eta_goal"):
            scenario_from_dict({"base": [[0.0, 0.0]]})

    def test_malformed_yaml_reports_line(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("base: [[0, 0]\n  broken")
        with pytest.raises(ParseError, match="line"):
            parse_scenario(path)

    def test_wrong_types_rejected(self):
        with pytest.raises(ParseError):
            scenario_from_dict({"base": [[0.0, 0.0]], "eta_goal": {"phi": "north"}})
        with pytest.raises(ParseError):
            scenario_from_dict(
                {"base": [[0.0, 0.0]], "eta_goal": {}, "rng_seed": 1.5}
            )
        with pytest.raises(ParseError):
            scenario_from_dict({"base": "grid", "eta_goal": {}})

    def test_inconsistent_bounds_are_validation_errors(self):
        data = {
            "base": [[0.0, 0.0]],
            "eta_goal": {},
            "constraints": {"eps_soft": 0.5, "eps_hard": 0.75},
        }
        with pytest.raises(ValidationError, match="eps_hard"):
            scenario_from_dict(data)
        with pytest.raises(ValidationError, match="rng_seed"):
            scenario_from_dict({"base": [[0.0, 0.0]], "eta_goal": {}, "rng_seed": -1})

    def test_per_robot_gains_list(self):
        data = {
            "base": [[0.0, 0.0], [1.0, 0.0]],
            "eta_goal": {},
            "gains": [{"lambda": 1.0}, {"lambda": 2.0, "mu": 0.0}],
        }
        sc = scenario_from_dict(data)
        assert sc.gains_for(0).lam == 1.0
        assert sc.gains_for(1).lam == 2.0
        assert sc.gains_for(1).mu == 0.0

    def test_round_trip_identity(self, tmp_path):
        sc = reference_scenario(init_noise_sigma=math.sqrt(0.5), rng_seed=11)
        path = tmp_path / "ref.yaml"
        emit_scenario(sc, path)
        assert parse_scenario(path) == sc

    @pytest.mark.parametrize(
        "path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.name
    )
    def test_bundled_scenario_round_trip(self, path, tmp_path):
        sc = parse_scenario(path)
        out = tmp_path / path.name
        emit_scenario(sc, out)
        assert out.read_text() == path.read_text()
        assert parse_scenario(out) == sc

    def test_round_trip_per_robot_gains(self, tmp_path):
        per_robot = tuple(
            PlannerGains(lam=float(i + 1), mu=2.0, k_fb=1.0) for i in range(9)
        )
        sc = replace(reference_scenario(), gains=per_robot)
        path = tmp_path / "pr.yaml"
        emit_scenario(sc, path)
        assert parse_scenario(path) == sc


def _small_log(n_ticks, n_robots):
    rng = np.random.default_rng(0)
    return TrajectoryLog(
        times=np.arange(n_ticks) * 1e-3,
        positions=rng.normal(size=(n_ticks, n_robots, 2)),
        velocities=rng.normal(size=(n_ticks, n_robots, 2)),
        etas=np.abs(rng.normal(size=(n_ticks, n_robots, 5))) + 0.5,
        a_s=np.ones((n_ticks, n_robots)),
        neighbor_counts=np.full((n_ticks, n_robots), n_robots - 1, dtype=np.int64),
    )


class TestExportCsv:
    def test_empty_log_writes_header_only(self, tmp_path):
        log = TrajectoryLog(
            times=np.zeros(0),
            positions=np.zeros((0, 1, 2)),
            velocities=np.zeros((0, 1, 2)),
            etas=np.zeros((0, 1, 5)),
            a_s=np.zeros((0, 1)),
            neighbor_counts=np.zeros((0, 1), dtype=np.int64),
        )
        path = tmp_path / "empty.csv"
        export_csv(log, path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_robot_two_ticks_gives_three_lines(self, tmp_path):
        path = tmp_path / "two.csv"
        export_csv(_small_log(2, 1), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == CSV_HEADER

    def test_values_round_trip_through_text(self, tmp_path):
        log = _small_log(3, 2)
        path = tmp_path / "log.csv"
        export_csv(log, path)
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert data.shape == (6, 13)
        assert np.allclose(data[:, 2:4], log.positions.reshape(6, 2), rtol=1e-11)
        assert np.array_equal(data[:, 1], [0, 1, 0, 1, 0, 1])
        assert np.array_equal(data[:, 12], np.full(6, 1.0))

    def test_deterministic_bytes(self, tmp_path):
        log = _small_log(4, 3)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_csv(log, a)
        export_csv(log, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            export_csv(_small_log(1, 1), tmp_path / "no_dir" / "x.csv")


class TestMetricsSummary:
    def test_summary_text_shape(self):
        short = replace(reference_scenario(), t_final=0.01)
        _, metrics = run(short)
        text = format_metrics_summary(metrics)
        assert "hard_violation_count: 0" in text
        assert text.endswith("\n")
        keys = [line.split(":")[0] for line in text.strip().splitlines()]
        assert "goal_param_error" in keys
        assert "min_obstacle_clearance" in keys
