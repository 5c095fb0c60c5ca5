import math
import re
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmform import (
    CSV_HEADER,
    ApfGains,
    BaseConfiguration,
    NOISE_SIGMA,
    FormationParams,
    Obstacle,
    ParseError,
    PlannerGains,
    Scenario,
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
from swarmform import fileio
from swarmform.fileio import _TOP_KEYS

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
        per_robot = {
            "base": [[0.0, 0.0], [1.0, 0.0]],
            "eta_goal": {},
            "gains": [{"lambda": 1.0}, {"mu": 1.0, "kp": 3.0}],
        }
        with pytest.raises(ParseError, match=r"'kp' in gains\[1\]"):
            scenario_from_dict(per_robot)

    def test_missing_required_key_rejected(self):
        with pytest.raises(ParseError, match="eta_goal"):
            scenario_from_dict({"base": [[0.0, 0.0]]})

    def test_malformed_yaml_reports_line(self, tmp_path):
        # An unclosed flow sequence: PyYAML's own message for it spans 7
        # lines. The problem's wording follows the backend; the form does not.
        path = tmp_path / "s.yaml"
        path.write_text("base: [[0, 0]\n  broken")
        with pytest.raises(ParseError) as exc_info:
            parse_scenario(path)
        message = str(exc_info.value)
        assert re.fullmatch(f"invalid YAML in {re.escape(str(path))} at line 2: .+", message)
        assert "\n" not in message

    def test_unreadable_character_is_one_line(self, tmp_path):
        # The reader's error carries no line and no `problem`, and its own
        # text spans two lines.
        path = tmp_path / "s.yaml"
        path.write_text("base: \x07\n")
        with pytest.raises(ParseError) as exc_info:
            parse_scenario(path)
        assert re.fullmatch(f"invalid YAML in {re.escape(str(path))}: "
                            "unacceptable character #x0007: .+", str(exc_info.value))

    def test_byte_that_is_not_utf8_is_one_line(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_bytes(MINIMAL.replace("phi: 0.0", "phi: \xff").encode("latin-1"))
        with pytest.raises(ParseError) as exc_info:
            parse_scenario(path)
        assert re.fullmatch(f"invalid YAML in {re.escape(str(path))}: "
                            "unacceptable character #x00ff: .+", str(exc_info.value))

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
        sc = replace(reference_scenario(), init_noise_sigma=math.sqrt(0.5), rng_seed=11)
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

    def test_bundled_reference_files_are_the_preset(self):
        # The acceptance suite runs the preset; the CLI and the benchmark run the files.
        assert parse_scenario(SCENARIOS / "reference.yaml") == reference_scenario()
        assert parse_scenario(SCENARIOS / "reference_noisy.yaml") == replace(
            reference_scenario(), init_noise_sigma=NOISE_SIGMA
        )

    @pytest.mark.parametrize(
        "old, new, key, line",
        [("dt: 0.001\n", "dt: 0.001\ndt: 0.002\n", "dt", 23),
         ("mu: 20.0", "mu: 20.0, mu: 1.0", "mu", 18)],
        ids=["top_level", "in_gains"],
    )
    def test_duplicate_key_is_rejected(self, tmp_path, old, new, key, line):
        text = (SCENARIOS / "reference.yaml").read_text()
        path = tmp_path / "dup.yaml"
        path.write_text(text.replace(old, new))
        with pytest.raises(ParseError, match=f"duplicate key '{key}' at line {line}"):
            parse_scenario(path)

    def test_round_trip_per_robot_gains(self, tmp_path):
        per_robot = tuple(
            PlannerGains(lam=float(i + 1), mu=2.0, k_fb=1.0) for i in range(9)
        )
        sc = replace(reference_scenario(), gains=per_robot)
        path = tmp_path / "pr.yaml"
        emit_scenario(sc, path)
        assert parse_scenario(path) == sc


# The strict loader on PyYAML's pure-Python classes: fileio's fallback for a
# PyYAML built without libyaml, with the same duplicate-key logic.
_PURE_LOADER = type("_PureStrictLoader", (fileio._UniqueKeys, yaml.SafeLoader), {})


class TestPureYamlBackend:
    """The backend-sensitive codec tests again, on the pure-Python classes."""

    @pytest.fixture(autouse=True)
    def _pure_classes(self, monkeypatch):
        monkeypatch.setattr(fileio, "_StrictLoader", _PURE_LOADER)
        monkeypatch.setattr(fileio, "_DUMPER", yaml.SafeDumper)

    test_round_trip_identity = TestParseScenario.test_round_trip_identity
    test_bundled_scenario_round_trip = TestParseScenario.test_bundled_scenario_round_trip
    test_duplicate_key_is_rejected = TestParseScenario.test_duplicate_key_is_rejected
    test_malformed_yaml_reports_line = TestParseScenario.test_malformed_yaml_reports_line
    test_unreadable_character_is_one_line = TestParseScenario.test_unreadable_character_is_one_line
    test_byte_that_is_not_utf8_is_one_line = TestParseScenario.test_byte_that_is_not_utf8_is_one_line


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)  # every exponent, subnormals too
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_GAINS = st.builds(PlannerGains, lam=_NON_NEGATIVE, mu=_NON_NEGATIVE, k_fb=_NON_NEGATIVE)


@st.composite
def _scenarios(draw):
    slots = draw(st.lists(st.tuples(_FLOATS, _FLOATS), min_size=1, max_size=40))
    dt = draw(_POSITIVE)
    return Scenario(
        base=BaseConfiguration(tuple(slots)),
        eta_goal=FormationParams(draw(_FLOATS), draw(_POSITIVE), draw(_POSITIVE),
                                 draw(_FLOATS), draw(_FLOATS)),
        obstacles=draw(st.lists(st.builds(Obstacle, st.tuples(_FLOATS, _FLOATS),
                                          _NON_NEGATIVE), max_size=3)),
        gains=draw(st.one_of(_GAINS, st.tuples(*[_GAINS] * len(slots)))),
        apf=draw(st.builds(ApfGains, *[_POSITIVE] * 5)),
        r_c=draw(st.one_of(st.just(math.inf), _POSITIVE)),
        dt=dt,
        t_final=draw(st.floats(min_value=dt, allow_infinity=False)),
        init_noise_sigma=draw(_NON_NEGATIVE),
        rng_seed=draw(st.integers(min_value=0, max_value=2**64)),
    )


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
class TestLibyamlBackend:
    def test_libyaml_is_the_default(self):
        assert issubclass(fileio._StrictLoader, yaml.CSafeLoader)
        assert fileio._DUMPER is yaml.CSafeDumper

    @settings(max_examples=100, deadline=None)
    @given(sc=_scenarios())
    def test_both_backends_emit_and_parse_alike(self, sc, tmp_path_factory):
        path = tmp_path_factory.mktemp("backends") / "s.yaml"
        emitted = []
        for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
            with patch.object(fileio, "_DUMPER", dumper):
                emit_scenario(sc, path)
            emitted.append(path.read_bytes())
        assert emitted[0] == emitted[1]
        parsed = []
        for loader in (_PURE_LOADER, fileio._StrictLoader):
            with patch.object(fileio, "_StrictLoader", loader):
                parsed.append(parse_scenario(path))
        assert parsed[0] == parsed[1] == sc


class TestSchema:
    """The codec reads its keys and defaults off the dataclasses."""

    def test_top_level_keys_are_the_scenario_fields(self):
        # Scenario's fields, declared in the order that files list them.
        assert _TOP_KEYS == ("base", "eta_init", "eta_goal", "obstacles", "gains", "apf",
                             "constraints", "r_c", "dt", "t_final", "init_noise_sigma",
                             "rng_seed")

    def test_partial_records_keep_their_other_defaults(self):
        default = Scenario(base=BaseConfiguration(((0.0, 0.0),)),
                           eta_goal=FormationParams.identity())
        sc = scenario_from_dict({
            "base": [[0.0, 0.0]],
            "eta_goal": {"tx": 5},
            "gains": {"mu": 0},
            "apf": {"nu": 2},
        })
        assert sc.gains == replace(default.gains, mu=0.0)
        assert sc.eta_goal == replace(default.eta_goal, tx=5.0)
        assert sc.apf == replace(default.apf, nu=2.0)
        assert replace(sc, eta_goal=default.eta_goal, gains=default.gains,
                       apf=default.apf) == default


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


# Values hard for "%.12g": signed zeros, subnormals, huge magnitudes, exact
# ties at the 12th digit (to even, up, with a carry), non-finite values.
_AWKWARD = np.array([
    -0.0, 0.0, 5e-324, -2.2250738585e-309, 1e300, -1e300, 100000000000.5,
    100000000001.5, 999999999999.5, -1234567890125.0, 0.1, 1 / 3,
    math.nan, math.inf, -math.inf,
])


def _awkward_log(n_ticks, n_robots):
    rng = np.random.default_rng(1000 * n_ticks + n_robots)
    shape = (n_ticks, n_robots)
    times = np.arange(n_ticks) * 1e-3
    times[:1] = -0.0
    return TrajectoryLog(
        times=times,
        positions=rng.choice(_AWKWARD, (*shape, 2)),
        velocities=rng.choice(_AWKWARD, (*shape, 2)),
        etas=rng.choice(_AWKWARD, (*shape, 5)),
        a_s=rng.choice(_AWKWARD, shape),
        # Counts past 2**53 round on the way to float64, as savetxt's did.
        neighbor_counts=rng.integers(0, 2**60, shape) >> rng.integers(0, 61, shape),
    )


def _savetxt_csv(log, path):
    """The byte oracle: the trajectory CSV as `np.savetxt` writes it."""
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


class TestExportCsv:
    # (200, 7): three blocks of whole ticks, the last one partial; (3, 600):
    # ticks longer than a block.
    @pytest.mark.parametrize(
        "n_ticks, n_robots", [(0, 3), (1, 1), (5, 1), (4, 0), (200, 7), (3, 600)]
    )
    def test_same_bytes_as_savetxt(self, tmp_path, n_ticks, n_robots):
        log = _awkward_log(n_ticks, n_robots)
        export_csv(log, tmp_path / "blocks.csv")
        _savetxt_csv(log, tmp_path / "savetxt.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

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
