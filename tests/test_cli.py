import re

import pytest

from swarmform import (
    BaseConfiguration,
    FormationParams,
    Scenario,
    emit_scenario,
    parse_scenario,
    reference_scenario,
)
from swarmform.cli import main

from .conftest import SCENARIOS
from swarmform.sweep import PARAM_FIELDS


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    emit_scenario(reference_scenario(), path)
    return path


def test_run_writes_all_artifacts(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    rc = main([
        "run", "--scenario", str(scenario_file), "--out", str(out),
        "--t-final", "0.02",
    ])
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "metrics.txt").exists()
    assert (out / "scenario.yaml").exists()
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,robot,px,py,vx,vy,phi,sx,sy,tx,ty,a_s,neighbors"
    assert len(lines) == 1 + 9 * 20
    captured = capsys.readouterr()
    assert "hard_violation_count: 0" in captured.out


def test_run_echoes_resolved_overrides(tmp_path, scenario_file):
    out = tmp_path / "out"
    rc = main([
        "run", "--scenario", str(scenario_file), "--out", str(out),
        "--t-final", "0.01", "--seed", "42", "--lambda", "4",
        "--mu", "0", "--k", "1.5", "--dt", "0.002",
    ])
    assert rc == 0
    echoed = parse_scenario(out / "scenario.yaml")
    assert echoed.rng_seed == 42
    assert echoed.dt == 0.002
    assert echoed.t_final == 0.01
    assert echoed.gains.lam == 4.0
    assert echoed.gains.mu == 0.0
    assert echoed.gains.k_fb == 1.5


def test_k_is_accepted_as_the_prefix_of_k_fb(tmp_path, scenario_file):
    echoed = []
    for spelling in ("--k_fb", "--k"):
        out = tmp_path / spelling.strip("-")
        rc = main(["run", "--scenario", str(scenario_file), "--out", str(out),
                   "--t-final", "0.01", spelling, "1.5"])
        assert rc == 0
        echoed.append((out / "scenario.yaml").read_text())
    assert echoed[0] == echoed[1]
    assert "k_fb: 1.5" in echoed[0]


def test_run_gain_options_are_the_gain_keys(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    options = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
    common = {"--help", "--scenario", "--out", "--seed", "--dt", "--t-final"}
    assert options - common == {f"--{key}" for key in PARAM_FIELDS}


def test_run_is_byte_deterministic(tmp_path, scenario_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main([
            "run", "--scenario", str(scenario_file), "--out", str(out),
            "--t-final", "0.05", "--seed", "7",
        ])
        assert rc == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "metrics.txt").read_bytes() == (out_b / "metrics.txt").read_bytes()


def test_sweep_writes_table_and_per_value_runs(tmp_path, scenario_file, capsys):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--scenario", str(scenario_file), "--out", str(out),
        "--param", "lambda", "--values", "1,32", "--t-final", "0.02",
    ])
    assert rc == 0
    assert (out / "sweep_lambda.txt").exists()
    assert (out / "trajectory_lambda_1.csv").exists()
    assert (out / "trajectory_lambda_32.csv").exists()
    assert (out / "metrics_lambda_1.txt").exists()
    table = (out / "sweep_lambda.txt").read_text()
    assert "disagreement_mean" in table
    assert "1" in capsys.readouterr().out


def test_sweep_values_that_print_alike_get_their_own_files(tmp_path, scenario_file):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--scenario", str(scenario_file), "--out", str(out),
        "--param", "mu", "--values", "0.10000000001,0.10000000002", "--t-final", "0.01",
    ])
    assert rc == 0
    for name in ("0.10000000001", "0.10000000002"):
        assert (out / f"trajectory_mu_{name}.csv").exists()
        assert (out / f"metrics_mu_{name}.txt").exists()
    lines = (out / "sweep_mu.txt").read_text().splitlines()
    assert [row.split()[0] for row in lines[2:]] == ["0.10000000001", "0.10000000002"]
    assert len({row.index("|") for row in (lines[0], *lines[2:])}) == 1


def test_bench_prints_and_writes_table(tmp_path, scenario_file, capsys):
    report_path = tmp_path / "bench.txt"
    rc = main([
        "bench", "--scenario", str(scenario_file), "--t-final", "0.02",
        "--iters", "60", "--warmup", "10", "--max-samples", "10",
        "--out", str(report_path),
    ])
    assert rc == 0
    text = report_path.read_text()
    assert "complete method" in text
    assert "tracking" in capsys.readouterr().out


def test_missing_subcommand_is_an_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def _assert_reported(rc, capsys, *names):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("swarmform: error: ")
    assert "Traceback" not in err
    for name in names:
        assert name in err
    return err


def test_unknown_key_is_reported_without_traceback(tmp_path, scenario_file, capsys):
    path = tmp_path / "old.yaml"
    path.write_text(scenario_file.read_text() + "r_d: 10.0\n")
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    _assert_reported(rc, capsys, "r_d")


def test_missing_file_is_reported_without_traceback(tmp_path, capsys):
    path = tmp_path / "missing.yaml"
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    _assert_reported(rc, capsys, "missing.yaml")


def test_yaml_syntax_error_is_one_line(tmp_path, capsys):
    # An unclosed flow sequence; PyYAML's own message for it spans 7 lines.
    path = tmp_path / "bad.yaml"
    path.write_text("base: [[0, 0]\n  broken")
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    err = _assert_reported(rc, capsys, "bad.yaml")
    assert err.count("\n") == 1
    assert "invalid YAML in" in err and "at line 2: " in err


def test_byte_that_is_not_utf8_is_one_line(tmp_path, scenario_file, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(scenario_file.read_bytes().replace(b"eta_goal:", b"eta_goal: \xff", 1))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    err = _assert_reported(rc, capsys, "latin1.yaml")
    assert err.count("\n") == 1
    assert "invalid YAML in" in err and "unacceptable character #x00ff: " in err


def test_one_robot_run_reports_infinite_distances(tmp_path, capsys):
    # No second robot and no obstacle: both minima are taken over nothing.
    path = tmp_path / "one.yaml"
    emit_scenario(Scenario(base=BaseConfiguration(((0.0, 0.0),)),
                           eta_goal=FormationParams.identity(), t_final=0.01), path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    lines = (out / "metrics.txt").read_text().splitlines()
    assert "min_robot_distance: inf" in lines
    assert "min_obstacle_clearance: inf" in lines


@pytest.mark.filterwarnings("ignore::swarmform.PenetrationWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_failed_run_is_one_line_naming_the_robot_and_the_tick(tmp_path, capsys):
    # A repulsion gain of 1e308 makes the first tick's field infinite, which
    # the planner rejects; numpy's overflow warning is the expected one.
    shipped = (SCENARIOS / "reference_noisy.yaml").read_text()
    path = tmp_path / "overflow.yaml"
    path.write_text(shipped.replace("k_rep: 5.0", "k_rep: 1.0e+308"))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
               "--t-final", "0.2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("swarmform: error: robot 0 at t=0.000000s: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_rejected_override_is_reported_without_traceback(tmp_path, scenario_file, capsys):
    rc = main([
        "run", "--scenario", str(scenario_file), "--out", str(tmp_path / "out"),
        "--t-final", "0.0001",
    ])
    _assert_reported(rc, capsys, "t_final")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["bench", "--iters", "0"], "--iters"),
        (["bench", "--warmup", "-1"], "--warmup"),
        (["sweep", "--out", "x", "--param", "mu", "--values", ""], "--values"),
        (["sweep", "--out", "x", "--param", "mu", "--values", " , "], "--values"),
        (["sweep", "--out", "x", "--param", "k", "--values", "1"], "--param"),
        (["sweep", "--out", "x", "--param", "mu", "--values", "1,1.0"], "--values"),
    ],
)
def test_bad_counts_and_values_are_rejected_by_the_parser(scenario_file, capsys, argv, name):
    # They used to reach bench() or sweep() and end in a ValueError traceback.
    with pytest.raises(SystemExit) as exit_info:
        main([argv[0], "--scenario", str(scenario_file), *argv[1:]])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("swarmform: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert name in err
