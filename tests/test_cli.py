import pytest

from swarmform import emit_scenario, parse_scenario, reference_scenario
from swarmform.cli import main


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


def test_unknown_key_is_reported_without_traceback(tmp_path, scenario_file, capsys):
    path = tmp_path / "old.yaml"
    path.write_text(scenario_file.read_text() + "r_d: 10.0\n")
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    _assert_reported(rc, capsys, "r_d")


def test_missing_file_is_reported_without_traceback(tmp_path, capsys):
    path = tmp_path / "missing.yaml"
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    _assert_reported(rc, capsys, "missing.yaml")


def test_rejected_override_is_reported_without_traceback(tmp_path, scenario_file, capsys):
    rc = main([
        "run", "--scenario", str(scenario_file), "--out", str(tmp_path / "out"),
        "--t-final", "0.0001",
    ])
    _assert_reported(rc, capsys, "t_final")
    assert not (tmp_path / "out").exists()
