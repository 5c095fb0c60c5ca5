"""Self-tests of the benchmark: `python3 -m pytest perfbench -q` from the repo root.

Each workload runs in a tiny form (a few ticks); the traced mode must leave
trajectories bit-identical and every rebound name restored.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import warnings
from array import array
from dataclasses import replace
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from worker import Tally, median, one_pass, set_percentiles, timed_passes, warm_up  # noqa: E402

TINY_TICKS = {"reference": 120, "swarm_400": 4, "dense_bound": 12, "robot_tick": 120}


def tiny(name: str, seed: int = 0):
    workload = wl.WORKLOADS[name]
    scenario = workload.scenario(seed)
    return workload, replace(scenario, t_final=TINY_TICKS[name] * scenario.dt)


@pytest.fixture(autouse=True)
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_workload_job_and_planner_calls(name, tmp_path):
    workload, scenario = tiny(name)
    path = tmp_path / "input.yaml"
    wl.fileio.emit_scenario(scenario, path)
    job = wl.run_job(path, tmp_path / "job")
    assert wl.job_problems(job, None) == []
    again = wl.run_job(path, tmp_path / "again")
    assert wl.job_problems(again, job) == []

    picks = wl.pick_robot_ticks(workload, job.log, seed=3)
    assert len(picks) == wl.N_INPUT_SETS
    assert all(0 <= k < job.log.n_ticks - 1 for k, _ in picks)
    sets = wl.build_input_sets(job.scenario, job.log, picks)
    tally = Tally()
    samples, passes = array("q"), []
    warm_up(sets, scenario.dt, tally)
    timed_passes(sets, scenario.dt, 0.05, samples, passes, tally)
    assert tally.failed == 0, tally.reasons
    assert len(samples) == len(passes) * len(sets) > 0


def test_checks_catch_wrong_outputs(tmp_path):
    workload, scenario = tiny("reference")
    path = tmp_path / "input.yaml"
    wl.fileio.emit_scenario(scenario, path)
    job = wl.run_job(path, tmp_path / "job")
    golden = wl.golden_record(job.log)
    assert wl.golden_problems(golden, job.log) == []
    golden["positions"][1, 0, 0] += 1e-6
    assert wl.golden_problems(golden, job.log) != []

    sets = wl.build_input_sets(job.scenario, job.log, [(5, 2), (9, 4)])
    outs, _ = one_pass(sets, scenario.dt, None)
    assert all(wl.close(o, s.expect) for o, s in zip(outs, sets))
    assert not wl.close((outs[0][0] + 1e-6, *outs[0][1:]), sets[0].expect)

    (job.out / "trajectory.csv").write_text("t,robot\n")
    assert any("rows" in p for p in wl.job_problems(job, None))


def test_percentiles_read_the_input_costs_not_the_stalls():
    # Set i costs 20 + i/100 us, and every pass stalls on a few sets.
    rng = np.random.default_rng(0)
    n_sets, passes = 1000, 100
    cost = 20_000 + 10 * np.arange(n_sets)
    # Passes at half speed take twice as long and carry a factor of 1/2.
    slow = np.arange(passes) % 3 == 0
    calls = np.tile(cost, (passes, 1)) * np.where(slow, 2, 1)[:, None]
    calls[np.arange(passes), rng.integers(0, n_sets, passes)] *= 5
    scales = np.where(slow, 0.5, 1.0)
    p50, p99 = set_percentiles(array("q", calls.ravel().tolist()), n_sets, scales)
    assert p50 == pytest.approx(np.quantile(cost, 0.5) / 1e3)
    assert p99 == pytest.approx(np.quantile(cost, 0.99) / 1e3)
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_calibration_scales_to_the_reference_speed():
    ref = calibrate.REF_S
    assert calibrate.scale([ref] * 3) == 1.0
    sampler = calibrate.Sampler()
    # kernels at twice the reference time: a host at half speed
    sampler.kernels = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (4.0, 9.0)]
    assert sampler.factor(1.5, 3.5) == 0.5
    # 2 s less the two kernels inside, at half speed
    assert sampler.scaled(1.5, 3.5) == pytest.approx((2.0 - 4 * ref) * 0.5)
    assert sampler.scaled(3.5, 3.6, pad=0.45) == pytest.approx(0.1 * ref / 9.0)
    with pytest.raises(ValueError):
        sampler.factor(4.5, 5.0)


def test_sampler_times_the_kernel_while_active():
    with calibrate.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() < t0 + 5 * calibrate.INTERVAL_S:
            sum(range(1000))
        t1 = time.perf_counter()
    n = len(sampler.kernels)
    assert 4 <= n <= 7  # one at entry, then one per interval
    assert 0 < sampler.scaled(t0, t1) < 2 * (t1 - t0) * sampler.factor(t0, t1)
    time.sleep(2 * calibrate.INTERVAL_S)
    assert len(sampler.kernels) == n
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_robot_tick_picks_follow_seed_and_keep_clamped_share():
    workload, scenario = tiny("robot_tick")
    log, _ = wl.simulator.run(scenario)
    log.a_s[:20, :3] = 0.5  # a known clamped share to stratify on
    share = (log.a_s[: log.n_ticks - 1] < 1.0).mean()
    a = wl.pick_robot_ticks(workload, log, seed=1)
    b = wl.pick_robot_ticks(workload, log, seed=2)
    assert a == wl.pick_robot_ticks(workload, log, seed=1)
    assert a != b
    for picks in (a, b):
        clamped = sum(log.a_s[k, i] < 1.0 for k, i in picks)
        assert clamped == round(wl.N_INPUT_SETS * share)


def _bound_names():
    bound = {}
    for module_name, attr, _ in tracing.TARGETS:
        bound[(module_name, attr)] = getattr(import_module(module_name), attr)
    for module_name, cls_name in tracing.VALUE_OBJECTS:
        cls = getattr(import_module(module_name), cls_name)
        bound[(cls_name, "__post_init__")] = vars(cls)["__post_init__"]
    return bound


def _current(key):
    owner, attr = key
    if owner.startswith("swarmform."):
        return getattr(import_module(owner), attr)
    return vars(getattr(import_module("swarmform.transform"), owner))[attr]


def test_traced_run_is_bit_identical_and_its_spans_form_one_tree(tmp_path):
    _, scenario = tiny("dense_bound")
    path = tmp_path / "input.yaml"
    wl.fileio.emit_scenario(scenario, path)
    untraced = wl.run_job(path, tmp_path / "untraced")
    with tracing.Tracer() as tracer:
        with tracer.span("bench.job"):
            traced = wl.run_job(path, tmp_path / "traced")
    assert wl.same_trajectory(traced.log, untraced.log)
    assert tracer.absent == []
    m = tracing.per_layer(
        tracer, n_robots=100, n_ticks=traced.log.n_ticks, job_wall_s=traced.wall_s,
        run_wall_s=traced.run_s, untraced_run_wall_s=untraced.run_s, csv_bytes=1,
    )
    assert tracer.problems("bench.job") == []
    assert m["planner.plan_tick.calls"][0] == 100 * traced.log.n_ticks
    assert m["network.edges_per_tick"][0] == 100 * 99 / 2
    assert m["transform.jacobian.calls_per_robot_tick"][0] == 2
    assert m["constraints.soft_active_frac"][0] > 0.5
    shares = [v for k, (v, _) in m.items() if k.endswith(".self_share")]
    assert 0.9 < sum(shares) <= 1.0


def test_span_checks_catch_a_broken_tree():
    tracer = tracing.Tracer()
    with tracer.span("bench.job"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    assert tracer.problems("bench.job") == []
    assert tracer.problems("other") != []
    tracer.end[1] = tracer.end[0] + 1     # a child outlives its parent
    assert any("outside" in p for p in tracer.problems("bench.job"))
    tracer.end[1] = tracer.start[2] + 1   # and overlaps its sibling
    assert any("overlap" in p for p in tracer.problems("bench.job"))
    tracer.parent[2] = -1                 # a lost parent makes a second root
    assert any("root" in p for p in tracer.problems("bench.job"))


def test_every_rebound_name_is_restored_even_on_error():
    before = _bound_names()
    showwarning = warnings.showwarning
    with pytest.raises(RuntimeError, match="boom"):
        with tracing.Tracer():
            assert all(_current(k) is not v for k, v in before.items())
            raise RuntimeError("boom")
    assert all(_current(k) is v for k, v in before.items())
    assert warnings.showwarning is showwarning


def test_absent_target_reads_zero_calls(monkeypatch):
    before = _bound_names()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("swarmform.planner", "no_such_stage", "planner.no_such_stage"),))
    with tracing.Tracer() as tracer:
        wl.simulator.step_world(np.zeros((2, 2)), np.ones((2, 2)), 1e-3)
    assert tracer.absent == ["swarmform.planner.no_such_stage"]
    assert all(_current(k) is v for k, v in before.items())
    m = tracing.per_layer(tracer, n_robots=2, n_ticks=1, job_wall_s=1.0, run_wall_s=1.0,
                          untraced_run_wall_s=1.0, csv_bytes=0)
    assert m["planner.plan_tick.calls"][0] == 0
    assert tracer.stats()["simulator.step_world"]["calls"] == 1


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
