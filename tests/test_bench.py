from dataclasses import replace

import numpy as np
import pytest

from swarmform import reference_scenario
from swarmform.bench import STEP_NAMES, bench, collect_samples
from swarmform.planner import plan_tick


@pytest.fixture(scope="module")
def short_scenario():
    return replace(reference_scenario(), t_final=0.05)


class TestSampling:
    def test_sample_collection_is_deterministic(self, short_scenario):
        a = collect_samples(short_scenario, max_samples=30)
        b = collect_samples(short_scenario, max_samples=30)
        assert len(a) == len(b) == 30
        for sa, sb in zip(a, b):
            assert sa.state.eta == sb.state.eta
            assert np.array_equal(sa.v_des, sb.v_des)
            assert np.array_equal(sa.p, sb.p)
            assert sa.d_raw == sb.d_raw

    def test_step_outputs_are_reproducible(self, short_scenario):
        # Identical inputs give identical outputs across repeated calls;
        # only the timing varies.
        samples = collect_samples(short_scenario, max_samples=10)
        for s in samples:
            r1 = plan_tick(s.state, s.v_des, s.neighbors, s.p, s.dt)
            r2 = plan_tick(s.state, s.v_des, s.neighbors, s.p, s.dt)
            assert np.array_equal(r1.v_cmd, r2.v_cmd)
            assert r1.eta_next == r2.eta_next
            assert r1.a_s == r2.a_s


class TestBench:
    def test_report_shape_and_stat_ordering(self, short_scenario):
        report = bench(short_scenario, warmup_iters=50, measured_iters=400,
                       max_samples=40)
        assert tuple(report.steps) == STEP_NAMES
        for stats in report.steps.values():
            assert 0.0 < stats.min <= stats.median <= stats.max
            assert stats.min <= stats.mean <= stats.max
            assert stats.variance >= 0.0

    def test_complete_method_dominates_each_step(self, short_scenario):
        report = bench(short_scenario, warmup_iters=100, measured_iters=2000,
                       max_samples=40)
        complete = report.steps["complete method"].mean
        for name in STEP_NAMES[:-1]:
            assert complete >= report.steps[name].mean

    def test_table_render(self, short_scenario):
        report = bench(short_scenario, warmup_iters=10, measured_iters=50,
                       max_samples=10)
        table = report.format_table()
        for name in STEP_NAMES:
            assert name in table
        assert "variance" in table

    def test_bad_iteration_counts_rejected(self, short_scenario):
        with pytest.raises(ValueError):
            bench(short_scenario, warmup_iters=-1, measured_iters=10)
        with pytest.raises(ValueError):
            bench(short_scenario, warmup_iters=0, measured_iters=0)
        with pytest.raises(ValueError, match="max_samples"):
            bench(short_scenario, warmup_iters=0, measured_iters=10, max_samples=0)
