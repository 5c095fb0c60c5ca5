from dataclasses import replace

import pytest

from swarmform import format_sweep_table, reference_scenario, sweep


@pytest.fixture()
def short_scenario():
    return replace(reference_scenario(), t_final=0.02)


class TestSweep:
    def test_one_run_per_value_in_order(self, short_scenario):
        entries = sweep(short_scenario, "lambda", [1.0, 8.0])
        assert [e.value for e in entries] == [1.0, 8.0]
        assert all(e.ok for e in entries)
        assert all(e.metrics is not None and e.log is not None for e in entries)

    def test_swept_gain_is_applied(self, short_scenario):
        # Stronger consensus leaves less disagreement even over a short run.
        entries = sweep(short_scenario, "lambda", [0.0, 32.0])
        d0 = entries[0].metrics.time_avg_disagreement()
        d32 = entries[1].metrics.time_avg_disagreement()
        assert d32 <= d0

    def test_failure_is_recorded_and_sweep_continues(self, short_scenario):
        entries = sweep(short_scenario, "mu", [10.0, -1.0, 20.0])
        assert entries[0].ok
        assert not entries[1].ok
        assert "ValueError" in entries[1].error
        assert entries[2].ok

    def test_k_alias(self, short_scenario):
        # "k" is no gain name (run takes it only as a prefix of --k_fb).
        with pytest.raises(ValueError):
            sweep(short_scenario, "k", [0.0])
        assert sweep(short_scenario, "k_fb", [0.0])[0].ok

    def test_unknown_parameter_rejected(self, short_scenario):
        with pytest.raises(ValueError):
            sweep(short_scenario, "rho", [1.0])

    def test_empty_values_rejected(self, short_scenario):
        with pytest.raises(ValueError):
            sweep(short_scenario, "mu", [])

    def test_table_format(self, short_scenario):
        entries = sweep(short_scenario, "mu", [10.0, -1.0])
        table = format_sweep_table("mu", entries)
        lines = table.splitlines()
        assert lines[0].startswith("mu")
        assert "disagreement_mean" in lines[0]
        assert "FAILED" in table
