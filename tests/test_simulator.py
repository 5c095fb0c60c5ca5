import math
from dataclasses import replace

import numpy as np
import pytest

import swarmform.simulator
from swarmform import (
    ApfGains,
    BaseConfiguration,
    ConstraintSpec,
    FormationParams,
    NonFiniteInputError,
    Obstacle,
    PlannerGains,
    Scenario,
    TrajectoryLog,
    compute_metrics,
    initial_positions,
    reference_scenario,
    run,
    unit_grid,
)

# Upper bound on the reference run's final parameter distance to the goal,
# with the rotation compared modulo a full turn (measured 0.0081: the mean
# parameters settle one full turn below the goal angle, every component
# within 1e-2 of the goal).
GOAL_PARAM_ERROR_MAX = 0.05


def tiny_scenario(**overrides) -> Scenario:
    grid = unit_grid(2, 1.0)
    defaults = dict(
        base=grid,
        eta_goal=FormationParams(0.5, 1.2, 1.2, 3.0, 0.0),
        gains=PlannerGains(8.0, 10.0, 2.0),
        dt=1e-3,
        t_final=0.05,
        rng_seed=3,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenario:
    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            tiny_scenario(dt=0.0)
        with pytest.raises(ValueError):
            tiny_scenario(dt=1.0, t_final=0.5)
        with pytest.raises(ValueError):
            tiny_scenario(rng_seed=-1)
        with pytest.raises(ValueError):
            tiny_scenario(init_noise_sigma=-1.0)

    def test_per_robot_gains_length_checked(self):
        with pytest.raises(ValueError):
            tiny_scenario(gains=(PlannerGains(1, 1, 1),) * 3)

    def test_tick_count(self):
        assert reference_scenario().n_ticks == 9000
        assert tiny_scenario().n_ticks == 50

    def test_with_gains_shared_and_per_robot(self):
        sc = tiny_scenario().with_gains(mu=99.0)
        assert sc.gains.mu == 99.0
        per_robot = tiny_scenario(gains=(PlannerGains(1, 1, 1),) * 4)
        updated = per_robot.with_gains(lam=5.0)
        assert all(g.lam == 5.0 for g in updated.gains)
        assert updated.gains_for(2).mu == 1.0


class TestInitialPositions:
    def test_noise_free_start_is_the_transformed_grid(self):
        sc = tiny_scenario()
        pts = initial_positions(sc)
        assert np.allclose(pts, sc.base.as_array(), atol=0.0)

    def test_seed_reproducibility_and_stream_split(self):
        sc = tiny_scenario(init_noise_sigma=0.7)
        a = initial_positions(sc)
        b = initial_positions(sc)
        assert np.array_equal(a, b)
        c = initial_positions(replace(sc, rng_seed=4))
        assert not np.array_equal(a, c)


class TestRun:
    def test_single_robot_equilibrium(self):
        sc = Scenario(
            base=BaseConfiguration(((0.5, -0.5),)),
            eta_goal=FormationParams.identity(),
            eta_init=FormationParams.identity(),
            gains=PlannerGains(4.0, 10.0, 2.0),
            t_final=0.02,
        )
        log, metrics = run(sc)
        assert np.allclose(log.velocities, 0.0, atol=0.0)
        assert np.all(metrics.formation_error == 0.0)
        assert metrics.disagreement.max() == 0.0
        assert metrics.min_robot_distance == math.inf
        assert metrics.min_obstacle_clearance == math.inf

    def test_determinism_bit_identical(self):
        sc = tiny_scenario(init_noise_sigma=0.3)
        log_a, _ = run(sc)
        log_b, _ = run(sc)
        assert log_a.identical(log_b)

    def test_log_shapes_and_times(self):
        sc = tiny_scenario()
        log, _ = run(sc)
        assert log.n_ticks == 50
        assert log.n_robots == 4
        assert log.positions.shape == (50, 4, 2)
        assert np.allclose(np.diff(log.times), sc.dt)
        assert np.all(log.neighbor_counts == 3)  # complete graph at this scale

    @pytest.mark.parametrize("r_c", [math.inf, 1e200])  # r_c * r_c is +inf
    def test_unbounded_range_never_counts_the_robot_itself(self, r_c):
        log, _ = run(tiny_scenario(r_c=r_c, t_final=0.005))
        assert np.all(log.neighbor_counts == 3)

    def test_formation_error_decreases_with_feedback(self):
        sc = tiny_scenario(init_noise_sigma=0.4, t_final=1.0)
        _, with_fb = run(sc.with_gains(k_fb=2.0))
        _, without_fb = run(sc.with_gains(k_fb=0.0))
        assert with_fb.final_formation_error() < without_fb.final_formation_error()

    def test_per_robot_gains_are_applied(self):
        # A lone zero-feedback robot keeps its start offset while the
        # others, with feedback on, pull back toward their slots.
        from swarmform import apply_transform_many

        mixed = (PlannerGains(8.0, 10.0, 0.0),) + (PlannerGains(8.0, 10.0, 2.0),) * 3
        sc = tiny_scenario(gains=mixed, init_noise_sigma=0.3, t_final=2.0,
                           eta_goal=FormationParams.identity())
        log, _ = run(sc)
        slots = sc.base.as_array()
        err = np.linalg.norm(
            log.positions - apply_transform_many(log.etas, slots[None]), axis=-1
        )
        assert err[-1, 0] > 0.5 * err[0, 0]
        assert np.all(err[-1, 1:] < 0.05 * err[0, 1:])

    def test_nonfinite_abort_names_the_robot(self, monkeypatch):
        sc = tiny_scenario()

        def bad_field(points, *args, **kwargs):
            v = np.zeros((len(points), 2))
            v[[0, 2], 0] = math.nan
            return v

        monkeypatch.setattr(swarmform.simulator, "potential_field", bad_field)
        with pytest.raises(NonFiniteInputError, match="robot 0 at t="):
            run(sc)


class TestComputeMetrics:
    def _log_for(self, etas, positions, times=None):
        etas = np.asarray(etas, dtype=float)
        positions = np.asarray(positions, dtype=float)
        t, n = etas.shape[:2]
        return TrajectoryLog(
            times=np.arange(t) * 1e-3 if times is None else times,
            positions=positions,
            velocities=np.zeros((t, n, 2)),
            etas=etas,
            a_s=np.ones((t, n)),
            neighbor_counts=np.zeros((t, n), dtype=np.int64),
        )

    def test_stationary_robot_at_slot(self):
        sc = Scenario(
            base=BaseConfiguration(((1.0, 2.0),)),
            eta_goal=FormationParams.identity(),
        )
        eta = FormationParams.identity().as_array()
        log = self._log_for([[eta], [eta]], [[(1.0, 2.0)], [(1.0, 2.0)]])
        m = compute_metrics(log, sc)
        assert np.all(m.formation_error == 0.0)
        assert np.all(m.disagreement == 0.0)
        assert m.hard_violation_count == 0
        assert m.goal_param_error == 0.0

    def test_disagreement_reads_componentwise_spread(self):
        sc = Scenario(
            base=BaseConfiguration(((0.0, 0.0), (1.0, 0.0))),
            eta_goal=FormationParams.identity(),
        )
        eta_a = FormationParams.identity().as_array()
        eta_b = FormationParams(0.0, 1.0, 1.0, 1.0, 0.0).as_array()
        log = self._log_for(
            [[eta_a, eta_b]], [[(0.0, 0.0), (2.0, 0.0)]]
        )
        m = compute_metrics(log, sc)
        assert m.disagreement[0] == pytest.approx(1.0)
        assert m.min_robot_distance == pytest.approx(2.0)

    def test_hard_violations_counted_per_tick(self):
        sc = Scenario(
            base=BaseConfiguration(((0.0, 0.0),)),
            eta_goal=FormationParams.identity(),
            constraints=ConstraintSpec(),
        )
        ok = FormationParams.identity().as_array()
        bad = FormationParams(0.0, 0.5, 1.0, 0.0, 0.0).as_array()  # below eps_hard
        log = self._log_for([[ok], [bad], [bad]], [[(0, 0)]] * 3)
        m = compute_metrics(log, sc)
        assert m.hard_violation_count == 2

    def test_soft_distance_series(self):
        sc = Scenario(
            base=BaseConfiguration(((0.0, 0.0),)),
            eta_goal=FormationParams.identity(),
            constraints=ConstraintSpec(eps_soft=0.5, eps_hard=0.25, r_soft=2.5, r_hard=2.75),
        )
        inside = FormationParams(0.0, 1.0, 1.0, 0.0, 0.0).as_array()
        outside = FormationParams(0.0, 0.25, 0.5, 0.0, 0.0).as_array()
        log = self._log_for([[inside], [outside]], [[(0, 0)]] * 2)
        m = compute_metrics(log, sc)
        assert m.soft_set_distance[0] == 0.0
        assert m.soft_set_distance[1] == pytest.approx(0.25, abs=1e-12)

    def test_obstacle_clearance(self):
        sc = Scenario(
            base=BaseConfiguration(((0.0, 0.0),)),
            eta_goal=FormationParams.identity(),
            obstacles=(Obstacle(center=(3.0, 0.0), radius=1.0),),
        )
        eta = FormationParams.identity().as_array()
        log = self._log_for([[eta]], [[(0.0, 0.0)]])
        m = compute_metrics(log, sc)
        assert m.min_obstacle_clearance == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "turns, expected",
        [(0.0, 0.0), (2.0 * math.pi, 0.0), (-4.0 * math.pi, 0.0),
         (math.pi, math.pi), (-math.pi, math.pi), (2.5 * math.pi, 0.5 * math.pi)],
    )
    def test_goal_error_wraps_the_rotation(self, turns, expected):
        goal = FormationParams(0.3, 1.0, 1.0, 0.0, 0.0)
        sc = Scenario(base=BaseConfiguration(((0.0, 0.0),)), eta_goal=goal)
        eta = goal.as_array()
        eta[0] += turns
        log = self._log_for([[eta]], [[(0.0, 0.0)]])
        assert compute_metrics(log, sc).goal_param_error == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t, n", [(3, 1), (5, 2), (7, 3), (41, 100)])
    def test_min_robot_distance_matches_brute_force(self, t, n):
        # (41, 100) spans three blocks of 20 ticks, the last one partial.
        rng = np.random.default_rng(t * 1000 + n)
        positions = rng.uniform(-20.0, 20.0, (t, n, 2))
        best = math.inf
        for frame in positions.tolist():
            for i in range(n):
                for j in range(i + 1, n):
                    dx = frame[i][0] - frame[j][0]
                    dy = frame[i][1] - frame[j][1]
                    best = min(best, dx * dx + dy * dy)
        got = swarmform.simulator._min_pairwise_distance(positions)
        assert got == math.sqrt(best)

    def test_empty_log_rejected(self):
        sc = Scenario(
            base=BaseConfiguration(((0.0, 0.0),)),
            eta_goal=FormationParams.identity(),
        )
        log = TrajectoryLog(
            times=np.zeros(0),
            positions=np.zeros((0, 1, 2)),
            velocities=np.zeros((0, 1, 2)),
            etas=np.zeros((0, 1, 5)),
            a_s=np.zeros((0, 1)),
            neighbor_counts=np.zeros((0, 1), dtype=np.int64),
        )
        with pytest.raises(ValueError):
            compute_metrics(log, sc)


class TestReferenceRun:
    def test_reaches_goal_within_recorded_threshold(self, run_cache):
        entry = run_cache.get(lam=32.0, mu=20.0, k_fb=2.0)
        m = entry.metrics
        assert m.hard_violation_count == 0
        assert m.goal_param_error < GOAL_PARAM_ERROR_MAX
        assert m.min_obstacle_clearance > 0.0
        # The final configuration physically matches the goal: compare the
        # mean parameters with the rotation taken modulo a full turn.
        goal = entry.scenario.eta_goal.as_array()
        mean_eta = entry.log.etas[-1].mean(axis=0)
        delta = mean_eta - goal
        delta[0] = (delta[0] + math.pi) % (2.0 * math.pi) - math.pi
        assert np.linalg.norm(delta) < 0.05
        assert m.goal_param_error == pytest.approx(np.linalg.norm(delta), abs=1e-12)
