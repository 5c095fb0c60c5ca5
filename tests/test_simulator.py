import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmform.simulator
from swarmform import (
    ApfGains,
    BaseConfiguration,
    ConsensusStabilityWarning,
    ConstraintSpec,
    FormationParams,
    NonFiniteInputError,
    Obstacle,
    PlannerGains,
    Scenario,
    TrajectoryLog,
    compute_metrics,
    initial_positions,
    plan_tick,
    project_scaling,
    reference_scenario,
    run,
    unit_grid,
)
from swarmform.constraints import MEMBERSHIP_TOL

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

    def test_initial_scaling_must_lie_in_hard_set(self):
        # It used to load and then fail inside run at tick 0.
        for sx, sy in ((3.0, 1.0), (0.2, 1.0), (1.0, 0.5), (2.0, 2.0)):
            with pytest.raises(ValueError, match="eta_init"):
                tiny_scenario(eta_init=FormationParams(0.0, sx, sy, 0.0, 0.0))
        # Within the tolerance hard_scale_factor allows, it loads and runs.
        eps = ConstraintSpec().eps_hard
        sc = tiny_scenario(eta_init=FormationParams(0.0, eps - 1e-10, 1.0, 0.0, 0.0))
        run(replace(sc, t_final=sc.dt))
        # The goal may lie outside the hard set.
        tiny_scenario(eta_goal=FormationParams(0.0, 3.0, 3.0, 0.0, 0.0))

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

    def test_planner_value_error_names_the_robot_and_the_tick(self, monkeypatch):
        # Such as the ValueError of a non-finite rate, raised by FormationParams.
        sc = tiny_scenario()
        ticks = []

        def failing_tick(state, *args):
            if state.slot == sc.base.slots[2]:
                ticks.append(None)
                if len(ticks) == 4:
                    raise ValueError("formation parameter phi must be finite")
            return plan_tick(state, *args)

        monkeypatch.setattr(swarmform.simulator, "plan_tick", failing_tick)
        with pytest.raises(ValueError) as info:
            run(sc)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            "robot 2 at t=0.003000s: formation parameter phi must be finite")


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

    def test_soft_distance_when_every_robot_tick_is_outside(self):
        # As on dense_bound: no logged scaling lies in the soft set.  Below a
        # wall, past each arc endpoint, past the arc, and in the hard set or
        # not; the series is the scalar projection's distance, bit for bit.
        spec = ConstraintSpec(eps_soft=0.75, eps_hard=0.5, r_soft=1.6, r_hard=2.5)
        sc = Scenario(base=unit_grid(2, 1.0), eta_goal=FormationParams.identity(),
                      constraints=spec)
        rng = np.random.default_rng(5)
        t, n = 30, 4
        angle = rng.uniform(0.0, 0.5 * math.pi, (t, n))
        radius = rng.uniform(1.0001 * spec.r_soft, 1.7 * spec.r_soft, (t, n))
        scaling = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
        scaling[::3, 0] = (0.6, 1.2)
        scaling[1::3, 1] = (1.2, 0.6)
        etas = np.zeros((t, n, 5))
        etas[:, :, 1:3] = scaling
        log = self._log_for(etas, np.zeros((t, n, 2)) + np.arange(n)[:, None])
        m = compute_metrics(log, sc)

        dist = [[math.hypot(sx - px, sy - py)
                 for sx, sy in row for px, py in [project_scaling(sx, sy, spec)]]
                for row in scaling.tolist()]
        assert min(map(min, dist)) > 0.0
        assert m.soft_set_distance.tolist() == [max(row) for row in dist]
        outside_hard = [any(not spec.in_hard_set(sx, sy, tol=MEMBERSHIP_TOL) for sx, sy in row)
                        for row in scaling.tolist()]
        assert 0 < sum(outside_hard) < t
        assert m.hard_violation_count == sum(outside_hard)

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

    def test_hard_violation_tolerance_is_the_planners(self):
        # Outside by 1e-10 is inside the planner's MEMBERSHIP_TOL (1e-9);
        # outside by 1e-7, at a wall or past the circle, is a violation.
        spec = ConstraintSpec()
        sc = Scenario(base=BaseConfiguration(((0.0, 0.0),)),
                      eta_goal=FormationParams.identity(), constraints=spec)
        on_arc = (spec.r_hard + 1e-7) / math.sqrt(2.0)
        scalings = [(1.0, 1.0), (spec.eps_hard - 1e-10, 1.0),
                    (spec.eps_hard - 1e-7, 1.0), (on_arc, on_arc)]
        etas = [[FormationParams(0.0, sx, sy, 0.0, 0.0).as_array()] for sx, sy in scalings]
        log = self._log_for(etas, [[(0.0, 0.0)]] * len(etas))
        assert 1e-7 > MEMBERSHIP_TOL
        assert compute_metrics(log, sc).hard_violation_count == 2

    @pytest.mark.parametrize("t, n", [(3, 1), (5, 2), (7, 3), (41, 100)])
    def test_min_robot_distance_matches_brute_force(self, t, n):
        # (41, 100) spans five blocks of 10 ticks, the last one partial.
        rng = np.random.default_rng(t * 1000 + n)
        positions = rng.uniform(-20.0, 20.0, (t, n, 2))
        best = math.inf
        for frame in positions.tolist():
            for i in range(n):
                for j in range(i + 1, n):
                    dx = frame[i][0] - frame[j][0]
                    dy = frame[i][1] - frame[j][1]
                    best = min(best, dx * dx + dy * dy)
        sc = Scenario(base=BaseConfiguration(tuple(map(tuple, positions[0]))),
                      eta_goal=FormationParams.identity())
        etas = np.broadcast_to(FormationParams.identity().as_array(), (t, n, 5))
        got = compute_metrics(self._log_for(etas, positions), sc).min_robot_distance
        assert got == math.sqrt(best)

    @pytest.mark.parametrize("ticks", [1, 5])
    def test_blocks_of_ticks_change_no_field(self, monkeypatch, ticks):
        # 53 ticks of 7 robots in one block, against one tick per block or
        # ten blocks of 5 ticks and a partial one; scalings inside and
        # outside both constraint sets.
        rng = np.random.default_rng(11)
        t, n = 53, 7
        etas = rng.uniform(-1.0, 1.0, (t, n, 5))
        etas[:, :, 1:3] = rng.uniform(0.3, 2.2, (t, n, 2))
        log = self._log_for(etas, rng.uniform(-5.0, 5.0, (t, n, 2)))
        sc = Scenario(
            base=BaseConfiguration(tuple(map(tuple, rng.uniform(-1.0, 1.0, (n, 2))))),
            eta_goal=FormationParams(0.1, 1.2, 1.2, 1.0, 0.0),
            obstacles=(
                Obstacle(center=(1.0, 1.0), radius=0.5),
                Obstacle(center=(-2.0, 0.0), radius=1.0),
            ),
        )
        monkeypatch.setattr(swarmform.simulator, "_BLOCK_PAIRS", t * n * n)
        whole = compute_metrics(log, sc)
        monkeypatch.setattr(swarmform.simulator, "_BLOCK_PAIRS", ticks * n * n)
        blocked = compute_metrics(log, sc)
        assert whole.hard_violation_count > 0
        assert whole.soft_set_distance.max() > 0.0
        for name in ("times", "formation_error", "disagreement", "soft_set_distance",
                     "min_robot_distance", "min_obstacle_clearance",
                     "hard_violation_count", "goal_param_error"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name

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


class TestTransientMemory:
    """A run holds one N x N distance matrix and one scratch at a time, and
    the metrics' temporaries are bounded by their block size, not by the run
    length.  Peaks are `tracemalloc`'s, which sees numpy's buffers."""

    @staticmethod
    def _traced_peak(fn, *args):
        fn(*args)  # warm: first-call caches are not the run's transients
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return out, peak

    def test_run_peaks_below_three_distance_matrices(self):
        # 20x20 unit grid, r_c 1.5: one N x N float64 array is 1.28 MB.  A
        # stale matrix beside the next tick's (or a four-buffer pair pass in
        # the metrics) puts the peak at about 4.6 of them.
        sc = Scenario(base=unit_grid(20, 1.0), eta_goal=FormationParams(0.3, 1.0, 1.0, 1.0, 0.5),
                      r_c=1.5, t_final=3e-3, init_noise_sigma=0.02)
        (log, _), peak = self._traced_peak(run, sc)
        log_bytes = sum(getattr(log, f.name).nbytes for f in fields(log))
        matrix = sc.n_robots**2 * 8
        assert log.n_ticks == 3
        assert peak - log_bytes < 3 * matrix, (peak - log_bytes) / matrix

    def test_metric_temporaries_do_not_grow_with_the_run(self):
        # 9 robots: 1000 ticks are 81 000 (tick, robot, robot) entries, one
        # block if blocks grew with the run (four pair buffers of 0.65 MB);
        # the same log three times over must stay under the same bound.
        sc = replace(reference_scenario(), t_final=1.0)
        log, _ = run(sc)
        t = log.n_ticks
        longer = replace(
            log,
            times=np.concatenate([log.times + i * t * sc.dt for i in range(3)]),
            **{name: np.concatenate([getattr(log, name)] * 3)
               for name in ("positions", "velocities", "etas", "a_s", "neighbor_counts")},
        )
        for log_ in (log, longer):
            m, peak = self._traced_peak(compute_metrics, log_, sc)
            kept = sum(a.nbytes for a in (m.times, m.formation_error, m.disagreement,
                                          m.soft_set_distance))
            assert peak - kept < 1 << 20, (log_.n_ticks, peak - kept)


class TestConsensusStepBound:
    """`consensus_step_max` is the realised max of dt * lam_i * deg_i; explicit
    Euler consensus is stable below 1."""

    @staticmethod
    def _dense_grid(lam):
        # 10x10 unit grid, r_c = 10 reaches every other robot: degree 99.
        return Scenario(
            base=unit_grid(10, 1.0),
            eta_goal=FormationParams(0.2, 1.0, 1.0, 1.0, 0.5),
            gains=PlannerGains(lam, 20.0, 2.0),
            r_c=10.0,
            t_final=3e-3,
        )

    def test_reference_run_reads_its_margin_and_does_not_warn(self, run_cache):
        entry = run_cache.get(lam=32.0, mu=20.0, k_fb=2.0)
        assert entry.metrics.consensus_step_max == 0.256
        assert entry.metrics.summary()["consensus_step_max"] == 0.256
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConsensusStabilityWarning)
            compute_metrics(entry.log, entry.scenario)

    def test_dense_grid_past_the_bound_warns(self):
        with pytest.warns(ConsensusStabilityWarning, match="3.168") as record:
            _, m = run(self._dense_grid(32.0))
        assert m.consensus_step_max == 3.168
        # Every robot reaches the bound from the first tick on.
        assert "first at tick 0 (t=0.000000s) by robot 0" in str(record[0].message)

    def test_warning_names_the_first_tick_and_its_lowest_robot(self):
        log, _ = run(tiny_scenario())
        sc = tiny_scenario(gains=(PlannerGains(8.0, 0.0, 0.0), PlannerGains(50.0, 0.0, 0.0),
                                  PlannerGains(500.0, 0.0, 0.0), PlannerGains(0.0, 0.0, 0.0)))
        counts = np.zeros_like(log.neighbor_counts)
        counts[3] = (124, 19, 1, 3)   # dt * lam * deg: 0.992, 0.95, 0.5, 0
        counts[6] = (0, 21, 3, 0)     # robots 1 and 2 pass 1 here
        counts[9] = (200, 0, 0, 0)    # the largest step comes later
        with pytest.warns(ConsensusStabilityWarning) as record:
            m = compute_metrics(replace(log, neighbor_counts=counts), sc)
        assert m.consensus_step_max == pytest.approx(1.6)
        t6 = f"{log.times[6]:.6f}"
        assert f"first at tick 6 (t={t6}s) by robot 1:" in str(record[0].message)

    def test_dense_grid_inside_the_bound_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConsensusStabilityWarning)
            _, m = run(self._dense_grid(8.0))
        assert m.consensus_step_max == 0.792

    def test_per_robot_gains_and_degrees(self):
        sc = tiny_scenario(gains=(PlannerGains(8.0, 0.0, 0.0), PlannerGains(50.0, 0.0, 0.0),
                                  PlannerGains(1.0, 0.0, 0.0), PlannerGains(0.0, 0.0, 0.0)))
        log, _ = run(sc)
        counts = np.zeros_like(log.neighbor_counts)
        counts[5] = (3, 1, 3, 3)
        counts[7] = (0, 2, 0, 0)
        m = compute_metrics(replace(log, neighbor_counts=counts), sc)
        assert m.consensus_step_max == pytest.approx(1e-3 * 50.0 * 2)


@st.composite
def small_scenarios(draw):
    """2-6 robots on distinct jittered cells of a 4x4 grid, per-robot gains
    with dt * lam * (N - 1) < 1, a random constraint spec, an initial
    scaling anywhere in the hard set and a goal scaling inside or outside it,
    run for 30-60 ticks."""
    n = draw(st.integers(2, 6))
    cells = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n, unique=True))
    jitter = st.floats(-0.3, 0.3)
    slots = tuple((c % 4 - 1.5 + draw(jitter), c // 4 - 1.5 + draw(jitter)) for c in cells)
    dt = draw(st.sampled_from([1e-3, 5e-3]))
    lam_max = 1.0 / (dt * (n - 1))
    gains = tuple(
        PlannerGains(draw(st.floats(0.0, 0.999)) * lam_max, draw(st.floats(0.0, 50.0)),
                     draw(st.floats(0.0, 5.0)))
        for _ in range(n)
    )
    eps_hard = draw(st.floats(0.1, 0.8))
    eps_soft = eps_hard + draw(st.floats(0.0, 0.5))
    r_soft = eps_soft * math.sqrt(2.0) + draw(st.floats(0.05, 2.0))
    r_hard = r_soft + draw(st.floats(0.0, 1.5))
    spec = ConstraintSpec(eps_soft=eps_soft, eps_hard=eps_hard, r_soft=r_soft, r_hard=r_hard)

    def in_hard_set():
        sx = draw(st.floats(eps_hard, math.sqrt(r_hard**2 - eps_hard**2)))
        return sx, draw(st.floats(eps_hard, max(eps_hard, math.sqrt(r_hard**2 - sx**2))))

    init = in_hard_set()
    goal = in_hard_set() if draw(st.booleans()) else (draw(st.floats(0.05, 4.0)),
                                                      draw(st.floats(0.05, 4.0)))
    angle, shift = st.floats(-math.pi, math.pi), st.floats(-3.0, 3.0)
    return Scenario(
        base=BaseConfiguration(slots),
        eta_init=FormationParams(draw(angle), *init, draw(shift), draw(shift)),
        eta_goal=FormationParams(draw(angle), *goal, draw(shift), draw(shift)),
        gains=gains,
        constraints=spec,
        r_c=draw(st.floats(0.5, 10.0)),
        dt=dt,
        t_final=draw(st.integers(30, 60)) * dt,
        init_noise_sigma=draw(st.floats(0.0, 0.05)),
        rng_seed=draw(st.integers(0, 2**16)),
    )


class TestWholeRunHardSetInvariance:
    @pytest.mark.filterwarnings("ignore::swarmform.PenetrationWarning")
    @given(scenario=small_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_every_logged_scaling_stays_in_the_hard_set(self, scenario):
        log, m = run(scenario)
        assert m.hard_violation_count == 0
        spec = scenario.constraints
        for sx, sy in log.etas[:, :, 1:3].reshape(-1, 2).tolist():
            assert spec.in_hard_set(sx, sy, tol=MEMBERSHIP_TOL), (sx, sy)


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
