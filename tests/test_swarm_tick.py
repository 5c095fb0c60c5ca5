"""The simulator's tick against the per-robot path it batches.

The tick computes the swarm's squared distances once and builds the
communication graph and every robot's potential-field velocity from them.
Each logged tick must equal what `build_graph` from positions alone,
`desired_velocity` per robot and `plan_tick` per robot give, bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmform import (
    ApfGains,
    ConstraintSpec,
    FormationParams,
    Obstacle,
    PenetrationWarning,
    PlannerGains,
    PlannerState,
    Scenario,
    apply_transform,
    build_graph,
    desired_velocity,
    exchange,
    plan_tick,
    potential_field,
    run,
    square_distances,
    unit_grid,
)
from swarmform.presets import NOISE_SIGMA


def per_robot_tick(scenario: Scenario, positions, eta):
    """One tick with the per-robot functions: (v_cmd, eta_next, a_s, degree)."""
    n = len(positions)
    goals = [apply_transform(scenario.eta_goal, c) for c in scenario.base.slots]
    etas = [FormationParams.from_array(row) for row in eta]
    received = exchange(build_graph(positions, scenario.r_c, scenario.r_d), etas)
    v_cmd = np.empty((n, 2))
    eta_next = np.empty((n, 5))
    a_s = np.empty(n)
    for i in range(n):
        others = np.delete(positions, i, axis=0)
        v_des = desired_velocity(positions[i], goals[i], scenario.obstacles, others, scenario.apf)
        state = PlannerState(
            eta=etas[i],
            slot=scenario.base.slots[i],
            gains=scenario.gains_for(i),
            constraints=scenario.constraints,
        )
        res = plan_tick(state, v_des, received[i], positions[i], scenario.dt)
        v_cmd[i] = res.v_cmd
        eta_next[i] = res.eta_next.as_array()
        a_s[i] = res.a_s
    return v_cmd, eta_next, a_s, np.array([len(r) for r in received])


def check_log(scenario: Scenario, log, ticks) -> np.ndarray:
    """Recompute the logged ticks robot by robot; returns their a_s."""
    checked = []
    for k in ticks:
        v_cmd, eta_next, a_s, degree = per_robot_tick(scenario, log.positions[k], log.etas[k])
        assert np.array_equal(v_cmd, log.velocities[k])
        assert np.array_equal(a_s, log.a_s[k])
        assert np.array_equal(degree, log.neighbor_counts[k])
        if k + 1 < log.n_ticks:
            assert np.array_equal(eta_next, log.etas[k + 1])
        checked.append(a_s)
    return np.concatenate(checked)


def dense_bound_scenario() -> Scenario:
    # Degree 99 at dt * lam * 99 = 0.79 < 1; the scaling starts outside the
    # soft set and the goal lies outside the hard set, so both sets bind.
    return Scenario(
        base=unit_grid(10, 1.0),
        eta_init=FormationParams(0.0, 1.76, 1.76, 0.0, 0.0),
        eta_goal=FormationParams(0.2, 3.0, 3.0, 2.0, 1.0),
        gains=PlannerGains(lam=8.0, mu=1.0, k_fb=2.0),
        constraints=ConstraintSpec(eps_soft=0.75, eps_hard=0.5, r_soft=1.6, r_hard=2.5),
        r_c=100.0,
        t_final=0.15,
        init_noise_sigma=0.02,
        rng_seed=4,
    )


class TestMatchesPerRobotPath:
    def test_reference_run(self, run_cache):
        entry = run_cache.get(lam=32.0, mu=20.0, k_fb=2.0)
        check_log(entry.scenario, entry.log, range(0, 9000, 45))

    def test_noisy_run_without_feedback(self, run_cache):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PenetrationWarning)
            entry = run_cache.get(lam=32.0, mu=20.0, k_fb=0.0, noise=NOISE_SIGMA)
            a_s = check_log(entry.scenario, entry.log, range(0, 9000, 9))
        assert (a_s < 1.0).any()

    def test_dense_run_where_both_sets_bind(self):
        scenario = dense_bound_scenario()
        log, _ = run(scenario)
        a_s = check_log(scenario, log, range(0, log.n_ticks, 5))
        assert (a_s < 1.0).any()
        s = log.etas[:, :, 1:3]
        spec = scenario.constraints
        outside_soft = (s < spec.eps_soft).any(axis=2) | (np.hypot(s[..., 0], s[..., 1]) > spec.r_soft)
        assert outside_soft.any()


points = st.lists(
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), min_size=1, max_size=12
)


class TestSharedDistances:
    @given(pts=points, r_c=st.floats(0.1, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_graph_from_given_distances_is_the_same_graph(self, pts, r_c):
        pts = np.array(pts)
        given_d2 = build_graph(pts, r_c, r_c, square_distances(pts))
        assert given_d2 == build_graph(pts, r_c, r_c)

    @given(pts=points, goal=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
    @settings(max_examples=100, deadline=None)
    def test_field_rows_are_the_per_robot_field(self, pts, goal):
        pts = np.array(pts)
        obstacles = (Obstacle((1.0, 1.0), 0.5), Obstacle((-2.0, 0.5), 0.2))
        goals = np.array([goal] * len(pts))
        centers = np.array([o.center for o in obstacles])
        radii = np.array([o.radius for o in obstacles])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PenetrationWarning)
            v = potential_field(pts, goals, centers, radii, pts, square_distances(pts), ApfGains())
            for i in range(len(pts)):
                others = np.delete(pts, i, axis=0)
                assert np.array_equal(
                    v[i], desired_velocity(pts[i], goal, obstacles, others, ApfGains())
                )

    def test_one_warning_per_clamped_repulsion(self):
        # Robots 0 and 1 overlap after inflation, robot 2 is alone.
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0]])
        centers, radii = np.empty((0, 2)), np.empty(0)
        with pytest.warns(PenetrationWarning) as record:
            v = potential_field(
                points, points, centers, radii, points, square_distances(points), ApfGains()
            )
        assert len(record) == 2
        assert np.isfinite(v).all()
