import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmform import (
    ApfGains,
    Obstacle,
    PenetrationWarning,
    desired_velocity,
    potential_field,
    repulsive_velocity,
)

GAINS = ApfGains()  # documented defaults: k_att=5, rho=0.1, k_rep=5, xi=0.25, nu=1.5


def attraction(p, p_goal, gains: ApfGains) -> np.ndarray:
    """The field at one point with no obstacle and no robot: attraction alone."""
    return potential_field(
        np.array([p], dtype=float),
        np.array([p_goal], dtype=float),
        np.zeros((0, 2)),
        np.zeros(0),
        np.zeros((0, 2)),
        np.zeros((1, 0)),
        gains,
    )[0]


class TestGains:
    def test_table_defaults(self):
        assert (GAINS.k_att, GAINS.rho, GAINS.k_rep, GAINS.xi, GAINS.nu) == (
            5.0,
            0.1,
            5.0,
            0.25,
            1.5,
        )

    @pytest.mark.parametrize("field", ["k_att", "rho", "k_rep", "xi", "nu"])
    def test_nonpositive_gain_rejected(self, field):
        with pytest.raises(ValueError):
            ApfGains(**{field: 0.0})

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Obstacle(center=(0.0, 0.0), radius=-1.0)


class TestAttraction:
    def test_zero_at_goal(self):
        assert np.array_equal(
            attraction((2.0, 3.0), (2.0, 3.0), GAINS), np.zeros(2)
        )

    def test_cruise_speed_outside_switch_distance(self):
        v = attraction((0.0, 0.0), (2 * GAINS.rho, 0.0), GAINS)
        assert v == pytest.approx([GAINS.k_att, 0.0], abs=1e-12)

    def test_linear_ramp_inside_switch_distance(self):
        v = attraction((0.0, 0.0), (GAINS.rho / 2, 0.0), GAINS)
        assert v == pytest.approx([GAINS.k_att / 2, 0.0], abs=1e-12)

    def test_continuity_at_switch_distance(self):
        lo = attraction((0.0, 0.0), (GAINS.rho - 1e-12, 0.0), GAINS)
        hi = attraction((0.0, 0.0), (GAINS.rho + 1e-12, 0.0), GAINS)
        assert np.abs(lo - hi).max() < 1e-9

    def test_points_toward_goal(self):
        v = attraction((1.0, 1.0), (4.0, 5.0), GAINS)
        direction = np.array([3.0, 4.0]) / 5.0
        assert np.allclose(v, GAINS.k_att * direction, atol=1e-12)


class TestRepulsion:
    def test_zero_at_cutoff(self):
        # inflated distance exactly nu
        v = repulsive_velocity(GAINS.nu + GAINS.xi, (1.0, 0.0), GAINS)
        assert np.array_equal(v, np.zeros(2))

    def test_zero_beyond_cutoff(self):
        v = repulsive_velocity(10.0, (1.0, 0.0), GAINS)
        assert np.array_equal(v, np.zeros(2))

    def test_half_cutoff_magnitude(self):
        # d = nu / 2 after inflation: magnitude k_rep * (2/nu - 1/nu) = k_rep/nu
        v = repulsive_velocity(GAINS.nu / 2 + GAINS.xi, (0.0, -1.0), GAINS)
        assert v == pytest.approx([0.0, -10.0 / 3.0], abs=1e-12)

    def test_monotone_increase_as_distance_shrinks(self):
        distances = np.linspace(GAINS.nu + GAINS.xi, GAINS.xi + 2e-3, 40)
        mags = [
            np.linalg.norm(repulsive_velocity(d, (1.0, 0.0), GAINS)) for d in distances
        ]
        assert all(b >= a for a, b in zip(mags, mags[1:]))

    def test_penetration_warns_and_stays_finite(self):
        with pytest.warns(PenetrationWarning):
            v = repulsive_velocity(GAINS.xi - 0.1, (1.0, 0.0), GAINS)
        assert np.all(np.isfinite(v))
        expected = GAINS.k_rep * (1.0 / 1e-3 - 1.0 / GAINS.nu)
        assert v[0] == pytest.approx(expected, abs=1e-9)


class TestDesiredVelocity:
    def test_everything_quiet_at_goal(self):
        v = desired_velocity((0.0, 0.0), (0.0, 0.0), [], [], GAINS)
        assert np.array_equal(v, np.zeros(2))

    def test_pure_attraction_when_world_is_far(self):
        obstacles = [Obstacle(center=(100.0, 0.0), radius=1.0)]
        robots = [(0.0, 100.0)]
        v = desired_velocity((0.0, 0.0), (50.0, 0.0), obstacles, robots, GAINS)
        assert v == pytest.approx([GAINS.k_att, 0.0], abs=1e-12)

    def test_head_on_attraction_minus_repulsion(self):
        # Goal straight ahead, obstacle surface directly in between: the two
        # terms are collinear and the net speed is their difference.
        surface = 1.0  # raw distance from the robot to the obstacle surface
        obstacle = Obstacle(center=(surface + 0.5, 0.0), radius=0.5)
        v = desired_velocity((0.0, 0.0), (20.0, 0.0), [obstacle], [], GAINS)
        d = surface - GAINS.xi
        expected = GAINS.k_att - GAINS.k_rep * (1.0 / d - 1.0 / GAINS.nu)
        assert v == pytest.approx([expected, 0.0], abs=1e-12)

    def test_nearest_robot_only(self):
        near = (0.6, 0.0)
        far = (0.0, 1.2)
        v_near_only = desired_velocity((0.0, 0.0), (0.0, 0.0), [], [near], GAINS)
        v_both = desired_velocity((0.0, 0.0), (0.0, 0.0), [], [near, far], GAINS)
        assert np.array_equal(v_near_only, v_both)

    @given(extra=st.tuples(st.floats(5.0, 50.0), st.floats(5.0, 50.0)))
    @settings(max_examples=100, deadline=None)
    def test_adding_a_farther_obstacle_changes_nothing(self, extra):
        near = Obstacle(center=(2.0, 0.0), radius=0.5)
        farther = Obstacle(center=extra, radius=0.5)
        base = desired_velocity((0.0, 0.0), (-3.0, 1.0), [near], [], GAINS)
        with_extra = desired_velocity(
            (0.0, 0.0), (-3.0, 1.0), [near, farther], [], GAINS
        )
        assert np.array_equal(base, with_extra)
