import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmform import (
    ApfGains,
    Obstacle,
    PenetrationWarning,
    desired_velocity,
    potential_field,
    repulsive_velocity,
)
from swarmform.apf import REPULSION_FLOOR

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


# The field in its first array form: one np.where per clamp or mask, and one
# away/repulsion pass for the obstacles, then one for the robots.  The
# stacked pass of `potential_field` must match it bit for bit.
def _oracle_attraction(points, goals, gains):
    d = goals - points
    dist = np.hypot(d[:, 0], d[:, 1])
    speed = np.where(dist > gains.rho, gains.k_att, gains.k_att * dist / gains.rho)
    at_goal = dist == 0.0
    v = speed[:, None] * d / np.where(at_goal, 1.0, dist)[:, None]
    return np.where(at_goal[:, None], 0.0, v)


def _oracle_away(d, norm):
    coincident = norm == 0.0
    away = d / np.where(coincident, 1.0, norm)[:, None]
    away[coincident] = (1.0, 0.0)
    return away


def _oracle_repulsion(surface, away, gains):
    d = surface - gains.xi
    for di in d[d <= 0.0].tolist():
        warnings.warn(
            f"inflated surface distance {di:.4f} m <= 0; clamping to {REPULSION_FLOOR}",
            PenetrationWarning,
        )
    d = np.maximum(d, REPULSION_FLOOR)
    active = d < gains.nu
    mag = gains.k_rep * (1.0 / d - 1.0 / gains.nu)
    return np.where(active[:, None], mag[:, None] * away, 0.0)


def oracle_field(points, goals, obstacle_centers, obstacle_radii, robots, robot_d2, gains):
    v = _oracle_attraction(points, goals, gains)
    rows = np.arange(len(points))
    if len(obstacle_radii):
        dx = points[:, None, 0] - obstacle_centers[None, :, 0]
        dy = points[:, None, 1] - obstacle_centers[None, :, 1]
        norm = np.hypot(dx, dy)
        surface = norm - obstacle_radii
        k = np.argmin(surface, axis=1)
        away = _oracle_away(points - obstacle_centers[k], norm[rows, k])
        v = v + _oracle_repulsion(surface[rows, k], away, gains)
    if robot_d2.shape[1]:
        k = np.argmin(robot_d2, axis=1)
        dist = np.sqrt(robot_d2[rows, k])
        v = v + _oracle_repulsion(dist, _oracle_away(points - robots[k], dist), gains)
    return v


# Coordinates from a small set of values too, so that points coincide with
# their goals, with each other and with obstacle centres, signed zeros included.
_coord = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0]), st.floats(-4.0, 4.0))
_pair = st.tuples(_coord, _coord)


@st.composite
def field_inputs(draw):
    """Arguments of `potential_field`: 1-12 points, each at its goal (maybe
    with the other sign of zero) or not; 0-3 obstacles, often penetrated once
    inflated; and either the points themselves as the robots (the simulator's
    use, so a lone point sees only +inf) or 0-12 other robots, some ignored."""
    points = np.array(draw(st.lists(_pair, min_size=1, max_size=12)))
    goals = points.copy()
    for i in range(len(points)):
        kind = draw(st.sampled_from(["at", "flipped zero", "elsewhere"]))
        if kind == "flipped zero":
            goals[i][goals[i] == 0.0] *= -1.0
        elif kind == "elsewhere":
            goals[i] = draw(_pair)
    centers = np.array(draw(st.lists(_pair, max_size=3))).reshape(-1, 2)
    radii = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=len(centers),
                                   max_size=len(centers))))
    if draw(st.booleans()):
        robots = points
    else:
        robots = np.array(draw(st.lists(_pair, max_size=12))).reshape(-1, 2)
    dx = points[:, None, 0] - robots[None, :, 0]
    dy = points[:, None, 1] - robots[None, :, 1]
    d2 = dx * dx + dy * dy
    if robots is points:
        d2[np.diag_indices(len(points))] = np.inf
    else:
        d2[np.array(draw(st.lists(st.booleans(), min_size=d2.size, max_size=d2.size)),
                    dtype=bool).reshape(d2.shape)] = np.inf
    gains = draw(st.one_of(st.just(ApfGains()), st.builds(
        ApfGains, k_att=st.floats(0.1, 10.0), rho=st.floats(0.01, 2.0),
        k_rep=st.floats(0.1, 10.0), xi=st.floats(0.01, 1.0), nu=st.floats(0.1, 3.0))))
    return points, goals, centers, radii, robots, d2, gains


def _lone_robot():
    point = np.array([[1.0, -0.0]])
    return point, point, np.zeros((0, 2)), np.zeros(0), point, np.full((1, 1), np.inf), GAINS


def _coincident_in_an_obstacle():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, -0.0]])
    goals = np.array([[-0.0, 0.0], [3.0, 1.0], [0.5, 0.0]])
    d2 = np.array([[np.inf, 0.0, 0.25], [0.0, np.inf, 0.25], [0.25, 0.25, np.inf]])
    return points, goals, np.array([[0.0, 0.0]]), np.array([1.0]), points, d2, GAINS


def _exactly_at_the_switch_distance():
    # dist == rho, where k_att * rho / rho is not k_att, and the velocity
    # shows the difference.
    goal = np.array([[0.33, 0.79]])
    gains = ApfGains(k_att=3.2, rho=float(np.hypot(0.33, 0.79)))
    return (np.zeros((1, 2)), goal, np.zeros((0, 2)), np.zeros(0),
            np.zeros((0, 2)), np.zeros((1, 0)), gains)


class TestFieldOracle:
    @given(args=field_inputs())
    @example(args=_lone_robot())
    @example(args=_coincident_in_an_obstacle())
    @example(args=_exactly_at_the_switch_distance())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_first_array_form_bit_for_bit(self, args):
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always", PenetrationWarning)
            v = potential_field(*args)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always", PenetrationWarning)
            expected = oracle_field(*args)
        assert v.dtype == expected.dtype and v.shape == expected.shape
        assert v.tobytes() == expected.tobytes()
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        assert all(w.category is PenetrationWarning for w in got)
