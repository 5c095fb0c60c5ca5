import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmform import (
    ConstraintSpec,
    FormationParams,
    OutsideHardSetError,
    hard_scale_factor,
    project_scaling,
    scale_derivative,
    soft_set_distance,
)
from swarmform.constraints import _DISK_BAND, MEMBERSHIP_TOL

# Bounds that keep the soft and hard sets distinct, used throughout.
SOFT_SPEC = ConstraintSpec(eps_soft=0.5, eps_hard=0.25, r_soft=2.5, r_hard=2.75)
DELTA = math.sqrt(2.5**2 - 0.5**2)  # 2.449489...

# One exemplar per projection region: the corner, each wall, each arc
# endpoint, the arc itself, and the interior fixed point.

SEVEN_CASES = [
    ((0.25, 0.25), (0.5, 0.5)),        # below both walls
    ((1.5, 0.25), (1.5, 0.5)),         # below the bottom wall
    ((0.25, 1.5), (0.5, 1.5)),         # left of the left wall
    ((2.75, 0.25), (DELTA, 0.5)),      # past the bottom arc endpoint
    ((0.25, 2.75), (0.5, DELTA)),      # past the left arc endpoint
    ((2.25, 2.25), (1.7678, 1.7678)),  # outside the arc
    ((1.25, 1.25), (1.25, 1.25)),      # inside: fixed point
]


def bisect_scale_factor(s, ds, spec: ConstraintSpec, iters: int = 60) -> float:
    """Independent oracle: bisection on step-fraction feasibility."""

    def feasible(a: float) -> bool:
        x = s[0] + a * ds[0]
        y = s[1] + a * ds[1]
        return (
            x >= spec.eps_hard
            and y >= spec.eps_hard
            and math.hypot(x, y) <= spec.r_hard
        )

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def sample_hard_member(rng: np.random.Generator, spec: ConstraintSpec):
    """Rejection-sample a scaling vector strictly inside the hard set."""
    while True:
        s = rng.uniform(spec.eps_hard, spec.r_hard, 2)
        if math.hypot(*s) <= spec.r_hard:
            return (float(s[0]), float(s[1]))


class TestConstraintSpec:
    def test_defaults_from_parameter_table(self):
        spec = ConstraintSpec()
        assert spec.eps_soft == spec.eps_hard == 0.75
        assert spec.r_soft == spec.r_hard == 2.5

    def test_delta_soft(self):
        assert SOFT_SPEC.delta_soft == pytest.approx(math.sqrt(6.0), abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps_soft": 0.5, "eps_hard": 0.6},       # hard wall above soft wall
            {"r_soft": 2.5, "r_hard": 2.0},           # hard radius below soft radius
            {"eps_soft": 2.0, "r_soft": 2.5},         # soft set empty
            {"eps_soft": 0.0},
            {"r_hard": math.nan},
        ],
    )
    def test_invalid_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ConstraintSpec(**{**dict(eps_soft=0.75, eps_hard=0.75, r_soft=2.5, r_hard=2.5), **kwargs})


class TestSoftProjection:
    @pytest.mark.parametrize("s_in, s_out", SEVEN_CASES)
    def test_seven_case_examples(self, s_in, s_out):
        assert project_scaling(*s_in, SOFT_SPEC) == pytest.approx(s_out, abs=1e-4)

    def test_idempotent_on_random_inputs(self):
        rng = np.random.default_rng(99)
        for _ in range(20000):
            s = rng.uniform(1e-3, 6.0, 2)
            once = project_scaling(s[0], s[1], SOFT_SPEC)
            twice = project_scaling(once[0], once[1], SOFT_SPEC)
            assert twice == once

    def test_idempotent_on_boundary_outputs(self):
        # Arc endpoints and wall corners are the outputs most likely to sit
        # within an ulp of the membership boundary.
        pts = [
            (DELTA, 0.5),
            (0.5, DELTA),
            (0.5, 0.5),
            project_scaling(2.25, 2.25, SOFT_SPEC),
            project_scaling(3.0, 0.6, SOFT_SPEC),
            project_scaling(0.55, 3.5, SOFT_SPEC),
        ]
        for p in pts:
            assert project_scaling(p[0], p[1], SOFT_SPEC) == p

    @given(
        sx=st.floats(1e-6, 50.0),
        sy=st.floats(1e-6, 50.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_output_membership_and_idempotence(self, sx, sy):
        px, py = project_scaling(sx, sy, SOFT_SPEC)
        assert px >= SOFT_SPEC.eps_soft - 1e-12
        assert py >= SOFT_SPEC.eps_soft - 1e-12
        assert math.hypot(px, py) <= SOFT_SPEC.r_soft + 1e-12
        assert project_scaling(px, py, SOFT_SPEC) == (px, py)

    def test_members_are_exact_fixed_points(self):
        rng = np.random.default_rng(12)
        kept = 0
        while kept < 500:
            s = rng.uniform(SOFT_SPEC.eps_soft, SOFT_SPEC.r_soft, 2)
            if math.hypot(*s) >= SOFT_SPEC.r_soft:
                continue
            kept += 1
            assert project_scaling(s[0], s[1], SOFT_SPEC) == (s[0], s[1])

    def test_steep_directions_project_to_arc_endpoints(self):
        # Radial pullback alone would exit through a wall here; the
        # projection must land on the nearest arc endpoint instead.
        assert project_scaling(0.55, 3.5, SOFT_SPEC) == pytest.approx((0.5, DELTA), abs=1e-12)
        assert project_scaling(3.5, 0.55, SOFT_SPEC) == pytest.approx((DELTA, 0.5), abs=1e-12)

    def test_distance_helper(self):
        assert soft_set_distance(1.0, 1.0, SOFT_SPEC) == 0.0
        assert soft_set_distance(0.25, 0.5, SOFT_SPEC) == pytest.approx(0.25, abs=1e-12)


class TestHardScaleFactor:
    def test_worked_circle_exit_example(self):
        a = hard_scale_factor((1.3, 1.7), (0.4, 0.8), SOFT_SPEC)
        assert a == pytest.approx(0.6915, abs=5e-4)
        endpoint = (1.3 + a * 0.4, 1.7 + a * 0.8)
        assert endpoint == pytest.approx((1.5766, 2.2532), abs=1e-3)
        assert math.hypot(*endpoint) == pytest.approx(SOFT_SPEC.r_hard, abs=1e-9)

    def test_zero_derivative_keeps_full_step(self):
        assert hard_scale_factor((1.0, 1.0), (0.0, 0.0), SOFT_SPEC) == 1.0

    def test_tiny_interior_step_keeps_full_step(self):
        assert hard_scale_factor((1.0, 1.0), (1e-4, -1e-4), SOFT_SPEC) == 1.0

    def test_feasible_full_step_is_not_truncated(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            s = sample_hard_member(rng, SOFT_SPEC)
            target = sample_hard_member(rng, SOFT_SPEC)
            ds = (target[0] - s[0], target[1] - s[1])
            assert hard_scale_factor(s, ds, SOFT_SPEC) == 1.0

    def test_boundary_point_with_outward_derivative_stops(self):
        r = SOFT_SPEC.r_hard
        for theta in (0.3, 0.8, 1.2):
            s = (r * math.cos(theta), r * math.sin(theta))
            ds = (s[0], s[1])  # radially outward
            assert hard_scale_factor(s, ds, SOFT_SPEC) <= 1e-9

    def test_wall_point_with_outward_derivative_stops(self):
        s = (SOFT_SPEC.eps_hard, 1.0)
        assert hard_scale_factor(s, (-0.5, 0.0), SOFT_SPEC) == 0.0
        # outward through the wall while another candidate exists further out
        assert hard_scale_factor(s, (-0.5, 5.0), SOFT_SPEC) == 0.0

    def test_motion_along_wall_is_free(self):
        s = (SOFT_SPEC.eps_hard, 1.0)
        assert hard_scale_factor(s, (0.0, 0.3), SOFT_SPEC) == 1.0

    def test_outside_hard_set_raises(self):
        with pytest.raises(OutsideHardSetError):
            hard_scale_factor((0.1, 1.0), (0.0, 0.0), SOFT_SPEC)
        with pytest.raises(OutsideHardSetError):
            hard_scale_factor((2.5, 2.5), (0.0, 0.0), SOFT_SPEC)

    @pytest.mark.parametrize("spec", [SOFT_SPEC, ConstraintSpec()])
    def test_matches_bisection_oracle(self, spec):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            s = sample_hard_member(rng, spec)
            mag = rng.uniform(0.0, 5.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            ds = (mag * math.cos(ang), mag * math.sin(ang))
            a = hard_scale_factor(s, ds, spec)
            assert abs(a - bisect_scale_factor(s, ds, spec)) < 1e-9
            assert spec.in_hard_set(s[0] + a * ds[0], s[1] + a * ds[1], tol=1e-9)

    @given(
        sx=st.floats(0.26, 2.7),
        sy=st.floats(0.26, 2.7),
        dx=st.floats(-5.0, 5.0),
        dy=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_forward_invariance(self, sx, sy, dx, dy):
        if math.hypot(sx, sy) > SOFT_SPEC.r_hard:
            sx, sy = project_scaling(sx, sy, SOFT_SPEC)  # soft set sits inside hard set
        a = hard_scale_factor((sx, sy), (dx, dy), SOFT_SPEC)
        assert 0.0 <= a <= 1.0
        assert SOFT_SPEC.in_hard_set(sx + a * dx, sy + a * dy, tol=1e-9)


class TestDerivativeScaling:
    # Unit time step, so the scaled displacement is the rate itself.
    def test_identity_action(self):
        eta = FormationParams(0.0, 1.0, 1.0, 0.0, 0.0)
        d = (0.1, 0.4, 0.8, 1.0, 0.0)
        out, a_s = scale_derivative(eta, d, SOFT_SPEC, 1.0)
        assert a_s == 1.0
        assert out is d

    def test_zero_action_zeroes_scaling_only(self):
        eta = FormationParams(0.0, SOFT_SPEC.eps_hard, 1.0, 0.0, 0.0)  # on the wall
        d = (0.1, -0.4, 0.8, 1.0, -2.0)  # heading out through it
        out, a_s = scale_derivative(eta, d, SOFT_SPEC, 1.0)
        assert a_s == 0.0
        assert np.array(out) == pytest.approx([0.1, 0.0, 0.0, 1.0, -2.0])

    def test_worked_example_action(self):
        eta = FormationParams(0.0, 1.3, 1.7, 0.0, 0.0)
        d = (0.1, 0.4, 0.8, 1.0, 0.0)
        out, a_s = scale_derivative(eta, d, SOFT_SPEC, 1.0)
        assert a_s == pytest.approx(0.6915, abs=5e-4)
        assert np.array(out) == pytest.approx(
            [0.1, a_s * 0.4, a_s * 0.8, 1.0, 0.0], abs=1e-15
        )
        assert np.array(out) == pytest.approx([0.1, 0.2766, 0.5532, 1.0, 0.0], abs=1e-4)


# The dense_bound benchmark's sets: the soft set sits well inside the hard one.
DENSE_SPEC = ConstraintSpec(eps_soft=0.75, eps_hard=0.5, r_soft=1.6, r_hard=2.5)


def _polar(angle, radius):
    return (radius * math.cos(angle), radius * math.sin(angle))


def soft_regions(spec: ConstraintSpec):
    """Scaling vectors from every branch of the soft projection."""
    eps, r = spec.eps_soft, spec.r_soft
    steep = math.atan2(spec.delta_soft, eps)  # angle of the left arc endpoint
    swap = lambda p: (p[1], p[0])  # noqa: E731
    below_wall = st.tuples(st.floats(-1.0, eps), st.floats(-1.0, 3.0 * r))
    in_band = st.builds(
        lambda a, k: _polar(a, r * math.sqrt(1.0 + k * _DISK_BAND)),
        st.floats(0.0, math.pi / 2), st.floats(0.0, 1.0),
    )
    past_endpoint = st.builds(_polar, st.floats(steep, math.pi / 2), st.floats(r, 3.0 * r))
    return st.one_of(
        st.tuples(st.floats(-1.0, 3.0 * r), st.floats(-1.0, 3.0 * r)),
        below_wall, below_wall.map(swap),
        in_band,
        past_endpoint, past_endpoint.map(swap),
    )


def scalar_soft_distance(sx: float, sy: float, spec: ConstraintSpec) -> float:
    px, py = project_scaling(sx, sy, spec)
    return math.hypot(sx - px, sy - py)


class TestArrayForms:
    @pytest.mark.parametrize("spec", [SOFT_SPEC, DENSE_SPEC])
    def test_regions_of_the_property_below_are_reached(self, spec):
        # One point per branch the strategy aims at, checked to be there.
        eps, r = spec.eps_soft, spec.r_soft
        band = _polar(0.7, r * math.sqrt(1.0 + 0.5 * _DISK_BAND))
        nn = band[0] ** 2 + band[1] ** 2
        assert r * r < nn <= r * r * (1.0 + _DISK_BAND)
        assert project_scaling(*band, spec) == band
        assert project_scaling(0.9 * eps, 3.0 * r, spec) == (eps, spec.delta_soft)
        assert project_scaling(3.0 * r, 0.9 * eps, spec) == (spec.delta_soft, eps)

    @pytest.mark.parametrize("spec", [SOFT_SPEC, DENSE_SPEC])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_soft_distance_matches_scalar_projection_bit_for_bit(self, spec, data):
        points = data.draw(st.lists(soft_regions(spec), min_size=1, max_size=40))
        sx = np.array([p[0] for p in points])
        sy = np.array([p[1] for p in points])
        want = np.array([scalar_soft_distance(x, y, spec) for x, y in points])
        got = soft_set_distance(sx, sy, spec)
        assert got.dtype == np.float64 and got.shape == sx.shape
        assert got.tobytes() == want.tobytes()
        assert got.reshape(-1, 1).tobytes() == soft_set_distance(
            sx.reshape(-1, 1), sy.reshape(-1, 1), spec).tobytes()
        for value in (soft_set_distance(*points[0], spec),
                      soft_set_distance(np.float64(sx[0]), np.array(sy[0]), spec)):
            assert np.ndim(value) == 0
            assert np.float64(value).tobytes() == want[:1].tobytes()

    @pytest.mark.parametrize("spec", [SOFT_SPEC, DENSE_SPEC])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_hard_membership_matches_scalar_calls(self, spec, data):
        tol = data.draw(st.sampled_from([0.0, MEMBERSHIP_TOL, 1e-7, -0.05]))
        r = spec.r_hard + tol
        near_circle = st.builds(
            lambda a, k: _polar(a, r * (1.0 + k * 2.0**-52)),
            st.floats(0.0, math.pi / 2), st.integers(-4, 4),
        )
        anywhere = st.tuples(st.floats(-1.0, 1.5 * r), st.floats(-1.0, 1.5 * r))
        points = data.draw(st.lists(near_circle | anywhere, min_size=1, max_size=40))
        sx = np.array([p[0] for p in points])
        sy = np.array([p[1] for p in points])
        got = spec.in_hard_set(sx, sy, tol=tol)
        assert got.dtype == np.bool_
        assert got.tolist() == [spec.in_hard_set(x, y, tol=tol) for x, y in points]

    @given(
        sx=st.floats(-1.0, 4.0),
        sy=st.floats(-1.0, 4.0),
        tol=st.sampled_from([0.0, MEMBERSHIP_TOL, 1e-7, -0.05]),
    )
    @settings(max_examples=500, deadline=None)
    def test_hard_membership_matches_the_hypot_form_away_from_the_circle(self, sx, sy, tol):
        # The squared disk test differs from the hypot one only within a few
        # ulps of the circle.
        spec = SOFT_SPEC
        assume(abs(math.hypot(sx, sy) - (spec.r_hard + tol)) > 1e-12)
        old = (
            sx >= spec.eps_hard - tol
            and sy >= spec.eps_hard - tol
            and math.hypot(sx, sy) <= spec.r_hard + tol
        )
        assert spec.in_hard_set(sx, sy, tol=tol) == old
