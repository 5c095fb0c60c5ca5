import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmform import (
    BaseConfiguration,
    FormationParams,
    ParamDerivative,
    SingularMatrixError,
    apply_transform,
    apply_transform_many,
    jacobian,
    pseudo_inverse,
    unit_grid,
)

from .conftest import random_eta, random_slot


def fd_jacobian(eta: FormationParams, c, h: float = 1e-6) -> np.ndarray:
    """Independent oracle: central finite differences of apply_transform."""
    base = eta.as_array()
    cols = []
    for k in range(5):
        up = base.copy()
        dn = base.copy()
        up[k] += h
        dn[k] -= h
        p_up = np.asarray(apply_transform(FormationParams.from_array(up), c))
        p_dn = np.asarray(apply_transform(FormationParams.from_array(dn), c))
        cols.append((p_up - p_dn) / (2.0 * h))
    return np.column_stack(cols)


# Hand-computed world positions of the unit grid under rotation pi/4,
# scaling (1, 2), translation (3, 1), frozen to 4 decimals.
GRID_EXPECTED = [
    (3.7071, -1.1213),
    (2.2929, 0.2929),
    (0.8787, 1.7071),
    (4.4142, -0.4142),
    (3.0000, 1.0000),
    (1.5858, 2.4142),
    (5.1213, 0.2929),
    (3.7071, 1.7071),
    (2.2929, 3.1213),
]


class TestApplyTransform:
    def test_identity_is_a_noop(self):
        eta = FormationParams.identity()
        for c in [(0.3, -1.2), (0.0, 0.0), (5.0, 7.0)]:
            assert np.allclose(apply_transform(eta, c), c, atol=0.0)

    def test_quarter_turn_of_scaled_unit_vector(self):
        eta = FormationParams(math.pi / 2, 2.0, 1.0, 0.0, 0.0)
        assert np.allclose(apply_transform(eta, (1.0, 0.0)), (0.0, 2.0), atol=1e-15)

    def test_worked_grid_example(self):
        eta = FormationParams(math.pi / 4, 1.0, 2.0, 3.0, 1.0)
        assert np.allclose(apply_transform(eta, (1.0, 1.0)), (2.2929, 3.1213), atol=1e-4)

    def test_full_grid_matches_frozen_coordinates(self):
        eta = FormationParams(math.pi / 4, 1.0, 2.0, 3.0, 1.0)
        got = sorted(tuple(apply_transform(eta, c)) for c in unit_grid(3).slots)
        expected = sorted(GRID_EXPECTED)
        assert np.allclose(got, expected, atol=1e-4)

    def test_rotation_and_translation_preserve_scaled_distances(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            eta = random_eta(rng)
            ci = np.array(random_slot(rng))
            cj = np.array(random_slot(rng))
            d_world = np.linalg.norm(
                np.asarray(apply_transform(eta, ci)) - np.asarray(apply_transform(eta, cj))
            )
            d_scaled = np.hypot(eta.sx * (ci[0] - cj[0]), eta.sy * (ci[1] - cj[1]))
            assert d_world == pytest.approx(d_scaled, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        etas = np.array([random_eta(rng).as_array() for _ in range(50)])
        slots = np.array([random_slot(rng) for _ in range(50)])
        batch = apply_transform_many(etas, slots)
        for k in range(50):
            single = apply_transform(FormationParams.from_array(etas[k]), slots[k])
            assert np.array_equal(batch[k], single)


class TestJacobian:
    def test_direct_substitution_at_identity(self):
        J = jacobian(FormationParams.identity(), (1.0, 1.0))
        assert np.allclose(J, [[-1, 1, 0, 1, 0], [1, 0, 1, 0, 1]], atol=0.0)

    def test_origin_slot_leaves_only_translation_columns(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            J = np.asarray(jacobian(random_eta(rng), (0.0, 0.0)))
            assert np.allclose(J[:, :3], 0.0, atol=0.0)
            assert np.allclose(J[:, 3:], np.eye(2), atol=0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        worst_abs = 0.0
        for _ in range(1000):
            eta = random_eta(rng)
            c = random_slot(rng)
            J = jacobian(eta, c)
            J_fd = fd_jacobian(eta, c)
            err = np.abs(J - J_fd)
            assert np.all(err <= 1e-6 * np.maximum(1.0, np.abs(J)))
            worst_abs = max(worst_abs, float(err.max()))
        assert worst_abs < 1e-5


class TestPseudoInverse:
    def test_right_inverse_property(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            J = jacobian(random_eta(rng), random_slot(rng))
            resid = np.abs(np.asarray(J) @ np.asarray(pseudo_inverse(J)) - np.eye(2)).max()
            assert resid < 1e-10

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(321)
        for _ in range(1000):
            J = jacobian(random_eta(rng), random_slot(rng))
            assert np.abs(pseudo_inverse(J) - np.linalg.pinv(J)).max() < 1e-8

    def test_origin_slot_reduces_to_transpose(self):
        J = jacobian(FormationParams.identity(), (0.0, 0.0))
        assert np.array_equal(pseudo_inverse(J), np.asarray(J).T)

    def test_normal_matrix_is_well_conditioned(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            J = np.asarray(jacobian(random_eta(rng), random_slot(rng)))
            assert np.linalg.eigvalsh(J @ J.T).min() >= 1.0 - 1e-9

    def test_singular_input_raises(self):
        with pytest.raises(SingularMatrixError):
            pseudo_inverse(np.zeros((2, 5)))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.zeros((3, 4)))


def _float_rows(value, shape):
    """True when `value` is a tuple of tuples of Python floats with `shape`."""
    rows, cols = shape
    return (
        type(value) is tuple and len(value) == rows
        and all(type(row) is tuple and len(row) == cols for row in value)
        and all(type(x) is float for row in value for x in row)
    )


class TestFloatPath:
    """One robot's values are plain Python floats, never arrays."""

    @pytest.mark.parametrize("seed", range(5))
    def test_single_robot_helpers_return_float_tuples(self, seed):
        rng = np.random.default_rng(seed)
        eta, slot = random_eta(rng), np.array(random_slot(rng))
        assert _float_rows((apply_transform(eta, slot),), (1, 2))
        J = jacobian(eta, slot)
        assert _float_rows(J, (2, 5))
        assert _float_rows(pseudo_inverse(J), (5, 2))

    @pytest.mark.parametrize("J", [
        ((1.0, 0.0, 0.0, 1.0, 0.0),),
        ((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0)),
        ((1.0, 0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 0.0, 1.0), (0.0,) * 5),
        1.0,
    ])
    def test_pseudo_inverse_names_the_expected_shape(self, J):
        with pytest.raises(ValueError, match="expected a 2x5 Jacobian"):
            pseudo_inverse(J)


class TestTypes:
    def test_nonpositive_scaling_rejected(self):
        with pytest.raises(ValueError):
            FormationParams(0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            FormationParams(0.0, 1.0, -0.5, 0.0, 0.0)

    def test_nonfinite_components_rejected(self):
        with pytest.raises(ValueError):
            FormationParams(math.nan, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            FormationParams(0.0, 1.0, 1.0, math.inf, 0.0)
        with pytest.raises(ValueError):
            ParamDerivative(0.0, math.nan, 0.0, 0.0, 0.0)

    def test_array_round_trip(self):
        eta = FormationParams(0.3, 1.2, 0.8, -4.0, 2.0)
        assert FormationParams.from_array(eta.as_array()) == eta

    def test_base_configuration_validation(self):
        with pytest.raises(ValueError):
            BaseConfiguration(())
        with pytest.raises(ValueError):
            BaseConfiguration(((0.0, math.nan),))
        grid = unit_grid(3)
        assert len(grid) == 9
        assert (0.0, 0.0) in grid.slots
        assert (1.0, -1.0) in grid.slots

    @given(
        phi=st.floats(-10.0, 10.0),
        sx=st.floats(1e-3, 10.0),
        sy=st.floats(1e-3, 10.0),
        tx=st.floats(-100.0, 100.0),
        ty=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_valid_ranges_always_construct(self, phi, sx, sy, tx, ty):
        eta = FormationParams(phi, sx, sy, tx, ty)
        assert eta.as_array().shape == (5,)
