import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmform import (
    ApfGains,
    ConstraintSpec,
    FormationParams,
    NonFiniteInputError,
    ParamDerivative,
    PlannerGains,
    PlannerState,
    apply_transform,
    build_graph,
    consensus_term,
    exchange,
    jacobian,
    plan_tick,
    potential_field,
    project_scaling,
    recover_velocity,
    scale_derivative,
    soft_term,
    square_distances,
    step_world,
    tracking_term,
    unit_grid,
)

from .conftest import random_eta, random_slot

SOFT_SPEC = ConstraintSpec(eps_soft=0.5, eps_hard=0.25, r_soft=2.5, r_hard=2.75)


def make_state(eta=None, slot=(1.0, -1.0), lam=0.0, mu=0.0, k_fb=0.0, spec=None):
    return PlannerState(
        eta=eta if eta is not None else FormationParams.identity(),
        slot=slot,
        gains=PlannerGains(lam=lam, mu=mu, k_fb=k_fb),
        constraints=spec if spec is not None else SOFT_SPEC,
    )


class TestTrackingTerm:
    def test_zero_velocity_gives_zero_rate(self):
        out = tracking_term(make_state(), (0.0, 0.0))
        assert np.array_equal(np.array(out), np.zeros(5))

    def test_origin_slot_maps_velocity_to_translation_rate(self):
        state = make_state(slot=(0.0, 0.0))
        out = tracking_term(state, (1.0, 0.0))
        assert np.array(out) == pytest.approx([0, 0, 0, 1, 0], abs=0.0)

    def test_right_inverse_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            eta = random_eta(rng)
            slot = random_slot(rng)
            state = make_state(eta=eta, slot=slot)
            v = rng.uniform(-5, 5, 2)
            d = np.array(tracking_term(state, v))
            assert np.abs(jacobian(eta, slot) @ d - v).max() < 1e-10


class TestConsensusTerm:
    def test_no_neighbors_gives_zero(self):
        eta = FormationParams.identity()
        assert np.array_equal(np.array(consensus_term(eta, [], 3.0)), np.zeros(5))

    def test_agreeing_neighbor_gives_zero(self):
        eta = FormationParams(0.2, 1.1, 0.9, 2.0, -1.0)
        out = consensus_term(eta, [eta], 4.0)
        assert np.array_equal(np.array(out), np.zeros(5))

    def test_single_difference_arithmetic(self):
        eta = FormationParams.identity()
        other = FormationParams(0.0, 1.0, 1.0, 2.0, 0.0)
        out = consensus_term(eta, [other], 1.0)
        assert np.array(out) == pytest.approx([0, 0, 0, 2, 0], abs=0.0)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            consensus_term(FormationParams.identity(), [], -1.0)


class TestSoftTerm:
    def test_zero_inside_soft_set(self):
        eta = FormationParams(0.0, 1.25, 1.25, 0.0, 0.0)
        assert np.array_equal(np.array(soft_term(eta, SOFT_SPEC, 10.0)), np.zeros(5))

    def test_case_one_pull_arithmetic(self):
        eta = FormationParams(0.7, 0.25, 0.25, 3.0, -2.0)
        out = soft_term(eta, SOFT_SPEC, 10.0)
        assert np.array(out) == pytest.approx([0, 2.5, 2.5, 0, 0], abs=1e-12)

    def test_zero_gain_gives_zero(self):
        eta = FormationParams(0.7, 0.05, 0.05, 3.0, -2.0)
        assert np.array_equal(np.array(soft_term(eta, SOFT_SPEC, 0.0)), np.zeros(5))


class TestPlanTick:
    def test_full_equilibrium_is_a_fixed_point(self):
        eta = FormationParams(0.4, 1.2, 1.1, 2.0, 1.0)
        state = make_state(eta=eta, slot=(1.0, 1.0), lam=3.0, mu=10.0, k_fb=2.0)
        p = apply_transform(eta, (1.0, 1.0))
        res = plan_tick(state, (0.0, 0.0), [], p, 1e-3)
        assert res.eta_next == eta
        assert np.array_equal(res.v_cmd, np.zeros(2))
        assert res.a_s == 1.0

    def test_pass_through_identity_when_unconstrained(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            eta = random_eta(rng)
            # Interior margin must exceed the largest possible Euler
            # displacement of s so a_s is guaranteed to stay 1.
            if not SOFT_SPEC.in_hard_set(eta.sx, eta.sy, tol=-0.05):
                continue
            slot = random_slot(rng)
            state = make_state(eta=eta, slot=slot)
            p = apply_transform(eta, slot)
            v_des = rng.uniform(-5, 5, 2)
            res = plan_tick(state, v_des, [], p, 1e-3)
            assert np.abs(res.v_cmd - v_des).max() < 1e-10

    def test_perturbation_only_feedback(self):
        eta = FormationParams(0.0, 1.0, 1.0, 0.0, 0.0)
        slot = (0.5, 0.5)
        state = make_state(eta=eta, slot=slot, k_fb=2.0)
        e = np.array([0.3, -0.4])
        p = apply_transform(eta, slot) + e
        res = plan_tick(state, (0.0, 0.0), [], p, 1e-3)
        assert np.allclose(res.v_cmd, -2.0 * e, atol=1e-15)
        assert res.eta_next == eta

    def test_euler_error_decay_rate(self):
        # Fixed parameters, zero desired velocity: the position error must
        # contract by exactly (1 - k_fb * dt) per step.
        dt, k_fb, steps = 1e-3, 2.0, 500
        eta = FormationParams(0.3, 1.2, 0.9, 1.0, -1.0)
        slot = (1.0, 0.0)
        state = make_state(eta=eta, slot=slot, k_fb=k_fb)
        slot_pos = apply_transform(eta, slot)
        e0 = np.array([0.7, -0.2])
        p = slot_pos + e0
        for _ in range(steps):
            res = plan_tick(state, (0.0, 0.0), [], p, dt)
            p = p + dt * res.v_cmd
            state.eta = res.eta_next
        expected = (1.0 - k_fb * dt) ** steps * np.linalg.norm(e0)
        assert np.linalg.norm(p - slot_pos) == pytest.approx(expected, abs=1e-9)

    def test_hard_set_invariance_over_ticks(self):
        rng = np.random.default_rng(77)
        spec = SOFT_SPEC
        eta = FormationParams(0.0, 2.7, 0.3, 0.0, 0.0)  # near the hard boundary
        state = make_state(eta=eta, slot=(1.0, 1.0), mu=0.0, spec=spec)
        p = apply_transform(eta, (1.0, 1.0))
        for _ in range(2000):
            v_des = rng.uniform(-10, 10, 2)
            res = plan_tick(state, v_des, [], p, 1e-3)
            state.eta = res.eta_next
            p = p + 1e-3 * res.v_cmd
            assert spec.in_hard_set(state.eta.sx, state.eta.sy, tol=1e-9)

    def test_scaled_step_lands_inside_hard_set(self):
        # Raw rate pushes far outside; the scaled Euler step must not.
        eta = FormationParams(0.0, 2.0, 1.0, 0.0, 0.0)
        d_raw = (0.0, 900.0, 500.0, 0.0, 0.0)
        d, a_s = scale_derivative(eta, d_raw, SOFT_SPEC, 1e-3)
        assert 0.0 < a_s < 1.0
        assert SOFT_SPEC.in_hard_set(
            eta.sx + 1e-3 * d[1], eta.sy + 1e-3 * d[2], tol=1e-9
        )

    def test_nonfinite_inputs_fail_fast(self):
        state = make_state()
        with pytest.raises(NonFiniteInputError):
            plan_tick(state, (math.nan, 0.0), [], (0.0, 0.0), 1e-3)
        with pytest.raises(NonFiniteInputError):
            plan_tick(state, (0.0, 0.0), [], (math.inf, 0.0), 1e-3)
        with pytest.raises(ValueError):
            plan_tick(state, (0.0, 0.0), [], (0.0, 0.0), 0.0)


class TestFloatPath:
    def test_recovered_velocity_is_a_float_pair(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            state = make_state(eta=random_eta(rng), slot=random_slot(rng), k_fb=2.0)
            rate = tuple(rng.uniform(-5, 5, 5).tolist())
            v = recover_velocity(state, rate, rng.uniform(-5, 5, 2))
            assert type(v) is tuple and len(v) == 2
            assert all(type(x) is float for x in v)


class TestTickAllocation:
    def test_one_tick_builds_one_formation_params_and_no_derivative(self, monkeypatch):
        # Counted through __post_init__, where the traced benchmark counts
        # value objects; the state binds both constraint sets.
        eta = FormationParams(0.2, 2.7, 0.3, 1.0, -1.0)
        state = make_state(eta=eta, slot=(1.0, 1.0), lam=5.0, mu=10.0, k_fb=2.0)
        neighbors = [FormationParams(0.1, 1.0, 1.0, 0.5, 0.0)] * 3
        counts = {}
        for cls in (FormationParams, ParamDerivative):
            def counted(obj, _name=cls.__name__, _post_init=cls.__post_init__):
                counts[_name] = counts.get(_name, 0) + 1
                _post_init(obj)

            monkeypatch.setattr(cls, "__post_init__", counted)
        res = plan_tick(state, (400.0, 300.0), neighbors, (0.5, 0.5), 1e-3)
        assert res.a_s < 1.0
        assert counts == {"FormationParams": 1}

    @pytest.mark.parametrize("tx", [1.7e308, -1.7e308])
    def test_overflowing_consensus_sum_raises(self, tx):
        # Each difference is finite; their sum overflows to infinity.
        state = make_state(lam=1.0)
        far = FormationParams(0.0, 1.0, 1.0, tx, 0.0)
        with pytest.raises(ValueError, match="finite"):
            plan_tick(state, (0.0, 0.0), [far, far], (1.0, -1.0), 1e-3)


class TestPlanTickProperties:
    @given(
        eta=st.tuples(
            st.floats(-10.0, 10.0),
            st.floats(0.25, 2.75),
            st.floats(0.25, 2.75),
            st.floats(-50.0, 50.0),
            st.floats(-50.0, 50.0),
        ),
        slot=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        gains=st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 200.0), st.floats(0.0, 10.0)),
        v_des=st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)),
        neighbors=st.lists(
            st.tuples(
                st.floats(-10.0, 10.0),
                st.floats(1e-3, 1e3),
                st.floats(1e-3, 1e3),
                st.floats(-1e3, 1e3),
                st.floats(-1e3, 1e3),
            ),
            max_size=5,
        ),
        dt=st.sampled_from([1e-3, 1e-2, 0.1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_next_scaling_stays_in_hard_set(self, eta, slot, gains, v_des, neighbors, dt):
        phi, sx, sy, tx, ty = eta
        if not SOFT_SPEC.in_hard_set(sx, sy):
            sx, sy = project_scaling(sx, sy, SOFT_SPEC)  # soft set sits inside hard set
        state = make_state(
            eta=FormationParams(phi, sx, sy, tx, ty), slot=slot,
            lam=gains[0], mu=gains[1], k_fb=gains[2],
        )
        nbrs = [FormationParams(*row) for row in neighbors]
        res = plan_tick(state, v_des, nbrs, (0.0, 0.0), dt)
        assert 0.0 <= res.a_s <= 1.0
        assert SOFT_SPEC.in_hard_set(res.eta_next.sx, res.eta_next.sy, tol=1e-9)

    @pytest.mark.filterwarnings("ignore::swarmform.PenetrationWarning")
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_a_non_neighbor_cannot_change_a_robots_tick(self, seed):
        # Decentralization: robot i's tick reads only what exchange
        # delivers from its neighbours, so another robot's eta cannot
        # reach it; a neighbour's eta does.
        rng = np.random.default_rng(seed)
        n, r_c = 8, 3.0
        positions = rng.uniform(-5.0, 5.0, (n, 2))
        etas = [
            FormationParams(
                rng.uniform(-1, 1), rng.uniform(0.8, 1.8), rng.uniform(0.8, 1.8),
                rng.uniform(-5, 5), rng.uniform(-5, 5),
            )
            for _ in range(n)
        ]
        slots = unit_grid(3, 1.0).slots[:n]
        goals = rng.uniform(-5.0, 5.0, (n, 2))
        v_des = potential_field(
            positions, goals, np.zeros((0, 2)), np.zeros(0), positions,
            square_distances(positions), ApfGains(),
        )
        nbrs = build_graph(positions, r_c)

        def tick(i, all_eta):
            state = make_state(eta=all_eta[i], slot=slots[i], lam=8.0, mu=10.0, k_fb=2.0)
            res = plan_tick(state, v_des[i], exchange(nbrs, all_eta)[i], positions[i], 1e-3)
            return res.v_cmd.tobytes(), res.eta_next.as_array().tobytes(), res.a_s

        for i in range(n):
            before = tick(i, etas)
            for j in range(n):
                if j == i:
                    continue
                changed = list(etas)
                e = etas[j]
                changed[j] = FormationParams(e.phi + 0.5, e.sx * 1.1, e.sy, e.tx + 1.0, e.ty - 1.0)
                if j in nbrs[i]:
                    assert tick(i, changed)[1] != before[1]
                else:
                    assert tick(i, changed) == before


class TestConsensusDynamics:
    def test_contraction_and_mean_conservation(self):
        # Static complete graph, no tracking, no soft pull: the parameter
        # spread must shrink every tick and the mean must stay put.
        rng = np.random.default_rng(5)
        n, dt, lam = 5, 1e-3, 20.0
        etas = [
            FormationParams(
                rng.uniform(-0.3, 0.3),
                rng.uniform(0.95, 1.25),
                rng.uniform(0.95, 1.25),
                rng.uniform(-0.5, 0.5),
                rng.uniform(-0.5, 0.5),
            )
            for _ in range(n)
        ]
        states = [
            make_state(eta=etas[i], slot=(0.3 * i, 0.0), lam=lam) for i in range(n)
        ]
        assert lam * dt * (n - 1) < 1.0
        prev_spread = None
        for _ in range(3000):
            current = [st.eta for st in states]
            arr = np.array([e.as_array() for e in current])
            spread = arr.max(axis=0) - arr.min(axis=0)
            mean = arr.mean(axis=0)
            if prev_spread is not None:
                assert np.all(spread <= prev_spread + 1e-12)
            prev_spread = spread
            for i, st in enumerate(states):
                nbrs = [current[j] for j in range(n) if j != i]
                res = plan_tick(st, (0.0, 0.0), nbrs, (0.0, 0.0), dt)
                st.eta = res.eta_next
            new_mean = np.array([st.eta.as_array() for st in states]).mean(axis=0)
            assert np.abs(new_mean - mean).max() < 1e-9
        assert prev_spread.max() < 1e-8

    def test_disconnected_robot_sees_no_consensus(self):
        # Information hiding end to end: a robot out of range receives an
        # empty list and its consensus pull is exactly zero.
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0]])
        nbrs = build_graph(positions, r_c=2.0)
        etas = [
            FormationParams(0.0, 1.0, 1.0, 0.0, 0.0),
            FormationParams(0.0, 1.0, 1.0, 5.0, 0.0),
            FormationParams(0.0, 1.0, 1.0, -5.0, 0.0),
        ]
        received = exchange(nbrs, etas)
        assert received[2] == []
        state = make_state(eta=etas[2], slot=(0.0, 0.0), lam=10.0)
        res = plan_tick(state, (0.0, 0.0), received[2], (50.0, 0.0), 1e-3)
        assert res.eta_next == etas[2]


class TestStepWorld:
    def test_zero_velocity_is_stationary(self):
        p = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(step_world(p, np.zeros((2, 2)), 1e-3), p)

    def test_single_step_arithmetic(self):
        out = step_world(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]), 1e-3)
        assert np.allclose(out, [[0.001, 0.002]], atol=1e-15)

    def test_constant_velocity_accumulates_linearly(self):
        p = np.array([[0.5, -0.5]])
        v = np.array([[2.0, 1.0]])
        q = p.copy()
        for _ in range(100):
            q = step_world(q, v, 0.01)
        assert np.allclose(q, p + 100 * 0.01 * v, atol=1e-12)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            step_world(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)
