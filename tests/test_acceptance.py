"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the benchmark table.  The gain-grid criteria share one session
cache of full simulation runs, so every (lambda, mu, k_fb) combination is
simulated exactly once.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from swarmform import (
    ConstraintSpec,
    FormationParams,
    PenetrationWarning,
    PlannerGains,
    PlannerState,
    apply_transform,
    bench,
    build_graph,
    exchange,
    export_csv,
    hard_scale_factor,
    jacobian,
    plan_tick,
    project_scaling,
    pseudo_inverse,
    reference_scenario,
    run,
    step_world,
    unit_grid,
)
from swarmform.bench import STEP_NAMES
from swarmform.presets import NOISE_SIGMA

from .conftest import random_eta, random_slot
from .helpers import neighbor_tuples
from .test_constraints import SEVEN_CASES, bisect_scale_factor, sample_hard_member
from .test_transform import fd_jacobian

LAMBDA_GRID = (1.0, 2.0, 8.0, 32.0)
MU_GRID = (0.0, 10.0, 20.0, 100.0)
K_GRID = (0.0, 2.0)
WALL_CLOCK_LIMIT = 60.0  # seconds per full 9 s simulation
# Bundled scenario in which both scaling sets bind: its goal scaling lies
# outside the soft and the hard set.
BOUND_FILE = "scaling_bound.yaml"


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def jacobian_samples():
    rng = np.random.default_rng(20240901)
    return [(random_eta(rng), random_slot(rng)) for _ in range(1000)]


def test_c01_jacobian_matches_finite_differences(jacobian_samples):
    with criterion(1, "Jacobian vs central finite differences"):
        t0 = time.perf_counter()
        worst = 0.0
        for eta, c in jacobian_samples:
            dev = np.abs(jacobian(eta, c) - fd_jacobian(eta, c)).max()
            worst = max(worst, float(dev))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-5, f"max abs deviation {worst}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c02_pseudo_inverse_right_identity(jacobian_samples):
    with criterion(2, "pseudo-inverse right-identity residual"):
        worst = 0.0
        eye = np.eye(2)
        for eta, c in jacobian_samples:
            J = jacobian(eta, c)
            resid = np.abs(np.asarray(J) @ np.asarray(pseudo_inverse(J)) - eye).max()
            worst = max(worst, float(resid))
        assert worst < 1e-10, f"max residual {worst}"


def test_c03_hard_constraint_closed_form_vs_bisection():
    with criterion(3, "hard-constraint closed form vs bisection oracle"):
        specs = [
            ConstraintSpec(eps_soft=0.5, eps_hard=0.25, r_soft=2.5, r_hard=2.75),
            ConstraintSpec(),
        ]
        rng = np.random.default_rng(77)
        t0 = time.perf_counter()
        for spec in specs:
            for _ in range(500):
                s = sample_hard_member(rng, spec)
                mag = rng.uniform(0.0, 5.0)
                ang = rng.uniform(0.0, 2.0 * math.pi)
                ds = (mag * math.cos(ang), mag * math.sin(ang))
                a = hard_scale_factor(s, ds, spec)
                oracle = bisect_scale_factor(s, ds, spec)
                assert abs(a - oracle) < 1e-9
                assert spec.in_hard_set(s[0] + a * ds[0], s[1] + a * ds[1], tol=1e-9)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c04_soft_projection_cases_and_idempotence():
    with criterion(4, "soft projection: seven worked cases + exact idempotence"):
        spec = ConstraintSpec(eps_soft=0.5, eps_hard=0.25, r_soft=2.5, r_hard=2.75)
        for s_in, s_out in SEVEN_CASES:
            got = project_scaling(s_in[0], s_in[1], spec)
            assert got == pytest.approx(s_out, abs=1e-4), f"{s_in} -> {got}"
        rng = np.random.default_rng(4)
        for _ in range(20000):
            s = rng.uniform(1e-3, 6.0, 2)
            once = project_scaling(s[0], s[1], spec)
            assert project_scaling(once[0], once[1], spec) == once


def test_c05_hard_scaling_worked_example():
    with criterion(5, "hard-constraint scaling worked example"):
        spec = ConstraintSpec(eps_soft=0.5, eps_hard=0.25, r_soft=2.5, r_hard=2.75)
        a = hard_scale_factor((1.3, 1.7), (0.4, 0.8), spec)
        assert a == pytest.approx(0.6915, abs=5e-4)
        endpoint = (1.3 + a * 0.4, 1.7 + a * 0.8)
        assert endpoint == pytest.approx((1.5766, 2.2532), abs=1e-3)


def test_c06_consensus_contraction():
    with criterion(6, "consensus contraction and mean conservation"):
        n, dt, lam, t_final = 9, 1e-3, 32.0, 9.0
        grid = unit_grid(3)
        rng = np.random.default_rng(6)
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
            PlannerState(
                eta=etas[i],
                slot=grid.slots[i],
                gains=PlannerGains(lam=lam, mu=0.0, k_fb=0.0),
                constraints=ConstraintSpec(),
            )
            for i in range(n)
        ]
        positions = np.array(
            [apply_transform(states[i].eta, grid.slots[i]) for i in range(n)]
        )
        n_ticks = round(t_final / dt)
        prev_spread = None
        for _ in range(n_ticks):
            nbrs = build_graph(positions, r_c=10.0)
            degrees = [len(ids) for ids in neighbor_tuples(nbrs)]
            assert lam * dt * max(degrees) < 1.0
            assert all(d > 0 for d in degrees)  # stays connected
            current = [st.eta for st in states]
            arr = np.array([e.as_array() for e in current])
            spread = arr.max(axis=0) - arr.min(axis=0)
            if prev_spread is not None:
                assert np.all(spread <= prev_spread + 1e-12)
            prev_spread = spread
            mean = arr.mean(axis=0)
            received = exchange(nbrs, current)
            v_cmds = np.empty((n, 2))
            for i in range(n):
                res = plan_tick(states[i], (0.0, 0.0), received[i], positions[i], dt)
                v_cmds[i] = res.v_cmd
                states[i].eta = res.eta_next
            positions = step_world(positions, v_cmds, dt)
            new_mean = np.array([st.eta.as_array() for st in states]).mean(axis=0)
            assert np.abs(new_mean - mean).max() <= 1e-9
        assert prev_spread.max() < 1e-6, f"final spread {prev_spread}"


def test_c07_whole_run_safety_across_gain_grids(run_cache):
    with criterion(7, "hard-set safety + wall-clock across all gain grids"):
        combos = (
            [(lam, 20.0, 2.0, 0.0) for lam in LAMBDA_GRID]
            + [(32.0, mu, 2.0, 0.0) for mu in MU_GRID]
            + [(32.0, 20.0, k, NOISE_SIGMA) for k in K_GRID]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PenetrationWarning)
            for lam, mu, k_fb, noise in combos:
                entry = run_cache.get(lam=lam, mu=mu, k_fb=k_fb, noise=noise)
                m = entry.metrics
                assert m.hard_violation_count == 0, (lam, mu, k_fb, noise)
                assert m.min_obstacle_clearance > 0.0, (lam, mu, k_fb, noise)
                assert entry.wall_time < WALL_CLOCK_LIMIT, (
                    f"run {(lam, mu, k_fb)} took {entry.wall_time:.1f}s"
                )
            bound = [run_cache.bundled(BOUND_FILE, mu) for mu in MU_GRID]
            for mu, entry in zip(MU_GRID, bound):
                assert entry.metrics.hard_violation_count == 0, (BOUND_FILE, mu)
                assert entry.wall_time < WALL_CLOCK_LIMIT, (BOUND_FILE, mu)
            # The hard clamp acts, so the safety check is not vacuous there.
            assert any(e.log.a_s.min() < 1.0 for e in bound), BOUND_FILE


def test_c08_disagreement_monotone_in_lambda(run_cache):
    with criterion(8, "time-averaged disagreement non-increasing in lambda"):
        averages = [
            run_cache.get(lam=lam, mu=20.0, k_fb=2.0).metrics.time_avg_disagreement()
            for lam in LAMBDA_GRID
        ]
        for lo, hi in zip(averages[1:], averages[:-1]):
            assert lo <= hi, f"averages not monotone: {averages}"


def test_c09_soft_distance_monotone_in_mu(run_cache):
    with criterion(9, "time-averaged soft-set distance non-increasing in mu"):
        averages = [
            run_cache.get(lam=32.0, mu=mu, k_fb=2.0).metrics.time_avg_soft_distance()
            for mu in MU_GRID
        ]
        for lo, hi in zip(averages[1:], averages[:-1]):
            assert lo <= hi, f"averages not monotone: {averages}"
        # The reference run never leaves the soft set (all averages are 0),
        # so the bound scenario is where the soft pull has to show.
        bound = [
            run_cache.bundled(BOUND_FILE, mu).metrics.time_avg_soft_distance()
            for mu in MU_GRID
        ]
        for lo, hi in zip(bound[1:], bound[:-1]):
            assert lo <= hi, f"{BOUND_FILE} averages not monotone: {bound}"
        assert bound[0] > 0.0, f"{BOUND_FILE} never leaves the soft set"
        assert bound[-1] < bound[0], f"mu has no effect on {BOUND_FILE}: {bound}"


def test_c10_feedback_ablation_under_noise(run_cache):
    with criterion(10, "perturbation rejection ablation (k_fb 0 vs 2)"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PenetrationWarning)
            err_k0 = run_cache.get(
                lam=32.0, mu=20.0, k_fb=0.0, noise=NOISE_SIGMA
            ).metrics.final_formation_error()
            err_k2 = run_cache.get(
                lam=32.0, mu=20.0, k_fb=2.0, noise=NOISE_SIGMA
            ).metrics.final_formation_error()
        assert err_k2 < err_k0, f"k_fb=2 gave {err_k2}, k_fb=0 gave {err_k0}"
        assert err_k2 < 0.05, f"k_fb=2 final error {err_k2}"


def test_c11_per_step_runtime():
    with criterion(11, "per-step run-time statistics"):
        scenario = replace(reference_scenario(), t_final=0.5)
        report = bench(scenario, warmup_iters=2000, measured_iters=20000,
                       max_samples=256)
        print()
        print(report.format_table())
        assert tuple(report.steps) == STEP_NAMES
        for stats in report.steps.values():
            assert stats.min <= stats.median <= stats.max
            assert stats.min <= stats.mean <= stats.max
            assert stats.variance >= 0.0
        assert report.steps["complete method"].mean < 1e-3


def test_c12_csv_byte_determinism(tmp_path, run_cache):
    with criterion(12, "byte-identical CSV across identical runs"):
        cached = run_cache.get(lam=32.0, mu=20.0, k_fb=2.0)
        log_again, _ = run(cached.scenario)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_csv(cached.log, a)
        export_csv(log_again, b)
        assert a.read_bytes() == b.read_bytes()
        n_rows = cached.scenario.n_robots * cached.scenario.n_ticks
        assert len(a.read_text().splitlines()) == 1 + n_rows
