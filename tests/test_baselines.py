import math

import numpy as np
import pytest

from racecma import (
    CalibrationError,
    IpnConfig,
    IsacObjective,
    SpsaSchedule,
    SyntheticObjective,
    ThresholdVector,
    ipn_optimize,
    map_calibrate,
    map_thresholds,
    posterior_crossing,
    spsa_gradient,
    spsa_optimize,
)
from racecma.baselines import _barrier_value, fit_density_model, project_thresholds
from racecma.seeding import rng_from


def sphere(x):
    return float(np.sum(np.asarray(x, float) ** 2))


class TestMap:
    def test_symmetric_gaussians_cross_midway(self):
        rng = rng_from("map-sym")
        low = rng.normal(0.0, 1.0, 20_000)
        high = rng.normal(2.0, 1.0, 20_000)
        crossing = posterior_crossing(low, high, priors=(0.5, 0.5))
        assert crossing == pytest.approx(1.0, abs=0.03)

    def test_unequal_priors_shift_crossing(self):
        # The lopsided prior pushes the boundary past the midpoint; the 0.02
        # accuracy bar lives in the acceptance suite on its pinned draw.
        rng = rng_from("map-priors")
        low = rng.normal(0.0, 1.0, 9000)
        high = rng.normal(2.0, 1.0, 1000)
        crossing = posterior_crossing(low, high, priors=(0.9, 0.1))
        assert crossing == pytest.approx(1.0 + math.log(9.0) / 2.0, abs=0.05)
        assert crossing > 1.8

    def test_three_separated_states_give_feasible_thresholds(self):
        rng = rng_from("map-three")
        samples = {
            0: rng.normal(0.0, 0.6, 4000),
            1: rng.normal(2.0, 0.7, 3000),
            2: rng.normal(4.5, 0.8, 2000),
            3: rng.normal(7.5, 1.0, 1000),
        }
        t = map_thresholds(samples, min_spacing=0.1)
        assert t.t1 + 0.1 <= t.t2 and t.t2 + 0.1 <= t.t3
        assert 0.0 < t.t1 < 2.0 < t.t2 < 4.5 < t.t3 < 7.5

    def test_crossing_matches_dense_grid_argmin(self):
        rng = rng_from("map-grid")
        samples = {0: rng.normal(1.0, 0.5, 5000), 1: rng.normal(3.0, 1.1, 5000)}
        model = fit_density_model(samples)
        crossing = posterior_crossing(samples[0], samples[1])
        grid = np.linspace(1.0, 3.0, 200_001)
        diff = np.abs(
            np.array([model.log_posterior(x, 0) - model.log_posterior(x, 1) for x in grid])
        )
        assert crossing == pytest.approx(float(grid[np.argmin(diff)]), abs=2e-5)

    def test_deterministic_given_samples(self):
        rng = rng_from("map-det")
        samples = {i: rng.normal(2.0 * i, 0.5, 500) for i in range(4)}
        assert map_thresholds(samples) == map_thresholds(samples)

    def test_unordered_means_rejected(self):
        rng = rng_from("map-bad")
        samples = {
            0: rng.normal(3.0, 0.5, 100),
            1: rng.normal(1.0, 0.5, 100),
            2: rng.normal(5.0, 0.5, 100),
            3: rng.normal(7.0, 0.5, 100),
        }
        with pytest.raises(CalibrationError):
            map_thresholds(samples)

    def test_insufficient_samples_rejected(self):
        samples = {0: np.zeros(5), 1: np.ones(5), 2: np.full(5, 2.0), 3: np.full(5, 3.0)}
        with pytest.raises(CalibrationError):
            map_thresholds(samples, min_samples=30)

    def test_map_calibrate_charges_episodes(self, desk):
        objective = IsacObjective(desk)
        t = map_calibrate(objective, seed=3, episodes=3, min_samples=5)
        assert objective.ledger.n_eq == 3.0
        assert t.t1 <= t.t2 <= t.t3


class TestIpn:
    def test_quadratic_oracle_converges(self):
        target = np.array([3.0, 5.0, 7.0])
        obj = SyntheticObjective(lambda x: sphere(x - target))
        config = IpnConfig(outer_rounds=8, newton_iters=2, barrier_init=1.0)
        result = ipn_optimize(obj, ThresholdVector(2.0, 4.0, 6.0), config,
                              budget=300.0, seed=0)
        assert np.max(np.abs(result.best_point.as_array() - target)) < 1e-4

    def test_unit_gap_barrier_is_zero(self):
        assert _barrier_value(np.array([1.0, 2.0, 3.0])) == 0.0
        assert _barrier_value(np.array([1.0, 1.0, 3.0])) == math.inf

    def test_one_stencil_costs_seven(self):
        obj = SyntheticObjective(sphere)
        ipn_optimize(obj, ThresholdVector(1.0, 2.0, 3.0), IpnConfig(), budget=7.0, seed=1)
        assert obj.ledger.n_eq == 7.0

    def test_iterates_stay_strictly_feasible(self):
        obj = SyntheticObjective(lambda x: sphere(x - np.array([1.0, 1.1, 1.2])))
        result = ipn_optimize(obj, ThresholdVector(0.5, 1.5, 2.5), IpnConfig(),
                              budget=200.0, seed=2)
        for rec in result.history:
            assert rec.point[1] > rec.point[0] and rec.point[2] > rec.point[1]

    def test_infeasible_start_rejected(self):
        obj = SyntheticObjective(sphere)
        with pytest.raises(ValueError):
            ipn_optimize(obj, ThresholdVector(2.0, 2.0, 3.0), IpnConfig(), 50.0, 0)


class TestSpsaGradient:
    def test_hand_computed_estimate_on_quadratic(self):
        obj = SyntheticObjective(sphere)
        g = spsa_gradient(obj, np.array([1.0, 1.0, 1.0]), 0.1,
                          np.array([1.0, -1.0, 1.0]), seed=0)
        assert g == pytest.approx([2.0, -2.0, 2.0], abs=1e-12)
        assert obj.ledger.n_eq == 2.0

    def test_average_over_all_sign_patterns_is_exact(self):
        obj = SyntheticObjective(sphere)
        total = np.zeros(3)
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                for sz in (-1.0, 1.0):
                    total += spsa_gradient(obj, np.ones(3), 0.1,
                                           np.array([sx, sy, sz]), seed=0)
        assert np.max(np.abs(total / 8.0 - 2.0)) < 1e-12

    def test_linear_function_exact_for_any_pattern(self):
        # The two-point difference has no curvature error on a linear
        # function: g_i * delta_i reproduces grad . delta for every pattern,
        # and the pattern average recovers the gradient itself exactly.
        grad_true = np.array([2.0, -3.0, 0.5])
        obj = SyntheticObjective(lambda x: float(np.dot(grad_true, x)))
        total = np.zeros(3)
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                for sz in (-1.0, 1.0):
                    delta = np.array([sx, sy, sz])
                    g = spsa_gradient(obj, np.array([0.0, 1.0, 2.0]), 0.2, delta, seed=0)
                    assert g * delta == pytest.approx([grad_true @ delta] * 3, abs=1e-12)
                    total += g
        assert total / 8.0 == pytest.approx(grad_true, abs=1e-12)

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            spsa_gradient(SyntheticObjective(sphere), np.ones(3), 0.1,
                          np.array([1.0, 0.0, 1.0]), seed=0)


class TestSpsaOptimize:
    def test_projection_sorts_then_spaces(self):
        out = project_thresholds(np.array([4.0, 3.9, 7.0]), 0.1)
        assert out == pytest.approx([3.9, 4.0, 7.0])
        out = project_thresholds(np.array([2.0, 2.0, 2.0]), 0.5)
        assert out == pytest.approx([2.0, 2.5, 3.0])

    def test_budget_twenty_gives_ten_iterations(self):
        obj = SyntheticObjective(sphere)
        spsa_optimize(obj, ThresholdVector(1.0, 2.0, 3.0), SpsaSchedule(),
                      budget=20.0, seed=0)
        assert obj.ledger.n_eq == 20.0

    def test_noiseless_quadratic_oracle(self):
        target = np.array([2.0, 3.0, 4.0])
        errors = []
        for seed in range(20):
            obj = SyntheticObjective(lambda x: sphere(x - target))
            result = spsa_optimize(obj, ThresholdVector(1.0, 2.0, 3.0), SpsaSchedule(),
                                   budget=200.0, seed=seed)
            errors.append(float(np.max(np.abs(result.best_point.as_array() - target))))
        assert float(np.median(errors)) < 0.1

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SpsaSchedule(alpha=0.4)
        with pytest.raises(ValueError):
            SpsaSchedule(gamma=0.6)
        sched = SpsaSchedule()
        assert sched.gain(0) < sched.a
        assert sched.perturbation(10) < sched.c
