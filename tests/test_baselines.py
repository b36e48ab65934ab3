import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racecma import baselines as baselines_mod
from racecma import (
    IsacObjective,
    ipn_optimize,
    map_calibrate,
    run_episodes,
    spsa_optimize,
)
from racecma.bench import ExperimentSpec, run_method
from racecma.baselines import (
    CalibrationError,
    HypothesisDensityModel,
    IpnConfig,
    SpsaSchedule,
    _barrier_value,
    _linear_quantiles,
    fit_density_model,
    map_thresholds,
    posterior_crossing,
    project_thresholds,
    spsa_gradient,
)
from racecma.objective import SyntheticObjective
from racecma.seeding import rng_from


def sphere(x):
    return float(np.sum(np.asarray(x, float) ** 2))


# Sample values: signed zeros and small ties beside general floats.
_QUANTILE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.integers(-12, 12).map(lambda k: k / 4),
    st.floats(-1e6, 1e6).map(lambda v: round(v, 1)),
    st.floats(-1e300, 1e300),
)
_QUANTILE_LEVELS = st.one_of(
    st.just([0.5, 0.75, 0.9]),  # MAP's
    st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=5),
)


@st.composite
def quantile_samples(draw):
    """1-500 values drawn from a pool of at most eight, so most repeat, and
    a share of them replaced by unrounded normals. Drawing each value
    through hypothesis makes the test about ten times slower."""
    pool = np.array(draw(st.lists(_QUANTILE_VALUES, min_size=1, max_size=8)))
    n = draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice(pool, size=n)
    share = draw(st.sampled_from([0.0, 0.0, 0.1, 1.0]))
    return np.where(rng.random(n) < share, rng.normal(0.0, 3.0, n), x)


class TestLinearQuantiles:
    """MAP's quantiles are numpy's default linear ones, to the bit, so its
    thresholds do not depend on whether numpy's own code runs."""

    @settings(max_examples=500, deadline=None)
    @given(x=quantile_samples(), q=_QUANTILE_LEVELS)
    def test_equals_numpys_quantile_bit_for_bit(self, x, q):
        assert _linear_quantiles(x, q).tobytes() == np.quantile(x, q).tobytes()

    def test_signed_zeros_keep_numpys_signs(self):
        x = np.array([-0.0, 0.0, -0.0])
        for q in ([0.0], [0.5], [1.0], [0.5, 0.75, 0.9]):
            assert _linear_quantiles(x, q).tobytes() == np.quantile(x, q).tobytes()

    def test_leaves_its_input_as_it_was(self):
        x = np.array([3.0, 1.0, 2.0])
        _linear_quantiles(x, [0.5])
        assert x.tolist() == [3.0, 1.0, 2.0]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            _linear_quantiles(np.array([]), [0.5, 0.75, 0.9])


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
        t1, t2, t3 = map_thresholds(samples, min_spacing=0.1)
        assert t1 + 0.1 <= t2 and t2 + 0.1 <= t3
        assert 0.0 < t1 < 2.0 < t2 < 4.5 < t3 < 7.5

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
        assert np.array_equal(map_thresholds(samples), map_thresholds(samples))

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

    def test_map_calibrate_charges_episodes(self, desk, monkeypatch):
        calls = []

        def logged(scenario, triples, seeds, *args):
            calls.append(list(seeds))
            return run_episodes(scenario, triples, seeds, *args)

        monkeypatch.setattr(baselines_mod, "run_episodes", logged)
        objective = IsacObjective(desk)
        t = map_calibrate(objective, seed=3, episodes=3, min_samples=5)
        assert objective.ledger.n_eq == 3.0
        # One call over the three calibration episodes, each on its own seed.
        assert len(calls) == 1 and len(set(calls[0])) == 3
        assert t.dtype == float and t.shape == (3,)
        assert t[0] <= t[1] <= t[2]

    def test_map_calibrate_rejects_non_finite_echo_strengths(self, desk, monkeypatch):
        # ScenarioConfig rejects the geometries whose phase ramps overflow to
        # nan echo strengths (a BS 1e300 m away, say), so the nan is injected.
        def nan_episodes(*args, **kwargs):
            return [replace(trace, resi=np.full(trace.horizon, np.nan))
                    for trace in run_episodes(*args, **kwargs)]

        monkeypatch.setattr(baselines_mod, "run_episodes", nan_episodes)
        objective = IsacObjective(desk)
        with pytest.raises(CalibrationError, match="must be finite"):
            map_calibrate(objective, seed=3, episodes=1, min_samples=1)

    @pytest.mark.parametrize("episodes, spacing, message", [
        (0, 0.1, "episodes must be >= 1"),
        (-1, 0.1, "episodes must be >= 1"),
        (1, math.nan, "min_spacing must be positive"),
        (1, -0.1, "min_spacing must be positive"),
    ])
    def test_map_calibrate_rejects_before_any_episode(self, desk, monkeypatch, episodes,
                                                      spacing, message):
        calls = []
        monkeypatch.setattr(baselines_mod, "run_episodes", lambda *args: calls.append(args))
        objective = IsacObjective(desk)
        with pytest.raises(ValueError, match=message):
            map_calibrate(objective, seed=3, episodes=episodes, min_spacing=spacing)
        assert calls == [] and objective.ledger.n_eq == 0.0

    @pytest.mark.parametrize("spacing", [math.nan, 0.0, -0.1])
    def test_map_thresholds_rejects_a_spacing_that_is_not_positive(self, spacing):
        samples = {i: np.array([2.0 * i, 2.0 * i + 1.0]) for i in range(4)}
        with pytest.raises(ValueError, match="min_spacing must be positive"):
            map_thresholds(samples, spacing, min_samples=2)

    def test_a_one_sample_state_is_named(self):
        samples = {0: np.array([0.0, 1.0]), 1: np.array([2.0]), 2: np.array([4.0, 5.0])}
        with pytest.raises(CalibrationError, match="state 1 has 1 calibration sample"):
            fit_density_model(samples, min_samples=1)

    @pytest.mark.parametrize("stds, priors, message", [
        ((1.0, math.nan), (0.5, 0.5), "stds must be positive"),
        ((1.0, 1.0), (0.5, math.nan), "priors must sum to 1"),
    ])
    def test_model_rejects_nan_spreads_and_priors(self, stds, priors, message):
        with pytest.raises(ValueError, match=message):
            HypothesisDensityModel(means=(0.0, 1.0), stds=stds, priors=priors)

    @pytest.mark.parametrize("min_samples", [1, 2])
    def test_a_one_sample_state_falls_back_to_the_start(self, desk, monkeypatch, min_samples):
        # 95 zeros and five spread values: the provisional thresholds sit at
        # (0, 0.1, 0.2), so states 1 and 2 get two samples each and state 3
        # one, which no spread can be fitted to. At either minimum the MAP
        # row is the start point and the calibration episode's charge.
        def spread_episodes(scenario, triples, seeds, *args):
            [trace] = run_episodes(scenario, triples, seeds, *args)
            resi = np.zeros(trace.horizon)
            resi[:5] = (0.05, 0.05, 0.15, 0.15, 1.0)
            return [replace(trace, resi=resi)]

        monkeypatch.setattr(baselines_mod, "run_episodes", spread_episodes)
        spec = ExperimentSpec(scenario=desk, methods=("MAP",), map_episodes=1,
                              map_min_samples=min_samples)
        t0 = np.array([1.0, 2.0, 3.0])
        run = run_method("MAP", desk, spec, t0, seed=3)
        assert run.best_point is t0 and run.n_eq == 1.0


class TestIpn:
    def test_quadratic_oracle_converges(self):
        target = np.array([3.0, 5.0, 7.0])
        obj = SyntheticObjective(lambda x: sphere(x - target))
        config = IpnConfig(outer_rounds=8, newton_iters=2, barrier_init=1.0)
        result = ipn_optimize(obj, np.array([2.0, 4.0, 6.0]), config,
                              budget=300.0, seed=0)
        assert np.max(np.abs(result.best_point - target)) < 1e-4

    def test_unit_gap_barrier_is_zero(self):
        assert _barrier_value(np.array([1.0, 2.0, 3.0])) == 0.0
        assert _barrier_value(np.array([1.0, 1.0, 3.0])) == math.inf

    def test_one_stencil_costs_seven(self):
        obj = SyntheticObjective(sphere)
        ipn_optimize(obj, np.array([1.0, 2.0, 3.0]), IpnConfig(), budget=7.0, seed=1)
        assert obj.ledger.n_eq == 7.0

    def test_iterates_stay_strictly_feasible(self):
        obj = SyntheticObjective(lambda x: sphere(x - np.array([1.0, 1.1, 1.2])))
        result = ipn_optimize(obj, np.array([0.5, 1.5, 2.5]), IpnConfig(),
                              budget=200.0, seed=2)
        for rec in result.history:
            assert rec.point[1] > rec.point[0] and rec.point[2] > rec.point[1]

    def test_stencil_wider_than_a_gap_stays_ordered(self, desk):
        # fd_step 0.5 moves t1 past t2 = t1 + 0.1; the episode's classifier
        # rejects an unordered probe, so the stencil must sort its points.
        obj = IsacObjective(desk)
        ipn_optimize(obj, np.array([0.5, 0.6, 2.0]), IpnConfig(fd_step=0.5), 7.0, 1)
        assert obj.ledger.n_eq == 7.0

    def test_infeasible_start_rejected(self):
        obj = SyntheticObjective(sphere)
        with pytest.raises(ValueError):
            ipn_optimize(obj, np.array([2.0, 2.0, 3.0]), IpnConfig(), 50.0, 0)

    @pytest.mark.parametrize("t0", [[math.nan, 1.0, 2.0], [0.0, 1.0, math.inf],
                                    [-math.inf, 1.0, 2.0]])
    def test_non_finite_start_rejected_before_any_charge(self, t0):
        obj = SyntheticObjective(sphere)
        with pytest.raises(ValueError, match="initial point must be finite"):
            ipn_optimize(obj, np.array(t0), IpnConfig(), 20.0, 0)
        assert obj.ledger.n_eq == 0.0

    def test_schedule_holds_only_the_steps_taken(self):
        # Far more Newton steps than any budget pays for, none built ahead.
        obj = SyntheticObjective(sphere)
        ipn_optimize(obj, np.array([1.0, 2.0, 3.0]), IpnConfig(newton_iters=10**15), 7.0, 1)
        assert obj.ledger.n_eq == 7.0

    def test_overflowing_stencil_stops_the_descent(self):
        # Costs near 1e308 overflow the second differences: with no finite
        # Hessian there is no ridge that makes the solve definite.
        obj = SyntheticObjective(lambda x: 1e307 * sphere(x))
        result = ipn_optimize(obj, np.array([1.0, 2.0, 3.0]), IpnConfig(), 50.0, 0)
        assert obj.ledger.n_eq == 7.0
        assert result.history == []


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

    @pytest.mark.parametrize("spacing", [math.nan, 0.0, -0.1])
    def test_a_spacing_that_is_not_positive_rejected(self, spacing):
        # max(x, x + nan) is x: a nan spacing would be silently ignored.
        with pytest.raises(ValueError, match="min_spacing must be positive"):
            project_thresholds(np.array([2.0, 2.0, 2.0]), spacing)
        obj = SyntheticObjective(sphere)
        with pytest.raises(ValueError, match="min_spacing must be positive"):
            spsa_optimize(obj, np.array([1.0, 2.0, 3.0]), budget=20.0, min_spacing=spacing)
        assert obj.ledger.n_eq == 0.0

    @pytest.mark.parametrize("t0", [[math.nan, 1.0, 2.0], [0.0, 1.0, math.inf]])
    def test_non_finite_start_rejected_before_any_charge(self, t0):
        obj = SyntheticObjective(sphere)
        with pytest.raises(ValueError, match="initial point must be finite"):
            spsa_optimize(obj, np.array(t0), budget=20.0)
        assert obj.ledger.n_eq == 0.0

    def test_budget_twenty_gives_ten_iterations(self):
        obj = SyntheticObjective(sphere)
        spsa_optimize(obj, np.array([1.0, 2.0, 3.0]), SpsaSchedule(),
                      budget=20.0, seed=0)
        assert obj.ledger.n_eq == 20.0

    def test_noiseless_quadratic_oracle(self):
        target = np.array([2.0, 3.0, 4.0])
        errors = []
        for seed in range(20):
            obj = SyntheticObjective(lambda x: sphere(x - target))
            result = spsa_optimize(obj, np.array([1.0, 2.0, 3.0]), SpsaSchedule(),
                                   budget=200.0, seed=seed)
            errors.append(float(np.max(np.abs(result.best_point - target))))
        assert float(np.median(errors)) < 0.1

    def test_overflowing_step_keeps_the_last_finite_iterate(self):
        obj = SyntheticObjective(lambda x: 1e300 * sphere(x))
        result = spsa_optimize(obj, np.array([1.0, 2.0, 3.0]), SpsaSchedule(a=1e300),
                               budget=20.0, seed=0)
        assert obj.ledger.n_eq == 2.0
        assert result.best_point.tolist() == [1.0, 2.0, 3.0]

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SpsaSchedule(alpha=0.4)
        with pytest.raises(ValueError):
            SpsaSchedule(gamma=0.6)
        sched = SpsaSchedule()
        assert sched.gain(0) < sched.a
        assert sched.perturbation(10) < sched.c
