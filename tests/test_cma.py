import math

import numpy as np
import pytest

from racecma import cma_optimize, default_params
from racecma.cma import CmaParams, CmaState, init_state, sample_population, update
from racecma.objective import SyntheticObjective
from racecma.seeding import derive_seed, rng_from


def sphere(x):
    return float(np.sum(x * x))


class TestDefaultParams:
    def test_expected_norm_constant(self):
        assert default_params(3, 12).chi_n == pytest.approx(1.5969, abs=2e-4)

    def test_parent_count_is_half_population(self):
        assert default_params(3, 12).mu == 6

    def test_effective_mass_of_log_weights(self):
        assert default_params(3, 12).mu_eff == pytest.approx(3.73, abs=0.01)

    def test_weights_normalized_decreasing(self):
        p = default_params(5, 20)
        assert p.weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p.weights) <= 0)
        assert p.c_1 + p.c_mu <= 1.0

    def test_small_population_rejected(self):
        with pytest.raises(ValueError):
            default_params(3, 1)


class TestSampling:
    def test_identity_covariance_draws_standard_normal(self):
        params = default_params(3, 5000)
        state = init_state(np.zeros(3), 1.0)
        z, points = sample_population(state, params, seed=1)
        assert np.all(np.abs(points.mean(axis=0)) < 0.1)
        assert np.all(np.abs(points.std(axis=0) - 1.0) < 0.1)
        assert np.allclose(z, points)  # identity root, zero mean, unit sigma

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            CmaState(mean=np.zeros(2), sigma=0.0, cov=np.eye(2),
                     path_sigma=np.zeros(2), path_cov=np.zeros(2))

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            CmaState(mean=np.zeros(2), sigma=1.0, cov=cov,
                     path_sigma=np.zeros(2), path_cov=np.zeros(2))

    def test_sampling_is_affine_in_draws(self):
        state = init_state(np.array([1.0, -2.0]), 0.5)
        params = default_params(2, 4)
        z, points = sample_population(state, params, seed=9)
        assert np.allclose(points, state.mean + state.sigma * z)


class TestUpdate:
    def test_single_parent_moves_mean_to_winner(self):
        params = CmaParams(
            lam=4, mu=1, weights=np.array([1.0]), mu_eff=1.0,
            c_sigma=0.3, d_sigma=1.3, c_c=0.4, c_1=0.1, c_mu=0.2, chi_n=1.25,
        )
        state = init_state(np.zeros(2), 1.0)
        winner = np.array([[0.7, -0.2]])
        new = update(state, params, winner)
        assert np.allclose(new.mean, winner[0])
        assert new.generation == 1

    def test_step_size_fixed_point_at_expected_norm(self):
        params = CmaParams(
            lam=4, mu=1, weights=np.array([1.0]), mu_eff=1.0,
            c_sigma=0.3, d_sigma=1.3, c_c=0.4, c_1=0.0, c_mu=0.0, chi_n=1.2533,
        )
        state = init_state(np.zeros(2), 1.0)
        # Step chosen so the fresh path norm lands exactly on chi_n.
        scale = params.chi_n / math.sqrt(params.c_sigma * (2 - params.c_sigma))
        step = np.array([[scale, 0.0]])
        new = update(state, params, step)
        assert new.sigma == pytest.approx(1.0, rel=1e-12)

    def test_zero_learning_rates_freeze_covariance(self):
        params = CmaParams(
            lam=6, mu=2, weights=np.array([0.6, 0.4]), mu_eff=1.9,
            c_sigma=0.3, d_sigma=1.3, c_c=0.4, c_1=0.0, c_mu=0.0, chi_n=1.25,
        )
        state = init_state(np.zeros(2), 1.0)
        pts = np.array([[0.5, 0.1], [-0.3, 0.2]])
        assert np.array_equal(update(state, params, pts).cov, state.cov)

    def test_wrong_parent_count_rejected(self):
        params = default_params(2, 6)
        state = init_state(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            update(state, params, np.zeros((params.mu + 1, 2)))


class TestOptimize:
    def test_sphere_oracle(self):
        # Reference sanity run: reaches 1e-6 well within a 600-evaluation
        # budget from a unit-step start at (2, 2, 2); median over 20 seeds.
        params = default_params(3, 12)
        finals = [
            cma_optimize(
                SyntheticObjective(sphere), params, (np.full(3, 2.0), 1.0), 600.0, seed
            ).best_cost
            for seed in range(20)
        ]
        assert float(np.median(finals)) < 1e-6

    def test_budget_counts_whole_generations(self):
        params = default_params(3, 12)
        obj = SyntheticObjective(sphere)
        result = cma_optimize(obj, params, (np.full(3, 2.0), 1.0), 12.0, seed=0)
        assert len(result.history) == 1
        assert result.n_eq == 12.0
        assert obj.ledger.n_eq == 12.0

    def test_deterministic_history(self):
        params = default_params(3, 8)
        a = cma_optimize(SyntheticObjective(sphere), params, (np.full(3, 2.0), 1.0), 80.0, 5)
        b = cma_optimize(SyntheticObjective(sphere), params, (np.full(3, 2.0), 1.0), 80.0, 5)
        assert a.history == b.history

    def test_generation_cap(self):
        params = default_params(3, 8)
        result = cma_optimize(
            SyntheticObjective(sphere), params, (np.full(3, 2.0), 1.0), 1e6, 5,
            max_generations=4,
        )
        assert len(result.history) == 4


class TestInvariants:
    def test_covariance_stays_symmetric_pd(self):
        params = default_params(3, 10)
        state = init_state(np.zeros(3), 1.0)
        rng = rng_from("pd-unit")
        for i in range(30):
            _, pts = sample_population(state, params, derive_seed("pd-unit", i))
            order = np.argsort(rng.standard_normal(10), kind="stable")
            state = update(state, params, pts[order[: params.mu]])
            assert np.array_equal(state.cov, state.cov.T)
            assert np.min(np.linalg.eigvalsh(state.cov)) > 0

    def test_rank_only_dependence(self):
        params = default_params(3, 8)
        init = (np.full(3, 2.0), 1.0)
        base = cma_optimize(SyntheticObjective(sphere), params, init, 1e9, 7,
                            max_generations=6)
        squashed = cma_optimize(
            SyntheticObjective(lambda x: math.tanh(sphere(x)) * 3.0 + 1.0),
            params, init, 1e9, 7, max_generations=6,
        )
        for a, b in zip(base.history, squashed.history):
            assert a.mean == b.mean and a.sigma == b.sigma

    def test_translation_equivariance(self):
        params = default_params(3, 8)
        shift = np.array([1.0, -2.0, 0.5])
        base = cma_optimize(SyntheticObjective(sphere), params, (np.full(3, 2.0), 1.0),
                            1e9, 11, max_generations=8)
        moved = cma_optimize(
            SyntheticObjective(lambda x: sphere(x - shift)), params,
            (np.full(3, 2.0) + shift, 1.0), 1e9, 11, max_generations=8,
        )
        for a, b in zip(base.history, moved.history):
            assert np.allclose(np.array(b.mean) - shift, np.array(a.mean),
                               rtol=1e-12, atol=1e-12)

    def test_step_size_stationary_under_random_ranking(self):
        # Selection carries no information: log sigma must stay a bounded
        # random walk (checked at a moderate dimension where the walk
        # variance is small enough for the 3.0 band).
        params = default_params(10, 12)
        violations = 0
        for trial in range(50):
            state = init_state(np.zeros(10), 1.0)
            rng = rng_from("stationary", trial)
            for g in range(200):
                _, pts = sample_population(state, params, derive_seed("st", trial, g))
                order = np.argsort(rng.standard_normal(12), kind="stable")
                state = update(state, params, pts[order[: params.mu]])
            if abs(math.log(state.sigma)) >= 3.0:
                violations += 1
        assert violations <= 2  # 95% of 50 trials stay inside the band
