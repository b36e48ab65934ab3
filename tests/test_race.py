import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from racecma import (
    IsacObjective,
    RacingConfig,
    cma_optimize,
    default_params,
    map_unconstrained,
    race_cma_optimize,
)
from racecma.cma import init_state, sample_population, update
from racecma.objective import RepeatedEstimate, SyntheticObjective, derive_seed_plan
from racecma.race import (
    assemble_ranking,
    inverse_feasible,
    promote,
    stage1_screen,
    stage2_refine,
    structured_sample,
    uncertainty_weights,
)
from racecma import race as race_mod


def sphere(x):
    return float(np.sum(np.asarray(x, float) ** 2))


def unconstrained_inputs(bound: float | None):
    """A 3-vector or an (N, 3) batch of finite values, within +-bound if given."""
    shapes = st.one_of(st.just((3,)), st.tuples(st.integers(1, 16), st.just(3)))
    if bound is None:
        elements = st.floats(allow_nan=False, allow_infinity=False)
    else:
        elements = st.floats(-bound, bound)
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


class TestFeasibleMap:
    def test_softplus_at_zero_gives_log_two_gaps(self):
        t1, t2, t3 = map_unconstrained(np.array([1.0, 0.0, 0.0]), 0.1)
        assert t1 == pytest.approx(1.0)
        assert t2 == pytest.approx(1.0 + 0.1 + math.log(2.0), abs=1e-9)
        assert t3 == pytest.approx(t2 + 0.1 + math.log(2.0), abs=1e-9)

    def test_spacing_holds_for_random_inputs(self, rng):
        u = rng.normal(0.0, 5.0, size=(1000, 3))
        t = map_unconstrained(u, 0.1)
        assert np.all(t[:, 1] - t[:, 0] >= 0.1 - 1e-12)
        assert np.all(t[:, 2] - t[:, 1] >= 0.1 - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(u=unconstrained_inputs(1e3), spacing=st.floats(1e-3, 1.0))
    def test_spacing_holds_for_inputs_up_to_1e3(self, u, spacing):
        t = map_unconstrained(u, spacing)
        assert t.shape == u.shape
        assert np.array_equal(t[..., 0], u[..., 0])
        assert np.all(t[..., 1] - t[..., 0] >= spacing - 1e-12)
        assert np.all(t[..., 2] - t[..., 1] >= spacing - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(u=unconstrained_inputs(None), spacing=st.floats(1e-3, 1.0))
    def test_order_holds_for_every_finite_input(self, u, spacing):
        # Far beyond any echo strength, t1 + spacing rounds to t1 (from about
        # 1e4) and the sums may overflow to inf, but the triple stays ordered.
        with np.errstate(over="ignore"):
            t = map_unconstrained(u, spacing)
        assert not np.any(np.isnan(t))
        assert np.all(t[..., 0] <= t[..., 1]) and np.all(t[..., 1] <= t[..., 2])

    def test_deep_negative_offsets_saturate_at_spacing(self):
        # softplus(-40) = log1p(exp(-40)) ~ 4.248e-18: gap is delta exactly
        # at double precision.
        t1, t2, t3 = map_unconstrained(np.array([0.0, -40.0, -40.0]), 0.1)
        assert abs((t2 - t1) - 0.1) <= 1e-15
        assert abs((t3 - t2) - 0.1) <= 1e-15

    def test_monotone_in_each_coordinate(self):
        base = map_unconstrained(np.array([0.5, 0.2, -0.3]), 0.1)
        for axis in range(3):
            bumped = np.array([0.5, 0.2, -0.3])
            bumped[axis] += 0.01
            out = map_unconstrained(bumped, 0.1)
            assert np.all(out >= base - 1e-15)
            assert out[axis] > base[axis]

    def test_inverse_round_trip(self):
        t = np.array([0.7, 1.4, 2.9])
        u = inverse_feasible(t, 0.1)
        back = map_unconstrained(u, 0.1)
        assert back == pytest.approx(t, rel=1e-9)


class TestStructuredSample:
    def test_mirrored_pairs_interleaved(self):
        state = init_state(np.zeros(3), 1.0)
        z, _ = structured_sample(state, default_params(3, 4), seed=3, mirrored=True)
        assert np.array_equal(z[1], -z[0])
        assert np.array_equal(z[3], -z[2])

    def test_mirrored_draws_sum_to_zero_exactly(self):
        state = init_state(np.zeros(4), 1.0)
        z, _ = structured_sample(state, default_params(4, 8), seed=9, mirrored=True)
        assert np.all(z.sum(axis=0) == 0.0)

    def test_orthogonal_base_block(self):
        state = init_state(np.zeros(3), 1.0)
        z, _ = structured_sample(state, default_params(3, 6), seed=7, mirrored=True)
        base = z[0::2]
        gram = base @ base.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12

    def test_oversized_base_falls_back_to_plain_draws(self):
        # 6 base directions in 3 dimensions cannot be orthogonalized.
        state = init_state(np.zeros(3), 1.0)
        z, _ = structured_sample(state, default_params(3, 12), seed=7, mirrored=True)
        base = z[0::2]
        gram = base @ base.T
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) > 1e-6

    def test_odd_population_rejected(self):
        state = init_state(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            structured_sample(state, default_params(3, 5), seed=1, mirrored=True)

    def test_unmirrored_matches_plain_sampling(self):
        state = init_state(np.array([1.0, 2.0]), 0.5)
        params = default_params(2, 6)
        z_plain, u_plain = sample_population(state, params, seed=11)
        z_struct, u_struct = structured_sample(state, params, seed=11, mirrored=False)
        assert np.array_equal(z_plain, z_struct)
        assert np.array_equal(u_plain, u_struct)


class TestStages:
    def test_stage1_cost_and_crn(self):
        obj = SyntheticObjective(sphere, noise_std=0.1, noise_mode="common")
        plan = derive_seed_plan(1, 0, 1)
        cands = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.5, 0.5])]
        values = stage1_screen(cands, obj, plan, 0.2)
        assert obj.ledger.exact_total == Fraction(3, 5)
        assert values[0] == values[1]  # identical candidates, shared seed

    def test_stage1_screen_twelve_at_fifth_fidelity(self):
        obj = SyntheticObjective(sphere)
        plan = derive_seed_plan(1, 0, 1)
        stage1_screen([np.zeros(2)] * 12, obj, plan, 0.2)
        assert obj.ledger.n_eq == pytest.approx(2.4)
        assert obj.ledger.exact_total == Fraction(12, 5)

    def test_promote_picks_smallest(self):
        assert promote(np.array([3.0, 1.0, 4.0, 2.0]), 2).tolist() == [1, 3]
        assert promote(np.array([3.0, 1.0, 4.0, 2.0]), 4).tolist() == [0, 1, 2, 3]
        assert promote(np.array([2.0, 2.0, 2.0, 2.0]), 2).tolist() == [0, 1]

    def test_promote_floor_keeps_one(self):
        assert RacingConfig(promotion_fraction=0.1).promoted_count(2) == 1
        assert promote(np.array([5.0, 1.0]), 1).tolist() == [1]

    def test_stage2_cost_counting(self):
        obj = SyntheticObjective(sphere)
        plan = derive_seed_plan(1, 0, 1)
        ests = stage2_refine([np.zeros(2)] * 6, obj, plan)
        assert obj.ledger.n_eq == 6.0
        assert obj.ledger.breakdown["stage2"] == (6, 6.0)
        assert all(e.variance is None for e in ests)

    def test_generation_cost_formula(self):
        racing = RacingConfig(promotion_fraction=0.5, fidelity_ratio=0.2, repetitions=1)
        assert racing.generation_cost(12) == pytest.approx(8.4)
        beta = RacingConfig(promotion_fraction=0.5, fidelity_ratio=0.2,
                            truncation=0.8, repetitions=1)
        assert beta.generation_cost(12) == pytest.approx(7.2)

    @pytest.mark.parametrize("make", [
        IsacObjective,
        lambda _scenario: SyntheticObjective(sphere, noise_std=0.1),
    ], ids=["isac", "synthetic"])
    def test_stage2_equals_repeated_evaluation_per_point(self, desk, make):
        plan = derive_seed_plan(3, 1, 3)
        points = [np.array([0.5, 1.0, 1.5]), np.array([1.0, 2.0, 3.0]),
                  np.array([0.5, 1.0, 1.5])]
        batched, looped = make(desk), make(desk)
        estimates = stage2_refine(points, batched, plan, 0.8)
        assert estimates == [
            RepeatedEstimate.of([looped.evaluate_many([p], [s], 0.8, "stage2")[0]
                                 for s in plan.stage2_seeds])
            for p in points
        ]
        assert all(e.repetitions == 3 and e.variance is not None for e in estimates)
        assert batched.ledger.exact_total == looped.ledger.exact_total == Fraction(36, 5)
        assert batched.ledger.breakdown == looped.ledger.breakdown

    def test_deterministic_objective_zero_variance(self):
        obj = SyntheticObjective(sphere)
        plan = derive_seed_plan(1, 0, 3)
        ests = stage2_refine([np.ones(2)], obj, plan)
        assert ests[0].variance == 0.0


class TestAssembleRanking:
    def test_full_promotion_is_pure_stage2(self):
        stage1 = np.array([0.3, 0.1, 0.2])
        costs, variances = assemble_ranking(stage1, np.array([0, 1, 2]), [1.0, 2.0, 3.0],
                                            [0.0, 0.0, 0.0], 1e-8)
        assert costs.tolist() == [1.0, 2.0, 3.0]
        assert variances.tolist() == [0.0, 0.0, 0.0]

    def test_non_promoted_carry_offset_and_worst_variance(self):
        stage1 = np.array([0.5, 0.1, 0.9])
        costs, variances = assemble_ranking(stage1, np.array([1]), [0.2], [0.04], 1e-3)
        assert costs[1] == 0.2
        assert costs[0] == pytest.approx(0.5 + 1e-3)
        assert variances[0] == 0.04 and variances[2] == 0.04

    def test_lucky_screen_can_outrank_but_gets_down_weighted(self):
        # A non-promoted candidate with a better screening value outranks the
        # promoted ones, but inherits the worst promoted variance, so its
        # recombination weight collapses relative to a well-verified elite.
        stage1 = np.array([0.05, 0.3, 0.4])
        costs, variances = assemble_ranking(stage1, np.array([1, 2]), [0.2, 0.35],
                                            [1e-6, 0.5], 0.0)
        order = np.argsort(costs, kind="stable")
        assert order.tolist() == [0, 1, 2]  # the screened value outranks
        assert variances[0] == 0.5  # worst promoted variance inherited
        weights = uncertainty_weights(np.array([0.6, 0.4]), variances[order[:2]], 1e-8)
        assert weights[1] > weights[0]  # the verified candidate dominates

    def test_zero_offset_merges_by_value(self):
        stage1 = np.array([0.5, 0.1])
        costs, _ = assemble_ranking(stage1, np.array([1]), [0.3], [0.0], 0.0)
        assert costs.tolist() == [0.5, 0.3]


class TestUncertaintyWeights:
    def test_equal_variances_return_base_exactly(self):
        w = np.array([0.5, 0.3, 0.2])
        out = uncertainty_weights(w, np.array([2.0, 2.0, 2.0]), 1e-8)
        assert np.array_equal(out, w)

    def test_inverse_variance_arithmetic(self):
        out = uncertainty_weights(np.array([0.5, 0.5]), np.array([1.0, 3.0]), 0.0)
        assert out == pytest.approx([0.75, 0.25])

    def test_huge_variance_collapses_weight(self):
        out = uncertainty_weights(np.array([0.5, 0.5]), np.array([0.0, 1e9]), 1e-8)
        assert out[1] < 1e-12
        assert out.sum() == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_weights(np.array([1.0]), np.array([1.0, 2.0]), 1e-8)


class TestRaceOptimize:
    def test_degenerate_limit_equals_plain_cma(self):
        params = default_params(3, 8)
        racing = RacingConfig(
            promotion_fraction=1.0, fidelity_ratio=1.0, truncation=1.0,
            repetitions=1, mirrored_sampling=False, diagonal_warmup_generations=0,
        )
        init = (np.array([2.0, -1.0, 0.5]), 0.7)
        race = race_cma_optimize(SyntheticObjective(sphere), params, racing, init,
                                 1e9, 17, max_generations=6)
        plain = cma_optimize(SyntheticObjective(sphere), params, init, 48.0, 17,
                             max_generations=6)
        assert [r.mean for r in race.history] == [c.mean for c in plain.history]
        assert [r.sigma for r in race.history] == [c.sigma for c in plain.history]

    def test_ledger_cost_identity_per_generation(self):
        params = default_params(3, 12)
        racing = RacingConfig(promotion_fraction=0.5, fidelity_ratio=0.2, repetitions=1,
                              diagonal_warmup_generations=0, mirrored_sampling=True)
        obj = SyntheticObjective(sphere, noise_std=0.05)
        result = race_cma_optimize(obj, params, racing, (np.full(3, 2.0), 1.0),
                                   1e9, 3, max_generations=10)
        assert obj.ledger.exact_total == Fraction(84)
        assert result.n_eq == 84.0
        assert [rec.ledger_delta for rec in result.history] == [8.4] * 10

    def test_crn_ranking_matches_noiseless_under_common_noise(self):
        params = default_params(3, 12)
        plan = derive_seed_plan(5, 0, 1)
        state = init_state(np.full(3, 1.5), 0.8)
        _, points = structured_sample(state, params, seed=2, mirrored=True)
        noisy = SyntheticObjective(sphere, noise_std=5.0, noise_mode="common")
        clean = SyntheticObjective(sphere)
        noisy_vals = stage1_screen(list(points), noisy, plan, 0.2)
        clean_vals = stage1_screen(list(points), clean, plan, 0.2)
        assert np.array_equal(np.argsort(noisy_vals, kind="stable"),
                              np.argsort(clean_vals, kind="stable"))

    def test_noisy_sphere_cost_advantage(self):
        # Head-to-head on a noisy quadratic: the racing loop reaches the
        # true-cost target with well under 60% of the plain-loop budget.
        params = default_params(3, 12)
        racing = RacingConfig(promotion_fraction=1 / 3, fidelity_ratio=0.1)

        def first_neq_below(history, threshold):
            for rec in history:
                if sphere(np.array(rec.mean)) < threshold:
                    return rec.n_eq
            return math.inf

        ratios = []
        for seed in range(20):
            race = race_cma_optimize(
                SyntheticObjective(sphere, noise_std=0.1), params, racing,
                (np.full(3, 2.0), 1.0), 2000.0, seed, max_generations=200,
            )
            plain = cma_optimize(
                SyntheticObjective(sphere, noise_std=0.1), params,
                (np.full(3, 2.0), 1.0), 2000.0, seed, max_generations=200,
            )
            ratios.append(first_neq_below(race.history, 0.05)
                          / first_neq_below(plain.history, 0.05))
        assert float(np.median(ratios)) <= 0.6

    def test_diagonal_warmup_keeps_covariance_diagonal(self, monkeypatch):
        # Record the covariance each generation samples from and updates.
        covariances = []

        def recording_update(state, *args):
            covariances.append(state.cov)
            return update(state, *args)

        monkeypatch.setattr(race_mod, "update", recording_update)
        params = default_params(3, 12)
        racing = RacingConfig(diagonal_warmup_generations=2)
        obj = SyntheticObjective(lambda x: sphere(x - np.array([1.0, 2.0, 0.5])),
                                 noise_std=0.02)
        race_cma_optimize(obj, params, racing, (np.zeros(3), 1.0), 1e9, 4, max_generations=5)
        off_diagonal = [np.abs(cov - np.diag(np.diag(cov))).max() for cov in covariances]
        # Generations 0-2 start from the initial or a warm-up covariance.
        assert off_diagonal[:3] == [0.0, 0.0, 0.0]
        assert min(off_diagonal[3:]) > 0.0

    def test_reports_track_promotions_and_weights(self):
        params = default_params(3, 12)
        racing = RacingConfig(repetitions=2)
        obj = SyntheticObjective(sphere, noise_std=0.1)
        result = race_cma_optimize(obj, params, racing, (np.full(3, 1.0), 1.0),
                                   1e9, 9, max_generations=2)
        for report in result.history:
            assert len(report.promoted) == racing.promoted_count(params.lam)
            assert len(report.stage1_values) == params.lam
            assert sum(report.effective_weights) == pytest.approx(1.0)

    def test_single_repetition_counts_as_zero_variance(self):
        # One Stage-2 repetition leaves no sample variance: every estimate
        # counts as variance 0, so recombination keeps the base weights.
        # Two repetitions of a noisy objective give real variances.
        params = default_params(3, 12)

        def reports(repetitions):
            obj = SyntheticObjective(sphere, noise_std=0.1)
            result = race_cma_optimize(obj, params, RacingConfig(repetitions=repetitions),
                                       (np.full(3, 1.0), 1.0), 1e9, 9, max_generations=3)
            return result.history

        base = tuple(params.weights)
        single = reports(1)
        assert all(rec.stage2_variances == (0.0,) * len(rec.promoted) for rec in single)
        assert all(rec.effective_weights == base for rec in single)
        double = reports(2)
        assert all(0.0 not in rec.stage2_variances for rec in double)
        assert all(rec.effective_weights != base for rec in double)

    def test_best_point_comes_from_refined_estimates(self):
        params = default_params(3, 8)
        obj = SyntheticObjective(sphere)
        result = race_cma_optimize(obj, params, RacingConfig(), (np.full(3, 2.0), 1.0),
                                   1e9, 13, max_generations=5)
        refined_means = [m for rec in result.history for m in rec.stage2_means]
        assert result.best_cost == min(refined_means)
