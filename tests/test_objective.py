from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from racecma import (
    CostLedger,
    IsacObjective,
    RacingConfig,
    SyntheticObjective,
    cma_optimize,
    default_params,
    derive_seed_plan,
    episode_objectives,
    evaluate_repeated,
    ipn_optimize,
    map_unconstrained,
    race_cma_optimize,
    run_episode,
    spsa_optimize,
)


class StubObjective:
    """Fixed value per seed, for arithmetic-level oracle tests."""

    def __init__(self, values_by_seed):
        self.values = values_by_seed
        self.ledger = CostLedger()

    def evaluate(self, point, seed, fidelity=1.0, kind="full"):
        self.ledger.add(fidelity, kind)
        return self.values[seed]


class TestLedger:
    def test_unit_charges(self):
        ledger = CostLedger()
        ledger.add(1.0)
        assert ledger.n_eq == 1.0

    def test_exact_fraction_accumulation(self):
        ledger = CostLedger()
        for _ in range(12):
            ledger.add(0.2, "stage1")
        assert ledger.exact_total == Fraction(12, 5)
        assert ledger.n_eq == 2.4

    def test_additivity(self):
        ledger = CostLedger()
        ledger.add(0.2)
        ledger.add(0.8)
        assert ledger.exact_total == Fraction(1)
        assert ledger.n_eq == 1.0

    def test_breakdown_by_kind(self):
        ledger = CostLedger()
        ledger.add(0.2, "stage1")
        ledger.add(1.0, "stage2")
        ledger.add(1.0, "stage2")
        counts = ledger.breakdown
        assert counts["stage1"] == (1, 0.2)
        assert counts["stage2"] == (2, 2.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().add(-0.1)


class TestEvaluateRepeated:
    def test_single_repetition_has_no_variance(self):
        obj = StubObjective({0: 0.7})
        est = evaluate_repeated(obj, None, [0])
        assert est.mean == 0.7 and est.variance is None and est.repetitions == 1

    def test_hand_computed_mean_and_variance(self):
        obj = StubObjective({0: 0.4, 1: 0.6})
        est = evaluate_repeated(obj, None, [0, 1])
        assert est.mean == pytest.approx(0.5)
        assert est.variance == pytest.approx(0.02)  # (0.1^2 + 0.1^2) / 1

    def test_identical_seeds_zero_variance(self):
        obj = StubObjective({5: 0.3})
        est = evaluate_repeated(obj, None, [5, 5, 5])
        assert est.variance == 0.0

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            evaluate_repeated(StubObjective({}), None, [])

    def test_ledger_charged_per_repetition(self):
        obj = StubObjective({0: 0.1, 1: 0.2, 2: 0.3})
        evaluate_repeated(obj, None, [0, 1, 2])
        assert obj.ledger.n_eq == 3.0


class TestSeedPlan:
    def test_deterministic(self):
        assert derive_seed_plan(42, 3, 2) == derive_seed_plan(42, 3, 2)

    def test_repetition_count(self):
        assert len(derive_seed_plan(42, 0, 3).stage2_seeds) == 3

    def test_collision_free_across_generations(self):
        # Hashing oracle: all stage seeds over many generations are distinct.
        seen = set()
        for gen in range(10_000):
            plan = derive_seed_plan(7, gen, 1)
            seen.add(plan.stage1_seed)
            seen.update(plan.stage2_seeds)
        assert len(seen) == 20_000

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            derive_seed_plan(1, 0, 0)


class TestIsacObjective:
    def test_fidelity_charges(self, desk):
        obj = IsacObjective(desk)
        t = np.array([0.5, 1.0, 1.5])
        obj.evaluate(t, seed=0, fidelity=1.0)
        assert obj.ledger.n_eq == 1.0
        obj.evaluate(t, seed=0, fidelity=0.2)
        assert obj.ledger.exact_total == Fraction(6, 5)

    def test_referential_transparency(self, desk):
        obj = IsacObjective(desk)
        t = np.array([0.5, 1.0, 1.5])
        assert obj.evaluate(t, 3, 0.5) == obj.evaluate(t, 3, 0.5)
        assert obj.peek_values(t, 3) == obj.peek_values(t, 3)

    def test_accepts_raw_arrays(self, desk):
        obj = IsacObjective(desk)
        a = obj.evaluate(np.array([0.5, 1.0, 1.5]), 3)
        t = (0.5, 1.0, 1.5)
        b = episode_objectives(run_episode(desk, t, seed=3), t).scalar_cost
        assert a == b

    def test_crn_correlates_nearby_points(self, desk):
        # Shared seeds must shrink the variance of cost differences a lot.
        obj = IsacObjective(desk)
        t_a = np.array([0.8, 1.6, 2.4])
        t_b = np.array([0.9, 1.7, 2.5])
        d_crn, d_ind = [], []
        for s in range(40):
            ja = obj.peek_values(t_a, s).scalar_cost
            d_crn.append(ja - obj.peek_values(t_b, s).scalar_cost)
            d_ind.append(ja - obj.peek_values(t_b, 10_000 + s).scalar_cost)
        reduction = 1.0 - np.var(d_crn, ddof=1) / np.var(d_ind, ddof=1)
        assert reduction >= 0.30


class TestSyntheticObjective:
    def test_deterministic_when_noiseless(self):
        obj = SyntheticObjective(lambda x: float(np.sum(x**2)))
        assert obj.evaluate([1.0, 2.0], 0) == 5.0
        assert obj.evaluate([1.0, 2.0], 99) == 5.0

    def test_common_noise_cancels_in_comparisons(self):
        obj = SyntheticObjective(lambda x: float(np.sum(x**2)), noise_std=0.5,
                                 noise_mode="common")
        a = obj.evaluate([1.0, 0.0], seed=7)
        b = obj.evaluate([0.0, 1.0], seed=7)
        assert a == b  # identical true value, identical offset

    def test_point_noise_differs_between_points(self):
        obj = SyntheticObjective(lambda x: 0.0, noise_std=0.5)
        assert obj.evaluate([1.0], seed=7) != obj.evaluate([2.0], seed=7)
        assert obj.evaluate([1.0], seed=7) == obj.evaluate([1.0], seed=7)

    def test_low_fidelity_widens_noise(self):
        obj = SyntheticObjective(lambda x: 0.0, noise_std=1.0, noise_mode="common")
        full = abs(obj.evaluate([0.0], seed=3, fidelity=1.0))
        coarse = abs(obj.evaluate([0.0], seed=3, fidelity=0.25))
        assert coarse == pytest.approx(2.0 * full)


START = np.array([0.5, 1.5, 2.5])
MAPPER = partial(map_unconstrained, min_spacing=0.1)
OPTIMIZERS = {
    "CMA-ES": lambda obj: cma_optimize(
        obj, default_params(3, 6), (START, 1.0), 24.0, 1, feasible_map=MAPPER),
    "RACE-CMA": lambda obj: race_cma_optimize(
        obj, default_params(3, 6), RacingConfig(), (START, 1.0), 24.0, 1,
        feasible_map=MAPPER),
    "IPN": lambda obj: ipn_optimize(obj, START, budget=24.0, seed=1),
    "SPSA": lambda obj: spsa_optimize(obj, START, budget=24.0, seed=1),
}


@pytest.mark.parametrize("method", sorted(OPTIMIZERS))
def test_every_optimizer_returns_a_float_triple(method):
    result = OPTIMIZERS[method](SyntheticObjective(lambda x: float(np.sum(x**2))))
    assert type(result.best_point) is np.ndarray
    assert result.best_point.dtype == float and result.best_point.shape == (3,)
    assert result.history
    for record in result.history:
        assert type(record.point) is tuple and len(record.point) == 3
        assert all(isinstance(v, float) for v in record.point)
