import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from racecma import (
    IsacObjective,
    RacingConfig,
    cma_optimize,
    default_params,
    ipn_optimize,
    map_unconstrained,
    race_cma_optimize,
    run_episode,
    spsa_optimize,
)
from racecma import feedback as feedback_mod
from racecma.feedback import episode_objectives
from racecma.objective import (
    CostLedger,
    CrnSeedPlan,
    RepeatedEstimate,
    SyntheticObjective,
    derive_seed_plan,
)
from racecma.race import stage2_refine


class StubObjective:
    """Fixed value per seed, for arithmetic-level oracle tests."""

    def __init__(self, values_by_seed):
        self.values = values_by_seed
        self.ledger = CostLedger()

    def evaluate_many(self, points, seeds, fidelity=1.0, kind="full"):
        values = []
        for seed in seeds:
            self.ledger.add(fidelity, kind)
            values.append(self.values[seed])
        return values


def evaluate_one(objective, point, seed, fidelity=1.0, kind="full"):
    """One point under one seed: a batch of one."""
    [value] = objective.evaluate_many([point], [seed], fidelity, kind)
    return value


def evaluate_repeated(objective, point, seeds):
    """One point under each seed, summarised as stage 2 summarises it."""
    return RepeatedEstimate.of(objective.evaluate_many([point] * len(seeds), seeds))


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
    """One point evaluated under several seeds, then RepeatedEstimate.of."""

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
        # Stage 2 of one promoted point under three seeds: three entries.
        obj = StubObjective({0: 0.1, 1: 0.2, 2: 0.3})
        [estimate] = stage2_refine([None], obj, CrnSeedPlan(9, (0, 1, 2)), 0.8)
        assert estimate.mean == pytest.approx(0.2) and estimate.repetitions == 3
        assert obj.ledger.exact_total == Fraction(12, 5)
        assert obj.ledger.breakdown["stage2"] == (3, 2.4)


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


_OBJECTIVES = {
    "isac": IsacObjective,
    "synthetic": lambda _scenario: SyntheticObjective(lambda x: float(np.sum(x**2)),
                                                       noise_std=0.3),
}


class TestEvaluateMany:
    @pytest.mark.parametrize("make", list(_OBJECTIVES.values()), ids=list(_OBJECTIVES))
    def test_values_and_charges_equal_an_evaluate_loop(self, desk, make):
        # One batch with the seeds mixed (as plain CMA-ES and stage 2 call it)
        # gives each point's value alone and charges one entry per point.
        points = [np.array([0.5, 1.0, 1.5]), np.array([1.0, 2.0, 3.0]),
                  np.array([0.5, 1.0, 1.5]), np.array([2.0, 2.5, 6.0])]
        batched, looped = make(desk), make(desk)
        for fidelity, kind, seeds in ((0.2, "stage1", [3, 3, 3, 3]),
                                      (0.8, "stage2", [5, 3, 5, 3]),
                                      (1.0, "full", [3, 4, 5, np.int64(3)])):
            values = batched.evaluate_many(points, seeds, fidelity, kind)
            assert values == [evaluate_one(looped, p, s, fidelity, kind)
                              for p, s in zip(points, seeds)]
        assert batched.ledger.exact_total == looped.ledger.exact_total == Fraction(8)
        assert batched.ledger.breakdown == looped.ledger.breakdown == {
            "stage1": (4, 0.8), "stage2": (4, 3.2), "full": (4, 4.0)}

    @pytest.mark.parametrize("make", list(_OBJECTIVES.values()), ids=list(_OBJECTIVES))
    @pytest.mark.parametrize("n_seeds", [0, 1, 3])
    def test_seed_count_mismatch_raises_before_any_work(self, desk, make, monkeypatch,
                                                        n_seeds):
        def no_world(*_args):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(feedback_mod, "EpisodeWorld", no_world)
        feedback_mod._SLOT.world = None
        objective = make(desk)
        points = [np.array([0.5, 1.0, 1.5]), np.array([1.0, 2.0, 3.0])]
        with pytest.raises(ValueError, match="one seed per"):
            objective.evaluate_many(points, list(range(n_seeds)), 0.2, "stage1")
        assert objective.ledger.exact_total == 0
        assert objective.ledger.breakdown["stage1"] == (0, 0.0)


class TestSyntheticObjective:
    def test_deterministic_when_noiseless(self):
        obj = SyntheticObjective(lambda x: float(np.sum(x**2)))
        assert obj.evaluate_many([[1.0, 2.0], [1.0, 2.0]], [0, 99]) == [5.0, 5.0]

    def test_common_noise_cancels_in_comparisons(self):
        obj = SyntheticObjective(lambda x: float(np.sum(x**2)), noise_std=0.5,
                                 noise_mode="common")
        a, b = obj.evaluate_many([[1.0, 0.0], [0.0, 1.0]], [7, 7])
        assert a == b  # identical true value, identical offset

    def test_point_noise_differs_between_points(self):
        obj = SyntheticObjective(lambda x: 0.0, noise_std=0.5)
        one, two, again = obj.evaluate_many([[1.0], [2.0], [1.0]], [7, 7, 7])
        assert one != two and one == again

    def test_low_fidelity_widens_noise(self):
        obj = SyntheticObjective(lambda x: 0.0, noise_std=1.0, noise_mode="common")
        full = abs(evaluate_one(obj, [0.0], 3, fidelity=1.0))
        coarse = abs(evaluate_one(obj, [0.0], 3, fidelity=0.25))
        assert coarse == pytest.approx(2.0 * full)


START = np.array([0.5, 1.5, 2.5])
MAPPER = partial(map_unconstrained, min_spacing=0.1)
OPTIMIZERS = {
    "CMA-ES": lambda obj, budget=24.0: cma_optimize(
        obj, default_params(3, 6), (START, 1.0), budget, 1, feasible_map=MAPPER),
    "RACE-CMA": lambda obj, budget=24.0: race_cma_optimize(
        obj, default_params(3, 6), RacingConfig(), (START, 1.0), budget, 1,
        feasible_map=MAPPER),
    "IPN": lambda obj, budget=24.0: ipn_optimize(obj, START, budget=budget, seed=1),
    "SPSA": lambda obj, budget=24.0: spsa_optimize(obj, START, budget=budget, seed=1),
}


class CallLog(SyntheticObjective):
    """A sphere objective that records the kind and seeds of every call."""

    def __init__(self):
        super().__init__(lambda x: float(np.sum(x**2)))
        self.calls = []

    def evaluate_many(self, points, seeds, fidelity=1.0, kind="full"):
        self.calls.append((kind, list(seeds)))
        return super().evaluate_many(points, seeds, fidelity, kind)


def test_each_cma_round_is_one_call():
    plain = CallLog()
    cma_optimize(plain, default_params(3, 6), (START, 1.0), 12.0, 1, feasible_map=MAPPER)
    assert [(kind, len(set(seeds))) for kind, seeds in plain.calls] == [("full", 6)] * 2
    racing = CallLog()
    race_cma_optimize(racing, default_params(3, 6), RacingConfig(repetitions=2), (START, 1.0),
                      7.2, 1, feasible_map=MAPPER)
    (kind1, seeds1), (kind2, seeds2) = racing.calls
    assert kind1 == "stage1" and len(seeds1) == 6 and len(set(seeds1)) == 1
    # The 3 promoted candidates under each of the 2 stage-2 seeds, seed-major.
    assert kind2 == "stage2" and seeds2 == [seeds2[0]] * 3 + [seeds2[3]] * 3
    assert seeds2[0] != seeds2[3]


@pytest.mark.parametrize("method", sorted(OPTIMIZERS))
def test_every_optimizer_returns_a_float_triple(method):
    result = OPTIMIZERS[method](SyntheticObjective(lambda x: float(np.sum(x**2))))
    assert type(result.best_point) is np.ndarray
    assert result.best_point.dtype == float and result.best_point.shape == (3,)
    assert result.history
    for record in result.history:
        assert type(record.point) is tuple and len(record.point) == 3
        assert all(isinstance(v, float) for v in record.point)


@pytest.mark.parametrize("budget", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("method", sorted(OPTIMIZERS))
def test_every_optimizer_needs_a_positive_finite_budget(method, budget):
    # At inf SPSA never returned, at nan IPN spent 96 and both CMA loops ran
    # no generation at all.
    obj = SyntheticObjective(lambda x: float(np.sum(x**2)))
    with pytest.raises(ValueError, match="budget must be positive and finite"):
        OPTIMIZERS[method](obj, budget)
    assert obj.ledger.exact_total == 0
