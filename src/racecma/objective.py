"""Stochastic objective wrappers with exact evaluation-cost accounting.

Cost is measured in full-evaluation equivalents: a full-horizon episode
charges 1.0, a coarse evaluation at fidelity f charges f. The ledger keeps
an exact rational total so configured fidelities like 0.2 accumulate without
floating-point drift, and accumulation is atomic so concurrent evaluations
stay order-independent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

import numpy as np

from .feedback import (
    DEFAULT_ACTIONS,
    ObjectiveValues,
    StateActionTable,
    episode_objectives,
    run_episode,
    run_episodes,
)
from .scenario import ScenarioConfig
from .seeding import derive_seed, rng_from


def _exact(weight: float) -> Fraction:
    # str() gives the shortest round-tripping decimal, so 0.2 charges 1/5.
    return Fraction(str(float(weight)))


class CostLedger:
    """Cumulative evaluation cost in full-evaluation equivalents."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total = Fraction(0)
        self._counts: dict[str, int] = {"stage1": 0, "stage2": 0, "full": 0}
        self._weighted: dict[str, Fraction] = {k: Fraction(0) for k in self._counts}

    def add(self, weight: float, kind: str = "full") -> None:
        if weight < 0:
            raise ValueError("cost increments must be nonnegative")
        exact = _exact(weight)
        with self._lock:
            self._total += exact
            self._counts[kind] = self._counts.get(kind, 0) + 1
            self._weighted[kind] = self._weighted.get(kind, Fraction(0)) + exact

    @property
    def n_eq(self) -> float:
        return float(self._total)

    @property
    def exact_total(self) -> Fraction:
        return self._total

    @property
    def breakdown(self) -> dict[str, tuple[int, float]]:
        with self._lock:
            return {k: (self._counts[k], float(self._weighted[k])) for k in self._counts}


@dataclass(frozen=True)
class CrnSeedPlan:
    """Common-random-number seeds shared by every candidate in a generation."""

    stage1_seed: int
    stage2_seeds: tuple[int, ...]


def derive_seed_plan(master_seed: int, generation: int, repetitions: int) -> CrnSeedPlan:
    """Deterministic, collision-free seed plan for one generation."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return CrnSeedPlan(
        stage1_seed=derive_seed(master_seed, generation, "stage1"),
        stage2_seeds=tuple(
            derive_seed(master_seed, generation, "stage2", rep) for rep in range(repetitions)
        ),
    )


@dataclass(frozen=True)
class RepeatedEstimate:
    """Mean/variance summary of repeated evaluations at one point.

    ``variance`` is the unbiased sample variance and is None for a single
    repetition; inverse-variance weighting counts that as variance 0.
    """

    mean: float
    variance: float | None
    repetitions: int

    @classmethod
    def of(cls, values) -> "RepeatedEstimate":
        """Mean and unbiased variance of one point's values, one per seed."""
        values = np.array(values)
        if len(values) == 0:
            raise ValueError("need at least one value")
        variance = float(np.var(values, ddof=1)) if len(values) >= 2 else None
        return cls(mean=float(np.mean(values)), variance=variance, repetitions=len(values))


class StochasticObjective(Protocol):
    ledger: CostLedger

    def evaluate_many(
        self, points, seeds, fidelity: float = 1.0, kind: str = "full"
    ) -> list[float]:
        """The cost of each point under its own seed, ``points[i]`` under
        ``seeds[i]``, each charged ``fidelity`` of ``kind`` to the ledger.
        Raises ``ValueError`` unless there is one seed per point, before any
        point is evaluated or charged."""
        ...


@dataclass(frozen=True)
class RoundRecord:
    """One optimizer round and the point the convergence trace reports for it.

    ``index`` is the generation for the CMA loops and the iteration for IPN
    and SPSA; ``n_eq`` is the cost spent up to the end of the round. The
    point is the best so far for CMA-ES and RACE-CMA, the iterate after the
    step for IPN and the probed iterate for SPSA.
    """

    index: int
    n_eq: float
    point: tuple[float, ...]


@dataclass
class OptimizeResult:
    """What every optimizer returns: the best point it found (a float array
    of shape (3,)), that point's estimated cost, the n_eq it spent and one
    record per round."""

    best_point: np.ndarray
    best_cost: float
    n_eq: float
    history: list[RoundRecord]


class IsacObjective:
    """Closed-loop sensing episode cost as a function of the thresholds.

    Evaluations are pure: identical (point, seed, fidelity) always return
    the same value, and only the ledger keeps state that results depend on.
    The episode world each thread keeps (:func:`run_episodes`) only saves
    work.
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        actions: StateActionTable = DEFAULT_ACTIONS,
        weights: tuple[float, float, float] = (1.0, 0.0, 0.0),
        ledger: CostLedger | None = None,
    ) -> None:
        self.scenario = scenario
        self.actions = actions
        self.weights = weights
        self.ledger = ledger if ledger is not None else CostLedger()

    def evaluate_many(
        self, points, seeds, fidelity: float = 1.0, kind: str = "full"
    ) -> list[float]:
        """The scalar cost of each point's episode on its own seed, one ledger
        entry per point, with the episodes replayed in one batch
        (:func:`run_episodes`). A seed count that does not match or an
        infeasible point raises before any episode runs or is charged."""
        traces = run_episodes(self.scenario, points, seeds, self.actions, fidelity)
        costs = []
        for point, trace in zip(points, traces):
            costs.append(episode_objectives(trace, point, self.weights).scalar_cost)
            self.ledger.add(fidelity, kind)
        return costs

    # Batches of one. Nothing in the package calls these two; they stay
    # because perfbench/tracer.py wraps both by name and fails if either is
    # missing.
    def peek_values(self, point, seed: int, fidelity: float = 1.0) -> ObjectiveValues:
        """Episode objectives of a threshold triple without charging the
        ledger."""
        return episode_objectives(
            run_episode(self.scenario, point, self.actions, seed, fidelity), point, self.weights
        )

    def evaluate(self, point, seed: int, fidelity: float = 1.0, kind: str = "full") -> float:
        return self.evaluate_many((point,), (seed,), fidelity, kind)[0]


class SyntheticObjective:
    """Deterministic test function with optional seeded noise.

    ``noise_mode`` controls how the perturbation couples to the seed:
    "common" draws one offset per seed shared by every point (perfectly
    correlated noise), "point" mixes the evaluation point into the draw so
    different candidates see independent noise under the same seed. Coarse
    fidelities widen the noise as 1/sqrt(fidelity), mimicking an estimator
    built from fewer trials.
    """

    def __init__(
        self,
        fn,
        noise_std: float = 0.0,
        noise_mode: str = "point",
        ledger: CostLedger | None = None,
    ) -> None:
        if noise_mode not in ("common", "point"):
            raise ValueError("noise_mode must be 'common' or 'point'")
        self.fn = fn
        self.noise_std = noise_std
        self.noise_mode = noise_mode
        self.ledger = ledger if ledger is not None else CostLedger()

    def evaluate_many(
        self, points, seeds, fidelity: float = 1.0, kind: str = "full"
    ) -> list[float]:
        if len(seeds) != len(points):
            raise ValueError("need one seed per point")
        if not 0.0 < fidelity <= 1.0:
            raise ValueError("fidelity must lie in (0, 1]")
        values = []
        for point, seed in zip(points, seeds):
            x = np.asarray(point, float)
            value = float(self.fn(x))
            if self.noise_std > 0.0:
                if self.noise_mode == "common":
                    rng = rng_from(seed, "noise")
                else:
                    key = np.round(x, 9).tobytes()
                    rng = rng_from(seed, "noise", key)
                value += self.noise_std / np.sqrt(fidelity) * rng.standard_normal()
            self.ledger.add(fidelity, kind)
            values.append(value)
        return values
