"""Two-stage racing CMA-ES with CRN, noise-aware recombination and a
feasible-by-construction threshold parameterization.

Per generation: draw structured (mirrored, optionally orthogonalized)
candidates, screen all of them cheaply under one shared seed, promote the
best fraction to repeated full-fidelity evaluation under shared seeds, merge
the two stages into one ranking, and recombine with inverse-variance
weights so noisier elite estimates pull the distribution less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Annotated, Callable, Sequence

import numpy as np

from .cma import (
    SIGMA_STOP,
    CmaParams,
    CmaState,
    GenerationRecord,
    _points_from_draws,
    init_state,
    sample_population,
    update,
)
# Nothing here calls run_episode; the name stays bound because
# perfbench/tracer.py wraps race.run_episode and fails if it is missing.
from .feedback import run_episode  # noqa: F401
from .objective import (
    CrnSeedPlan,
    OptimizeResult,
    StochasticObjective,
    derive_seed_plan,
)
from .scenario import Bound, Count, Positive, UnitFraction, check_fields
from .seeding import derive_seed, rng_from


@dataclass(frozen=True)
class RacingConfig:
    """Racing knobs: promotion fraction, fidelity ratio, Stage-2 truncation,
    repetitions, weighting floor, threshold spacing and sampling structure."""

    promotion_fraction: UnitFraction = 0.5
    fidelity_ratio: UnitFraction = 0.2
    truncation: UnitFraction = 1.0
    repetitions: Count = 1
    weighting_floor: Positive = 1e-8
    min_spacing: Positive = 0.1
    diagonal_warmup_generations: Annotated[int, Bound(0)] = 2
    mirrored_sampling: bool = True

    def __post_init__(self) -> None:
        check_fields(self)

    def promoted_count(self, lam: int) -> int:
        return max(1, int(self.promotion_fraction * lam))

    def generation_cost(self, lam: int) -> Fraction:
        """Exact per-generation charge: lam*tau + k*r*beta."""
        k = self.promoted_count(lam)
        tau = Fraction(str(self.fidelity_ratio))
        beta = Fraction(str(self.truncation))
        return lam * tau + k * self.repetitions * beta


def softplus(x):
    """log(1 + exp(x)), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def map_unconstrained(u, min_spacing: float) -> np.ndarray:
    """Chained-softplus map from R^3 to ordered, spaced threshold triples.

    Works on a single 3-vector or an (N, 3) batch; every input satisfies
    both spacing constraints by construction, so no post-hoc sorting is
    ever applied to sampled candidates. In double precision the gaps hold
    the spacing to within 1e-12 for inputs up to 1e3 in magnitude; beyond
    about 1e4, ``t1 + min_spacing`` rounds off part of the spacing, though
    every finite input still maps to an ordered triple.
    """
    if not min_spacing > 0:
        raise ValueError("min_spacing must be positive")
    u = np.asarray(u, float)
    t1 = u[..., 0]
    t2 = t1 + min_spacing + softplus(u[..., 1])
    t3 = t2 + min_spacing + softplus(u[..., 2])
    return np.stack([t1, t2, t3], axis=-1)


def inverse_feasible(thresholds: np.ndarray, min_spacing: float) -> np.ndarray:
    """Unconstrained coordinates that map (back) to the threshold triple.

    Gaps at exactly the minimum spacing clamp to a large negative
    coordinate (the softplus offset saturates at zero from above).
    """
    if not min_spacing > 0:
        raise ValueError("min_spacing must be positive")

    def inv_softplus(y: float) -> float:
        y = max(y, 1e-9)
        return y + math.log(-math.expm1(-y))

    t1, t2, t3 = thresholds
    return np.array(
        [t1, inv_softplus(t2 - t1 - min_spacing), inv_softplus(t3 - t2 - min_spacing)]
    )


def structured_sample(
    state: CmaState,
    params: CmaParams,
    seed: int,
    mirrored: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate draws with mirrored pairs and an orthogonalized base block.

    With mirroring, lambda/2 base directions are emitted interleaved with
    their negations, so the raw draws sum to zero exactly; the base block is
    orthogonalized (norms preserved) when it has at most as many directions
    as dimensions, otherwise plain draws are kept. Without mirroring this is
    ordinary sampling (:func:`cma.sample_population`).
    """
    if not mirrored:
        return sample_population(state, params, seed)
    n, lam = state.dimension, params.lam
    if lam % 2 != 0:
        raise ValueError("mirrored sampling needs an even population size")

    half = lam // 2
    rng = rng_from(seed, "mirrored-sample")
    base = rng.standard_normal((half, n))
    if half <= n:
        norms = np.linalg.norm(base, axis=1)
        q, _ = np.linalg.qr(base.T)
        base = (q[:, :half] * norms).T
    z = np.empty((lam, n))
    z[0::2] = base
    z[1::2] = -base
    return z, _points_from_draws(state, z)


def stage1_screen(
    candidates: Sequence,
    objective: StochasticObjective,
    plan: CrnSeedPlan,
    fidelity_ratio: float,
) -> np.ndarray:
    """Coarse evaluation of every candidate under the shared Stage-1 seed."""
    if len(candidates) == 0:
        raise ValueError("candidate list must be non-empty")
    seeds = [plan.stage1_seed] * len(candidates)
    return np.array(objective.evaluate_many(candidates, seeds, fidelity_ratio, kind="stage1"))


def promote(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best screening values (ascending index on ties)."""
    values = np.asarray(values, float)
    if not 1 <= k <= len(values):
        raise ValueError("can only promote between one and all screened candidates")
    order = np.argsort(values, kind="stable")
    return np.sort(order[:k])


def stage2_refine(
    points: Sequence,
    objective: StochasticObjective,
    plan: CrnSeedPlan,
    truncation: float = 1.0,
) -> tuple[list[float], list[float]]:
    """Evaluate each promoted candidate once under each Stage-2 seed of the
    plan, and return each candidate's mean and unbiased variance over its
    seeds (variance 0.0 at one seed, where there is no spread).

    ``truncation`` below 1 emulates early stopping by shortening each
    evaluation (and its charge) to that fraction of a full one. Every
    (seed, point) pair goes into one call, seed-major, so the points of a
    seed replay together.
    """
    k = len(points)
    values = objective.evaluate_many(
        list(points) * len(plan.stage2_seeds),
        [seed for seed in plan.stage2_seeds for _ in range(k)],
        truncation, kind="stage2",
    )
    per_point = [np.array(values[i::k]) for i in range(k)]
    means = [float(np.mean(v)) for v in per_point]
    variances = [float(np.var(v, ddof=1)) if len(v) >= 2 else 0.0 for v in per_point]
    return means, variances


def assemble_ranking(
    stage1_values: np.ndarray,
    promoted: np.ndarray,
    means: Sequence[float],
    variances: Sequence[float],
    weighting_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge both stages into per-candidate (cost, variance) arrays.

    Promoted candidates carry their Stage-2 mean and variance; the rest keep
    their screening value plus a tie-breaking offset and inherit the worst
    promoted variance, which keeps them rankable but down-weighted.
    """
    if not len(means) == len(variances) == len(promoted):
        raise ValueError("need exactly one mean and variance per promoted candidate")
    costs = np.asarray(stage1_values, float) + weighting_floor
    ranking_variances = np.full(len(costs), np.max(variances))
    costs[promoted] = means
    ranking_variances[promoted] = variances
    return costs, ranking_variances


def uncertainty_weights(
    base_weights: np.ndarray, variances: np.ndarray, weighting_floor: float
) -> np.ndarray:
    """Inverse-variance reweighting of the recombination weights.

    Equal variances return the base weights unchanged (the common factor
    cancels exactly); otherwise weights are scaled by 1/(floor + variance)
    and renormalized.
    """
    w = np.asarray(base_weights, float)
    v = np.asarray(variances, float)
    if len(w) != len(v):
        raise ValueError("one variance per weight required")
    if np.all(v == v[0]):
        return w.copy()
    raw = w / (weighting_floor + v)
    return raw / raw.sum()


@dataclass(frozen=True)
class GenerationReport(GenerationRecord):
    """A racing generation with its diagnostics: every screening value, the
    promoted indices, their Stage-2 means and variances and the
    recombination weights."""

    stage1_values: tuple[float, ...]
    promoted: tuple[int, ...]
    stage2_means: tuple[float, ...]
    stage2_variances: tuple[float, ...]
    effective_weights: tuple[float, ...]


def race_cma_optimize(
    objective: StochasticObjective,
    params: CmaParams,
    racing: RacingConfig,
    init: tuple[np.ndarray, float],
    budget: float,
    seed: int,
    feasible_map: Callable[[np.ndarray], np.ndarray] | None = None,
    max_generations: int | None = None,
) -> OptimizeResult:
    """Full racing loop on top of the CMA-ES backbone.

    The covariance stays diagonal for the configured warmup generations,
    then adapts fully. The returned best point is the best Stage-2 mean seen
    (screening values are never trusted as the final answer unless nothing
    was ever promoted, which cannot happen with at least one promotion per
    generation). A generation runs only while the objective's ledger total
    plus the generation's exact charge stays within the budget.
    """
    if not 0 < budget < math.inf:
        raise ValueError("budget must be positive and finite")
    state = init_state(*init)
    mapper = feasible_map if feasible_map is not None else (lambda u: u)
    gen_cost = racing.generation_cost(params.lam)
    ledger = objective.ledger

    best_cost = math.inf
    best_point = mapper(state.mean)
    history: list[GenerationReport] = []

    while float(ledger.exact_total + gen_cost) <= budget + 1e-12 and state.sigma > SIGMA_STOP:
        if max_generations is not None and state.generation >= max_generations:
            break
        gen = state.generation
        plan = derive_seed_plan(seed, gen, racing.repetitions)
        _, points = structured_sample(
            state, params, derive_seed(seed, gen, "sample"), racing.mirrored_sampling
        )
        mapped = [mapper(u) for u in points]

        stage1 = stage1_screen(mapped, objective, plan, racing.fidelity_ratio)
        promoted = promote(stage1, racing.promoted_count(params.lam))
        means, stage2_variances = stage2_refine(
            [mapped[i] for i in promoted], objective, plan, racing.truncation
        )
        costs, variances = assemble_ranking(
            stage1, promoted, means, stage2_variances, racing.weighting_floor
        )

        for idx, mean in zip(promoted, means):
            if mean < best_cost:
                best_cost = mean
                best_point = mapped[idx]

        order = np.argsort(costs, kind="stable")
        elite_idx = order[: params.mu]
        weights = uncertainty_weights(
            params.weights, variances[elite_idx], racing.weighting_floor
        )
        state = update(state, params, points[elite_idx], weights)
        if state.generation <= racing.diagonal_warmup_generations:
            state = replace(state, cov=np.diag(np.diag(state.cov)))

        history.append(
            GenerationReport(
                index=gen, n_eq=ledger.n_eq, point=tuple(best_point),
                mean=tuple(state.mean), sigma=state.sigma,
                stage1_values=tuple(float(v) for v in stage1),
                promoted=tuple(int(i) for i in promoted),
                stage2_means=tuple(means),
                stage2_variances=tuple(stage2_variances),
                effective_weights=tuple(float(w) for w in weights),
            )
        )

    return OptimizeResult(best_point, best_cost, ledger.n_eq, history)
