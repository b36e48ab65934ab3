"""Dimension-generic CMA-ES: sampling, ranked recombination, adaptation.

The state update follows the standard scheme: weighted mean recombination of
the elite candidates, a whitened step-size path driving log-sigma, a raw
covariance path for the rank-one term, and a rank-mu term built from the
elite steps. Selection depends on candidate costs only through their ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objective import OptimizeResult, RoundRecord, StochasticObjective
from .seeding import derive_seed, rng_from

EIGEN_FLOOR_RATIO = 1e-14
# Both CMA loops stop once the step size falls to this value.
SIGMA_STOP = 1e-12


@dataclass(frozen=True)
class CmaParams:
    lam: int
    mu: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, float)
        if self.mu > self.lam or len(w) != self.mu:
            raise ValueError("need mu <= lambda and one weight per parent")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12 or np.any(np.diff(w) > 0):
            raise ValueError("weights must be positive, non-increasing and sum to 1")
        if self.c_1 + self.c_mu > 1.0:
            raise ValueError("covariance learning rates must satisfy c1 + cmu <= 1")


def default_params(dimension: int, lam: int) -> CmaParams:
    """Standard parameter defaults for the given dimension and population."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if lam < 2:
        raise ValueError("population size must be >= 2")
    n = float(dimension)
    mu = lam // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = float(weights.sum() ** 2 / np.sum(weights**2))

    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))
    return CmaParams(
        lam=lam, mu=mu, weights=weights, mu_eff=mu_eff,
        c_sigma=c_sigma, d_sigma=d_sigma, c_c=c_c, c_1=c_1, c_mu=c_mu, chi_n=chi_n,
    )


@dataclass(frozen=True)
class CmaState:
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    path_sigma: np.ndarray
    path_cov: np.ndarray
    generation: int = 0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError("step size must be positive")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")

    @property
    def dimension(self) -> int:
        return len(self.mean)


def init_state(mean, sigma: float) -> CmaState:
    """The state both loops start from; a non-finite start is rejected
    before any evaluation."""
    mean = np.asarray(mean, float)
    if not np.isfinite(mean).all():
        raise ValueError("initial mean must be finite")
    if not 0 < sigma < math.inf:  # NaN fails both
        raise ValueError("step size must be positive and finite")
    n = len(mean)
    return CmaState(
        mean=mean, sigma=float(sigma), cov=np.eye(n),
        path_sigma=np.zeros(n), path_cov=np.zeros(n),
    )


def _decompose(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric root and inverse root of the covariance, with PD repair.

    Eigenvalues below EIGEN_FLOOR_RATIO times the largest are floored.
    """
    eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2.0)
    floor = max(eigvals.max(), 0.0) * EIGEN_FLOOR_RATIO + 1e-300
    eigvals = np.maximum(eigvals, floor)
    root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    inv_root = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    return root, inv_root


def sample_population(
    state: CmaState, params: CmaParams, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw lambda candidates: u_j = mean + sigma * root(C) @ z_j.

    Returns the raw standard-normal draws and the search-space points, both
    as (lambda, n) arrays.
    """
    rng = rng_from(seed, "cma-sample")
    z = rng.standard_normal((params.lam, state.dimension))
    return z, _points_from_draws(state, z)


def _points_from_draws(state: CmaState, z: np.ndarray) -> np.ndarray:
    root, _ = _decompose(state.cov)
    return state.mean + state.sigma * z @ root.T


def update(
    state: CmaState,
    params: CmaParams,
    ranked_points: np.ndarray,
    weights_used: np.ndarray | None = None,
) -> CmaState:
    """One adaptation step from the mu best points (best first).

    ``weights_used`` replaces the base recombination weights in the mean and
    rank-mu covariance terms (uncertainty-aware callers pass reweighted
    values); the path and step-size scalings keep the base effective mass.
    """
    pts = np.asarray(ranked_points, float)
    if pts.shape != (params.mu, state.dimension):
        raise ValueError("expected the mu best points, best first")
    w = params.weights if weights_used is None else np.asarray(weights_used, float)
    if len(w) != params.mu or not abs(w.sum() - 1.0) <= 1e-9 or np.any(w < 0):
        raise ValueError("recombination weights must be nonnegative and sum to 1")

    _, inv_root = _decompose(state.cov)
    mean_new = w @ pts
    step = (mean_new - state.mean) / state.sigma

    c_s, d_s, mu_eff = params.c_sigma, params.d_sigma, params.mu_eff
    path_sigma = (1.0 - c_s) * state.path_sigma + math.sqrt(
        c_s * (2.0 - c_s) * mu_eff
    ) * inv_root @ step
    sigma_new = state.sigma * math.exp(
        (c_s / d_s) * (np.linalg.norm(path_sigma) / params.chi_n - 1.0)
    )

    c_c = params.c_c
    path_cov = (1.0 - c_c) * state.path_cov + math.sqrt(c_c * (2.0 - c_c) * mu_eff) * step

    y = (pts - state.mean) / state.sigma
    rank_mu = (y.T * w) @ y
    cov_new = (
        (1.0 - params.c_1 - params.c_mu) * state.cov
        + params.c_1 * np.outer(path_cov, path_cov)
        + params.c_mu * rank_mu
    )
    cov_new = (cov_new + cov_new.T) / 2.0

    return CmaState(
        mean=mean_new, sigma=sigma_new, cov=cov_new,
        path_sigma=path_sigma, path_cov=path_cov, generation=state.generation + 1,
    )


@dataclass(frozen=True)
class GenerationRecord(RoundRecord):
    """A CMA generation: the distribution mean and step size after its update."""

    mean: tuple[float, ...]
    sigma: float


def cma_optimize(
    objective: StochasticObjective,
    params: CmaParams,
    init: tuple[np.ndarray, float],
    budget: float,
    seed: int,
    feasible_map: Callable[[np.ndarray], np.ndarray] | None = None,
    max_generations: int | None = None,
) -> OptimizeResult:
    """Plain CMA-ES loop: every candidate gets one full-fidelity evaluation.

    Each candidate is charged one independent simulation draw (seeded per
    candidate); correlating draws across a generation is the racing loop's
    improvement, not the baseline's. The loop runs whole generations while
    the budget allows lambda more full evaluations on top of the
    objective's ledger total, the step size stays above ``SIGMA_STOP`` and
    the generation cap (if any) is not reached.
    ``feasible_map`` translates raw search points into the points the
    objective evaluates and the result reports; identity when omitted.
    """
    if not 0 < budget < math.inf:
        raise ValueError("budget must be positive and finite")
    state = init_state(*init)
    mapper = feasible_map if feasible_map is not None else (lambda u: u)
    ledger = objective.ledger

    best_cost = math.inf
    best_point = mapper(state.mean)
    history: list[GenerationRecord] = []

    while ledger.n_eq + params.lam <= budget + 1e-12 and state.sigma > SIGMA_STOP:
        if max_generations is not None and state.generation >= max_generations:
            break
        gen = state.generation
        _, points = sample_population(state, params, derive_seed(seed, gen, "sample"))
        mapped = [mapper(u) for u in points]
        seeds = [derive_seed(seed, gen, "eval", j) for j in range(params.lam)]
        costs = np.array(objective.evaluate_many(mapped, seeds, 1.0))

        order = np.argsort(costs, kind="stable")
        if costs[order[0]] < best_cost:
            best_cost = float(costs[order[0]])
            best_point = mapped[order[0]]
        state = update(state, params, points[order[: params.mu]])
        history.append(
            GenerationRecord(
                index=gen, n_eq=ledger.n_eq, point=tuple(best_point),
                mean=tuple(state.mean), sigma=state.sigma,
            )
        )

    return OptimizeResult(best_point, best_cost, ledger.n_eq, history)
