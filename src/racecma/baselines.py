"""Comparison optimizers: analytic MAP placement, interior-point Newton with
a log barrier, and simultaneous-perturbation stochastic approximation.

All three share the stochastic-objective protocol and its cost ledger, and
evaluate finite differences under one seed per iteration so the differencing
noise is common-mode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .feedback import classify, run_episodes
# Nothing here calls run_episode; the name stays bound because
# perfbench/tracer.py wraps baselines.run_episode and fails if it is missing.
from .feedback import run_episode  # noqa: F401
from .objective import OptimizeResult, RoundRecord, StochasticObjective
from .scenario import Bound, Count, NonNegative, Positive, ScenarioConfig, check_fields
from .seeding import derive_seed, rng_from


class CalibrationError(RuntimeError):
    """Raised when fitted densities cannot produce ordered crossings."""


@dataclass(frozen=True)
class HypothesisDensityModel:
    """Gaussian conditional density and prior per hypothesis state."""

    means: tuple[float, ...]
    stds: tuple[float, ...]
    priors: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.means) == len(self.stds) == len(self.priors)):
            raise ValueError("model components must have equal length")
        # Written so that a nan fails them too.
        if not all(s > 0 for s in self.stds):
            raise ValueError("stds must be positive")
        if not abs(sum(self.priors) - 1.0) <= 1e-9:
            raise ValueError("priors must sum to 1")
        if not all(0.0 < p <= 1.0 for p in self.priors):  # log(p1 / p2) needs both positive
            raise ValueError("priors must lie in (0, 1]")


def fit_density_model(
    samples_by_state: dict[int, np.ndarray],
    priors: tuple[float, ...] | None = None,
    min_samples: int = 30,
) -> HypothesisDensityModel:
    """Fit one Gaussian per state; priors default to sample proportions.

    A state needs ``min_samples`` samples, and at least 2 for a spread.
    """
    states = sorted(samples_by_state)
    groups = [np.asarray(samples_by_state[s], float) for s in states]
    if any(len(g) < min_samples for g in groups):
        raise CalibrationError(f"each state needs >= {min_samples} calibration samples")
    for state, g in zip(states, groups):
        if len(g) < 2:
            raise CalibrationError(
                f"state {state} has {len(g)} calibration sample(s); a spread needs 2")
    means = tuple(float(g.mean()) for g in groups)
    stds = tuple(max(float(g.std(ddof=1)), 1e-9) for g in groups)
    if priors is None:
        total = sum(len(g) for g in groups)
        priors = tuple(len(g) / total for g in groups)
    return HypothesisDensityModel(means=means, stds=stds, priors=priors)


def _gaussian_crossing(
    mu1: float, sd1: float, p1: float, mu2: float, sd2: float, p2: float
) -> float:
    """Decision boundary where the two posteriors are equal.

    Fitted spreads within 10% of each other are pooled and solved in closed
    form (sample noise on the smaller class would otherwise swing the far
    crossing); genuinely unequal spreads use the quadratic, keeping the root
    closest to the pooled-variance reference inside the decision-relevant
    window. With lopsided priors the boundary can land beyond the higher
    mean; that is correct, not an error.
    """
    if mu2 <= mu1:
        raise CalibrationError("fitted means must be ordered")
    pooled = math.sqrt((sd1**2 + sd2**2) / 2.0)
    reference = (mu1 + mu2) / 2.0 + pooled**2 * math.log(p1 / p2) / (mu2 - mu1)
    if abs(sd1 - sd2) <= 0.1 * pooled:
        return reference
    # Unequal variances: quadratic in x from equating log posteriors.
    a = 1.0 / (2.0 * sd2**2) - 1.0 / (2.0 * sd1**2)
    b = mu1 / sd1**2 - mu2 / sd2**2
    c = (
        mu2**2 / (2.0 * sd2**2)
        - mu1**2 / (2.0 * sd1**2)
        + math.log((p1 * sd2) / (p2 * sd1))
    )
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise CalibrationError("posteriors have no crossing")
    roots = [(-b + s * math.sqrt(disc)) / (2.0 * a) for s in (1.0, -1.0)]
    window = (mu1 - 3.0 * sd1, mu2 + 3.0 * sd2)
    inside = [r for r in roots if window[0] <= r <= window[1]]
    if not inside:
        raise CalibrationError("no posterior crossing between the fitted means")
    return min(inside, key=lambda r: abs(r - reference))


def map_thresholds(
    samples_by_state: dict[int, np.ndarray],
    min_spacing: float = 0.1,
    min_samples: int = 30,
) -> np.ndarray:
    """Thresholds at the posterior-equality points of adjacent hypotheses.

    Needs labeled calibration samples for all four states with
    increasingly-ordered fitted means; the three crossings are repaired to
    the minimum spacing if the fit brings two of them too close. The priors
    are the states' sample proportions.
    """
    if not min_spacing > 0:
        raise ValueError("min_spacing must be positive")
    model = fit_density_model(samples_by_state, min_samples=min_samples)
    if len(model.means) != 4:
        raise CalibrationError("expected calibration samples for four states")
    crossings = [
        _gaussian_crossing(
            model.means[i], model.stds[i], model.priors[i],
            model.means[i + 1], model.stds[i + 1], model.priors[i + 1],
        )
        for i in range(3)
    ]
    t1, t2, t3 = crossings
    t2 = max(t2, t1 + min_spacing)
    t3 = max(t3, t2 + min_spacing)
    return np.array([t1, t2, t3])


def posterior_crossing(
    samples_low: np.ndarray,
    samples_high: np.ndarray,
    priors: tuple[float, float] | None = None,
) -> float:
    """Posterior-equality point of two fitted Gaussian hypotheses."""
    model = fit_density_model({0: np.asarray(samples_low), 1: np.asarray(samples_high)}, priors)
    return _gaussian_crossing(
        model.means[0], model.stds[0], model.priors[0],
        model.means[1], model.stds[1], model.priors[1],
    )


def _linear_quantiles(x: np.ndarray, q) -> np.ndarray:
    """``np.quantile(x, q)`` for a finite 1-D ``x`` and ``q`` in [0, 1],
    bit for bit, by numpy's own steps for its default linear method.

    numpy builds its partition's kth set with ``np.unique``, which imports
    ``numpy.ma`` on its first call, so the first MAP calibration of a
    process would load that module mid-run. Here the set is built in Python;
    the rest is numpy's: the virtual index ``(n - 1) * q``, both neighbour
    indexes set to -1 at or past the last element, one partition of a copy,
    and the two-sided lerp. A sort in place of the partition differs from
    numpy in the sign of some zeros.
    """
    arr = np.array(x, dtype=float)  # a copy: the partition works in place
    n = len(arr)
    if n == 0:
        raise ValueError("quantiles need at least one value")
    virtual = (n - 1) * np.asarray(q, float)
    previous = np.floor(virtual)
    following = previous + 1
    last = virtual >= n - 1
    previous[last] = following[last] = -1
    previous, following = previous.astype(np.intp), following.astype(np.intp)
    arr.partition(sorted({0, -1, *previous.tolist(), *following.tolist()}))
    a, b = arr[previous], arr[following]
    gamma = virtual - previous
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def map_calibrate(
    objective,
    seed: int,
    episodes: int = 1,
    min_spacing: float = 0.1,
    min_samples: int = 30,
) -> np.ndarray:
    """One-shot MAP placement from seeded calibration episodes.

    Runs sweep-only episodes (thresholds nothing reaches), labels the
    echo-strength values of the frames they measure, not of the frames the
    cadence skips, with provisional thresholds at their median, 75th and
    90th percentiles (:func:`_linear_quantiles`), fits the per-state
    densities and solves the crossings. Charges one full
    evaluation per episode; ``episodes < 1`` or a ``min_spacing`` that is
    not positive is rejected before any episode runs.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if not min_spacing > 0:
        raise ValueError("min_spacing must be positive")
    scenario: ScenarioConfig = objective.scenario
    passive = (1e9, 2e9, 3e9)
    seeds = [derive_seed(seed, "map-calibration", ep) for ep in range(episodes)]
    # The passive loop stays in state 0 and counts frame -1 as measured, so
    # with a state-0 period p it measures frames p-1, 2p-1, ...
    period = objective.actions.period_multipliers[0]
    values: list[float] = []
    for trace in run_episodes(scenario, [passive] * episodes, seeds, objective.actions, 1.0):
        objective.ledger.add(1.0, "full")
        values.extend(trace.resi[period - 1::period].tolist())
    x = np.asarray(values)
    if not np.all(np.isfinite(x)):
        raise CalibrationError("calibration echo strengths must be finite")
    q = _linear_quantiles(x, [0.5, 0.75, 0.9])
    provisional = (q[0], max(q[1], q[0] + min_spacing), max(q[2], q[1] + 2 * min_spacing))
    labels = np.array([classify(v, provisional) for v in x])
    samples_by_state = {s: x[labels == s] for s in range(4)}
    return map_thresholds(samples_by_state, min_spacing, min_samples)


# ---------------------------------------------------------------------------
# Interior-point Newton

# Backtracking line search: Armijo sufficient-decrease constant, step
# shrink factor and the most shrinks tried per Newton step.
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 20


@dataclass(frozen=True)
class IpnConfig:
    """Barrier schedule and finite-difference settings.

    The starting barrier weight is a modest fraction of the unit cost scale
    so the penalty shapes feasibility without drowning a flat objective.
    """

    barrier_init: Positive = 0.1
    barrier_shrink: Annotated[float, Bound(1, ends="()")] = 10.0
    outer_rounds: Count = 6
    newton_iters: Count = 2
    fd_step: Positive = 0.05

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0 < self.fd_step * self.fd_step < math.inf:
            raise ValueError("fd_step squared, the stencil's divisor, must be a positive float")


def _barrier_value(t: np.ndarray) -> float:
    g1, g2 = t[1] - t[0], t[2] - t[1]
    if g1 <= 0 or g2 <= 0:
        return math.inf
    return -(math.log(g1) + math.log(g2))


def _barrier_gradient(t: np.ndarray) -> np.ndarray:
    g1, g2 = t[1] - t[0], t[2] - t[1]
    return np.array([1.0 / g1, -1.0 / g1 + 1.0 / g2, -1.0 / g2])


def _barrier_hessian(t: np.ndarray) -> np.ndarray:
    g1, g2 = t[1] - t[0], t[2] - t[1]
    # A gap whose square overflows has curvature 1/inf = 0, the right limit.
    with np.errstate(over="ignore"):
        h1 = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]) / g1**2
        h2 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]]) / g2**2
    return h1 + h2


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
    """The solve of ``(hess + ridge·I) d = -grad`` at the first ridge of 0,
    1e-6, 2e-6, 4e-6, ... that makes the system definite; None when none
    does before the ridge, or the shifted system, overflows."""
    ridge = 0.0
    while math.isfinite(ridge):
        with np.errstate(over="ignore"):
            shifted = hess + ridge * np.eye(3)
        if not np.isfinite(shifted).all():
            return None
        try:
            direction = np.linalg.solve(shifted, -grad)
            if np.min(np.linalg.eigvalsh(shifted)) > 0:
                return direction
        except np.linalg.LinAlgError:
            pass
        ridge = max(2.0 * ridge, 1e-6)
    return None


def ipn_optimize(
    objective: StochasticObjective,
    t0: np.ndarray,
    config: IpnConfig = IpnConfig(),
    budget: float = 60.0,
    seed: int = 0,
) -> OptimizeResult:
    """Barrier Newton descent with central differences on the objective.

    Each Newton step spends 2n+1 = 7 objective evaluations on the stencil
    (the barrier derivatives are analytic and free) plus one per line-search
    probe, all under a per-iteration seed. Stencil points are sorted, as in
    :func:`spsa_gradient`, so a step longer than a gap keeps the order. The
    Hessian of the objective is diagonal (that is all the stencil supports);
    the barrier contributes its exact full Hessian, and a ridge is added
    until the solve is definite (:func:`_newton_direction`).
    The descent stops early when the budget, less the objective's ledger
    total, cannot pay for the next stencil or probe, when no finite ridge
    makes the solve definite, or when the line search accepts no step.
    """
    if not 0 < budget < math.inf:
        raise ValueError("budget must be positive and finite")
    t = np.array(t0, float)
    if not (np.isfinite(t).all() and t[0] < t[1] < t[2]):
        raise ValueError("initial point must be finite and strictly feasible")

    def schedule():
        """One barrier weight per Newton step, shrunk after each outer round."""
        mu = config.barrier_init
        for _round in range(config.outer_rounds):
            yield from itertools.repeat(mu, config.newton_iters)
            mu /= config.barrier_shrink

    ledger = objective.ledger
    best_cost = math.inf
    best_point = t.copy()
    history: list[RoundRecord] = []

    for iteration, mu in enumerate(schedule()):
        if ledger.n_eq + 7 > budget + 1e-12:
            break
        iter_seed = derive_seed(seed, "ipn", iteration)
        h = config.fd_step
        stencil = [t.copy()]
        for e in np.eye(3) * h:
            stencil += [np.sort(t + e), np.sort(t - e)]
        j_center, *probes = objective.evaluate_many(stencil, [iter_seed] * len(stencil), 1.0)
        grad_j = np.zeros(3)
        hess_diag = np.zeros(3)
        for i in range(3):
            j_plus, j_minus = probes[2 * i], probes[2 * i + 1]
            grad_j[i] = (j_plus - j_minus) / (2.0 * h)
            hess_diag[i] = (j_plus - 2.0 * j_center + j_minus) / h**2

        if j_center < best_cost:
            best_cost = j_center
            best_point = t.copy()

        grad = grad_j + mu * _barrier_gradient(t)
        hess = np.diag(hess_diag) + mu * _barrier_hessian(t)
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            break  # the stencil or the barrier overflowed: no Newton step to take
        direction = _newton_direction(hess, grad)
        if direction is None:
            break  # no finite ridge makes the solve definite: no Newton step to take

        phi_current = j_center + mu * _barrier_value(t)
        slope = float(grad @ direction)
        alpha = 1.0
        accepted = exhausted = False
        for _bt in range(MAX_BACKTRACKS):
            candidate = t + alpha * direction
            if candidate[1] > candidate[0] and candidate[2] > candidate[1]:
                if ledger.n_eq + 1 > budget + 1e-12:
                    exhausted = True
                    break
                [j_cand] = objective.evaluate_many([candidate], [iter_seed], 1.0)
                phi_cand = j_cand + mu * _barrier_value(candidate)
                if phi_cand <= phi_current + ARMIJO * alpha * slope:
                    t = candidate
                    accepted = True
                    break
            alpha *= BACKTRACK
        if exhausted:
            break
        history.append(RoundRecord(iteration + 1, ledger.n_eq, tuple(t)))
        if not accepted:
            break

    return OptimizeResult(best_point, best_cost, ledger.n_eq, history)


# ---------------------------------------------------------------------------
# SPSA

# Iterations between the full-fidelity probes that pick SPSA's returned point.
SPSA_PROBE_EVERY = 10


@dataclass(frozen=True)
class SpsaSchedule:
    """Diminishing gain and perturbation sequences."""

    a: Positive = 0.5
    stability: NonNegative = 10.0
    c: Positive = 0.2
    alpha: Annotated[float, Bound(0.5, 1, "(]")] = 0.602
    gamma: Annotated[float, Bound(0, 0.5, "()")] = 0.101

    def __post_init__(self) -> None:
        check_fields(self)

    def gain(self, k: int) -> float:
        return self.a / (self.stability + k + 1) ** self.alpha

    def perturbation(self, k: int) -> float:
        return self.c / (k + 1) ** self.gamma


def project_thresholds(values: np.ndarray, min_spacing: float) -> np.ndarray:
    """Feasibility projection: sort ascending, then push entries apart."""
    if not min_spacing > 0:
        raise ValueError("min_spacing must be positive")
    t = np.sort(np.asarray(values, float))
    t[1] = max(t[1], t[0] + min_spacing)
    t[2] = max(t[2], t[1] + min_spacing)
    return t


def spsa_gradient(
    objective: StochasticObjective,
    t: np.ndarray,
    c_k: float,
    delta: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Two-evaluation simultaneous-perturbation gradient estimate.

    Both probes are sorted before evaluation so a perturbation cannot break
    the threshold order, and share one seed so their noise is common-mode.
    The divisor uses the nominal perturbation.
    """
    delta = np.asarray(delta, float)
    if not np.all(np.abs(delta) == 1.0):
        raise ValueError("perturbation entries must be +/-1")
    plus = np.sort(t + c_k * delta)
    minus = np.sort(t - c_k * delta)
    j_plus, j_minus = objective.evaluate_many([plus, minus], [seed, seed], 1.0)
    return (j_plus - j_minus) / (2.0 * c_k * delta)


def spsa_optimize(
    objective: StochasticObjective,
    t0: np.ndarray,
    schedule: SpsaSchedule = SpsaSchedule(),
    budget: float = 60.0,
    seed: int = 0,
    min_spacing: float = 0.1,
) -> OptimizeResult:
    """SPSA descent on the threshold triple with feasibility projection.

    The iterate sequence is not monotone under noise, so the returned point
    is the best among periodic full-fidelity probes (the final iterate when
    the budget never allowed a probe). Probes are charged to the ledger,
    and each step and probe runs only while the objective's ledger total
    leaves room for it in the budget.
    """
    if not 0 < budget < math.inf:
        raise ValueError("budget must be positive and finite")
    if not min_spacing > 0:
        raise ValueError("min_spacing must be positive")
    t = np.array(t0, float)
    if not np.isfinite(t).all():
        raise ValueError("initial point must be finite")
    ledger = objective.ledger
    best_cost = math.inf
    best_point = t.copy()
    probed = False
    history: list[RoundRecord] = []

    k = 0
    while ledger.n_eq + 2 <= budget + 1e-12:
        delta = rng_from(seed, "spsa-delta", k).choice([-1.0, 1.0], size=3)
        grad = spsa_gradient(
            objective, t, schedule.perturbation(k), delta, derive_seed(seed, "spsa", k)
        )
        with np.errstate(over="ignore"):
            step = project_thresholds(t - schedule.gain(k) * grad, min_spacing)
        if not np.isfinite(step).all():
            break  # the step left the float range: there is no iterate to take
        t = step
        k += 1
        if k % SPSA_PROBE_EVERY == 0 and ledger.n_eq + 1 <= budget + 1e-12:
            [probe] = objective.evaluate_many(
                [t.copy()], [derive_seed(seed, "spsa-probe", k)], 1.0
            )
            probed = True
            if probe < best_cost:
                best_cost = probe
                best_point = t.copy()
            history.append(RoundRecord(k, ledger.n_eq, tuple(t)))

    if not probed:
        best_point = t.copy()
    return OptimizeResult(best_point, best_cost, ledger.n_eq, history)
