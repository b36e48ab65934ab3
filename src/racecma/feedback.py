"""Threshold-driven sensing feedback loop and episode objectives.

Each frame's echo-strength value is classified into one of four hypothesis
states by three ordered thresholds. The state chosen at frame t drives the
feedback actions applied at frame t+1: how much of the power budget the next
sensing transmission uses, how often a measurement is taken, and whether the
beam keeps sweeping (nothing seen yet) or holds on the sector that produced
the echo (candidate/detected/locked).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .radar import compute_resi, matched_filter, realize_channel, synthesize_rx_grid
from .scenario import ScenarioConfig, TargetState, initial_target_state, propagate_target
from .seeding import derive_seed


class InfeasibleThresholdsError(ValueError):
    """Raised for a non-finite or unordered threshold vector."""


def check_thresholds(thresholds: Sequence[float]) -> tuple[float, float, float]:
    """Three decision thresholds (a tuple, list or array, in echo-strength
    units) as floats, after checking that they are finite and ordered."""
    t1, t2, t3 = (float(t) for t in thresholds)
    if not all(math.isfinite(t) for t in (t1, t2, t3)):
        raise InfeasibleThresholdsError("thresholds must be finite")
    if not t1 <= t2 <= t3:
        raise InfeasibleThresholdsError("thresholds must be ordered: t1 <= t2 <= t3")
    return t1, t2, t3


def classify(x: float, thresholds: Sequence[float]) -> int:
    """Map an echo-strength value to a hypothesis state (upper-inclusive).

    State 0 for x <= t1, 1 for t1 < x <= t2, 2 for t2 < x <= t3, 3 above.
    """
    t1, t2, t3 = check_thresholds(thresholds)
    if x <= t1:
        return 0
    if x <= t2:
        return 1
    if x <= t3:
        return 2
    return 3


@dataclass(frozen=True)
class StateActionTable:
    """Per-state feedback actions: power scaling and sensing cadence.

    Power factors are fractions of the budget and must be non-increasing in
    the state index (a stronger echo needs less sensing power). Period
    multipliers stretch the measurement cadence; 1 means every frame.
    """

    power_factors: tuple[float, float, float, float] = (1.0, 0.8, 0.5, 0.2)
    # Once locked, coast every other frame: the echo is strong enough that
    # halving the cadence saves power without losing the track.
    period_multipliers: tuple[int, int, int, int] = (1, 1, 1, 2)

    def __post_init__(self) -> None:
        if any(not 0.0 <= f <= 1.0 for f in self.power_factors):
            raise ValueError("power factors must lie in [0, 1]")
        if any(a < b for a, b in zip(self.power_factors, self.power_factors[1:])):
            raise ValueError("power factors must be non-increasing in state index")
        if any(p < 1 for p in self.period_multipliers):
            raise ValueError("period multipliers must be positive integers")


DEFAULT_ACTIONS = StateActionTable()


@dataclass(frozen=True)
class EpisodeTrace:
    """Per-frame record of one closed-loop sensing episode."""

    resi: np.ndarray
    states: np.ndarray
    in_region: np.ndarray
    in_beam: np.ndarray
    power: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        n = self.horizon
        series = (self.resi, self.states, self.in_region, self.in_beam, self.power)
        if any(len(s) != n for s in series):
            raise ValueError("all series must cover the horizon")
        if np.any(self.power < 0) or np.any(self.power > 1):
            raise ValueError("power fractions must lie in [0, 1]")


# Frames the world cache may hold over all its worlds: about 20 desk
# episodes or 2 paper-scale ones. A cap on the number of worlds would let
# 1000-frame paper worlds pile up and grow the resident set instead.
MAX_WORLD_FRAMES = 2048


class EpisodeWorld:
    """The part of an episode that the thresholds cannot change.

    Target motion is a pure function of (scenario, seed, frame), and a
    frame's echo strength is a pure function of those plus the beam and
    power factor the loop chooses. The world propagates the target up to
    the longest prefix asked of it, and measures each (frame, beam, power
    factor) cell once, on first visit, through the radar chain. Replays
    under any thresholds and action table then read the stored floats.
    """

    def __init__(self, scenario: ScenarioConfig, seed: int) -> None:
        self.scenario = scenario
        self.seed = seed
        self.targets: list[TargetState] = []
        self.bearings: list[float] = []  # target angle seen from the BS
        self.cells: dict[tuple[int, int, float], float] = {}
        # Looked up once: each lookup hashes the whole scenario.
        self._window = scenario.search_window()
        self._null_mask = scenario.null_mask()
        self._budget_w = scenario.tx_power_w

    def extend(self, n_frames: int) -> None:
        """Propagate the target through frame ``n_frames - 1``."""
        sc = self.scenario
        dt = sc.frame_duration
        bs = sc.bs_position
        target = self.targets[-1] if self.targets else initial_target_state(sc, self.seed)
        for t in range(len(self.targets), n_frames):
            target = propagate_target(
                target, dt, derive_seed(self.seed, "motion", t), sc.region, sc.heading_jitter
            )
            self.targets.append(target)
            self.bearings.append(
                math.atan2(target.position[1] - bs[1], target.position[0] - bs[0])
            )

    def measure(self, t: int, beam: int, eta: float) -> float:
        """Echo strength of frame ``t`` under ``beam`` at power factor ``eta``."""
        sc = self.scenario
        channel = realize_channel(sc, self.targets[t])
        grid = synthesize_rx_grid(
            sc, channel, beam, eta * self._budget_w, derive_seed(self.seed, "frame", t)
        )
        value = compute_resi(matched_filter(grid, self._window), grid, self._null_mask).value
        self.cells[(t, beam, eta)] = value
        return value


class WorldCacheInfo(NamedTuple):
    worlds: int
    frames: int
    max_frames: int
    world_hits: int
    world_misses: int
    cell_hits: int
    cell_misses: int


class WorldCache:
    """Least-recently-used episode worlds, bounded by the frames they hold.

    Safe under concurrent episodes: a lock guards the table, the counters
    and every world's growth. Two episodes may measure the same cell at
    once; both compute the same float.
    """

    def __init__(self, max_frames: int) -> None:
        self.max_frames = max_frames
        self._lock = threading.Lock()
        self._worlds: OrderedDict[tuple, EpisodeWorld] = OrderedDict()
        self._frames = 0
        self._counts = [0, 0, 0, 0]  # world hits, world misses, cell hits, cell misses

    def world(self, scenario: ScenarioConfig, seed: int, n_frames: int) -> EpisodeWorld:
        """The world of (scenario, seed), grown to at least ``n_frames``."""
        # derive_seed hashes repr(seed), so 3 and np.int64(3) are different seeds.
        key = (scenario, type(seed), seed)
        with self._lock:
            world = self._worlds.get(key)
            if world is None:
                world = self._worlds[key] = EpisodeWorld(scenario, seed)
                self._counts[1] += 1
            else:
                self._worlds.move_to_end(key)
                self._counts[0] += 1
            held = len(world.targets)
            world.extend(n_frames)
            self._frames += len(world.targets) - held
            # A world larger than the bound serves its episode but is not kept.
            while self._frames > self.max_frames:
                self._frames -= len(self._worlds.popitem(last=False)[1].targets)
        return world

    def count_cells(self, hits: int, misses: int) -> None:
        with self._lock:
            self._counts[2] += hits
            self._counts[3] += misses

    def cache_info(self) -> WorldCacheInfo:
        with self._lock:
            return WorldCacheInfo(len(self._worlds), self._frames, self.max_frames, *self._counts)

    def cache_clear(self) -> None:
        with self._lock:
            self._worlds.clear()
            self._frames = 0
            self._counts = [0, 0, 0, 0]


WORLDS = WorldCache(MAX_WORLD_FRAMES)


def run_episode(
    scenario: ScenarioConfig,
    thresholds: Sequence[float],
    actions: StateActionTable = DEFAULT_ACTIONS,
    seed: int = 0,
    fidelity: float = 1.0,
) -> EpisodeTrace:
    """Simulate the closed loop for ``ceil(fidelity * frame_count)`` frames.

    The state after frame t sets the power and cadence of frame t+1 (frame 0
    uses state 0). While in state 0 the beam sweeps cyclically; any higher
    state holds the beam that produced the echo. Frames skipped by the
    cadence spend no sensing power and keep the last measured value as the
    current belief. Noise and motion draw from per-frame seeds derived from
    ``seed``, so the randomness a candidate threshold vector faces does not
    depend on the decisions it makes. That is what lets every episode of a
    (scenario, seed) replay one shared :class:`EpisodeWorld` from ``WORLDS``.
    """
    if not 0.0 < fidelity <= 1.0:
        raise ValueError("fidelity must lie in (0, 1]")
    t1, t2, t3 = check_thresholds(thresholds)
    n_frames = math.ceil(fidelity * scenario.frame_count)
    world = WORLDS.world(scenario, seed, n_frames)
    targets, bearings, cells = world.targets, world.bearings, world.cells

    resi = np.zeros(n_frames)
    states = np.zeros(n_frames, dtype=np.int64)
    in_region = np.zeros(n_frames, dtype=bool)
    in_beam = np.zeros(n_frames, dtype=bool)
    power = np.zeros(n_frames)

    state = 0
    sweep_ptr = 0
    beam = 0
    frames_since_measure = 0
    belief = 0.0  # last measured echo strength
    measured = misses = 0

    for t in range(n_frames):
        if state == 0:
            beam = sweep_ptr
            sweep_ptr = (sweep_ptr + 1) % scenario.n_beams

        frames_since_measure += 1
        if frames_since_measure >= actions.period_multipliers[state]:
            frames_since_measure = 0
            eta = actions.power_factors[state]
            belief = cells.get((t, beam, eta))
            if belief is None:
                belief = world.measure(t, beam, eta)
                misses += 1
            measured += 1
            resi[t] = belief
            # classify(belief, thresholds), with the check done once above.
            states[t] = 0 if belief <= t1 else 1 if belief <= t2 else 2 if belief <= t3 else 3
            power[t] = eta
        else:
            resi[t] = belief
            states[t] = state
            power[t] = 0.0

        in_region[t] = targets[t].inside_region
        in_beam[t] = scenario.beam_contains(beam, bearings[t])
        state = int(states[t])

    WORLDS.count_cells(measured - misses, misses)
    return EpisodeTrace(
        resi=resi, states=states, in_region=in_region, in_beam=in_beam,
        power=power, horizon=n_frames,
    )


class DetectionReliability(NamedTuple):
    value: float
    vacuous: bool


def detection_reliability(trace: EpisodeTrace, thresholds: Sequence[float]) -> DetectionReliability:
    """Fraction of in-region frames with the beam on target and echo above t1.

    When the target never enters the region the metric is vacuously 1 and
    flagged, so callers can exclude it from aggregates.
    """
    eligible = int(np.sum(trace.in_region))
    if eligible == 0:
        return DetectionReliability(1.0, True)
    hits = int(np.sum(trace.in_beam & (trace.resi > thresholds[0])))
    return DetectionReliability(hits / eligible, False)


def sensing_latency(trace: EpisodeTrace, thresholds: Sequence[float]) -> int:
    """Frames spent below the locked state while the target is in region.

    If no frame ever exceeds t1 the full horizon is returned.
    """
    if not np.any(trace.resi > thresholds[0]):
        return trace.horizon
    return int(np.sum(trace.in_region & (trace.states < 3)))


def power_overhead(trace: EpisodeTrace) -> float:
    """Mean sensing power spent, as a fraction of the budget."""
    return float(np.mean(trace.power))


@dataclass(frozen=True)
class ObjectiveValues:
    j_det: float
    j_lat: float
    j_pow: float
    scalar_cost: float
    det_vacuous: bool = False


def check_weights(weights: tuple[float, float, float]) -> None:
    """Reject objective weights that are negative or all zero."""
    w_det, w_lat, w_pow = weights
    if w_det < 0 or w_lat < 0 or w_pow < 0 or w_det + w_lat + w_pow == 0:
        raise ValueError("weights must be nonnegative and not all zero")


def scalarize(
    j_det: float,
    j_lat: float,
    j_pow: float,
    horizon: int,
    weights: tuple[float, float, float] = (1.0, 0.0, 0.0),
) -> float:
    """Weighted cost: miss fraction + normalized latency + power overhead."""
    check_weights(weights)
    w_det, w_lat, w_pow = weights
    return w_det * (1.0 - j_det) + w_lat * (j_lat / horizon) + w_pow * j_pow


def episode_objectives(
    trace: EpisodeTrace,
    thresholds: Sequence[float],
    weights: tuple[float, float, float] = (1.0, 0.0, 0.0),
) -> ObjectiveValues:
    det = detection_reliability(trace, thresholds)
    lat = sensing_latency(trace, thresholds)
    pow_frac = power_overhead(trace)
    cost = scalarize(det.value, lat, pow_frac, trace.horizon, weights)
    return ObjectiveValues(
        j_det=det.value, j_lat=float(lat), j_pow=pow_frac,
        scalar_cost=cost, det_vacuous=det.vacuous,
    )
