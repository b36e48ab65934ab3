"""Threshold-driven sensing feedback loop and episode objectives.

Each frame's echo-strength value is classified into one of four hypothesis
states by three ordered thresholds. The state chosen at frame t drives the
feedback actions applied at frame t+1: how much of the power budget the next
sensing transmission uses, how often a measurement is taken, and whether the
beam keeps sweeping (nothing seen yet) or holds on the sector that produced
the echo (candidate/detected/locked).

An episode splits into an :class:`EpisodeWorld`, what the thresholds cannot
change, and a replay of the decisions over it. A world holds the target's
states and bearings and the echo strength of each (frame, beam, power
factor) cell visited so far. A visit to a frame builds the frame's channel
and noise draw anew (:func:`radar.build_frame`), once for all the cells it
measures, and keeps none of it.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .radar import build_frame, cell_constants, measure_cell, realize_channel
# Not used here: the benchmark tracer wraps these three names at this import
# site (perfbench/tracer.py SITES) until it reads counters kept inside the
# package (ROADMAP item 4b).
from .radar import compute_resi, matched_filter, synthesize_rx_grid  # noqa: F401
from .scenario import (ScenarioConfig, TargetState, check_integers, initial_target_state,
                       propagate_target)
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
        check_integers(self, ("period_multipliers",))
        if any(p < 1 for p in self.period_multipliers):
            raise ValueError("period multipliers must be positive integers")


DEFAULT_ACTIONS = StateActionTable()


@dataclass(frozen=True)
class EpisodeTrace:
    """Per-frame record of one closed-loop sensing episode."""

    resi: np.ndarray
    states: np.ndarray
    in_beam: np.ndarray
    power: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        n = self.horizon
        series = (self.resi, self.states, self.in_beam, self.power)
        if any(len(s) != n for s in series):
            raise ValueError("all series must cover the horizon")
        if np.any(self.power < 0) or np.any(self.power > 1):
            raise ValueError("power fractions must lie in [0, 1]")


class EpisodeWorld:
    """The part of an episode that the thresholds cannot change.

    Target motion is a pure function of (scenario, seed, frame), and a
    frame's echo strength is a pure function of those plus the beam and
    power factor the loop chooses. The world propagates the target up to
    the longest prefix asked of it and measures each (frame, beam, power
    factor) cell once, on first visit. It holds the targets, their bearings
    and the measured floats, nothing per frame beyond them: each visit
    builds the frame (channel and noise draw) anew, once for all the cells
    it measures. Replays under any thresholds and action table then read
    the stored floats.
    """

    def __init__(self, scenario: ScenarioConfig, seed: int) -> None:
        self.scenario = scenario
        self.seed = seed
        self.targets: list[TargetState] = []
        self.bearings: list[float] = []  # target angle seen from the BS
        self.cells: dict[tuple[int, int, float], float] = {}
        # Looked up once: each lookup hashes the whole scenario.
        self._const = cell_constants(scenario)
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

    def measure(self, t: int, cells: Sequence[tuple[int, float]]) -> None:
        """Measure frame ``t`` under each (beam, power factor) of ``cells``
        into ``self.cells``, from one draw of the frame's noise."""
        channel = realize_channel(self.scenario, self.targets[t])
        frame = build_frame(self._const, channel, derive_seed(self.seed, "frame", t))
        for beam, eta in cells:
            self.cells[(t, beam, eta)] = measure_cell(
                self._const, frame, beam, eta * self._budget_w
            )


# The world each thread replayed last (``_SLOT.world``). Threads never share
# a world, so no lock is needed, and at most one per thread is held.
_SLOT = threading.local()


def _closed_loop(
    thresholds: tuple[float, float, float],
    actions: StateActionTable,
    scenario: ScenarioConfig,
    bearings: list[float],
    out: tuple[list, list, list, list],
):
    """One episode's decisions, a frame per step. At each frame it yields
    the cell it measures, ``(t, beam, power factor)``, and is sent that
    cell's echo strength, or yields None and is sent None when the cadence
    skips the frame. It appends the frame to ``out`` (resi, states, in_beam,
    power). It never ends by itself: the caller stops sending after the last
    frame, so the decision it yields for the frame after is never used."""
    t1, t2, t3 = thresholds
    resi, states, in_beam, power = out
    periods, factors = actions.period_multipliers, actions.power_factors
    state = sweep_ptr = beam = frames_since_measure = 0
    belief = 0.0  # last measured echo strength
    for t in itertools.count():
        if state == 0:
            beam = sweep_ptr
            sweep_ptr = (sweep_ptr + 1) % scenario.n_beams

        frames_since_measure += 1
        if frames_since_measure >= periods[state]:
            frames_since_measure = 0
            eta = factors[state]
            belief = yield (t, beam, eta)
            # classify(belief, thresholds), with the check done once per episode.
            state = 0 if belief <= t1 else 1 if belief <= t2 else 2 if belief <= t3 else 3
            power.append(eta)
        else:
            yield None
            power.append(0.0)
        resi.append(belief)
        states.append(state)
        in_beam.append(scenario.beam_contains(beam, bearings[t]))


def run_episodes(
    scenario: ScenarioConfig,
    triples: Sequence[Sequence[float]],
    seeds: Sequence[int],
    actions: StateActionTable = DEFAULT_ACTIONS,
    fidelity: float = 1.0,
) -> list[EpisodeTrace]:
    """Simulate the closed loop of every threshold triple, ``triples[i]`` on
    ``seeds[i]``, for ``ceil(fidelity * frame_count)`` frames.

    The state after frame t sets the power and cadence of frame t+1 (frame 0
    uses state 0). While in state 0 the beam sweeps cyclically; any higher
    state holds the beam that produced the echo. Frames skipped by the
    cadence spend no sensing power and keep the last measured value as the
    current belief. Noise and motion draw from per-frame seeds derived from
    the episode's seed, so the randomness a candidate threshold vector faces
    does not depend on the decisions it makes. That is what lets every
    episode of a (scenario, seed) replay one :class:`EpisodeWorld`.

    The episodes are grouped by seed, in order of first appearance, and the
    groups run one after another. Within a group the episodes advance in
    lockstep, a frame at a time, and the cells they miss at a frame are
    measured together from one draw of its noise. Each thread keeps the
    world it replayed last and grows it for the next group on the same
    scenario and seed (IPN's line-search probes after its stencil); a group
    on any other seed replaces it. The seeds and triples are checked before
    any frame runs. Each trace equals, bit for bit, the one its triple gives
    alone on its seed.
    """
    if len(seeds) != len(triples):
        raise ValueError("need one seed per threshold triple")
    if not 0.0 < fidelity <= 1.0:
        raise ValueError("fidelity must lie in (0, 1]")
    checked = [check_thresholds(t) for t in triples]
    n_frames = math.ceil(fidelity * scenario.frame_count)
    # derive_seed hashes repr(seed), so 3 and np.int64(3) are different seeds.
    groups: dict[tuple[type, int], list[int]] = {}
    for i, seed in enumerate(seeds):
        groups.setdefault((type(seed), seed), []).append(i)
    traces: dict[int, EpisodeTrace] = {}
    for (_, seed), members in groups.items():
        world = getattr(_SLOT, "world", None)
        if world is None or (world.scenario, type(world.seed), world.seed) != (
            scenario, type(seed), seed
        ):
            world = _SLOT.world = EpisodeWorld(scenario, seed)
        world.extend(n_frames)
        cells = world.cells
        outs = [([], [], [], []) for _ in members]
        loops = [_closed_loop(checked[i], actions, scenario, world.bearings, out)
                 for i, out in zip(members, outs)]
        wanted = [next(loop) for loop in loops]

        for t in range(n_frames):
            missing = []
            for key in wanted:
                if key is not None and key not in cells and key not in missing:
                    missing.append(key)
            if missing:
                world.measure(t, [key[1:] for key in missing])
            asked, wanted = wanted, []
            for loop, key in zip(loops, asked):
                wanted.append(loop.send(None if key is None else cells[key]))

        for i, (resi, states, in_beam, power) in zip(members, outs):
            traces[i] = EpisodeTrace(
                resi=np.array(resi, dtype=float),
                states=np.array(states, dtype=np.int64),
                in_beam=np.array(in_beam, dtype=bool),
                power=np.array(power, dtype=float),
                horizon=n_frames,
            )
    return [traces[i] for i in range(len(checked))]


def run_episode(
    scenario: ScenarioConfig,
    thresholds: Sequence[float],
    actions: StateActionTable = DEFAULT_ACTIONS,
    seed: int = 0,
    fidelity: float = 1.0,
) -> EpisodeTrace:
    """The closed loop of one threshold triple: :func:`run_episodes` of a
    batch of one."""
    return run_episodes(scenario, (thresholds,), (seed,), actions, fidelity)[0]


def detection_reliability(trace: EpisodeTrace, thresholds: Sequence[float]) -> float:
    """Fraction of frames with the beam on the target and the echo above t1.

    The target never leaves the region (``propagate_target``), so every
    frame counts.
    """
    hits = int(np.sum(trace.in_beam & (trace.resi > thresholds[0])))
    return hits / trace.horizon


def sensing_latency(trace: EpisodeTrace, thresholds: Sequence[float]) -> int:
    """Frames spent below the locked state.

    If no frame ever exceeds t1 the full horizon is returned.
    """
    if not np.any(trace.resi > thresholds[0]):
        return trace.horizon
    return int(np.sum(trace.states < 3))


def power_overhead(trace: EpisodeTrace) -> float:
    """Mean sensing power spent, as a fraction of the budget."""
    return float(np.mean(trace.power))


@dataclass(frozen=True)
class ObjectiveValues:
    j_det: float
    j_lat: float
    j_pow: float
    scalar_cost: float


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
    cost = scalarize(det, lat, pow_frac, trace.horizon, weights)
    return ObjectiveValues(j_det=det, j_lat=float(lat), j_pow=pow_frac, scalar_cost=cost)
