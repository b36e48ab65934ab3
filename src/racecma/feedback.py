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
factor) cell visited so far. The episodes of a batch, whatever their seeds,
advance in one lockstep, a frame at a time, and the cells they miss at a
frame are measured together: one channel and noise draw per world that
misses any, and the frames and cells of all such worlds as one stack
(:func:`radar.build_frames`, :func:`radar.measure_cells`). A batch of one
seed builds a block of :data:`BLOCK_FRAMES` frames, one stack, at each
frame where it misses a cell past its last block, and measures each cell
on its frame of the block (:func:`radar.measure_cell`). Every frame is
built in a stack, and none is kept past the call that built it.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .radar import (CellConstants, Frame, build_frames, cell_constants, measure_cell,
                    measure_cells, noise_words, realize_channel)
from .scenario import (ScenarioConfig, TargetState, check_fields, initial_target_state,
                       propagate_target)
from .seeding import frame_seeds
# Not used here: the benchmark tracer wraps these four names at this import
# site (perfbench/tracer.py SITES) until it reads counters kept inside the
# package (ROADMAP item 2b).
from .radar import compute_resi, matched_filter, synthesize_rx_grid  # noqa: F401
from .seeding import derive_seed  # noqa: F401


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
        check_fields(self)
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
    power factor the loop chooses. A world walks the target through the
    frames in order and measures each (frame, beam, power factor) cell
    once, on first visit (:func:`run_episodes`). A kept world holds every
    target, its bearing and every measured float, so replays under any
    thresholds and action table read the stored floats and grow its prefix
    only where none reached; a one-seed batch grows it to the end of each
    block it builds (:meth:`grow`). A streaming world (``keep=False``)
    holds those of the current frame only. Both hold the noise seed words
    of every frame a call has asked for (:func:`_seed_frames`), and nothing
    else per frame: no built frame (channel, noise draw and surfaces)
    outlives the call that built it, so a later call that misses a cell of
    a frame builds that frame anew, in a block.
    """

    def __init__(self, scenario: ScenarioConfig, seed: int, keep: bool = True) -> None:
        self.scenario = scenario
        self.seed = seed
        self.keep = keep
        self.targets: list[TargetState] = []
        self.bearings: list[float] = []  # target angle seen from the BS
        self.cells: dict[tuple[int, int, float], float] = {}
        self.target: TargetState | None = None  # the current frame's
        self.bearing = math.nan
        self.words = np.empty((0, 4), dtype=np.uint64)  # a row per frame: radar.noise_words

    def advance(self, t: int) -> None:
        """Make frame ``t`` current: in a kept world any frame, grown to it
        if no target reached it yet; in a streaming world frame 0 or the
        frame after the current one."""
        if self.keep:
            if t >= len(self.targets):
                self.grow(t + 1)
            self.target, self.bearing = self.targets[t], self.bearings[t]
        else:
            self.target, self.bearing = self._step(t, self.target)
            self.cells.clear()

    def grow(self, n_frames: int) -> None:
        """Walk a kept world's target through every frame before
        ``n_frames`` that no target reached yet."""
        for t in range(len(self.targets), n_frames):
            target, bearing = self._step(t, self.targets[-1] if t else None)
            self.targets.append(target)
            self.bearings.append(bearing)

    def _step(self, t: int, before: TargetState | None) -> tuple[TargetState, float]:
        """Frame ``t``'s target and bearing, from frame t-1's target
        ``before`` (None for frame 0)."""
        sc = self.scenario
        if t == 0:
            before = initial_target_state(sc, self.seed)
        # The motion seed's parts: propagate_target derives it only on a
        # reflection it jitters.
        target = propagate_target(before, sc.frame_duration, (self.seed, "motion", t),
                                  sc.region, sc.heading_jitter)
        bs = sc.bs_position
        return target, math.atan2(target.position[1] - bs[1], target.position[0] - bs[0])


def _seed_frames(worlds: Sequence[EpisodeWorld], n_frames: int) -> None:
    """Give each world the noise seed words of its frames before
    ``n_frames``, mixed in one pass over every frame the worlds lack:
    :func:`radar.noise_words` of the frame seeds ``derive_seed(seed,
    "frame", t)`` (:func:`seeding.frame_seeds`). The pass has a fixed cost
    that one stack's frames would not repay, so it covers a call's frames
    up front, the ones the cadence will skip included."""
    lacking = [world for world in worlds if len(world.words) < n_frames]
    if not lacking:
        return
    words = noise_words([seed for world in lacking
                         for seed in frame_seeds(world.seed, len(world.words), n_frames)])
    start = 0
    for world in lacking:
        end = start + n_frames - len(world.words)
        world.words = np.concatenate((world.words, words[start:end]))  # its own copy
        start = end


# How many frames a one-seed batch builds as one stack. The cost per
# frame falls with the stack up to about 8 paper or 16 desk frames and is
# flat beyond (CHANGES.md); sixteen paper frames draw 1 MB of noise at once.
# A stack draws its noise on two threads from radar.SPLIT_NORMALS normals a
# share on: a paper block does, a desk block does not.
BLOCK_FRAMES = 16


def _build_block(const: CellConstants, world: EpisodeWorld, start: int, stop: int) -> Frame:
    """Frames ``start`` to ``stop - 1`` of a kept world as one stack, its
    targets grown to ``stop`` first: motion does not depend on the
    thresholds."""
    world.grow(stop)
    scenario = world.scenario
    return build_frames(const, [realize_channel(scenario, target)
                                for target in world.targets[start:stop]],
                        world.words[start:stop])


def _measure_frame(
    const: CellConstants,
    scenario: ScenarioConfig,
    t: int,
    requests: Sequence[tuple[EpisodeWorld, Sequence[tuple[int, int, float]]]],
) -> None:
    """Measure the missing cells ``(t, beam, power factor)`` of each
    ``(world, cells)`` request at its current frame ``t`` into
    ``world.cells``, from one draw of each world's noise: the worlds' frames
    as one stack and their cells as one stack."""
    budget_w = scenario.tx_power_w
    frames = build_frames(const,
                          [realize_channel(scenario, world.target) for world, _ in requests],
                          [world.words[t] for world, _ in requests])
    cells = [(b, world, key) for b, (world, keys) in enumerate(requests) for key in keys]
    values = measure_cells(const, frames,
                           [(b, key[1], key[2] * budget_w) for b, _, key in cells])
    for (_, world, key), value in zip(cells, values):
        world.cells[key] = value


# The world each thread replayed last (``_SLOT.world``). Threads never share
# a world, so no lock is needed, and at most one per thread is held.
_SLOT = threading.local()


def _closed_loop(
    thresholds: tuple[float, float, float],
    actions: StateActionTable,
    world: EpisodeWorld,
    out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
):
    """One episode's decisions, a frame per step. At each frame it yields
    the cell it measures, ``(t, beam, power factor)``, and is sent that
    cell's echo strength, or yields None and is sent None when the cadence
    skips the frame. It then writes frame t of ``out`` (resi, states,
    in_beam, power), with ``world``'s current bearing. It never ends by
    itself: the caller stops sending after the last frame, so the decision
    it yields for the frame after is never used."""
    t1, t2, t3 = thresholds
    # Item writes through a memoryview cost half of numpy's.
    resi, states, in_beam, power = map(memoryview, out)
    scenario = world.scenario
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
            power[t] = eta
        else:
            yield None
            power[t] = 0.0
        resi[t] = belief
        states[t] = state
        in_beam[t] = scenario.beam_contains(beam, world.bearing)


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

    The episodes are grouped by seed, in order of first appearance, one
    world per group, and every episode of every group advances in one
    lockstep, a frame at a time, writing into arrays allocated up front.
    At each frame the cells the episodes miss are measured together: one
    noise draw per world that misses any, the frames and cells of all such
    worlds as one stack (:func:`_measure_frame`). A batch of one seed
    builds blocks instead: at a frame where it misses a cell past its last
    block, that frame and the next ones, :data:`BLOCK_FRAMES` in all, become
    one stack, kept until the loop has passed them, and each cell is
    measured on its frame of the stack; a frame of it no episode measures
    is drawn all the same. Each thread keeps the world of the last group,
    whole, and grows it for the next call on the same scenario and seed
    (IPN's line-search probes after its stencil); the first group starts
    from it if it is that group's. The other groups' worlds stream: each
    holds the current frame's target, bearing and cells only. Before the
    first frame, one pass mixes the noise seed words of every frame the
    worlds lack (:func:`_seed_frames`). The seeds and triples are checked
    before any frame runs, and an empty batch returns ``[]`` with the
    thread's world kept. Each trace equals, bit for bit, the one its triple
    gives alone on its seed.
    """
    if len(seeds) != len(triples):
        raise ValueError("need one seed per threshold triple")
    if not 0.0 < fidelity <= 1.0:
        raise ValueError("fidelity must lie in (0, 1]")
    checked = [check_thresholds(t) for t in triples]
    if not checked:
        return []
    n_frames = math.ceil(fidelity * scenario.frame_count)
    # derive_seed hashes repr(seed), so 3 and np.int64(3) are different seeds.
    groups: dict[tuple[type, int], list[int]] = {}
    for i, seed in enumerate(seeds):
        groups.setdefault((type(seed), seed), []).append(i)
    worlds = []
    for g, (kind, seed) in enumerate(groups):
        held = getattr(_SLOT, "world", None) if g == 0 else None
        if held is not None and (held.scenario, type(held.seed), held.seed) == (
            scenario, kind, seed
        ):
            worlds.append(held)
        else:
            worlds.append(EpisodeWorld(scenario, seed, keep=g == len(groups) - 1))
    # Replacing the slot now frees the world it held, unless the first
    # group replays it, before any frame runs.
    held = None
    _SLOT.world = worlds[-1]
    _seed_frames(worlds, n_frames)

    const = cell_constants(scenario)  # looked up once: each lookup hashes the scenario
    budget_w = scenario.tx_power_w
    world_of = [None] * len(checked)
    for world, members in zip(worlds, groups.values()):
        for i in members:
            world_of[i] = world
    outs = [(np.empty(n_frames), np.empty(n_frames, dtype=np.int64),
             np.empty(n_frames, dtype=bool), np.empty(n_frames)) for _ in checked]
    loops = [_closed_loop(thresholds, actions, world, out)
             for thresholds, world, out in zip(checked, world_of, outs)]
    wanted = [next(loop) for loop in loops]

    # A one-seed batch's stack ``block`` holds frames start to stop - 1.
    block, start, stop = None, 0, 0
    for t in range(n_frames):
        requests = []
        for world, members in zip(worlds, groups.values()):
            world.advance(t)
            missing = []
            for i in members:
                key = wanted[i]
                if key is not None and key not in world.cells and key not in missing:
                    missing.append(key)
            if missing:
                requests.append((world, missing))
        if requests and len(worlds) == 1:
            [(world, keys)] = requests
            if t >= stop:
                block = None  # the loop has passed it: free it before the next
                start, stop = t, min(t + BLOCK_FRAMES, n_frames)
                block = _build_block(const, world, start, stop)
            frame = block.at(t - start)
            for key in keys:
                world.cells[key] = measure_cell(const, frame, key[1], key[2] * budget_w)
        elif requests:
            _measure_frame(const, scenario, t, requests)
        for i, loop in enumerate(loops):
            key = wanted[i]
            wanted[i] = loop.send(None if key is None else world_of[i].cells[key])

    return [EpisodeTrace(resi=resi, states=states, in_beam=in_beam, power=power,
                         horizon=n_frames) for resi, states, in_beam, power in outs]


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
