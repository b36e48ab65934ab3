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
by its frame's index in the block (:func:`radar.measure_cell`). Both
stacks are built from targets and noise seed words alone
(:func:`_build_stack`), and none is kept past the call that built it.
Only a one-seed batch's world outlives the call, held for the next
one-seed batch on its scenario and seed; a batch of several seeds streams
them all.

A paper-scale batch of several seeds runs its worlds in two halves, one
on a thread started for the call (:func:`run_episodes`). numpy releases
the GIL while a frame's noise generator fills, so one half's draws overlap
the other's draws and Python work, and since every trace is a function of
its scenario, seed and triple alone, the split moves no byte.
"""

from __future__ import annotations

import itertools
import math
import os
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
    once, on first visit (:func:`run_episodes`). A one-seed batch's world
    is kept: it holds every target, its bearing and every measured float,
    so replays under any thresholds and action table read the stored
    floats and grow its prefix only where none reached, to the end of each
    block built (:meth:`grow`). Each world of a several-seed batch streams
    (``keep=False``), holding those of the current frame only. Both hold
    the noise seed words of every frame a call has asked for
    (:func:`_seed_frames`), and nothing else per frame: no built frame
    (channel, noise draw and surfaces) outlives the call that built it, so
    a later call that misses a cell of a frame builds that frame anew.
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
    ``n_frames``, mixed in one pass per world that lacks any:
    :func:`radar.noise_words` of the frame seeds ``derive_seed(seed,
    "frame", t)`` (:func:`seeding.frame_seeds`). A pass has a fixed cost
    that one stack's frames would not repay, so it covers a call's frames
    up front, the ones the cadence will skip included; a pass per world
    keeps a batch's transient arrays those of one world, whatever its
    seed count."""
    for world in worlds:
        if len(world.words) < n_frames:
            world.words = np.concatenate(
                (world.words, noise_words(frame_seeds(world.seed, len(world.words), n_frames))))


# How many frames a one-seed batch builds as one stack, its block, whose
# cells it measures one at a time by frame index. The cost per frame falls
# with the stack up to about 8 paper or 16 desk frames and is flat beyond
# (CHANGES.md). A block draws its noise a chunk of at most
# radar.DRAW_NORMALS normals at a time: a desk block all at once, a paper
# block three frames (192 KB) at a time, so its draw memory does not grow
# with BLOCK_FRAMES. A one-seed batch never splits, so a block is built on
# the caller's thread alone; a split batch's halves build world stacks.
BLOCK_FRAMES = 16


def _build_stack(
    const: CellConstants, scenario: ScenarioConfig, targets: Sequence[TargetState],
    words: Sequence[np.ndarray],
) -> Frame:
    """The frame of each target, its noise seeded from its row of
    ``words``, as one stack (:func:`radar.build_frames`)."""
    return build_frames(const, [realize_channel(scenario, target) for target in targets], words)


# The world of each thread's last one-seed batch (``_SLOT.world``), None
# after a several-seed one. Threads never share a world, so need no lock.
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


# The least number of normals one frame's noise draw must hold before a
# batch of several seeds splits its worlds over two threads: one paper
# frame. On a 2-vCPU x86 VM a forced split of a 12-seed batch took 4-51 %
# longer at desk scale (1 536 normals a frame), 12-66 % longer in 10 of 11
# runs at 3 200 to 5 120, and from 31 % less to 4 % more at 8 000
# (CHANGES.md). Every desk batch stays on one thread.
SPLIT_NORMALS = 8_000

_split_allowed = True


def allow_batch_split(allowed: bool) -> None:
    """Let this process run half of a large batch's worlds on a second
    thread, or not. ``bench``'s pool workers turn it off: their repetitions
    already fill the CPUs."""
    global _split_allowed
    _split_allowed = allowed


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _lockstep(
    const: CellConstants,
    runs: Sequence[tuple[EpisodeWorld, list]],
    n_frames: int,
) -> None:
    """Advance every episode of ``runs``, one ``(world, loops)`` pair per
    seed group, through ``n_frames`` frames in one lockstep, measuring the
    cells they miss at each frame together: the streaming worlds' frames in
    one stack, their cells in one pass (:func:`radar.measure_cells`), or a
    kept world's, the one world of a one-seed batch, in a block of
    :data:`BLOCK_FRAMES` frames from a frame where it misses a cell past its
    last block on, each cell by its frame's index in the block
    (:func:`radar.measure_cell`). It first mixes each world's missing noise
    seed words (:func:`_seed_frames`)."""
    worlds = [world for world, _ in runs]
    _seed_frames(worlds, n_frames)
    scenario = worlds[0].scenario
    budget_w = scenario.tx_power_w
    wanted = [[next(loop) for loop in loops] for _, loops in runs]
    # A kept world's stack ``block`` holds frames start to stop - 1.
    block, start, stop = None, 0, 0
    for t in range(n_frames):
        requests = []
        for world, keys in zip(worlds, wanted):
            world.advance(t)
            missing = []
            for key in keys:
                if key is not None and key not in world.cells and key not in missing:
                    missing.append(key)
            if missing:
                requests.append((world, missing))
        if requests and worlds[0].keep:
            [(world, keys)] = requests
            if t >= stop:
                block = None  # the loop has passed it: free it before the next
                start, stop = t, min(t + BLOCK_FRAMES, n_frames)
                world.grow(stop)  # motion does not depend on the thresholds
                block = _build_stack(const, scenario, world.targets[start:stop],
                                     world.words[start:stop])
            for key in keys:
                world.cells[key] = measure_cell(const, block, t - start, key[1],
                                                key[2] * budget_w)
        elif requests:
            frames = _build_stack(const, scenario, [world.target for world, _ in requests],
                                  [world.words[t] for world, _ in requests])
            asked = [(b, world, key) for b, (world, keys) in enumerate(requests) for key in keys]
            values = measure_cells(const, frames,
                                   [(b, key[1], key[2] * budget_w) for b, _, key in asked])
            for (_, world, key), value in zip(asked, values):
                world.cells[key] = value
        for (world, loops), keys in zip(runs, wanted):
            cells = world.cells
            for j, loop in enumerate(loops):
                key = keys[j]
                keys[j] = loop.send(None if key is None else cells[key])


def _split_lockstep(
    const: CellConstants,
    runs: Sequence[tuple[EpisodeWorld, list]],
    n_frames: int,
) -> None:
    """:func:`_lockstep` of the first half of ``runs`` on a thread started
    here, and of the second half on this thread, both in stacks of their
    streaming worlds. This thread joins the other before returning or
    raising, and then raises the other's error. Where no thread can start
    (as at the interpreter's shutdown), this thread runs every world."""
    half = len(runs) // 2
    errors = []

    def run_half() -> None:
        try:
            _lockstep(const, runs[:half], n_frames)
        except BaseException as error:  # raised in the caller, after the join
            errors.append(error)

    helper = threading.Thread(target=run_half, name="racecma-half")
    try:
        helper.start()
    except RuntimeError:
        _lockstep(const, runs, n_frames)
        return
    try:
        _lockstep(const, runs[half:], n_frames)
    finally:
        helper.join()
    if errors:
        raise errors[0]


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
    worlds as one stack. A batch of one seed builds blocks instead: at a
    frame where it misses a cell past its last block, that frame and the
    next ones, :data:`BLOCK_FRAMES` in all, become one stack, kept until the
    loop has passed them, and each cell is measured by its frame's index in
    the stack; a frame of it no episode measures is drawn all the same.
    Each thread keeps the world of its last one-seed batch, whole, and the
    next one-seed batch on the same scenario and seed replays and grows it
    (IPN's line-search probes after its stencil). A batch of several seeds
    streams every world, each holding the current frame's target, bearing
    and cells only, and leaves the thread holding none, so no world of it
    outlives the call. Before the first frame, one
    pass per world mixes the noise seed words of every frame it lacks
    (:func:`_seed_frames`).

    A batch of several seeds splits where it pays: a frame's noise draw
    holds at least :data:`SPLIT_NORMALS` normals, the process may run on two
    CPUs or more, and it allows the split (``bench``'s pool workers do
    not). A thread started for the call then runs the first half of the
    worlds in a lockstep of world stacks, while this thread runs the
    second half in another (:func:`_split_lockstep`). No thread outlives
    the call, so a forked child inherits none.

    The seeds and triples are checked before any frame runs, and an empty
    batch returns ``[]`` with the thread's world kept. Each trace equals,
    bit for bit, the one its triple gives alone on its seed.
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
    held = getattr(_SLOT, "world", None)
    if (len(groups) == 1 and held is not None and held.scenario == scenario
            and (type(held.seed), held.seed) in groups):
        worlds = [held]
    else:
        worlds = [EpisodeWorld(scenario, seed, keep=len(groups) == 1) for _, seed in groups]
    # Replacing the slot now frees the world it held, unless this batch
    # replays it, before any frame runs.
    held = None
    _SLOT.world = worlds[0] if worlds[0].keep else None

    const = cell_constants(scenario)  # looked up once: each lookup hashes the scenario
    outs = [(np.empty(n_frames), np.empty(n_frames, dtype=np.int64),
             np.empty(n_frames, dtype=bool), np.empty(n_frames)) for _ in checked]
    runs = [(world, [_closed_loop(checked[i], actions, world, outs[i]) for i in members])
            for world, members in zip(worlds, groups.values())]
    if (len(runs) > 1 and 2 * const.pilot.size >= SPLIT_NORMALS and _split_allowed
            and _cpu_count() >= 2):
        _split_lockstep(const, runs, n_frames)
    else:
        _lockstep(const, runs, n_frames)
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
    """Reject objective weights that are not finite, negative or all zero."""
    w_det, w_lat, w_pow = weights
    if not all(math.isfinite(w) for w in weights):
        raise ValueError("weights must be finite")
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
