"""Episode worlds: a replay over a warm world equals a cold episode bit for bit,
both match the radar chain, and each thread keeps only the world of its last
one-seed batch."""

import gc
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from racecma import IsacObjective, classify, desk_scenario, run_episode, run_episodes
from racecma import feedback as feedback_mod
from racecma import radar as radar_mod
from racecma import scenario as scenario_mod
from racecma import seeding as seeding_mod
from racecma.feedback import (EpisodeTrace, EpisodeWorld, InfeasibleThresholdsError,
                              StateActionTable)
from racecma.radar import compute_resi, matched_filter, realize_channel, synthesize_rx_grid
from racecma.scenario import ScenarioConfig, initial_target_state, propagate_target
from racecma.seeding import derive_seed, seed_words


def reference_episode(scenario, thresholds, actions, seed, fidelity) -> EpisodeTrace:
    """The closed loop with no world: every measured frame runs the radar chain
    and the motion seed is derived on every frame."""
    n_frames = math.ceil(fidelity * scenario.frame_count)
    target = initial_target_state(scenario, seed)
    resi = np.zeros(n_frames)
    power = np.zeros(n_frames)
    states = np.zeros(n_frames, dtype=np.int64)
    in_beam = np.zeros(n_frames, dtype=bool)
    state = sweep_ptr = beam = since = 0
    belief = 0.0
    for t in range(n_frames):
        target = propagate_target(target, scenario.frame_duration,
                                  derive_seed(seed, "motion", t), scenario.region,
                                  scenario.heading_jitter)
        if state == 0:
            beam, sweep_ptr = sweep_ptr, (sweep_ptr + 1) % scenario.n_beams
        since += 1
        if since >= actions.period_multipliers[state]:
            since = 0
            eta = actions.power_factors[state]
            grid = synthesize_rx_grid(scenario, realize_channel(scenario, target), beam,
                                      eta * scenario.tx_power_w, derive_seed(seed, "frame", t))
            belief = compute_resi(matched_filter(grid, scenario.search_window()), grid).value
            states[t] = classify(belief, thresholds)
            power[t] = eta
        else:
            states[t] = state
        resi[t] = belief
        bs = scenario.bs_position
        in_beam[t] = scenario.beam_contains(
            beam, math.atan2(target.position[1] - bs[1], target.position[0] - bs[0]))
        state = int(states[t])
    return EpisodeTrace(resi=resi, states=states, in_beam=in_beam, power=power,
                        horizon=n_frames)


def cold_start() -> None:
    """Drop this thread's world, so the next episode builds a new one."""
    feedback_mod._SLOT.world = None


def held_world():
    return feedback_mod._SLOT.world


@pytest.fixture
def draws(monkeypatch):
    """The frame seed of each noise draw, in order, wherever it is drawn:
    a frame built in any stack seeds its draw's generator with the frame's
    row of ``seeding.frame_noise_words``, which a call mixes up front for
    every frame, drawn or not, in one pass per world."""
    drawn, seed_of = [], {}
    frame_noise_words = feedback_mod.frame_noise_words
    generator_from_words = seeding_mod.generator_from_words

    def mixed(seed, start, stop):
        words = frame_noise_words(seed, start, stop)
        seed_of.update((row.tobytes(), derive_seed(seed, "frame", t))
                       for row, t in zip(words, range(start, stop), strict=True))
        return words

    def counted(words):
        drawn.append(seed_of[words.tobytes()])
        return generator_from_words(words)

    monkeypatch.setattr(feedback_mod, "frame_noise_words", mixed)
    monkeypatch.setattr(seeding_mod, "generator_from_words", counted)
    return drawn


def assert_identical(a: EpisodeTrace, b: EpisodeTrace) -> None:
    assert a.horizon == b.horizon
    for name in ("resi", "states", "in_beam", "power"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def assert_matches_reference(trace: EpisodeTrace, reference: EpisodeTrace) -> None:
    """The episode equals the chain's: the same decisions, and each echo
    strength within 1e-12 relative, since a cell's surface is the chain's
    up to rounding."""
    assert trace.horizon == reference.horizon
    for name in ("states", "in_beam", "power"):
        assert getattr(trace, name).tobytes() == getattr(reference, name).tobytes(), name
    assert trace.resi.dtype == reference.resi.dtype
    np.testing.assert_allclose(trace.resi, reference.resi, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def short_desk():
    return desk_scenario(sensing_horizon=0.128)  # 40 frames


thresholds_st = st.lists(st.floats(0.0, 8.0), min_size=3, max_size=3).map(
    lambda v: tuple(sorted(v)))
actions_st = st.builds(
    lambda f, p: StateActionTable(tuple(sorted(f, reverse=True)), tuple(p)),
    st.lists(st.sampled_from((0.1, 0.2, 0.5, 0.8, 1.0)), min_size=4, max_size=4),
    st.lists(st.integers(1, 3), min_size=4, max_size=4),
)
fidelity_st = st.sampled_from((0.1, 0.25, 0.5, 0.8, 1.0))
episode_st = st.tuples(thresholds_st, actions_st, fidelity_st)


class TestReplay:
    @settings(max_examples=40, deadline=None)
    @given(target=episode_st, warm=st.lists(episode_st, min_size=1, max_size=3),
           seed=st.integers(0, 3))
    def test_warm_equals_cold(self, short_desk, target, warm, seed):
        cold_start()
        cold = run_episode(short_desk, *target[:2], seed, target[2])
        cold_start()
        for thresholds, actions, fidelity in warm:
            run_episode(short_desk, thresholds, actions, seed, fidelity)
        assert_identical(run_episode(short_desk, *target[:2], seed, target[2]), cold)
        assert_matches_reference(cold, reference_episode(short_desk, *target[:2], seed,
                                                         target[2]))

    @pytest.mark.parametrize("first, second", [(0.3, 1.0), (1.0, 0.3)])
    def test_prefix_in_either_order(self, desk, first, second):
        t = (1.0, 2.0, 3.0)
        cold_start()
        run_episode(desk, t, seed=5, fidelity=first)
        warm = run_episode(desk, t, seed=5, fidelity=second)
        assert_matches_reference(warm, reference_episode(desk, t, StateActionTable(), 5, second))

    def test_seed_type_is_part_of_the_world(self, short_desk):
        # derive_seed hashes repr(seed), so np.int64(3) and 3 seed different worlds.
        t = (1.0, 2.0, 3.0)
        cold_start()
        run_episode(short_desk, t, seed=3)
        world = held_world()
        assert_matches_reference(
            run_episode(short_desk, t, seed=np.int64(3)),
            reference_episode(short_desk, t, StateActionTable(), np.int64(3), 1.0))
        assert held_world() is not world and type(held_world().seed) is np.int64

    def test_concurrent_generation_matches_serial(self, desk):
        rng = np.random.default_rng(11)
        candidates = [np.sort(rng.uniform(0.0, 6.0, 3)) for _ in range(12)]
        seed = derive_seed(1, 0, "stage1")
        cold_start()
        serial = [run_episode(desk, c, seed=seed) for c in candidates]
        cold_start()
        run_episode(desk, candidates[0], seed=seed + 1)
        main_world = held_world()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose lost updates
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda c: run_episode(desk, c, seed=seed), candidates,
                                         timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(threaded, serial):
            assert_identical(a, b)
        # Each pool thread kept a world of its own; this thread's is untouched.
        assert held_world() is main_world and main_world.seed == seed + 1


class TestMotion:
    def test_motion_seed_is_derived_only_on_a_jittered_reflection(self, monkeypatch):
        # A fast target on a small desk reflects often; every frame's target
        # must equal the eager derivation's, which reference_episode makes.
        scenario = desk_scenario(target_speed=2000.0)  # 6.4 m a frame, 100 frames
        derived = []
        derive = scenario_mod.derive_seed

        def recorded(*parts):
            if parts[1:2] == ("motion",):
                derived.append(parts[2])
            return derive(*parts)

        monkeypatch.setattr(scenario_mod, "derive_seed", recorded)
        world = EpisodeWorld(scenario, 9)
        for t in range(scenario.frame_count):
            world.advance(t)
        target = initial_target_state(scenario, 9)
        reflected = []
        for t, lazy in enumerate(world.targets):
            target = propagate_target(target, scenario.frame_duration,
                                      derive(9, "motion", t), scenario.region,
                                      scenario.heading_jitter)
            assert lazy == target
            if t and lazy.velocity != world.targets[t - 1].velocity:
                reflected.append(t)
        assert derived == reflected and 0 < len(derived) < scenario.frame_count


SHORT_NLOS = desk_scenario(sensing_horizon=0.128, nlos_path_count=1)  # 40 frames
WIDE_GRID = desk_scenario(sensing_horizon=0.15, n_subcarriers=40, n_symbols=100)  # 15 frames

batch_given = given(
    episodes=st.lists(st.tuples(thresholds_st, st.integers(0, 3)), min_size=1, max_size=5),
    actions=actions_st, fidelity=fidelity_st, warm_seed=st.integers(0, 3),
    warm=st.lists(episode_st, max_size=2))


def check_batch(scenario, episodes, actions, fidelity, warm_seed, warm) -> None:
    """A batch over a warm slot gives each episode its solo cold trace, bit
    for bit, and matches the reference's."""
    alone = []
    for thresholds, seed in episodes:
        cold_start()
        alone.append(run_episode(scenario, thresholds, actions, seed, fidelity))
    cold_start()
    for thresholds, warm_actions, warm_fidelity in warm:
        run_episode(scenario, thresholds, warm_actions, warm_seed, warm_fidelity)
    held = held_world()
    batch = run_episodes(scenario, [t for t, _ in episodes], [s for _, s in episodes], actions,
                         fidelity)
    assert len(batch) == len(episodes)
    if not episodes:  # an empty batch keeps the slot's world
        assert held_world() is held
    elif len({(type(seed), seed) for _, seed in episodes}) > 1:
        assert held_world() is None  # a batch of several seeds keeps none
    for (thresholds, seed), together, single in zip(episodes, batch, alone):
        assert_identical(together, single)
        assert_matches_reference(together, reference_episode(scenario, thresholds, actions,
                                                              seed, fidelity))


class TestBatch:
    """A batch replays each (triple, seed) exactly as it would run alone."""

    @settings(max_examples=40, deadline=None)
    @batch_given
    @example(episodes=[], actions=StateActionTable(), fidelity=0.5, warm_seed=1,
             warm=[((1.0, 2.0, 3.0), StateActionTable(), 0.5)])
    # A CMA-ES generation: twelve seeds, so one stack of twelve frames per frame.
    @example(episodes=[((0.3 * i, 0.3 * i + 1.0, 0.3 * i + 2.0), derive_seed(2, i))
                       for i in range(12)],
             actions=StateActionTable(), fidelity=1.0, warm_seed=0, warm=[])
    def test_batch_equals_separate_cold_episodes(self, short_desk, episodes, actions, fidelity,
                                                 warm_seed, warm):
        check_batch(short_desk, episodes, actions, fidelity, warm_seed, warm)

    @settings(max_examples=25, deadline=None)
    @batch_given
    def test_nlos_batch_equals_separate_cold_episodes(self, episodes, actions, fidelity,
                                                      warm_seed, warm):
        check_batch(SHORT_NLOS, episodes, actions, fidelity, warm_seed, warm)

    @settings(max_examples=10, deadline=None)
    @batch_given
    def test_wide_grid_batch_equals_separate_cold_episodes(self, episodes, actions, fidelity,
                                                           warm_seed, warm):
        check_batch(WIDE_GRID, episodes, actions, fidelity, warm_seed, warm)

    def test_seed_type_splits_a_batch(self, short_desk, draws):
        # 3 and np.int64(3) are different seeds (derive_seed hashes repr), so
        # one batch of both replays two worlds and gives the two solo traces.
        t = (1e9, 2e9, 3e9)  # never leaves state 0: every frame measured
        seeds = (3, np.int64(3))
        cold_start()
        together = run_episodes(short_desk, [t, t], seeds)
        # One noise draw per (seed, frame), wherever it is drawn.
        assert sorted(draws) == sorted(derive_seed(seed, "frame", frame)
                                       for seed in seeds for frame in range(40))
        assert held_world() is None  # two seeds: no world is kept
        for trace, seed in zip(together, seeds):
            cold_start()
            assert_identical(trace, run_episode(short_desk, t, seed=seed))
            assert_matches_reference(trace, reference_episode(short_desk, t, StateActionTable(),
                                                              seed, 1.0))
        assert together[0].resi.tobytes() != together[1].resi.tobytes()

    def test_noise_is_drawn_once_per_frame(self, short_desk, draws):
        # Twelve triples that spread over states, so a frame has several cells.
        triples = [(0.2 * i, 0.2 * i + 1.0, 0.2 * i + 2.0) for i in range(12)]
        cold_start()
        run_episodes(short_desk, triples, [7] * len(triples))
        world = held_world()
        assert len(draws) == len(set(draws)) == 40  # one draw per frame visit
        assert len(world.cells) > 40
        # A warm replay of the same batch draws nothing.
        run_episodes(short_desk, triples, [7] * len(triples))
        assert len(draws) == 40

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [(1.0, 3.0, 2.0), (1.0, 2.0, math.inf), (math.nan, 1.0, 2.0)])
    def test_infeasible_triple_raises_before_any_work(self, short_desk, position, bad):
        triples = [(1.0, 2.0, 3.0), (0.5, 1.5, 2.5)]
        triples.insert(position, bad)
        cold_start()
        run_episode(short_desk, (1.0, 2.0, 3.0), seed=2, fidelity=0.5)
        world = held_world()
        before = (len(world.targets), dict(world.cells))
        with pytest.raises(InfeasibleThresholdsError):
            run_episodes(short_desk, triples, [2] * len(triples))
        objective = IsacObjective(short_desk)
        with pytest.raises(InfeasibleThresholdsError):
            objective.evaluate_many(triples, [2] * len(triples), 0.2, kind="stage1")
        assert held_world() is world
        assert (len(world.targets), world.cells) == before
        assert objective.ledger.exact_total == 0
        assert objective.ledger.breakdown["stage1"] == (0, 0.0)


class TestSlot:
    """Each thread keeps the world of its last one-seed batch, and a batch of
    several seeds leaves it none."""

    def test_probe_after_stencil_draws_blocks_from_its_misses(self, short_desk, draws):
        # IPN's pattern: a 7-point stencil as one batch, then line-search
        # probes on the same seed.
        center = np.array([1.0, 2.0, 3.0])
        steps = [sign * 0.4 * np.eye(3)[i] for i in range(3) for sign in (1, -1)]
        stencil = [center, *(center + step for step in steps)]
        cold_start()
        run_episodes(short_desk, stencil, [4] * len(stencil))
        world, after_stencil = held_world(), len(draws)
        run_episode(short_desk, stencil[3], seed=4)
        assert len(draws) == after_stencil  # every cell was measured by the stencil
        for probe in (center - 0.7, center + 0.25):
            cells, n_draws = set(world.cells), len(draws)
            trace = run_episode(short_desk, probe, seed=4)
            assert held_world() is world
            # A frame where the probe misses a cell past its last block
            # starts a block of BLOCK_FRAMES frames (cut at the horizon),
            # and every frame of the block is drawn, missed or not.
            blocks, stop = [], 0
            for t in sorted({key[0] for key in set(world.cells) - cells}):
                if t >= stop:
                    stop = min(t + feedback_mod.BLOCK_FRAMES, 40)
                    blocks.extend(range(t, stop))
            assert draws[n_draws:] == [derive_seed(4, "frame", t) for t in blocks]
            assert_matches_reference(trace, reference_episode(short_desk, probe,
                                                              StateActionTable(), 4, 1.0))
        assert len(draws) > after_stencil  # a probe visited cells of its own

    def test_a_several_seed_batch_streams_every_world(self, short_desk, monkeypatch):
        # Each world of a batch of several seeds holds the current frame's
        # target, bearing and cells only, the held world's seed's included;
        # a one-seed batch after it builds a kept world anew.
        built, held_cells = [], []

        class Recorded(feedback_mod.EpisodeWorld):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((self.seed, self.keep))

            def advance(self, t):
                if not self.keep:
                    assert self.targets == [] and self.bearings == []
                    held_cells.extend(key[0] for key in self.cells)
                super().advance(t)
                if not self.keep:
                    assert not self.cells

        monkeypatch.setattr(feedback_mod, "EpisodeWorld", Recorded)
        t = (1e9, 2e9, 3e9)  # never leaves state 0: every frame measured
        cold_start()
        run_episode(short_desk, t, seed=5)
        seeds = [5, 6, 5, 7]
        run_episodes(short_desk, [t] * len(seeds), seeds)
        assert held_world() is None
        assert built == [(5, True), (5, False), (6, False), (7, False)]
        # Each of the three streamed the 39 frames before the last.
        assert sorted(held_cells) == sorted(list(range(39)) * 3)
        run_episode(short_desk, t, seed=7)
        world = held_world()
        assert built[4:] == [(7, True)]
        assert (world.seed, world.keep, len(world.targets), len(world.cells)) == (7, True, 40, 40)

    @pytest.mark.parametrize("scale", ["desk", "paper-split"])
    def test_no_world_of_a_several_seed_batch_outlives_it(self, short_desk, monkeypatch,
                                                          scale):
        built, split = [], []

        class Recorded(feedback_mod.EpisodeWorld):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(weakref.ref(self))

        split_lockstep = feedback_mod._split_lockstep

        def recorded(*args):
            split.append(True)
            split_lockstep(*args)

        monkeypatch.setattr(feedback_mod, "EpisodeWorld", Recorded)
        monkeypatch.setattr(feedback_mod, "_split_lockstep", recorded)
        monkeypatch.setattr(feedback_mod.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        scenario, fidelity = ((short_desk, 1.0) if scale == "desk"
                              else (ScenarioConfig(), 0.008))
        t = (1e9, 2e9, 3e9)  # never leaves state 0: every frame measured
        cold_start()
        run_episode(scenario, t, seed=5, fidelity=fidelity)  # a held world of one seed
        seeds = [5, 6, 7, np.int64(7)]
        traces = run_episodes(scenario, [t] * len(seeds), seeds, fidelity=fidelity)
        assert held_world() is None
        assert split == ([True] if scale == "paper-split" else [])
        gc.collect()
        assert len(built) == 5 and all(ref() is None for ref in built)
        # The traces outlive their worlds and still equal each seed's alone.
        for trace, seed in zip(traces, seeds):
            cold_start()
            assert_identical(trace, run_episode(scenario, t, seed=seed, fidelity=fidelity))

    def test_other_seed_replaces_the_world(self, short_desk, draws):
        t = (1e9, 2e9, 3e9)  # never leaves state 0: every frame measured
        cold_start()
        counts = []
        for seed in (1, 1, 2, 1):
            run_episode(short_desk, t, seed=seed)
            counts.append(len(draws))
        assert counts == [40, 40, 80, 120]
        assert held_world().seed == 1 and len(held_world().cells) == 40


class TestSeedPass:
    """A call mixes the noise seed words of every frame a world lacks in one
    pass per world, so a batch's transient arrays are one world's, whatever
    its seed count."""

    def test_one_pass_per_world_that_lacks_frames(self, short_desk, monkeypatch):
        lengths, seeded = [], []
        frame_noise_words, seed_frames = feedback_mod.frame_noise_words, feedback_mod._seed_frames

        def recorded_words(seed, start, stop):
            lengths.append(stop - start)
            return frame_noise_words(seed, start, stop)

        def recorded_worlds(worlds, n_frames):
            seeded.extend(worlds)
            seed_frames(worlds, n_frames)

        monkeypatch.setattr(feedback_mod, "frame_noise_words", recorded_words)
        monkeypatch.setattr(feedback_mod, "_seed_frames", recorded_worlds)
        t = (1.0, 2.0, 3.0)
        cold_start()
        run_episodes(short_desk, [t] * 12, list(range(12)), fidelity=0.5)
        assert lengths == [20] * 12 and held_world() is None
        # A one-seed batch builds a kept world, and a higher-fidelity call on
        # it mixes its new frames only.
        run_episode(short_desk, t, seed=11, fidelity=0.5)
        world = held_world()
        run_episode(short_desk, t, seed=11)
        assert held_world() is world and lengths[12:] == [20, 20]
        # A batch of several seeds replays no held world: a pass per world.
        run_episodes(short_desk, [t] * 3, [11, 12, 13])
        assert held_world() is None and lengths[14:] == [40, 40, 40]
        assert len(seeded) == 12 + 1 + 1 + 3
        for world in seeded:
            n = len(world.words)
            assert n in (20, 40)
            expected = seed_words([derive_seed(derive_seed(world.seed, "frame", t), "rx-noise")
                                   for t in range(n)])
            assert world.words.tobytes() == expected.tobytes()

    def test_batch_peak_memory_is_its_words_and_one_worlds_pass(self):
        # A batch-wide pass gives the same words; only its peak shows it.
        scenario = ScenarioConfig()
        n_frames = scenario.frame_count

        def peak(seeds):
            worlds = [EpisodeWorld(scenario, seed) for seed in seeds]
            tracemalloc.start()
            try:
                feedback_mod._seed_frames(worlds, n_frames)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak([0])  # warm: first-call allocations are not the pass's
        one_pass = peak([1])
        kept = 12 * n_frames * 32  # each world's (n_frames, 4) uint64 words
        assert peak(range(100, 112)) <= kept + 1.25 * one_pass


BLOCK_SCENARIOS = {
    "desk": desk_scenario(),
    "desk-nlos": desk_scenario(nlos_path_count=1),
    "paper": ScenarioConfig(),
}


@pytest.fixture
def stack_sizes(monkeypatch):
    """The number of frames of every stack ``run_episodes`` builds."""
    sizes = []
    build_frames = feedback_mod.build_frames

    def recorded(const, channels, words):
        sizes.append(len(channels))
        return build_frames(const, channels, words)

    monkeypatch.setattr(feedback_mod, "build_frames", recorded)
    return sizes


class TestBlocks:
    """A one-seed batch builds each frame where it misses a cell in a block
    of ``BLOCK_FRAMES`` frames from that miss on, on a new world and on the
    held one alike; every byte it gives equals a frame at a time's."""

    @pytest.mark.parametrize("key", list(BLOCK_SCENARIOS))
    def test_blocks_equal_frames_built_one_at_a_time(self, key, monkeypatch, stack_sizes):
        scenario = BLOCK_SCENARIOS[key]
        triples = [(0.2 * i, 0.2 * i + 1.0, 0.2 * i + 2.0) for i in range(0, 12, 3)]
        # New triples and a revisit, on the held world.
        probes = [(0.1, 0.6, 1.4), (3.0, 4.0, 5.0), triples[1]]
        # 0.37 and 0.81 of a horizon: neither is a multiple of the block.
        calls = [(triples, 0.37), (probes, 0.37), (triples + probes, 0.81)]
        runs = {}
        for block_frames in (feedback_mod.BLOCK_FRAMES, 1):
            monkeypatch.setattr(feedback_mod, "BLOCK_FRAMES", block_frames)
            stack_sizes.clear()
            cold_start()
            traces = [run_episodes(scenario, batch, [3] * len(batch), fidelity=fidelity)
                      for batch, fidelity in calls]
            world = held_world()
            runs[block_frames] = traces, world.cells, world.targets, world.bearings
            assert max(stack_sizes) == block_frames
        (blocked, *kept), (single, *kept_single) = runs.values()
        for batch, batch_single in zip(blocked, single):
            for trace, trace_single in zip(batch, batch_single):
                assert_identical(trace, trace_single)
        assert kept == kept_single

    def test_paper_episode_stacks_at_most_a_block(self, stack_sizes):
        cold_start()
        run_episode(BLOCK_SCENARIOS["paper"], (1.0, 2.0, 3.0), seed=3)
        assert max(stack_sizes) == feedback_mod.BLOCK_FRAMES


CHUNK_SCENARIOS = {
    **BLOCK_SCENARIOS,
    "paper-nlos": ScenarioConfig(nlos_path_count=1),
}


@pytest.fixture
def chunks(monkeypatch):
    """The number of frames of every chunk ``radar.build_frames`` draws."""
    sizes = []
    fill_normals = radar_mod.fill_normals

    def recorded(words, out):
        sizes.append(len(out))
        fill_normals(words, out)

    monkeypatch.setattr(radar_mod, "fill_normals", recorded)
    return sizes


class TestDrawChunks:
    """A stack draws its frames' noise a chunk of at most
    ``radar.DRAW_NORMALS`` normals at a time: its frames do not depend on
    the chunks, and its draw memory does not grow with the stack."""

    @pytest.mark.parametrize("kind", ["block", "worlds"])
    @pytest.mark.parametrize("key", list(CHUNK_SCENARIOS))
    def test_frames_do_not_depend_on_the_draw_budget(self, key, kind, monkeypatch, chunks):
        scenario = CHUNK_SCENARIOS[key]
        const = radar_mod.cell_constants(scenario)
        per_frame = 2 * const.pilot.size
        if kind == "block":  # a one-seed batch's 16 frames from frame 5 on
            world = EpisodeWorld(scenario, 3)
            feedback_mod._seed_frames([world], 21)
            world.grow(21)

            def build():
                return feedback_mod._build_stack(const, scenario, world.targets[5:21],
                                                 world.words[5:21])
        else:  # frame 5 of each world of a 12-seed batch
            worlds = [EpisodeWorld(scenario, seed, keep=False) for seed in range(20, 32)]
            feedback_mod._seed_frames(worlds, 6)
            for t in range(6):
                for world in worlds:
                    world.advance(t)

            def build():
                return radar_mod.build_frames(
                    const, [realize_channel(scenario, world.target) for world in worlds],
                    [world.words[5] for world in worlds])
        n = 16 if kind == "block" else 12
        default = radar_mod.DRAW_NORMALS // per_frame
        # One frame a chunk, five (a partial last chunk), the whole stack in
        # one, and the default budget: 16 desk frames, 3 paper frames.
        stacks = []
        for frames in (1, 5, n, default):
            monkeypatch.setattr(radar_mod, "DRAW_NORMALS", frames * per_frame)
            chunks.clear()
            stacks.append(build())
            expected = [frames] * (n // frames) + ([n % frames] if n % frames else [])
            assert chunks == expected
        assert default == (16 if key.startswith("desk") else 3)
        first, *others = stacks
        for stack in others:
            for name in ("echo", "noise", "departure"):
                assert getattr(stack, name).tobytes() == getattr(first, name).tobytes(), name
            assert stack.floor == first.floor

    def test_peak_memory_is_one_chunk_per_thread_and_the_stack(self, monkeypatch):
        # A stack-wide draw buffer gives the same bytes; only its peak shows it.
        scenario = ScenarioConfig()
        const = radar_mod.cell_constants(scenario)
        per_frame = 2 * const.pilot.size
        chunk_bytes = radar_mod.DRAW_NORMALS // per_frame * per_frame * 8
        surface_bytes = const.e_delay_active.shape[0] * const.e_doppler_t.shape[1] * 16

        def traced(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def block_peak(seed):
            world = EpisodeWorld(scenario, seed)
            feedback_mod._seed_frames([world], 16)
            world.grow(16)
            return traced(lambda: feedback_mod._build_stack(const, scenario, world.targets,
                                                            world.words))

        block_peak(0)  # warm: first-call allocations are not the block's
        # The block's echo and noise surfaces are its own.
        bound = chunk_bytes + 2 * 16 * surface_bytes + 128 * 1024
        assert bound < 16 * per_frame * 8  # a whole block's draws (1 MB) exceed it
        assert block_peak(1) <= bound

        # A 12-seed batch, on one thread and split in two halves: one
        # chunk's buffer per thread. Each half drawing its six frames at once
        # would hold 384 KB, and one thread its twelve 768 KB, on top of the
        # rest.
        halves = []
        lockstep = feedback_mod._lockstep

        def recorded(const, runs, n_frames):
            halves.append(len(runs))
            lockstep(const, runs, n_frames)

        monkeypatch.setattr(feedback_mod, "_lockstep", recorded)
        triples = [(0.2 * i, 0.2 * i + 1.0, 0.2 * i + 2.0) for i in range(12)]
        fidelity = 0.05
        n_frames = math.ceil(fidelity * scenario.frame_count)
        kept = 12 * n_frames * 32  # each world's (n_frames, 4) uint64 words

        def batch_peak(seeds):
            cold_start()
            return traced(lambda: run_episodes(scenario, triples, seeds, fidelity=fidelity))

        for cpus, threads in (({0}, [12]), ({0, 1}, [6, 6])):
            monkeypatch.setattr(feedback_mod.os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            batch_peak(list(range(12)))  # warm
            halves.clear()
            peak = batch_peak(list(range(100, 112)))
            assert halves == threads
            assert peak <= kept + len(threads) * chunk_bytes + 320 * 1024, threads
