"""Episode worlds: a replay over a warm world equals a cold episode bit for bit."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racecma import (
    InfeasibleThresholdsError, IsacObjective, StateActionTable, classify, desk_scenario,
    run_episode, run_episodes,
)
from racecma import feedback as feedback_mod
from racecma.feedback import MAX_WORLD_FRAMES, WORLDS, EpisodeTrace
from racecma.radar import compute_resi, matched_filter, realize_channel, synthesize_rx_grid
from racecma.scenario import initial_target_state, propagate_target
from racecma.seeding import derive_seed


def reference_episode(scenario, thresholds, actions, seed, fidelity) -> EpisodeTrace:
    """The closed loop with no world: every measured frame runs the radar chain."""
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
            belief = compute_resi(matched_filter(grid, scenario.search_window()), grid,
                                  scenario.null_mask()).value
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


def assert_identical(a: EpisodeTrace, b: EpisodeTrace) -> None:
    assert a.horizon == b.horizon
    for name in ("resi", "states", "in_beam", "power"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


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
        WORLDS.cache_clear()
        cold = run_episode(short_desk, *target[:2], seed, target[2])
        WORLDS.cache_clear()
        for thresholds, actions, fidelity in warm:
            run_episode(short_desk, thresholds, actions, seed, fidelity)
        assert_identical(run_episode(short_desk, *target[:2], seed, target[2]), cold)
        assert_identical(cold, reference_episode(short_desk, *target[:2], seed, target[2]))

    @pytest.mark.parametrize("first, second", [(0.3, 1.0), (1.0, 0.3)])
    def test_prefix_in_either_order(self, desk, first, second):
        t = (1.0, 2.0, 3.0)
        WORLDS.cache_clear()
        run_episode(desk, t, seed=5, fidelity=first)
        warm = run_episode(desk, t, seed=5, fidelity=second)
        assert_identical(warm, reference_episode(desk, t, StateActionTable(), 5, second))

    def test_seed_type_is_part_of_the_world(self, short_desk):
        # derive_seed hashes repr(seed), so np.int64(3) and 3 seed different worlds.
        t = (1.0, 2.0, 3.0)
        WORLDS.cache_clear()
        run_episode(short_desk, t, seed=3)
        assert_identical(run_episode(short_desk, t, seed=np.int64(3)),
                         reference_episode(short_desk, t, StateActionTable(), np.int64(3), 1.0))
        assert WORLDS.cache_info().worlds == 2

    def test_concurrent_generation_matches_serial(self, desk):
        rng = np.random.default_rng(11)
        candidates = [np.sort(rng.uniform(0.0, 6.0, 3)) for _ in range(12)]
        seed = derive_seed(1, 0, "stage1")
        WORLDS.cache_clear()
        serial = [run_episode(desk, c, seed=seed) for c in candidates]
        WORLDS.cache_clear()
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
        info = WORLDS.cache_info()
        measured = sum(int(np.count_nonzero(trace.power)) for trace in serial)
        assert (info.worlds, info.frames, info.world_hits + info.world_misses) == (1, 100, 12)
        assert info.cell_hits + info.cell_misses == measured


class TestBatch:
    """A lockstep batch replays each triple exactly as it would run alone."""

    @settings(max_examples=40, deadline=None)
    @given(triples=st.lists(thresholds_st, min_size=1, max_size=5), actions=actions_st,
           fidelity=fidelity_st, seed=st.integers(0, 3),
           warm=st.lists(episode_st, max_size=2))
    def test_batch_equals_separate_cold_episodes(self, short_desk, triples, actions, fidelity,
                                                 seed, warm):
        alone = []
        for thresholds in triples:
            WORLDS.cache_clear()
            alone.append(run_episode(short_desk, thresholds, actions, seed, fidelity))
        WORLDS.cache_clear()
        for thresholds, warm_actions, warm_fidelity in warm:
            run_episode(short_desk, thresholds, warm_actions, seed, warm_fidelity)
        batch = run_episodes(short_desk, triples, actions, seed, fidelity)
        assert len(batch) == len(triples)
        for thresholds, together, single in zip(triples, batch, alone):
            assert_identical(together, single)
            assert_identical(together, reference_episode(short_desk, thresholds, actions, seed,
                                                          fidelity))

    def test_noise_is_drawn_once_per_frame(self, short_desk, monkeypatch):
        draws = []
        frame_noise = feedback_mod.frame_noise

        def counted(const, frame):
            draws.append(frame)
            return frame_noise(const, frame)

        monkeypatch.setattr(feedback_mod, "frame_noise", counted)
        # Twelve triples that spread over states, so a frame has several cells.
        triples = [(0.2 * i, 0.2 * i + 1.0, 0.2 * i + 2.0) for i in range(12)]
        WORLDS.cache_clear()
        traces = run_episodes(short_desk, triples, seed=7)
        world = WORLDS.world(short_desk, 7, 1)
        assert len(draws) == len(world.frames) == 40
        assert len(world.cells) > len(world.frames)
        info = WORLDS.cache_info()
        measured = sum(int(np.count_nonzero(trace.power)) for trace in traces)
        assert (info.cell_misses, info.cell_hits + info.cell_misses) == (len(world.cells),
                                                                         measured)
        # A warm replay of the same batch draws nothing.
        run_episodes(short_desk, triples, seed=7)
        assert len(draws) == 40

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [(1.0, 3.0, 2.0), (1.0, 2.0, math.inf), (math.nan, 1.0, 2.0)])
    def test_infeasible_triple_raises_before_any_work(self, short_desk, position, bad):
        triples = [(1.0, 2.0, 3.0), (0.5, 1.5, 2.5)]
        triples.insert(position, bad)
        WORLDS.cache_clear()
        run_episode(short_desk, (1.0, 2.0, 3.0), seed=2, fidelity=0.5)
        before = WORLDS.cache_info()
        with pytest.raises(InfeasibleThresholdsError):
            run_episodes(short_desk, triples, seed=2)
        objective = IsacObjective(short_desk)
        with pytest.raises(InfeasibleThresholdsError):
            objective.evaluate_many(triples, 2, 0.2, kind="stage1")
        assert WORLDS.cache_info() == before
        assert objective.ledger.exact_total == 0
        assert objective.ledger.breakdown["stage1"] == (0, 0.0)


class TestCache:
    def test_counters(self, short_desk):
        t = (1e9, 2e9, 3e9)  # never leaves state 0: every frame measured
        WORLDS.cache_clear()
        run_episode(short_desk, t, seed=1, fidelity=0.5)
        run_episode(short_desk, t, seed=1)
        info = WORLDS.cache_info()
        assert info == (1, 40, MAX_WORLD_FRAMES, 1, 1, 20, 40)

    def test_lru_eviction_by_frames(self, short_desk, monkeypatch):
        monkeypatch.setattr(WORLDS, "max_frames", 100)
        t = (1.0, 2.0, 3.0)
        WORLDS.cache_clear()
        for seed in (1, 2):
            run_episode(short_desk, t, seed=seed)
        run_episode(short_desk, t, seed=1)  # seed 1 becomes the most recent
        run_episode(short_desk, t, seed=3)  # 120 frames: seed 2 goes
        run_episode(short_desk, t, seed=1)
        info = WORLDS.cache_info()
        assert (info.worlds, info.frames, info.world_hits, info.world_misses) == (2, 80, 2, 3)
        monkeypatch.setattr(WORLDS, "max_frames", 30)
        run_episode(short_desk, t, seed=4)  # larger than the bound: serves, is not kept
        assert WORLDS.cache_info()[:2] == (0, 0)

    def test_paper_scale_stream_stays_within_bound(self, paper_scale):
        # Every measurement locks, and locked frames measure one in eight,
        # so each 1000-frame world is cheap to build.
        actions = StateActionTable(period_multipliers=(1, 1, 1, 8))
        t = (-3.0, -2.0, -1.0)
        WORLDS.cache_clear()
        for seed in range(10):
            run_episode(paper_scale, t, actions, seed=derive_seed("one-off", seed))
            assert WORLDS.cache_info().frames <= MAX_WORLD_FRAMES
        info = WORLDS.cache_info()
        assert paper_scale.frame_count == 1000
        assert (info.worlds, info.world_misses, info.world_hits) == (2, 10, 0)
