"""Episode worlds: a replay over a warm world equals a cold episode bit for bit,
and each thread keeps only the world it replayed last."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racecma import IsacObjective, classify, desk_scenario, run_episode, run_episodes
from racecma import feedback as feedback_mod
from racecma.feedback import EpisodeTrace, InfeasibleThresholdsError, StateActionTable
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


def cold_start() -> None:
    """Drop this thread's world, so the next episode builds a new one."""
    feedback_mod._SLOT.world = None


def held_world():
    return feedback_mod._SLOT.world


@pytest.fixture
def draws(monkeypatch):
    """The seed of each frame built, so of each noise draw, in order."""
    drawn = []
    build_frame = feedback_mod.build_frame

    def counted(const, channel, seed):
        drawn.append(seed)
        return build_frame(const, channel, seed)

    monkeypatch.setattr(feedback_mod, "build_frame", counted)
    return drawn


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
        cold_start()
        cold = run_episode(short_desk, *target[:2], seed, target[2])
        cold_start()
        for thresholds, actions, fidelity in warm:
            run_episode(short_desk, thresholds, actions, seed, fidelity)
        assert_identical(run_episode(short_desk, *target[:2], seed, target[2]), cold)
        assert_identical(cold, reference_episode(short_desk, *target[:2], seed, target[2]))

    @pytest.mark.parametrize("first, second", [(0.3, 1.0), (1.0, 0.3)])
    def test_prefix_in_either_order(self, desk, first, second):
        t = (1.0, 2.0, 3.0)
        cold_start()
        run_episode(desk, t, seed=5, fidelity=first)
        warm = run_episode(desk, t, seed=5, fidelity=second)
        assert_identical(warm, reference_episode(desk, t, StateActionTable(), 5, second))

    def test_seed_type_is_part_of_the_world(self, short_desk):
        # derive_seed hashes repr(seed), so np.int64(3) and 3 seed different worlds.
        t = (1.0, 2.0, 3.0)
        cold_start()
        run_episode(short_desk, t, seed=3)
        world = held_world()
        assert_identical(run_episode(short_desk, t, seed=np.int64(3)),
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


class TestBatch:
    """A batch replays each (triple, seed) exactly as it would run alone."""

    @settings(max_examples=40, deadline=None)
    @given(episodes=st.lists(st.tuples(thresholds_st, st.integers(0, 3)), min_size=1,
                             max_size=5),
           actions=actions_st, fidelity=fidelity_st, warm_seed=st.integers(0, 3),
           warm=st.lists(episode_st, max_size=2))
    def test_batch_equals_separate_cold_episodes(self, short_desk, episodes, actions, fidelity,
                                                 warm_seed, warm):
        alone = []
        for thresholds, seed in episodes:
            cold_start()
            alone.append(run_episode(short_desk, thresholds, actions, seed, fidelity))
        cold_start()
        for thresholds, warm_actions, warm_fidelity in warm:
            run_episode(short_desk, thresholds, warm_actions, warm_seed, warm_fidelity)
        triples, seeds = zip(*episodes)
        batch = run_episodes(short_desk, triples, seeds, actions, fidelity)
        assert len(batch) == len(episodes)
        for (thresholds, seed), together, single in zip(episodes, batch, alone):
            assert_identical(together, single)
            assert_identical(together, reference_episode(short_desk, thresholds, actions, seed,
                                                          fidelity))

    def test_seed_type_splits_a_batch(self, short_desk, draws):
        # 3 and np.int64(3) are different seeds (derive_seed hashes repr), so
        # one batch of both replays two worlds and gives the two solo traces.
        t = (1e9, 2e9, 3e9)  # never leaves state 0: every frame measured
        seeds = (3, np.int64(3))
        cold_start()
        together = run_episodes(short_desk, [t, t], seeds)
        assert len(draws) == 80
        assert type(held_world().seed) is np.int64
        for trace, seed in zip(together, seeds):
            cold_start()
            assert_identical(trace, run_episode(short_desk, t, seed=seed))
            assert_identical(trace, reference_episode(short_desk, t, StateActionTable(), seed,
                                                      1.0))
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
    """Each thread keeps the one world it replayed last."""

    def test_probe_after_stencil_draws_only_for_new_cells(self, short_desk, draws):
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
            cells, n_draws = len(world.cells), len(draws)
            trace = run_episode(short_desk, probe, seed=4)
            assert held_world() is world
            # An episode measures one cell a frame, so one draw per new cell.
            assert len(draws) - n_draws == len(world.cells) - cells
            assert_identical(trace, reference_episode(short_desk, probe, StateActionTable(),
                                                      4, 1.0))
        assert len(draws) > after_stencil  # a probe visited cells of its own

    def test_other_seed_replaces_the_world(self, short_desk, draws):
        t = (1e9, 2e9, 3e9)  # never leaves state 0: every frame measured
        cold_start()
        counts = []
        for seed in (1, 1, 2, 1):
            run_episode(short_desk, t, seed=seed)
            counts.append(len(draws))
        assert counts == [40, 40, 80, 120]
        assert held_world().seed == 1 and len(held_world().cells) == 40
