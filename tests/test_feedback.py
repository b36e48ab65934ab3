import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racecma import classify, run_episode
from racecma.feedback import (
    DEFAULT_ACTIONS,
    EpisodeTrace,
    InfeasibleThresholdsError,
    StateActionTable,
    detection_reliability,
    episode_objectives,
    power_overhead,
    scalarize,
    sensing_latency,
)

T357 = (3.0, 5.0, 7.0)


class TestClassify:
    def test_boundaries_upper_inclusive(self):
        assert classify(3.0, T357) == 0  # x == t1 stays in the lowest state
        assert classify(8.0, T357) == 3
        assert classify(4.0, T357) == 1
        assert classify(5.0, T357) == 1
        assert classify(7.0, T357) == 2

    def test_monotone_step_function(self, rng):
        xs = np.sort(rng.uniform(-1.0, 10.0, 200))
        states = [classify(float(x), T357) for x in xs]
        assert all(a <= b for a, b in zip(states, states[1:]))

    @settings(max_examples=300, deadline=None)
    @given(t=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
           xy=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2))
    def test_monotone_for_any_ordered_thresholds(self, t, xy):
        thresholds = sorted(t)
        x, y = sorted(xy)
        assert classify(x, thresholds) <= classify(y, thresholds)

    def test_unordered_thresholds_rejected(self):
        with pytest.raises(InfeasibleThresholdsError):
            classify(1.0, (5.0, 3.0, 7.0))

    def test_spacing_contract(self):
        # Thresholds only need finite values: the minimum spacing is kept by
        # the feasible map (tests/test_race.py), so a close pair still works.
        assert classify(1.03, (1.0, 1.05, 2.0)) == 1
        with pytest.raises(InfeasibleThresholdsError):
            classify(1.0, (math.inf, 1.0, 2.0))


class TestActionTable:
    def test_defaults(self):
        assert DEFAULT_ACTIONS.power_factors == (1.0, 0.8, 0.5, 0.2)
        assert DEFAULT_ACTIONS.period_multipliers == (1, 1, 1, 2)

    def test_power_must_decrease_with_state(self):
        with pytest.raises(ValueError):
            StateActionTable(power_factors=(0.5, 0.8, 0.5, 0.2))
        with pytest.raises(ValueError):
            StateActionTable(power_factors=(1.0, 0.8, 0.5, 1.2))
        with pytest.raises(ValueError):
            StateActionTable(period_multipliers=(1, 0, 1, 1))


class TestRunEpisode:
    def test_full_fidelity_runs_whole_horizon(self, desk):
        trace = run_episode(desk, T357, seed=1)
        assert trace.horizon == desk.frame_count

    def test_fidelity_truncates_frames(self, desk):
        trace = run_episode(desk, T357, seed=1, fidelity=0.25)
        assert trace.horizon == math.ceil(0.25 * desk.frame_count)
        with pytest.raises(ValueError):
            run_episode(desk, T357, seed=1, fidelity=0.0)

    def test_determinism(self, desk):
        a = run_episode(desk, (0.5, 1.0, 1.5), seed=9)
        b = run_episode(desk, (0.5, 1.0, 1.5), seed=9)
        assert np.array_equal(a.resi, b.resi)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.power, b.power)

    def test_unreachable_thresholds_keep_state_zero(self, desk):
        trace = run_episode(desk, (1e6, 2e6, 3e6), seed=4)
        assert np.all(trace.states == 0)
        assert np.all(trace.power == DEFAULT_ACTIONS.power_factors[0])

    def test_truncated_trace_is_prefix_of_full(self, desk):
        # Same per-frame seeds: the coarse evaluation sees the exact prefix.
        full = run_episode(desk, T357, seed=12, fidelity=1.0)
        part = run_episode(desk, T357, seed=12, fidelity=0.3)
        n = part.horizon
        assert np.array_equal(part.resi, full.resi[:n])
        assert np.array_equal(part.states, full.states[:n])

    def test_threshold_container_does_not_matter(self, desk):
        traces = [run_episode(desk, t, seed=9)
                  for t in ((0.5, 1.0, 1.5), [0.5, 1.0, 1.5], np.array([0.5, 1.0, 1.5]))]
        for trace in traces[1:]:
            for name in ("resi", "states", "in_beam", "power"):
                assert getattr(trace, name).tobytes() == getattr(traces[0], name).tobytes()

    @pytest.mark.parametrize("bad", [(math.inf, 1.0, 2.0), (0.5, math.nan, 1.5),
                                     (0.5, 1.0, -math.inf)])
    def test_non_finite_thresholds_rejected(self, desk, bad):
        with pytest.raises(InfeasibleThresholdsError, match="must be finite"):
            classify(1.0, bad)
        with pytest.raises(InfeasibleThresholdsError, match="must be finite"):
            run_episode(desk, bad, seed=1)

    def test_unordered_thresholds_rejected_without_a_measured_frame(self, desk):
        # The first frame waits for its measurement, so no frame is classified.
        actions = StateActionTable(period_multipliers=(2, 1, 1, 2))
        fidelity = 1 / desk.frame_count
        trace = run_episode(desk, (3.0, 5.0, 7.0), actions, seed=1, fidelity=fidelity)
        assert trace.horizon == 1 and trace.power[0] == 0.0
        with pytest.raises(InfeasibleThresholdsError, match="must be ordered"):
            run_episode(desk, (5.0, 3.0, 7.0), actions, seed=1, fidelity=fidelity)

    def test_sensing_period_skips_measurements(self, desk):
        actions = StateActionTable(period_multipliers=(2, 2, 2, 2))
        trace = run_episode(desk, T357, actions=actions, seed=2)
        assert np.all(trace.power[0::2] == 0.0)  # first frame of each pair waits
        assert np.all(trace.power[1::2] > 0.0)


def _trace(resi, states, in_beam=None, power=None):
    n = len(resi)
    return EpisodeTrace(
        resi=np.asarray(resi, float),
        states=np.asarray(states, np.int64),
        in_beam=np.ones(n, bool) if in_beam is None else np.asarray(in_beam, bool),
        power=np.full(n, 0.5) if power is None else np.asarray(power, float),
        horizon=n,
    )


class TestObjectives:
    def test_detection_all_hits(self):
        t = (1.0, 2.0, 3.0)
        trace = _trace([1.5] * 10, [1] * 10)
        assert detection_reliability(trace, t) == 1.0

    def test_detection_partial_ratio(self):
        t = (1.0, 2.0, 3.0)
        resi = [1.5] * 4 + [0.5] * 6
        trace = _trace(resi, [1] * 4 + [0] * 6)
        assert detection_reliability(trace, t) == pytest.approx(0.4)

    def test_detection_requires_beam(self):
        t = (1.0, 2.0, 3.0)
        trace = _trace([1.5] * 10, [1] * 10, in_beam=[True] * 5 + [False] * 5)
        assert detection_reliability(trace, t) == pytest.approx(0.5)

    def test_latency_full_horizon_when_nothing_crosses(self):
        t = (1.0, 2.0, 3.0)
        trace = _trace([0.2] * 25, [0] * 25)
        assert sensing_latency(trace, t) == 25

    def test_latency_zero_when_locked_from_start(self):
        t = (1.0, 2.0, 3.0)
        trace = _trace([4.0] * 10, [3] * 10)
        assert sensing_latency(trace, t) == 0

    def test_latency_counts_frames_below_lock(self):
        t = (1.0, 2.0, 3.0)
        states = [0, 1, 2, 2, 3, 3, 3, 3, 3, 3]
        resi = [0.5, 1.5, 2.5, 2.5, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]
        trace = _trace(resi, states)
        assert sensing_latency(trace, t) == 4

    def test_power_overhead_means(self):
        assert power_overhead(_trace([0] * 4, [0] * 4, power=[0.5] * 4)) == 0.5
        assert power_overhead(_trace([0] * 4, [0] * 4, power=[0, 1, 0, 1])) == 0.5

    def test_scalarize_examples(self):
        assert scalarize(1.0, 0, 0.0, 100, (1, 0, 0)) == 0.0
        assert scalarize(0.6, 0, 0.0, 100, (1, 0, 0)) == pytest.approx(0.4)
        assert scalarize(0.8, 50, 0.5, 100, (1, 1, 1)) == pytest.approx(1.2)
        with pytest.raises(ValueError):
            scalarize(0.5, 0, 0.0, 100, (0, 0, 0))

    @pytest.mark.parametrize("weights", [(math.nan, 0, 0), (1, math.inf, 0), (1, 0, -math.inf),
                                         (math.nan, 1, 0)])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="weights must be finite"):
            scalarize(0.5, 0, 0.0, 100, weights)

    def test_threshold_monotonicity_of_indicator(self, rng):
        xs = rng.uniform(0, 5, 300)
        lows = np.sort(rng.uniform(0, 5, 10))
        counts = [int(np.sum(xs > t1)) for t1 in lows]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_objective_ranges_and_determinism(self, desk):
        t = (0.5, 1.0, 1.5)
        a = episode_objectives(run_episode(desk, t, seed=6), t)
        b = episode_objectives(run_episode(desk, t, seed=6), t)
        assert a == b
        assert 0.0 <= a.j_det <= 1.0
        assert 0.0 <= a.j_lat <= desk.frame_count
        assert 0.0 <= a.j_pow <= max(DEFAULT_ACTIONS.power_factors)
