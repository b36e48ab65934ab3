import math

import numpy as np
import pytest

from racecma import Rect, ScenarioConfig, TargetState, initial_target_state, propagate_target
from racecma.scenario import dbm_to_watt

ARENA = Rect(-10.0, 10.0, -10.0, 10.0)


def test_straight_line_motion():
    state = TargetState(position=(0.0, 0.0), velocity=(3.0, 0.0), inside_region=True)
    moved = propagate_target(state, 1.0, rng_seed=0, region=ARENA)
    assert moved.position == (3.0, 0.0)
    assert moved.velocity == (3.0, 0.0)
    assert moved.inside_region


def test_zero_dt_rejected():
    state = TargetState(position=(0.0, 0.0), velocity=(3.0, 0.0), inside_region=True)
    with pytest.raises(ValueError):
        propagate_target(state, 0.0, rng_seed=0, region=ARENA)


@pytest.mark.parametrize("jitter", [0.0, 0.4])
def test_reflection_preserves_speed(jitter):
    state = TargetState(position=(9.5, 0.0), velocity=(3.0, 0.0), inside_region=True)
    moved = propagate_target(state, 1.0, rng_seed=7, region=ARENA, heading_jitter=jitter)
    assert moved.inside_region
    assert moved.position[0] <= 10.0
    assert moved.speed == pytest.approx(3.0, abs=1e-12)
    if jitter == 0.0:
        assert moved.velocity == (-3.0, 0.0)
        assert moved.position == (7.5, 0.0)


def test_reflection_jitter_deterministic():
    state = TargetState(position=(9.5, 0.0), velocity=(3.0, 0.0), inside_region=True)
    a = propagate_target(state, 1.0, rng_seed=7, region=ARENA, heading_jitter=0.4)
    b = propagate_target(state, 1.0, rng_seed=7, region=ARENA, heading_jitter=0.4)
    assert a.position == b.position and a.velocity == b.velocity


def test_initial_target_state_respects_config(desk):
    state = initial_target_state(desk, seed=3)
    assert state.inside_region
    assert desk.region.contains(state.position)
    assert state.speed == pytest.approx(desk.target_speed)
    assert initial_target_state(desk, seed=3) == state


def test_config_invariants_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(n_subcarriers=0)
    with pytest.raises(ValueError):
        ScenarioConfig(nlos_path_count=2)
    with pytest.raises(ValueError):
        ScenarioConfig(sweep_range=(1.0, 0.5))
    with pytest.raises(ValueError):
        ScenarioConfig(tx_power_dbm=40.0)
    with pytest.raises(ValueError):
        ScenarioConfig(symbol_duration=0.0)


@pytest.mark.parametrize("n_targets", [0, 2])
def test_single_target_only(n_targets):
    with pytest.raises(ValueError, match="n_targets"):
        ScenarioConfig(n_targets=n_targets)


def test_reference_defaults():
    sc = ScenarioConfig()
    assert (sc.n_bs_antennas, sc.n_ue_antennas) == (32, 16)
    assert sc.antenna_spacing == 0.5
    assert (sc.carrier_freq, sc.subcarrier_spacing) == (24e9, 15e3)
    assert sc.n_beams == 20
    assert sc.sweep_range == (math.pi / 4, 3 * math.pi / 4)
    assert sc.tx_power_range_dbm == (10.0, 30.0)
    assert sc.noise_figure_db == 6.0
    assert (sc.n_targets, sc.target_speed) == (1, 3.0)
    assert (sc.symbol_duration, sc.n_symbols) == (100e-6, 100)
    assert sc.sensing_horizon == 10.0
    assert (sc.n_delay_bins, sc.n_doppler_bins) == (10, 10)
    assert sc.frame_count == 1000


def test_derived_quantities(desk):
    assert desk.wavelength == pytest.approx(299792458.0 / 24e9)
    assert desk.frame_duration == pytest.approx(desk.n_symbols * desk.symbol_duration)
    assert int(desk.null_mask().sum()) == desk.null_subcarriers * desk.n_symbols
    delays, dopplers = desk.search_window()
    assert len(delays) == desk.n_delay_bins and len(dopplers) == desk.n_doppler_bins
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert desk.with_power(25.0).tx_power_w == pytest.approx(10 ** (-0.5))


def test_beam_geometry(desk):
    centers = desk.beam_centers()
    assert len(centers) == desk.n_beams
    lo, hi = desk.sweep_range
    assert np.all(centers > lo) and np.all(centers < hi)
    for b in range(desk.n_beams):
        assert desk.beam_contains(b, float(centers[b]))
        assert not desk.beam_contains(b, float(centers[(b + 3) % desk.n_beams]))
