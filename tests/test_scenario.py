import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racecma import ScenarioConfig, desk_scenario
from racecma import scenario as scenario_mod
from racecma.feedback import EpisodeWorld
from racecma.scenario import (
    TARGET_SPAWN_MARGIN,
    GainModel,
    Rect,
    TargetState,
    dbm_to_watt,
    initial_target_state,
    propagate_target,
)

ARENA = Rect(-10.0, 10.0, -10.0, 10.0)


def inside(region: Rect, position, margin: float = 0.0) -> bool:
    """Whether ``position`` lies in ``region`` inset by ``margin`` of each extent."""
    mx = margin * (region.x_max - region.x_min)
    my = margin * (region.y_max - region.y_min)
    x, y = position
    return (region.x_min + mx <= x <= region.x_max - mx
            and region.y_min + my <= y <= region.y_max - my)


def test_straight_line_motion():
    state = TargetState(position=(0.0, 0.0), velocity=(3.0, 0.0))
    moved = propagate_target(state, 1.0, rng_seed=0, region=ARENA)
    assert moved.position == (3.0, 0.0)
    assert moved.velocity == (3.0, 0.0)


def test_zero_dt_rejected():
    state = TargetState(position=(0.0, 0.0), velocity=(3.0, 0.0))
    with pytest.raises(ValueError):
        propagate_target(state, 0.0, rng_seed=0, region=ARENA)


@pytest.mark.parametrize("jitter", [0.0, 0.4])
def test_reflection_preserves_speed(jitter):
    state = TargetState(position=(9.5, 0.0), velocity=(3.0, 0.0))
    moved = propagate_target(state, 1.0, rng_seed=7, region=ARENA, heading_jitter=jitter)
    assert inside(ARENA, moved.position)
    assert moved.speed == pytest.approx(3.0, abs=1e-12)
    if jitter == 0.0:
        assert moved.velocity == (-3.0, 0.0)
        assert moved.position == (7.5, 0.0)


def test_reflection_jitter_deterministic():
    state = TargetState(position=(9.5, 0.0), velocity=(3.0, 0.0))
    a = propagate_target(state, 1.0, rng_seed=7, region=ARENA, heading_jitter=0.4)
    b = propagate_target(state, 1.0, rng_seed=7, region=ARENA, heading_jitter=0.4)
    assert a.position == b.position and a.velocity == b.velocity


@pytest.mark.parametrize("start, jitter, derived", [
    ((9.5, 0.0), 0.4, True),  # a jittered reflection
    ((9.5, 0.0), 0.0, False),  # a reflection without jitter
    ((0.0, 0.0), 0.4, False),  # no reflection
])
def test_seed_parts_are_derived_only_for_a_jittered_reflection(monkeypatch, start, jitter,
                                                                derived):
    calls = []
    derive = scenario_mod.derive_seed

    def recorded(*parts):
        calls.append(parts)
        return derive(*parts)

    monkeypatch.setattr(scenario_mod, "derive_seed", recorded)
    state = TargetState(position=start, velocity=(3.0, 0.0))
    lazy = propagate_target(state, 1.0, rng_seed=(7, "motion", 2), region=ARENA,
                            heading_jitter=jitter)
    assert calls == ([(7, "motion", 2)] if derived else [])
    eager = propagate_target(state, 1.0, rng_seed=derive(7, "motion", 2), region=ARENA,
                             heading_jitter=jitter)
    assert (lazy.position, lazy.velocity) == (eager.position, eager.velocity)


def test_overlong_step_rejected():
    # 16 folding passes confine a step of up to about 15 region widths (20 m).
    ten_widths = TargetState(position=(0.0, 0.0), velocity=(200.0, 0.0))
    assert inside(ARENA, propagate_target(ten_widths, 1.0, rng_seed=0, region=ARENA).position)
    twenty_widths = TargetState(position=(0.0, 0.0), velocity=(400.0, 0.0))
    with pytest.raises(ValueError, match="fold back"):
        propagate_target(twenty_widths, 1.0, rng_seed=0, region=ARENA)


@settings(max_examples=100, deadline=None)
@given(
    corner=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
    extent=st.tuples(st.floats(1e-3, 100.0), st.floats(1e-3, 100.0)),
    step_share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    jitter=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    seed=st.integers(0, 2**32),
)
def test_target_never_leaves_the_region(corner, extent, step_share, jitter, seed):
    # The step bound of ScenarioConfig (up to and at the region's shorter
    # side) keeps every propagated frame inside the region.
    (x0, y0), (w, h) = corner, extent
    region = Rect(x0, x0 + w, y0, y0 + h)
    side = min(region.x_max - region.x_min, region.y_max - region.y_min)
    dt = desk_scenario().frame_duration
    speed = step_share * side / dt
    while speed * dt > side:
        speed = math.nextafter(speed, 0.0)
    sc = desk_scenario(region=region, target_speed=speed, heading_jitter=jitter)
    world = EpisodeWorld(sc, seed)
    for t in range(sc.frame_count):
        world.advance(t)
    assert len(world.targets) == sc.frame_count
    for target in world.targets:
        assert inside(region, target.position), target.position


def test_initial_target_state_respects_config(desk):
    state = initial_target_state(desk, seed=3)
    assert inside(desk.region, state.position, TARGET_SPAWN_MARGIN)
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
    with pytest.raises(ValueError, match="subcarrier_spacing must be positive"):
        ScenarioConfig(subcarrier_spacing=0.0)
    # The edges of the range radar.matched_filter scans: delay 1/spacing is
    # out, Doppler +-0.5/symbol_duration is in.
    with pytest.raises(ValueError, match="delay_window"):
        ScenarioConfig(delay_window=(0.0, 1.0 / 15e3))
    ScenarioConfig(doppler_window=(-0.5 / 100e-6, 0.5 / 100e-6))
    # A BS on the UE is rejected once, when the scenario is built, rather
    # than on every frame; the UE sits at (15, 10).
    for x in (15.0, 15.0 - 9e-7):
        with pytest.raises(ValueError, match="bs_position and ue_position must be distinct"):
            ScenarioConfig(bs_position=(x, 10.0))
    ScenarioConfig(bs_position=(15.0 - 2e-6, 10.0))


@pytest.mark.parametrize("overrides, guarded", [
    ({"null_fraction": 0.99}, 24), ({"n_subcarriers": 1}, 1),
], ids=["null_fraction_0.99", "one_subcarrier"])
def test_guard_rows_on_every_subcarrier_rejected(overrides, guarded):
    # With no pilot row left every echo strength was 0.0, without an error.
    with pytest.raises(ValueError, match=f"all {guarded} of n_subcarriers guard rows"):
        desk_scenario(**overrides)
    assert desk_scenario(null_fraction=0.95).null_subcarriers == 23  # one pilot row of 24


@pytest.mark.parametrize("ratio", [1.0 + 1e-9, 5.0])
def test_specular_echo_is_no_stronger_than_the_direct_one(ratio):
    # GainModel's specular echo is the weaker one; a ratio above 1 was accepted.
    with pytest.raises(ValueError, match=r"^nlos_gain_ratio must lie in \[0, 1\]$"):
        GainModel(nlos_gain_ratio=ratio)
    assert GainModel(nlos_gain_ratio=1.0).nlos_gain_ratio == 1.0


@pytest.mark.parametrize("whole_float", [False, True])
@pytest.mark.parametrize("name", [
    "n_bs_antennas", "n_ue_antennas", "n_subcarriers", "n_symbols", "n_beams",
    "n_targets", "n_delay_bins", "n_doppler_bins", "nlos_path_count",
])
def test_counts_must_be_integers(name, whole_float):
    # Without this check a float count passes every other one and fails only
    # inside the first episode (run_episode on desk_scenario(n_beams=20.5)
    # raised TypeError).
    count = getattr(desk_scenario(), name)
    value = float(count) if whole_float else count + 0.5
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        desk_scenario(**{name: value})
    assert getattr(desk_scenario(**{name: np.int64(count)}), name) == count


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
    assert desk.null_subcarriers == math.ceil(desk.null_fraction * desk.n_subcarriers) == 3
    delays, dopplers = desk.search_window()
    assert len(delays) == desk.n_delay_bins and len(dopplers) == desk.n_doppler_bins
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert replace(desk, tx_power_dbm=25.0).tx_power_w == pytest.approx(10 ** (-0.5))


def test_beam_geometry(desk):
    centers = desk.beam_centers()
    assert len(centers) == desk.n_beams
    lo, hi = desk.sweep_range
    assert np.all(centers > lo) and np.all(centers < hi)
    for b in range(desk.n_beams):
        assert desk.beam_contains(b, float(centers[b]))
        assert not desk.beam_contains(b, float(centers[(b + 3) % desk.n_beams]))
