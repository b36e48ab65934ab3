import itertools
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait as futures_wait
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from racecma import ScenarioConfig, desk_scenario, run_episodes
from racecma import feedback as feedback_mod
from racecma import radar as radar_mod
from racecma.feedback import EpisodeWorld
from racecma.radar import (
    ChannelRealization,
    GeometryError,
    NlosComponent,
    ResiSample,
    RxGrid,
    build_frames,
    cell_constants,
    compute_resi,
    matched_filter,
    measure_cell,
    measure_cells,
    noise_words,
    realize_channel,
    steering_vector,
    synthesize_rx_grid,
)
from racecma.scenario import SPEED_OF_LIGHT, TargetState
from racecma.seeding import derive_seed, generator_from_words, rng_from, seed_words


def _target(position, velocity=(0.0, 0.0)):
    return TargetState(position=position, velocity=velocity)


class TestRealizeChannel:
    def test_stationary_target_zero_doppler(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        assert ch.doppler == 0.0

    def test_delays_are_path_length_over_c(self, desk):
        # 150 m on both legs: delay 150/c on each, about half a microsecond.
        geometry = replace(desk, bs_position=(0.0, 0.0), ue_position=(0.0, 300.0))
        ch = realize_channel(geometry, _target((0.0, 150.0)))
        assert ch.forward_delay == pytest.approx(150.0 / SPEED_OF_LIGHT, rel=1e-12)
        assert ch.return_delay == pytest.approx(150.0 / SPEED_OF_LIGHT, rel=1e-12)
        assert ch.forward_delay == pytest.approx(5.0034e-7, rel=1e-4)

    def test_nlos_component_toggles(self, desk):
        assert realize_channel(desk, _target((0.0, 50.0))).nlos is None
        with_nlos = replace(desk, nlos_path_count=1)
        ch = realize_channel(with_nlos, _target((0.0, 50.0)))
        assert ch.nlos is not None
        assert ch.nlos.delay >= ch.return_delay
        assert ch.nlos.gain == pytest.approx(ch.ue_gain * with_nlos.gain_model.nlos_gain_ratio)

    def test_coincident_positions_raise(self, desk):
        with pytest.raises(GeometryError):
            realize_channel(desk, _target(desk.ue_position))

    def test_receding_target_negative_doppler(self, desk):
        # Moving directly away from the UE along the UE-to-target ray.
        ue = np.asarray(desk.ue_position)
        tg = np.array([0.0, 50.0])
        away = (tg - ue) / np.linalg.norm(tg - ue) * desk.target_speed
        ch = realize_channel(desk, _target(tuple(tg), tuple(away)))
        assert ch.doppler < 0
        toward = realize_channel(desk, _target(tuple(tg), tuple(-away)))
        assert toward.doppler > 0


class TestSynthesize:
    def test_zero_power_gives_pure_noise_at_configured_variance(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        grid = synthesize_rx_grid(desk, ch, beam_index=3, power_w=0.0, seed=5)
        measured = float(np.mean(np.abs(grid.samples) ** 2))
        assert measured == pytest.approx(desk.noise_variance, rel=0.05)

    def test_same_seed_bitwise_identical(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        a = synthesize_rx_grid(desk, ch, 3, 0.1, seed=42)
        b = synthesize_rx_grid(desk, ch, 3, 0.1, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = synthesize_rx_grid(desk, ch, 3, 0.1, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_noiseless_aligned_magnitude_closed_form(self, desk):
        # Beam steered exactly at the departure angle, combiner matched to
        # arrival: per-element magnitude is sqrt(p * gains * array factors).
        quiet = replace(desk, noise_figure_db=-150.0)
        beam = 7
        angle = float(quiet.beam_centers()[beam])
        ch = ChannelRealization(
            forward_delay=2e-7, return_delay=1.5e-7, doppler=80.0,
            departure_angle=angle, arrival_angle=0.9, bs_gain=2e-10, ue_gain=3e-9,
        )
        p = 0.25
        grid = synthesize_rx_grid(quiet, ch, beam, p, seed=1)
        active = ~quiet.null_mask()
        mags = np.abs(grid.samples[active])
        expected = math.sqrt(
            p * ch.bs_gain * ch.ue_gain * quiet.n_bs_antennas * quiet.n_ue_antennas
        )
        assert np.allclose(mags, expected, rtol=1e-6)

    def test_beam_index_validated(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        with pytest.raises(ValueError):
            synthesize_rx_grid(desk, ch, desk.n_beams, 0.1, seed=0)

    @pytest.mark.parametrize("changes, message", [
        ({"forward_delay": -1e-9}, "delays must be nonnegative"),
        ({"return_delay": -1e-9}, "delays must be nonnegative"),
        ({"bs_gain": -1e-12}, "gains must be nonnegative"),
        ({"ue_gain": -1e-12}, "gains must be nonnegative"),
        ({"nlos": NlosComponent(delay=1e-7, doppler=0.0, arrival_angle=0.9, gain=1e-9)},
         "specular return cannot arrive before the direct return"),
    ])
    def test_hand_built_channel_validated(self, desk, changes, message):
        values = dict(forward_delay=2e-7, return_delay=1.5e-7, doppler=80.0,
                      departure_angle=0.5, arrival_angle=0.9, bs_gain=2e-10, ue_gain=3e-9)
        # A specular return as late as the direct one is valid.
        valid = NlosComponent(delay=1.5e-7, doppler=0.0, arrival_angle=0.9, gain=1e-9)
        synthesize_rx_grid(desk, ChannelRealization(**values, nlos=valid), 3, 0.1, seed=0)
        with pytest.raises(ValueError, match=message):
            # The channel is built inside the block: a check may run when it
            # is built or when it enters the chain.
            synthesize_rx_grid(desk, ChannelRealization(**{**values, **changes}), 3, 0.1,
                               seed=0)


def _on_grid_channel(scenario, delay_idx, doppler_idx, beam):
    delays, dopplers = scenario.search_window()
    angle = float(scenario.beam_centers()[beam])
    return ChannelRealization(
        forward_delay=float(delays[delay_idx]) / 2,
        return_delay=float(delays[delay_idx]) / 2,
        doppler=float(dopplers[doppler_idx]),
        departure_angle=angle, arrival_angle=1.0, bs_gain=1e-9, ue_gain=1e-8,
    )


class TestMatchedFilter:
    def test_noiseless_peak_at_true_bin(self, desk):
        quiet = replace(desk, noise_figure_db=-150.0)
        ch = _on_grid_channel(quiet, 4, 2, beam=10)
        grid = synthesize_rx_grid(quiet, ch, 10, 0.1, seed=2)
        surface = np.abs(matched_filter(grid, quiet.search_window()))
        assert np.unravel_index(int(np.argmax(surface)), surface.shape) == (4, 2)

    def test_zero_grid_maps_to_zero_surface(self, desk):
        grid = RxGrid(
            samples=np.zeros((desk.n_subcarriers, desk.n_symbols), complex),
            pilot=cell_constants(desk).pilot,
            subcarrier_spacing=desk.subcarrier_spacing, symbol_duration=desk.symbol_duration,
        )
        surface = matched_filter(grid, desk.search_window())
        assert np.all(surface == 0)

    def test_filter_equals_direct_double_sum(self, desk):
        quiet = replace(desk, noise_figure_db=-150.0)
        ch = _on_grid_channel(quiet, 3, 6, beam=9)
        grid = synthesize_rx_grid(quiet, ch, 9, 0.2, seed=8)
        delays, dopplers = quiet.search_window()
        out = matched_filter(grid, (delays, dopplers))

        # Independent oracle: explicit double sum over all resource elements.
        n_sc, n_sym = grid.samples.shape
        d, v = 3, 6
        acc = 0.0 + 0.0j
        for k in range(n_sc):
            for m in range(n_sym):
                atom = (
                    grid.pilot[k, m]
                    * np.exp(-2j * math.pi * grid.subcarrier_spacing * k * delays[d])
                    * np.exp(2j * math.pi * dopplers[v] * m * grid.symbol_duration)
                )
                acc += np.conj(atom) * grid.samples[k, m]
        acc /= n_sc * n_sym
        assert out[d, v] == pytest.approx(acc, rel=1e-10)

        # Coherent on-grid sum: composite amplitude scaled by the active share.
        active_share = float(np.mean(~quiet.null_mask()))
        w_gain = math.sqrt(quiet.n_ue_antennas)
        f_gain = math.sqrt(quiet.n_bs_antennas)
        expected = (
            math.sqrt(0.2 * ch.bs_gain * ch.ue_gain) * w_gain * f_gain * active_share
        )
        assert abs(out[d, v]) == pytest.approx(expected, rel=1e-6)

    def test_linearity(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        g1 = synthesize_rx_grid(desk, ch, 3, 0.1, seed=11)
        g2 = synthesize_rx_grid(desk, ch, 5, 0.3, seed=12)
        a, b = 1.7, -0.4
        combo = RxGrid(
            samples=a * g1.samples + b * g2.samples, pilot=g1.pilot,
            subcarrier_spacing=g1.subcarrier_spacing, symbol_duration=g1.symbol_duration,
        )
        window = desk.search_window()
        lhs = matched_filter(combo, window)
        rhs = a * matched_filter(g1, window) + b * matched_filter(g2, window)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=0)

    def test_window_range_validated(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        grid = synthesize_rx_grid(desk, ch, 3, 0.1, seed=1)
        good = (np.array([1e-7]), np.array([0.0]))
        expected = matched_filter(grid, good)
        bad_delay = (np.array([1.0 / desk.subcarrier_spacing]), np.array([0.0]))
        bad_doppler = (np.array([1e-7]), np.array([1.0 / desk.symbol_duration]))
        # The check sits in the cached filter bank, which keeps no exception:
        # a rejected window raises on every call, not only the first.
        for bad, axis in ((bad_delay, "delay"), (bad_doppler, "doppler")):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"{axis} bins outside"):
                    matched_filter(grid, bad)
            assert np.array_equal(matched_filter(grid, good), expected)


class TestResi:
    def test_value_times_floor_is_raw_peak(self, desk):
        quiet = replace(desk, noise_figure_db=-150.0)
        ch = _on_grid_channel(quiet, 4, 2, beam=10)
        grid = synthesize_rx_grid(quiet, ch, 10, 0.1, seed=2)
        surface = matched_filter(grid, quiet.search_window())
        sample = compute_resi(surface, grid, quiet.null_mask())
        magnitudes = np.abs(surface)
        assert sample.value * sample.noise_floor == pytest.approx(magnitudes.max(), rel=1e-12)
        assert np.unravel_index(int(np.argmax(magnitudes)), magnitudes.shape)[0] == 4

    def test_pure_noise_median_below_three(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        window, mask = desk.search_window(), desk.null_mask()
        values = []
        for s in range(200):
            grid = synthesize_rx_grid(desk, ch, 3, 0.0, seed=derive_seed("noise-resi", s))
            values.append(compute_resi(matched_filter(grid, window), grid, mask).value)
        assert np.median(values) < 3.0

    @pytest.mark.parametrize("power_w", [math.nan, math.inf])
    def test_non_finite_power_rejected(self, desk, power_w):
        # It gave a NaN sample, or an infinite one.
        ch = realize_channel(desk, _target((0.0, 50.0)))
        with pytest.raises(ValueError, match="power must be nonnegative and finite"):
            synthesize_rx_grid(desk, ch, 0, power_w, seed=3)

    @pytest.mark.parametrize("value, floor", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-1.0, 1.0),
        (1.0, 0.0),
    ])
    def test_meaningless_sample_rejected(self, value, floor):
        with pytest.raises(ValueError, match="invalid echo-strength sample"):
            ResiSample(value=value, noise_floor=floor)

    def test_empty_null_set_rejected(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        grid = synthesize_rx_grid(desk, ch, 3, 0.1, seed=1)
        surface = matched_filter(grid, desk.search_window())
        with pytest.raises(ValueError):
            compute_resi(surface, grid, np.zeros_like(desk.null_mask()))

    def test_high_snr_peak_stable_across_seeds(self, desk):
        # Wideband variant: bin spacing on the order of the delay resolution,
        # so neighbouring bins decorrelate and the peak is noise-proof.
        wide = replace(desk, subcarrier_spacing=1e6)
        ch = _on_grid_channel(wide, 6, 3, beam=8)
        window = wide.search_window()
        for s in (101, 202):
            grid = synthesize_rx_grid(wide, ch, 8, 0.5, seed=s)
            surface = np.abs(matched_filter(grid, window))
            assert np.unravel_index(int(np.argmax(surface)), surface.shape) == (6, 3)

    def test_steering_vector_unit_modulus(self):
        u = steering_vector(1.2, 16, 0.5)
        assert np.allclose(np.abs(u), 1.0)
        assert np.allclose(steering_vector(math.pi / 2, 8, 0.5), np.ones(8))


def _const_arrays(const):
    """Every array of a CellConstants, by field name (beamformers indexed)."""
    arrays = {}
    for f in fields(const):
        value = getattr(const, f.name)
        if isinstance(value, tuple):
            arrays.update({f"{f.name}[{i}]": a for i, a in enumerate(value)})
        elif isinstance(value, np.ndarray):
            arrays[f.name] = value
    return arrays


class TestCellConstants:
    def test_shared_arrays_are_read_only_and_scenario_arrays_are_the_callers(self):
        scenario = desk_scenario(n_beams=11)  # a scenario no other test caches
        # Every array the scenario's methods return is the caller's own:
        # writing it changes neither the next call nor cell_constants.
        mask = scenario.null_mask()
        delays, dopplers = scenario.search_window()
        centers = scenario.beam_centers()
        expected = [a.copy() for a in (mask, delays, dopplers, centers)]
        mask[:] = ~mask
        delays += 1.0
        dopplers[:] = 0.0
        centers[:] = 0.0
        again = [scenario.null_mask(), *scenario.search_window(), scenario.beam_centers()]
        assert [a.tobytes() for a in again] == [a.tobytes() for a in expected]

        const = cell_constants(scenario)
        arrays = _const_arrays(const)
        assert {"bs_phases", "ue_phases", "e_delay_active", "e_doppler_t",
                "beamformers[10]"} <= set(arrays)
        assert [name for name, a in arrays.items() if a.flags.writeable] == []
        with pytest.raises(ValueError, match="read-only"):
            const.bs_phases[0] = 1.0
        built_fresh = _const_arrays(cell_constants.__wrapped__(scenario))
        assert {name: a.tobytes() for name, a in arrays.items()} == {
            name: a.tobytes() for name, a in built_fresh.items()}


# Reference: the radar chain as written before its scenario constants were
# cached, line for line, except that the channel's leg lengths and range rate
# are plain float sums, not BLAS dot products (whose last bit depends on the
# kernel the CPU selects). The chain must reproduce it bit for bit, since the
# pinned output digests rest on every measured cell.


def _ref_steering_vector(angle, n_elements, spacing_wl):
    phases = 2.0 * math.pi * spacing_wl * np.arange(n_elements) * math.cos(angle)
    return np.exp(1j * phases)


def _ref_realize_channel(scenario, target):
    bx, by = scenario.bs_position
    ux, uy = scenario.ue_position
    x, y = target.position
    vx, vy = target.velocity

    d_fwd = math.sqrt((x - bx) * (x - bx) + (y - by) * (y - by))
    d_ret = math.sqrt((x - ux) * (x - ux) + (y - uy) * (y - uy))

    lam = scenario.wavelength
    range_rate = vx * ((x - ux) / d_ret) + vy * ((y - uy) / d_ret)
    doppler = -range_rate / lam

    gains = scenario.gain_model
    bs_gain = (lam / (4.0 * math.pi * d_fwd)) ** 2
    ue_gain = gains.scattering_gain * (lam / (4.0 * math.pi * d_ret)) ** 2

    nlos = None
    if scenario.nlos_path_count == 1:
        nlos = NlosComponent(
            delay=d_ret / SPEED_OF_LIGHT + gains.nlos_excess_delay,
            doppler=doppler * gains.nlos_doppler_ratio,
            arrival_angle=math.atan2(y - uy, x - ux) + gains.nlos_angle_offset,
            gain=ue_gain * gains.nlos_gain_ratio,
        )

    return ChannelRealization(
        forward_delay=d_fwd / SPEED_OF_LIGHT,
        return_delay=d_ret / SPEED_OF_LIGHT,
        doppler=doppler,
        departure_angle=math.atan2(y - by, x - bx),
        arrival_angle=math.atan2(y - uy, x - ux),
        bs_gain=bs_gain,
        ue_gain=ue_gain,
        nlos=nlos,
    )


def _ref_echo_term(scenario, amplitude, delay, doppler):
    k = np.arange(scenario.n_subcarriers)
    m = np.arange(scenario.n_symbols)
    delay_ramp = np.exp(-2j * math.pi * scenario.subcarrier_spacing * k * delay)
    doppler_ramp = np.exp(2j * math.pi * doppler * m * scenario.symbol_duration)
    return amplitude * np.outer(delay_ramp, doppler_ramp)


def _ref_synthesize_rx_grid(scenario, channel, beam_index, power_w, seed):
    n_bs, n_ue = scenario.n_bs_antennas, scenario.n_ue_antennas
    spacing = scenario.antenna_spacing
    angle = float(scenario.beam_centers()[beam_index])
    f = _ref_steering_vector(angle, n_bs, spacing) / math.sqrt(n_bs)
    w = _ref_steering_vector(channel.arrival_angle, n_ue, spacing) / math.sqrt(n_ue)

    pilot = np.ones((scenario.n_subcarriers, scenario.n_symbols), dtype=complex)
    pilot[scenario.null_mask()] = 0.0
    tx_gain = np.vdot(_ref_steering_vector(channel.departure_angle, n_bs, spacing), f)
    rx_gain = np.vdot(w, _ref_steering_vector(channel.arrival_angle, n_ue, spacing))
    amp = math.sqrt(channel.bs_gain * channel.ue_gain) * rx_gain * tx_gain
    signal = _ref_echo_term(scenario, amp, channel.total_delay, channel.doppler)

    if channel.nlos is not None:
        rx_gain_nlos = np.vdot(
            w, _ref_steering_vector(channel.nlos.arrival_angle, n_ue, spacing)
        )
        amp_nlos = math.sqrt(channel.bs_gain * channel.nlos.gain) * rx_gain_nlos * tx_gain
        signal = signal + _ref_echo_term(
            scenario, amp_nlos, channel.forward_delay + channel.nlos.delay, channel.nlos.doppler
        )

    rng = rng_from(seed, "rx-noise")
    n_sc, n_sym = pilot.shape
    noise = math.sqrt(scenario.noise_variance / 2.0) * rng.standard_normal(
        (n_sc, n_sym, 2)
    ).view(np.complex128)[..., 0]
    return math.sqrt(power_w) * signal * pilot + noise, pilot


def _ref_surface(scenario, samples, pilot):
    delays, dopplers = scenario.search_window()
    n_sc, n_sym = samples.shape
    e_delay = np.exp(2j * math.pi * scenario.subcarrier_spacing * np.outer(delays, np.arange(n_sc)))
    e_doppler = np.exp(
        -2j * math.pi * scenario.symbol_duration * np.outer(dopplers, np.arange(n_sym))
    )
    return e_delay @ (np.conj(pilot) * samples) @ e_doppler.T / (n_sc * n_sym)


def _ref_floor(samples, null_mask):
    return float(np.sqrt(np.mean(np.abs(samples[null_mask]) ** 2)))


_SCENARIOS = {
    (scale, nlos): replace(base, nlos_path_count=nlos)
    for scale, base in (("desk", desk_scenario()), ("paper", ScenarioConfig()))
    for nlos in (0, 1)
}


class TestChainMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        key=st.sampled_from(list(_SCENARIOS)),
        position=st.tuples(st.floats(-40.0, 40.0), st.floats(20.0, 90.0)),
        velocity=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        beam=st.integers(0, 19),
        power_w=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 1e3)),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_cell_is_bitwise_the_reference(self, key, position, velocity, beam, power_w, seed):
        scenario = _SCENARIOS[key]
        target = _target(position, velocity)
        channel = realize_channel(scenario, target)
        assert channel == _ref_realize_channel(scenario, target)

        grid = synthesize_rx_grid(scenario, channel, beam, power_w, seed)
        ref_samples, ref_pilot = _ref_synthesize_rx_grid(scenario, channel, beam, power_w, seed)
        assert np.array_equal(grid.samples, ref_samples)
        assert np.array_equal(grid.pilot, ref_pilot)

        surface = matched_filter(grid, scenario.search_window())
        ref_surface = _ref_surface(scenario, ref_samples, ref_pilot)
        assert np.array_equal(surface, ref_surface)

        mask = scenario.null_mask()
        sample = compute_resi(surface, grid, mask)
        ref_floor = _ref_floor(ref_samples, mask)
        assert sample.noise_floor == ref_floor
        assert sample.value == float(np.abs(ref_surface).max()) / ref_floor


def _chain_values(scenario, world, t, beam, eta):
    """The cell a world measures, run through the radar chain stage by stage
    and through the line-for-line reference above: the two values, then the
    two noise floors."""
    channel = realize_channel(scenario, world.targets[t])
    args = (scenario, channel, beam, eta * scenario.tx_power_w, derive_seed(world.seed, "frame", t))
    grid = synthesize_rx_grid(*args)
    surface = matched_filter(grid, scenario.search_window())
    chain = compute_resi(surface, grid, scenario.null_mask())
    samples, pilot = _ref_synthesize_rx_grid(*args)
    peak = float(np.abs(_ref_surface(scenario, samples, pilot)).max())
    ref_floor = _ref_floor(samples, scenario.null_mask())
    return chain.value, peak / ref_floor, chain.noise_floor, ref_floor


# How far a cell measured from the split may be from the chain's value: the
# two differ only in rounding, by about 1e-15 relative.
SPLIT_RTOL = 1e-12


def assert_near(value, reference):
    assert value == pytest.approx(reference, rel=SPLIT_RTOL, abs=0)


class TestSplitMatchesChain:
    """A cell from the frame's echo and noise surfaces equals the chain's
    value up to rounding, at any power, zero included."""

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.sampled_from(list(_SCENARIOS)),
        position=st.tuples(st.floats(-40.0, 40.0), st.floats(20.0, 90.0)),
        velocity=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        beam=st.integers(0, 19),
        power_w=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 1e3)),
        seed=st.integers(0, 2**63 - 1),
    )
    @example(key=("desk", 1), position=(0.0, 50.0), velocity=(0.0, 0.0), beam=0, power_w=0.0,
             seed=0)
    @example(key=("paper", 1), position=(0.0, 50.0), velocity=(1.0, -1.0), beam=10,
             power_w=1e3, seed=1)
    def test_cell_within_tolerance_of_the_chain(self, key, position, velocity, beam, power_w,
                                                 seed):
        scenario = _SCENARIOS[key]
        const = cell_constants(scenario)
        channel = realize_channel(scenario, _target(position, velocity))
        frames = build_frames(const, [channel], noise_words([seed]))
        grid = synthesize_rx_grid(scenario, channel, beam, power_w, seed)
        chain = compute_resi(matched_filter(grid, scenario.search_window()), grid,
                             scenario.null_mask())
        assert_near(frames.floor[0], chain.noise_floor)
        assert_near(measure_cell(const, frames, 0, beam, power_w), chain.value)


def _asks(cell):
    """A closed loop, as ``feedback._lockstep`` drives one, that asks for
    ``cell`` at its frame and for nothing at any other."""
    for t in itertools.count():
        yield cell if t == cell[0] else None


class TestWorldCellIsTheChain:
    """A streaming world measures every missing cell of a frame from one
    frame, built with one draw of its noise; each value must match the
    chain's, and the line-for-line reference's, to within ``SPLIT_RTOL``,
    whichever cells share the draw, and be the same value in whichever order
    they are visited. The frame's floor matches both floors likewise."""

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(list(_SCENARIOS)),
        seed=st.integers(0, 2**63 - 1),
        t=st.integers(0, 12),
        cells=st.lists(
            st.tuples(st.integers(0, 19),
                      st.one_of(st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)), st.floats(0.0, 1.0))),
            min_size=2, max_size=4, unique=True,
        ),
    )
    @example(key=("paper", 1), seed=3, t=0, cells=[(0, 0.0), (7, 1.0)])
    @example(key=("desk", 0), seed=3, t=5, cells=[(4, 0.5), (4, 0.0)])
    def test_cell_equals_chain_in_either_visit_order(self, key, seed, t, cells):
        scenario = _SCENARIOS[key]
        values = {}
        kept = EpisodeWorld(scenario, seed)  # the chain's targets
        kept.grow(t + 1)
        for order in (cells, cells[::-1]):
            world = EpisodeWorld(scenario, seed, keep=False)
            built = []

            def counted(*args):
                built.append(build_frames(*args))
                return built[-1]

            with mock.patch.object(feedback_mod, "build_frames", counted):
                feedback_mod._lockstep(cell_constants(scenario),
                                       [(world, [_asks((t, *c)) for c in order])], t + 1)
            # A stack of one frame, so one draw, served every cell.
            assert len(built) == 1 and len(built[0].floor) == 1
            assert world.target == kept.targets[t]
            floor = built[0].floor[0]
            for beam, eta in order:
                value = world.cells[(t, beam, eta)]
                chain, ref, chain_floor, ref_floor = _chain_values(scenario, kept, t, beam, eta)
                for got, expected in ((value, chain), (value, ref), (floor, chain_floor),
                                      (floor, ref_floor)):
                    assert_near(got, expected)
                assert values.setdefault((beam, eta), value) == value
            assert len(world.cells) == len(cells)


_GRIDS = {"desk": desk_scenario(), "paper": ScenarioConfig()}


class TestStackedArithmetic:
    """What the stacked frames and cells assume of numpy and its BLAS on the
    running machine. Each check is bit for bit, so a BLAS that rounds a
    stacked product differently fails here by name, not only as a trace
    that differs between a batch and its episodes run alone."""

    @pytest.mark.parametrize("grid", list(_GRIDS))
    @pytest.mark.parametrize("size", [1, 2, 3, 8, 12, 16, 40])
    def test_stacked_operations_equal_per_slice(self, grid, size):
        const = cell_constants(_GRIDS[grid])
        n_sc, n_sym = const.pilot.shape
        active = const.null_row
        rng = np.random.default_rng(size)
        grids = rng.standard_normal((size, n_sc, n_sym, 2)).view(np.complex128)[..., 0]
        # The noise surface: the active rows of each grid through both banks.
        stacked = const.e_delay_active @ (grids[:, :active] @ const.e_doppler_t)
        for b in range(size):
            alone = const.e_delay_active @ (grids[b, :active] @ const.e_doppler_t)
            assert stacked[b].tobytes() == alone.tobytes()
        # The echo surface's factors: a matrix-vector product per frame, as
        # a stack of (K', 1) columns and of (1, M) rows.
        delay_ramps = np.exp(1j * rng.uniform(-3.0, 3.0, (size, active)))
        doppler_ramps = np.exp(1j * rng.uniform(-3.0, 3.0, (size, n_sym)))
        columns = const.e_delay_active @ delay_ramps[..., :, None]
        rows = doppler_ramps[..., None, :] @ const.e_doppler_t
        for b in range(size):
            column = const.e_delay_active @ delay_ramps[b][..., :, None]
            assert columns[b].tobytes() == column.tobytes()
            assert rows[b].tobytes() == (doppler_ramps[b][..., None, :] @ const.e_doppler_t
                                         ).tobytes()
        power = np.abs(grids[:, const.null_row:]).reshape(size, -1) ** 2
        sums = np.add.reduce(power, axis=1)
        assert sums.tolist() == [np.add.reduce(row) for row in power.copy()]
        words = seed_words([derive_seed(grid, size, b) for b in range(size)])
        draws = np.empty((size, n_sc, n_sym, 2))
        for row, out in zip(words, draws):
            generator_from_words(row).standard_normal(out=out)
        for row, out in zip(words, draws):
            fresh = generator_from_words(row).standard_normal((n_sc, n_sym, 2))
            assert out.tobytes() == fresh.tobytes()


stack_given = given(
    key=st.sampled_from(list(_SCENARIOS)),
    frames=st.lists(
        st.tuples(st.tuples(st.floats(-40.0, 40.0), st.floats(20.0, 90.0)),
                  st.integers(0, 2**63 - 1)),
        min_size=1, max_size=5),
    picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 19),
                             st.one_of(st.sampled_from((0.0, 0.2, 0.5, 1.0)),
                                       st.floats(0.0, 1.0))),
                   min_size=1, max_size=8),
)


def _stack(key, frames, picks):
    """A stack's scenario, constants, channels, frame seeds, their noise
    words and cells."""
    scenario = _SCENARIOS[key]
    channels = [realize_channel(scenario, _target(p, (1.0, -0.5))) for p, _ in frames]
    seeds = [seed for _, seed in frames]
    cells = [(b % len(frames), beam, eta * scenario.tx_power_w) for b, beam, eta in picks]
    return scenario, cell_constants(scenario), channels, seeds, noise_words(seeds), cells


def _alone(const, channel, row):
    """The frame of one channel and noise row, as a stack of one."""
    return build_frames(const, [channel], [row])


@pytest.mark.parametrize("rows", [2, 3, 4])
def test_fill_draws_exactly_the_rows_it_is_given(desk, rows):
    # A stack's last chunk may be partial: each row of the buffer slice it
    # is given is drawn, and a words list of another length is an error, as
    # it is for a stack.
    const = cell_constants(desk)
    shape = const.pilot.shape
    words = noise_words(range(3))
    draws = np.full((rows, *shape, 2), np.nan)
    if rows != len(words):
        with pytest.raises(ValueError):
            radar_mod._fill(words, draws)
        with pytest.raises(ValueError, match="one noise words row per channel"):
            build_frames(const, [realize_channel(desk, _target((0.0, 50.0)))] * rows, words)
        return
    radar_mod._fill(words, draws)
    for row, out in zip(words, draws):
        assert out.tobytes() == generator_from_words(row).standard_normal((*shape, 2)).tobytes()


@pytest.mark.parametrize("split", [measure_cell, measure_cells])
@pytest.mark.parametrize("beam, power_w, message", [
    (-1, 0.1, "beam_index out of range"),
    (20, 0.1, "beam_index out of range"),  # the desk's n_beams
    (3, -1e-3, "power must be nonnegative"),
    (3, math.nan, "power must be nonnegative and finite"),
    (3, math.inf, "power must be nonnegative and finite"),
])
def test_split_validates_beam_and_power(desk, split, beam, power_w, message):
    assert desk.n_beams == 20
    const = cell_constants(desk)
    frames = build_frames(const, [realize_channel(desk, _target((0.0, 50.0)))],
                          noise_words([1]))
    with pytest.raises(ValueError, match=message):
        if split is measure_cell:
            split(const, frames, 0, beam, power_w)
        else:
            split(const, frames, [(0, 3, 0.1), (0, beam, power_w)])


class TestStackedCells:
    """A stack of frames and cells gives each frame and cell exactly what it
    gets built in a stack of one, and each cell the chain's value up to
    rounding."""

    @settings(max_examples=40, deadline=None)
    @stack_given
    def test_stack_equals_frames_and_cells_built_alone(self, key, frames, picks):
        scenario, const, channels, _, words, cells = _stack(key, frames, picks)
        stack = build_frames(const, channels, words)
        for b, (channel, row) in enumerate(zip(channels, words)):
            alone = _alone(const, channel, row)
            for name in ("echo", "noise", "departure"):
                assert getattr(stack, name)[b].tobytes() == getattr(alone, name)[0].tobytes(), name
            assert stack.floor[b] == alone.floor[0]
        values = measure_cells(const, stack, cells)
        for (b, beam, power_w), value in zip(cells, values):
            assert value == measure_cell(const, _alone(const, channels[b], words[b]), 0, beam,
                                         power_w)
            assert value == measure_cell(const, stack, b, beam, power_w)

    @settings(max_examples=40, deadline=None)
    @stack_given
    def test_stack_equals_chain(self, key, frames, picks):
        scenario, const, channels, seeds, words, cells = _stack(key, frames, picks)
        values = measure_cells(const, build_frames(const, channels, words), cells)
        for (b, beam, power_w), value in zip(cells, values):
            grid = synthesize_rx_grid(scenario, channels[b], beam, power_w, seeds[b])
            surface = matched_filter(grid, scenario.search_window())
            assert_near(value, compute_resi(surface, grid, scenario.null_mask()).value)


# The batch split: ``feedback.run_episodes`` starts a thread to run half of
# the worlds of a paper-scale batch of several seeds, each half in a
# lockstep of its own; every frame and its noise draw is built on the
# thread of its world's half.
REAL_SPLIT_NORMALS = feedback_mod.SPLIT_NORMALS


@pytest.fixture()
def locksteps(monkeypatch):
    """Split every batch of two seeds or more on two CPUs (splitting
    allowed), and record each lockstep as it ends: its thread, its worlds'
    seeds and whether it built blocks (its world is kept: a one-seed
    batch's). ``feedback.allow_batch_split`` turns splitting off, and the
    fixture turns it back on."""
    halves = []

    def lockstep(const, runs, n_frames):
        try:
            real_lockstep(const, runs, n_frames)
        finally:
            halves.append((threading.current_thread().name, [world.seed for world, _ in runs],
                           runs[0][0].keep))

    real_lockstep = feedback_mod._lockstep
    monkeypatch.setattr(feedback_mod, "SPLIT_NORMALS", 1)
    monkeypatch.setattr(feedback_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(feedback_mod, "_lockstep", lockstep)
    yield halves
    feedback_mod.allow_batch_split(True)


# A scenario's horizon for these batches: 8 paper or 10 desk frames.
_FIDELITY = {"desk": 0.1, "paper": 0.008}


def _batch(n):
    """A batch of n seed groups: 3 beside np.int64(3), the first and last
    group with two triples each."""
    seeds = [3, np.int64(3), *range(10, 10 + n)][:n]
    seeds = [seeds[0], *seeds, seeds[-1]] if n > 1 else seeds * 2
    return [(0.5 * i, 0.5 * i + 1.0, 0.5 * i + 3.0) for i in range(len(seeds))], seeds


def _trace_bytes(traces):
    return [b"".join(getattr(trace, name).tobytes()
                     for name in ("resi", "states", "in_beam", "power")) for trace in traces]


def _run_cold(scenario, triples, seeds, fidelity=1.0):
    """The traces' bytes of a batch run on a thread holding no world."""
    feedback_mod._SLOT.world = None
    return _trace_bytes(run_episodes(scenario, triples, seeds, fidelity=fidelity))


def _main():
    return threading.current_thread().name


def _helper_threads():
    return [thread for thread in threading.enumerate() if thread.name.startswith("racecma-")]


class TestNoiseHelper:
    """A batch split over two threads gives the bytes of the batch on one
    thread, whatever its size, and the thread ends with the call; its error
    reaches the caller, a thread that cannot start leaves the batch to the
    caller, and no batch splits on one CPU, in a process that forbids it, at
    desk scale or with one seed."""

    @pytest.mark.parametrize("key", list(_SCENARIOS), ids=lambda key: f"{key[0]}-nlos{key[1]}")
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 16, 17])
    def test_helper_on_and_off_give_the_same_bytes(self, locksteps, key, n):
        scenario, fidelity = _SCENARIOS[key], _FIDELITY[key[0]]
        triples, seeds = _batch(n)
        split = _run_cold(scenario, triples, seeds, fidelity)
        if n == 1:  # a one-seed batch builds blocks on this thread
            assert locksteps == [(_main(), [3], True)]
        else:  # the helper thread runs the front half of the worlds, this thread the rest
            groups = list(dict.fromkeys((type(seed), seed) for seed in seeds))
            assert locksteps[0][2:] == locksteps[1][2:] == (False,)
            assert sorted(locksteps) == sorted([
                ("racecma-half", [seed for _, seed in groups[:n // 2]], False),
                (_main(), [seed for _, seed in groups[n // 2:]], False)])
        assert not _helper_threads()
        locksteps.clear()
        feedback_mod.allow_batch_split(False)
        assert _run_cold(scenario, triples, seeds, fidelity) == split
        assert [name for name, _, _ in locksteps] == [_main()]
        for b, (triple, seed) in enumerate(zip(triples, seeds)):  # and each trace alone
            assert _run_cold(scenario, [triple], [seed], fidelity) == [split[b]]

    @pytest.mark.parametrize("bad", ["helper", "caller"])
    def test_a_bad_words_row_raises_in_the_caller_after_the_helper_is_done(
        self, locksteps, monkeypatch, bad
    ):
        seed_frames = feedback_mod._seed_frames
        bad_seed = 1 if bad == "helper" else 4  # the helper thread runs worlds 1 and 2

        def spoiled(worlds, n_frames):
            seed_frames(worlds, n_frames)
            for world in worlds:
                if world.seed == bad_seed:
                    world.words = world.words.astype(np.float64)

        monkeypatch.setattr(feedback_mod, "_seed_frames", spoiled)
        with pytest.raises(ValueError, match="seed words must be"):
            _run_cold(ScenarioConfig(), [(1.0, 2.0, 3.0)] * 4, [1, 2, 3, 4], 0.008)
        # Both halves ended before the error left run_episodes.
        assert sorted(name == "racecma-half" for name, _, _ in locksteps) == [False, True]
        assert not _helper_threads()

    def test_a_thread_that_cannot_start_leaves_the_draw_to_the_caller(self, locksteps,
                                                                      monkeypatch):
        """As at the interpreter's shutdown, where a new thread may be refused."""
        def refuse(thread):
            raise RuntimeError("can't create new thread at interpreter shutdown")

        triples, seeds = _batch(5)
        feedback_mod.allow_batch_split(False)
        alone = _run_cold(ScenarioConfig(), triples, seeds, 0.008)
        feedback_mod.allow_batch_split(True)
        locksteps.clear()
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert _run_cold(ScenarioConfig(), triples, seeds, 0.008) == alone
        # One lockstep on this thread over every world, in world stacks.
        assert locksteps == [(_main(), [3, np.int64(3), 10, 11, 12], False)]

    def test_helper_stays_off_on_one_cpu(self, locksteps, monkeypatch):
        monkeypatch.setattr(feedback_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(threading.Thread, "start", _no_thread)
        triples, seeds = _batch(12)
        traces = _run_cold(ScenarioConfig(), triples, seeds, 0.008)
        assert [name for name, _, _ in locksteps] == [_main()]
        feedback_mod.allow_batch_split(False)
        assert _run_cold(ScenarioConfig(), triples, seeds, 0.008) == traces

    def test_helper_stays_off_where_the_process_forbids_it(self, locksteps, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", _no_thread)
        feedback_mod.allow_batch_split(False)
        _run_cold(ScenarioConfig(), *_batch(12), 0.008)
        assert [name for name, _, _ in locksteps] == [_main()]

    @pytest.mark.parametrize("nlos", [0, 1])
    def test_a_desk_batch_never_splits_and_a_paper_batch_does(self, locksteps, monkeypatch,
                                                              nlos):
        monkeypatch.setattr(feedback_mod, "SPLIT_NORMALS", REAL_SPLIT_NORMALS)
        _run_cold(_SCENARIOS["desk", nlos], *_batch(17), 0.1)
        assert [name for name, _, _ in locksteps] == [_main()]
        locksteps.clear()
        _run_cold(_SCENARIOS["paper", nlos], *_batch(2), 0.008)
        assert sorted(name for name, _, _ in locksteps) == sorted([_main(), "racecma-half"])

    def test_a_split_batch_keeps_no_world_and_a_one_seed_batch_replays_the_held_one(
        self, locksteps, monkeypatch
    ):
        built, stepped = [], []

        class Recorded(feedback_mod.EpisodeWorld):
            def __init__(self, scenario, seed, keep=True):
                super().__init__(scenario, seed, keep)
                built.append(seed)

            def _step(self, t, before):
                stepped.append(self.seed)
                return super()._step(t, before)

        monkeypatch.setattr(feedback_mod, "EpisodeWorld", Recorded)
        scenario, t = ScenarioConfig(), (1e9, 2e9, 3e9)  # every frame measured
        feedback_mod._SLOT.world = None
        alone = run_episodes(scenario, [t], [4], fidelity=0.008)
        world = feedback_mod._SLOT.world
        assert (world.seed, world.keep, len(world.targets), len(world.cells)) == (4, True, 8, 8)
        assert locksteps == [(_main(), [4], True)]
        # A batch of several seeds replays no held world, even one of its
        # seeds': the helper thread runs the front half of its worlds, all
        # streaming, this thread the rest, and no world is held after it.
        locksteps.clear()
        built.clear()
        batch = run_episodes(scenario, [t] * 4, [4, 5, 6, 7], fidelity=0.008)
        assert built == [4, 5, 6, 7] and feedback_mod._SLOT.world is None
        assert sorted(locksteps) == sorted([("racecma-half", [4, 5], False),
                                            (_main(), [6, 7], False)])
        assert _trace_bytes(batch[:1]) == _trace_bytes(alone)
        # Two seeds split one each.
        locksteps.clear()
        run_episodes(scenario, [t] * 2, [7, 8], fidelity=0.008)
        assert sorted(locksteps) == sorted([("racecma-half", [7], False), (_main(), [8], False)])
        assert feedback_mod._SLOT.world is None and not _helper_threads()
        # A one-seed batch builds a kept world, and the next one on its seed
        # replays its eight frames without a step or a draw.
        run_episodes(scenario, [t], [4], fidelity=0.008)
        world = feedback_mod._SLOT.world
        built.clear()
        stepped.clear()
        again = run_episodes(scenario, [t], [4], fidelity=0.008)
        assert feedback_mod._SLOT.world is world and built == stepped == []
        assert _trace_bytes(again) == _trace_bytes(alone)

    def test_concurrent_callers_get_their_own_bytes(self, locksteps):
        """More caller threads than CPUs, switching often, each splitting
        its batches: each batch is its own."""
        batches = [(_SCENARIOS["paper", nlos], *_batch(n)) for nlos in (0, 1) for n in (2, 3, 4)]
        feedback_mod.allow_batch_split(False)
        serial = [_run_cold(*batch, 0.008) for batch in batches]
        feedback_mod.allow_batch_split(True)
        locksteps.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(batches)) as pool:
                jobs = [[pool.submit(_run_cold, *batch, 0.008) for batch in batches]
                        for _ in range(3)]
                _, pending = futures_wait([job for row in jobs for job in row], timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not pending
        for row in jobs:
            assert [job.result() for job in row] == serial
        assert any(name == "racecma-half" for name, _, _ in locksteps)
        assert not _helper_threads()


def _no_thread(thread):
    raise AssertionError(f"a thread started: {thread.name}")


# Run as a script in a fresh interpreter: splits a paper-scale batch, then
# forks. Each pool worker of a two-job compare and a forked child that
# splits a batch of its own write the names of the threads that ran their
# locksteps, the threads they hold and their traces beside the script.
_FORK_SCRIPT = """
import json, multiprocessing, os, sys, threading
from dataclasses import replace
from pathlib import Path

from racecma import ScenarioConfig, bench, feedback
from racecma.bench import ExperimentSpec, run_compare

HERE = Path(__file__).resolve().parent
os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs on any runner; forks inherit it
_real_rep = bench._compare_rep
_real_lockstep = feedback._lockstep
halves = []  # the name of the thread of each lockstep of this process


def lockstep(const, runs, n_frames):
    halves.append(threading.current_thread().name)
    _real_lockstep(const, runs, n_frames)


def report():
    return json.dumps({"caller": threading.current_thread().name, "halves": halves,
                       "threads": [thread.name for thread in threading.enumerate()]})


def rep(spec, r):
    halves.clear()
    rows = _real_rep(spec, r)
    (HERE / f"worker-{os.getpid()}-{r}.json").write_text(report())
    return rows


def batch(name):
    traces = feedback.run_episodes(ScenarioConfig(sensing_horizon=0.05),
                                   [(1.0, 2.0, 3.0)] * 4, [1, 2, 3, 4])
    (HERE / name).write_bytes(b"".join(trace.resi.tobytes() for trace in traces))


def child():
    halves.clear()
    feedback._SLOT.world = None
    batch("child.bin")
    (HERE / "child.json").write_text(report())


if __name__ == "__main__":
    feedback._lockstep = lockstep
    batch("parent.bin")
    assert "racecma-half" in halves, halves
    bench._compare_rep = rep
    spec = ExperimentSpec(
        scenario=ScenarioConfig(sensing_horizon=0.05), methods=("CMA-ES",), budget=24.0,
        generations=1, eval_repeats=2, repetitions=2, master_seed=3, jobs=2,
    )
    run_compare(spec, HERE / "jobs2")
    bench._compare_rep = _real_rep
    run_compare(replace(spec, jobs=1), HERE / "jobs1")
    forked = multiprocessing.get_context("fork").Process(target=child)
    forked.start()
    forked.join(60)
    if forked.exitcode is None:
        forked.kill()
        sys.exit("the forked child hung")
    sys.exit(forked.exitcode)
"""


# Run as a script: a thread that runs a batch after the main thread has
# ended, when the interpreter may refuse new threads, gets one thread's
# bytes.
_LATE_SCRIPT = """
import os, threading, time

from racecma import ScenarioConfig, feedback

os.sched_getaffinity = lambda pid: {0, 1}
scenario = ScenarioConfig(sensing_horizon=0.05)


def traces():
    return [trace.resi.tobytes() for trace in
            feedback.run_episodes(scenario, [(1.0, 2.0, 3.0)] * 4, [1, 2, 3, 4])]


feedback.allow_batch_split(False)
alone = traces()
feedback.allow_batch_split(True)
traces()  # it splits


def late():
    time.sleep(0.5)
    print(traces() == alone)


threading.Thread(target=late).start()
"""


def _run_script(tmp_path, text, timeout):
    script = tmp_path / "probe.py"
    script.write_text(text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(radar_mod.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(script)], env=env, check=True, timeout=timeout,
                          stdout=subprocess.PIPE, text=True).stdout


class TestHelperLifetime:
    """Split batches across a fork and the interpreter's shutdown, each in a
    fresh interpreter with a timeout, so a hang fails the test instead of
    stalling the suite."""

    def test_a_thread_that_outlives_the_main_thread_draws_alone(self, tmp_path):
        assert _run_script(tmp_path, _LATE_SCRIPT, 120).split() == ["True"]

    def test_forked_workers_finish_without_the_helper_and_match_one_job(self, tmp_path):
        """The pool forks a process that has split batches: its workers
        finish, run every batch on their own thread and write one job's
        bytes."""
        _run_script(tmp_path, _FORK_SCRIPT, 180)
        for name in ("compare_runs.csv", "compare_summary.csv", "spec.cfg"):
            assert (tmp_path / "jobs2" / name).read_bytes() == (
                tmp_path / "jobs1" / name).read_bytes(), name
        workers = sorted(tmp_path.glob("worker-*.json"))
        assert len(workers) == 2
        for path in workers:
            report = json.loads(path.read_text())
            assert report["halves"] and set(report["halves"]) == {report["caller"]}, path.name
        # A forked child splits its own batch into the parent's bytes, and
        # keeps no thread past it.
        assert (tmp_path / "child.bin").read_bytes() == (tmp_path / "parent.bin").read_bytes()
        child = json.loads((tmp_path / "child.json").read_text())
        assert "racecma-half" in child["halves"] and child["threads"] == [child["caller"]]
