import math
from dataclasses import replace

import numpy as np
import pytest

from racecma import (
    ChannelRealization,
    GeometryError,
    TargetState,
    compute_resi,
    matched_filter,
    realize_channel,
    synthesize_rx_grid,
)
from racecma.radar import RxGrid, pilot_grid, steering_vector
from racecma.scenario import SPEED_OF_LIGHT
from racecma.seeding import derive_seed


def _target(position, velocity=(0.0, 0.0)):
    return TargetState(position=position, velocity=velocity, inside_region=True)


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
        surface = np.abs(matched_filter(grid, quiet.search_window()).surface)
        assert np.unravel_index(int(np.argmax(surface)), surface.shape) == (4, 2)

    def test_zero_grid_maps_to_zero_surface(self, desk):
        grid = RxGrid(
            samples=np.zeros((desk.n_subcarriers, desk.n_symbols), complex),
            pilot=pilot_grid(desk), noise_variance=1.0,
            subcarrier_spacing=desk.subcarrier_spacing, symbol_duration=desk.symbol_duration,
        )
        surface = matched_filter(grid, desk.search_window()).surface
        assert np.all(surface == 0)

    def test_filter_equals_direct_double_sum(self, desk):
        quiet = replace(desk, noise_figure_db=-150.0)
        ch = _on_grid_channel(quiet, 3, 6, beam=9)
        grid = synthesize_rx_grid(quiet, ch, 9, 0.2, seed=8)
        delays, dopplers = quiet.search_window()
        out = matched_filter(grid, (delays, dopplers)).surface

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
            noise_variance=g1.noise_variance,
            subcarrier_spacing=g1.subcarrier_spacing, symbol_duration=g1.symbol_duration,
        )
        window = desk.search_window()
        lhs = matched_filter(combo, window).surface
        rhs = a * matched_filter(g1, window).surface + b * matched_filter(g2, window).surface
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=0)

    def test_window_range_validated(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        grid = synthesize_rx_grid(desk, ch, 3, 0.1, seed=1)
        bad_delay = (np.array([1.0 / desk.subcarrier_spacing]), np.array([0.0]))
        with pytest.raises(ValueError):
            matched_filter(grid, bad_delay)
        bad_doppler = (np.array([1e-7]), np.array([1.0 / desk.symbol_duration]))
        with pytest.raises(ValueError):
            matched_filter(grid, bad_doppler)


class TestResi:
    def test_value_times_floor_is_raw_peak(self, desk):
        quiet = replace(desk, noise_figure_db=-150.0)
        ch = _on_grid_channel(quiet, 4, 2, beam=10)
        grid = synthesize_rx_grid(quiet, ch, 10, 0.1, seed=2)
        ddmap = matched_filter(grid, quiet.search_window())
        sample = compute_resi(ddmap, grid, quiet.null_mask())
        peak = float(np.max(np.abs(ddmap.surface)))
        assert sample.value * sample.noise_floor == pytest.approx(peak, rel=1e-12)
        assert sample.peak_delay == pytest.approx(float(quiet.search_window()[0][4]))

    def test_pure_noise_median_below_three(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        window, mask = desk.search_window(), desk.null_mask()
        values = []
        for s in range(200):
            grid = synthesize_rx_grid(desk, ch, 3, 0.0, seed=derive_seed("noise-resi", s))
            values.append(compute_resi(matched_filter(grid, window), grid, mask).value)
        assert np.median(values) < 3.0

    def test_empty_null_set_rejected(self, desk):
        ch = realize_channel(desk, _target((0.0, 50.0)))
        grid = synthesize_rx_grid(desk, ch, 3, 0.1, seed=1)
        ddmap = matched_filter(grid, desk.search_window())
        with pytest.raises(ValueError):
            compute_resi(ddmap, grid, np.zeros_like(desk.null_mask()))

    def test_high_snr_peak_stable_across_seeds(self, desk):
        # Wideband variant: bin spacing on the order of the delay resolution,
        # so neighbouring bins decorrelate and the peak is noise-proof.
        wide = replace(desk, subcarrier_spacing=1e6)
        ch = _on_grid_channel(wide, 6, 3, beam=8)
        window, mask = wide.search_window(), wide.null_mask()
        peaks = set()
        for s in (101, 202):
            grid = synthesize_rx_grid(wide, ch, 8, 0.5, seed=s)
            sample = compute_resi(matched_filter(grid, window), grid, mask)
            peaks.add((sample.peak_delay, sample.peak_doppler))
        assert len(peaks) == 1
        assert peaks.pop() == (
            pytest.approx(float(window[0][6])), pytest.approx(float(window[1][3]))
        )

    def test_steering_vector_unit_modulus(self):
        u = steering_vector(1.2, 16, 0.5)
        assert np.allclose(np.abs(u), 1.0)
        assert np.allclose(steering_vector(math.pi / 2, 8, 0.5), np.ones(8))
