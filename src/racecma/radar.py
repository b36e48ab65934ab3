"""Bistatic OFDM echo synthesis and delay-Doppler processing.

The chain per sensing frame: realize the two-leg channel from the current
geometry, synthesize the received pilot grid under the active beam and
sensing power, correlate it against delay/Doppler-shifted pilot replicas,
and reduce the peak to a scalar echo-strength indicator normalized by the
noise floor estimated on guard (null) resource elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scenario import SPEED_OF_LIGHT, ScenarioConfig, TargetState
from .seeding import rng_from


class GeometryError(ValueError):
    """Raised for degenerate placements (coincident BS/UE/target)."""


@dataclass(frozen=True)
class NlosComponent:
    delay: float
    doppler: float
    arrival_angle: float
    gain: float


@dataclass(frozen=True)
class ChannelRealization:
    """Deterministic channel parameters for one frame.

    Gains are linear power factors; delays compound along the forward
    (BS-to-target) and return (target-to-UE) legs.
    """

    forward_delay: float
    return_delay: float
    doppler: float
    departure_angle: float
    arrival_angle: float
    bs_gain: float
    ue_gain: float
    nlos: NlosComponent | None = None

    def __post_init__(self) -> None:
        if self.forward_delay < 0 or self.return_delay < 0:
            raise ValueError("delays must be nonnegative")
        if self.bs_gain < 0 or self.ue_gain < 0:
            raise ValueError("gains must be nonnegative")
        if self.nlos is not None and self.nlos.delay < self.return_delay:
            raise ValueError("specular return cannot arrive before the direct return")

    @property
    def total_delay(self) -> float:
        return self.forward_delay + self.return_delay


def steering_vector(angle: float, n_elements: int, spacing_wl: float) -> np.ndarray:
    """ULA response for a wave direction ``angle`` measured from the array axis."""
    phases = 2.0 * math.pi * spacing_wl * np.arange(n_elements) * math.cos(angle)
    return np.exp(1j * phases)


def _free_space_gain(wavelength: float, distance: float) -> float:
    return (wavelength / (4.0 * math.pi * distance)) ** 2


def realize_channel(scenario: ScenarioConfig, target: TargetState) -> ChannelRealization:
    """Channel parameters from the current geometry.

    Delays are path length over the speed of light; Doppler is the radial
    velocity projected on the target-to-UE leg (receding target gives a
    negative shift); leg gains follow the free-space/scattering model.
    """
    bs = np.asarray(scenario.bs_position, float)
    ue = np.asarray(scenario.ue_position, float)
    tg = np.asarray(target.position, float)

    d_fwd = float(np.linalg.norm(tg - bs))
    d_ret = float(np.linalg.norm(tg - ue))
    d_bs_ue = float(np.linalg.norm(ue - bs))
    if min(d_fwd, d_ret, d_bs_ue) < 1e-6:
        raise GeometryError("BS, UE and target positions must be distinct")

    lam = scenario.wavelength
    radial_unit = (tg - ue) / d_ret
    range_rate = float(np.dot(np.asarray(target.velocity, float), radial_unit))
    doppler = -range_rate / lam

    gains = scenario.gain_model
    bs_gain = _free_space_gain(lam, d_fwd)
    ue_gain = gains.scattering_gain * _free_space_gain(lam, d_ret)

    nlos = None
    if scenario.nlos_path_count == 1:
        nlos = NlosComponent(
            delay=d_ret / SPEED_OF_LIGHT + gains.nlos_excess_delay,
            doppler=doppler * gains.nlos_doppler_ratio,
            arrival_angle=math.atan2(*(tg - ue)[::-1]) + gains.nlos_angle_offset,
            gain=ue_gain * gains.nlos_gain_ratio,
        )

    return ChannelRealization(
        forward_delay=d_fwd / SPEED_OF_LIGHT,
        return_delay=d_ret / SPEED_OF_LIGHT,
        doppler=doppler,
        departure_angle=math.atan2(*(tg - bs)[::-1]),
        arrival_angle=math.atan2(*(tg - ue)[::-1]),
        bs_gain=bs_gain,
        ue_gain=ue_gain,
        nlos=nlos,
    )


@dataclass(frozen=True)
class RxGrid:
    """Received pilot grid for one frame, indexed [subcarrier, symbol]."""

    samples: np.ndarray
    pilot: np.ndarray
    subcarrier_spacing: float
    symbol_duration: float

    def __post_init__(self) -> None:
        if self.samples.shape != self.pilot.shape:
            raise ValueError("samples and pilot dimensions must match")


@lru_cache(maxsize=64)
def pilot_grid(scenario: ScenarioConfig) -> np.ndarray:
    """Unit pilots on active resource elements, zero on the guard band."""
    pilot = np.ones((scenario.n_subcarriers, scenario.n_symbols), dtype=complex)
    pilot[scenario.null_mask()] = 0.0
    pilot.setflags(write=False)
    return pilot


@lru_cache(maxsize=64)
def _beamformer(scenario: ScenarioConfig, beam_index: int) -> np.ndarray:
    angle = float(scenario.beam_centers()[beam_index])
    f = steering_vector(angle, scenario.n_bs_antennas, scenario.antenna_spacing)
    f = f / math.sqrt(scenario.n_bs_antennas)
    f.setflags(write=False)
    return f


def _echo_term(
    scenario: ScenarioConfig,
    amplitude: complex,
    delay: float,
    doppler: float,
) -> np.ndarray:
    k = np.arange(scenario.n_subcarriers)
    m = np.arange(scenario.n_symbols)
    delay_ramp = np.exp(-2j * math.pi * scenario.subcarrier_spacing * k * delay)
    doppler_ramp = np.exp(2j * math.pi * doppler * m * scenario.symbol_duration)
    return amplitude * np.outer(delay_ramp, doppler_ramp)


def synthesize_rx_grid(
    scenario: ScenarioConfig,
    channel: ChannelRealization,
    beam_index: int,
    power_w: float,
    seed: int,
) -> RxGrid:
    """Received grid under the selected sweep beam at the given sensing power.

    The transmit beamformer is the steering vector of the sweep direction,
    the combiner is matched to the direct arrival angle, and the disturbance
    is white complex Gaussian at the configured noise-figure level.
    """
    if not 0 <= beam_index < scenario.n_beams:
        raise ValueError("beam_index out of range")
    if power_w < 0:
        raise ValueError("power must be nonnegative")

    n_bs, n_ue = scenario.n_bs_antennas, scenario.n_ue_antennas
    spacing = scenario.antenna_spacing
    f = _beamformer(scenario, beam_index)
    w = steering_vector(channel.arrival_angle, n_ue, spacing) / math.sqrt(n_ue)

    pilot = pilot_grid(scenario)
    tx_gain = np.vdot(steering_vector(channel.departure_angle, n_bs, spacing), f)
    rx_gain = np.vdot(w, steering_vector(channel.arrival_angle, n_ue, spacing))
    amp = math.sqrt(channel.bs_gain * channel.ue_gain) * rx_gain * tx_gain
    signal = _echo_term(scenario, amp, channel.total_delay, channel.doppler)

    if channel.nlos is not None:
        rx_gain_nlos = np.vdot(w, steering_vector(channel.nlos.arrival_angle, n_ue, spacing))
        amp_nlos = math.sqrt(channel.bs_gain * channel.nlos.gain) * rx_gain_nlos * tx_gain
        signal = signal + _echo_term(
            scenario, amp_nlos, channel.forward_delay + channel.nlos.delay, channel.nlos.doppler
        )

    rng = rng_from(seed, "rx-noise")
    n_sc, n_sym = pilot.shape
    noise = math.sqrt(scenario.noise_variance / 2.0) * rng.standard_normal(
        (n_sc, n_sym, 2)
    ).view(np.complex128)[..., 0]
    samples = math.sqrt(power_w) * signal * pilot + noise
    return RxGrid(
        samples=samples,
        pilot=pilot,
        subcarrier_spacing=scenario.subcarrier_spacing,
        symbol_duration=scenario.symbol_duration,
    )


@lru_cache(maxsize=64)
def _filter_bank(
    subcarrier_spacing: float,
    symbol_duration: float,
    n_sc: int,
    n_sym: int,
    delays: tuple[float, ...],
    dopplers: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate replica phase banks for a fixed grid geometry and window."""
    k = np.arange(n_sc)
    m = np.arange(n_sym)
    e_delay = np.exp(2j * math.pi * subcarrier_spacing * np.outer(delays, k))
    e_doppler = np.exp(-2j * math.pi * symbol_duration * np.outer(dopplers, m))
    e_delay.setflags(write=False)
    e_doppler.setflags(write=False)
    return e_delay, e_doppler


def matched_filter(grid: RxGrid, window: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Correlate the grid against delay/Doppler-shifted pilot replicas.

    Returns the complex surface indexed [delay bin, doppler bin] of
    ``window``. Each entry is the inner product with the replica at that
    bin, normalized by the total resource-element count; the output is
    linear in the grid samples.
    """
    delays, dopplers = np.asarray(window[0], float), np.asarray(window[1], float)
    n_sc, n_sym = grid.samples.shape
    if np.any(delays < 0) or np.any(delays >= 1.0 / grid.subcarrier_spacing):
        raise ValueError("delay bins outside the unambiguous range")
    if np.any(np.abs(dopplers) > 0.5 / grid.symbol_duration):
        raise ValueError("doppler bins outside the unambiguous range")

    e_delay, e_doppler = _filter_bank(
        grid.subcarrier_spacing, grid.symbol_duration, n_sc, n_sym,
        tuple(delays.tolist()), tuple(dopplers.tolist()),
    )
    weighted = np.conj(grid.pilot) * grid.samples
    return e_delay @ weighted @ e_doppler.T / (n_sc * n_sym)


@dataclass(frozen=True)
class ResiSample:
    """Peak correlation magnitude over the estimated noise floor."""

    value: float
    noise_floor: float

    def __post_init__(self) -> None:
        if self.value < 0 or self.noise_floor <= 0:
            raise ValueError("invalid echo-strength sample")


def compute_resi(surface: np.ndarray, grid: RxGrid, null_mask: np.ndarray) -> ResiSample:
    """Reduce the delay-Doppler surface to the scalar echo-strength indicator:
    the peak magnitude over the noise floor, the RMS of the grid samples over
    the null set."""
    if null_mask is None or not np.any(null_mask):
        raise ValueError("null set must be non-empty")
    floor = float(np.sqrt(np.mean(np.abs(grid.samples[null_mask]) ** 2)))
    if floor <= 0:
        raise ValueError("noise floor must be positive")
    return ResiSample(value=float(np.abs(surface).max()) / floor, noise_floor=floor)
