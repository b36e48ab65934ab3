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
    return np.exp(1j * (_element_phases(n_elements, spacing_wl) * math.cos(angle)))


@lru_cache(maxsize=64)
def _element_phases(n_elements: int, spacing_wl: float) -> np.ndarray:
    """``2π·spacing·arange(n)``: each element's phase per unit cos(angle)."""
    phases = 2.0 * math.pi * spacing_wl * np.arange(n_elements)
    phases.setflags(write=False)
    return phases


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a real vector, by the same dot product and sqrt."""
    return math.sqrt(v.dot(v))


def _free_space_gain(wavelength: float, distance: float) -> float:
    return (wavelength / (4.0 * math.pi * distance)) ** 2


def realize_channel(scenario: ScenarioConfig, target: TargetState) -> ChannelRealization:
    """Channel parameters from the current geometry.

    Delays are path length over the speed of light; Doppler is the radial
    velocity projected on the target-to-UE leg (receding target gives a
    negative shift); leg gains follow the free-space/scattering model.
    """
    const = _cell_constants(scenario)
    tg = np.asarray(target.position, float)
    to_bs = tg - const.bs
    to_ue = tg - const.ue

    d_fwd = _norm(to_bs)
    d_ret = _norm(to_ue)
    if min(d_fwd, d_ret, const.bs_ue_distance) < 1e-6:
        raise GeometryError("BS, UE and target positions must be distinct")

    lam = scenario.wavelength
    radial_unit = to_ue / d_ret
    range_rate = float(np.dot(np.asarray(target.velocity, float), radial_unit))
    doppler = -range_rate / lam

    gains = scenario.gain_model
    bs_gain = _free_space_gain(lam, d_fwd)
    ue_gain = gains.scattering_gain * _free_space_gain(lam, d_ret)
    arrival_angle = math.atan2(to_ue[1], to_ue[0])

    nlos = None
    if scenario.nlos_path_count == 1:
        nlos = NlosComponent(
            delay=d_ret / SPEED_OF_LIGHT + gains.nlos_excess_delay,
            doppler=doppler * gains.nlos_doppler_ratio,
            arrival_angle=arrival_angle + gains.nlos_angle_offset,
            gain=ue_gain * gains.nlos_gain_ratio,
        )

    return ChannelRealization(
        forward_delay=d_fwd / SPEED_OF_LIGHT,
        return_delay=d_ret / SPEED_OF_LIGHT,
        doppler=doppler,
        departure_angle=math.atan2(to_bs[1], to_bs[0]),
        arrival_angle=arrival_angle,
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


def pilot_grid(scenario: ScenarioConfig) -> np.ndarray:
    """Unit pilots on active resource elements, zero on the guard band."""
    return _cell_constants(scenario).pilot


@dataclass(frozen=True)
class _CellConstants:
    """The values every cell of one scenario shares, built once per scenario.

    A stage call looks them up once, so a cell neither rebuilds them nor
    hashes the whole scenario once per value.
    """

    bs: np.ndarray
    ue: np.ndarray
    bs_ue_distance: float
    pilot: np.ndarray
    beamformers: tuple[np.ndarray, ...]  # unit-norm transmit weights per sweep beam
    noise_scale: float  # per-component standard deviation of the disturbance
    delay_phases: np.ndarray  # -2jπ·Δf·arange(K): each subcarrier's phase per second of delay
    symbols: np.ndarray  # arange(M)


@lru_cache(maxsize=64)
def _cell_constants(scenario: ScenarioConfig) -> _CellConstants:
    bs = np.asarray(scenario.bs_position, float)
    ue = np.asarray(scenario.ue_position, float)
    pilot = np.ones((scenario.n_subcarriers, scenario.n_symbols), dtype=complex)
    pilot[scenario.null_mask()] = 0.0
    beamformers = []
    for angle in scenario.beam_centers().tolist():
        f = steering_vector(angle, scenario.n_bs_antennas, scenario.antenna_spacing)
        f = f / math.sqrt(scenario.n_bs_antennas)
        beamformers.append(f)
    delay_phases = -2j * math.pi * scenario.subcarrier_spacing * np.arange(scenario.n_subcarriers)
    symbols = np.arange(scenario.n_symbols)
    for array in (bs, ue, pilot, delay_phases, symbols, *beamformers):
        array.setflags(write=False)
    return _CellConstants(
        bs=bs,
        ue=ue,
        bs_ue_distance=_norm(ue - bs),
        pilot=pilot,
        beamformers=tuple(beamformers),
        noise_scale=math.sqrt(scenario.noise_variance / 2.0),
        delay_phases=delay_phases,
        symbols=symbols,
    )


def _echo_term(
    const: _CellConstants,
    symbol_duration: float,
    amplitude: complex,
    delay: float,
    doppler: float,
) -> np.ndarray:
    delay_ramp = np.exp(const.delay_phases * delay)
    doppler_ramp = np.exp(2j * math.pi * doppler * const.symbols * symbol_duration)
    return amplitude * (delay_ramp[:, None] * doppler_ramp)


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

    const = _cell_constants(scenario)
    n_ue = scenario.n_ue_antennas
    spacing = scenario.antenna_spacing
    arrival = steering_vector(channel.arrival_angle, n_ue, spacing)
    w = arrival / math.sqrt(n_ue)

    pilot = const.pilot
    departure = steering_vector(channel.departure_angle, scenario.n_bs_antennas, spacing)
    tx_gain = np.vdot(departure, const.beamformers[beam_index])
    rx_gain = np.vdot(w, arrival)
    amp = math.sqrt(channel.bs_gain * channel.ue_gain) * rx_gain * tx_gain
    t_sym = scenario.symbol_duration
    signal = _echo_term(const, t_sym, amp, channel.total_delay, channel.doppler)

    if channel.nlos is not None:
        rx_gain_nlos = np.vdot(w, steering_vector(channel.nlos.arrival_angle, n_ue, spacing))
        amp_nlos = math.sqrt(channel.bs_gain * channel.nlos.gain) * rx_gain_nlos * tx_gain
        delay_nlos = channel.forward_delay + channel.nlos.delay
        signal = signal + _echo_term(const, t_sym, amp_nlos, delay_nlos, channel.nlos.doppler)

    rng = rng_from(seed, "rx-noise")
    draw = rng.standard_normal((*pilot.shape, 2)).view(np.complex128)[..., 0]
    samples = math.sqrt(power_w) * signal * pilot + const.noise_scale * draw
    return RxGrid(
        samples=samples,
        pilot=pilot,
        subcarrier_spacing=scenario.subcarrier_spacing,
        symbol_duration=t_sym,
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
    """Conjugate replica phase banks for a fixed grid geometry and window.

    Rejects bins outside the unambiguous range. The cache keeps no
    exception, so a rejected window raises again on every call.
    """
    if any(d < 0 or d >= 1.0 / subcarrier_spacing for d in delays):
        raise ValueError("delay bins outside the unambiguous range")
    if any(abs(v) > 0.5 / symbol_duration for v in dopplers):
        raise ValueError("doppler bins outside the unambiguous range")
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
    if null_mask is None or not null_mask.any():
        raise ValueError("null set must be non-empty")
    power = np.abs(grid.samples[null_mask]) ** 2
    floor = math.sqrt(np.add.reduce(power) / power.size)  # np.mean's sum and division
    if floor <= 0:
        raise ValueError("noise floor must be positive")
    return ResiSample(value=float(np.abs(surface).max()) / floor, noise_floor=floor)
