"""Bistatic OFDM echo synthesis and delay-Doppler processing.

The chain per sensing frame: realize the two-leg channel from the current
geometry, synthesize the received pilot grid under the active beam and
sensing power, correlate it against delay/Doppler-shifted pilot replicas,
and reduce the peak to a scalar echo-strength indicator normalized by the
noise floor estimated on guard (null) resource elements.

Two ways run it. The reference chain, ``synthesize_rx_grid`` ->
``matched_filter`` -> ``compute_resi``, hands each stage's result to the
next. The episode loop instead builds one :class:`FrameRecord` per frame,
draws the frame's :class:`FrameNoise` once for all the cells it measures
there, and passes both to :func:`measure_cell` once per (beam, power) cell,
which makes the same floating-point operations in the same order in one
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .scenario import SPEED_OF_LIGHT, ScenarioConfig, TargetState
from .seeding import derive_seed


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
    return _steer(_element_phases(n_elements, spacing_wl), math.cos(angle))


def _steer(phases: np.ndarray, cos_angle: float) -> np.ndarray:
    return np.exp(1j * (phases * cos_angle))


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
    const = cell_constants(scenario)
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
    return cell_constants(scenario).pilot


@dataclass(frozen=True)
class CellConstants:
    """The values every cell of one scenario shares, built once per scenario.

    A caller looks them up once, so a cell neither rebuilds them nor hashes
    the whole scenario once per value.
    """

    bs: np.ndarray
    ue: np.ndarray
    bs_ue_distance: float
    pilot: np.ndarray
    conj_pilot: np.ndarray
    null_row: int  # first guard subcarrier: scenario.null_mask() is every row from it on
    beamformers: tuple[np.ndarray, ...]  # unit-norm transmit weights per sweep beam
    bs_phases: np.ndarray  # 2π·spacing·arange(n_bs): each element's phase per unit cos(angle)
    ue_phases: np.ndarray  # the same for the UE array
    noise_scale: float  # per-component standard deviation of the disturbance
    delay_phases: np.ndarray  # -2jπ·Δf·arange(K): each subcarrier's phase per second of delay
    symbols: np.ndarray  # arange(M)
    symbol_duration: float
    e_delay: np.ndarray  # the matched filter's delay bank over search_window()
    e_doppler_t: np.ndarray  # its Doppler bank, transposed


@lru_cache(maxsize=64)
def cell_constants(scenario: ScenarioConfig) -> CellConstants:
    bs = np.asarray(scenario.bs_position, float)
    ue = np.asarray(scenario.ue_position, float)
    pilot = np.ones((scenario.n_subcarriers, scenario.n_symbols), dtype=complex)
    pilot[scenario.null_mask()] = 0.0
    conj_pilot = np.conj(pilot)
    beamformers = []
    for angle in scenario.beam_centers().tolist():
        f = steering_vector(angle, scenario.n_bs_antennas, scenario.antenna_spacing)
        f = f / math.sqrt(scenario.n_bs_antennas)
        beamformers.append(f)
    delay_phases = -2j * math.pi * scenario.subcarrier_spacing * np.arange(scenario.n_subcarriers)
    symbols = np.arange(scenario.n_symbols)
    for array in (bs, ue, pilot, conj_pilot, delay_phases, symbols, *beamformers):
        array.setflags(write=False)
    delays, dopplers = scenario.search_window()
    e_delay, e_doppler = _filter_bank(
        scenario.subcarrier_spacing, scenario.symbol_duration,
        scenario.n_subcarriers, scenario.n_symbols,
        tuple(delays.tolist()), tuple(dopplers.tolist()),
    )
    return CellConstants(
        bs=bs,
        ue=ue,
        bs_ue_distance=_norm(ue - bs),
        pilot=pilot,
        conj_pilot=conj_pilot,
        null_row=scenario.n_subcarriers - scenario.null_subcarriers,
        beamformers=tuple(beamformers),
        bs_phases=_element_phases(scenario.n_bs_antennas, scenario.antenna_spacing),
        ue_phases=_element_phases(scenario.n_ue_antennas, scenario.antenna_spacing),
        noise_scale=math.sqrt(scenario.noise_variance / 2.0),
        delay_phases=delay_phases,
        symbols=symbols,
        symbol_duration=scenario.symbol_duration,
        e_delay=e_delay,
        e_doppler_t=e_doppler.T,
    )


class FrameRecord(NamedTuple):
    """What every (beam, power) cell of one frame shares.

    Built once per frame from the channel; a cell adds only the transmit
    gain of its beam and its power to the frame's echo and noise.
    """

    cos_departure: float
    a0: complex  # sqrt(bs_gain·ue_gain)·rx_gain: the echo amplitude before the transmit gain
    delay: float  # forward plus return delay
    doppler: float
    nlos: tuple[complex, float, float] | None  # (a0, delay, doppler) of the specular echo
    noise_seed: int


def frame_record(const: CellConstants, channel: ChannelRealization, seed: int) -> FrameRecord:
    """The per-frame part of a cell; ``seed`` is the frame's seed, from which
    the noise draw derives its own."""
    arrival = _steer(const.ue_phases, math.cos(channel.arrival_angle))
    w = arrival / math.sqrt(len(arrival))
    a0 = math.sqrt(channel.bs_gain * channel.ue_gain) * np.vdot(w, arrival)
    nlos = None
    if channel.nlos is not None:
        rx_gain_nlos = np.vdot(w, _steer(const.ue_phases, math.cos(channel.nlos.arrival_angle)))
        nlos = (
            math.sqrt(channel.bs_gain * channel.nlos.gain) * rx_gain_nlos,
            channel.forward_delay + channel.nlos.delay,
            channel.nlos.doppler,
        )
    return FrameRecord(
        cos_departure=math.cos(channel.departure_angle),
        a0=a0,
        delay=channel.total_delay,
        doppler=channel.doppler,
        nlos=nlos,
        noise_seed=derive_seed(seed, "rx-noise"),
    )


class FrameNoise(NamedTuple):
    """What every cell of one frame draws on beyond its record: the scaled
    noise grid, its RMS over the guard rows and the departure steering
    vector. Drawn for the cells measured at one visit and then dropped, so
    no more than one grid of noise is held."""

    scaled: np.ndarray  # noise_scale times the frame's complex Gaussian draw
    floor: float  # compute_resi's noise floor of every cell of the frame
    departure: np.ndarray


def frame_noise(const: CellConstants, frame: FrameRecord) -> FrameNoise:
    """Draw the frame's noise from its record's seed."""
    rng = np.random.default_rng(frame.noise_seed)
    draw = rng.standard_normal((*const.pilot.shape, 2)).view(np.complex128)[..., 0]
    np.multiply(const.noise_scale, draw, out=draw)
    # compute_resi's floor. The pilot is 0 on the guard rows, which are the
    # last rows, so a cell's samples there are this noise plus the exact zero
    # of its finite echo times the pilot, and in row-major order they are one
    # contiguous run.
    power = np.abs(draw[const.null_row:].reshape(-1))
    np.square(power, out=power)
    floor = math.sqrt(np.add.reduce(power) / power.size)
    return FrameNoise(draw, floor, _steer(const.bs_phases, frame.cos_departure))


def _echo_term(
    const: CellConstants, amplitude: complex, delay: float, doppler: float
) -> np.ndarray:
    delay_ramp = np.exp(const.delay_phases * delay)
    doppler_ramp = np.exp(2j * math.pi * doppler * const.symbols * const.symbol_duration)
    term = np.multiply(delay_ramp[:, None], doppler_ramp)
    return np.multiply(amplitude, term, out=term)


def _cell_samples(
    const: CellConstants, frame: FrameRecord, noise: FrameNoise, beam_index: int,
    power_w: float,
) -> np.ndarray:
    """The received grid of one cell: the frame's echo under the sweep beam
    at ``power_w``, plus the frame's noise."""
    if not 0 <= beam_index < len(const.beamformers):
        raise ValueError("beam_index out of range")
    if power_w < 0:
        raise ValueError("power must be nonnegative")

    tx_gain = np.vdot(noise.departure, const.beamformers[beam_index])
    samples = _echo_term(const, frame.a0 * tx_gain, frame.delay, frame.doppler)
    if frame.nlos is not None:
        a0_nlos, delay_nlos, doppler_nlos = frame.nlos
        np.add(samples, _echo_term(const, a0_nlos * tx_gain, delay_nlos, doppler_nlos),
               out=samples)

    np.multiply(math.sqrt(power_w), samples, out=samples)
    np.multiply(samples, const.pilot, out=samples)
    np.add(samples, noise.scaled, out=samples)
    return samples


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
    const = cell_constants(scenario)
    frame = frame_record(const, channel, seed)
    samples = _cell_samples(const, frame, frame_noise(const, frame), beam_index, power_w)
    return RxGrid(
        samples=samples,
        pilot=const.pilot,
        subcarrier_spacing=scenario.subcarrier_spacing,
        symbol_duration=scenario.symbol_duration,
    )


def measure_cell(
    const: CellConstants, frame: FrameRecord, noise: FrameNoise, beam_index: int,
    power_w: float,
) -> float:
    """Echo strength of one (frame, beam, power) cell in one pass.

    Equals ``compute_resi(matched_filter(grid, window), grid, null_mask).value``
    for the grid ``synthesize_rx_grid`` builds, bit for bit: the same
    operations run in the same order on the same operands. ``noise`` is the
    frame's :func:`frame_noise`, which any number of its cells may share.
    """
    samples = _cell_samples(const, frame, noise, beam_index, power_w)
    n_sc, n_sym = samples.shape
    if noise.floor <= 0:
        raise ValueError("noise floor must be positive")
    # matched_filter's surface; the grid is not read again, so it is reused.
    weighted = np.multiply(const.conj_pilot, samples, out=samples)
    surface = const.e_delay @ weighted @ const.e_doppler_t
    np.true_divide(surface, n_sc * n_sym, out=surface)
    value = float(np.abs(surface).max()) / noise.floor
    if value < 0:
        raise ValueError("invalid echo-strength sample")
    return value


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
