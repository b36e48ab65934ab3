"""Bistatic OFDM echo synthesis and delay-Doppler processing.

The chain per sensing frame: realize the two-leg channel from the current
geometry, synthesize the received pilot grid under the active beam and
sensing power, correlate it against delay/Doppler-shifted pilot replicas,
and reduce the peak to a scalar echo-strength indicator normalized by the
noise floor estimated on guard (null) resource elements.

Two ways run it. The reference chain, ``synthesize_rx_grid`` ->
``matched_filter`` -> ``compute_resi``, hands each stage's result to the
next. The episode loop instead builds one :class:`Frame` per visit to a
frame, from the channel and one draw of the frame's noise, and measures
each (beam, power) cell it needs there in one pass (:func:`measure_cell`).
Where several worlds need a frame at once, it builds their frames as one
stack (:func:`build_frames`) and measures their cells as one stack
(:func:`measure_cells`): each kind of steering vector and phase ramp from
one ``exp`` over the stack, one (C, K, M) stack of received grids, one
stacked pair of matched-filter products and one peak per slice. The
chain, the per-cell pass and the stack share the cell's helpers, which
take one cell's values or a stack's along a leading axis, so each cell
gets the same floating-point operations in the same order on the same
operands as the chain, and equals its value bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

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


def _steer(phases: np.ndarray, cos_angle: float | np.ndarray) -> np.ndarray:
    """``exp(1j·phases·cos_angle)``; a (B, 1) column of cosines gives B rows."""
    return np.exp(1j * (phases * cos_angle))


def _element_phases(n_elements: int, spacing_wl: float) -> np.ndarray:
    """``2π·spacing·arange(n)``: each element's phase per unit cos(angle)."""
    return 2.0 * math.pi * spacing_wl * np.arange(n_elements)


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


@dataclass(frozen=True)
class CellConstants:
    """The values every cell of one scenario shares, built once per scenario.

    A caller looks them up once, so a cell neither rebuilds them nor hashes
    the whole scenario once per value. Every array is read-only, since all
    callers of one scenario share it.
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
    bs_phases = _element_phases(scenario.n_bs_antennas, scenario.antenna_spacing)
    ue_phases = _element_phases(scenario.n_ue_antennas, scenario.antenna_spacing)
    delay_phases = -2j * math.pi * scenario.subcarrier_spacing * np.arange(scenario.n_subcarriers)
    symbols = np.arange(scenario.n_symbols)
    e_delay, e_doppler = _filter_bank(
        scenario.subcarrier_spacing, scenario.symbol_duration,
        scenario.n_subcarriers, scenario.n_symbols, *scenario.search_window(),
    )
    for array in (bs, ue, pilot, conj_pilot, bs_phases, ue_phases, delay_phases, symbols,
                  e_delay, e_doppler, *beamformers):
        array.setflags(write=False)
    return CellConstants(
        bs=bs,
        ue=ue,
        bs_ue_distance=_norm(ue - bs),
        pilot=pilot,
        conj_pilot=conj_pilot,
        null_row=scenario.n_subcarriers - scenario.null_subcarriers,
        beamformers=tuple(beamformers),
        bs_phases=bs_phases,
        ue_phases=ue_phases,
        noise_scale=math.sqrt(scenario.noise_variance / 2.0),
        delay_phases=delay_phases,
        symbols=symbols,
        symbol_duration=scenario.symbol_duration,
        e_delay=e_delay,
        e_doppler_t=e_doppler.T,
    )


class Frame(NamedTuple):
    """What every (beam, power) cell of one visit to a frame shares.

    Built from the channel and one draw of the frame's noise for the cells
    measured at that visit, then dropped, so the frame holds the only noise
    grid. A cell adds only the transmit gain of its beam and its power. A
    stack of B frames (:func:`build_frames`) holds each array with a leading
    axis of B and each number as a list of B.
    """

    a0: complex  # sqrt(bs_gain·ue_gain)·rx_gain: the echo amplitude before the transmit gain
    delay: float  # forward plus return delay
    doppler: float
    nlos: tuple[complex, float, float] | None  # (a0, delay, doppler) of the specular echo
    noise: np.ndarray  # (K, M): noise_scale times the frame's complex Gaussian draw
    floor: float  # compute_resi's noise floor of every cell of the frame
    departure: np.ndarray  # (n_bs,): the BS steering vector towards the target


def build_frame(const: CellConstants, channel: ChannelRealization, seed: int) -> Frame:
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
    rng = np.random.default_rng(derive_seed(seed, "rx-noise"))
    noise = rng.standard_normal((*const.pilot.shape, 2)).view(np.complex128)[..., 0]
    np.multiply(const.noise_scale, noise, out=noise)
    # compute_resi's floor. The pilot is 0 on the guard rows, which are the
    # last rows, so a cell's samples there are this noise plus the exact zero
    # of its finite echo times the pilot, and in row-major order they are one
    # contiguous run.
    power = np.abs(noise[const.null_row:].reshape(-1))
    np.square(power, out=power)
    floor = math.sqrt(np.add.reduce(power) / power.size)
    departure = _steer(const.bs_phases, math.cos(channel.departure_angle))
    return Frame(a0=a0, delay=channel.total_delay, doppler=channel.doppler, nlos=nlos,
                 noise=noise, floor=floor, departure=departure)


def build_frames(
    const: CellConstants, channels: Sequence[ChannelRealization], seeds: Sequence[int]
) -> Frame:
    """:func:`build_frame` of each ``(channels[b], seeds[b])``, as one stack
    of frames of one scenario: each array operation runs once over the stack
    and gives every frame what it gives the frame built alone."""
    cosines = np.array([(math.cos(c.arrival_angle), math.cos(c.departure_angle))
                        for c in channels])
    arrival = _steer(const.ue_phases, cosines[:, :1])
    w = arrival / math.sqrt(arrival.shape[1])
    a0 = [math.sqrt(c.bs_gain * c.ue_gain) * np.vdot(w_b, arrival_b)
          for c, w_b, arrival_b in zip(channels, w, arrival)]
    nlos = None
    if channels[0].nlos is not None:
        specular = _steer(const.ue_phases,
                          np.array([[math.cos(c.nlos.arrival_angle)] for c in channels]))
        nlos = ([math.sqrt(c.bs_gain * c.nlos.gain) * np.vdot(w_b, specular_b)
                 for c, w_b, specular_b in zip(channels, w, specular)],
                [c.forward_delay + c.nlos.delay for c in channels],
                [c.nlos.doppler for c in channels])
    # Each frame draws from a generator of its own, into its slice of one buffer.
    draws = np.empty((len(seeds), *const.pilot.shape, 2))
    for seed, out in zip(seeds, draws):
        np.random.default_rng(derive_seed(seed, "rx-noise")).standard_normal(out=out)
    noise = draws.view(np.complex128)[..., 0]
    np.multiply(const.noise_scale, noise, out=noise)
    # Each frame's floor as build_frame takes it: the row-wise reduce over
    # the stack's runs of guard rows equals the 1-D reduce of each run.
    power = np.abs(noise[:, const.null_row:]).reshape(len(seeds), -1)
    np.square(power, out=power)
    floor = [math.sqrt(total / power.shape[1])
             for total in np.add.reduce(power, axis=1).tolist()]
    return Frame(a0=a0, delay=[c.total_delay for c in channels],
                 doppler=[c.doppler for c in channels], nlos=nlos, noise=noise, floor=floor,
                 departure=_steer(const.bs_phases, cosines[:, 1:]))


# The helpers below take one cell's values, or a stack of cells' values
# along a leading axis (each number as a column), and give each cell the
# same operations on the same operands.


def _tx_gain(
    const: CellConstants, departure: np.ndarray, beam_index: int, power_w: float
) -> complex:
    if not 0 <= beam_index < len(const.beamformers):
        raise ValueError("beam_index out of range")
    if power_w < 0:
        raise ValueError("power must be nonnegative")
    return np.vdot(departure, const.beamformers[beam_index])


def _echo_term(
    const: CellConstants, amplitude: complex | np.ndarray, delay: float | np.ndarray,
    coef: complex | np.ndarray,
) -> np.ndarray:
    """``amplitude`` times the outer product of the delay ramp of ``delay``
    and the Doppler ramp of ``coef``, which is 2jπ times the Doppler shift."""
    delay_ramp = np.exp(const.delay_phases * delay)
    doppler_ramp = np.exp(coef * const.symbols * const.symbol_duration)
    term = np.multiply(delay_ramp[..., :, None], doppler_ramp[..., None, :])
    return np.multiply(amplitude, term, out=term)


def _cell_samples(
    const: CellConstants, echo: tuple, specular: tuple | None, root: float | np.ndarray
) -> np.ndarray:
    """The received grid but its noise: the echo ``(amplitude, delay,
    2jπ·doppler)`` plus the specular one, at the power whose square root is
    ``root``, times the pilot. The caller adds the frame's noise."""
    samples = _echo_term(const, *echo)
    if specular is not None:
        np.add(samples, _echo_term(const, *specular), out=samples)
    np.multiply(root, samples, out=samples)
    return np.multiply(samples, const.pilot, out=samples)


def _surface(const: CellConstants, samples: np.ndarray) -> np.ndarray:
    """matched_filter's surface of each received grid; the grids are not
    read again, so they are reused."""
    n_sc, n_sym = const.pilot.shape
    weighted = np.multiply(const.conj_pilot, samples, out=samples)
    surface = const.e_delay @ weighted @ const.e_doppler_t
    return np.true_divide(surface, n_sc * n_sym, out=surface)


def _frame_cell(
    const: CellConstants, frame: Frame, beam_index: int, power_w: float
) -> np.ndarray:
    """The received grid of one cell of a frame built alone."""
    tx_gain = _tx_gain(const, frame.departure, beam_index, power_w)
    specular = None
    if frame.nlos is not None:
        a0, delay, doppler = frame.nlos
        specular = (a0 * tx_gain, delay, 2j * math.pi * doppler)
    samples = _cell_samples(const, (frame.a0 * tx_gain, frame.delay, 2j * math.pi * frame.doppler),
                            specular, math.sqrt(power_w))
    return np.add(samples, frame.noise, out=samples)


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
    return RxGrid(
        samples=_frame_cell(const, build_frame(const, channel, seed), beam_index, power_w),
        pilot=const.pilot,
        subcarrier_spacing=scenario.subcarrier_spacing,
        symbol_duration=scenario.symbol_duration,
    )


def measure_cell(const: CellConstants, frame: Frame, beam_index: int, power_w: float) -> float:
    """Echo strength of one (frame, beam, power) cell of a frame built alone:
    :func:`measure_cells` of one cell, without the stack's gathering.

    Equals ``compute_resi(matched_filter(grid, window), grid,
    null_mask).value`` for the grid ``synthesize_rx_grid`` builds, bit for
    bit: the same operations run in the same order on the same operands.
    Any number of the frame's cells may share one ``frame``.
    """
    if frame.floor <= 0:
        raise ValueError("noise floor must be positive")
    surface = _surface(const, _frame_cell(const, frame, beam_index, power_w))
    return float(np.abs(surface).max()) / frame.floor


def measure_cells(
    const: CellConstants, frames: Frame, cells: Sequence[tuple[int, int, float]]
) -> list[float]:
    """Echo strength of each cell ``(b, beam, power_w)`` of a stack of
    frames, in one pass: one (C, K, M) stack of received grids, one stacked
    pair of matched-filter products and one peak per slice. Each equals
    :func:`measure_cell` of the cell on frame b built alone, bit for bit.
    """
    # Per cell, as complex columns: the echo's amplitude, delay and 2jπ·doppler,
    # the root of the power and, if any, the specular echo's three; a float
    # multiplies a complex as x + 0j.
    scalars = []
    for b, beam_index, power_w in cells:
        tx_gain = _tx_gain(const, frames.departure[b], beam_index, power_w)
        row = [frames.a0[b] * tx_gain, frames.delay[b], 2j * math.pi * frames.doppler[b],
               math.sqrt(power_w)]
        if frames.nlos is not None:
            a0, delay, doppler = frames.nlos
            row += [a0[b] * tx_gain, delay[b], 2j * math.pi * doppler[b]]
        scalars.append(row)
    columns = np.array(scalars)

    def echo(first: int) -> tuple:  # amplitude (C, 1, 1), delay and 2jπ·doppler (C, 1)
        amplitude, delay, coef = columns[:, first:first + 3].T
        return amplitude[:, None, None], delay[:, None], coef[:, None]

    samples = _cell_samples(const, echo(0), None if frames.nlos is None else echo(4),
                            columns[:, 3, None, None])
    at = [b for b, _, _ in cells]
    if at == list(range(len(frames.floor))):  # each frame's one cell, in order
        np.add(samples, frames.noise, out=samples)
    else:  # grid by grid, rather than gather a copy of the noise per cell
        for grid, b in zip(samples, at):
            np.add(grid, frames.noise[b], out=grid)
    if any(frames.floor[b] <= 0 for b in at):
        raise ValueError("noise floor must be positive")
    peaks = np.abs(_surface(const, samples)).reshape(len(at), -1).max(axis=1).tolist()
    return [peak / frames.floor[b] for peak, b in zip(peaks, at)]


def _filter_bank(
    subcarrier_spacing: float, symbol_duration: float, n_sc: int, n_sym: int,
    delays: np.ndarray, dopplers: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate replica phase banks for a fixed grid geometry and window.

    Rejects bins outside the unambiguous range.
    """
    if np.any(delays < 0) or np.any(delays >= 1.0 / subcarrier_spacing):
        raise ValueError("delay bins outside the unambiguous range")
    if np.any(np.abs(dopplers) > 0.5 / symbol_duration):
        raise ValueError("doppler bins outside the unambiguous range")
    k = np.arange(n_sc)
    m = np.arange(n_sym)
    e_delay = np.exp(2j * math.pi * subcarrier_spacing * np.outer(delays, k))
    e_doppler = np.exp(-2j * math.pi * symbol_duration * np.outer(dopplers, m))
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
        grid.subcarrier_spacing, grid.symbol_duration, n_sc, n_sym, delays, dopplers
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
