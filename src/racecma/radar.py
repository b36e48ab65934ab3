"""Bistatic OFDM echo synthesis and delay-Doppler processing.

The chain per sensing frame: realize the two-leg channel from the current
geometry, synthesize the received pilot grid under the active beam and
sensing power, correlate it against delay/Doppler-shifted pilot replicas,
and reduce the peak to a scalar echo-strength indicator normalized by the
noise floor estimated on guard (null) resource elements. The channel is in
plain floats, so its last bit does not depend on the BLAS kernel.

Two ways run it. The reference chain, ``synthesize_rx_grid`` ->
``matched_filter`` -> ``compute_resi``, builds the (K, M) received grid of
one cell and hands each stage's result to the next. The episode loop uses
that the matched filter is linear and that the pilot covers whole
subcarrier rows: a cell's surface over the (D, V) search window is

    sqrt(power) · tx_gain(beam) · S_t + N_t,

where the frame's echo surface ``S_t`` (the direct echo plus the optional
specular one, each the outer product of a delay factor and a Doppler
factor) and its noise surface ``N_t`` (the matched filter of the frame's
noise draw over the active rows) do not depend on the beam or the power.
So each visit to a frame builds the two surfaces, the noise floor and the
departure steering vector, from the channel and one draw of the frame's
noise (the chain's generator, seeded from the frame's row of
:func:`seeding.frame_noise_words`), and a cell is a scalar times a (D, V)
surface, an add and a peak; no (K, M) grid is built per cell. Every frame
is built in a stack, a :class:`Frame` (:func:`build_frames`), each array
operation once over the stack (the noise's once over each chunk of it,
below): the frames of every world of a batch that misses a cell at one
frame, or a block of a one-seed batch's next frames. A cell is addressed
by its stack and its frame's index in it, and measured alone
(:func:`measure_cell`) or with others of the stack in one pass
(:func:`measure_cells`). A frame's values, and each of its cells, are the
same bit for bit whatever stack it is built in and however its cells are
measured. The split equals the chain up to rounding (a relative
difference of the order of 1e-15), and the two share no cell arithmetic,
so the chain stays an independent reference model.

Each frame's noise comes from a generator of its own, seeded from its
words (:func:`seeding.fill_normals`). A stack draws it a chunk of frames
at a time into one buffer of at most :data:`DRAW_NORMALS` normals, a
16-frame desk block's, so a desk stack of up to 16 frames draws at once
and a paper stack three frames at a time, and the memory a stack's draw
holds does not grow with the stack. numpy releases the GIL while a
generator fills, so two threads that build stacks at once draw at once.
This module starts no thread: a paper-scale batch of several seeds splits
its worlds over two threads one layer up (:func:`feedback.run_episodes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .scenario import SPEED_OF_LIGHT, ScenarioConfig, TargetState, planar_distance
from .seeding import derive_seed, fill_normals


class GeometryError(ValueError):
    """Raised for a target on the BS or the UE; ``ScenarioConfig`` rejects a
    BS on the UE when it is built."""


class NlosComponent(NamedTuple):
    delay: float
    doppler: float
    arrival_angle: float
    gain: float


class ChannelRealization(NamedTuple):
    """Deterministic channel parameters for one frame.

    Gains are linear power factors; delays compound along the forward
    (BS-to-target) and return (target-to-UE) legs. A hand-built channel is
    checked where it enters the chain (:func:`synthesize_rx_grid`).
    """

    forward_delay: float
    return_delay: float
    doppler: float
    departure_angle: float
    arrival_angle: float
    bs_gain: float
    ue_gain: float
    nlos: NlosComponent | None = None

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


def _free_space_gain(wavelength: float, distance: float) -> float:
    return (wavelength / (4.0 * math.pi * distance)) ** 2


def realize_channel(scenario: ScenarioConfig, target: TargetState) -> ChannelRealization:
    """Channel parameters from the current geometry.

    Delays are path length over the speed of light; Doppler is the radial
    velocity projected on the target-to-UE leg (receding target gives a
    negative shift); leg gains follow the free-space/scattering model.
    Plain float arithmetic, with no numpy call and no ``cell_constants`` lookup.
    """
    (x, y), (vx, vy) = target.position, target.velocity
    (bx, by), (ux, uy) = scenario.bs_position, scenario.ue_position
    fx, fy, rx, ry = x - bx, y - by, x - ux, y - uy  # from the BS and from the UE
    d_fwd, d_ret = planar_distance(fx, fy), planar_distance(rx, ry)
    if min(d_fwd, d_ret) < 1e-6:
        raise GeometryError("the target must not sit on the BS or the UE")

    lam = scenario.wavelength
    range_rate = vx * (rx / d_ret) + vy * (ry / d_ret)
    doppler = -range_rate / lam

    gains = scenario.gain_model
    bs_gain = _free_space_gain(lam, d_fwd)
    ue_gain = gains.scattering_gain * _free_space_gain(lam, d_ret)
    arrival_angle = math.atan2(ry, rx)

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
        departure_angle=math.atan2(fy, fx),
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

    pilot: np.ndarray
    null_row: int  # first guard subcarrier: the pilot is zero on every row from it on
    beamformers: tuple[np.ndarray, ...]  # unit-norm transmit weights per sweep beam
    bs_phases: np.ndarray  # 2π·spacing·arange(n_bs): each element's phase per unit cos(angle)
    ue_phases: np.ndarray  # the same for the UE array
    noise_scale: float  # per-component standard deviation of the disturbance
    delay_phases: np.ndarray  # -2jπ·Δf·arange(K): each subcarrier's phase per second of delay
    symbols: np.ndarray  # arange(M)
    symbol_duration: float
    doppler_phases: np.ndarray  # 2jπ·T·arange(M): each symbol's phase per hertz of Doppler
    # The matched filter's banks over search_window(): the delay bank's
    # columns of the active (pilot) subcarriers, over K·M, and the Doppler
    # bank, transposed.
    e_delay_active: np.ndarray
    e_doppler_t: np.ndarray


@lru_cache(maxsize=64)
def cell_constants(scenario: ScenarioConfig) -> CellConstants:
    n_sc, n_sym = scenario.n_subcarriers, scenario.n_symbols
    null_row = n_sc - scenario.null_subcarriers
    pilot = np.ones((n_sc, n_sym), dtype=complex)
    pilot[null_row:] = 0.0
    beamformers = []
    for angle in scenario.beam_centers().tolist():
        f = steering_vector(angle, scenario.n_bs_antennas, scenario.antenna_spacing)
        f = f / math.sqrt(scenario.n_bs_antennas)
        beamformers.append(f)
    bs_phases = _element_phases(scenario.n_bs_antennas, scenario.antenna_spacing)
    ue_phases = _element_phases(scenario.n_ue_antennas, scenario.antenna_spacing)
    delay_phases = -2j * math.pi * scenario.subcarrier_spacing * np.arange(n_sc)
    symbols = np.arange(n_sym)
    doppler_phases = 2j * math.pi * scenario.symbol_duration * symbols
    e_delay, e_doppler = _filter_bank(
        scenario.subcarrier_spacing, scenario.symbol_duration, n_sc, n_sym,
        *scenario.search_window(),
    )
    e_delay_active = e_delay[:, :null_row] / (n_sc * n_sym)
    for array in (pilot, bs_phases, ue_phases, delay_phases, symbols, doppler_phases,
                  e_delay_active, e_doppler, *beamformers):
        array.setflags(write=False)
    return CellConstants(
        pilot=pilot,
        null_row=null_row,
        beamformers=tuple(beamformers),
        bs_phases=bs_phases,
        ue_phases=ue_phases,
        noise_scale=math.sqrt(scenario.noise_variance / 2.0),
        delay_phases=delay_phases,
        symbols=symbols,
        symbol_duration=scenario.symbol_duration,
        doppler_phases=doppler_phases,
        e_delay_active=e_delay_active,
        e_doppler_t=e_doppler.T,
    )


def _echo_term(
    const: CellConstants, amplitude: complex, delay: float, doppler: float
) -> np.ndarray:
    """The chain's (K, M) echo: ``amplitude`` times the outer product of the
    delay ramp of ``delay`` and the Doppler ramp of ``doppler``."""
    delay_ramp = np.exp(const.delay_phases * delay)
    doppler_ramp = np.exp(2j * math.pi * doppler * const.symbols * const.symbol_duration)
    term = np.multiply(delay_ramp[:, None], doppler_ramp[None, :])
    return np.multiply(amplitude, term, out=term)


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
    is white complex Gaussian at the configured noise-figure level, drawn
    from ``derive_seed(seed, "rx-noise")``.
    """
    if channel.forward_delay < 0 or channel.return_delay < 0:
        raise ValueError("delays must be nonnegative")
    if channel.bs_gain < 0 or channel.ue_gain < 0:
        raise ValueError("gains must be nonnegative")
    if channel.nlos is not None and channel.nlos.delay < channel.return_delay:
        raise ValueError("specular return cannot arrive before the direct return")
    const = cell_constants(scenario)
    tx_gain = _tx_gain(const, _steer(const.bs_phases, math.cos(channel.departure_angle)),
                       beam_index, power_w)
    arrival = _steer(const.ue_phases, math.cos(channel.arrival_angle))
    w = arrival / math.sqrt(len(arrival))
    a0 = math.sqrt(channel.bs_gain * channel.ue_gain) * np.vdot(w, arrival)
    samples = _echo_term(const, a0 * tx_gain, channel.total_delay, channel.doppler)
    if channel.nlos is not None:
        specular = _steer(const.ue_phases, math.cos(channel.nlos.arrival_angle))
        a0_nlos = math.sqrt(channel.bs_gain * channel.nlos.gain) * np.vdot(w, specular)
        np.add(samples, _echo_term(const, a0_nlos * tx_gain,
                                   channel.forward_delay + channel.nlos.delay,
                                   channel.nlos.doppler), out=samples)
    np.multiply(math.sqrt(power_w), samples, out=samples)
    np.multiply(samples, const.pilot, out=samples)
    rng = np.random.default_rng(derive_seed(seed, "rx-noise"))
    noise = rng.standard_normal((*const.pilot.shape, 2)).view(np.complex128)[..., 0]
    np.multiply(const.noise_scale, noise, out=noise)
    return RxGrid(
        samples=np.add(samples, noise, out=samples),
        pilot=const.pilot,
        subcarrier_spacing=scenario.subcarrier_spacing,
        symbol_duration=scenario.symbol_duration,
    )


class Frame(NamedTuple):
    """A stack of B frames: what every (beam, power) cell of one visit to
    each frame shares, the frame's two delay-Doppler surfaces over the
    search window, its noise floor and its departure steering vector.

    Built from each frame's channel and one draw of its noise
    (:func:`build_frames`). Frame ``b`` is index ``b`` of each field, and a
    cell of it adds only the gain of its beam and power
    (:func:`measure_cell`).
    """

    echo: np.ndarray  # (B, D, V): the echo surfaces at unit transmit gain and power
    noise: np.ndarray  # (B, D, V): the noise surfaces
    floor: list[float]  # the RMS of each frame's noise over the guard rows
    departure: np.ndarray  # (B, n_bs): the BS steering vectors towards the targets


# The helpers below take a stack of frames' values along a leading axis
# (each number as a column) and give each frame the same operations on the
# same operands, whatever the stack.


def _echo_surface(
    const: CellConstants, amplitude: np.ndarray, delay: np.ndarray, doppler: np.ndarray
) -> np.ndarray:
    """The (D, V) surface of an echo of ``amplitude``, ``delay`` and
    ``doppler``: the matched filter of a rank-one grid is the outer product
    of its delay factor, the delay bank times the delay ramp over the active
    subcarriers, and its Doppler factor, the Doppler ramp times the Doppler
    bank. Each factor is one matrix-vector product per frame, also in a
    stack, since a stacked matrix-matrix product may round differently."""
    delay_ramp = np.exp(const.delay_phases[:const.null_row] * delay)
    doppler_ramp = np.exp(doppler * const.doppler_phases)
    column = const.e_delay_active @ delay_ramp[..., :, None]  # (D, 1)
    np.multiply(amplitude, column, out=column)
    return np.multiply(column, doppler_ramp[..., None, :] @ const.e_doppler_t)


def _noise_surface(const: CellConstants, noise: np.ndarray, out: np.ndarray) -> None:
    """The (D, V) surface of each (K, M) unit noise draw, over its active
    rows, at the noise's scale, into ``out``. The Doppler bank goes first:
    that order takes fewer multiplications, since the window is smaller than
    the grid."""
    surface = const.e_delay_active @ (noise[..., :const.null_row, :] @ const.e_doppler_t)
    np.multiply(const.noise_scale, surface, out=out)


def _guard_power(const: CellConstants, noise: np.ndarray) -> np.ndarray:
    """``|noise|²`` over the guard rows of each (K, M) unit noise draw,
    flattened. The guard rows are the last rows, so in row-major order they
    are one contiguous run."""
    power = np.abs(noise[..., const.null_row:, :])
    power = power.reshape(*noise.shape[:-2], -1)
    return np.square(power, out=power)


# The most unit normals a stack's noise draw buffer holds: one block of 16
# desk frames (1 536 normals each). So a desk stack of up to 16 frames, a
# block or a default batch's world stack, draws as one chunk, and a paper
# stack (8 000 normals a frame) three frames at a time; a frame larger
# than the budget draws alone. A budget of one paper frame made desk stacks
# draw in chunks of five and took a 12-seed desk batch 5 % more CPU time
# (CHANGES.md).
DRAW_NORMALS = 24_576


def build_frames(
    const: CellConstants, channels: Sequence[ChannelRealization], words: Sequence[np.ndarray]
) -> Frame:
    """The per-frame part of every cell of each frame ``(channels[b],
    words[b])``, as one stack of frames of one scenario; ``words[b]`` is the
    frame's row of :func:`seeding.frame_noise_words`, which seeds its noise
    draw. Each array operation runs once over the stack, but the noise: the
    frames draw it a chunk at a time into one buffer of at most
    :data:`DRAW_NORMALS` normals, and each chunk's floors and noise surfaces go into the stack
    before the next chunk draws. So the draw's memory does not grow with the
    stack, and each frame's values do not depend on the other frames of the
    stack, on its size or on its chunks. It holds no state between calls, so
    any thread may call it."""
    if len(words) != len(channels):
        raise ValueError("need one noise words row per channel")
    cosines = np.array([(math.cos(c.arrival_angle), math.cos(c.departure_angle))
                        for c in channels])
    arrival = _steer(const.ue_phases, cosines[:, :1])
    w = arrival / math.sqrt(arrival.shape[1])
    a0 = [math.sqrt(c.bs_gain * c.ue_gain) * np.vdot(w_b, arrival_b)
          for c, w_b, arrival_b in zip(channels, w, arrival)]
    columns = np.array([(c.total_delay, c.doppler) for c in channels])
    echo = _echo_surface(const, np.array(a0)[:, None, None], columns[:, :1], columns[:, 1:])
    if channels[0].nlos is not None:
        specular = _steer(const.ue_phases,
                          np.array([[math.cos(c.nlos.arrival_angle)] for c in channels]))
        a0_nlos = [math.sqrt(c.bs_gain * c.nlos.gain) * np.vdot(w_b, specular_b)
                   for c, w_b, specular_b in zip(channels, w, specular)]
        columns = np.array([(c.forward_delay + c.nlos.delay, c.nlos.doppler) for c in channels])
        np.add(echo, _echo_surface(const, np.array(a0_nlos)[:, None, None], columns[:, :1],
                                   columns[:, 1:]), out=echo)
    # Each frame draws from a generator of its own, into its slice of the
    # chunk's part of one buffer.
    n = len(words)
    chunk = min(n, max(1, DRAW_NORMALS // (2 * const.pilot.size)))
    draws = np.empty((chunk, *const.pilot.shape, 2))
    noise = np.empty_like(echo)
    floor = []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        part = draws[:stop - start]
        fill_normals(words[start:stop], part)
        grid = part.view(np.complex128)[..., 0]
        # The row-wise reduce over the chunk's runs of guard rows equals the
        # 1-D reduce of each run, so a frame's floor does not depend on the
        # stack or its chunks.
        power = _guard_power(const, grid)
        floor += [const.noise_scale * math.sqrt(total / power.shape[1])
                  for total in np.add.reduce(power, axis=1).tolist()]
        _noise_surface(const, grid, out=noise[start:stop])
    return Frame(echo=echo, noise=noise, floor=floor,
                 departure=_steer(const.bs_phases, cosines[:, 1:]))


def _tx_gain(
    const: CellConstants, departure: np.ndarray, beam_index: int, power_w: float
) -> complex:
    if not 0 <= beam_index < len(const.beamformers):
        raise ValueError("beam_index out of range")
    if not 0.0 <= power_w < math.inf:  # NaN fails both
        raise ValueError("power must be nonnegative and finite")
    return np.vdot(departure, const.beamformers[beam_index])


def measure_cell(
    const: CellConstants, frames: Frame, b: int, beam_index: int, power_w: float
) -> float:
    """Echo strength of the cell ``(beam_index, power_w)`` of frame ``b`` of
    a stack: the peak of the frame's echo surface times the cell's gain,
    ``sqrt(power_w)`` times the beam's transmit gain, plus the noise surface,
    over the floor. It reads the frame's arrays as views of the stack, so
    any number of cells of any of its frames may share one stack.

    The matched filter is linear and the pilot covers whole subcarrier
    rows, so this is the value of the chain ``synthesize_rx_grid`` ->
    ``matched_filter`` -> ``compute_resi`` up to rounding: a relative
    difference of the order of 1e-15, where the chain spends a (K, M)
    received grid and two matched-filter products on every cell.
    """
    floor = frames.floor[b]
    if floor <= 0:
        raise ValueError("noise floor must be positive")
    gain = _tx_gain(const, frames.departure[b], beam_index, power_w) * math.sqrt(power_w)
    surface = np.multiply(gain, frames.echo[b])
    np.add(surface, frames.noise[b], out=surface)
    return float(np.abs(surface).max()) / floor


def measure_cells(
    const: CellConstants, frames: Frame, cells: Sequence[tuple[int, int, float]]
) -> list[float]:
    """Echo strength of each cell ``(b, beam, power_w)`` of a stack of
    frames, in one pass over a (C, D, V) stack of surfaces with one peak per
    slice. Each equals :func:`measure_cell` of the same cell, bit for bit.
    """
    at = [b for b, _, _ in cells]
    if any(frames.floor[b] <= 0 for b in at):
        raise ValueError("noise floor must be positive")
    gains = np.array([_tx_gain(const, frames.departure[b], beam, power_w) * math.sqrt(power_w)
                      for b, beam, power_w in cells])
    surface = np.multiply(gains[:, None, None], frames.echo[at])
    np.add(surface, frames.noise[at], out=surface)
    peaks = np.abs(surface).reshape(len(at), -1).max(axis=1).tolist()
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
        if not (0.0 <= self.value < math.inf and 0.0 < self.noise_floor < math.inf):
            raise ValueError("invalid echo-strength sample")


def compute_resi(surface: np.ndarray, grid: RxGrid) -> ResiSample:
    """Reduce the delay-Doppler surface to the scalar echo-strength indicator:
    the peak magnitude over the noise floor, the RMS of the grid samples over
    its guard set, the elements its pilot leaves empty."""
    guard = grid.pilot == 0
    if not guard.any():
        raise ValueError("the pilot must leave a guard element empty")
    power = np.abs(grid.samples[guard]) ** 2
    floor = math.sqrt(np.add.reduce(power) / power.size)  # np.mean's sum and division
    if floor <= 0:
        raise ValueError("noise floor must be positive")
    return ResiSample(value=float(np.abs(surface).max()) / floor, noise_floor=floor)
