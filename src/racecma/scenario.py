"""Scenario description for the bistatic sensing setup.

Geometry is planar: the base station sits at a fixed position and sweeps a
transmit beam across a configured angular range, the sensing receiver (UE)
sits at another fixed position, and a single point target moves inside a
rectangular sensing region, bouncing off its edges.

Every config dataclass first checks its fields against their annotations
(:func:`check_fields`): each field's kind, and its range where the annotation
carries a :class:`Bound`. ``config.schema`` reads the same per-field table
(:func:`field_items`), so the key table states both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from .seeding import derive_seed, rng_from

SPEED_OF_LIGHT = 299_792_458.0
BOLTZMANN_X_T0 = 1.380649e-23 * 290.0  # thermal noise density at 290 K, W/Hz
# Inset of the target's spawn band from each side of the region, as a
# fraction of the region's extent.
TARGET_SPAWN_MARGIN = 0.25


@dataclass(frozen=True)
class Bound:
    """The range of a field, or of each entry of a tuple field, carried by
    its annotation: ``Annotated[float, Bound(0, 1, "(]")]``. ``hi`` None is
    no upper end; ``ends`` says which ends are closed, ``[`` and ``]``, or
    open, ``(`` and ``)``."""

    lo: float
    hi: float | None = None
    ends: str = "[]"

    def holds(self, v) -> bool:
        if not (v > self.lo if self.ends[0] == "(" else v >= self.lo):
            return False
        return self.hi is None or (v < self.hi if self.ends[1] == ")" else v <= self.hi)

    def __str__(self) -> str:
        """``>= 1``, ``> 0`` or ``in (0, 1]``."""
        if self.hi is None:
            return f"{'>' if self.ends[0] == '(' else '>='} {self.lo:g}"
        return f"in {self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"

    def rule(self) -> str:
        """What a value past the bound is told: ``be >= 1``, ``be positive``
        or ``lie in (0, 1]``."""
        text = str(self)
        return "be positive" if text == "> 0" else f"{'be' if self.hi is None else 'lie'} {text}"


Count = Annotated[int, Bound(1)]
Positive = Annotated[float, Bound(0, ends="()")]
NonNegative = Annotated[float, Bound(0)]
UnitShare = Annotated[float, Bound(0, 1)]  # [0, 1]
UnitFraction = Annotated[float, Bound(0, 1, "(]")]  # (0, 1]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle used as the sensing region descriptor."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        check_fields(self)
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValueError("rectangle must have positive extent")


@dataclass(frozen=True)
class GainModel:
    """Path-loss and scattering parameters for the two-leg echo.

    Each leg uses free-space loss at the carrier wavelength; the target adds
    a constant effective scattering gain. The optional specular component
    models one extra echo arriving later, weaker and offset in angle.
    """

    scattering_gain: Positive = 100.0
    nlos_gain_ratio: UnitShare = 0.2
    nlos_excess_delay: NonNegative = 1.5e-7
    nlos_angle_offset: float = 0.35
    nlos_doppler_ratio: float = 0.5

    def __post_init__(self) -> None:
        check_fields(self)


def _field_item(hint) -> tuple[type, int | None, bool, Bound | None]:
    count, is_tuple = 1, get_origin(hint) is tuple
    if is_tuple:
        args = get_args(hint)
        count = None if args[-1] is Ellipsis else len(args)
        (hint,) = set(args) - {Ellipsis}
    hint, bound = get_args(hint) if get_origin(hint) is Annotated else (hint, None)
    return hint, count, is_tuple, bound


@cache
def field_items(cls: type) -> tuple:
    """``(name, item, count, is_tuple, bound)`` for each field of the
    dataclass ``cls``: the entry type, the entry count (None for
    ``tuple[X, ...]``, 1 for a scalar), whether the field is a tuple and
    the :class:`Bound` of each entry (None for no range)."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, *_field_item(hints[f.name])) for f in fields(cls))


# The rule for an entry annotated int, float or bool; other types take their instances.
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    float: ("finite and real", lambda v: isinstance(v, numbers.Real)
            and not isinstance(v, bool) and math.isfinite(v)),
    bool: ("a bool", lambda v: v in (True, False)),
}


def check_fields(config) -> None:
    """Reject a field of the dataclass ``config``, or a tuple field's entry,
    whose value does not fit the field's annotation, and a tuple of another
    length than its annotation's. Such a value fails only mid-run, at its
    first use, or in ``spec.cfg``, which cannot read it back. A value of the
    right kind is then checked against the annotation's :class:`Bound`, and
    every error names its field."""
    for name, item, count, is_tuple, bound in field_items(type(config)):
        value = getattr(config, name)
        if is_tuple and not isinstance(value, tuple):
            raise ValueError(f"{name} must be a tuple")
        if is_tuple and count not in (None, len(value)):
            raise ValueError(f"{name} must hold {count} entries")
        entries = value if is_tuple else (value,)
        kind, fits = _KINDS.get(item, (f"a {item.__name__}", lambda v: isinstance(v, item)))
        if not all(map(fits, entries)):
            raise ValueError(f"{name} must be {kind}")
        if bound and not all(map(bound.holds, entries)):
            raise ValueError(f"{name} must {bound.rule()}")


def planar_distance(dx: float, dy: float) -> float:
    """The scenario's checks and the channel's legs share it, overflow and all."""
    return math.sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of the sensing link and its measurement chain.

    Defaults correspond to the reference setup: a 24 GHz carrier with 15 kHz
    subcarrier spacing, a 32/16-element BS/UE pair, 20 beams sweeping the
    quarter-to-three-quarter-pi cone, one target at 3 m/s and a 10 s horizon.
    """

    n_bs_antennas: Count = 32
    n_ue_antennas: Count = 16
    antenna_spacing: Positive = 0.5  # in carrier wavelengths
    carrier_freq: Positive = 24e9
    subcarrier_spacing: Positive = 15e3
    n_subcarriers: Count = 40
    n_symbols: Count = 100
    symbol_duration: Positive = 100e-6
    n_beams: Count = 20
    sweep_range: tuple[float, float] = (math.pi / 4, 3 * math.pi / 4)
    tx_power_dbm: float = 20.0
    tx_power_range_dbm: tuple[float, float] = (10.0, 30.0)
    noise_figure_db: float = 6.0
    n_targets: int = 1
    target_speed: NonNegative = 3.0
    sensing_horizon: Positive = 10.0
    n_delay_bins: Count = 10
    n_doppler_bins: Count = 10
    nlos_path_count: Annotated[int, Bound(0, 1)] = 0
    region: Rect = field(default_factory=lambda: Rect(-25.0, 25.0, 25.0, 75.0))
    gain_model: GainModel = field(default_factory=GainModel)
    bs_position: tuple[float, float] = (0.0, 0.0)
    ue_position: tuple[float, float] = (15.0, 10.0)
    delay_window: tuple[float, float] = (0.05e-6, 0.75e-6)
    doppler_window: tuple[float, float] = (-250.0, 250.0)
    null_fraction: Annotated[float, Bound(0, 1, "()")] = 0.1
    noise_bandwidth_scale: float = 1.0
    interference_factor: NonNegative = 0.0
    heading_jitter: NonNegative = 0.3

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_targets != 1:
            raise ValueError("n_targets must be 1: the simulator models a single target")
        lo, hi = self.sweep_range
        if not (0.0 < lo < hi < math.pi):
            raise ValueError("sweep_range must be an increasing interval inside (0, pi)")
        p_lo, p_hi = self.tx_power_range_dbm
        if not (p_lo <= self.tx_power_dbm <= p_hi):
            raise ValueError("tx_power_dbm outside the configured budget range")
        try:
            dbm_to_watt(p_hi)
        except OverflowError:
            raise ValueError("tx_power_range_dbm exceeds the float range in watts") from None
        # The bins radar.matched_filter scans, which it rejects outside the
        # unambiguous range of the OFDM grid.
        delays, dopplers = self.search_window()
        if np.any(delays < 0) or np.any(delays >= 1.0 / self.subcarrier_spacing):
            raise ValueError("delay_window outside the unambiguous range "
                             "[0, 1/subcarrier_spacing)")
        if np.any(np.abs(dopplers) > 0.5 / self.symbol_duration):
            raise ValueError("doppler_window outside the unambiguous range "
                             "[-0.5/symbol_duration, 0.5/symbol_duration]")
        # A guard row on every subcarrier leaves the pilot all zero: no echo.
        if self.null_subcarriers >= self.n_subcarriers:
            raise ValueError(f"null_fraction {self.null_fraction!r} makes all "
                             f"{self.n_subcarriers} of n_subcarriers guard rows; at least "
                             "one subcarrier must carry the pilot")
        try:
            noise = self.noise_variance
        except OverflowError:  # 10 ** (noise_figure_db / 10) beyond the float range
            noise = math.inf
        # The noise-floor estimate squares noise samples: keep those normal floats.
        if not 1e-300 < noise < math.inf:
            raise ValueError("noise power per resource element must lie in (1e-300, inf) W; "
                             "check noise_figure_db, noise_bandwidth_scale, "
                             "interference_factor and subcarrier_spacing")
        # radar.realize_channel turns path lengths and the wavelength into
        # delay and Doppler phase ramps, which are nan once either overflows.
        # A step no longer than the region's shorter side needs at most one
        # reflection to end inside the region, so the target never leaves it
        # and its distances to the BS and the UE stay below the corners'.
        if not math.isfinite(self.wavelength):
            raise ValueError("carrier_freq is too small: the wavelength overflows")
        r = self.region
        (bx, by), (ux, uy) = self.bs_position, self.ue_position
        distances = [planar_distance(ux - bx, uy - by)]
        distances += [planar_distance(cx - px, cy - py)
                      for cx in (r.x_min, r.x_max) for cy in (r.y_min, r.y_max)
                      for px, py in (self.bs_position, self.ue_position)]
        if not all(math.isfinite(d) for d in distances):
            raise ValueError("bs_position, ue_position and region must lie within finite "
                             "distances of each other")
        if distances[0] < 1e-6:
            raise ValueError("bs_position and ue_position must be distinct")
        step = self.target_speed * self.frame_duration
        if not step <= min(r.x_max - r.x_min, r.y_max - r.y_min):
            raise ValueError("target_speed * frame_duration must not exceed the "
                             "region's shorter side")

    # Derived quantities -------------------------------------------------

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def frame_duration(self) -> float:
        """One sensing frame spans one OFDM grid."""
        return self.n_symbols * self.symbol_duration

    @property
    def frame_count(self) -> int:
        return max(1, int(round(self.sensing_horizon / self.frame_duration)))

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watt(self.tx_power_dbm)

    @property
    def noise_variance(self) -> float:
        """Per-resource-element disturbance power (thermal + interference)."""
        nf = 10.0 ** (self.noise_figure_db / 10.0)
        thermal = BOLTZMANN_X_T0 * nf * self.subcarrier_spacing * self.noise_bandwidth_scale
        return thermal * (1.0 + self.interference_factor)

    @property
    def null_subcarriers(self) -> int:
        """The guard subcarriers, the top ones: they carry no pilot, so the
        received grid holds only disturbance there (the noise floor's set)."""
        return max(1, int(math.ceil(self.null_fraction * self.n_subcarriers)))

    def beam_centers(self) -> np.ndarray:
        lo, hi = self.sweep_range
        width = (hi - lo) / self.n_beams
        return lo + (np.arange(self.n_beams) + 0.5) * width

    def beam_contains(self, beam_index: int, angle: float) -> bool:
        """Whether ``angle`` falls inside the angular sector of a beam."""
        lo, hi = self.sweep_range
        width = (hi - lo) / self.n_beams
        sector_lo = lo + beam_index * width
        return sector_lo <= angle < sector_lo + width

    def search_window(self) -> tuple[np.ndarray, np.ndarray]:
        """Delay and Doppler bin centers scanned by the matched filter."""
        return (np.linspace(*self.delay_window, self.n_delay_bins),
                np.linspace(*self.doppler_window, self.n_doppler_bins))


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def desk_scenario(**overrides) -> ScenarioConfig:
    """Reduced-cost profile used by tests and the default benchmark configs.

    Shrinks the grid and horizon (not the physics) so a full episode costs
    milliseconds; paper-scale runs use ``ScenarioConfig()`` directly.
    """
    params = dict(n_subcarriers=24, n_symbols=32, sensing_horizon=0.32)
    params.update(overrides)
    return ScenarioConfig(**params)


@dataclass(frozen=True)
class TargetState:
    """Kinematic state of the point target."""

    position: tuple[float, float]
    velocity: tuple[float, float]

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


def initial_target_state(scenario: ScenarioConfig, seed: int) -> TargetState:
    """Draw a starting position inside the spawn band, heading uniform.

    The spawn band insets the region by ``TARGET_SPAWN_MARGIN`` per side, so
    episodes start with the target properly inside the surveilled area.
    """
    rng = rng_from(seed, "target-init")
    r = scenario.region
    mx = TARGET_SPAWN_MARGIN * (r.x_max - r.x_min)
    my = TARGET_SPAWN_MARGIN * (r.y_max - r.y_min)
    pos = (rng.uniform(r.x_min + mx, r.x_max - mx), rng.uniform(r.y_min + my, r.y_max - my))
    heading = rng.uniform(0.0, 2.0 * math.pi)
    vel = (
        scenario.target_speed * math.cos(heading),
        scenario.target_speed * math.sin(heading),
    )
    return TargetState(position=pos, velocity=vel)


def propagate_target(
    state: TargetState,
    dt: float,
    rng_seed: int | tuple,
    region: Rect,
    heading_jitter: float = 0.0,
) -> TargetState:
    """Advance the target by ``dt`` with specular reflection at region edges.

    Motion is straight-line; only a boundary hit changes the direction:
    the velocity is mirrored on the wall normal and, when ``heading_jitter``
    is nonzero, rotated by a perturbation drawn from ``rng_seed``. A tuple
    ``rng_seed`` holds the parts of that seed, ``derive_seed(*rng_seed)``,
    which is then derived only for such a rotation. Speed is preserved
    exactly and the target ends inside ``region``: a step too long to fold
    back in 16 reflections (about 15 region widths) raises ``ValueError``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y = state.position
    vx, vy = state.velocity
    x += vx * dt
    y += vy * dt

    reflected = False
    # Mirror the overshoot back into the rectangle (repeat for long steps).
    for _ in range(16):
        moved = False
        if x < region.x_min:
            x, vx, moved = 2 * region.x_min - x, -vx, True
        elif x > region.x_max:
            x, vx, moved = 2 * region.x_max - x, -vx, True
        if y < region.y_min:
            y, vy, moved = 2 * region.y_min - y, -vy, True
        elif y > region.y_max:
            y, vy, moved = 2 * region.y_max - y, -vy, True
        reflected = reflected or moved
        if not moved:
            break
    else:
        raise ValueError("step too long to fold back into the region")

    if reflected and heading_jitter > 0.0:
        if isinstance(rng_seed, tuple):
            rng_seed = derive_seed(*rng_seed)
        rng = rng_from(rng_seed, "reflect")
        angle = rng.uniform(-heading_jitter, heading_jitter)
        c, s = math.cos(angle), math.sin(angle)
        vx, vy = c * vx - s * vy, s * vx + c * vy

    return TargetState(position=(x, y), velocity=(vx, vy))
