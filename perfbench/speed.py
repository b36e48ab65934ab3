"""Machine-speed calibration for timings taken on a shared VM.

On a shared 2-core VM the same rep can take 7 s or 15 s minutes apart,
because neighbours change how fast the host runs this process. The benchmark
therefore times a fixed reference kernel alongside every rep and reports
seconds scaled to the kernel's nominal speed:

    scaled = raw seconds * REFERENCE_S / (mean kernel seconds during the rep)

The kernel mimics one sensing frame (seed hashing, a fresh generator and a
noise draw, small complex matrix products, a peak search, frozen-dataclass
hashing and construction) but uses only numpy and the standard library, so no
change to racecma can change its speed. Raw seconds are kept beside every
scaled figure.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Kernel seconds in the fast phase of a 2-core x86 KVM guest (Xeon, 2.1 GHz);
# it only sets the scale of the reported seconds.
REFERENCE_S = 0.0018
SAMPLE_INTERVAL_S = 0.2


@dataclass(frozen=True)
class _Config:
    a0: float = 0.0
    a1: float = 1.0
    a2: float = 2.0
    a3: float = 3.0
    b0: int = 0
    b1: int = 1
    c0: tuple = (0.1, 0.2)
    c1: tuple = (1.0, 2.0)


@dataclass(frozen=True)
class _Target:
    x: float
    y: float
    vx: float
    vy: float
    inside: bool


_CONFIGS = [_Config(a0=float(i)) for i in range(64)]
_DELAY = np.exp(0.1j * np.outer(np.arange(10.0), np.arange(24.0)))
_DOPPLER = np.exp(-0.1j * np.outer(np.arange(10.0), np.arange(32.0)))
_RAMP = np.exp(0.02j * np.pi * np.arange(32.0))


def reference_kernel() -> float:
    """A fixed amount of frame-like work (about 2 ms); returns a checksum."""
    cache: dict = {}
    target = _Target(0.0, 0.0, 1.0, 0.5, True)
    acc = 0.0
    for i in range(25):
        key = (_CONFIGS[i % 64], i % 20)
        steer = cache.get(key)
        if steer is None:
            steer = cache.setdefault(key, np.exp(1j * np.arange(24.0) * (i % 20)))
        digest = hashlib.sha256(repr((i, "perfbench", "frame")).encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        noise = 0.3 * rng.standard_normal((24, 32, 2)).view(np.complex128)[..., 0]
        grid = 2.0 * np.outer(steer, _RAMP) + noise
        magnitude = np.abs(_DELAY @ grid @ _DOPPLER.T / grid.size)
        row, col = np.unravel_index(int(np.argmax(magnitude)), magnitude.shape)
        floor = float(np.sqrt(np.mean(np.abs(grid[20:, :]) ** 2)))
        acc += float(magnitude[row, col]) / floor
        target = _Target(target.x + 0.01 * target.vx, target.y + 0.01 * target.vy,
                         target.vx, target.vy, target.x < 5.0)
    return acc + target.x


def kernel_seconds(repeats: int) -> float:
    """Median seconds of ``repeats`` back-to-back kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Runs the reference kernel every SAMPLE_INTERVAL_S while a block runs.

    A SIGALRM handler runs between bytecodes of the main thread, so the
    samples interleave with the timed code without touching its state.
    ``busy_s`` is the time the samples took; callers subtract it from the
    block's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def busy_s(self) -> float:
        return sum(self.samples)

    def kernel_s(self) -> float:
        """Mean kernel seconds over the block (one fresh sample if none fired)."""
        return statistics.mean(self.samples) if self.samples else kernel_seconds(1)
