"""Deterministic, order-independent seed derivation.

Every stochastic component of the package draws from a generator seeded
through :func:`derive_seed`, so a run is a pure function of its master seed:
per-frame noise, target motion, candidate evaluations and benchmark
repetitions can be computed in any order (or concurrently) and still
reproduce bit-identically.

Most generators are ``np.random.default_rng(seed)``. This module also owns
a frame's noise stream, which the episode loop needs once per drawn frame,
so it builds it through a cheaper path. ``default_rng(s)`` mixes ``s`` in
numpy's ``SeedSequence`` into four 64-bit words,
``generate_state(4, np.uint64)``, and seeds a ``PCG64`` with them. That
mixing is a fixed sequence of 32-bit xors, multiplications and shifts,
which :func:`seed_words` runs over many seeds at once in numpy arrays, and
:func:`generator_from_words` seeds a ``PCG64`` with one seed's words. So
its stream is ``default_rng(s)``'s, bit for bit (``tests/test_seeding.py``
holds both to numpy's over the whole 63-bit range), and building it skips
``SeedSequence``, most of ``default_rng``'s cost. :func:`frame_noise_words`
gives the words of a run of frames, whose seeds,
``derive_seed(derive_seed(seed, "frame", t), "rx-noise")``, it hashes from
the same bytes with less formatting, and :func:`fill_normals` draws each
frame's normals from its words.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK63 = (1 << 63) - 1


def derive_seed(*parts) -> int:
    """Collapse a master seed plus labels/indices into a 63-bit child seed.

    The derivation hashes the repr of each part, so distinct part tuples map
    to distinct seeds (SHA-256 truncated to 63 bits; collisions are not a
    practical concern) and the result never depends on call order.
    """
    # One buffer, hashed once: each part's repr followed by a unit separator.
    data = (("%r\x1f" * len(parts)) % parts).encode()
    return _seed63(hashlib.sha256(data))


def _seed63(digest) -> int:
    """A SHA-256's first 8 bytes, little-endian, truncated to 63 bits."""
    return int.from_bytes(digest.digest()[:8], "little") & _MASK63


def frame_noise_words(seed, start: int, stop: int) -> np.ndarray:
    """The noise seed words of each frame t in [start, stop) of the episode
    of ``seed``, one row of (N, 4) per frame: :func:`seed_words` of
    ``derive_seed(derive_seed(seed, "frame", t), "rx-noise")``, the seed
    from which the reference chain draws frame t's noise. Each frame hashes
    the same bytes with less formatting: a copy of one SHA-256 pre-fed with
    ``repr(seed)`` and ``"frame"`` takes the frame index, and the noise
    seed's buffer, its frame seed's decimal digits (a Python int's repr)
    and ``"rx-noise"``, is formatted in place."""
    prefix = hashlib.sha256(("%r\x1f'frame'\x1f" % (seed,)).encode())
    noise = []
    for t in range(start, stop):
        frame = prefix.copy()
        frame.update(b"%d\x1f" % t)
        noise.append(_seed63(hashlib.sha256(b"%d\x1f'rx-noise'\x1f" % _seed63(frame))))
    return seed_words(noise)


def rng_from(*parts) -> np.random.Generator:
    """A fresh PCG64 generator seeded with ``derive_seed(*parts)``."""
    return np.random.default_rng(derive_seed(*parts))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # words in the entropy pool


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The (xor, multiplier) pair of each of ``n`` successive hashes, as a
    (2, n, 1) ``uint32`` array. A hash xors the value with the hash constant,
    multiplies the constant by ``mult`` and the value by the new constant, so
    the pairs do not depend on the data."""
    pairs, const = [], init
    for _ in range(n):
        after = const * mult & 0xFFFFFFFF
        pairs.append((const, after))
        const = after
    return np.array(pairs, dtype=np.uint32).T[..., None]


# The pool's 4 hashes of the entropy, then 3 for each of its 4 source words
# as it mixes them into the other 3; then the 8 hashes of the output words.
_MIX_HASHES = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_OUT_HASHES = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row of ``values`` with its own
    (xor, multiplier) row, as a new ``uint32`` array."""
    out = np.bitwise_xor(values, xor)
    np.multiply(out, mult, out=out)
    return np.bitwise_xor(out, out >> 16, out=out)


def seed_words(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` of every
    seed ``s`` in [0, 2⁶³), as one C-contiguous (N, 4) ``uint64`` array.

    Each step of numpy's mixing runs once over all the seeds, so a call has
    a fixed cost of some fifty small array operations: pass many seeds at
    once. A seed's entropy is its low and high 32-bit words; numpy drops
    a high word of 0, which hashes like the pool's zero padding.
    """
    wide = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((_POOL, len(wide)), dtype=np.uint32)
    pool[0] = wide & 0xFFFFFFFF
    pool[1] = wide >> 32
    xor, mult = _MIX_HASHES
    pool = _hash(pool, xor[:_POOL], mult[:_POOL])
    for src in range(_POOL):
        at = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        hashed = _hash(pool[src], xor[at], mult[at])
        dst = [d for d in range(_POOL) if d != src]
        # SeedSequence's mix(x, y) of each other word x with its hash y of
        # the source word, which none of the three changes.
        mixed = pool[dst] * np.uint32(_MIX_MULT_L)
        np.subtract(mixed, np.multiply(hashed, np.uint32(_MIX_MULT_R), out=hashed), out=mixed)
        pool[dst] = np.bitwise_xor(mixed, mixed >> 16, out=mixed)
    # Eight 32-bit output words, from the pool taken twice over, written a
    # row per seed: each consecutive (low, high) pair is one 64-bit word, as
    # numpy reads them.
    words = np.empty((len(wide), 2 * _POOL), dtype=np.uint32)
    xor, mult = _OUT_HASHES
    for half in (slice(0, _POOL), slice(_POOL, 2 * _POOL)):
        words.T[half] = _hash(pool, xor[half], mult[half])
    return words.view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """A seed sequence that hands ``PCG64`` its words as they are."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def generator_from_words(words: np.ndarray) -> np.random.Generator:
    """The generator ``np.random.default_rng(s)`` for the seed ``s`` whose
    row of :func:`seed_words` is ``words``, a contiguous (4,) ``uint64``
    array: ``PCG64`` reads its four words from the array's buffer."""
    if words.shape != (4,) or words.dtype != np.uint64 or not words.flags.c_contiguous:
        raise ValueError("seed words must be a contiguous (4,) uint64 array")
    return np.random.Generator(np.random.PCG64(_Words(words)))


def fill_normals(words: Sequence[np.ndarray], out: np.ndarray) -> None:
    """Draw each frame's unit normals into its slice of ``out`` from the
    generator of its row of ``words`` (:func:`generator_from_words`):
    every slice, one row each, so the two must be of one length."""
    for row, draws in zip(words, out, strict=True):
        generator_from_words(row).standard_normal(out=draws)
