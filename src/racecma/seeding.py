"""Deterministic, order-independent seed derivation.

Every stochastic component of the package draws from a generator seeded
through :func:`derive_seed`, so a run is a pure function of its master seed:
per-frame noise, target motion, candidate evaluations and benchmark
repetitions can be computed in any order (or concurrently) and still
reproduce bit-identically.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK63 = (1 << 63) - 1


def derive_seed(*parts) -> int:
    """Collapse a master seed plus labels/indices into a 63-bit child seed.

    The derivation hashes the repr of each part, so distinct part tuples map
    to distinct seeds (SHA-256 truncated to 63 bits; collisions are not a
    practical concern) and the result never depends on call order.
    """
    # One buffer, hashed once: each part's repr followed by a unit separator.
    data = (("%r\x1f" * len(parts)) % parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little") & _MASK63


def rng_from(*parts) -> np.random.Generator:
    """A fresh PCG64 generator seeded with ``derive_seed(*parts)``."""
    return np.random.default_rng(derive_seed(*parts))
