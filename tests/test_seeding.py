"""derive_seed hashes one joined buffer; its seeds are those of the
streaming form it replaced, so no seeded stream moves."""

import hashlib

import numpy as np
from hypothesis import example, given, strategies as st

from racecma.seeding import derive_seed


def _streaming_derive_seed(*parts) -> int:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest()[:8], "little") & ((1 << 63) - 1)


scalars = st.one_of(
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
)
parts_st = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)


@given(st.lists(parts_st, max_size=5))
@example([])
@example([3, "frame", np.int64(7)])
@example(["écho", "雷达", ("rx-noise", 0.5)])
def test_joined_buffer_matches_streaming_digest(parts):
    assert derive_seed(*parts) == _streaming_derive_seed(*parts)
