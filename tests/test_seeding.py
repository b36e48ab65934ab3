"""derive_seed hashes one joined buffer; its seeds are those of the
streaming form it replaced, so no seeded stream moves. A frame's noise seed
words, hashed from a copied prefix and a formatted buffer and mixed in a
batch, are SeedSequence's of its derive_seed noise seed, and its noise
generator and draws are numpy's ``default_rng`` of the same seed."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from racecma.seeding import (derive_seed, fill_normals, frame_noise_words, generator_from_words,
                             seed_words)


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


seeds_63 = st.integers(0, 2**63 - 1)


# Every pinned noise draw rests on these words being those of derive_seed's
# noise seeds, from any frame on.
@given(seed=st.one_of(seeds_63, seeds_63.map(np.int64)), start=st.integers(0, 5000),
       count=st.integers(0, 4))
@example(seed=0, start=0, count=1)
@example(seed=np.int64(3), start=4997, count=4)
@example(seed=2**63 - 1, start=5000, count=1)
@example(seed=np.int64(2**63 - 1), start=0, count=2)
def test_frame_and_noise_seeds_equal_derive_seeds(seed, start, count):
    stop = min(start + count, 5001)
    words = frame_noise_words(seed, start, stop)
    assert words.dtype == np.uint64 and words.shape == (stop - start, 4)
    assert words.flags.c_contiguous
    for t, row in zip(range(start, stop), words, strict=True):
        noise_seed = derive_seed(derive_seed(seed, "frame", t), "rx-noise")
        expected = np.random.SeedSequence(noise_seed).generate_state(4, np.uint64)
        assert row.tobytes() == expected.tobytes()


# This rests on numpy's SeedSequence algorithm, which seed_words ports: a
# numpy release that changed it fails here, and CI runs it by name.
@given(seed=seeds_63, others=st.lists(seeds_63, max_size=4))
@example(seed=0, others=[])
@example(seed=1, others=[])
@example(seed=2**32 - 1, others=[])
@example(seed=2**32, others=[])
@example(seed=2**63 - 1, others=[0, 1, 2**32 - 1, 2**32])
def test_words_and_draws_equal_numpys(seed, others):
    seeds = [*others, seed]
    words = seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    assert words.flags.c_contiguous
    for s, row in zip(seeds, words):
        assert row.tobytes() == np.random.SeedSequence(s).generate_state(4, np.uint64).tobytes()
        drawn = generator_from_words(row).standard_normal(64)
        assert drawn.tobytes() == np.random.default_rng(s).standard_normal(64).tobytes()
    # fill_normals draws each row's stream into its slice of one buffer.
    filled = np.empty((len(seeds), 64))
    fill_normals(words, filled)
    for s, out in zip(seeds, filled):
        assert out.tobytes() == np.random.default_rng(s).standard_normal(64).tobytes()


@pytest.mark.parametrize("words", [
    np.zeros(3, dtype=np.uint64),
    np.zeros(4, dtype=np.int64),
    np.zeros((2, 4), dtype=np.uint64),
    np.zeros((4, 2), dtype=np.uint64)[:, 0],
])
def test_generator_rejects_words_pcg64_would_misread(words):
    with pytest.raises(ValueError, match="contiguous"):
        generator_from_words(words)
