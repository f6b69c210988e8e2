"""Deterministic RNG plumbing.

All randomness flows through counter-based Philox generators keyed by a
64-bit seed plus an explicit stream id, so every trial is replayable from
the integers recorded in its output row. The edge stream is the only
substream read: the strategy substream is drawn for every trial but no
strategy reads it, and deleting it waits for a benchmark change (the
benchmark's tests count two substreams per trial).
"""

from __future__ import annotations

import struct

import numpy as np

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

# Stream ids for the per-trial substreams.
STREAM_EDGES = 0
STREAM_STRATEGY = 1


def _entropy_words(parts) -> list[int]:
    """The uint32 entropy words of the seed components: each as a uint64
    word (floats by bit pattern), then its low 32 bits, and its high 32
    bits if they are not zero. This is the array `SeedSequence` builds
    from the tuple of those uint64 words, so a seed is the same either
    way; handing it the array skips numpy's per-part coercion."""
    words = []
    for p in parts:
        w = struct.unpack("<Q", struct.pack("<d", p))[0] if isinstance(p, float) else int(p) & MASK64
        words.append(w & MASK32)
        if w > MASK32:
            words.append(w >> 32)
    return words


def seed_sequence(*parts: int | float) -> np.random.SeedSequence:
    return np.random.SeedSequence(np.array(_entropy_words(parts), np.uint32))


def substream(seed: int, stream_id: int) -> np.random.Generator:
    """Generator for one substream of a trial seed."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, stream_id)))


def derive_seed(master_seed: int, *parts: int | float) -> int:
    """Collapse (master_seed, parts...) into a single replayable 64-bit seed:
    the first uint64 word of the sequence's state, joined from its two
    uint32 words as numpy's `generate_state(1, np.uint64)` joins them."""
    lo, hi = seed_sequence(master_seed, *parts).generate_state(2, np.uint32).tolist()
    return lo | hi << 32
