"""Deterministic RNG plumbing.

All randomness flows through counter-based Philox generators keyed by a
64-bit seed plus an explicit stream id, so every trial is replayable from
the integers recorded in its output row. The edge stream is the only
substream read: the strategy substream is drawn for every trial but no
strategy reads it, and deleting it waits for a benchmark change (the
benchmark's tests count two substreams per trial).
"""

from __future__ import annotations

import numbers
import struct

import numpy as np

from .errors import ConfigurationError

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

# Stream ids for the per-trial substreams.
STREAM_EDGES = 0
STREAM_STRATEGY = 1


def is_int(x) -> bool:
    """An integer that is not a bool; an exact int skips the slower ABC test."""
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def check_seed(seed):
    """A seed is an integer, not a bool, in [0, 2^64), the range the RNG keys
    on: masked into it, any other would replay another seed's stream."""
    if not (is_int(seed) and 0 <= seed <= MASK64):
        raise ConfigurationError(f"a seed must lie in [0, 2^64), got {seed!r}")
    return seed


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
    """(master_seed, parts...), the master seed checked by `check_seed`, as one
    replayable 64-bit seed: the first uint64 word of the sequence's state,
    joined from its uint32 words as numpy's `generate_state(1, np.uint64)` does."""
    lo, hi = seed_sequence(check_seed(master_seed), *parts).generate_state(2, np.uint32).tolist()
    return lo | hi << 32
