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

# Stream ids for the per-trial substreams.
STREAM_EDGES = 0
STREAM_STRATEGY = 1


def _entropy_word(part: int | float) -> int:
    """Map a seed component to a uint64 word (floats by bit pattern)."""
    if isinstance(part, float):
        return struct.unpack("<Q", struct.pack("<d", part))[0]
    return int(part) & MASK64


def seed_sequence(*parts: int | float) -> np.random.SeedSequence:
    return np.random.SeedSequence(tuple(_entropy_word(p) for p in parts))


def substream(seed: int, stream_id: int) -> np.random.Generator:
    """Generator for one substream of a trial seed."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, stream_id)))


def derive_seed(master_seed: int, *parts: int | float) -> int:
    """Collapse (master_seed, parts...) into a single replayable 64-bit seed."""
    return int(seed_sequence(master_seed, *parts).generate_state(1, np.uint64)[0])
