"""Deterministic random-number streams.

Every sampler in the package draws from a counter-based Philox generator.
Replicate ``r`` of an experiment with master seed ``s`` uses
``substream(s, r)``; distinct (seed, index) pairs key independent streams,
so replicates can be evaluated in any order (or concurrently) without
changing a single drawn number.

A counter-based generator starts a new stream from a new key alone
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
``substreams`` uses that to hand out the streams of a batch of replicates
from one Philox, re-keyed in place, instead of building one per replicate.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

#: Seed used by the command line and the README experiments when none is given.
DEFAULT_SEED = 97


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for substream ``index`` of master seed ``seed``."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substreams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Yield the generators of substreams 0 .. count - 1 of master seed ``seed``.

    The r-th draws exactly what ``substream(seed, r)`` draws.  All are one
    ``Generator`` over one Philox: before each yield, its documented
    ``state`` is set to the one ``Philox(key=(seed, r))`` starts from, key
    (seed, r), counter 0, an empty buffer and no cached 32-bit half.  So each
    yielded generator is valid only until the next one is drawn.
    """
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for r in range(count):
        key[1] = r & _MASK64
        bitgen.state = state
        yield rng


def as_generator(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Accept either a seed or an already-built generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return substream(int(seed_or_rng))
