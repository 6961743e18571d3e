"""Deterministic random streams.

Every stochastic routine in the package draws from a Philox-4x64-10
counter-based generator (numpy's implementation). A stream is addressed
by the user seed plus a small tuple of stream indices (e.g. a trial
number), so independent trials can run in parallel and any run can be
reproduced from (seed, indices) alone. A seed is any whole number; its
low 64 bits address the stream.
"""

from __future__ import annotations

import numbers

from .errors import ConfigError

_MASK64 = (1 << 64) - 1


def _fold(indices: tuple[int, ...]) -> int:
    # splitmix64-style fold of the index tuple into one 64-bit word
    acc = 0x9E3779B97F4A7C15
    for idx in indices:
        acc = (acc ^ (int(idx) & _MASK64)) & _MASK64
        acc = (acc * 0xBF58476D1CE4E5B9) & _MASK64
        acc ^= acc >> 31
    return acc


def _seed(seed) -> int:
    """`seed` as an int; ConfigError unless it is a whole number. Every entry point that takes a seed checks it."""
    if not (isinstance(seed, numbers.Integral) or isinstance(seed, numbers.Real) and float(seed).is_integer()):
        raise ConfigError(f"seed must be a whole number, got {seed!r}")  # int() would take 7.9 as 7, and "7"
    return int(seed)


def rng_stream(seed: int, *indices: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *indices); ConfigError unless `seed` is a whole number."""
    import numpy as np
    key = np.array([_seed(seed) & _MASK64, _fold(indices)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
