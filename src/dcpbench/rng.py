"""Deterministic 64-bit PRNG (splitmix64) shared by every stochastic choice.

All randomness in the package (replacement decisions, synthetic traces,
verification sampling) flows through this generator so that a run is a pure
function of its seed on every platform.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """The splitmix64 finalizer on a single 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def next_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias is irrelevant here."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def peek_block(self, count: int) -> np.ndarray:
        """The next `count` outputs as a uint64 array, without advancing."""
        return splitmix64_array(self._state, count)

    def advance(self, count: int) -> None:
        """Skip `count` outputs, as `count` next_u64() calls would."""
        self._state = (self._state + count * _GAMMA) & _MASK


def splitmix64_array(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of SplitMix64(seed) as a uint64 array.

    Exploits the fact that output i only depends on seed + (i+1)*gamma, so
    the whole stream vectorizes.
    """
    i = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + i * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))
