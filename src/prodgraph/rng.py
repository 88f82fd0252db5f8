"""Deterministic 64-bit pseudo-random generator.

The generator is a SplitMix64 stream: state advances by the golden-gamma
constant and each output is a finalized mix of the state.  It is fixed here,
independent of any library RNG, so that a given seed produces the same
graphs, samples, and parameter draws on every platform.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Seeded stream of 64-bit words with float and integer helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B9FE) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_float(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()

    def uniform_array(self, low: float, high: float, size: int) -> np.ndarray:
        """`size` successive uniform(low, high) draws as one float64 array.

        The stream is evaluated with wrapping uint64 arithmetic, so values and
        the final state are bit-identical to calling uniform() size times.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        steps = np.arange(1, size + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        self._state = (self._state + size * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4B9FE)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        unit = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return low + (high - low) * unit

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) without modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % bound)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % bound

    def sample_without_replacement(self, n: int, count: int) -> list[int]:
        """Choose `count` distinct values from [0, n), returned sorted."""
        if not 0 < count <= n:
            raise ValueError(f"cannot choose {count} from {n}")
        pool = list(range(n))
        for i in range(count):
            j = i + self.next_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:count])
