"""Seedable, portable random number generation.

Structural draws (masking, crops, subset selection, shuffles) go through
``Rng``, a splitmix64 generator whose integer stream is identical on every
platform. Bulk field sampling (noise volumes, weight init) is vectorized
with numpy's PCG64, seeded from the same derivation scheme.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int | str) -> int:
    """Fold an arbitrary label sequence into a 64-bit seed (FNV-1a + mix)."""
    h = _FNV_OFFSET
    for part in parts:
        for b in str(part).encode("utf-8"):
            h = ((h ^ b) * _FNV_PRIME) & _MASK64
        h = _mix64(h)
    return h


class Rng:
    """splitmix64 stream with the handful of draws the pipeline needs."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @classmethod
    def derive(cls, *parts: int | str) -> "Rng":
        return cls(derive_seed(*parts))

    def u64(self) -> int:
        z = _mix64(self._state)
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        return z

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * (2.0**-53)

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randbelow(self, n: int) -> int:
        """Integer in [0, n) via multiply-shift; one stream step per call."""
        if n <= 0:
            raise ValueError(f"randbelow requires n >= 1, got {n}")
        return (self.u64() * n) >> 64

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n) by partial Fisher-Yates.

        Exactly k stream steps; no rejection, so the draw count is fixed
        and the result is reproducible across platforms.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n} without replacement")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def permutation(self, n: int) -> list[int]:
        return self.sample_without_replacement(n, n)


def np_generator(*parts: int | str) -> np.random.Generator:
    """Vectorized PCG64 generator for bulk field draws, seeded by label."""
    return np.random.Generator(np.random.PCG64(derive_seed(*parts)))
