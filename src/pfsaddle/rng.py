"""Deterministic random numbers for experiments.

Everything stochastic in this package (problem data, coin flips, random
graph edges, power-iteration start vectors) draws from the xoshiro256**
generator below, seeded through SplitMix64.  The implementation is pure
Python on 64-bit integer words, so streams are reproducible bit-for-bit
across platforms and numpy versions.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state, return (new_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl64(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def derive_seed(root: int, *parts) -> int:
    """Derive a child seed from a root seed and a label path.

    Uses BLAKE2b over the decimal rendering of the root and each label,
    so the mapping is stable across sessions and machines.  Distinct label
    paths give statistically independent streams.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root)).encode())
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


class Xoshiro256StarStar:
    """xoshiro256** generator with SplitMix64 seeding.

    Parameters
    ----------
    seed : int
        Any Python integer; reduced modulo 2**64 before seeding.
    """

    def __init__(self, seed: int):
        state = int(seed) & _MASK64
        words = []
        for _ in range(4):
            state, word = _splitmix64_next(state)
            words.append(word)
        if not any(words):  # all-zero state is a fixed point; avoid it
            words[0] = 1
        self._s = words
        self._gauss_cache: float | None = None

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl64((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl64(s[3], 45)
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def _uniform_open(self) -> float:
        """Uniform double in (0, 1]; safe as a log argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller (pairs generated, one cached)."""
        if self._gauss_cache is not None:
            value = self._gauss_cache
            self._gauss_cache = None
            return value
        u1 = self._uniform_open()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._gauss_cache = radius * math.sin(angle)
        return radius * math.cos(angle)

    def normals(self, shape) -> np.ndarray:
        """Array of standard normals with the given shape, drawn in C order.
        The array is allocated before the first draw, so a shape numpy
        refuses raises at once."""
        out = np.empty(shape)
        out.reshape(-1)[:] = [self.normal() for _ in range(out.size)]
        return out

    def uniforms(self, shape) -> np.ndarray:
        """Array of uniforms in [0, 1), allocated and drawn as `normals`."""
        out = np.empty(shape)
        out.reshape(-1)[:] = [self.uniform() for _ in range(out.size)]
        return out
