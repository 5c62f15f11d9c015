"""Deterministic random numbers for experiments.

Everything stochastic in this package (problem data, coin flips, random
graph edges, power-iteration start vectors) draws from the xoshiro256**
generator below, seeded through SplitMix64.  The implementation is pure
Python on 64-bit integer words, so streams are reproducible bit-for-bit
across platforms and numpy versions; normals take their logarithms and
trigonometry from `math`, as numpy's vectorized loops need not match libm.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_CHUNK = 1024  # values a bulk draw holds in a list before writing them to its array


def _splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state, return (new_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


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
        # `_uniform_list` repeats these lines on local copies of the words
        s0, s1, s2, s3 = self._s
        x = s1 * 5 & _MASK64
        t = s1 << 17 & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s = [s0, s1, s2, (s3 << 45 | s3 >> 19) & _MASK64]
        return (x << 7 | x >> 57) * 9 & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller (pairs generated, one cached)."""
        return float(self.normals(()))

    def normals(self, shape) -> np.ndarray:
        """Array of standard normals with the given shape, drawn in C order.
        A Box-Muller pair takes two uniforms u and u2, with u1 = u + 2**-53
        in (0, 1] (exact, as u is a multiple of 2**-53 below 1), and gives
        r cos(2 pi u2), then r sin(2 pi u2), r = sqrt(-2 log u1); an odd count
        caches the sine for the next draw.  The array is allocated before the
        first draw, so a shape numpy refuses raises at once."""
        out = np.empty(shape)
        flat, size = out.reshape(-1), out.size
        cache = self._gauss_cache
        log, sqrt, cos, sin, two_pi = math.log, math.sqrt, math.cos, math.sin, 2.0 * math.pi
        for start in range(0, size, _CHUNK):
            count = min(_CHUNK, size - start)
            values = [] if cache is None else [cache]
            append = values.append
            pairs = iter(self._uniform_list(2 * ((count - len(values) + 1) >> 1)))
            for u, u2 in zip(pairs, pairs):
                radius, angle = sqrt(-2.0 * log(u + 2.0**-53)), two_pi * u2
                append(radius * cos(angle))
                append(radius * sin(angle))
            cache = values.pop() if len(values) > count else None
            flat[start:start + count] = values
        self._gauss_cache = cache
        return out

    def uniforms(self, shape) -> np.ndarray:
        """Array of uniforms in [0, 1), allocated and drawn as `normals`."""
        out = np.empty(shape)
        flat, size = out.reshape(-1), out.size
        for start in range(0, size, _CHUNK):
            flat[start:start + _CHUNK] = self._uniform_list(min(_CHUNK, size - start))
        return out

    def _uniform_list(self, count: int) -> list:
        """The next `count` values of `uniform` as a list: the one loop of
        the bulk draws, with the state update of `next_u64` inlined."""
        s0, s1, s2, s3 = self._s
        mask = _MASK64
        values = []
        append = values.append
        for _ in range(count):
            x = s1 * 5 & mask
            t = s1 << 17 & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45 | s3 >> 19) & mask
            append((((x << 7 | x >> 57) * 9 & mask) >> 11) * 2.0**-53)
        self._s = [s0, s1, s2, s3]
        return values
