"""Tests for the seeded pseudo-random generator stack.

The generator must be reproducible across reimplementations, so the
known-answer vectors below are frozen and a second, independently written
implementation of the same construction lives in this file as an oracle.
"""

import math

import numpy as np
import pytest

from pfsaddle.rng import Xoshiro256StarStar, derive_seed, _splitmix64_next


MASK64 = (1 << 64) - 1

# reference output of splitmix64 from state 0 (widely published vector)
SPLITMIX_FROM_ZERO = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]

# first outputs of xoshiro256** seeded through splitmix64, frozen here
XOSHIRO_FROM_ZERO = [
    0x99EC5F36CB75F2B4,
    0xBF6E1F784956452A,
    0x1A5F849D4933E6E0,
    0x6AA594F1262D2D2C,
]
XOSHIRO_FROM_42 = [
    0x15780B2E0C2EC716,
    0x6104D9866D113A7E,
    0xAE17533239E499A1,
]


def oracle_splitmix64(state):
    """Independent splitmix64 step, written against the reference recipe."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class OracleXoshiro:
    """Minimal xoshiro256** rewritten from scratch for cross-checking."""

    def __init__(self, seed):
        s = seed & MASK64
        self.s = []
        for _ in range(4):
            s, word = oracle_splitmix64(s)
            self.s.append(word)
        if not any(self.s):
            self.s[0] = 1

    @staticmethod
    def _rotl(value, k):
        return ((value << k) | (value >> (64 - k))) & MASK64

    def next_u64(self):
        s0, s1, s2, s3 = self.s
        result = (self._rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = self._rotl(s3, 45)
        self.s = [s0, s1, s2, s3]
        return result


class OracleDraws(OracleXoshiro):
    """Scalar uniforms and Box-Muller normals on the oracle's words, one value
    per call: u1 in (0, 1] from the first word of a pair, u2 in [0, 1) from
    the second, cos first and sin cached."""

    def __init__(self, seed):
        super().__init__(seed)
        self.cache = None

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self):
        if self.cache is not None:
            value, self.cache = self.cache, None
            return value
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self.cache = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


def test_splitmix64_known_answer():
    state = 0
    for expected in SPLITMIX_FROM_ZERO:
        state, word = _splitmix64_next(state)
        assert word == expected


def test_splitmix64_matches_oracle_for_many_states():
    for seed in [1, 2, 77, 2**31, 2**63 - 1, 2**64 - 1]:
        mine, theirs = seed, seed
        for _ in range(20):
            mine, a = _splitmix64_next(mine)
            theirs, b = oracle_splitmix64(theirs)
            assert a == b
            assert mine == theirs


def test_xoshiro_known_answers():
    gen = Xoshiro256StarStar(0)
    assert [gen.next_u64() for _ in range(4)] == XOSHIRO_FROM_ZERO
    gen = Xoshiro256StarStar(42)
    assert [gen.next_u64() for _ in range(3)] == XOSHIRO_FROM_42


def test_xoshiro_matches_independent_reimplementation():
    for seed in [0, 1, 42, 12345, 2**63, 2**64 - 1]:
        mine = Xoshiro256StarStar(seed)
        ref = OracleXoshiro(seed)
        for _ in range(64):
            assert mine.next_u64() == ref.next_u64()


def test_uniform_is_u64_shifted():
    gen_a = Xoshiro256StarStar(7)
    gen_b = Xoshiro256StarStar(7)
    for _ in range(50):
        u = gen_a.uniform()
        assert u == (gen_b.next_u64() >> 11) * 2.0**-53


def test_uniform_range_and_determinism():
    gen = Xoshiro256StarStar(123)
    draws = [gen.uniform() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    again = [Xoshiro256StarStar(123).uniform() for _ in range(1)]
    assert draws[0] == again[0]
    # crude uniformity sanity, not a statistical test
    assert abs(sum(draws) / len(draws) - 0.5) < 0.05


def test_uniforms_and_normals_shapes():
    gen = Xoshiro256StarStar(5)
    u = gen.uniforms((3, 4))
    assert u.shape == (3, 4)
    n = gen.normals((7,))
    assert n.shape == (7,)
    assert np.all(np.isfinite(u))
    assert np.all(np.isfinite(n))


def test_normals_moments():
    draws = Xoshiro256StarStar(3).normals((4000,))
    assert abs(float(np.mean(draws))) < 0.08
    assert abs(float(np.std(draws)) - 1.0) < 0.08


def test_normal_cache_consistency():
    # one scalar at a time must walk the same sequence as a bulk draw
    bulk = Xoshiro256StarStar(9).normals((6,))
    gen = Xoshiro256StarStar(9)
    singles = np.array([gen.normal() for _ in range(6)])
    assert np.array_equal(bulk, singles)


def test_derive_seed_frozen_values():
    assert derive_seed(0) == 8493733112532773764
    assert derive_seed(0, "a") == 140742745180244919
    assert derive_seed(42, "power-iteration", 8) == 5171626837493599149


def test_derive_seed_distinguishes_parts():
    seen = {
        derive_seed(1),
        derive_seed(2),
        derive_seed(1, "x"),
        derive_seed(1, "y"),
        derive_seed(1, "x", 0),
        derive_seed(1, "x", 1),
        derive_seed(1, 0, "x"),
    }
    assert len(seen) == 7


def test_derive_seed_range():
    for root in range(20):
        s = derive_seed(root, "anything", root * 3)
        assert 0 <= s < 2**64


def test_all_zero_state_guard():
    # a seed whose four splitmix words were all zero would stall xoshiro;
    # the constructor must leave a usable state for every seed
    for seed in range(0, 200):
        gen = Xoshiro256StarStar(seed)
        first = [gen.next_u64() for _ in range(4)]
        assert any(first)


def test_normal_finite_everywhere():
    gen = Xoshiro256StarStar(31)
    for _ in range(10_000):
        value = gen.normal()
        assert math.isfinite(value)


def test_bulk_draws_fill_c_order_like_scalar_draws():
    for shape in [(2, 3), (5,), ()]:
        gen, again = Xoshiro256StarStar(11), Xoshiro256StarStar(11)
        n, u = gen.normals(shape), gen.uniforms(shape)
        size = int(np.prod(shape))
        assert n.shape == u.shape == shape
        assert np.array_equal(n.reshape(-1), [again.normal() for _ in range(size)])
        assert np.array_equal(u.reshape(-1), [again.uniform() for _ in range(size)])


def test_bulk_draws_refuse_a_huge_shape_before_drawing():
    gen = Xoshiro256StarStar(4)
    for draw in (gen.normals, gen.uniforms):
        with pytest.raises(ValueError):
            draw((10**400, 2))
    assert gen.next_u64() == Xoshiro256StarStar(4).next_u64()
