"""Counter-based deterministic randomness.

All seeded suites draw through this module rather than numpy's Generator
machinery: the draws are pure functions of (seed, counter), so reports and
frozen regression baselines stay byte-identical across platforms, numpy
versions, and worker counts.  The mixer is the splitmix64 finalizer.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# distinct odd multipliers for the two lattice coordinates of a pair draw
_COORD1 = 0xA24BAED4963EE407
_COORD2 = 0x9FB21C651E98DF25


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # the uint64 wraparound is the mixer; numpy warns of it on scalars only
    with np.errstate(over="ignore"):
        z = (z + np.uint64(_GOLDEN))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def pair_uniform(key: int, i, j) -> np.ndarray:
    """Uniform [0, 1) values attached to lattice coordinates (i, j).

    Order-free: the value at (i, j) depends only on (key, i, j), never on how
    many draws happened before, which is what makes chunked parallel
    evaluation reproducible.  Accepts scalars or broadcastable arrays.
    """
    zi = np.asarray(i, dtype=np.uint64) * np.uint64(_COORD1)
    zj = np.asarray(j, dtype=np.uint64) * np.uint64(_COORD2)
    z = _mix64_array(np.uint64(key & _MASK) ^ zi ^ zj)
    return z.astype(np.float64) / float(1 << 64)


class DetRand:
    """Sequential deterministic draw stream.

    Not a statistical-quality RNG; it only needs to be stable and reasonably
    equidistributed for parameter sampling.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._key = mix64(mix64(seed) ^ mix64(stream ^ _GOLDEN))
        self._ctr = 0

    def next_u64(self) -> int:
        self._ctr += 1
        return mix64((self._key + self._ctr * _GOLDEN) & _MASK)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * (self.next_u64() / float(1 << 64))

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive (modulo bias is irrelevant
        at these range sizes)."""
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.integer(0, len(seq) - 1)]

    def complex_in_disc(self) -> complex:
        # area-uniform in the closed unit disc
        r = math.sqrt(self.uniform())
        return r * cmath.exp(2j * math.pi * self.uniform())

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])
