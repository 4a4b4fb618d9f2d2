import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expsumlab import arith_core
from expsumlab.arith_core import (
    chunked_tree_sum,
    integer_kth_root,
    is_prime,
    mangoldt_many,
    mangoldt_point,
    psi_frac_many,
    segment_sieve,
    sieve_mangoldt,
    sieve_mobius,
    sieve_primes,
)
from expsumlab.errors import CapacityError
from expsumlab.seeding import DetRand


def _naive_mangoldt(limit):
    """Independent oracle: trial factorization, no sieve shared with the
    implementation."""
    vals = [0.0] * (limit + 1)
    for n in range(2, limit + 1):
        m, p = n, None
        for q in range(2, math.isqrt(n) + 1):
            if m % q == 0:
                p = q
                while m % q == 0:
                    m //= q
                break
        if p is None:
            vals[n] = math.log(n)
        elif m == 1:
            vals[n] = math.log(p)
    return vals


def _psi_chebyshev_oracle(x):
    """Chebyshev psi(x) from a plain bytearray prime sieve: each prime p
    contributes floor(log x/log p) copies of log p."""
    flags = bytearray([1]) * (x + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    total = 0.0
    lx = math.log(x)
    for p in range(2, x + 1):
        if flags[p]:
            total += math.floor(lx / math.log(p) + 1e-9) * math.log(p)
    return total


def test_sieve_matches_naive():
    table = sieve_mangoldt(2000)
    oracle = _naive_mangoldt(2000)
    for d in range(1, 2001):
        assert abs(table[d - 1] - oracle[d]) <= 1e-12, d


def test_chebyshev_psi_million():
    total = math.fsum(sieve_mangoldt(10 ** 6))
    oracle = _psi_chebyshev_oracle(10 ** 6)
    assert abs(total - oracle) <= 1e-9 * oracle


def test_segment_matches_full_slice():
    full = sieve_mangoldt(10 ** 5)
    seg = segment_sieve(5 * 10 ** 4, 6 * 10 ** 4)
    want = full[5 * 10 ** 4: 6 * 10 ** 4]
    assert seg.tobytes() == want.tobytes()


def _trial_division_primes(limit):
    return [n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
            for n in range(limit + 1)]


@pytest.mark.parametrize("block", [None, 7])
def test_sieve_primes_against_trial_division(monkeypatch, block):
    # every limit up to 400, and limits next to prime squares, where the
    # base primes of the recursive sieve gain or lose a member
    if block is not None:
        monkeypatch.setattr(arith_core, "_MASK_BLOCK", block)
    squares = [p * p + k for p in (2, 3, 5, 7, 11, 31, 97, 101, 211)
               for k in (-1, 0, 1)]
    oracle = _trial_division_primes(max(squares))
    for limit in [*range(401), *squares]:
        flags = sieve_primes(limit)
        assert flags.dtype == bool
        assert flags.tolist() == oracle[:limit + 1], limit
    with pytest.raises(ValueError):
        sieve_primes(-1)


def test_segment_high_window_vs_point():
    lo = 10 ** 9
    seg = segment_sieve(lo, lo + 10 ** 4)
    rng = DetRand(3)
    for _ in range(100):
        d = rng.integer(lo + 1, lo + 10 ** 4)
        assert abs(seg[d - lo - 1] - mangoldt_point(d)) <= 1e-12 * (1 + seg[d - lo - 1])
    # and every nonzero entry is a prime power by the point evaluator
    hits = np.flatnonzero(seg)[:50]
    for i in hits:
        assert mangoldt_point(lo + 1 + int(i)) > 0


def test_segment_mask_blocks_keep_bits(monkeypatch):
    # mask blocks far smaller than the table cross every block boundary
    want = [segment_sieve(lo, hi) for lo, hi in ((1, 5000), (997, 3000))]
    monkeypatch.setattr(arith_core, "_MASK_BLOCK", 37)
    got = [segment_sieve(lo, hi) for lo, hi in ((1, 5000), (997, 3000))]
    for w, g in zip(want, got):
        assert w.tobytes() == g.tobytes()


# The full-range forms below are the marking of every integer (even ones and
# every base prime strided separately) that the odd-only wheel mask replaced;
# each table and flag array must keep its bytes.


def _full_prime_mask(start, hi, base):
    flags = np.ones(hi - start + 1, dtype=bool)
    for p in (int(p) for p in base):
        if p * p > hi:
            break
        first = max(p * p, ((start + p - 1) // p) * p)
        flags[first - start:: p] = False
    return flags


def _full_sieve_primes(limit):
    flags = np.zeros(limit + 1, dtype=bool)
    if limit >= 2:
        flags[2:] = _full_prime_mask(2, limit, np.flatnonzero(sieve_primes(math.isqrt(limit))))
    return flags


def _full_segment_sieve(lo, hi):
    start = lo + 1
    values = np.zeros(hi - lo)
    base = np.flatnonzero(sieve_primes(math.isqrt(hi)))
    prime_idx = np.flatnonzero(_full_prime_mask(start, hi, base))
    if start == 1:
        prime_idx = prime_idx[1:]
    if len(prime_idx):
        values[prime_idx] = np.log(prime_idx + float(start))
    for p in base.tolist():
        pk = p * p
        while pk <= hi:
            if pk > lo:
                values[pk - start] = np.log(float(p))
            pk *= p
    return values


# every range with hi < 169 = 13^2, where a wheel prime is set again without
# being a base prime, and ranges around the 15015-entry wheel period
_SMALL_RANGES = [(lo, hi) for lo in range(0, 40) for hi in range(lo + 1, 169)]
_PERIOD_RANGES = [(lo, lo + w) for lo in (15014, 15015, 30029)
                  for w in (1, 2, 3, 40, 15015, 15016, 30031, 70000)]


@pytest.mark.parametrize("block", [None, 5, 37])
def test_odd_wheel_mask_keeps_bytes(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(arith_core, "_MASK_BLOCK", block)
    ranges = _PERIOD_RANGES + (_SMALL_RANGES if block is None else _SMALL_RANGES[::11])
    for lo, hi in ranges:
        got = segment_sieve(lo, hi)
        assert got.tobytes() == _full_segment_sieve(lo, hi).tobytes(), (lo, hi)
    limits = range(3000) if block is None else (*range(0, 200, 7), 15014, 15015, 30029, 30031)
    for limit in limits:
        assert sieve_primes(limit).tobytes() == _full_sieve_primes(limit).tobytes(), limit


def test_mangoldt_many_even_starts():
    # segments that start at 2 or at another even value, where no odd
    # entry lies below the first value
    for vals in ([2], [4], [2, 3], [2, 4], [4, 5, 9], [6, 8, 10, 12, 25], [2, 15015, 30030]):
        assert _hexes(mangoldt_many(vals)) == _hexes(mangoldt_point(v) for v in vals), vals


# primes whose np.log differs from math.log in the last bit with numpy 2.4
# on x86-64; another build may round them alike, and the checks still hold
_NP_LOG_ULP_PRIMES = (285343, 287549, 351497, 504631, 664679)
# 1, small and large primes, prime squares and higher prime powers
_ANCHORS = (1, 2, 3, 4, 8, 9, 25, 27, 49, 121, 243, 1024, 3 ** 10, 97 ** 2,
            101 ** 3, 65537, 2 ** 31 - 1, 10 ** 9 + 7, 99991 ** 2,
            *_NP_LOG_ULP_PRIMES)


def _hexes(values):
    return [float(v).hex() for v in values]


@given(center=st.sampled_from(_ANCHORS), offset=st.integers(-300, 300),
       width=st.integers(1, 1500), anchors=st.sets(st.sampled_from(_ANCHORS)))
@settings(max_examples=60, deadline=None)
def test_mangoldt_many_bitwise_point(center, offset, width, anchors):
    lo = max(1, center + offset)
    vals = sorted(set(range(lo, lo + width)) | anchors)
    assert _hexes(mangoldt_many(vals)) == _hexes(mangoldt_point(v) for v in vals)


@pytest.mark.parametrize("cap", [7, 64])
def test_mangoldt_many_across_segments(monkeypatch, cap):
    # a dense run cut into segments of cap integers, marked in 5-entry
    # blocks, then a sparse tail of one segment per value; the largest
    # value, cap^2, keeps the base primes within the capacity
    top = cap * cap
    vals = list(range(1, top // 2)) + [top - 25, top - 17, top - 4, top]
    want = _hexes(mangoldt_point(v) for v in vals)
    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT_CAPACITY", cap)
    monkeypatch.setattr(arith_core, "_MASK_BLOCK", 5)
    assert _hexes(mangoldt_many(vals)) == want
    with pytest.raises(CapacityError, match="base-prime"):
        mangoldt_many([(cap + 1) ** 2])


def test_mangoldt_many_carries_math_log():
    want = {}
    for p in _NP_LOG_ULP_PRIMES:
        want[p] = want[p * p] = math.log(p)
    vals = sorted(want)
    assert _hexes(mangoldt_many(vals)) == _hexes(want[v] for v in vals)


def test_mangoldt_many_input_checks():
    assert len(mangoldt_many([])) == 0
    for bad in ([3, 2], [2, 2], [0, 5], [2.5, 3.7, 9.9], [2.0, 3.5], [2.0, math.nan],
                [2.0, math.inf], [2.0, 1e30], [2 ** 64 - 1], [5, 2 ** 70]):
        with pytest.raises(ValueError, match="sorted distinct positive"):
            mangoldt_many(bad)
    # a float that holds an integer is that integer
    assert _hexes(mangoldt_many([2.0, 9.0])) == _hexes([math.log(2), math.log(3)])


def test_mangoldt_point_known_values():
    assert mangoldt_point(1) == 0.0
    assert mangoldt_point(2) == pytest.approx(math.log(2), abs=1e-15)
    assert mangoldt_point(9) == pytest.approx(math.log(3), abs=1e-15)
    assert mangoldt_point(1024) == pytest.approx(math.log(2), abs=1e-15)
    assert mangoldt_point(6) == 0.0
    assert mangoldt_point(2 ** 61 - 1) == pytest.approx(61 * math.log(2), rel=1e-9)
    p = 10 ** 9 + 7
    assert mangoldt_point(p) == pytest.approx(math.log(p), rel=1e-12)
    assert mangoldt_point(p * p) == pytest.approx(math.log(p), rel=1e-12)


def test_is_prime_against_trial_division():
    flags = bytearray([1]) * (2 * 10 ** 4)
    flags[0:2] = b"\x00\x00"
    for p in range(2, 142):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    for n in range(2 * 10 ** 4):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_pseudoprime_traps():
    assert not is_prime(561)            # Carmichael
    assert not is_prime(3215031751)     # strong pseudoprime to bases 2,3,5,7
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1)
    assert is_prime(10 ** 18 + 9)


def test_sieve_mobius_small():
    mu = sieve_mobius(30)
    want = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 12: 0, 30: -1}
    for n, v in want.items():
        assert mu[n] == v
    assert sieve_mobius(0).tolist() == [0]
    with pytest.raises(ValueError, match="nonnegative"):
        sieve_mobius(-1)


def test_mangoldt_point_takes_numpy_integers():
    p = 10 ** 12 + 39  # prime, and above the trial-division fast path
    assert mangoldt_point(np.int64(p)) == mangoldt_point(p) == math.log(p)
    assert mangoldt_point(np.int64(9)) == math.log(3)
    with pytest.raises(TypeError):
        mangoldt_point(7.5)


def test_capacity_guard(monkeypatch):
    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT_CAPACITY", 10 ** 5)
    with pytest.raises(CapacityError):
        sieve_mangoldt(10 ** 6)
    with pytest.raises(CapacityError):
        segment_sieve(1, 10 ** 6)
    assert len(sieve_mangoldt(10 ** 5)) == 10 ** 5
    for lo, hi in ((-1, 5), (5, 5)):
        with pytest.raises(ValueError, match="0 <= lo < hi"):
            segment_sieve(lo, hi)


def test_sieves_return_float64_arrays():
    # entry i of segment_sieve(lo, hi) is Lambda(lo + 1 + i), of
    # sieve_mangoldt(n) Lambda(i + 1)
    for lam, lo, hi in ((segment_sieve(100, 300), 100, 300), (segment_sieve(0, 1), 0, 1),
                        (sieve_mangoldt(1000), 0, 1000)):
        assert isinstance(lam, np.ndarray) and lam.dtype == np.float64
        assert lam.shape == (hi - lo,)
        assert lam.tolist() == pytest.approx([mangoldt_point(d) for d in range(lo + 1, hi + 1)],
                                             abs=1e-12)


def _array_sum(values, chunk_size, workers=1):
    return chunked_tree_sum(len(values), lambda lo, hi: values[lo:hi].sum(),
                            chunk_size, workers)


def test_accumulator_worker_invariance():
    rng = DetRand(11)
    values = rng.uniform_array(30011, -1.0, 1.0)
    s1 = _array_sum(values, 512, workers=1)
    s2 = _array_sum(values, 512, workers=2)
    s8 = _array_sum(values, 512, workers=8)
    assert s1 == s2 == s8


def test_accumulator_matches_fsum():
    rng = DetRand(12)
    values = rng.uniform_array(5000, -1.0, 1.0) * 10.0 ** rng.uniform_array(5000, -8, 8)
    exact = math.fsum(values.tolist())
    assert abs(_array_sum(values, 128) - exact) <= 1e-12 * (1 + abs(exact))


def test_map_reduce_complex_chunks():
    def chunk(lo, hi):
        return complex(hi - lo, 2.0 * (hi - lo))

    total = chunked_tree_sum(100, chunk, 7, workers=1)
    assert total == complex(100, 200)
    assert chunked_tree_sum(100, chunk, 7, workers=4) == total
    assert chunked_tree_sum(0, chunk, 7) == 0.0


def test_psi_frac_values():
    xs = np.array([0.25, 0.0, 12.5, -0.25])
    assert psi_frac_many(xs).tolist() == [-0.25, -0.5, 0.0, 0.25]


@given(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
@settings(max_examples=300)
def test_psi_frac_periodic(x):
    # x + 1.0 can round across the jump at integers, so keep clear of them
    assume(abs(x - round(x)) > 1e-6)
    shifted, base = psi_frac_many([x + 1.0, x])
    assert abs(shifted - base) <= 1e-9


@given(st.integers(0, 10 ** 30), st.integers(1, 12))
@settings(max_examples=300)
def test_integer_kth_root(n, k):
    r = integer_kth_root(n, k)
    assert r ** k <= n < (r + 1) ** k


def test_integer_kth_root_exact_powers():
    assert integer_kth_root(1000, 3) == 10
    assert integer_kth_root(999, 3) == 9
    assert integer_kth_root(10 ** 18, 3) == 10 ** 6
