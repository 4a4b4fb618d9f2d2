"""Arithmetic substrate shared by every evaluator.

Provides a prime sieve, a Moebius sieve and one segmented Mangoldt sieve
(Lambda on [1, limit] is the segment (0, limit]), all marking composites
with one blocked loop over the odd integers, whose multiples of 3, 5, 7, 11
and 13 come stamped from a wheel pattern; Mangoldt values at sorted
integers, pointwise prime-power detection good to 2^64, the centered
fractional part, and a deterministic chunked summation scheme whose result
is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import CapacityError

DEFAULT_SEGMENT_CAPACITY = 1 << 24
# entries per chunk of chunked_tree_sum, and the block of every evaluator
# that builds its summands chunk by chunk
CHUNK_SIZE = 1 << 16
# entries of a prime mask marked at once: 1 MB of flags stays in cache
_MASK_BLOCK = 1 << 20
# the wheel primes: their multiples are stamped into each mask block from
# one period of odd-integer flags, _WHEEL[j] for 2j + 1 (period 3*5*7*11*13)
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = math.prod(_WHEEL_PRIMES)

# Deterministic Miller-Rabin witness sets.  Each tuple is a proven-complete
# witness set below the stated limit; the last covers all of 2^64.
_MR_SMALL = (2, 3, 5, 7)                                   # n < 3_215_031_751
_MR_MID = (2, 3, 5, 7, 11, 13, 17)                         # n < 341_550_071_728_321
_MR_FULL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)    # n < 3.3e24 > 2^64

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


# ---------------------------------------------------------------------------
# deterministic summation


def tree_reduce(parts):
    """Fixed fan-in-2 reduction: pairs combined in index order, level by
    level.  The tree shape depends only on len(parts)."""
    parts = list(parts)
    if not parts:
        return 0.0
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            nxt.append(parts[i] + parts[i + 1])
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def chunk_partials(n: int, chunk_fn, chunk_size: int = CHUNK_SIZE, workers: int = 1) -> list:
    """chunk_fn(lo, hi) over the fixed chunking of range(n) into chunks of
    chunk_size, in chunk order.  Each partial is computed independently,
    on worker threads when workers > 1; workers only change who computes a
    chunk, never its bounds or its place in the list."""
    chunks = [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]
    if workers <= 1 or len(chunks) <= 1:
        return [chunk_fn(lo, hi) for lo, hi in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda c: chunk_fn(*c), chunks))


def chunked_tree_sum(n: int, chunk_fn, chunk_size: int = CHUNK_SIZE, workers: int = 1):
    """Sum chunk_fn(lo, hi) over the fixed chunking of range(n): the
    chunk_partials combined by tree_reduce in chunk order, so the result is
    bit-identical for worker counts 1, 2, 8, ... with a fixed chunk size.
    """
    return tree_reduce(chunk_partials(n, chunk_fn, chunk_size, workers))


# ---------------------------------------------------------------------------
# fractional parts


def psi_frac_many(t) -> np.ndarray:
    """Centered sawtooth {t} - 1/2 at every entry of t."""
    t = np.asarray(t, dtype=np.float64)
    out = np.floor(t, out=np.empty(t.shape))  # the one temporary
    np.subtract(t, out, out=out)
    out -= 0.5
    return out


# ---------------------------------------------------------------------------
# sieves


def sieve_primes(limit: int) -> np.ndarray:
    """Boolean prime indicator on [0, limit]."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    flags = np.zeros(limit + 1, dtype=bool)
    if limit >= 2:
        flags[2] = True
        flags[3::2] = _prime_mask(3, limit, np.flatnonzero(sieve_primes(math.isqrt(limit))))
    return flags


def sieve_mobius(limit: int) -> np.ndarray:
    """Moebius function on [0, limit] (index 0 set to 0)."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    for p in np.flatnonzero(sieve_primes(limit)):
        p = int(p)
        mu[p::p] *= -1
        mu[p * p:: p * p] = 0
    return mu


def sieve_mangoldt(limit: int) -> np.ndarray:
    """Lambda(1), ..., Lambda(limit): the segment (0, limit]."""
    return segment_sieve(0, limit)


def _wheel_period() -> np.ndarray:
    flags = np.ones(_WHEEL_PERIOD, dtype=bool)
    for q in _WHEEL_PRIMES:
        flags[q // 2:: q] = False  # 2j + 1 = q, 3q, 5q, ...
    return flags


_WHEEL = _wheel_period()


def _fill_wheel(block: np.ndarray, phase: int) -> None:
    """block[k] = _WHEEL[(phase + k) % _WHEEL_PERIOD]: a slice of the period
    when the block fits inside it, else one rotated period doubled in place."""
    n = len(block)
    if phase + n <= _WHEEL_PERIOD:
        block[:] = _WHEEL[phase:phase + n]
        return
    head = _WHEEL_PERIOD - phase
    block[:head] = _WHEEL[phase:]
    done = min(n, _WHEEL_PERIOD)
    block[head:done] = _WHEEL[:done - head]
    while done < n:
        step = min(done, n - done)
        block[done:done + step] = block[:step]
        done += step


def _prime_mask(start: int, hi: int, base) -> np.ndarray:
    """Flags of the odd integers of [start, hi], start >= 1: entry i stands
    for o0 + 2i, o0 = start | 1.  Cleared at every odd multiple of a base
    prime p from p*p on, and at every multiple of a wheel prime other than
    itself: the one loop that marks composites.  base must hold the primes
    up to isqrt(hi), so a set entry other than 1 is prime.

    The mask is marked in blocks of _MASK_BLOCK entries, which stay in cache
    while every base prime strides over them.  Each block starts as the
    wheel pattern, and the wheel primes in range are set again, whether or
    not they are in base.  That clears no more than the base primes would:
    a wheel multiple q*k < q*q has a prime factor r <= k with r*r <= hi,
    and r clears it."""
    o0 = start | 1
    flags = np.empty(max(0, (hi - o0) // 2 + 1), dtype=bool)
    base = [p for p in np.asarray(base).tolist() if p > _WHEEL_PRIMES[-1]]
    for b0 in range(0, len(flags), _MASK_BLOCK):
        block = flags[b0:b0 + _MASK_BLOCK]
        lo = o0 + 2 * b0
        top = lo + 2 * (len(block) - 1)
        _fill_wheel(block, lo // 2 % _WHEEL_PERIOD)
        for p in base:
            if p * p > top:
                break
            # the first odd multiple k*p >= lo: k = ceil(lo / p), made odd
            first = max(p * p, ((lo + p - 1) // p | 1) * p)
            if first <= top:
                block[(first - lo) // 2:: p] = False
    for q in _WHEEL_PRIMES:
        if o0 <= q <= hi:
            flags[(q - o0) // 2] = True
    return flags


def _prime_powers(base, lo: int, hi: int, log):
    """(p^k, log(p)) for the proper powers p^k, k >= 2, of the base primes
    that fall in (lo, hi]; _prime_mask flags none of them.  log(p) is taken
    only for a prime with such a power."""
    for p in base:
        pk = p * p
        while pk <= lo:
            pk *= p
        if pk <= hi:
            lp = log(p)
            while pk <= hi:
                yield pk, lp
                pk *= p


def segment_sieve(lo: int, hi: int) -> np.ndarray:
    """Mangoldt values on the half-open block (lo, hi] of at most
    DEFAULT_SEGMENT_CAPACITY integers, as a float64 array whose entry i is
    Lambda(lo + 1 + i).  Needs base primes up to sqrt(hi) only."""
    if lo < 0 or hi <= lo:
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    n = hi - lo
    if n > DEFAULT_SEGMENT_CAPACITY:
        raise CapacityError(
            f"segment length {n} exceeds segment capacity {DEFAULT_SEGMENT_CAPACITY}"
        )
    start = lo + 1
    o0 = start | 1
    base = np.flatnonzero(sieve_primes(math.isqrt(hi)))
    mask = _prime_mask(start, hi, base)
    if o0 == 1:
        mask[0] = False  # 1 is left set, but is no prime
    offsets = 2 * np.flatnonzero(mask) + (o0 - start)  # of the odd primes
    del mask  # free the mask before the values are filled
    values = np.zeros(n)
    if len(offsets):
        logs = offsets + float(start)  # the primes, exact below 2^53
        values[offsets] = np.log(logs, out=logs)
    if start <= 2 <= hi:
        values[2 - start] = np.log(2.0)
    for pk, lp in _prime_powers(base.tolist(), lo, hi, lambda p: np.log(float(p))):
        values[pk - start] = lp
    return values


def mangoldt_many(vals) -> np.ndarray:
    """Mangoldt values at sorted distinct positive integers, each bitwise
    equal to mangoldt_point at that integer.

    The values are covered by segments of at most DEFAULT_SEGMENT_CAPACITY
    integers, each starting at the first value not yet covered, and each
    segment is sieved with the prime mask of segment_sieve.  A value
    left unmarked is prime and carries math.log(v), not np.log, which
    differs from it in the last bit on about one integer in 20000 (numpy
    2.4, x86-64); a proper prime power p^k carries math.log(p).  Base primes run to the square
    root of the largest value, so this suits dense windows, such as the
    top values of [x/n]."""
    given = np.asarray(vals)
    out = np.zeros(len(given))
    if len(given) == 0:
        return out
    # a fraction, NaN or out-of-range value casts to an integer that differs
    # from it, or fails to cast, and is refused
    try:
        with np.errstate(invalid="ignore"):
            vals = given.astype(np.int64, copy=False)
    except OverflowError:
        raise ValueError("need sorted distinct positive integers below 2^63") from None
    if np.any(vals != given) or vals[0] < 1 or np.any(np.diff(vals) <= 0):
        raise ValueError("need sorted distinct positive integers")
    capacity = DEFAULT_SEGMENT_CAPACITY
    top = int(vals[-1])
    root = math.isqrt(top)
    if root > capacity:
        raise CapacityError(
            f"base-prime range {root} exceeds segment capacity {capacity}"
        )
    base = np.flatnonzero(sieve_primes(root))
    i = int(np.searchsorted(vals, 2))
    while i < len(vals):
        start = int(vals[i])
        j = int(np.searchsorted(vals, start + capacity))
        seg = vals[i:j]
        mask = _prime_mask(start, int(seg[-1]), base)
        prime = (seg & 1).astype(bool)
        if len(mask):  # an even value reads the entry of the odd integer
            # below it (an even start the last entry), and its parity drops it
            prime &= mask[(seg - (start | 1)) >> 1]
        if start == 2:
            prime[0] = True
        out[i:j][prime] = [math.log(v) for v in seg[prime].tolist()]
        i = j
    pairs = list(_prime_powers(base.tolist(), 0, top, math.log))
    if pairs:
        powers, logs = (np.asarray(c) for c in zip(*pairs))
        idx = np.minimum(np.searchsorted(vals, powers), len(vals) - 1)
        hit = vals[idx] == powers
        out[idx[hit]] = logs[hit]
    return out


# ---------------------------------------------------------------------------
# pointwise arithmetic


def integer_kth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n, by binary search on exact integers."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    hi = 1 << ((n.bit_length() + k - 1) // k)
    lo = hi >> 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid through 2^64."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 3_215_031_751:
        bases = _MR_SMALL
    elif n < 341_550_071_728_321:
        bases = _MR_MID
    else:
        bases = _MR_FULL
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mangoldt_point(d: int) -> float:
    """Mangoldt value at a single integer, without a sieve.

    Fast path: if d has a prime factor below 64 it is a prime power iff that
    factor exhausts it.  Otherwise every prime factor is >= 64, so d = p^k
    forces k <= bit_length/6 and the remaining perfect-power scan is short.
    """
    d = operator.index(d)
    if d < 2:
        return 0.0
    for p in _TRIAL_PRIMES:
        if p * p > d:
            return math.log(d)      # no factor below sqrt(d): d is prime
        if d % p == 0:
            q = d
            while q % p == 0:
                q //= p
            return math.log(p) if q == 1 else 0.0
    kmax = d.bit_length() // 6      # factors >= 64 = 2^6
    for k in range(2, kmax + 1):
        r = integer_kth_root(d, k)
        if r ** k == d and is_prime(r):
            return math.log(r)
    return math.log(d) if is_prime(d) else 0.0
