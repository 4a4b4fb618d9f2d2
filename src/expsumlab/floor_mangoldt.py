"""The floor-ratio Mangoldt sum S(x) = sum_{n <= x} Lambda([x/n]).

Counting n with [x/n] = d gives S(x) = sum_d Lambda(d)([x/d] - [x/(d+1)]),
so S(x) = C x + fluctuation, where C = sum_d Lambda(d)/(d(d+1)) and the
fluctuation is built from sawtooth sums sum Lambda(d) psi(x/(d+delta)) at
the two shifts delta = 0, 1.  This module provides the direct and blocked
evaluators, the constant with a certified tail bound, the windowed sawtooth
sums, and a log-log slope fit of the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import arith_core
from .arith_core import (
    CHUNK_SIZE,
    chunked_tree_sum,
    mangoldt_many,
    mangoldt_point,
    psi_frac_many,
    segment_sieve,
    segment_support,
)
from .errors import CapacityError, DegenerateFitError, check_phase, check_window, require_integer

DIRECT_LIMIT = 10 ** 7
BLOCKED_LIMIT = 10 ** 12
# n <= isqrt(x) // BLOCKED_SPLIT get Lambda([x/n]) pointwise; the larger n up
# to isqrt(x) sieve one window of about BLOCKED_SPLIT * sqrt(x) integers
BLOCKED_SPLIT = 32
WINDOW_LIMIT = 10 ** 9
# integers sieved at once by _sieved_sum and s_lambda_direct: 16 of
# chunked_tree_sum's chunks, so a piece's partial in _sieved_sum is a whole
# subtree of its segment's chunk tree
_PIECE = 16 * CHUNK_SIZE
DEFAULT_BEST_T = 10 ** 8


def _check_x(x) -> int:
    return require_integer("x", x, 1)


def _sieved_sum(lo: int, hi: int, term, workers: int = 1) -> float:
    """sum_{lo < d <= hi} term(Lambda(d), d) in a fixed order.

    The range is cut into segments of DEFAULT_SEGMENT_CAPACITY integers,
    each summed over CHUNK_SIZE-entry chunks by one fan-in-2 tree, and the
    segment partials are combined with math.fsum.  A segment is sieved and
    summed in pieces of _PIECE integers: an outer chunked_tree_sum over the
    pieces combines the piece partials, each the chunked_tree_sum of its
    piece's chunks.  A piece is an aligned group of 16 chunks, and the level
    tree of the whole segment is the tree of these group trees, so the split
    keeps every bit.

    A piece holds only the support of Lambda (segment_support), and each
    chunk calls term on its slice of it, with d as float64 (exact below
    2^53), scattered into a zeroed chunk-length array that is summed as
    the dense terms would be.  term must be elementwise and zero where
    Lambda is zero; a dense term could be -0.0 there, and a nonzero term
    absorbs a signed zero exactly, so a chunk partial can differ only in
    the sign of a zero sum, which the segment's math.fsum drops."""
    capacity = arith_core.DEFAULT_SEGMENT_CAPACITY
    parts = []
    for seg_lo in range(lo, hi, capacity):
        def piece(a, b):
            offsets, lam = segment_support(seg_lo + a, seg_lo + b)
            cuts = np.searchsorted(offsets, range(0, b - a + CHUNK_SIZE, CHUNK_SIZE)).tolist()

            def chunk(i, j):
                k0, k1 = cuts[i // CHUNK_SIZE], cuts[i // CHUNK_SIZE + 1]
                off = offsets[k0:k1]
                d = (off + (seg_lo + a + 1)).astype(np.float64)
                terms = np.zeros(j - i)
                terms[off - i] = term(lam[k0:k1], d)
                return terms.sum()

            return chunked_tree_sum(b - a, chunk, workers=workers)

        parts.append(float(chunked_tree_sum(min(hi, seg_lo + capacity) - seg_lo, piece, _PIECE)))
    return math.fsum(parts)


def s_lambda_direct(x: int, workers: int = 1) -> float:
    """Literal sum of Lambda([x/n]) over n <= x, each chunk of n sieving
    only the quotients it reads.

    A chunk (lo, hi] of chunked_tree_sum reads Lambda on [x // hi,
    x // (lo + 1)].  Every chunk but the first has n > CHUNK_SIZE, so its
    quotients lie in [1, x // (CHUNK_SIZE + 1)], one short range sieved once
    and shared.  The first chunk's quotients reach x: _first_chunk sieves
    each quotient that lies more than CHUNK_SIZE above the next one as a
    single integer, and below the last of these pieces of at most _PIECE
    integers, each topped by a quotient: 833,345 integers at x = 10^7.
    segment_sieve's values do not depend on the segment bounds, so each
    chunk sums the values of a full sieve, in order."""
    x = _check_x(x)
    if x > DIRECT_LIMIT:
        raise CapacityError(
            f"x = {x} exceeds the direct budget {DIRECT_LIMIT}; "
            "use s_lambda_blocked"
        )
    low = segment_sieve(0, x // (CHUNK_SIZE + 1)) if x > CHUNK_SIZE else None

    def chunk(lo, hi):
        if lo == 0:
            return _first_chunk(x, hi).sum()
        return _direct_terms(low, 0, x, lo + 1, hi).sum()

    return float(chunked_tree_sum(x, chunk, CHUNK_SIZE, workers))


def _first_chunk(x: int, n_e: int) -> np.ndarray:
    """Lambda([x/n]) for n = 1 .. n_e, in one array.

    One walk fills it from n = 1 up, so from the top quotient down.  Each
    step starts at q = x // n, the largest quotient not yet filled, sieves
    one segment (a, q] and fills the terms of the n <= n_e with
    x // (q+1) < n <= x // (a+1).  A quotient more than CHUNK_SIZE above
    the next one, x // (n+1), stands alone and is sieved by itself,
    a = q - 1; these are the smallest n, up to about sqrt(x / CHUNK_SIZE).
    Otherwise the segment is a piece of at most _PIECE integers,
    a = max(x // n_e - 1, q - _PIECE).  The next step starts at the largest
    quotient not above a, so a stretch that no n reads is never sieved."""
    out = np.empty(n_e)
    q_e = x // n_e
    n = 1
    while n <= n_e:
        q = x // n
        a = q - 1 if q - x // (n + 1) > CHUNK_SIZE else max(q_e - 1, q - _PIECE)
        n_hi = min(x // (a + 1), n_e)
        out[n - 1:n_hi] = _direct_terms(segment_sieve(a, q), a, x, n, n_hi)
        n = n_hi + 1
    return out


def _direct_terms(lam: np.ndarray, off: int, x: int, n_s: int, n_e: int) -> np.ndarray:
    """lam[x // n - off - 1] for n = n_s .. n_e, element for element: lam
    holds Lambda(off + 1), Lambda(off + 2), ... and covers every x // n.

    Where the chunk has fewer distinct quotients than entries (n above about
    sqrt(x)), each quotient q from x // n_s down to x // n_e is gathered
    once and repeated over its run of n, those with x // (q+1) < n <= x // q,
    clipped to the chunk.  A q strictly between the ends has its whole run
    inside the chunk, x // q - x // (q+1) >= 0 entries, so no count is
    negative, and a q that no n takes repeats 0 times."""
    q_s, q_e = x // n_s, x // n_e
    if q_s - q_e >= n_e - n_s:
        return lam[x // np.arange(n_s, n_e + 1, dtype=np.int64) - (off + 1)]
    qs = np.arange(q_s, q_e - 1, -1, dtype=np.int64)
    counts = np.minimum(x // qs, n_e) - np.maximum(x // (qs + 1) + 1, n_s) + 1
    return np.repeat(lam[qs - (off + 1)], counts)


def blocked_block_count(x: int) -> int:
    """Number of distinct values of [x/n] over n <= x: the isqrt(x) values
    taken at n <= isqrt(x) (all distinct) plus the values d <= x/(isqrt(x)+1)
    that s_lambda_blocked weights by multiplicity."""
    x = _check_x(x)
    n0 = math.isqrt(x)
    return n0 + x // (n0 + 1)


def s_lambda_blocked(x: int, workers: int = 1) -> float:
    """S(x) through the O(sqrt x) distinct values of [x/n], in three ranges.

    Pointwise: for n <= n1 = isqrt(x) // BLOCKED_SPLIT the values [x/n] are
    sparse and Lambda comes from mangoldt_point.  Window-sieved: for
    n1 < n <= isqrt(x) the values fill a window of about
    BLOCKED_SPLIT * sqrt(x) integers, and mangoldt_many sieves the part of
    it that each CHUNK_SIZE-wide n chunk reads; each value is bitwise the
    pointwise one.  A chunk's values are built inside the chunk and summed
    by math.fsum, which is exact, so neither the split nor the order
    changes a partial, and only one chunk's values are held at a time.
    Multiplicity-sieved: each
    remaining value d <= x/(isqrt(x)+1) is weighted by
    [x/d] - max([x/(d+1)], isqrt(x)), its count of n > isqrt(x), and summed
    by _sieved_sum like C(T) and the sawtooth windows."""
    x = _check_x(x)
    if x > BLOCKED_LIMIT:
        raise CapacityError(f"x = {x} exceeds the blocked budget {BLOCKED_LIMIT}")
    n0 = math.isqrt(x)
    n1 = n0 // BLOCKED_SPLIT

    def head(lo, hi):  # the exact sum of Lambda([x/n]) over lo < n <= hi
        k = max(lo, min(hi, n1))
        vals = [mangoldt_point(x // n) for n in range(lo + 1, k + 1)]
        if k < hi:
            vals += mangoldt_many(x // np.arange(hi, k, -1, dtype=np.int64)).tolist()
        return math.fsum(vals)

    part1 = float(chunked_tree_sum(n0, head, workers=workers))

    def weighted(lam, d):
        d = d.astype(np.int64)
        return lam * (x // d - np.maximum(x // (d + 1), n0)).astype(np.float64)

    return part1 + _sieved_sum(0, x // (n0 + 1), weighted, workers)


# ---------------------------------------------------------------------------
# the main-term constant


@dataclass(frozen=True)
class MainConstant:
    """Partial sum C(T) = sum_{d<=T} Lambda(d)/(d(d+1)) with a certified
    bound on the omitted tail."""

    T: int
    value: float
    tail_bound: float


def tail_bound(T: int) -> float:
    """Upper bound for sum_{d>T} Lambda(d)/(d(d+1)).

    Each term is at most log(d)/d^2, and log(t)/t^2 decreases for t >= e,
    so for d >= 4 the term is at most the integral of log(t)/t^2 over
    [d-1, d]; summing gives integral_T^infty log(t)/t^2 dt = (log T + 1)/T.
    The finitely many small-d cases T = 2, 3 are covered by direct
    comparison (log 3/12 < 0.147, the integral over [2,3])."""
    if T < 2:
        raise ValueError("T must be >= 2")
    return (math.log(T) + 1.0) / T


def main_constant(T: int, workers: int = 1) -> MainConstant:
    """C(T) by segmented sieve, plus tail_bound(T)."""
    T = require_integer("T", T, 2)
    value = _sieved_sum(1, T, lambda lam, d: lam / (d * (d + 1.0)), workers)
    return MainConstant(T=T, value=value, tail_bound=tail_bound(T))


@lru_cache(maxsize=4)
def best_constant(T: int = DEFAULT_BEST_T) -> MainConstant:
    return main_constant(T)


# ---------------------------------------------------------------------------
# windowed sawtooth sums


def _psi_window_sum(x: float, lo: int, hi: int, delta: float) -> float:
    """sum_{lo < d <= hi} Lambda(d) psi(x/(d+delta)) in fixed segment order.

    Refused by check_phase when the largest quotient is too large."""
    if hi - lo > WINDOW_LIMIT:
        raise CapacityError(f"window length {hi - lo} exceeds {WINDOW_LIMIT}")
    check_phase(x / (lo + 1 + delta), "quotient")
    return _sieved_sum(lo, hi, lambda lam, d: lam * psi_frac_many(x / (d + delta)))


def frak_s(x: float, D: int, delta: float = 0.0) -> float:
    """sum_{D < d <= 2D} Lambda(d) psi(x/(d+delta))."""
    check_window(x, delta)
    D = require_integer("D", D, 1)
    return _psi_window_sum(x, D, 2 * D, delta)


def r_delta(x: float, E: float, delta: float = 0.0) -> float:
    """sum_{E < d <= x/E} Lambda(d) psi(x/(d+delta)); 0 when the window is
    empty (E >= sqrt(x))."""
    check_window(x, delta)
    if not math.isfinite(E) or E < 1:
        raise ValueError(f"E must be a finite number >= 1, got {E!r}")
    lo = int(math.floor(E))
    hi = int(math.floor(x / E))
    if hi <= lo:
        return 0.0
    return _psi_window_sum(x, lo, hi, delta)


# ---------------------------------------------------------------------------
# error curve and slope fit


@dataclass(frozen=True)
class ErrorCurve:
    """S(x) and E(x) = S(x) - C x on a grid, with the constant's tail bound
    propagated into a per-point uncertainty band tail_bound * x."""

    xs: tuple
    s_values: np.ndarray
    e_values: np.ndarray
    band: np.ndarray
    constant: MainConstant


def geometric_grid(lo: int = 10 ** 4, hi: int = 10 ** 9, points: int = 12):
    """Rounded geometric grid, deduplicated, endpoints included."""
    if points < 2 or lo < 1 or hi <= lo:
        raise ValueError("need points >= 2 and 1 <= lo < hi")
    ratio = (hi / lo) ** (1.0 / (points - 1))
    xs = sorted({int(round(lo * ratio ** i)) for i in range(points)})
    return tuple(xs)


def error_curve(grid, constant: MainConstant | None = None) -> ErrorCurve:
    if constant is None:
        constant = best_constant()
    xs = tuple(_check_x(x) for x in grid)
    s_vals = np.array([s_lambda_blocked(x) for x in xs])
    e_vals = s_vals - constant.value * np.array(xs, dtype=np.float64)
    band = constant.tail_bound * np.array(xs, dtype=np.float64)
    return ErrorCurve(xs=xs, s_values=s_vals, e_values=e_vals, band=band,
                      constant=constant)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    slope_stderr: float
    used: int
    excluded: int


def fit_error_slope(curve: ErrorCurve, floor: float = 1.0) -> SlopeFit:
    """Least-squares slope of log|E| against log x.

    Points where |E| does not exceed both the uncertainty band and the
    floor are excluded: their logarithm reflects cancellation noise or the
    constant's truncation, not the growth rate."""
    lx, ly = [], []
    for x, e, b in zip(curve.xs, curve.e_values, curve.band):
        a = abs(float(e))
        if a > max(floor, float(b)):
            lx.append(math.log(x))
            ly.append(math.log(a))
    if len(lx) < 3:
        raise DegenerateFitError(
            f"only {len(lx)} usable points after exclusion, need 3"
        )
    lx_arr = np.array(lx)
    ly_arr = np.array(ly)
    mx = lx_arr.mean()
    my = ly_arr.mean()
    sxx = float(np.sum((lx_arr - mx) ** 2))
    if sxx == 0.0:
        raise DegenerateFitError("all usable points share one x value")
    slope = float(np.sum((lx_arr - mx) * (ly_arr - my)) / sxx)
    intercept = my - slope * mx
    resid = ly_arr - (intercept + slope * lx_arr)
    dof = max(1, len(lx) - 2)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return SlopeFit(slope=slope, slope_stderr=stderr,
                    used=len(lx), excluded=len(curve.xs) - len(lx))
