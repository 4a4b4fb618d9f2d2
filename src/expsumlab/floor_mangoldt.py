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

from .arith_core import (
    DEFAULT_SEGMENT_CAPACITY,
    chunked_tree_sum,
    mangoldt_point,
    psi_frac_many,
    segment_sieve,
    sieve_mangoldt,
)
from .errors import CapacityError, DegenerateFitError

DIRECT_LIMIT = 10 ** 7
BLOCKED_LIMIT = 10 ** 12
WINDOW_LIMIT = 10 ** 9
_DIRECT_CHUNK = 1 << 20
DEFAULT_BEST_T = 10 ** 8


def _check_x(x) -> int:
    if x != int(x) or x < 1:
        raise ValueError(f"x must be a positive integer, got {x!r}")
    return int(x)


def s_lambda_direct(x: int, workers: int = 1) -> float:
    """Literal sum of Lambda([x/n]) over n <= x from one full sieve."""
    x = _check_x(x)
    if x > DIRECT_LIMIT:
        raise CapacityError(
            f"x = {x} exceeds the direct budget {DIRECT_LIMIT}; "
            "use s_lambda_blocked"
        )
    lam = np.zeros(x + 1)
    lam[1:] = sieve_mangoldt(x).values

    def chunk(lo, hi):
        vals = lam[x // np.arange(lo + 1, hi + 1, dtype=np.int64)]
        return float(chunked_tree_sum(len(vals), lambda a, b: vals[a:b].sum()))

    return float(chunked_tree_sum(x, chunk, _DIRECT_CHUNK, workers))


def blocked_block_count(x: int) -> int:
    """Distinct work items of the blocked evaluator: sqrt(x) point values
    plus sqrt(x) sieved multiplicity blocks."""
    x = _check_x(x)
    n0 = math.isqrt(x)
    return n0 + x // (n0 + 1)


def s_lambda_blocked(x: int, workers: int = 1) -> float:
    """S(x) through the O(sqrt x) value blocks of [x/n].

    For n <= sqrt(x) the value [x/n] is large and Lambda is evaluated
    pointwise; each remaining value d <= x/(sqrt(x)+1) is taken with
    multiplicity [x/d] - max([x/(d+1)], sqrt(x)), its count of n > sqrt(x)."""
    x = _check_x(x)
    if x > BLOCKED_LIMIT:
        raise CapacityError(f"x = {x} exceeds the blocked budget {BLOCKED_LIMIT}")
    n0 = math.isqrt(x)

    def point_chunk(lo, hi):
        return math.fsum(mangoldt_point(x // n) for n in range(lo + 1, hi + 1))

    part1 = float(chunked_tree_sum(n0, point_chunk, workers=workers))
    cut = x // (n0 + 1)
    if cut == 0:
        return part1
    lam = sieve_mangoldt(cut).values
    d = np.arange(1, cut + 1, dtype=np.int64)
    counts = x // d - np.maximum(x // (d + 1), n0)
    vals = lam * counts.astype(np.float64)
    part2 = float(chunked_tree_sum(cut, lambda a, b: vals[a:b].sum(), workers=workers))
    return part1 + part2


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


def main_constant(T: int, capacity: int | None = None,
                  workers: int = 1) -> MainConstant:
    """C(T) by segmented sieve, plus tail_bound(T)."""
    if T != int(T) or T < 2:
        raise ValueError(f"T must be an integer >= 2, got {T!r}")
    T = int(T)
    capacity = DEFAULT_SEGMENT_CAPACITY if capacity is None else capacity
    parts = []
    lo = 1
    while lo < T:
        hi = min(T, lo + capacity)
        d = np.arange(lo + 1, hi + 1, dtype=np.float64)
        # no name for the table, so only d and vals outlive the iteration
        vals = segment_sieve(lo, hi, capacity).values / (d * (d + 1.0))
        parts.append(float(chunked_tree_sum(hi - lo, lambda a, b: vals[a:b].sum(),
                                            workers=workers)))
        lo = hi
    return MainConstant(T=T, value=math.fsum(parts), tail_bound=tail_bound(T))


@lru_cache(maxsize=4)
def best_constant(T: int = DEFAULT_BEST_T) -> MainConstant:
    return main_constant(T)


# ---------------------------------------------------------------------------
# windowed sawtooth sums


def _psi_window_sum(x: float, lo: int, hi: int, delta: float,
                    capacity: int) -> float:
    """sum_{lo < d <= hi} Lambda(d) psi(x/(d+delta)) in fixed segment order."""
    if hi - lo > WINDOW_LIMIT:
        raise CapacityError(f"window length {hi - lo} exceeds {WINDOW_LIMIT}")
    parts = []
    seg_lo = lo
    while seg_lo < hi:
        seg_hi = min(hi, seg_lo + capacity)
        table = segment_sieve(seg_lo, seg_hi, capacity)
        d = np.arange(seg_lo + 1, seg_hi + 1, dtype=np.float64)
        vals = table.values * psi_frac_many(x / (d + delta))
        parts.append(float(chunked_tree_sum(seg_hi - seg_lo, lambda a, b: vals[a:b].sum())))
        seg_lo = seg_hi
    return math.fsum(parts)


def frak_s(x: float, D: int, delta: float = 0.0,
           capacity: int | None = None) -> float:
    """sum_{D < d <= 2D} Lambda(d) psi(x/(d+delta))."""
    if x < 3:
        raise ValueError("x must be >= 3")
    if D < 1 or D != int(D):
        raise ValueError("D must be a positive integer")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    D = int(D)
    capacity = DEFAULT_SEGMENT_CAPACITY if capacity is None else capacity
    return _psi_window_sum(x, D, 2 * D, delta, capacity)


def r_delta(x: float, E: float, delta: float = 0.0,
            capacity: int | None = None) -> float:
    """sum_{E < d <= x/E} Lambda(d) psi(x/(d+delta)); 0 when the window is
    empty (E >= sqrt(x))."""
    if E < 1:
        raise ValueError("E must be >= 1")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    lo = int(math.floor(E))
    hi = int(math.floor(x / E))
    if hi <= lo:
        return 0.0
    capacity = DEFAULT_SEGMENT_CAPACITY if capacity is None else capacity
    return _psi_window_sum(x, lo, hi, delta, capacity)


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
    intercept: float
    slope_stderr: float
    used: int
    excluded: int


def fit_error_slope(curve: ErrorCurve, floor: float = 1.0,
                    min_points: int = 3) -> SlopeFit:
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
    if len(lx) < min_points:
        raise DegenerateFitError(
            f"only {len(lx)} usable points after exclusion, need {min_points}"
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
    return SlopeFit(slope=slope, intercept=intercept, slope_stderr=stderr,
                    used=len(lx), excluded=len(curve.xs) - len(lx))
