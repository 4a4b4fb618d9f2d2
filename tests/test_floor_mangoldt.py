import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import arith_core
from expsumlab import floor_mangoldt as fm
from expsumlab.arith_core import chunked_tree_sum, mangoldt_point, sieve_mangoldt
from expsumlab.errors import CapacityError, DegenerateFitError
from expsumlab.seeding import DetRand


def test_direct_hand_values():
    assert fm.s_lambda_direct(1) == 0.0
    assert fm.s_lambda_direct(4) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert fm.s_lambda_direct(10) == pytest.approx(math.log(60.0), abs=1e-12)


def test_blocked_matches_direct():
    xs = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    rng = DetRand(17)
    xs += [rng.integer(10, 10 ** 5) for _ in range(20)]
    for x in xs:
        a = fm.s_lambda_direct(x)
        b = fm.s_lambda_blocked(x)
        assert abs(a - b) <= 1e-6 * (1 + abs(a)), x


def _blocked_pointwise(x):
    """S(x) by the pointwise formula: mangoldt_point at every [x/n] with
    n <= isqrt(x), summed with math.fsum over 65536-wide n chunks, plus the
    multiplicity-weighted sieve over the smaller values, built as one
    whole array before it is summed in 65536-entry chunks."""
    n0 = math.isqrt(x)

    def point_chunk(lo, hi):
        return math.fsum(mangoldt_point(x // n) for n in range(lo + 1, hi + 1))

    part1 = float(chunked_tree_sum(n0, point_chunk))
    cut = x // (n0 + 1)
    if cut == 0:
        return part1
    d = np.arange(1, cut + 1, dtype=np.int64)
    counts = x // d - np.maximum(x // (d + 1), n0)
    vals = sieve_mangoldt(cut) * counts.astype(np.float64)
    return part1 + float(chunked_tree_sum(cut, lambda a, b: vals[a:b].sum()))


@pytest.mark.parametrize("split", [2, fm.BLOCKED_SPLIT])
def test_blocked_bitwise_pointwise_small(monkeypatch, split):
    # a split of 2 puts both the pointwise and the window range to work
    # even at x <= 3000
    monkeypatch.setattr(fm, "BLOCKED_SPLIT", split)
    for x in range(1, 3001):
        assert fm.s_lambda_blocked(x).hex() == _blocked_pointwise(x).hex(), x


@pytest.mark.parametrize("x", [10 ** 9 + 7, 10 ** 10, 3 * 10 ** 10 + 7, 10 ** 11])
def test_blocked_bitwise_pointwise_large(monkeypatch, x):
    want = _blocked_pointwise(x).hex()
    assert fm.s_lambda_blocked(x).hex() == want
    # pieces of one chunk cut the multiplicity range, up to 316226 values,
    # into several pieces of one segment
    monkeypatch.setattr(fm, "_PIECE", 1 << 16)
    assert fm.s_lambda_blocked(x).hex() == want


def test_block_count_is_distinct_values():
    for x in range(1, 2001):
        assert fm.blocked_block_count(x) == len({x // n for n in range(1, x + 1)}), x


def test_blocked_worker_invariance():
    x = 10 ** 5 + 7
    assert fm.s_lambda_blocked(x, workers=1) == fm.s_lambda_blocked(x, workers=4)


@given(st.integers(1, 10 ** 7))
@settings(max_examples=300)
def test_block_count_budget(x):
    assert fm.blocked_block_count(x) <= 2 * (math.isqrt(x - 1) + 1) + 2 if x > 1 \
        else fm.blocked_block_count(x) <= 4


def test_capacity_guards():
    with pytest.raises(CapacityError, match="blocked"):
        fm.s_lambda_direct(fm.DIRECT_LIMIT + 1)
    with pytest.raises(CapacityError):
        fm.s_lambda_blocked(fm.BLOCKED_LIMIT + 1)
    with pytest.raises(ValueError):
        fm.s_lambda_direct(0)
    with pytest.raises(ValueError):
        fm.s_lambda_blocked(12.5)


def test_capacity_reaches_segment_sieve(monkeypatch):
    # the one segment size is read at call time: a smaller one cuts both
    # sums into several segments, each within the sieve's guard
    want_c = fm.main_constant(10 ** 4).value
    want_s = fm.frak_s(12345.6, 3000, 0.5)
    segments = []

    def counted(lo, hi):
        segments.append((lo, hi))
        return arith_core.segment_sieve(lo, hi)

    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT_CAPACITY", 1000)
    monkeypatch.setattr(fm, "segment_sieve", counted)
    got_c = fm.main_constant(10 ** 4).value
    assert len(segments) == 10
    got_s = fm.frak_s(12345.6, 3000, 0.5)
    assert len(segments) == 13
    assert got_c == pytest.approx(want_c, rel=1e-12)
    assert got_s == pytest.approx(want_s, rel=1e-12, abs=1e-9)


def test_main_constant_hand_values():
    assert fm.main_constant(2).value == pytest.approx(math.log(2.0) / 6.0, abs=1e-15)
    want4 = math.log(2.0) / 6.0 + math.log(3.0) / 12.0 + math.log(2.0) / 20.0
    assert fm.main_constant(4).value == pytest.approx(want4, abs=1e-15)


def test_main_constant_monotone_with_certified_tail():
    prev = None
    for T in (2, 4, 8, 16, 100, 1000, 10 ** 4):
        c = fm.main_constant(T)
        assert c.tail_bound == fm.tail_bound(T)
        if prev is not None:
            assert c.value >= prev.value  # Lambda >= 0
            assert c.value - prev.value <= fm.tail_bound(prev.T)
        prev = c


def test_tail_bound_validation():
    assert fm.tail_bound(100) == pytest.approx((math.log(100.0) + 1.0) / 100.0)
    with pytest.raises(ValueError):
        fm.tail_bound(1)
    with pytest.raises(ValueError):
        fm.main_constant(1)
    with pytest.raises(ValueError):
        fm.main_constant(2.5)


def test_non_finite_x_and_t_refused():
    # int(inf) raises OverflowError and int(nan) a ValueError naming neither
    for bad in (math.inf, -math.inf, math.nan):
        for fn in (fm.s_lambda_direct, fm.s_lambda_blocked, fm.blocked_block_count):
            with pytest.raises(ValueError, match="x must be a finite number"):
                fn(bad)
        with pytest.raises(ValueError, match="T must be a finite number"):
            fm.main_constant(bad)
    assert fm.main_constant(100.0).T == 100


def test_best_constant_cached():
    a = fm.best_constant(10 ** 4)
    b = fm.best_constant(10 ** 4)
    assert a is b
    assert a.value == fm.main_constant(10 ** 4).value


def test_frak_s_hand_value():
    # window (5, 10]: Lambda lives on 7, 8, 9; psi(100/8) = psi(12.5) = 0
    want = (math.log(7.0) * (2.0 / 7.0 - 0.5)
            + math.log(3.0) * (1.0 / 9.0 - 0.5))
    assert fm.frak_s(100.0, 5) == pytest.approx(want, abs=1e-12)


def test_frak_s_within_half_chebyshev():
    for D in (50, 500):
        lam = sieve_mangoldt(2 * D)
        half = 0.5 * float(np.sum(lam[D:2 * D]))
        for delta in (0.0, 0.5, 2.0):
            assert abs(fm.frak_s(12345.678, D, delta)) <= half + 1e-9


def test_frak_s_validation():
    with pytest.raises(ValueError):
        fm.frak_s(2.0, 5)
    with pytest.raises(ValueError):
        fm.frak_s(100.0, 0)
    with pytest.raises(ValueError):
        fm.frak_s(100.0, 5, delta=-1.0)
    for x, delta in ((math.nan, 0.0), (math.inf, 0.0), (100.0, math.nan),
                     (100.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            fm.frak_s(x, 5, delta)
    for D in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="D must be a finite number"):
            fm.frak_s(100.0, D)


# The whole-array forms below build every summand of a segment (or of a
# 2^20-wide n chunk) as one array before summing it in 65536-entry chunks.
# The evaluators build each chunk's summands inside the chunk; each chunk's
# sum sees the same values in the same order, so the results keep their bits.


def _sieved_whole_array(lo, hi, term):
    parts = []
    seg_lo = lo
    while seg_lo < hi:
        seg_hi = min(hi, seg_lo + arith_core.DEFAULT_SEGMENT_CAPACITY)
        d = np.arange(seg_lo + 1, seg_hi + 1, dtype=np.float64)
        vals = term(arith_core.segment_sieve(seg_lo, seg_hi), d)
        parts.append(float(chunked_tree_sum(seg_hi - seg_lo, lambda a, b: vals[a:b].sum())))
        seg_lo = seg_hi
    return math.fsum(parts)


def _main_constant_whole_array(T):
    return _sieved_whole_array(1, T, lambda lam, d: lam / (d * (d + 1.0)))


def _psi_window_whole_array(x, lo, hi, delta):
    return _sieved_whole_array(lo, hi, lambda lam, d: lam * arith_core.psi_frac_many(x / (d + delta)))


@functools.cache
def _direct_whole_array(x):
    lam = sieve_mangoldt(x)

    def chunk(lo, hi):
        vals = lam[x // np.arange(lo + 1, hi + 1, dtype=np.int64) - 1]
        return float(chunked_tree_sum(len(vals), lambda a, b: vals[a:b].sum()))

    return float(chunked_tree_sum(x, chunk, 1 << 20))


def test_main_constant_bitwise_whole_array():
    for T in (2, 65537, 10 ** 6, 3 * 10 ** 6 + 5):
        assert fm.main_constant(T).value.hex() == _main_constant_whole_array(T).hex(), T


@pytest.mark.parametrize("piece", [1 << 16, 1 << 17, fm._PIECE])
def test_main_constant_pieces_keep_bits(monkeypatch, piece):
    # one segment, then segments of 200000, each sieved and summed in pieces
    # of one, two or 16 chunks, the last piece of each segment short; the
    # whole-array form sieves each segment at once.  The six one-chunk pieces
    # of one segment fix the tree that combines their partials: a math.fsum
    # or a left-to-right sum of them changes the last bit.
    monkeypatch.setattr(fm, "_PIECE", piece)
    assert fm.main_constant(330001).value.hex() == _main_constant_whole_array(330001).hex()
    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT_CAPACITY", 200000)
    want = _main_constant_whole_array(330001)
    want_s = _psi_window_whole_array(5.5e5, 1, 550000, 0.5)
    assert fm.main_constant(330001).value.hex() == want.hex()
    assert fm.r_delta(5.5e5, 1.0, 0.5).hex() == want_s.hex()


def test_direct_bitwise_whole_array():
    for x in [*range(1, 3001), 3 * 10 ** 6 + 17, fm.DIRECT_LIMIT]:
        assert fm.s_lambda_direct(x).hex() == _direct_whole_array(x).hex(), x


@pytest.mark.parametrize("piece", [1 << 16, 1 << 17, fm._PIECE])
def test_direct_pieces_keep_bits(monkeypatch, piece):
    # the first chunk's quotients, up to x, are sieved in pieces of one, two
    # or 16 chunks' width, so at DIRECT_LIMIT it spans up to 153 pieces; the
    # later chunks read the shared low range from x = 65537 on
    monkeypatch.setattr(fm, "_PIECE", piece)
    for x in (1, 65536, 65537, 3 * 10 ** 6 + 17, fm.DIRECT_LIMIT):
        want = _direct_whole_array(x).hex()
        for workers in (1, 2):
            assert fm.s_lambda_direct(x, workers=workers).hex() == want, (x, workers)


@pytest.mark.parametrize("piece", [1, 2, 5])
def test_direct_small_pieces_keep_bits(monkeypatch, piece):
    # pieces of a few quotients put an edge next to nearly every quotient
    # some n takes, so a quotient skipped or read twice at an edge shows
    monkeypatch.setattr(fm, "_PIECE", piece)
    for x in range(1, 1500, 7):
        assert fm.s_lambda_direct(x).hex() == _direct_whole_array(x).hex(), x


def test_direct_quotient_runs_match_gather():
    # chunks next to isqrt(x), where the runs of equal quotients begin, and
    # chunks long enough that some quotients between the ends have no n; the
    # table starts at Lambda(1) or at the chunk's smallest quotient
    for x in (10 ** 4, 10 ** 6 + 3, 3 * 10 ** 6 + 17):
        lam = sieve_mangoldt(x)
        r = math.isqrt(x)
        for n_s in range(r - 3, r + 4):
            for width in (1, 2, 3, 7, r // 2, r, 4 * r, 65536):
                n_e = min(x, n_s + width - 1)
                want = lam[x // np.arange(n_s, n_e + 1, dtype=np.int64) - 1]
                for off in (0, x // n_e - 1):
                    got = fm._direct_terms(lam[off:], off, x, n_s, n_e)
                    assert got.tobytes() == want.tobytes(), (x, n_s, n_e, off)


def test_windows_and_direct_bitwise_whole_array():
    x = 3 * 10 ** 6
    assert fm.s_lambda_direct(x).hex() == _direct_whole_array(x).hex()
    for delta in (0.0, 0.5, 1.0):
        got = fm.frak_s(7.3 * x, x, delta)
        assert got.hex() == _psi_window_whole_array(7.3 * x, x, 2 * x, delta).hex()
        got = fm.r_delta(x + 0.5, 1.0, delta)
        assert got.hex() == _psi_window_whole_array(x + 0.5, 1, x, delta).hex()


def _peak_traced_bytes(fn):
    """Peak bytes tracemalloc sees during fn(), after one warm call."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_summands_stay_chunk_sized():
    # the sieve table (8 bytes an entry) is the one full-length array; a
    # full-length temporary of the summands would add 8 bytes or more
    T = 2 * 10 ** 6
    assert _peak_traced_bytes(lambda: fm.main_constant(T)) < 12 * T
    assert _peak_traced_bytes(lambda: fm.frak_s(8.8e6, 10 ** 6, 0.5)) < 12 * 10 ** 6
    # the direct sum holds one piece of Lambda (8 bytes an entry) at a time,
    # not the 80 MB of Lambda on [1, DIRECT_LIMIT]
    assert _peak_traced_bytes(lambda: fm.s_lambda_direct(fm.DIRECT_LIMIT)) < 16 * fm._PIECE


def test_psi_window_precision_guard():
    # the largest quotient of the window is x/(lo+1+delta)
    assert math.isfinite(fm.frak_s(fm.QUOTIENT_GUARD * 6.0, 5))
    with pytest.raises(CapacityError, match="precision guard"):
        fm.frak_s(fm.QUOTIENT_GUARD * 6.0 * (1 + 1e-12), 5)
    with pytest.raises(CapacityError, match="precision guard"):
        fm.frak_s(1e30, 5, delta=0.5)
    with pytest.raises(CapacityError, match="precision guard"):
        fm.r_delta(1e30, 1e15 - 100.0)  # a 200-wide window near sqrt(x)


def test_r_delta_empty_window():
    assert fm.r_delta(100.0, 10.0) == 0.0
    assert fm.r_delta(100.0, 11.0) == 0.0


def test_r_delta_brute_oracle():
    x, E, delta = 1000.5, 5.0, 0.7
    lo, hi = 5, int(x / E)
    want = math.fsum(
        mangoldt_point(d) * (((x / (d + delta)) % 1.0) - 0.5)
        for d in range(lo + 1, hi + 1)
    )
    assert fm.r_delta(x, E, delta) == pytest.approx(want, abs=1e-10)


def test_r_delta_validation():
    with pytest.raises(ValueError):
        fm.r_delta(100.0, 0.5)
    # refused like frak_s, although the window would be empty
    for x in (-5.0, 0.0, 2.99, -math.inf):
        with pytest.raises(ValueError, match="x must be a finite number >= 3"):
            fm.r_delta(x, 1.0)
    with pytest.raises(ValueError):
        fm.r_delta(100.0, 2.0, delta=-0.1)
    for x, E, delta in ((math.inf, 2.0, 0.0), (math.nan, 2.0, 0.0),
                        (100.0, math.inf, 0.0), (100.0, math.nan, 0.0),
                        (100.0, 2.0, math.nan), (100.0, 2.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            fm.r_delta(x, E, delta)


def test_error_curve_invariants():
    const = fm.main_constant(10 ** 4)
    curve = fm.error_curve((10 ** 4, 10 ** 5), constant=const)
    assert curve.xs == (10 ** 4, 10 ** 5)
    assert np.allclose(curve.e_values,
                       curve.s_values - const.value * np.array(curve.xs))
    assert np.allclose(curve.band, const.tail_bound * np.array(curve.xs))


def test_geometric_grid():
    grid = fm.geometric_grid(10 ** 4, 10 ** 9, 12)
    assert grid[0] == 10 ** 4 and grid[-1] == 10 ** 9
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert len(grid) == 12
    with pytest.raises(ValueError):
        fm.geometric_grid(10, 10, 5)
    with pytest.raises(ValueError):
        fm.geometric_grid(10, 100, 1)


def _synthetic_curve(power, xs=(10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7)):
    xs_arr = np.array(xs, dtype=np.float64)
    e = xs_arr ** power
    const = fm.MainConstant(T=2, value=0.0, tail_bound=0.0)
    return fm.ErrorCurve(xs=tuple(xs), s_values=e.copy(), e_values=e,
                         band=np.zeros(len(xs)), constant=const)


def test_fit_recovers_synthetic_slope():
    fit = fm.fit_error_slope(_synthetic_curve(0.5))
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-9)
    assert fit.used == 4 and fit.excluded == 0


def test_fit_floor_exclusion():
    curve = _synthetic_curve(0.5)
    # a floor above the smallest |E| = 100 drops exactly that point
    fit = fm.fit_error_slope(curve, floor=200.0)
    assert fit.used == 3 and fit.excluded == 1
    assert fit.slope == pytest.approx(0.5, abs=1e-9)


def test_fit_band_exclusion():
    curve = _synthetic_curve(0.5)
    big_band = fm.ErrorCurve(xs=curve.xs, s_values=curve.s_values,
                             e_values=curve.e_values,
                             band=np.full(len(curve.xs), 1e12),
                             constant=curve.constant)
    with pytest.raises(DegenerateFitError):
        fm.fit_error_slope(big_band)


def test_fit_needs_points():
    with pytest.raises(DegenerateFitError, match="usable points"):
        fm.fit_error_slope(_synthetic_curve(0.5, xs=(10 ** 4, 10 ** 5)))
