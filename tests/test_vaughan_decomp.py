import math
from types import SimpleNamespace

import numpy as np
import pytest

from expsumlab import floor_mangoldt as fm
from expsumlab import vaughan_decomp as vd
from expsumlab.arith_core import psi_frac_many, sieve_mangoldt, sieve_mobius
from expsumlab.errors import QUOTIENT_GUARD, CapacityError
from expsumlab.seeding import pair_uniform
from expsumlab.vaughan_decomp import (
    alpha_tables,
    direct_lambda_sum,
    frak_s_decomposed,
    vaughan_cut,
    vaughan_split,
)


def _wavy(freq):
    def g(d):
        d = d.astype(np.float64)
        return np.cos(2.0 * np.pi * freq * d) + 0.2
    return g


def test_vaughan_cut_values():
    assert vaughan_cut(1000) == 10
    assert vaughan_cut(999) == 9
    assert vaughan_cut(101) == 4
    assert vaughan_cut(10 ** 6) == 100


@pytest.mark.parametrize("D", [101, 1000])
@pytest.mark.parametrize("g", [lambda d: np.ones(len(d)), _wavy(0.371)],
                         ids=["ones", "wavy"])
def test_identity_exact(D, g):
    split = vaughan_split(D, g)
    direct = direct_lambda_sum(D, g)
    assert abs(split.total - direct) <= 1e-9 * (1 + abs(direct))


def test_table_contents_brute_force():
    D = 2000
    t = alpha_tables(D)
    cut = t.cut
    assert cut == 12
    assert t.rough_hi == (2 * D) // (cut + 1)
    mu = sieve_mobius(cut)
    lam_tab = sieve_mangoldt(t.rough_hi)

    def lam(n):
        return float(lam_tab[n - 1])

    assert len(t.alpha1) == len(t.alpha2) == cut
    for table in (t.alpha3, t.alpha4, t.alpha5, t.alpha6):
        assert len(table) == t.rough_hi - cut
    for m in range(1, cut + 1):
        assert t.alpha1[m - 1] == pytest.approx(mu[m] * math.log(m), abs=1e-12)
        assert t.alpha2[m - 1] == float(mu[m])
    for k in range(cut + 1, t.rough_hi + 1):
        i = k - cut - 1
        conv = -sum(mu[a] * lam(b)
                    for a in range(1, cut + 1)
                    for b in range(1, cut + 1) if a * b == k)
        assert t.alpha3[i] == pytest.approx(conv, abs=1e-12), k
        assert t.alpha4[i] == 1.0
        divs = -sum(mu[a] for a in range(1, cut + 1) if k % a == 0)
        assert t.alpha5[i] == pytest.approx(float(divs), abs=1e-12), k
        assert t.alpha6[i] == pytest.approx(lam(k), abs=1e-12)


def test_coefficient_growth():
    # each table obeys |alpha_k(n)| <= d(n) log(2n) for n >= 2
    D = 2000
    t = alpha_tables(D)

    def divisors(n):
        return sum(1 for a in range(1, n + 1) if n % a == 0)

    for k, table in ((1, t.alpha1), (2, t.alpha2)):
        for m in range(2, t.cut + 1):
            assert abs(table[m - 1]) <= divisors(m) * math.log(2 * m) + 1e-12, (k, m)
    for k, table in ((3, t.alpha3), (4, t.alpha4), (5, t.alpha5), (6, t.alpha6)):
        for n in range(t.cut + 1, t.rough_hi + 1):
            assert abs(table[n - t.cut - 1]) <= divisors(n) * math.log(2 * n) + 1e-12, (k, n)


def test_tables_reuse_and_mismatch():
    t = alpha_tables(101)
    g = _wavy(0.13)
    a = vaughan_split(101, g, tables=t)
    b = vaughan_split(101, g)
    assert a.total == b.total
    with pytest.raises(ValueError):
        vaughan_split(1000, g, tables=t)


def test_small_d_rejected():
    with pytest.raises(ValueError):
        alpha_tables(100)
    with pytest.raises(ValueError):
        vaughan_split(50, lambda d: np.ones(len(d)))


# The whole-array forms: each row (the inner n range of one m) evaluated as
# its own array and summed by one np.sum.  vaughan_split evaluates rows in
# shared 65536-term blocks; each row sum must keep its bits.


def _smooth_whole_array(D, coeffs, g, log_weight):
    parts = []
    for m in range(1, len(coeffs) + 1):
        c = coeffs[m - 1]
        if c == 0.0:
            continue
        n = np.arange(D // m + 1, (2 * D) // m + 1, dtype=np.int64)
        vals = np.asarray(g(m * n), dtype=np.float64)
        if log_weight:
            vals = vals * np.log(n.astype(np.float64))
        parts.append(c * float(np.sum(vals)))
    return math.fsum(parts)


def _rough_whole_array(D, cut, rough_hi, outer, inner, g):
    parts = []
    for m in range(cut + 1, rough_hi + 1):
        c = outer[m - cut - 1]
        if c == 0.0:
            continue
        n_lo = max(cut, D // m) + 1
        n_hi = min(rough_hi, (2 * D) // m)
        if n_lo > n_hi:
            continue
        n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
        vals = np.asarray(g(m * n), dtype=np.float64) * inner[n - cut - 1]
        parts.append(c * float(np.sum(vals)))
    return math.fsum(parts)


def _weights(D):
    x = 10.0 * D + 0.5
    return {
        "ones": lambda d: np.ones(len(d)),
        "sawtooth": lambda d: psi_frac_many(x / (d.astype(np.float64) + 1.0)),
        "pair_uniform": lambda d: 2.0 * pair_uniform(0x5EED, d, 0) - 1.0,
    }


# 1000 and 10000: many rows share a block; 99991: the m = 1 row spans two;
# 300007: rows m <= 4 are longer than a block, and the rough side has long
# runs of equal-length rows
@pytest.mark.parametrize("D", [1000, 10000, 99991, 300007])
@pytest.mark.parametrize("case", ["ones", "sawtooth", "pair_uniform"])
def test_split_bitwise_whole_array(D, case):
    g = _weights(D)[case]
    t = alpha_tables(D)
    split = vaughan_split(D, g, tables=t)
    want = (_smooth_whole_array(D, t.alpha1, g, False),
            _smooth_whole_array(D, t.alpha2, g, True),
            _rough_whole_array(D, t.cut, t.rough_hi, t.alpha3, t.alpha4, g),
            _rough_whole_array(D, t.cut, t.rough_hi, t.alpha5, t.alpha6, g))
    got = (split.s1, split.s2, split.s3, split.s4)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("D", [1000, 300007])
def test_every_row_sum_bitwise(D, monkeypatch):
    # with every coefficient 1 the kernel hands each row's own sums to
    # math.fsum, so every row sum, in a shared block, a run of equal-length
    # rows or a row longer than a block, is compared with np.sum over the row
    g = _weights(D)["sawtooth"]
    t = alpha_tables(D)
    handed = []
    monkeypatch.setattr(vd, "math", SimpleNamespace(fsum=lambda xs: handed.append(xs) or 0.0))
    lam = np.concatenate((np.zeros(t.cut + 1), t.alpha6))
    sides = [(np.arange(1, t.cut + 1, dtype=np.int64), 1, 2 * D, vd._log),
             (np.arange(t.cut + 1, t.rough_hi + 1, dtype=np.int64), t.cut, t.rough_hi, lam.take)]
    for m, floor, top, weight in sides:
        n_lo = np.maximum(floor, D // m) + 1
        n_hi = np.minimum(top, (2 * D) // m)
        ones = np.ones(len(m))
        handed.clear()
        vd._pair_sums(ones, ones, m, n_lo, n_hi, g, weight)
        want_plain, want_weighted = [], []
        for mm, lo, hi in zip(m.tolist(), n_lo.tolist(), n_hi.tolist()):
            if lo <= hi:
                n = np.arange(lo, hi + 1, dtype=np.int64)
                vals = g(mm * n)
                want_plain.append(np.sum(vals).hex())
                want_weighted.append(np.sum(vals * weight(n)).hex())
        assert [v.hex() for v in handed[0]] == want_plain
        assert [v.hex() for v in handed[1]] == want_weighted


def test_2d_reduce_matches_row_reduce():
    # vaughan_split reduces a run of k equal-length rows as one C-contiguous
    # (k, L) view into its out= slice; each row sum must keep the bits of the
    # row's own reduce
    rng = np.random.default_rng(23)
    for L in [*range(1, 1100), 2047, 2048, 4097, 8191, 65535]:
        for k in (2, 3, 17) if L < 4096 else (2, 3):
            flat = rng.standard_normal(k * L + 1) * 10.0 ** rng.integers(-6, 7, k * L + 1)
            rows = flat[1:].reshape(k, L)
            want = [np.add.reduce(flat[1 + r * L:1 + (r + 1) * L]).hex() for r in range(k)]
            out = np.empty(k + 1)
            np.add.reduce(rows, axis=1, out=out[1:])
            assert [v.hex() for v in out[1:]] == want, (L, k)


def test_long_row_split_matches_reduce():
    # a row longer than a block is summed leaf by leaf along numpy's own
    # pairwise split; both sums must keep the bits of np.add.reduce over the
    # whole row, which holds while numpy reduces a contiguous float64 array
    # pairwise in one pass (numpy 2.4)
    rng = np.random.default_rng(29)
    top = 4 * 10 ** 6
    data = rng.standard_normal(top + 999) * 10.0 ** rng.integers(-6, 7, top + 999)
    weights = rng.uniform(0.5, 2.0, top + 999)
    for size in (65537, 65544, 131073, 524295, top, *rng.integers(65538, top, 3).tolist()):
        lo = int(rng.integers(1, 1000))
        vals = data[lo:lo + size]
        p, w = vd._long_row(data.take, weights.take, 1, lo, size)
        assert p.hex() == np.add.reduce(vals).hex(), size
        assert w.hex() == np.add.reduce(vals * weights[lo:lo + size]).hex(), size


@pytest.mark.parametrize("D", [101, 2000, 10 ** 6])
def test_alpha4_is_one(D):
    # S3 sums its plain row values: its weight alpha4 must be exactly 1
    a4 = alpha_tables(D).alpha4
    assert a4.dtype == np.float64 and np.all(a4 == 1.0)


def test_one_g_evaluation_per_term():
    # S1 and S2 share their rows, as do S3 and S4; the four sums separately
    # would evaluate g on 10224256 entries
    seen = []

    def g(d):
        seen.append(len(d))
        return np.ones(len(d))

    vaughan_split(10 ** 6, g)
    assert sum(seen) == 6319607


@pytest.mark.parametrize("D", [1000, 200000])
@pytest.mark.parametrize("bad", ["scalar", "short"])
def test_g_must_return_one_value_per_entry(D, bad):
    def g(d):
        return 0.25 if bad == "scalar" else np.full(len(d) - 1, 0.25)

    with pytest.raises(ValueError, match="one value per entry"):
        vaughan_split(D, g)


def test_frak_s_decomposition_matches_direct():
    for delta in (0.0, 1.0):
        x = 12.5 * 1000
        split = frak_s_decomposed(x, 1000, delta)
        direct = fm.frak_s(x, 1000, delta)
        assert abs(split.total - direct) <= 1e-9 * (1 + abs(direct))


def test_frak_s_decomposed_validation():
    with pytest.raises(ValueError):
        frak_s_decomposed(2.0, 1000, 0.0)
    with pytest.raises(ValueError):
        frak_s_decomposed(500.0, 1000, -0.5)
    for x, delta in ((math.nan, 0.0), (math.inf, 0.0), (5000.0, math.nan),
                     (5000.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            frak_s_decomposed(x, 1000, delta)


def test_frak_s_decomposed_precision_guard():
    # the same window and the same refusal as frak_s
    assert math.isfinite(frak_s_decomposed(QUOTIENT_GUARD * 1001.0, 1000, 0.0).total)
    for x, delta in ((1e30, 0.0), (QUOTIENT_GUARD * 1001.0 * (1 + 1e-12), 0.0),
                     (1e30, 0.5)):
        with pytest.raises(CapacityError, match="precision guard"):
            fm.frak_s(x, 1000, delta)
        with pytest.raises(CapacityError, match="precision guard"):
            frak_s_decomposed(x, 1000, delta)


def test_d_must_be_an_integer():
    for bad, why in ((101.5, "an integer"), (1000.5, "an integer"), (math.inf, "a finite"),
                     (-math.inf, "a finite"), (math.nan, "a finite")):
        with pytest.raises(ValueError, match=f"D must be {why}"):
            alpha_tables(bad)
        with pytest.raises(ValueError, match=f"D must be {why}"):
            frak_s_decomposed(1e5, bad, 0.0)
    t = alpha_tables(1000.0)
    assert t.D == 1000 and type(t.D) is int
    assert vaughan_split(1000.0, _wavy(0.1), tables=t).D == 1000
