"""Decomposition of Lambda-weighted sums over a dyadic block into four sums.

For d in (D, 2D] the convolution identity Lambda = mu * log, split at the
cube-root cut C = floor(D^{1/3}), gives

    Lambda(d) = (mu_{<=C} * log)(d)
                - (mu_{<=C} * Lambda_{<=C} * 1)(d)
                + (mu_{>C} * Lambda_{>C} * 1)(d)          (valid for d > C),

using that mu * Lambda_{<=C} * 1 = Lambda_{<=C} vanishes above C.  Regrouping
the free divisor in each piece produces six tabulated coefficients:

    alpha1(m) = mu(m) log m                on [1, C]
    alpha2(m) = mu(m)                      on [1, C]   (the log n rides on S2)
    alpha3(k) = -(mu_{<=C} * Lambda_{<=C})(k)  on (C, C^2]
    alpha4(n) = 1                          on (C, 2D // (C+1)]
    alpha5(m) = -sum_{a | m, a <= C} mu(a) on (C, 2D // (C+1)]
    alpha6(n) = Lambda(n)                  on (C, 2D // (C+1)]

(alpha1 is the below-cut slice of the middle convolution, where it collapses
to -(mu * Lambda)(m) = mu(m) log m.)  Summed against g over the block:

    sum_{D<d<=2D} Lambda(d) g(d) = S1 + S2 + S3 + S4,
    S1 = sum_{m<=C} alpha1(m) sum_{D<mn<=2D} g(mn)
    S2 = sum_{m<=C} alpha2(m) sum_{D<mn<=2D} g(mn) log n
    S3 = sum over C < m, n, D<mn<=2D of alpha3(m) alpha4(n) g(mn)
    S4 = sum over C < m, n, D<mn<=2D of alpha5(m) alpha6(n) g(mn)

and the identity is exact for every g.  The bilinear tables extend to
2D // (C+1), not C^2: a factorization d = m n with m > C can push n that
high, and the identity genuinely needs those entries (d = 1111 = 11 * 101 at
D = 1000 requires n = 101 > D^{2/3} = 100).

g must accept a numpy int64 array and return one float per entry; it is
only ever evaluated on (D, 2D], once per term m n.  S1 and S2 run over the
same rows m <= C, and S3 and S4 over the same rows C < m, so one evaluation
feeds both sums of a pair (S3's alpha4 is 1, so S3 sums the values as they
are).  g must be elementwise: its value at d depends on d alone, not on the
other entries of the array or on the array's length, because the inner
ranges of several m are concatenated and evaluated in one block, and a run
of rows of equal length is reduced as one 2-D array (every g in this
package is elementwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith_core import (CHUNK_SIZE, integer_kth_root, psi_frac_many, segment_sieve,
                         sieve_mangoldt, sieve_mobius)
from .errors import check_phase, check_window, require_integer


def vaughan_cut(D: int) -> int:
    """floor(D^{1/3}), exactly."""
    return integer_kth_root(D, 3)


def _require_valid_d(D: int) -> int:
    D = require_integer("D", D, 1)
    if D <= 100:
        raise ValueError(f"the decomposition is stated for D > 100, got {D}")
    return D


@dataclass(frozen=True)
class AlphaTables:
    """The six coefficient tables for one block size D.

    Smooth tables index m - 1 over [1, cut]; rough tables index
    k - (cut + 1) over (cut, rough_hi]."""

    D: int
    cut: int
    rough_hi: int
    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    alpha4: np.ndarray
    alpha5: np.ndarray
    alpha6: np.ndarray


def alpha_tables(D: int) -> AlphaTables:
    D = _require_valid_d(D)
    cut = vaughan_cut(D)
    rough_hi = (2 * D) // (cut + 1)
    mu = sieve_mobius(cut)
    lam = sieve_mangoldt(rough_hi)  # lam[n - 1] = Lambda(n)

    ms = np.arange(1, cut + 1, dtype=np.float64)
    alpha2 = mu[1:].astype(np.float64)
    alpha1 = alpha2 * np.log(ms)

    rough_n = rough_hi - cut
    alpha3 = np.zeros(rough_n)
    alpha5 = np.zeros(rough_n)
    for a in range(1, cut + 1):
        if mu[a] == 0:
            continue
        # alpha3: products a*b with b <= cut landing above the cut
        b = np.arange(cut // a + 1, cut + 1, dtype=np.int64)
        if len(b):
            alpha3[a * b - cut - 1] -= mu[a] * lam[b - 1]
        # alpha5: multiples of a above the cut
        first = (cut // a + 1) * a
        if first <= rough_hi:
            alpha5[first - cut - 1:: a] -= mu[a]
    alpha4 = np.ones(rough_n)
    alpha6 = lam[cut:]

    return AlphaTables(D=D, cut=cut, rough_hi=rough_hi, alpha1=alpha1,
                       alpha2=alpha2, alpha3=alpha3, alpha4=alpha4,
                       alpha5=alpha5, alpha6=alpha6)


def _values(g, d: np.ndarray) -> np.ndarray:
    vals = np.asarray(g(d), dtype=np.float64)
    if vals.shape != d.shape:
        raise ValueError(f"g must return one value per entry, got shape {vals.shape} "
                         f"for {len(d)} entries")
    return vals


def _pair_sums(plain: np.ndarray, weighted: np.ndarray, m: np.ndarray, n_lo: np.ndarray,
               n_hi: np.ndarray, g, weight) -> tuple[float, float]:
    """The two sums of a pair that share their rows, from one evaluation of
    g per term.

    Row i runs over n from n_lo[i] to n_hi[i]; its plain sum P_i is the
    np.sum of g(m[i] n) and its weighted sum W_i the np.sum of
    g(m[i] n) weight(n).  Returns the math.fsum of plain[i] P_i over the
    rows with plain[i] != 0 and that of weighted[i] W_i over the rows with
    weighted[i] != 0, both in increasing i; empty rows are skipped.

    g and weight must be elementwise, g must return one value per entry
    (ValueError otherwise), and weight a new array, which the kernel
    multiplies in place.  Rows are evaluated in blocks of CHUNK_SIZE terms
    (chunked_tree_sum's chunk), so no temporary outgrows a block.
    Consecutive short rows share a block: g and weight run once over their
    concatenated terms.  A run of k > 1 consecutive rows of equal length L
    is reduced as one C-contiguous (k, L) array by np.add.reduce(axis=1),
    which sums each row as np.sum sums that row alone, so every row sum
    keeps the bits of np.sum over the row.  A row longer than a block is
    summed by _long_row without being held whole.
    np.add.reduceat is not used: it differs from np.sum in the last bit on
    most rows."""
    keep = ((plain != 0.0) | (weighted != 0.0)) & (n_lo <= n_hi)
    plain, weighted, m, n_lo = plain[keep], weighted[keep], m[keep], n_lo[keep]
    lengths = n_hi[keep] - n_lo + 1
    ends = np.cumsum(lengths)
    p_sums, w_sums = np.empty(len(m)), np.empty(len(m))
    add = np.add.reduce

    i = 0
    while i < len(m):
        base = ends[i] - lengths[i]
        j = int(np.searchsorted(ends, base + CHUNK_SIZE, side="right"))
        if j == i:  # one row longer than a block
            p_sums[i], w_sums[i] = _long_row(g, weight, int(m[i]), int(n_lo[i]),
                                             int(lengths[i]))
            j = i + 1
        else:
            rows = lengths[i:j]
            starts = ends[i:j] - base - rows
            n = np.repeat(n_lo[i:j] - starts, rows)
            n += np.arange(len(n), dtype=np.int64)
            d = np.repeat(m[i:j], rows)
            d *= n
            vals = _values(g, d)
            wvals = weight(n)
            wvals *= vals
            breaks = (np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()
            rows, starts = rows.tolist(), starts.tolist()
            for r0, r1 in zip([0] + breaks, breaks + [j - i]):
                k, size, s0 = r1 - r0, rows[r0], starts[r0]
                s1 = s0 + k * size
                if k == 1:
                    p_sums[i + r0] = add(vals[s0:s1])
                    w_sums[i + r0] = add(wvals[s0:s1])
                else:
                    add(vals[s0:s1].reshape(k, size), axis=1, out=p_sums[i + r0:i + r1])
                    add(wvals[s0:s1].reshape(k, size), axis=1, out=w_sums[i + r0:i + r1])
        i = j
    return (math.fsum((plain * p_sums)[plain != 0.0].tolist()),
            math.fsum((weighted * w_sums)[weighted != 0.0].tolist()))


def _long_row(g, weight, m: int, lo: int, size: int):
    """(P, W) of the row n = lo .. lo + size - 1: the np.add.reduce of
    g(m n) and of g(m n) weight(n), without holding the row.

    np.add.reduce sums a contiguous float64 array pairwise: a part of more
    than 128 entries is split at n2 = size // 2 rounded down to a multiple
    of 8, and its sum is that of the first n2 entries plus that of the rest.
    The same split is followed down to parts of at most CHUNK_SIZE entries,
    and each such leaf evaluates g and its weight once and is reduced by
    np.add.reduce itself, so both sums keep the bits of the whole-row
    reduction (test_long_row_split_matches_reduce pins that behaviour)."""
    if size <= CHUNK_SIZE:
        vals = _values(g, np.arange(m * lo, m * (lo + size), m, dtype=np.int64))
        p = np.add.reduce(vals)
        vals *= weight(np.arange(lo, lo + size, dtype=np.int64))
        return p, np.add.reduce(vals)
    half = size // 2
    half -= half % 8
    p1, w1 = _long_row(g, weight, m, lo, half)
    p2, w2 = _long_row(g, weight, m, lo + half, size - half)
    return p1 + p2, w1 + w2


def _log(n: np.ndarray) -> np.ndarray:
    w = n.astype(np.float64)
    return np.log(w, out=w)


@dataclass(frozen=True)
class VaughanSplit:
    """The four partial sums whose total is sum_{D<d<=2D} Lambda(d) g(d)."""

    D: int
    cut: int
    s1: float
    s2: float
    s3: float
    s4: float

    @property
    def total(self) -> float:
        return math.fsum((self.s1, self.s2, self.s3, self.s4))


def vaughan_split(D: int, g, tables: AlphaTables | None = None) -> VaughanSplit:
    D = _require_valid_d(D)
    t = tables if tables is not None else alpha_tables(D)
    if t.D != D:
        raise ValueError(f"tables built for D={t.D}, not {D}")
    m = np.arange(1, t.cut + 1, dtype=np.int64)
    n_lo, n_hi = D // m + 1, (2 * D) // m
    s1, s2 = _pair_sums(t.alpha1, t.alpha2, m, n_lo, n_hi, g, _log)
    m = np.arange(t.cut + 1, t.rough_hi + 1, dtype=np.int64)
    n_lo = np.maximum(t.cut, D // m) + 1
    n_hi = np.minimum(t.rough_hi, (2 * D) // m)
    # S3's weight alpha4 is identically 1, and v * 1.0 == v bit for bit;
    # lam[n] = alpha6(n) for n above the cut
    lam = np.concatenate((np.zeros(t.cut + 1), t.alpha6))
    s3, s4 = _pair_sums(t.alpha3, t.alpha5, m, n_lo, n_hi, g, lam.take)
    return VaughanSplit(D=D, cut=t.cut, s1=s1, s2=s2, s3=s3, s4=s4)


def direct_lambda_sum(D: int, g) -> float:
    """Oracle: sum_{D<d<=2D} Lambda(d) g(d) straight off a segment sieve."""
    seg = segment_sieve(D, 2 * D)
    d = np.arange(D + 1, 2 * D + 1, dtype=np.int64)
    return float(np.sum(seg * np.asarray(g(d), dtype=np.float64)))


def frak_s_decomposed(x: float, D: int, delta: float) -> VaughanSplit:
    """The block sum of Lambda(d) psi(x/(d+delta)) through the four-sum
    decomposition; .total must match the direct evaluation."""
    check_window(x, delta)
    D = _require_valid_d(D)
    check_phase(x / (D + 1 + delta), "quotient")

    def g(d: np.ndarray) -> np.ndarray:
        t = d.astype(np.float64)
        t += delta
        return psi_frac_many(np.divide(x, t, out=t))

    return vaughan_split(D, g)
