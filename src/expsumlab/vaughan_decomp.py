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

g must accept a numpy int64 array and return floats; it is only ever
evaluated on (D, 2D].  g must be elementwise: its value at d depends on d
alone, not on the other entries of the array or on the array's length,
because the inner ranges of several m are concatenated and evaluated in
one block (every g in this package is elementwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith_core import (CHUNK_SIZE, integer_kth_root, psi_frac_many, segment_sieve,
                         sieve_mangoldt, sieve_mobius)
from .errors import require_integer
from .floor_mangoldt import check_peak_quotient, check_window


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

    def alpha(self, k: int, n: int) -> float:
        """alpha_k(n), zero outside the table's support."""
        if not 1 <= k <= 6:
            raise ValueError(f"k must be 1..6, got {k}")
        table = (self.alpha1, self.alpha2, self.alpha3,
                 self.alpha4, self.alpha5, self.alpha6)[k - 1]
        if k <= 2:
            return float(table[n - 1]) if 1 <= n <= self.cut else 0.0
        if self.cut < n <= self.rough_hi:
            return float(table[n - self.cut - 1])
        return 0.0


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


def _row_sum(coeffs: np.ndarray, m: np.ndarray, n_lo: np.ndarray,
             n_hi: np.ndarray, g, weight=None) -> float:
    """math.fsum over the rows i with coeffs[i] != 0 and n_lo[i] <= n_hi[i]
    of coeffs[i] times the row's np.sum of g(m[i] n) weight(n), n from
    n_lo[i] to n_hi[i].

    Rows are evaluated in blocks of CHUNK_SIZE terms (chunked_tree_sum's
    chunk), so no temporary outgrows a block; g and weight must be
    elementwise.  Consecutive short rows share a block: g and weight run
    once over their concatenated terms, and each row's slice is reduced by
    np.add.reduce (what np.sum calls), so a row sum keeps the bits of
    np.sum over the row alone.  A longer row is evaluated block by block
    into one reused buffer and reduced whole.
    np.add.reduceat is not used: it differs from np.sum in the last bit on
    most rows."""
    keep = (coeffs != 0.0) & (n_lo <= n_hi)
    coeffs, m, n_lo = coeffs[keep], m[keep], n_lo[keep]
    lengths = n_hi[keep] - n_lo + 1
    ends = np.cumsum(lengths)
    sums = np.empty(len(m))
    buf = np.empty(0)

    def terms(mm, n):
        vals = np.asarray(g(mm * n), dtype=np.float64)
        return vals if weight is None else vals * weight(n)

    i = 0
    while i < len(m):
        base = ends[i] - lengths[i]
        j = int(np.searchsorted(ends, base + CHUNK_SIZE, side="right"))
        if j == i:  # one row longer than a block
            size = int(lengths[i])
            if len(buf) < size:
                buf = np.empty(size)
            for a in range(0, size, CHUNK_SIZE):
                n = np.arange(n_lo[i] + a, n_lo[i] + min(a + CHUNK_SIZE, size), dtype=np.int64)
                buf[a:a + len(n)] = terms(m[i], n)
            sums[i] = np.add.reduce(buf[:size])
            j = i + 1
        else:
            rows = lengths[i:j]
            starts = ends[i:j] - base - rows
            n = np.arange(ends[j - 1] - base, dtype=np.int64) + np.repeat(n_lo[i:j] - starts, rows)
            vals = terms(np.repeat(m[i:j], rows), n)
            for k, (s0, s1) in enumerate(zip(starts.tolist(), (starts + rows).tolist())):
                sums[i + k] = np.add.reduce(vals[s0:s1])
        i = j
    return math.fsum((coeffs * sums).tolist())


@dataclass(frozen=True)
class VaughanSplit:
    """The four partial sums whose total is sum_{D<d<=2D} Lambda(d) g(d)."""

    D: int
    cut: int
    s1: float
    s2: float
    s3: float
    s4: float

    @cached_property
    def total(self) -> float:
        return math.fsum((self.s1, self.s2, self.s3, self.s4))


def vaughan_split(D: int, g, tables: AlphaTables | None = None) -> VaughanSplit:
    D = _require_valid_d(D)
    t = tables if tables is not None else alpha_tables(D)
    if t.D != D:
        raise ValueError(f"tables built for D={t.D}, not {D}")
    m = np.arange(1, t.cut + 1, dtype=np.int64)
    n_lo, n_hi = D // m + 1, (2 * D) // m
    s1 = _row_sum(t.alpha1, m, n_lo, n_hi, g)
    s2 = _row_sum(t.alpha2, m, n_lo, n_hi, g, lambda n: np.log(n.astype(np.float64)))
    m = np.arange(t.cut + 1, t.rough_hi + 1, dtype=np.int64)
    n_lo = np.maximum(t.cut, D // m) + 1
    n_hi = np.minimum(t.rough_hi, (2 * D) // m)
    s3 = _row_sum(t.alpha3, m, n_lo, n_hi, g, lambda n: t.alpha4[n - t.cut - 1])
    s4 = _row_sum(t.alpha5, m, n_lo, n_hi, g, lambda n: t.alpha6[n - t.cut - 1])
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
    check_peak_quotient(x, D, delta)

    def g(d: np.ndarray) -> np.ndarray:
        return psi_frac_many(x / (d.astype(np.float64) + delta))

    return vaughan_split(D, g)
