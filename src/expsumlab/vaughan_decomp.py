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
evaluated on (D, 2D].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith_core import integer_kth_root, psi_frac_many, segment_sieve, sieve_mangoldt, sieve_mobius


def vaughan_cut(D: int) -> int:
    """floor(D^{1/3}), exactly."""
    return integer_kth_root(D, 3)


def _require_valid_d(D: int) -> None:
    if D <= 100:
        raise ValueError(f"the decomposition is stated for D > 100, got {D}")


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
    _require_valid_d(D)
    cut = vaughan_cut(D)
    rough_hi = (2 * D) // (cut + 1)
    mu = sieve_mobius(cut)
    lam = sieve_mangoldt(rough_hi).values  # lam[n - 1] = Lambda(n)

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


def _smooth_sum(D: int, coeffs: np.ndarray, g, log_weight: bool) -> float:
    parts = []
    for m in range(1, len(coeffs) + 1):
        c = coeffs[m - 1]
        if c == 0.0:
            continue
        n = np.arange(D // m + 1, (2 * D) // m + 1, dtype=np.int64)
        if not len(n):
            continue
        vals = np.asarray(g(m * n), dtype=np.float64)
        if log_weight:
            vals = vals * np.log(n.astype(np.float64))
        parts.append(c * float(np.sum(vals)))
    return math.fsum(parts)


def _rough_sum(D: int, cut: int, rough_hi: int, outer: np.ndarray,
               inner: np.ndarray, g) -> float:
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


@dataclass(frozen=True)
class VaughanSplit:
    """The four partial sums whose total is sum_{D<d<=2D} Lambda(d) g(d)."""

    D: int
    cut: int
    tables: AlphaTables
    s1: float
    s2: float
    s3: float
    s4: float

    @cached_property
    def total(self) -> float:
        return math.fsum((self.s1, self.s2, self.s3, self.s4))


def vaughan_split(D: int, g, tables: AlphaTables | None = None) -> VaughanSplit:
    _require_valid_d(D)
    t = tables if tables is not None else alpha_tables(D)
    if t.D != D:
        raise ValueError(f"tables built for D={t.D}, not {D}")
    s1 = _smooth_sum(D, t.alpha1, g, log_weight=False)
    s2 = _smooth_sum(D, t.alpha2, g, log_weight=True)
    s3 = _rough_sum(D, t.cut, t.rough_hi, t.alpha3, t.alpha4, g)
    s4 = _rough_sum(D, t.cut, t.rough_hi, t.alpha5, t.alpha6, g)
    return VaughanSplit(D=D, cut=t.cut, tables=t, s1=s1, s2=s2, s3=s3, s4=s4)


def direct_lambda_sum(D: int, g) -> float:
    """Oracle: sum_{D<d<=2D} Lambda(d) g(d) straight off a segment sieve."""
    seg = segment_sieve(D, 2 * D)
    d = np.arange(D + 1, 2 * D + 1, dtype=np.int64)
    return float(np.sum(seg.values * np.asarray(g(d), dtype=np.float64)))


def frak_s_decomposed(x: float, D: int, delta: float) -> VaughanSplit:
    """The block sum of Lambda(d) psi(x/(d+delta)) through the four-sum
    decomposition; .total must match the direct evaluation."""
    if not math.isfinite(x) or x < 3:
        raise ValueError(f"x must be a finite number >= 3, got {x!r}")
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"delta must be a finite number >= 0, got {delta!r}")

    def g(d: np.ndarray) -> np.ndarray:
        return psi_frac_many(x / (d.astype(np.float64) + delta))

    return vaughan_split(D, g)
