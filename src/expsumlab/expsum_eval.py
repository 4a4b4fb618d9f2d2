"""Direct evaluation of the perturbed triple exponential sum and its bounds.

The object is

    S = sum_{h ~ H} sum_{m ~ M} sum_{n ~ N} a(h,m) b(n)
        e( X * (M^beta N^gamma / H^alpha) * h^alpha / (m^beta n^gamma + delta) )

over dyadic blocks (A, 2A], with |a|, |b| <= 1 and delta >= 0 a constant
perturbation.  This module evaluates S deterministically, evaluates two
reference bound shapes against it, and builds the scenario instances that
arise when the block sum of Lambda(d) psi(x/(d+delta)) is opened up into
bilinear pieces.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith_core import chunk_partials, tree_reduce
from .errors import (COEFF_TOL, CapacityError, RejectedInstanceError, check_peak, check_phase,
                     require_integer)
from .seeding import DetRand, pair_uniform
from .vaaler_psi import vaaler_phi_many
from .vaughan_decomp import alpha_tables

DEFAULT_TERM_BUDGET = 10 ** 8
_INNER_TERMS = 1 << 18


class Bound(str, Enum):
    thm1 = "thm1"
    lwy = "lwy"


@dataclass(frozen=True)
class ExpSumInstance:
    """Full parameterization of one sum.

    coeff_a(h, m_array) returns the complex coefficients of one h at the
    given m, one row block's run of the m block; coeff_b(n_array) returns
    the column over the n block.  Both must stay in the closed unit disc.
    mn_clip = (lo, hi), two finite numbers with lo < hi, restricts the
    lattice to lo < m*n <= hi (hyperbola mode); None means the full
    rectangle."""

    H: int
    M: int
    N: int
    X: float
    alpha: float
    beta: float
    gamma: float
    coeff_a: object
    coeff_b: object
    delta: float = 0.0
    K: float = 1.0
    epsilon: float = 0.05
    mn_clip: tuple | None = None
    seed: int | None = None

    def __post_init__(self):
        for name in ("X", "alpha", "beta", "gamma", "delta", "K", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("H", "M", "N"):
            object.__setattr__(self, name, require_integer(name, getattr(self, name), 1))
        if not self.X > 1:
            raise ValueError("X must exceed 1")
        if min(self.alpha, self.beta, self.gamma) <= 0:
            raise ValueError("alpha, beta, gamma must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        clip = self.mn_clip
        if clip is not None and not (
                len(clip) == 2
                and all(isinstance(v, numbers.Real) and math.isfinite(v) for v in clip)
                and clip[0] < clip[1]):
            raise ValueError(f"mn_clip must be two finite numbers lo < hi, got {clip!r}")
        # the largest powers that the sum and its bounds take; a Python float
        # power past a double raises a bare OverflowError
        for what, base, power in (("(2H)^alpha", 2 * self.H, self.alpha),
                                  ("(2M)^beta", 2 * self.M, self.beta),
                                  ("(2N)^gamma", 2 * self.N, self.gamma),
                                  ("(HMN)^(1+epsilon)", self.H * self.M * self.N,
                                   1.0 + self.epsilon),
                                  ("X^epsilon", self.X, self.epsilon)):
            try:
                float(base) ** power
            except OverflowError:
                raise ValueError(f"{what} = {base}^{power:.6g} overflows a double") from None

    @property
    def regime_cap(self) -> float:
        """Largest X the delta > 0 estimate covers: K M^beta N^gamma/(8 delta)."""
        if self.delta == 0:
            return math.inf
        return self.K * self.M ** self.beta * self.N ** self.gamma / (8.0 * self.delta)

    @property
    def thm1_regime_ok(self) -> bool:
        return self.X <= self.regime_cap

    def params_dict(self) -> dict:
        return {
            "H": self.H, "M": self.M, "N": self.N, "X": self.X,
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
            "delta": self.delta, "K": self.K, "epsilon": self.epsilon,
        }


def lattice_count(inst: ExpSumInstance) -> int:
    """Number of (h, m, n) triples actually summed (after any clip)."""
    if inst.mn_clip is None:
        return inst.H * inst.M * inst.N
    lo, hi = inst.mn_clip
    pairs = 0
    for m in range(inst.M + 1, 2 * inst.M + 1):
        n_lo = max(inst.N + 1, int(math.floor(lo / m)) + 1)
        n_hi = min(2 * inst.N, int(math.floor(hi / m)))
        if n_hi >= n_lo:
            pairs += n_hi - n_lo + 1
    return inst.H * pairs


def _checked_coeffs(values, what: str) -> np.ndarray:
    out = np.asarray(values, dtype=np.complex128)
    check_peak(out, 1.0 + COEFF_TOL, what)
    return out


def eval_exp_sum(inst: ExpSumInstance, workers: int = 1) -> complex:
    """The triple sum: one partial per h, summed over the m row blocks in a
    fixed order, so the result is bit-identical for any worker count.

    The m block is cut into row blocks of at most _INNER_TERMS lattice
    points, walked outermost.  Each block's denominators m^beta n^gamma +
    delta and, under mn_clip, its mask of kept points are prepared once;
    then every h adds the block's sum to its own partial, and the h
    partials are combined by tree_reduce.  Phases and exponentials are
    taken only at the points that are summed, and the coefficient products
    are formed in place in one block-sized array.  A clipped point's term
    is a zero whose sign follows the coefficients; it can change a block
    sum only in the sign of a zero, which a partial starting at +0 drops.

    The full phase product is reduced mod 1 in double precision; instances
    whose peak phase exceeds 2^46 are rejected rather than silently losing
    the fractional part.  Instances with more than DEFAULT_TERM_BUDGET
    lattice points are rejected as well."""
    count = lattice_count(inst)
    if count > DEFAULT_TERM_BUDGET:
        raise CapacityError(
            f"{count} terms exceed the term budget {DEFAULT_TERM_BUDGET}")
    H, M, N = inst.H, inst.M, inst.N
    m = np.arange(M + 1, 2 * M + 1, dtype=np.int64)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    mpow = m.astype(np.float64) ** inst.beta
    npow = n.astype(np.float64) ** inst.gamma
    c0 = inst.X * M ** inst.beta * N ** inst.gamma / H ** inst.alpha
    check_phase(c0 * float(2 * H) ** inst.alpha / (mpow[0] * npow[0] + inst.delta), "phase")
    b = _checked_coeffs(inst.coeff_b(n), "coeff_b")
    row_block = max(1, _INNER_TERMS // N)
    clip = inst.mn_clip
    partials = [0.0 + 0.0j] * H
    for s in range(0, M, row_block):
        e = min(s + row_block, M)
        den = mpow[s:e, np.newaxis] * npow[np.newaxis, :] + inst.delta
        keep = None
        if clip is not None:
            prod = m[s:e, np.newaxis] * n[np.newaxis, :]
            keep = (prod > clip[0]) & (prod <= clip[1])
            den = den[keep]

        def block_sum(ih, _):
            h = H + 1 + ih
            a_row = _checked_coeffs(inst.coeff_a(h, m[s:e]), f"coeff_a at h={h}")
            theta = c0 * float(h) ** inst.alpha / den
            theta -= np.floor(theta)
            z = np.multiply(2j * np.pi, theta)
            np.exp(z, out=z)
            if keep is None:
                term = z
            else:
                term = np.zeros(keep.shape, dtype=np.complex128)
                term[keep] = z
            # a * (b * z) in this operand order: complex products are not
            # bitwise commutative under numpy's vector loops
            np.multiply(b[np.newaxis, :], term, out=term)
            np.multiply(a_row[:, np.newaxis], term, out=term)
            return complex(term.sum())

        partials = [p + q for p, q in zip(partials, chunk_partials(H, block_sum, 1, workers))]
    return complex(tree_reduce(partials))


# ---------------------------------------------------------------------------
# reference bounds


def bound_value(inst: ExpSumInstance, which) -> float:
    """Numeric value of the selected bound shape, implied constant 1, with
    the instance's epsilon standing in for the arbitrarily small exponent.

    thm1 is the perturbation-aware shape with its K-dependence; lwy is the
    shape from the exponent pair (1/2, 1/2), valid for H <= M^{beta-1} N^gamma
    and 0 <= delta <= 1/epsilon."""
    which = Bound(which)
    H, M, N, X, K = float(inst.H), float(inst.M), float(inst.N), inst.X, inst.K
    hmn_eps = (H * M * N) ** (1.0 + inst.epsilon)
    if which is Bound.thm1:
        if inst.delta > 0 and not inst.thm1_regime_ok:
            raise RejectedInstanceError(
                "X <= K*M^beta*N^gamma/(8*delta) violated: "
                f"X = {X:.6g} > {inst.regime_cap:.6g}"
            )
        return hmn_eps * (
            (K * X / (H * M * N * N)) ** 0.25
            + (K * K / (H * M)) ** 0.25
            + (K / N) ** 0.5
            + K / X ** 0.5
        )
    # lwy
    cap = M ** (inst.beta - 1.0) * N ** inst.gamma
    if H > cap:
        raise RejectedInstanceError(
            f"H <= M^(beta-1)*N^gamma violated: H = {H:.6g} > {cap:.6g}"
        )
    if inst.delta > 1.0 / inst.epsilon:
        raise RejectedInstanceError(
            f"delta <= 1/epsilon violated: delta = {inst.delta:.6g} > "
            f"{1.0 / inst.epsilon:.6g}"
        )
    k, lam = 0.5, 0.5  # the exponent pair (1/2, 1/2)
    first = (X ** k * H ** (2 + k) * M ** (2 + k) * N ** (1 + k + lam)) ** (1.0 / (2 + 2 * k))
    return (first + H * M * N ** 0.5 + (H * M) ** 0.5 * N + H * M * N / X ** 0.5) * X ** inst.epsilon


# ---------------------------------------------------------------------------
# scenario construction


def unimodular_coeff_a(key: int):
    """(h, m) -> e(u) with u a pure function of (key, h, m)."""
    def fn(h, m):
        return np.exp(2j * np.pi * pair_uniform(key, h, m))
    return fn


def unimodular_coeff_b(key: int):
    def fn(n):
        return np.exp(2j * np.pi * pair_uniform(key, 0, n))
    return fn


def build_floor_scenario(x: float, D: int, delta: float, Hp: int, Hmax: int,
                         M: int, N: int, mode: str = "rectangle") -> ExpSumInstance:
    """Instance matching one dyadic piece of the bilinear block sum.

    With alpha = beta = gamma = 1 and X = x*Hp/(M*N) the phase is exactly
    h*x/(m*n + delta).  coeff_a(h, m) = (Hp/h) Phi(h/(Hmax+1)) times the
    sup-normalized rough coefficient on the m block; coeff_b is the
    sup-normalized companion table on the n block.  h beyond Hmax (the
    truncated tail of the last dyadic block) gets coefficient 0, keeping the
    Phi argument inside (0, 1).

    mode 'rectangle' sums the full block product; 'hyperbola' clips to
    D < m*n <= 2D.  K is the smallest admissible value for the given delta
    (nudged up by 1e-12 so the regime inequality is safely inside)."""
    if not 1 <= Hp <= Hmax:
        raise ValueError(f"need 1 <= Hp <= Hmax, got Hp={Hp}, Hmax={Hmax}")
    if not D / 4 <= M * N <= 4 * D:
        raise ValueError(
            f"block product M*N = {M * N} not within a factor 4 of D = {D}"
        )
    if mode not in ("rectangle", "hyperbola"):
        raise ValueError(f"unknown mode {mode!r}")
    X = x * Hp / (M * N)
    if not X > 1:
        raise ValueError(f"X = x*Hp/(M*N) = {X:.6g} must exceed 1")
    tables = alpha_tables(D)

    def rough(table, k):  # the rough table at k, zero off its support (cut, rough_hi]
        on = (k > tables.cut) & (k <= tables.rough_hi)
        out = np.zeros(len(k))
        out[on] = table[k[on] - tables.cut - 1]
        return out

    a3 = rough(tables.alpha3, np.arange(M + 1, 2 * M + 1, dtype=np.int64))
    a4 = rough(tables.alpha4, np.arange(N + 1, 2 * N + 1, dtype=np.int64))
    sup3 = float(np.max(np.abs(a3))) or 1.0
    sup4 = float(np.max(np.abs(a4))) or 1.0
    a3 = a3 / sup3
    a4 = a4 / sup4
    phi_h = np.zeros(Hp + 1)
    h = np.arange(Hp + 1, min(2 * Hp + 1, Hmax) + 1)  # weights past Hmax stay 0
    phi_h[:len(h)] = (Hp / h) * vaaler_phi_many(h / (Hmax + 1))
    a4_c = a4.astype(np.complex128)

    def coeff_a(h, m):
        w = phi_h[h - Hp - 1]
        return (w * a3[m - M - 1]).astype(np.complex128)

    def coeff_b(n):
        return a4_c

    K = 1.0 if delta == 0 else max(1.0, 8.0 * delta * X / (M * N)) * (1.0 + 1e-12)
    return ExpSumInstance(
        H=Hp, M=M, N=N, X=X, alpha=1.0, beta=1.0, gamma=1.0,
        coeff_a=coeff_a, coeff_b=coeff_b, delta=delta, K=K,
        mn_clip=(D, 2 * D) if mode == "hyperbola" else None,
    )


_SIZE_LADDER = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def random_regime_instances(count: int, seed: int, hmn_budget: int = 10 ** 6):
    """Seeded grid of instances satisfying the delta > 0 regime by
    construction (delta is drawn as a fraction of its admissible maximum)."""
    out = []
    for i in range(count):
        rng = DetRand(seed, stream=i)
        H = rng.choice(_SIZE_LADDER[:5])
        M = rng.choice(_SIZE_LADDER[:6])
        n_cap = max(1, hmn_budget // (H * M))
        N = rng.choice([s for s in _SIZE_LADDER if s <= n_cap])
        alpha = rng.uniform(0.5, 2.0)
        beta = rng.uniform(0.5, 2.0)
        gamma = rng.uniform(0.5, 2.0)
        X = rng.log_uniform(2.0, 1e5)
        K = rng.uniform(1.0, 4.0)
        if rng.uniform() < 0.25:
            delta, K = 0.0, 1.0
        else:
            rho = rng.uniform(0.05, 0.95)
            delta = rho * K * M ** beta * N ** gamma / (8.0 * X)
        inst = ExpSumInstance(
            H=H, M=M, N=N, X=X, alpha=alpha, beta=beta, gamma=gamma,
            coeff_a=unimodular_coeff_a(rng.next_u64()),
            coeff_b=unimodular_coeff_b(rng.next_u64()),
            delta=delta, K=K, seed=seed + i,
        )
        out.append(inst)
    return out
