"""Direct evaluation of the perturbed triple exponential sum and its bounds.

The object is

    S = sum_{h ~ H} sum_{m ~ M} sum_{n ~ N} a(h,m) b(n)
        e( X * (M^beta N^gamma / H^alpha) * h^alpha / (m^beta n^gamma + delta) )

over dyadic blocks (A, 2A], with |a|, |b| <= 1 and delta >= 0 a constant
perturbation.  This module evaluates S deterministically, evaluates five
reference bound shapes against it, and builds the scenario instances that
arise when the block sum of Lambda(d) psi(x/(d+delta)) is opened up into
bilinear pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .arith_core import chunked_tree_sum
from .errors import CapacityError, RejectedInstanceError
from .exponent_calc import ExponentPair
from .seeding import DetRand, pair_uniform
from .vaaler_psi import vaaler_phi
from .vaughan_decomp import alpha_tables

DEFAULT_TERM_BUDGET = 10 ** 8
PHASE_GUARD = 2.0 ** 46
_INNER_TERMS = 1 << 18
_COEFF_TOL = 1e-9


class Bound(str, Enum):
    thm1 = "thm1"
    fi89 = "fi89"
    rs06 = "rs06"
    sw = "sw"
    lwy = "lwy"


@dataclass(frozen=True)
class ExpSumInstance:
    """Full parameterization of one sum.

    coeff_a(h, m_array) returns the complex row for one h over the m block;
    coeff_b(n_array) returns the column over the n block.  Both must stay in
    the closed unit disc.  mn_clip = (lo, hi) restricts the lattice to
    lo < m*n <= hi (hyperbola mode); None means the full rectangle."""

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
        if min(self.H, self.M, self.N) < 1:
            raise ValueError("H, M, N must be positive integers")
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
    peak = float(np.max(np.abs(out))) if out.size else 0.0
    if peak > 1.0 + _COEFF_TOL:
        raise ValueError(f"{what} has modulus {peak:.6g} > 1")
    return out


def eval_exp_sum(inst: ExpSumInstance, workers: int = 1) -> complex:
    """The triple sum, chunked per h with a fixed inner m-block order, so the
    result is bit-identical for any worker count.

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
    peak = c0 * float(2 * H) ** inst.alpha / (mpow[0] * npow[0] + inst.delta)
    if peak > PHASE_GUARD:
        raise CapacityError(
            f"peak phase {peak:.3g} exceeds the precision guard 2^46"
        )
    b = _checked_coeffs(inst.coeff_b(n), "coeff_b")
    row_block = max(1, _INNER_TERMS // N)
    clip = inst.mn_clip

    def h_chunk(lo, hi):
        total = 0.0 + 0.0j
        for ih in range(lo, hi):
            h = H + 1 + ih
            ph = c0 * float(h) ** inst.alpha
            a_row = _checked_coeffs(inst.coeff_a(h, m), f"coeff_a at h={h}")
            for s in range(0, M, row_block):
                e = s + min(row_block, M - s)
                theta = ph / (mpow[s:e, np.newaxis] * npow[np.newaxis, :] + inst.delta)
                theta = theta - np.floor(theta)
                term = a_row[s:e, np.newaxis] * (b[np.newaxis, :] * np.exp(2j * np.pi * theta))
                if clip is not None:
                    prod = m[s:e, np.newaxis] * n[np.newaxis, :]
                    term = np.where((prod > clip[0]) & (prod <= clip[1]), term, 0.0)
                total = total + complex(term.sum())
        return total

    return complex(chunked_tree_sum(H, h_chunk, 1, workers))


# ---------------------------------------------------------------------------
# reference bounds


def bound_value(inst: ExpSumInstance, which, pair: ExponentPair | None = None) -> float:
    """Numeric value of the selected bound shape, implied constant 1, with
    the instance's epsilon standing in for the arbitrarily small exponent.

    thm1 is the perturbation-aware shape with its K-dependence; fi89, rs06
    and sw are the delta = 0 literature shapes (sw is proven only for alpha
    outside {1, 2}, which is not enforced here); lwy is the exponent-pair
    shape valid for H <= M^{beta-1} N^gamma and 0 <= delta <= 1/epsilon."""
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
    if which is Bound.fi89:
        return hmn_eps * (
            (X / (H * M * N * N)) ** 0.25
            + N ** -0.3
            + (H * M) ** -0.25
            + N ** 0.1 / X ** 0.25
        )
    if which is Bound.rs06:
        return hmn_eps * (
            (X / (H * M * N * N)) ** 0.25
            + (H * M) ** -0.25
            + N ** -0.5
            + X ** -0.5
        )
    if which is Bound.sw:
        return hmn_eps * (
            (X ** 4 / (H ** 4 * M ** 4 * N ** 11)) ** (1.0 / 26.0)
            + (X / (H * M * N * N)) ** 0.25
            + N ** (-7.0 / 18.0)
            + (H * M) ** -0.25
            + X ** -0.5
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
    if pair is None:
        pair = ExponentPair(Fraction(1, 2), Fraction(1, 2))
    k, lam = float(pair.kappa), float(pair.lam)
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


def constant_coeff_a(value: complex = 1.0):
    def fn(h, m):
        return np.full(len(m), value, dtype=np.complex128)
    return fn


def constant_coeff_b(value: complex = 1.0):
    def fn(n):
        return np.full(len(n), value, dtype=np.complex128)
    return fn


def build_floor_scenario(x: float, D: int, delta: float, Hp: int, Hmax: int,
                         M: int, N: int, mode: str = "rectangle",
                         K: float | None = None) -> ExpSumInstance:
    """Instance matching one dyadic piece of the bilinear block sum.

    With alpha = beta = gamma = 1 and X = x*Hp/(M*N) the phase is exactly
    h*x/(m*n + delta).  coeff_a(h, m) = (Hp/h) Phi(h/(Hmax+1)) times the
    sup-normalized rough coefficient on the m block; coeff_b is the
    sup-normalized companion table on the n block.  h beyond Hmax (the
    truncated tail of the last dyadic block) gets coefficient 0, keeping the
    Phi argument inside (0, 1).

    mode 'rectangle' sums the full block product; 'hyperbola' clips to
    D < m*n <= 2D.  K defaults to the smallest admissible value for the
    given delta (nudged up by 1e-12 so the regime inequality is safely
    inside)."""
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
    m_idx = np.arange(M + 1, 2 * M + 1, dtype=np.int64)
    n_idx = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    a3 = np.array([tables.alpha(3, int(v)) for v in m_idx])
    a4 = np.array([tables.alpha(4, int(v)) for v in n_idx])
    sup3 = float(np.max(np.abs(a3))) or 1.0
    sup4 = float(np.max(np.abs(a4))) or 1.0
    a3 = a3 / sup3
    a4 = a4 / sup4
    phi_h = np.zeros(Hp + 1)
    for i in range(Hp + 1):
        h = Hp + 1 + i
        if h <= Hmax:
            phi_h[i] = (Hp / h) * vaaler_phi(h / (Hmax + 1))
    a4_c = a4.astype(np.complex128)

    def coeff_a(h, m):
        w = phi_h[h - Hp - 1]
        return (w * a3).astype(np.complex128)

    def coeff_b(n):
        return a4_c

    if K is None:
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
