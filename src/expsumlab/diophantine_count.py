"""Counting near-coincidences among perturbed reciprocal and monomial values.

Four counters over dyadic blocks (A, 2A]:

  B0: quadruples (n1..n4) with |n1^b + n2^b - n3^b - n4^b| / N^b <= 1/X.
  B1: quadruples (h1,h2,m1,m2) with |h1^a m1^b - h2^a m2^b|/(H^a M^b) <= 1/X.
  B2: quadruples (n1..n4) with
        sup_{m1,m2 in (M,2M]} |phi_{n1,n2}(m1) - phi_{n3,n4}(m2)| <= 1/X,
      phi_{s,t}(m) = N^g/(s^g + mu(m)) - N^g/(t^g + mu(m)), mu(m) = d m^-b.
  B3: pairs (n1,n2) with sup_{m1,m2} |psi_{n1}(m1) - psi_{n2}(m2)| <= 1/X,
      psi_n(m) = N^g/(n^g + nu(m)).

Since mu is monotone on (M, 2M] and each member is monotone in mu, the sups
in B2/B3 are attained at the integer endpoints m in {M+1, 2M}; a full scan
over all integer m is kept as a cross-checking mode and must agree exactly.

Comparisons are double precision; values within 1e-12 of the threshold are
tallied separately as boundary cases and surfaced in DioResult.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_TUPLE_BUDGET = 10 ** 9
BOUNDARY_BAND = 1e-12
_ROW_CHUNK = 512


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation mu(m) = delta * m^-beta evaluated on the block (M, 2M].

    For delta > 0 the values lie in (0, U] with U = delta * M^-beta, and U
    must not exceed 1.  kind tags which symbol ('mu' or 'nu') this record
    stands in for; both share the same functional form.
    """

    beta: float
    delta: float
    M: int
    kind: str = "mu"

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.kind not in ("mu", "nu"):
            raise ValueError("kind must be 'mu' or 'nu'")
        if self.delta > 0 and self.U > 1.0:
            raise ValueError(
                f"U = delta * M^-beta = {self.U:.6g} exceeds 1; shrink delta"
            )

    @property
    def U(self) -> float:
        return self.delta * float(self.M) ** (-self.beta)

    def value(self, m) -> float:
        return self.delta * float(m) ** (-self.beta)

    def values(self, ms) -> np.ndarray:
        return self.delta * np.asarray(ms, dtype=np.float64) ** (-self.beta)


DEFAULT_DELTAS = {"B2": 0.3, "B3": 0.5}


def default_spec(kind: str, N: int, beta: float = 1.0,
                 delta: float | None = None) -> PerturbationSpec | None:
    """The perturbation a B2 (mu) or B3 (nu) count uses on the block (N, 2N],
    with delta from DEFAULT_DELTAS unless given; None for B0 and B1."""
    if kind not in DEFAULT_DELTAS:
        return None
    delta = DEFAULT_DELTAS[kind] if delta is None else delta
    return PerturbationSpec(beta=beta, delta=delta, M=N,
                            kind="mu" if kind == "B2" else "nu")


def phi_pair(n_s: int, n_t: int, m: int, spec: PerturbationSpec, N: int, gamma: float) -> float:
    """N^g/(n_s^g + mu(m)) - N^g/(n_t^g + mu(m))."""
    mu = spec.value(m)
    ng = float(N) ** gamma
    return ng / (float(n_s) ** gamma + mu) - ng / (float(n_t) ** gamma + mu)


def psi_single(n: int, m: int, spec: PerturbationSpec, N: int, gamma: float) -> float:
    """N^g/(n^g + nu(m))."""
    return float(N) ** gamma / (float(n) ** gamma + spec.value(m))


def phi_pair_table(N: int, gamma: float, spec: PerturbationSpec, ms) -> np.ndarray:
    """Rows indexed by ordered (n_s, n_t) in (N,2N]^2 (n_s-major), columns by
    the given m values."""
    ms = np.asarray(ms, dtype=np.float64)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.float64)
    recip = float(N) ** gamma / (n[:, np.newaxis] ** gamma + spec.values(ms)[np.newaxis, :])
    return (recip[:, np.newaxis, :] - recip[np.newaxis, :, :]).reshape(N * N, len(ms))


def psi_single_table(N: int, gamma: float, spec: PerturbationSpec, ms) -> np.ndarray:
    ms = np.asarray(ms, dtype=np.float64)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.float64)
    return float(N) ** gamma / (n[:, np.newaxis] ** gamma + spec.values(ms)[np.newaxis, :])


# ---------------------------------------------------------------------------
# pair counting over a shared value vector


def _count_close_pairs(values: np.ndarray, threshold: float) -> tuple[int, int]:
    """Ordered pairs (i, j) with |v_i - v_j| <= threshold, plus the count of
    pairs within BOUNDARY_BAND of the threshold.  Chunked over rows to keep
    memory flat."""
    n = len(values)
    count = 0
    boundary = 0
    for lo in range(0, n, _ROW_CHUNK):
        d = np.abs(values[lo: lo + _ROW_CHUNK, np.newaxis] - values[np.newaxis, :])
        count += int(np.count_nonzero(d <= threshold))
        boundary += int(np.count_nonzero(np.abs(d - threshold) <= BOUNDARY_BAND))
    return count, boundary


def _count_twosided(hi: np.ndarray, lo: np.ndarray, threshold: float) -> tuple[int, int]:
    """Ordered pairs (p, q) with max(hi_p - lo_q, hi_q - lo_p) <= threshold."""
    n = len(hi)
    count = 0
    boundary = 0
    for start in range(0, n, _ROW_CHUNK):
        sl = slice(start, start + _ROW_CHUNK)
        d = np.maximum(
            hi[sl, np.newaxis] - lo[np.newaxis, :],
            hi[np.newaxis, :] - lo[sl, np.newaxis],
        )
        count += int(np.count_nonzero(d <= threshold))
        boundary += int(np.count_nonzero(np.abs(d - threshold) <= BOUNDARY_BAND))
    return count, boundary


def _member_extrema(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return table.max(axis=1), table.min(axis=1)


def _scan_ms(spec: PerturbationSpec, mode: str) -> np.ndarray:
    if mode == "endpoint":
        # mu is monotone in m, every member is monotone in mu, so integer
        # extrema sit at the block endpoints
        if spec.M + 1 == 2 * spec.M:
            return np.array([spec.M + 1], dtype=np.int64)
        return np.array([spec.M + 1, 2 * spec.M], dtype=np.int64)
    if mode == "scan":
        return np.arange(spec.M + 1, 2 * spec.M + 1, dtype=np.int64)
    raise ValueError(f"unknown mode {mode!r}; use 'endpoint' or 'scan'")


def _regime_warn(spec: PerturbationSpec, N: int, gamma: float, X: float) -> bool:
    """The counting bounds for B2/B3 are stated for X <= U^-1 N^gamma; outside
    that window the count is still reported but nothing is asserted."""
    if spec.delta > 0 and X > float(N) ** gamma / spec.U:
        warnings.warn(
            f"X = {X:.6g} outside supported window X <= U^-1 N^gamma "
            f"= {float(N) ** gamma / spec.U:.6g}; count reported, bound not asserted",
            stacklevel=3,
        )
        return False
    return True


# ---------------------------------------------------------------------------
# counters


def _check_tuples(what: str, tuples: int) -> None:
    if tuples > DEFAULT_TUPLE_BUDGET:
        raise CapacityError(
            f"{what} = {tuples} exceeds tuple budget {DEFAULT_TUPLE_BUDGET}")


def _count_b0(N: int, beta: float, X: float) -> tuple[int, int]:
    if N < 1 or not X > 0:
        raise ValueError("need N >= 1 and X > 0")
    _check_tuples("N^4", N ** 4)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.float64) ** beta / float(N) ** beta
    sums = (n[:, np.newaxis] + n[np.newaxis, :]).ravel()
    return _count_close_pairs(sums, 1.0 / X)


def count_B0(N: int, beta: float, X: float) -> int:
    return _count_b0(N, beta, X)[0]


def _count_b1(H: int, M: int, alpha: float, beta: float, X: float) -> tuple[int, int]:
    if H < 1 or M < 1 or not X > 0:
        raise ValueError("need H, M >= 1 and X > 0")
    _check_tuples("(HM)^2", (H * M) ** 2)
    h = np.arange(H + 1, 2 * H + 1, dtype=np.float64) ** alpha
    m = np.arange(M + 1, 2 * M + 1, dtype=np.float64) ** beta
    vals = (h[:, np.newaxis] * m[np.newaxis, :]).ravel() / (float(H) ** alpha * float(M) ** beta)
    return _count_close_pairs(vals, 1.0 / X)


def count_B1(H: int, M: int, alpha: float, beta: float, X: float) -> int:
    return _count_b1(H, M, alpha, beta, X)[0]


def _count_b2(N: int, gamma: float, X: float, spec: PerturbationSpec,
              mode: str) -> tuple[int, int, bool]:
    if N < 1 or not X > 0 or not gamma > 0:
        raise ValueError("need N >= 1, gamma > 0 and X > 0")
    _check_tuples("N^4", N ** 4)
    in_regime = _regime_warn(spec, N, gamma, X)
    table = phi_pair_table(N, gamma, spec, _scan_ms(spec, mode))
    hi, lo = _member_extrema(table)
    count, boundary = _count_twosided(hi, lo, 1.0 / X)
    return count, boundary, in_regime


def count_B2(N: int, gamma: float, X: float, spec: PerturbationSpec,
             mode: str = "endpoint") -> int:
    return _count_b2(N, gamma, X, spec, mode)[0]


def _count_b3(N: int, gamma: float, X: float, spec: PerturbationSpec,
              mode: str) -> tuple[int, int, bool]:
    if N < 1 or not X > 0 or not gamma > 0:
        raise ValueError("need N >= 1, gamma > 0 and X > 0")
    _check_tuples("N^2", N ** 2)
    in_regime = _regime_warn(spec, N, gamma, X)
    table = psi_single_table(N, gamma, spec, _scan_ms(spec, mode))
    hi, lo = _member_extrema(table)
    count, boundary = _count_twosided(hi, lo, 1.0 / X)
    return count, boundary, in_regime


def count_B3(N: int, gamma: float, X: float, spec: PerturbationSpec,
             mode: str = "endpoint") -> int:
    return _count_b3(N, gamma, X, spec, mode)[0]


# ---------------------------------------------------------------------------
# reference bounds


def dio_bound(kind: str, *, eps: float = 0.1, H: int | None = None, M: int | None = None,
              N: int | None = None, X: float | None = None) -> float:
    """Reference upper-bound shapes the counts are compared against.

    B1: (HM)^(2+eps) (1/(HM) + 1/X); B0, B2: N^(4+eps) (1/N^2 + 1/X);
    B3: N^2 (1/N + 1/X) with no eps factor."""
    if kind == "B1":
        if H is None or M is None or X is None:
            raise ValueError("B1 bound needs H, M, X")
        hm = float(H * M)
        return hm ** (2.0 + eps) * (1.0 / hm + 1.0 / X)
    if kind in ("B0", "B2"):
        if N is None or X is None:
            raise ValueError(f"{kind} bound needs N, X")
        return float(N) ** (4.0 + eps) * (1.0 / float(N) ** 2 + 1.0 / X)
    if kind == "B3":
        if N is None or X is None:
            raise ValueError("B3 bound needs N, X")
        return float(N) ** 2 * (1.0 / float(N) + 1.0 / X)
    raise ValueError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class DioResult:
    kind: str
    count: int
    bound: float
    fitted_constant: float
    boundary: int
    in_regime: bool
    params: dict


def dio_report(kind: str, *, eps: float = 0.1, mode: str = "endpoint",
               spec: PerturbationSpec | None = None, **params) -> DioResult:
    """Count + bound + boundary tally in one record.

    A non-finite exponent, X or perturbation delta is refused: every
    comparison with NaN is false, so the count would read 0 and pass."""
    checked = {k: params[k] for k in ("alpha", "beta", "gamma", "X") if k in params}
    if spec is not None:
        checked["delta"] = spec.delta
    for name, value in checked.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    in_regime = True
    if kind == "B0":
        count, boundary = _count_b0(params["N"], params["beta"], params["X"])
        bound = dio_bound("B0", eps=eps, N=params["N"], X=params["X"])
    elif kind == "B1":
        count, boundary = _count_b1(
            params["H"], params["M"], params["alpha"], params["beta"], params["X"]
        )
        bound = dio_bound("B1", eps=eps, H=params["H"], M=params["M"], X=params["X"])
    elif kind == "B2":
        count, boundary, in_regime = _count_b2(
            params["N"], params["gamma"], params["X"], spec, mode
        )
        bound = dio_bound("B2", eps=eps, N=params["N"], X=params["X"])
    elif kind == "B3":
        count, boundary, in_regime = _count_b3(
            params["N"], params["gamma"], params["X"], spec, mode
        )
        bound = dio_bound("B3", eps=eps, N=params["N"], X=params["X"])
    else:
        raise ValueError(f"unknown kind {kind!r}")
    echo = dict(params)
    if spec is not None:
        echo.update(beta_spec=spec.beta, delta=spec.delta, M_spec=spec.M, kind_spec=spec.kind)
    return DioResult(
        kind=kind,
        count=count,
        bound=bound,
        fitted_constant=count / bound if bound > 0 else float("inf"),
        boundary=boundary,
        in_regime=in_regime,
        params=echo,
    )
