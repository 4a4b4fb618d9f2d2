"""Counting near-coincidences among perturbed reciprocal and monomial values.

Four counts over dyadic blocks (A, 2A], each a unit-weight correlation
count of the dispersion inequality (bilinear_sieve): ordered member pairs
whose sup distance is within 1/X.  One pair kernel, sup_distance_blocks,
serves all four and both of bilinear_sieve's correlation sums.

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
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, require_integer

DEFAULT_TUPLE_BUDGET = 10 ** 9
BOUNDARY_BAND = 1e-12
_ROW_CHUNK = 512

# the parameters each kind of count takes: dio_report refuses any other set
KIND_PARAMS = {"B0": ("N", "beta", "X"), "B1": ("H", "M", "alpha", "beta", "X"),
               "B2": ("N", "gamma", "X"), "B3": ("N", "gamma", "X")}
MODES = ("endpoint", "scan")


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
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be a finite number > 0, got {self.beta!r}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be a finite number >= 0, got {self.delta!r}")
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
# the pair kernel


def sup_distance_blocks(hi: np.ndarray, lo: np.ndarray):
    """Yield (rows, d) over _ROW_CHUNK-row blocks of the ordered-pair matrix
    d[p, q] = max(hi_p - lo_q, hi_q - lo_p): the sup distance between two
    members with extrema hi >= lo.  For hi = lo = v this is exactly
    |v_p - v_q|, since float subtraction is antisymmetric.  Chunking over
    rows keeps memory flat; each block is a fresh array the caller may
    overwrite."""
    for start in range(0, len(hi), _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        d = hi[rows, np.newaxis] - lo[np.newaxis, :]
        yield rows, np.maximum(d, hi[np.newaxis, :] - lo[rows, np.newaxis], out=d)


def _scan_ms(spec: PerturbationSpec, mode: str) -> np.ndarray:
    if mode == "endpoint":
        # mu is monotone in m, every member is monotone in mu, so integer
        # extrema sit at the block endpoints
        if spec.M + 1 == 2 * spec.M:
            return np.array([spec.M + 1], dtype=np.int64)
        return np.array([spec.M + 1, 2 * spec.M], dtype=np.int64)
    # scan: every integer m of the block
    return np.arange(spec.M + 1, 2 * spec.M + 1, dtype=np.int64)


def _in_regime(spec: PerturbationSpec, N: int, gamma: float, X: float) -> bool:
    """The counting bounds for B2/B3 are stated for X <= U^-1 N^gamma; outside
    that window the count is still reported but nothing is asserted.  A U
    that underflows to 0 leaves the window unbounded."""
    return not (spec.U > 0 and X > float(N) ** gamma / spec.U)


def _check_tuples(what: str, tuples: int) -> None:
    if tuples > DEFAULT_TUPLE_BUDGET:
        raise CapacityError(
            f"{what} = {tuples} exceeds tuple budget {DEFAULT_TUPLE_BUDGET}")


# B2 members are the N^2 pair differences phi, B3 members the N values psi:
# each kind's table, and the label and exponent of its tuple budget
_MEMBER_TABLES = {"B2": (phi_pair_table, "N^4", 4), "B3": (psi_single_table, "N^2", 2)}


def _extrema(kind: str, mode: str, spec: PerturbationSpec | None,
             params: dict) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-member extrema (hi, lo) whose sup distances a count compares with
    1/X, and whether X is in the supported regime.  B0 and B1 members are
    single values, so hi = lo.  Inputs and the tuple budget are checked
    before any table is built."""
    X = params["X"]
    if not X > 0:
        raise ValueError("need X > 0")
    if kind == "B1":
        H, M, alpha, beta = params["H"], params["M"], params["alpha"], params["beta"]
        _check_tuples("(HM)^2", (H * M) ** 2)
        h = np.arange(H + 1, 2 * H + 1, dtype=np.float64) ** alpha
        m = np.arange(M + 1, 2 * M + 1, dtype=np.float64) ** beta
        vals = (h[:, np.newaxis] * m[np.newaxis, :]).ravel() / (float(H) ** alpha * float(M) ** beta)
        return vals, vals, True
    N = params["N"]
    if kind == "B0":
        _check_tuples("N^4", N ** 4)
        beta = params["beta"]
        n = np.arange(N + 1, 2 * N + 1, dtype=np.float64) ** beta / float(N) ** beta
        sums = (n[:, np.newaxis] + n[np.newaxis, :]).ravel()
        return sums, sums, True
    gamma = params["gamma"]
    if not gamma > 0:
        raise ValueError("need gamma > 0")
    tabulate, budget, power = _MEMBER_TABLES[kind]
    _check_tuples(budget, N ** power)
    in_regime = _in_regime(spec, N, gamma, X)
    table = tabulate(N, gamma, spec, _scan_ms(spec, mode))
    return table.max(axis=1), table.min(axis=1), in_regime


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


def _given(kind: str, params: dict) -> str:
    return ", ".join(f"{k} = {params[k]!r}" for k in KIND_PARAMS[kind])


def dio_report(kind: str, *, eps: float = 0.1, mode: str = "endpoint",
               spec: PerturbationSpec | None = None, **params) -> DioResult:
    """Count + bound + boundary tally in one record: the one way to count.

    params are exactly KIND_PARAMS[kind]; B2 and B3 also need a spec, B0
    and B1 take none.  A block size H, M or N must be an integer >= 1.  A
    non-finite exponent, X or eps is refused (the spec refuses its own),
    and so are parameters whose powers overflow a double: every comparison
    with NaN is false, so the count would read 0 and pass."""
    if kind not in KIND_PARAMS:
        raise ValueError(f"unknown kind {kind!r}; use one of {', '.join(KIND_PARAMS)}")
    missing = [k for k in KIND_PARAMS[kind] if k not in params]
    if missing:
        raise ValueError(f"{kind} needs {', '.join(missing)}")
    unexpected = [k for k in params if k not in KIND_PARAMS[kind]]
    if unexpected:
        raise ValueError(f"{kind} takes no {', '.join(unexpected)}; "
                         f"it takes {', '.join(KIND_PARAMS[kind])}")
    if kind in _MEMBER_TABLES and spec is None:
        raise ValueError(f"{kind} needs a perturbation spec (see default_spec)")
    if kind not in _MEMBER_TABLES and spec is not None:
        raise ValueError(f"{kind} takes no perturbation spec")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; use 'endpoint' or 'scan'")
    for name in ("H", "M", "N"):
        if name in params:
            params[name] = require_integer(name, params[name], 1)
    checked = {k: params[k] for k in ("alpha", "beta", "gamma", "X") if k in params}
    checked["eps"] = eps
    for name, value in checked.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    try:
        # an overflow to inf is refused below, with the NaN it makes
        with np.errstate(over="ignore", invalid="ignore"):
            hi, lo, in_regime = _extrema(kind, mode, spec, params)
        bound = dio_bound(kind, eps=eps, H=params.get("H"), M=params.get("M"),
                          N=params.get("N"), X=params["X"])
    except OverflowError:
        raise ValueError(f"{kind}: a power overflows a double at "
                         f"{_given(kind, params)}, eps = {eps!r}") from None
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise ValueError(f"{kind}: member values overflow a double at {_given(kind, params)}")
    threshold = 1.0 / params["X"]
    count = boundary = 0
    for _, d in sup_distance_blocks(hi, lo):
        count += int(np.count_nonzero(d <= threshold))
        d -= threshold  # |d - threshold| in place, on a block that is ours
        boundary += int(np.count_nonzero(np.abs(d, out=d) <= BOUNDARY_BAND))
    echo = dict(params)
    if spec is not None:
        echo.update(beta_spec=spec.beta, delta=spec.delta, M_spec=spec.M, kind_spec=spec.kind,
                    mode=mode, in_regime=in_regime)
    return DioResult(
        kind=kind,
        count=count,
        bound=bound,
        fitted_constant=count / bound if bound > 0 else float("inf"),
        boundary=boundary,
        in_regime=in_regime,
        params=echo,
    )

