"""Double large sieve for bilinear forms with function-valued frequencies.

The objects checked here are

    B = sum_phi sum_y a(phi) b(y) e(phi(y) * y)

over a finite family of bounded functions phi (|phi| <= X, given by
evaluation tables over the point set) and points |y| <= Y with coefficients
of modulus at most 1, together with the two correlation counts

    corr_pts(eta)  = sum over |y - y*| <= eta of |b(y) b(y*)|,
    corr_fn(thr)   = sum over pairs with sup_{y1,y2} |phi(y1) - phi*(y2)| <= thr
                     of |a(phi) a(phi*)|.

Note the function distance takes the sup over independent arguments, so the
"distance" of a member to itself is its oscillation and the diagonal only
enters corr_fn when osc(phi) <= thr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith_core import chunked_tree_sum, unit_phases
from .diophantine_count import phi_pair_table, psi_single_table, sup_distance_blocks
from .errors import (COEFF_TOL, RejectedInstanceError, TabulationMismatchError, check_peak,
                     check_phase)
from .reports import ReportRow

_ROW_CHUNK = 16


@dataclass(frozen=True)
class PointSet:
    """Finite set of reals with |y| <= Y and complex weights |b| <= 1."""

    points: np.ndarray
    coeffs: np.ndarray
    Y: float

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.complex128))
        if self.points.ndim != 1 or self.points.shape != self.coeffs.shape:
            raise ValueError("points and coeffs must be matching 1-d arrays")
        if not self.Y > 0:
            raise ValueError("Y must be positive")
        if len(self.points) == 0:
            raise ValueError("point set must be nonempty")
        check_peak(self.points, self.Y * (1 + 1e-12), "points")
        check_peak(self.coeffs, 1 + COEFF_TOL, "point coefficients")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FunctionFamily:
    """Functions tabulated over a companion point set.

    table[j, i] is member j evaluated at point i; sup |table| <= X and the
    member coefficients have modulus at most 1.
    """

    table: np.ndarray
    coeffs: np.ndarray
    X: float

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=np.float64))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.complex128))
        if self.table.ndim != 2 or self.table.shape[0] != len(self.coeffs):
            raise ValueError("table must be (members, points) with one coefficient per member")
        if not self.X > 0:
            raise ValueError("X must be positive")
        if self.table.shape[0] == 0:
            raise ValueError("family must be nonempty")
        check_peak(self.table, self.X * (1 + 1e-12), "member values")
        check_peak(self.coeffs, 1 + COEFF_TOL, "member coefficients")

    @property
    def oscillations(self) -> np.ndarray:
        return self.table.max(axis=1) - self.table.min(axis=1)

    def __len__(self) -> int:
        return self.table.shape[0]


def bilinear_form(family: FunctionFamily, points: PointSet, workers: int = 1) -> complex:
    """sum_j sum_i a_j b_i e(table[j,i] * y_i), deterministically chunked
    over member rows.  Each phase is reduced mod 1 before exp; a run whose
    phase bound X * Y exceeds 2^46 is refused first, like eval_exp_sum's."""
    if family.table.shape[1] != len(points):
        raise TabulationMismatchError(
            f"family tabulated over {family.table.shape[1]} points, "
            f"point set has {len(points)}"
        )
    check_phase(family.X * points.Y, "phase")
    y = points.points
    b = points.coeffs

    def chunk(lo, hi):
        phases = unit_phases(family.table[lo:hi] * y[np.newaxis, :])
        return (family.coeffs[lo:hi, np.newaxis] * b[np.newaxis, :] * phases).sum()

    return complex(chunked_tree_sum(len(family), chunk, _ROW_CHUNK, workers))


def _weighted_close_pairs(hi: np.ndarray, lo: np.ndarray, w: np.ndarray,
                          threshold: float) -> float:
    """Sum of w_p w_q over ordered pairs within threshold in the sup
    distance of diophantine_count's pair kernel."""
    total = 0.0
    for rows, d in sup_distance_blocks(hi, lo):
        total += float(np.sum((d <= threshold) * (w[rows, np.newaxis] * w[np.newaxis, :])))
    return total


def correlation_points(points: PointSet, eta: float) -> float:
    """Weighted count of ordered point pairs within eta (diagonal included)."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    y = points.points
    return _weighted_close_pairs(y, y, np.abs(points.coeffs), eta)


def correlation_functions(family: FunctionFamily, threshold: float) -> float:
    """Weighted count of ordered member pairs with
    sup_{y1,y2} |phi(y1) - phi*(y2)| <= threshold.

    That sup equals max(max phi - min phi*, max phi* - min phi), so only the
    per-member extrema are needed.  A member pairs with itself only when its
    oscillation is within the threshold.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    return _weighted_close_pairs(family.table.max(axis=1), family.table.min(axis=1),
                                 np.abs(family.coeffs), threshold)


def _mean_square_integral(y: np.ndarray, b: np.ndarray, T: float) -> float:
    """sum_{y,y*} b(y) conj(b(y*)) sin(2 pi T (y - y*)) / (pi (y - y*)),
    diagonal 2T.  The n x n kernel is built in place, so at most one float
    and one complex n x n matrix are alive at once."""
    d = y[:, np.newaxis] - y[np.newaxis, :]
    diag = d == 0.0
    kernel = d * (2.0 * np.pi * T)
    np.sin(kernel, out=kernel)
    d[diag] = 1.0
    d *= np.pi
    kernel /= d
    del d
    kernel[diag] = 2.0 * T
    terms = b[:, np.newaxis] * np.conj(b[np.newaxis, :])
    terms *= kernel
    return float(np.real(np.sum(terms)))


def lemma21_check(points: PointSet, T: float, eta: float, seed: int | None = None) -> ReportRow:
    """Spacing inequality for the mean square of a trigonometric sum.

    LHS is the exact integral over [-T, T] of |sum_y b(y) e(t y)|^2, expanded
    through the kernel integral of e((y - y*) t):

        LHS = sum_{y,y*} b(y) conj(b(y*)) sin(2 pi T (y - y*)) / (pi (y - y*)),

    with diagonal value 2T.  RHS = (2T + 1/eta) * corr_pts(eta).
    """
    if not T > 0:
        raise ValueError("T must be positive")
    if not eta > 0:
        raise ValueError("eta must be positive")
    lhs = _mean_square_integral(points.points, points.coeffs, T)
    rhs = (2.0 * T + 1.0 / eta) * correlation_points(points, eta)
    params = {"n": len(points), "T": T, "eta": eta, "Y": points.Y}
    return ReportRow("lemma21", "", params, lhs, rhs, lhs <= rhs * (1.0 + 1e-9), seed=seed)


def dls_proof_constant(K: float) -> float:
    """Explicit constant for the double large sieve ratio assertion.

    Derivation (fully explicit smoothing argument; K >= 1 throughout).
    Put eps = 1/(4Y), T = X + eps, and recover each phase from a window
    integral:

        e(phi(y) y) = w(y) * Integral_{phi(y)-eps}^{phi(y)+eps} e(t y) dt,
        w(y) = pi y / sin(2 pi eps y),  |w(y)| <= pi Y on |y| <= Y.

    Cauchy-Schwarz in t over [-T, T] factors |B|^2 into:

      (a) the function factor.  For each member the admissible t-window
          {t : sup_y |phi(y) - t| <= K/(2Y)} has length at most K/Y, and two
          members sharing a t lie within K/Y of each other in the sup
          distance, so the factor is at most (K/Y) * corr_fn(K/Y).
          (The osc(phi) < K/(4Y) precondition is what puts every y-term of a
          member inside that common window.)

      (b) the point factor.  The spacing inequality at eta = 1/X applied to
          the w-weighted coefficients gives at most
          (2T + X) * (pi Y)^2 * corr_pts(1/X) = (3X + 1/(2Y)) (pi Y)^2 corr_pts.

    Multiplying: |B|^2 <= pi^2 (3 K X Y + K/2) corr_pts corr_fn.  Dividing by
    the reported reference (1 + K X Y) corr_pts corr_fn, the quotient
    pi^2 (3u + K/2)/(1 + u) with u = KXY is at most pi^2 max(3, K/2).
    """
    if not 1 <= K < math.inf:  # NaN fails too
        raise ValueError("K must be >= 1 and finite")
    return math.pi ** 2 * max(3.0, K / 2.0)


def dls_check(
    family: FunctionFamily,
    points: PointSet,
    K: float,
    workers: int = 1,
    seed: int | None = None,
) -> ReportRow:
    """Compare |B|^2 against (1 + K X Y) * corr_pts(1/X) * corr_fn(K/Y).

    The reported ratio is certified to stay below dls_proof_constant(K);
    callers assert that.  Members oscillating by K/(4Y) or more are rejected.
    """
    constant = dls_proof_constant(K)
    cap = K / (4.0 * points.Y)
    osc = family.oscillations
    bad = np.flatnonzero(~(osc < cap))
    if len(bad):
        j = int(bad[0])
        raise RejectedInstanceError(
            f"member {j} oscillates by {osc[j]:.6g}, not below K/(4Y) = {cap:.6g}"
        )
    B = bilinear_form(family, points, workers=workers)
    lhs = abs(B) ** 2
    rhs = (
        (1.0 + K * family.X * points.Y)
        * correlation_points(points, 1.0 / family.X)
        * correlation_functions(family, K / points.Y)
    )
    params = {"members": len(family), "n": len(points), "K": K, "X": family.X, "Y": points.Y}
    row = ReportRow("dls", "", params, lhs, rhs, seed=seed)
    # the pass verdict is the proof-constant assertion, not lhs <= rhs
    row.passed = row.ratio <= constant
    return row


# ---------------------------------------------------------------------------
# scenario builders: families arising from perturbed reciprocal phases


def max_safe_delta(M: int, N: int, X: float, alpha: float, beta: float, gamma: float, K: float) -> float:
    """Largest perturbation delta for which the oscillation precondition
    osc(phi) < K/(4Y) is guaranteed on the (M, N) blocks with Y = 2^alpha X.

    The oscillation of each member over m in (M, 2M] is strictly below
    2 delta M^-beta / N^gamma, so delta <= K M^beta N^gamma / (2^(3+alpha) X)
    suffices."""
    return K * M ** beta * N ** gamma / (2.0 ** (3.0 + alpha) * X)


def scenario_points(H: int, M: int, X: float, alpha: float, beta: float) -> PointSet:
    """Points y_{h,m} = X (h/H)^alpha (M/m)^beta over (H,2H] x (M,2M],
    flattened in (h, m) order, each with coefficient 1; |y| <= 2^alpha X."""
    h = np.arange(H + 1, 2 * H + 1, dtype=np.float64)
    m = np.arange(M + 1, 2 * M + 1, dtype=np.float64)
    y = X * np.outer((h / H) ** alpha, (M / m) ** beta).ravel()
    return PointSet(points=y, coeffs=np.ones(y.shape, dtype=np.complex128),
                    Y=(2.0 ** alpha) * X)


def pair_difference_family(N: int, gamma: float, spec, points_m: np.ndarray) -> FunctionFamily:
    """Members phi_{n1,n2}(m) = N^g/(n1^g + mu(m)) - N^g/(n2^g + mu(m)) for
    ordered (n1, n2) in (N,2N]^2, tabulated at the m-coordinate of each
    point; every member has coefficient 1."""
    table = phi_pair_table(N, gamma, spec, points_m)
    return FunctionFamily(table=table, coeffs=np.ones(N * N), X=1.0)


def reciprocal_family(N: int, gamma: float, spec, points_m: np.ndarray) -> FunctionFamily:
    """Members psi_n(m) = N^g/(n^g + nu(m)) for n in (N,2N], tabulated at the
    m-coordinate of each point; every member has coefficient 1."""
    table = psi_single_table(N, gamma, spec, points_m)
    return FunctionFamily(table=table, coeffs=np.ones(N), X=1.0)


def scenario_m_coordinates(H: int, M: int) -> np.ndarray:
    """m-coordinate of each flattened (h, m) point, aligned with
    scenario_points."""
    m = np.arange(M + 1, 2 * M + 1, dtype=np.int64)
    return np.tile(m, H)
