import cmath
import math

import numpy as np
import pytest

from expsumlab import bilinear_sieve as bs
from expsumlab.diophantine_count import PerturbationSpec
from expsumlab.errors import CapacityError, RejectedInstanceError, TabulationMismatchError
from expsumlab.seeding import DetRand


def _random_instance(seed, members=8, npts=16):
    rng = DetRand(seed)
    Y = 2.0
    X = 1.5
    pts = bs.PointSet(points=rng.uniform_array(npts, -Y, Y),
                      coeffs=np.array([rng.complex_in_disc() for _ in range(npts)]),
                      Y=Y)
    table = np.array([rng.uniform_array(npts, -X, X) for _ in range(members)])
    fam = bs.FunctionFamily(table=table,
                            coeffs=np.array([rng.complex_in_disc() for _ in range(members)]),
                            X=X)
    return fam, pts


def test_bilinear_form_naive_oracle():
    fam, pts = _random_instance(42)
    got = bs.bilinear_form(fam, pts)
    want = 0j
    for j in range(len(fam)):
        for i in range(len(pts)):
            want += (fam.coeffs[j] * pts.coeffs[i]
                     * cmath.exp(2j * math.pi * fam.table[j, i] * pts.points[i]))
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_bilinear_form_single_entry():
    pts = bs.PointSet(points=np.array([1.0]), coeffs=np.array([1.0]), Y=1.0)
    fam = bs.FunctionFamily(table=np.array([[0.25]]), coeffs=np.array([1.0]), X=1.0)
    got = bs.bilinear_form(fam, pts)
    assert got == pytest.approx(1j, abs=1e-14)


def _one_pair(y, phi):
    pts = bs.PointSet(points=np.array([y]), coeffs=np.array([1.0]), Y=y)
    fam = bs.FunctionFamily(table=np.array([[phi]]), coeffs=np.array([1.0]), X=1.0)
    return fam, pts


def test_bilinear_form_refuses_phases_past_the_guard():
    # 2^60 * 0.3 is an exact integer, so the true term is 1, but at that
    # size a double keeps no fractional bit of the phase: refuse, as
    # eval_exp_sum does
    fam, pts = _one_pair(2.0 ** 60, 0.3)
    with pytest.raises(CapacityError, match="peak phase"):
        bs.bilinear_form(fam, pts)
    with pytest.raises(CapacityError, match="peak phase"):
        bs.dls_check(fam, pts, K=1.0)


def test_bilinear_form_integer_phase_is_exactly_one():
    # 2^40 * 0.75 is an integer: the phase reduces to 0 before exp
    fam, pts = _one_pair(2.0 ** 40, 0.75)
    assert bs.bilinear_form(fam, pts) == 1 + 0j


def test_bilinear_form_constant_member_factorizes():
    rng = DetRand(5)
    pts = bs.PointSet(points=rng.uniform_array(9, 0.0, 1.0),
                      coeffs=np.array([rng.complex_in_disc() for _ in range(9)]),
                      Y=1.0)
    c = 0.4
    fam = bs.FunctionFamily(table=np.full((1, 9), c), coeffs=np.array([1.0]), X=1.0)
    got = bs.bilinear_form(fam, pts)
    want = np.sum(pts.coeffs * np.exp(2j * np.pi * c * pts.points))
    assert abs(got - complex(want)) <= 1e-13


def test_bilinear_form_worker_invariance():
    fam, pts = _random_instance(7, members=40, npts=23)
    b1 = bs.bilinear_form(fam, pts, workers=1)
    b2 = bs.bilinear_form(fam, pts, workers=2)
    b8 = bs.bilinear_form(fam, pts, workers=8)
    assert b1 == b2 == b8


def test_tabulation_mismatch():
    fam, pts = _random_instance(9)
    short = bs.PointSet(points=pts.points[:-1], coeffs=pts.coeffs[:-1], Y=pts.Y)
    with pytest.raises(TabulationMismatchError):
        bs.bilinear_form(fam, short)


def test_coefficient_bound_enforced():
    with pytest.raises(ValueError):
        bs.PointSet(points=np.array([0.1]), coeffs=np.array([1.5]), Y=1.0)
    with pytest.raises(ValueError):
        bs.FunctionFamily(table=np.array([[2.0]]), coeffs=np.array([1.0]), X=1.0)


@pytest.mark.parametrize("build", [
    lambda: bs.PointSet(points=[0.1, 0.2], coeffs=[math.nan, 1.0], Y=1.0),
    lambda: bs.PointSet(points=[math.nan, 0.2], coeffs=[1.0, 1.0], Y=1.0),
    lambda: bs.FunctionFamily(table=[[math.nan, 0.1]], coeffs=[1.0], X=1.0),
    lambda: bs.FunctionFamily(table=[[0.0, 0.1]], coeffs=[complex(math.nan, 0.0)], X=1.0),
], ids=["point_coeff", "point", "member_value", "member_coeff"])
def test_nan_refused_by_bound_checks(build):
    with pytest.raises(ValueError, match="peak modulus nan"):
        build()


def test_correlation_points_oracle():
    fam, pts = _random_instance(21)
    eta = 0.3
    got = bs.correlation_points(pts, eta)
    want = 0.0
    w = np.abs(pts.coeffs)
    for i in range(len(pts)):
        for j in range(len(pts)):
            if abs(pts.points[i] - pts.points[j]) <= eta:
                want += w[i] * w[j]
    assert got == pytest.approx(want, rel=1e-12)
    # diagonal always present
    assert bs.correlation_points(pts, 1e-15) >= float(np.sum(w * w)) - 1e-12


def test_correlation_points_oracle_across_row_chunks():
    # more points than one 512-row block of the pair kernel
    rng = DetRand(23)
    n = 700
    pts = bs.PointSet(points=rng.uniform_array(n, -2.0, 2.0),
                      coeffs=np.array([rng.complex_in_disc() for _ in range(n)]), Y=2.0)
    eta = 0.01
    y = pts.points.tolist()
    w = np.abs(pts.coeffs).tolist()
    want = 0.0
    for i in range(n):
        for j in range(n):
            if abs(y[i] - y[j]) <= eta:
                want += w[i] * w[j]
    assert bs.correlation_points(pts, eta) == pytest.approx(want, rel=1e-12)


def test_correlation_functions_oracle():
    fam, pts = _random_instance(22, members=6)
    hi = fam.table.max(axis=1)
    lo = fam.table.min(axis=1)
    w = np.abs(fam.coeffs)
    for thr in (0.8, 2.8, 2.95):
        got = bs.correlation_functions(fam, thr)
        want = 0.0
        for p in range(len(fam)):
            for q in range(len(fam)):
                if max(hi[p] - lo[q], hi[q] - lo[p]) <= thr:
                    want += w[p] * w[q]
        assert got == pytest.approx(want, rel=1e-12)


def test_correlation_functions_diagonal_needs_small_oscillation():
    fam = bs.FunctionFamily(table=np.array([[0.0, 0.9]]), coeffs=np.array([1.0]), X=1.0)
    assert bs.correlation_functions(fam, 0.5) == 0.0
    assert bs.correlation_functions(fam, 0.95) == 1.0


def test_lemma21_singleton_diagonal():
    pts = bs.PointSet(points=np.array([0.4]), coeffs=np.array([1.0]), Y=1.0)
    rep = bs.lemma21_check(pts, T=3.0, eta=0.1)
    assert rep.lhs == pytest.approx(2.0 * 3.0, abs=1e-12)
    assert rep.rhs == pytest.approx((6.0 + 10.0) * 1.0, abs=1e-12)
    assert rep.passed


def test_lemma21_refuses_nonpositive_eta():
    # 1/eta is formed for the right-hand side, so eta is checked first
    pts = bs.PointSet(points=np.array([0.4]), coeffs=np.array([1.0]), Y=1.0)
    for eta in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="eta must be positive"):
            bs.lemma21_check(pts, T=1.0, eta=eta)


def test_lemma21_kernel_oracle():
    rng = DetRand(31)
    pts = bs.PointSet(points=rng.uniform_array(12, 0.0, 2.0),
                      coeffs=np.array([rng.complex_in_disc() for _ in range(12)]),
                      Y=2.0)
    T = 1.7
    rep = bs.lemma21_check(pts, T=T, eta=0.05)
    want = 0.0
    for i in range(12):
        for j in range(12):
            d = pts.points[i] - pts.points[j]
            k = 2.0 * T if d == 0 else math.sin(2.0 * math.pi * T * d) / (math.pi * d)
            want += (pts.coeffs[i] * np.conj(pts.coeffs[j])).real * k
    assert rep.lhs == pytest.approx(want, rel=1e-10)


def test_lemma21_in_place_kernel_keeps_bits(peak_traced_bytes):
    # against the kernel built with fresh temporaries and np.where; in place
    # it holds at most one float and one complex n x n matrix at a time
    rng = DetRand(47)
    n = 600
    y = rng.uniform_array(n, -3.0, 3.0)
    y[::7] = y[0]  # repeated points put zeros off the diagonal too
    pts = bs.PointSet(points=y, coeffs=np.array([rng.complex_in_disc() for _ in range(n)]),
                      Y=3.0)
    T = 2.3
    b = pts.coeffs
    d = y[:, np.newaxis] - y[np.newaxis, :]
    safe = np.where(d == 0.0, 1.0, d)
    kernel = np.where(d == 0.0, 2.0 * T, np.sin(2.0 * np.pi * T * d) / (np.pi * safe))
    want = float(np.real(np.sum((b[:, np.newaxis] * np.conj(b[np.newaxis, :])) * kernel)))
    assert bs.lemma21_check(pts, T=T, eta=0.05).lhs.hex() == want.hex()
    assert peak_traced_bytes(lambda: bs.lemma21_check(pts, T=T, eta=0.05)) <= 2 * 16 * n * n


def test_lemma21_randomized_battery():
    for i in range(50):
        rng = DetRand(100 + i)
        n = rng.integer(1, 30)
        Y = rng.log_uniform(0.5, 3.0)
        pts = bs.PointSet(points=rng.uniform_array(n, 0.0, Y),
                          coeffs=np.ones(n), Y=Y)
        T = rng.log_uniform(0.5, 6.0)
        eta = rng.log_uniform(1e-3, 1.0 / (2.0 * T))
        rep = bs.lemma21_check(pts, T=T, eta=eta)
        assert rep.lhs <= rep.rhs * (1 + 1e-9), (i, rep.lhs, rep.rhs)


def test_dls_proof_constant_shape():
    assert bs.dls_proof_constant(1.0) == pytest.approx(3.0 * math.pi ** 2)
    assert bs.dls_proof_constant(6.0) == pytest.approx(3.0 * math.pi ** 2)
    assert bs.dls_proof_constant(8.0) == pytest.approx(4.0 * math.pi ** 2)
    with pytest.raises(ValueError):
        bs.dls_proof_constant(0.5)
    # K < 1 is false for NaN; the check must still refuse it, and an infinite
    # K would make every ratio 0
    for K in (math.nan, math.inf):
        with pytest.raises(ValueError, match="K must be >= 1 and finite"):
            bs.dls_proof_constant(K)


def test_dls_check_refuses_nan_K():
    pts = bs.PointSet(points=np.array([0.5]), coeffs=np.array([1.0]), Y=1.0)
    fam = bs.FunctionFamily(table=np.array([[0.3]]), coeffs=np.array([1.0]), X=1.0)
    for K in (math.nan, math.inf):
        with pytest.raises(ValueError, match="K must be >= 1 and finite"):
            bs.dls_check(fam, pts, K=K)


def test_dls_singleton_ratio_small():
    pts = bs.PointSet(points=np.array([0.5]), coeffs=np.array([1.0]), Y=1.0)
    fam = bs.FunctionFamily(table=np.array([[0.3]]), coeffs=np.array([1.0]), X=1.0)
    rep = bs.dls_check(fam, pts, K=2.0)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)  # |e(theta)|^2
    assert rep.passed
    assert rep.ratio <= 1.0


def test_dls_oscillation_rejected_names_member():
    pts = bs.PointSet(points=np.array([0.1, 0.9]), coeffs=np.array([1.0, 1.0]), Y=1.0)
    fam = bs.FunctionFamily(table=np.array([[0.0, 0.1], [0.0, 0.9]]),
                            coeffs=np.array([1.0, 1.0]), X=1.0)
    with pytest.raises(RejectedInstanceError, match="member 1"):
        bs.dls_check(fam, pts, K=1.0)


def test_max_safe_delta_controls_oscillation():
    M, N, X, alpha, beta, gamma, K = 5, 6, 20.0, 1.0, 1.0, 1.0, 2.0
    delta = 0.9 * bs.max_safe_delta(M, N, X, alpha, beta, gamma, K)
    spec = PerturbationSpec(beta=beta, delta=delta, M=M, kind="mu")
    ms = bs.scenario_m_coordinates(3, M)
    fam = bs.reciprocal_family(N, gamma, spec, ms)
    pts = bs.scenario_points(3, M, X, alpha, beta)
    rep = bs.dls_check(fam, pts, K=K)  # must not raise
    assert rep.ratio <= bs.dls_proof_constant(K)


def test_scenario_points_layout():
    H, M, X, alpha, beta = 2, 3, 10.0, 1.0, 1.0
    pts = bs.scenario_points(H, M, X, alpha, beta)
    assert len(pts) == H * M
    # h-major layout: first block is h = H+1 over m = M+1..2M
    want0 = X * ((H + 1) / H) ** alpha * (M / (M + 1)) ** beta
    assert pts.points[0] == pytest.approx(want0, rel=1e-12)
    assert pts.Y == pytest.approx(2.0 ** alpha * X)
    ms = bs.scenario_m_coordinates(H, M)
    assert list(ms[:3]) == [4, 5, 6] and len(ms) == 6


def test_pair_difference_family_dimensions():
    spec = PerturbationSpec(beta=1.0, delta=0.2, M=4, kind="mu")
    ms = bs.scenario_m_coordinates(2, 4)
    fam = bs.pair_difference_family(3, 1.0, spec, ms)
    assert fam.table.shape == (9, 8)  # N^2 member pairs over H*M points
    assert fam.X == pytest.approx(1.0)
