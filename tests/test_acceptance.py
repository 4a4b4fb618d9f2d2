"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Each test restates its threshold inline; sizes and tolerances
here are contractual, so they must not be loosened to make a failing run
green."""

import math
import time
from fractions import Fraction as F

import pytest

from expsumlab import bilinear_sieve as bs
from expsumlab import expsum_eval as ee
from expsumlab import floor_mangoldt as fm
from expsumlab import suites
from expsumlab.diophantine_count import PerturbationSpec, dio_report
from expsumlab.exponent_calc import (
    Monomial,
    combined_error_exponent,
    optimize_type_one,
    reduce_rough_segment,
    ExponentPair,
)
from expsumlab.reports import rows_to_csv


def _green(result):
    assert result.passed, result.failures[:5]


def test_c01_vaaler_majorant_battery():
    t0 = time.perf_counter()
    result = suites.vaaler_suite(seed=0, count=10 ** 5, h_max=200)
    elapsed = time.perf_counter() - t0
    _green(result)
    assert elapsed < 10.0, f"vaaler battery took {elapsed:.2f}s, budget 10s"


def test_c02_exact_kernel_battery():
    result = suites.lemma21_suite(seed=0, count=1000, max_points=50)
    _green(result)
    for row in result.rows:
        assert row.lhs <= row.rhs * (1 + 1e-9)


def test_c03_dispersion_constant_battery():
    # the comparison constant is pi^2 * max(3, K/2), straight from the
    # documented derivation in bilinear_sieve.dls_proof_constant
    assert bs.dls_proof_constant(2.0) == pytest.approx(3.0 * math.pi ** 2)
    assert bs.dls_proof_constant(10.0) == pytest.approx(5.0 * math.pi ** 2)
    result = suites.dls_suite(seed=0, count=1000)
    _green(result)


def test_c04_diophantine_counts():
    assert dio_report("B0", N=2, beta=2.0, X=100.0).count == 6
    assert dio_report("B1", H=2, M=2, alpha=1.0, beta=1.0, X=100.0).count == 6
    # doubling ladders with slack <= 4 and endpoint == scan agreement
    assert suites.DIO_SLACK == 4.0
    result = suites.dio_suite(seed=0)
    _green(result)


def test_c05_decomposition_identity():
    result = suites.vaughan_suite(seed=0, d_values=(101, 1000, 10000))
    _green(result)


def test_c06_exact_exponent_identities():
    # all equalities below are exact rational arithmetic, zero tolerance
    theta = F(44, 95)
    assert F(1, 2) + theta / 6 == F(329, 570)
    assert 1 - theta / 4 + F(7, 760) == F(679, 760) <= F(17, 19)
    assert (2 + 7 * F(11, 21)) / 12 == F(17, 36)
    pipe = combined_error_exponent()
    assert pipe.minimax.e_star == F(17, 36)
    assert pipe.minimax.optimum == Monomial.of(x=F(17, 36))
    t1 = optimize_type_one(ExponentPair(F(1, 2), F(1, 2)))
    assert Monomial.of(x=F(1, 3), D=F(2, 9)) in t1.terms
    assert Monomial.of(D=F(17, 19)) in reduce_rough_segment().expr.terms
    _green(suites.exponent_suite())


def test_c07_floor_sum_evaluators():
    assert fm.s_lambda_direct(10) == pytest.approx(math.log(60.0), abs=1e-12)
    result = suites.msum_suite(seed=0, random_count=20)
    _green(result)


def test_c08_main_constant_tail():
    c6 = fm.main_constant(10 ** 6)
    c7 = fm.main_constant(10 ** 7)
    assert abs(c7.value - c6.value) <= fm.tail_bound(10 ** 6)


def test_c09_error_curve_slope():
    t0 = time.perf_counter()
    result = suites.fit_suite(lo=10 ** 4, hi=10 ** 9, points=12, slope_cap=0.60)
    elapsed = time.perf_counter() - t0
    _green(result)
    point_rows = [r for r in result.rows if r.case.startswith("point_x")]
    assert len(point_rows) >= 10
    slope = [r for r in result.rows if r.case == "slope"][0]
    assert slope.lhs <= 0.60
    assert elapsed < 600.0, f"error-curve run took {elapsed:.1f}s, budget 600s"


def test_c10_triple_sum_regression():
    assert suites.REGRESSION_DRIFT == 10.0
    result = suites.expsum_regression_suite()
    _green(result)


def test_c11_deterministic_reports():
    cheap = {
        "sieve": dict(limit=10 ** 5, window=10 ** 3),
        "vaaler": dict(count=2000),
        "lemma21": dict(count=100),
        "dls": dict(count=100),
        "dio": dict(),
        "vaughan": dict(d_values=(101,)),
        "msum": dict(random_count=4),
        "expsum": dict(),
        "expcalc": dict(),
        "fit": dict(lo=10 ** 4, hi=10 ** 6, points=5),
    }
    assert set(cheap) == set(suites.ALL_SUITES)
    for name, kwargs in cheap.items():
        fn = suites.ALL_SUITES[name]
        assert rows_to_csv(fn(**kwargs).rows) == rows_to_csv(fn(**kwargs).rows), name
    # every kernel that takes a worker count, at sizes spanning several
    # chunks, returns the same bits at workers 1, 2 and 8
    inst = ee.ExpSumInstance(H=8, M=16, N=16, X=10.0, alpha=1.0, beta=1.0, gamma=1.0,
                             coeff_a=ee.unimodular_coeff_a(3),
                             coeff_b=ee.unimodular_coeff_b(4), delta=0.5, K=5.0)
    spec = PerturbationSpec(beta=1.0, delta=0.1, M=4, kind="mu")
    fam = bs.pair_difference_family(5, 1.0, spec, bs.scenario_m_coordinates(3, 4))
    pts = bs.scenario_points(3, 4, 10.0, 1.0, 1.0)
    kernels = {
        "s_lambda_direct": lambda w: fm.s_lambda_direct(3 * 10 ** 6, workers=w),
        "s_lambda_blocked": lambda w: fm.s_lambda_blocked(10 ** 10, workers=w),
        "main_constant": lambda w: fm.main_constant(10 ** 6, workers=w).value,
        "eval_exp_sum": lambda w: ee.eval_exp_sum(inst, workers=w),
        "dls_check": lambda w: bs.dls_check(fam, pts, K=2.0, workers=w).lhs,
    }
    for name, kernel in kernels.items():
        one, two, eight = (kernel(w) for w in (1, 2, 8))
        assert one == two == eight, name
