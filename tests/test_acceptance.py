"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Each test restates its threshold inline; sizes and tolerances
here are contractual, so they must not be loosened to make a failing run
green."""

import functools
import hashlib
import math
import time
from fractions import Fraction as F

import pytest

from expsumlab import bilinear_sieve as bs
from expsumlab import cli_harness
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


@functools.cache
def _battery(name):
    """The suite results of the CLI's default battery `name`, built once,
    and the seconds the build took."""
    t0 = time.perf_counter()
    results = {
        "sieve": lambda: [suites.sieve_suite(seed=0)],
        "psi": lambda: [suites.vaaler_suite(seed=0, count=10 ** 5, h_max=200)],
        "dls": lambda: [suites.lemma21_suite(seed=0, count=1000, max_points=50),
                        suites.dls_suite(seed=0, count=1000)],
        "expsum": lambda: [suites.expsum_regression_suite()],
        "dio": lambda: [suites.dio_suite(seed=0)],
        "vaughan": lambda: [suites.vaughan_suite(seed=0, d_values=(101, 1000, 10000))],
        "msum": lambda: [suites.msum_suite(seed=0, random_count=20)],
        "fit": lambda: [suites.fit_suite(lo=10 ** 4, hi=10 ** 9, points=12, slope_cap=0.60)],
    }[name]()
    return results, time.perf_counter() - t0


def test_c01_vaaler_majorant_battery():
    (result,), elapsed = _battery("psi")
    _green(result)
    assert elapsed < 10.0, f"vaaler battery took {elapsed:.2f}s, budget 10s"


def test_c02_exact_kernel_battery():
    result = _battery("dls")[0][0]
    _green(result)
    for row in result.rows:
        assert row.lhs <= row.rhs * (1 + 1e-9)


def test_c03_dispersion_constant_battery():
    # the comparison constant is pi^2 * max(3, K/2), straight from the
    # documented derivation in bilinear_sieve.dls_proof_constant
    assert bs.dls_proof_constant(2.0) == pytest.approx(3.0 * math.pi ** 2)
    assert bs.dls_proof_constant(10.0) == pytest.approx(5.0 * math.pi ** 2)
    result = _battery("dls")[0][1]
    _green(result)


def test_c04_diophantine_counts():
    assert dio_report("B0", N=2, beta=2.0, X=100.0).count == 6
    assert dio_report("B1", H=2, M=2, alpha=1.0, beta=1.0, X=100.0).count == 6
    # doubling ladders with slack <= 4 and endpoint == scan agreement
    assert suites.DIO_SLACK == 4.0
    (result,), _ = _battery("dio")
    _green(result)


def test_c05_decomposition_identity():
    (result,), _ = _battery("vaughan")
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
    (result,), _ = _battery("msum")
    _green(result)


def test_c08_main_constant_tail():
    c6 = fm.main_constant(10 ** 6)
    c7 = fm.main_constant(10 ** 7)
    assert abs(c7.value - c6.value) <= fm.tail_bound(10 ** 6)


def test_c09_error_curve_slope():
    (result,), elapsed = _battery("fit")
    _green(result)
    point_rows = [r for r in result.rows if r.case.startswith("point_x")]
    assert len(point_rows) >= 10
    slope = [r for r in result.rows if r.case == "slope"][0]
    assert slope.lhs <= 0.60
    assert elapsed < 600.0, f"error-curve run took {elapsed:.1f}s, budget 600s"


def test_c10_triple_sum_regression():
    assert suites.REGRESSION_DRIFT == 10.0
    (result,), _ = _battery("expsum")
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


# The first 8 hex digits of the sha256 of the CLI's stdout: for each default
# battery (`expsumlab <battery>`), and for three single runs.  An intended
# output change edits its line here and names it in CHANGES.md.
CSV_SHA256 = {
    "sieve": "31d72e92",
    "psi": "e5fa058e",
    "dls": "8bf61da0",
    "expsum": "262182e9",
    "dio": "1ce56059",
    "vaughan": "bb2326b7",
    "msum": "2307648c",
    "fit": "d135a25a",
    "frak-s --x 12345.6 --d 1000 --delta 0.5": "92110c79",
    "vaughan --d-list 300007": "da7914da",
    "dio --kind B2 --N 8 --X 8": "ecfbd2e2",
}


def test_c12_byte_contract(capsys):
    """Every default battery's CSV and three single runs keep their bytes.

    A battery's CSV is rows_to_csv of the rows the tests above build, which
    is what the CLI prints; a single run is the CLI's stdout.  The pins hold
    with numpy 2.4.6 on x86-64; whether other machines or numpy versions
    print the same bytes is untested."""
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:8]

    got = {}
    for run in CSV_SHA256:
        if " " in run:
            assert cli_harness.main(run.split()) == 0, run
            got[run] = digest(capsys.readouterr().out)
        else:
            rows = [row for result in _battery(run)[0] for row in result.rows]
            got[run] = digest(rows_to_csv(rows))
    assert got == CSV_SHA256
