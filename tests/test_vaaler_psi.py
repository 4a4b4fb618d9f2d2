import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab.arith_core import psi_frac, psi_frac_many
from expsumlab.vaaler_psi import (
    VaalerPolynomial,
    error_majorant,
    error_majorant_many,
    psi_approx,
    psi_approx_many,
    vaaler_phi,
    vaaler_phi_many,
)


def test_phi_special_values():
    assert vaaler_phi(0.0) == pytest.approx(1.0, abs=1e-15)
    assert vaaler_phi(0.5) == pytest.approx(0.5, abs=1e-12)
    assert vaaler_phi(-0.3) == pytest.approx(vaaler_phi(0.3), abs=1e-15)
    with pytest.raises(ValueError):
        vaaler_phi(1.0)
    with pytest.raises(ValueError):
        vaaler_phi(-1.5)


def test_phi_many_matches_closed_form():
    # away from t = 0 the array form is pi t (1 - |t|) cot(pi t) + |t|
    ts = np.concatenate([np.linspace(-0.999, -0.001, 999), np.arange(1, 17) / 17])
    want = [math.pi * t * (1 - abs(t)) / math.tan(math.pi * t) + abs(t) for t in ts]
    assert vaaler_phi_many(ts) == pytest.approx(want, rel=1e-13, abs=1e-15)
    with pytest.raises(ValueError, match="got t = 1.5"):
        vaaler_phi_many(np.array([0.2, 1.5]))


def test_phi_taylor_seam():
    # the series branch and the closed form must agree across the switch
    lo, hi = 0.99e-4, 1.01e-4
    assert abs(vaaler_phi(lo) - vaaler_phi(hi)) <= 1e-8


def test_phi_monotone_decreasing_on_grid():
    ts = np.linspace(0.0, 0.999, 500)
    vals = np.array([vaaler_phi(float(t)) for t in ts])
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_polynomial_coefficients_positive_decreasing():
    poly = VaalerPolynomial.build(25)
    c = poly.coefficients
    assert len(c) == 25
    assert np.all(c > 0)
    assert np.all(np.diff(c) < 0)


def test_psi_approx_hand_value():
    # degree 1: psi*(x) = -(Phi(1/2)/pi) sin(2 pi x); at x = 1/4 this is -1/(2 pi)
    assert psi_approx(0.25, 1) == pytest.approx(-1.0 / (2.0 * math.pi), abs=1e-12)


def test_psi_approx_zeros():
    for H in (1, 7, 40):
        assert psi_approx(0.0, H) == pytest.approx(0.0, abs=1e-14)
        assert psi_approx(0.5, H) == pytest.approx(0.0, abs=1e-12)


def test_psi_approx_odd_and_periodic():
    xs = np.array([0.13, 0.31, 0.49, 0.77])
    for H in (3, 17):
        a = psi_approx_many(xs, H)
        assert np.allclose(psi_approx_many(-xs, H), -a, atol=1e-12)
        assert np.allclose(psi_approx_many(xs + 1.0, H), a, atol=1e-12)


def test_majorant_frozen_values():
    for H in (1, 5, 50):
        assert error_majorant(0.0, H) == pytest.approx(0.5, abs=1e-12)
    assert error_majorant(0.5, 1) == pytest.approx(0.0, abs=1e-12)


def test_majorant_cosine_oracle():
    # Fejer-kernel form: (1/(2H+2)) sum_{|h|<=H} (1-|h|/(H+1)) cos(2 pi h x)
    x, H = 0.3, 10
    want = 1.0
    for h in range(1, H + 1):
        want += 2.0 * (1.0 - h / (H + 1)) * math.cos(2.0 * math.pi * h * x)
    want /= 2.0 * H + 2.0
    assert error_majorant(x, H) == pytest.approx(want, abs=1e-12)
    assert error_majorant_many(np.array([x]), H)[0] == pytest.approx(want, abs=1e-12)


def test_majorant_nonnegative():
    xs = np.linspace(-1.0, 2.0, 1001)
    for H in (1, 4, 33):
        assert np.min(error_majorant_many(xs, H)) >= -1e-12


@given(st.floats(-2.0, 2.0, allow_nan=False), st.integers(1, 60))
@settings(max_examples=400, deadline=None)
def test_approx_error_under_majorant(x, H):
    err = abs(psi_frac(x) - psi_approx(x, H))
    assert err <= error_majorant(x, H) + 1e-12


def test_vectorized_matches_scalar():
    xs = np.array([-0.7, 0.0, 0.124, 0.5, 0.999999999, 1.3])
    for H in (2, 19):
        many = psi_approx_many(xs, H)
        maj = error_majorant_many(xs, H)
        for i, x in enumerate(xs):
            assert many[i] == pytest.approx(psi_approx(float(x), H), abs=1e-15)
            assert maj[i] == pytest.approx(error_majorant(float(x), H), abs=1e-15)


def test_near_integer_arguments():
    # the bound survives right at the sawtooth jump
    for x in (0.0, 1.0, -1.0, 2.0):
        for eps in (0.0, 1e-9, -1e-9):
            t = x + eps
            err = abs(psi_frac(t) - psi_approx(t, 30))
            assert err <= error_majorant(t, 30) + 1e-12


def test_degree_improves_midpoint_error():
    errs = [abs(psi_frac_many(np.array([0.23]))[0] - psi_approx(0.23, H))
            for H in (1, 4, 16, 64)]
    assert errs[-1] < errs[0]
