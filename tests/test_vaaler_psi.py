import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import vaaler_psi
from expsumlab.arith_core import psi_frac_many, unit_phases
from expsumlab.errors import CapacityError
from expsumlab.vaaler_psi import (
    error_majorant_many,
    psi_approx_many,
    vaaler_coefficients,
    vaaler_phi_many,
)


def _phi(t: float) -> float:
    return float(vaaler_phi_many(np.array([t]))[0])


def test_phi_special_values():
    assert _phi(0.0) == pytest.approx(1.0, abs=1e-15)
    assert _phi(0.5) == pytest.approx(0.5, abs=1e-12)
    assert _phi(-0.3) == pytest.approx(_phi(0.3), abs=1e-15)
    with pytest.raises(ValueError):
        _phi(1.0)
    with pytest.raises(ValueError):
        _phi(-1.5)


def test_phi_refuses_nan():
    # abs(nan) >= 1 is false, so the domain test must be ~(abs(t) < 1)
    with pytest.raises(ValueError, match="got t = nan"):
        vaaler_phi_many(np.array([0.2, math.nan]))


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
    assert abs(_phi(lo) - _phi(hi)) <= 1e-8


def test_phi_monotone_decreasing_on_grid():
    ts = np.linspace(0.0, 0.999, 500)
    vals = vaaler_phi_many(ts)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_polynomial_coefficients_positive_decreasing():
    c = vaaler_coefficients(25)
    assert len(c) == 25
    assert np.all(c > 0)
    assert np.all(np.diff(c) < 0)


@pytest.mark.parametrize("H", [2.5, 0, -1, 3.0])
def test_bad_degree_refused(H):
    for fn in (psi_approx_many, error_majorant_many):
        with pytest.raises(ValueError, match="degree H must be an integer >= 1"):
            fn(np.array([0.3]), H)


def test_psi_approx_hand_value():
    # degree 1: psi*(x) = -(Phi(1/2)/pi) sin(2 pi x); at x = 1/4 this is -1/(2 pi)
    assert psi_approx_many([0.25], 1)[0] == pytest.approx(-1.0 / (2.0 * math.pi), abs=1e-12)


def test_psi_approx_zeros():
    for H in (1, 7, 40):
        at0, at_half = psi_approx_many([0.0, 0.5], H)
        assert at0 == pytest.approx(0.0, abs=1e-14)
        assert at_half == pytest.approx(0.0, abs=1e-12)


def test_psi_approx_odd_and_periodic():
    xs = np.array([0.13, 0.31, 0.49, 0.77])
    for H in (3, 17):
        a = psi_approx_many(xs, H)
        assert np.allclose(psi_approx_many(-xs, H), -a, atol=1e-12)
        assert np.allclose(psi_approx_many(xs + 1.0, H), a, atol=1e-12)


def _fixed_point_oracle(xs, H):
    """-sum_h c_h Im e(h x) over the same float coefficients c_h: e(x) to
    40 digits by mpmath, the polynomial by Horner's rule in 160-bit fixed
    point (exact integers; every c_h >= 2^-148 is exact there too)."""
    mpmath = pytest.importorskip("mpmath")
    P = 160
    c = [int(mpmath.mpf(float(v)) * 2 ** P) for v in vaaler_coefficients(H)]
    with mpmath.workdps(40):
        zs = [mpmath.expjpi(2 * mpmath.mpf(float(x))) for x in xs]
        zr = np.array([int(z.real * 2 ** P) for z in zs], dtype=object)
        zi = np.array([int(z.imag * 2 ** P) for z in zs], dtype=object)
    a = np.zeros(len(xs), dtype=object)
    b = np.zeros(len(xs), dtype=object)
    for ch in reversed(c):  # a + ib <- (a + ib) z + c_h
        a, b = ((a * zr - b * zi) >> P) + ch, (a * zi + b * zr) >> P
    return np.array([-v / 2 ** P for v in (a * zi + b * zr) >> P])


@pytest.mark.parametrize("H", [1, 7, 257, 999])
def test_psi_approx_error_within_old_expression(H):
    # the two-level split against the retired sine matrix, both measured
    # against a 40-digit sum; integer x gives exactly +-0
    xs = np.random.default_rng(H).uniform(-1.0, 2.0, 2000)
    xs[::10] = np.round(xs[::10])
    want = _fixed_point_oracle(xs, H)
    h = np.arange(1, H + 1, dtype=np.float64)
    old = -np.sin(2.0 * np.pi * np.outer(xs, h)) @ vaaler_coefficients(H)
    got = psi_approx_many(xs, H)
    assert np.max(np.abs(got - want)) <= np.max(np.abs(old - want))
    assert np.all(got[::10] == 0.0)
    # the same bits again, and from a 2-D view of the same points
    assert psi_approx_many(xs.reshape(40, 50), H).tobytes() == got.tobytes()


@pytest.mark.parametrize("H", [1, 100, 999])
def test_psi_approx_takes_2n_sqrt_h_phases(H, monkeypatch):
    # n (B + K) unit phases, B = isqrt(H) + 1 and K = ceil((H + 1) / B)
    seen = []

    def counting(theta):
        seen.append(theta.size)
        return unit_phases(theta)

    monkeypatch.setattr(vaaler_psi, "unit_phases", counting)
    psi_approx_many(np.linspace(-1.0, 2.0, 300), H)
    B = math.isqrt(H) + 1
    assert sum(seen) == 300 * (B + -(-(H + 1) // B))


def test_psi_approx_memory_is_two_phase_blocks(peak_traced_bytes):
    # 2000 x 32 phases twice at H = 999; the sine matrix took 15.3 MiB
    xs = np.linspace(-1.0, 2.0, 2000)
    assert peak_traced_bytes(lambda: psi_approx_many(xs, 999)) < 4 * 2 ** 20


def test_psi_approx_refuses_phases_past_the_guard():
    with pytest.raises(CapacityError, match="Vaaler phase"):
        psi_approx_many([0.3], 2 ** 47)


def test_majorant_frozen_values():
    for H in (1, 5, 50):
        assert error_majorant_many([0.0], H)[0] == pytest.approx(0.5, abs=1e-12)
    assert error_majorant_many([0.5], 1)[0] == pytest.approx(0.0, abs=1e-12)


def _fejer(x: float, H: int) -> float:
    # Fejer-kernel form: (1/(2H+2)) sum_{|h|<=H} (1-|h|/(H+1)) cos(2 pi h x)
    want = 1.0
    for h in range(1, H + 1):
        want += 2.0 * (1.0 - h / (H + 1)) * math.cos(2.0 * math.pi * h * x)
    return want / (2.0 * H + 2.0)


def test_majorant_cosine_oracle():
    # 0.3 takes the closed form; the rest have |sin(pi x)| < 1e-6 and take
    # the cosine-series branch
    xs = [0.3, 0.0, 1e-9, -1e-9, 0.999999999, -1.0, 2.0]
    for H in (2, 10, 19):
        want = [_fejer(x, H) for x in xs]
        assert error_majorant_many(np.array(xs), H) == pytest.approx(want, abs=1e-12)


def test_majorant_nonnegative():
    xs = np.linspace(-1.0, 2.0, 1001)
    for H in (1, 4, 33):
        assert np.min(error_majorant_many(xs, H)) >= -1e-12


@given(st.floats(-2.0, 2.0, allow_nan=False), st.integers(1, 60))
@settings(max_examples=400, deadline=None)
def test_approx_error_under_majorant(x, H):
    err = abs(psi_frac_many([x]) - psi_approx_many([x], H))
    assert err[0] <= error_majorant_many([x], H)[0] + 1e-12


def test_near_integer_arguments():
    # the bound survives right at the sawtooth jump
    ts = np.add.outer([0.0, 1.0, -1.0, 2.0], [0.0, 1e-9, -1e-9]).ravel()
    err = np.abs(psi_frac_many(ts) - psi_approx_many(ts, 30))
    assert np.all(err <= error_majorant_many(ts, 30) + 1e-12)


def test_degree_improves_midpoint_error():
    errs = [abs(psi_frac_many([0.23])[0] - psi_approx_many([0.23], H)[0])
            for H in (1, 4, 16, 64)]
    assert errs[-1] < errs[0]
