import warnings

import numpy as np
import pytest

from expsumlab.diophantine_count import (
    PerturbationSpec,
    count_B0,
    count_B1,
    count_B2,
    count_B3,
    dio_bound,
    dio_report,
    phi_pair,
    phi_pair_table,
    psi_single,
    psi_single_table,
)
from expsumlab.errors import CapacityError


def _spec(delta=0.5, beta=1.0, M=4, kind="mu"):
    return PerturbationSpec(beta=beta, delta=delta, M=M, kind=kind)


def test_b0_hand_enumeration():
    # N=2, beta=1: normalized sums over (2,4]^2 are [3, 3.5, 3.5, 4].
    # Threshold 1/2 admits all pairs except (3,4)/(4,3): 16 - 2 = 14,
    # with the eight d = 1/2 pairs sitting exactly on the threshold.
    rep = dio_report("B0", N=2, beta=1.0, X=2.0)
    assert rep.count == 14
    assert rep.boundary == 8
    # threshold 1/4 keeps only d = 0 pairs: 4 diagonal + (3.5, 3.5) twice
    assert count_B0(2, 1.0, 4.0) == 6


def test_b0_frozen_tight_threshold():
    # N=2, beta=2: sums [4.5, 6.25, 6.25, 8], threshold 0.01
    assert count_B0(2, 2.0, 100.0) == 6


def test_b1_hand_enumeration():
    # H=M=2, alpha=beta=1: products h*m/(HM) for h,m in (2,4] give
    # [9, 12, 12, 16]/4; threshold 0.01 keeps d = 0 pairs only
    assert count_B1(2, 2, 1.0, 1.0, 100.0) == 6


def test_counts_monotone_in_x():
    prev = None
    for X in (1.0, 2.0, 4.0, 8.0, 100.0):
        c = count_B0(3, 1.5, X)
        if prev is not None:
            assert c <= prev
        prev = c
    assert count_B0(3, 1.5, 1e-9) == (3 * 3) ** 2  # huge threshold: all pairs


def test_phi_pair_hand_value():
    # mu = 1/3 at m = 3: 2/(3 + 1/3) - 2/(4 + 1/3) = 3/5 - 6/13 = 9/65
    spec = PerturbationSpec(beta=1.0, delta=1.0, M=1)
    assert phi_pair(3, 4, 3, spec, 2, 1.0) == pytest.approx(9.0 / 65.0, abs=1e-15)
    assert psi_single(3, 3, spec, 2, 1.0) == pytest.approx(3.0 / 5.0, abs=1e-15)


def test_tables_match_scalar_functions():
    spec = _spec()
    ms = np.array([5, 6, 8])
    N, gamma = 3, 1.3
    pair = phi_pair_table(N, gamma, spec, ms)
    single = psi_single_table(N, gamma, spec, ms)
    assert pair.shape == (N * N, 3)
    assert single.shape == (N, 3)
    for si, n_s in enumerate(range(N + 1, 2 * N + 1)):
        for ti, n_t in enumerate(range(N + 1, 2 * N + 1)):
            row = si * N + ti  # n_s-major layout
            for c, m in enumerate(ms):
                assert pair[row, c] == pytest.approx(
                    phi_pair(n_s, n_t, m, spec, N, gamma), abs=1e-15)
    for i, n in enumerate(range(N + 1, 2 * N + 1)):
        for c, m in enumerate(ms):
            assert single[i, c] == pytest.approx(
                psi_single(n, m, spec, N, gamma), abs=1e-15)


def test_b3_delta_zero_diagonal():
    spec = PerturbationSpec(beta=1.0, delta=0.0, M=4)
    # unperturbed members are constants N^g/n^g; a tiny threshold keeps
    # exactly the diagonal
    for N in (4, 16):
        assert count_B3(N, 1.0, 1e9, spec) == N


def test_endpoint_mode_matches_scan():
    spec = _spec(delta=0.5, M=8)
    for kind, counter in (("B2", count_B2), ("B3", count_B3)):
        for X in (2.0, 8.0, 64.0):
            a = counter(8, 1.0, X, spec, mode="endpoint")
            b = counter(8, 1.0, X, spec, mode="scan")
            assert a == b, (kind, X)


def test_mode_validation():
    with pytest.raises(ValueError):
        count_B3(4, 1.0, 2.0, _spec(), mode="grid")


def test_dio_bound_values():
    assert dio_bound("B3", N=16, X=8.0) == pytest.approx(48.0)
    assert dio_bound("B0", eps=0.0, N=2, X=100.0) == pytest.approx(4.16)
    assert dio_bound("B1", eps=0.0, H=2, M=2, X=4.0) == pytest.approx(16.0 * 0.5)
    with pytest.raises(ValueError):
        dio_bound("B1", H=2, X=4.0)  # M missing
    with pytest.raises(ValueError):
        dio_bound("B9", N=2, X=4.0)


def test_report_arithmetic():
    # the bound shapes carry an unspecified constant, so only the recorded
    # arithmetic is checked here; constant stability is the suite's job
    rep = dio_report("B0", N=8, beta=1.5, X=64.0)
    assert rep.fitted_constant == pytest.approx(rep.count / rep.bound)
    rep3 = dio_report("B3", spec=_spec(delta=0.0), N=16, gamma=1.0, X=8.0)
    assert rep3.bound == pytest.approx(48.0)
    assert rep3.fitted_constant == pytest.approx(rep3.count / 48.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(beta=0.0, delta=0.1, M=4)
    with pytest.raises(ValueError):
        PerturbationSpec(beta=1.0, delta=-0.1, M=4)
    with pytest.raises(ValueError):
        PerturbationSpec(beta=1.0, delta=0.1, M=0)
    with pytest.raises(ValueError):
        PerturbationSpec(beta=1.0, delta=0.5, M=4, kind="xx")
    with pytest.raises(ValueError):
        PerturbationSpec(beta=1.0, delta=2.0, M=1)  # U = 2 > 1
    spec = PerturbationSpec(beta=2.0, delta=1.0, M=2)
    assert spec.U == pytest.approx(0.25)


def test_regime_warning():
    spec = _spec(delta=0.5, M=2)  # U = 0.25, window X <= 4 * N / 1
    with pytest.warns(UserWarning, match="outside supported window"):
        rep = dio_report("B3", spec=spec, N=2, gamma=1.0, X=1000.0)
    assert not rep.in_regime
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = dio_report("B3", spec=spec, N=2, gamma=1.0, X=4.0)
    assert rep.in_regime


def test_capacity_guards():
    # each just over the 10^9 tuple budget; refused before any table is built
    with pytest.raises(CapacityError, match=r"N\^4 = 1003875856"):
        count_B0(178, 1.0, 10.0)
    with pytest.raises(CapacityError, match=r"\(HM\)\^2"):
        count_B1(178, 178, 1.0, 1.0, 10.0)
    with pytest.raises(CapacityError, match=r"N\^4"):
        count_B2(178, 1.0, 10.0, _spec())
    with pytest.raises(CapacityError, match=r"N\^2"):
        count_B3(31623, 1.0, 10.0, _spec())


def test_input_validation():
    with pytest.raises(ValueError):
        count_B0(0, 1.0, 10.0)
    with pytest.raises(ValueError):
        count_B0(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        count_B2(2, 0.0, 10.0, _spec())
