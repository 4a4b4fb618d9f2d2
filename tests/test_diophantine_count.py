import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import bilinear_sieve as bs
from expsumlab import diophantine_count as dc
from expsumlab.diophantine_count import (
    PerturbationSpec,
    default_spec,
    dio_bound,
    dio_report,
    phi_pair_table,
    psi_single_table,
    sup_distance_blocks,
)
from expsumlab.errors import CapacityError


def _line():
    """The line number of the caller."""
    return sys._getframe(1).f_lineno


def _spec(delta=0.5, beta=1.0, M=4, kind="mu"):
    return PerturbationSpec(beta=beta, delta=delta, M=M, kind=kind)


# scalar oracles of the member tables, one member value at a time


def spec_value(spec: PerturbationSpec, m: int) -> float:
    """delta * m^-beta."""
    return spec.delta * float(m) ** (-spec.beta)


def phi_pair(n_s: int, n_t: int, m: int, spec: PerturbationSpec, N: int, gamma: float) -> float:
    """N^g/(n_s^g + mu(m)) - N^g/(n_t^g + mu(m))."""
    mu = spec_value(spec, m)
    ng = float(N) ** gamma
    return ng / (float(n_s) ** gamma + mu) - ng / (float(n_t) ** gamma + mu)


def psi_single(n: int, m: int, spec: PerturbationSpec, N: int, gamma: float) -> float:
    """N^g/(n^g + nu(m))."""
    return float(N) ** gamma / (float(n) ** gamma + spec_value(spec, m))


def test_b0_hand_enumeration():
    # N=2, beta=1: normalized sums over (2,4]^2 are [3, 3.5, 3.5, 4].
    # Threshold 1/2 admits all pairs except (3,4)/(4,3): 16 - 2 = 14,
    # with the eight d = 1/2 pairs sitting exactly on the threshold.
    rep = dio_report("B0", N=2, beta=1.0, X=2.0)
    assert rep.count == 14
    assert rep.boundary == 8
    # threshold 1/4 keeps only d = 0 pairs: 4 diagonal + (3.5, 3.5) twice
    assert dio_report("B0", N=2, beta=1.0, X=4.0).count == 6


def test_b0_frozen_tight_threshold():
    # N=2, beta=2: sums [4.5, 6.25, 6.25, 8], threshold 0.01
    assert dio_report("B0", N=2, beta=2.0, X=100.0).count == 6


def test_b1_hand_enumeration():
    # H=M=2, alpha=beta=1: products h*m/(HM) for h,m in (2,4] give
    # [9, 12, 12, 16]/4; threshold 0.01 keeps d = 0 pairs only
    assert dio_report("B1", H=2, M=2, alpha=1.0, beta=1.0, X=100.0).count == 6


def test_counts_monotone_in_x():
    prev = None
    for X in (1.0, 2.0, 4.0, 8.0, 100.0):
        c = dio_report("B0", N=3, beta=1.5, X=X).count
        if prev is not None:
            assert c <= prev
        prev = c
    assert dio_report("B0", N=3, beta=1.5, X=1e-9).count == (3 * 3) ** 2  # huge threshold: all pairs


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
        assert dio_report("B3", spec=spec, N=N, gamma=1.0, X=1e9).count == N


def test_endpoint_mode_matches_scan():
    spec = _spec(delta=0.5, M=8)
    for kind in ("B2", "B3"):
        for X in (2.0, 8.0, 64.0):
            a, b = (dio_report(kind, mode=mode, spec=spec, N=8, gamma=1.0, X=X).count
                    for mode in ("endpoint", "scan"))
            assert a == b, (kind, X)


def test_mode_validation():
    with pytest.raises(ValueError):
        dio_report("B3", mode="grid", spec=_spec(), N=4, gamma=1.0, X=2.0)


@pytest.mark.parametrize("kind, kwargs, needle", [
    ("B4", {"N": 2, "X": 4.0}, "unknown kind 'B4'"),
    ("B0", {"N": 2, "X": 4.0}, "B0 needs beta"),
    ("B1", {"H": 2, "beta": 1.0, "X": 4.0}, "B1 needs M, alpha"),
    ("B0", {"N": 2, "beta": 1.0, "X": 4.0, "gamma": 2.0}, "B0 takes no gamma"),
    ("B3", {"N": 2, "gamma": 1.0, "X": 4.0, "M": 2}, "B3 takes no M"),
    ("B0", {"N": 2, "beta": 1.0, "X": 4.0, "spec": _spec()},
     "B0 takes no perturbation spec"),
    ("B0", {"N": 2, "beta": 1.0, "X": 4.0, "eps": math.nan},
     "eps must be a finite number"),
    # B0 and B1 tabulate no m, yet a mode they would ignore is still refused
    ("B0", {"N": 2, "beta": 1.0, "X": 4.0, "mode": "grid"}, "unknown mode 'grid'"),
    ("B1", {"H": 2, "M": 2, "alpha": 1.0, "beta": 1.0, "X": 4.0, "mode": "grid"},
     "unknown mode 'grid'"),
    # a block size is an integer: N = 2.5 once counted 19 quadruples
    ("B0", {"N": 2.5, "beta": 1.0, "X": 4.0}, "N must be an integer >= 1, got 2.5"),
    ("B1", {"H": 1.5, "M": 2, "alpha": 1.0, "beta": 1.0, "X": 4.0},
     "H must be an integer >= 1, got 1.5"),
    ("B1", {"H": 2, "M": 2.5, "alpha": 1.0, "beta": 1.0, "X": 4.0},
     "M must be an integer >= 1, got 2.5"),
    ("B3", {"N": 2.5, "gamma": 1.0, "X": 4.0, "spec": _spec()},
     "N must be an integer >= 1, got 2.5"),
], ids=["unknown-kind", "missing-beta", "missing-M-alpha", "unexpected-gamma",
        "unexpected-M", "spec-for-B0", "eps-nan", "mode-for-B0", "mode-for-B1",
        "B0-N-fraction", "B1-H-fraction", "B1-M-fraction", "B3-N-fraction"])
def test_dio_report_refuses_bad_arguments(kind, kwargs, needle):
    # every refusal is a ValueError that names the fault
    with pytest.raises(ValueError, match=needle):
        dio_report(kind, **kwargs)


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
    # a non-finite field is refused by name; beta = inf made U = 0 and the
    # regime test divided by it
    for field in ("beta", "delta"):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            PerturbationSpec(**{"beta": 1.0, "delta": 0.1, "M": 4, field: math.inf})
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


def test_regime_warning_names_the_callers_line():
    spec = _spec(delta=0.5, M=2)
    with pytest.warns(UserWarning) as record:
        dio_report("B3", spec=spec, N=2, gamma=1.0, X=1000.0)
    assert [(w.filename, w.lineno) for w in record] == [(__file__, _line() - 1)]
    # a caller whose globals carry no __name__ still gets the warning
    with pytest.warns(UserWarning, match="outside supported window"):
        exec("dio_report('B3', spec=spec, N=2, gamma=1.0, X=1000.0)",
             {"dio_report": dio_report, "spec": spec})


def test_capacity_guards():
    # each just over the 10^9 tuple budget; refused before any table is built
    with pytest.raises(CapacityError, match=r"N\^4 = 1003875856"):
        dio_report("B0", N=178, beta=1.0, X=10.0)
    with pytest.raises(CapacityError, match=r"\(HM\)\^2"):
        dio_report("B1", H=178, M=178, alpha=1.0, beta=1.0, X=10.0)
    with pytest.raises(CapacityError, match=r"N\^4"):
        dio_report("B2", spec=_spec(), N=178, gamma=1.0, X=10.0)
    with pytest.raises(CapacityError, match=r"N\^2"):
        dio_report("B3", spec=_spec(), N=31623, gamma=1.0, X=10.0)


def test_input_validation():
    with pytest.raises(ValueError):
        dio_report("B0", N=0, beta=1.0, X=10.0)
    with pytest.raises(ValueError):
        dio_report("B0", N=2, beta=1.0, X=0.0)
    with pytest.raises(ValueError):
        dio_report("B2", spec=_spec(), N=2, gamma=0.0, X=10.0)
    # a non-finite X or spec delta is refused, not counted
    with pytest.raises(ValueError, match="X must be a finite number"):
        dio_report("B0", N=2, beta=1.0, X=math.inf)
    with pytest.raises(ValueError, match="delta must be a finite number"):
        dio_report("B2", spec=_spec(delta=math.nan), N=2, gamma=1.0, X=10.0)


@pytest.mark.parametrize("kind,N", [("B2", 3), ("B3", 5)])
def test_b2_b3_brute_force_sup(kind, N):
    # the sup over independent m1, m2 of the member difference, from the
    # scalar definitions, in both modes
    spec = default_spec(kind, N)
    block = range(N + 1, 2 * N + 1)
    if kind == "B2":
        members = [[phi_pair(s, t, m, spec, N, 1.0) for m in block] for s in block for t in block]
    else:
        members = [[psi_single(n, m, spec, N, 1.0) for m in block] for n in block]
    counts = []
    for X in (2.0, 8.0, 64.0, 512.0, 4096.0):
        brute = sum(max(abs(a - b) for a in f for b in g) <= 1.0 / X
                    for f in members for g in members)
        for mode in ("endpoint", "scan"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = dio_report(kind, mode=mode, spec=spec, N=N, gamma=1.0, X=X)
            assert abs(rep.count - brute) <= rep.boundary, (X, mode)
        counts.append(brute)
    assert len(set(counts)) == len(counts)  # every threshold separates pairs


def test_b2_b3_need_a_spec():
    for kind in ("B2", "B3"):
        with pytest.raises(ValueError, match="needs a perturbation spec"):
            dio_report(kind, N=4, gamma=1.0, X=4.0)


@pytest.mark.parametrize("N", [3, 5, 8])
def test_b2_b3_are_unit_weight_function_correlations(N):
    # B2/B3 in scan mode are corr_fn(1/X) of the dispersion inequality over
    # the pair-difference and reciprocal families with unit coefficients
    ms = np.arange(N + 1, 2 * N + 1)
    for kind, family in (("B2", bs.pair_difference_family),
                         ("B3", bs.reciprocal_family)):
        spec = default_spec(kind, N)
        fam = family(N, 1.0, spec, ms)
        for X in (2.0, 8.0, 64.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # X = 64 leaves the regime
                count = dio_report(kind, mode="scan", spec=spec, N=N, gamma=1.0, X=X).count
            assert bs.correlation_functions(fam, 1.0 / X) == count, (kind, X)


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
       chunk=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_kernel_with_equal_extrema_is_absolute_difference(values, chunk):
    v = np.array(values)
    want = np.abs(v[:, None] - v[None, :])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dc, "_ROW_CHUNK", chunk)
        blocks = [d for _, d in sup_distance_blocks(v, v)]
    assert np.array_equal(np.concatenate(blocks), want)


def _sorted_pair_count(values, threshold):
    v = np.sort(values)
    return int(np.sum(np.searchsorted(v, v + threshold, side="right")
                      - np.searchsorted(v, v - threshold, side="left")))


@given(size=st.integers(1, 12), alpha=st.floats(0.5, 2.5), beta=st.floats(0.5, 2.5),
       log_x=st.floats(0.0, 12.0))
@settings(max_examples=60, deadline=None)
def test_b0_b1_match_sort_and_bisect(size, alpha, beta, log_x):
    X = float(np.exp(log_x))
    n = np.arange(size + 1, 2 * size + 1, dtype=np.float64)
    b0 = ((n ** beta / size ** beta)[:, None] + (n ** beta / size ** beta)[None, :]).ravel()
    b1 = (n[:, None] ** alpha * n[None, :] ** beta).ravel() / (size ** alpha * size ** beta)
    for rep, values in ((dio_report("B0", N=size, beta=beta, X=X), b0),
                        (dio_report("B1", H=size, M=size, alpha=alpha, beta=beta, X=X), b1)):
        assert abs(rep.count - _sorted_pair_count(values, 1.0 / X)) <= rep.boundary
