import cmath
import math
import re

import numpy as np
import pytest

from expsumlab.arith_core import chunked_tree_sum
from expsumlab.errors import CapacityError, RejectedInstanceError
from expsumlab.expsum_eval import (
    _INNER_TERMS,
    Bound,
    ExpSumInstance,
    bound_value,
    build_floor_scenario,
    eval_exp_sum,
    lattice_count,
    random_regime_instances,
    unimodular_coeff_a,
    unimodular_coeff_b,
)
from expsumlab.vaughan_decomp import alpha_tables


def constant_coeff_a(value: complex = 1.0):
    def fn(h, m):
        return np.full(len(m), value, dtype=np.complex128)
    return fn


def constant_coeff_b(value: complex = 1.0):
    def fn(n):
        return np.full(len(n), value, dtype=np.complex128)
    return fn


def _inst(seed=7, H=4, M=4, N=4, X=10.0, delta=0.5, K=5.0, **kw):
    return ExpSumInstance(
        H=H, M=M, N=N, X=X, alpha=1.0, beta=1.0, gamma=1.0,
        coeff_a=unimodular_coeff_a(seed), coeff_b=unimodular_coeff_b(seed + 1),
        delta=delta, K=K, **kw)


def _naive(inst):
    m_arr = np.arange(inst.M + 1, 2 * inst.M + 1, dtype=np.int64)
    n_arr = np.arange(inst.N + 1, 2 * inst.N + 1, dtype=np.int64)
    c0 = inst.X * inst.M ** inst.beta * inst.N ** inst.gamma / inst.H ** inst.alpha
    total = 0j
    for h in range(inst.H + 1, 2 * inst.H + 1):
        a_row = np.asarray(inst.coeff_a(h, m_arr))
        b_col = np.asarray(inst.coeff_b(n_arr))
        for im, m in enumerate(m_arr):
            for jn, n in enumerate(n_arr):
                if inst.mn_clip is not None:
                    lo, hi = inst.mn_clip
                    if not lo < m * n <= hi:
                        continue
                theta = c0 * h ** inst.alpha / (
                    float(m) ** inst.beta * float(n) ** inst.gamma + inst.delta)
                total += a_row[im] * b_col[jn] * cmath.exp(2j * math.pi * theta)
    return total


@pytest.mark.parametrize("seed", [7, 8])
def test_matches_naive_oracle(seed):
    inst = _inst(seed=seed)
    got = eval_exp_sum(inst)
    want = _naive(inst)
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_matches_naive_oracle_with_clip():
    inst = _inst(seed=9, M=5, N=6, mn_clip=(40, 80))
    got = eval_exp_sum(inst)
    want = _naive(inst)
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_single_term_unimodular():
    inst = _inst(H=1, M=1, N=1, delta=0.0, K=1.0)
    assert abs(abs(eval_exp_sum(inst)) - 1.0) <= 1e-12


def test_conjugate_coefficients_give_count():
    H, M, N, X, delta = 1, 1, 6, 10.0, 0.3
    c0 = X * M * N / H

    def b_conj(n):
        theta = c0 * 2.0 / (2.0 * n.astype(np.float64) + delta)
        theta = theta - np.floor(theta)
        return np.exp(-2j * np.pi * theta)

    inst = ExpSumInstance(H=H, M=M, N=N, X=X, alpha=1.0, beta=1.0, gamma=1.0,
                          coeff_a=constant_coeff_a(), coeff_b=b_conj,
                          delta=delta, K=1.0)
    assert abs(eval_exp_sum(inst) - N) <= 1e-9


def test_worker_bit_identity():
    inst = _inst(seed=3, H=8, M=16, N=16)
    s1 = eval_exp_sum(inst, workers=1)
    s2 = eval_exp_sum(inst, workers=2)
    s8 = eval_exp_sum(inst, workers=8)
    assert s1 == s2 == s8


def _eval_whole_block(inst):
    """The evaluator's earlier loop: per h and row block, the phase and the
    exponential over the whole block, then np.where zeroes the clipped
    points."""
    H, M, N = inst.H, inst.M, inst.N
    m = np.arange(M + 1, 2 * M + 1, dtype=np.int64)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    mpow = m.astype(np.float64) ** inst.beta
    npow = n.astype(np.float64) ** inst.gamma
    c0 = inst.X * M ** inst.beta * N ** inst.gamma / H ** inst.alpha
    b = np.asarray(inst.coeff_b(n), dtype=np.complex128)
    row_block = max(1, _INNER_TERMS // N)
    clip = inst.mn_clip

    def h_chunk(lo, hi):
        total = 0.0 + 0.0j
        for ih in range(lo, hi):
            h = H + 1 + ih
            ph = c0 * float(h) ** inst.alpha
            a_row = np.asarray(inst.coeff_a(h, m), dtype=np.complex128)
            for s in range(0, M, row_block):
                e = s + min(row_block, M - s)
                theta = ph / (mpow[s:e, np.newaxis] * npow[np.newaxis, :] + inst.delta)
                theta = theta - np.floor(theta)
                term = a_row[s:e, np.newaxis] * (b[np.newaxis, :] * np.exp(2j * np.pi * theta))
                if clip is not None:
                    prod = m[s:e, np.newaxis] * n[np.newaxis, :]
                    term = np.where((prod > clip[0]) & (prod <= clip[1]), term, 0.0)
                total = total + complex(term.sum())
        return total

    return complex(chunked_tree_sum(H, h_chunk, 1))


def _four_block_instance(M=2048, clipped=False):
    # N = 512 gives row blocks of _INNER_TERMS // 512 = 512 rows: 4 at M = 2048
    return ExpSumInstance(
        H=2, M=M, N=512, X=1e4, alpha=1.0, beta=1.0, gamma=1.0,
        coeff_a=unimodular_coeff_a(3), coeff_b=unimodular_coeff_b(4), delta=0.5, K=1e6,
        mn_clip=(600 * M, 1200 * M) if clipped else None)


def _bit_cases():
    regime = random_regime_instances(40, seed=11)
    cases = {
        "rectangle": build_floor_scenario(x=3e6, D=4000, delta=0.5, Hp=16, Hmax=32,
                                          M=50, N=80),
        "hyperbola": build_floor_scenario(x=3e6, D=4000, delta=1.0, Hp=8, Hmax=16,
                                          M=50, N=80, mode="hyperbola"),
        "regime_delta": next(i for i in regime if i.delta > 0 and i.H * i.M * i.N >= 4096),
        "regime_delta0": next(i for i in regime if i.delta == 0 and i.H * i.M * i.N >= 4096),
        "four_blocks": _four_block_instance(),
        "four_blocks_clipped": _four_block_instance(clipped=True),
        # row blocks of 87381 rows: coeff_a is read on runs that start off
        # any vector boundary
        "two_uneven_blocks": ExpSumInstance(
            H=2, M=100000, N=3, X=10.0, alpha=1.0, beta=1.0, gamma=1.0,
            coeff_a=unimodular_coeff_a(5), coeff_b=unimodular_coeff_b(6), delta=0.5),
        # coefficients zero on part of the m block: clipped terms a*(b*0)
        # carry zeros of either sign
        "hyperbola_zero_coeffs": build_floor_scenario(x=1e5, D=1000, delta=0.5, Hp=1, Hmax=2,
                                                      M=8, N=125, mode="hyperbola"),
    }
    return cases


_BIT_CASES = _bit_cases()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(_BIT_CASES))
def test_prepared_blocks_keep_bits(case, workers):
    # prepared denominators, exponentials at kept points only and in-place
    # products must reproduce the whole-block loop bit for bit
    inst = _BIT_CASES[case]
    got, want = eval_exp_sum(inst, workers=workers), _eval_whole_block(inst)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_bit_cases_cover_clip_and_blocks():
    hy = _BIT_CASES["hyperbola"]
    assert 0 < lattice_count(hy) < hy.H * hy.M * hy.N
    big = _BIT_CASES["four_blocks_clipped"]
    assert big.M // (_INNER_TERMS // big.N) == 4
    assert 0 < lattice_count(big) < big.H * big.M * big.N


@pytest.mark.parametrize("clipped", [False, True])
def test_memory_stays_one_row_block(clipped, peak_traced_bytes):
    # a 512 x 512 block is 2 MiB of denominators and 4 MiB of complex terms;
    # the whole-block loop peaked at 14.2 MiB unclipped and 16.2 MiB clipped,
    # and keeping every block's data at once reads 18.2 and 21.1 MiB
    peak = peak_traced_bytes(lambda: eval_exp_sum(_four_block_instance(clipped=clipped)))
    assert peak <= (16.2 if clipped else 14.2) * 2 ** 20
    doubled = peak_traced_bytes(
        lambda: eval_exp_sum(_four_block_instance(M=4096, clipped=clipped)))
    assert doubled <= 1.1 * peak


def test_sum_bounded_by_lattice_count():
    for seed in (1, 2, 3):
        inst = _inst(seed=seed, H=2, M=8, N=8)
        assert abs(eval_exp_sum(inst)) <= lattice_count(inst) * (1 + 1e-9)


def test_lattice_count_hyperbola_brute():
    inst = _inst(M=6, N=7, mn_clip=(50, 100))
    brute = sum(1 for m in range(7, 13) for n in range(8, 15) if 50 < m * n <= 100)
    assert lattice_count(inst) == inst.H * brute
    assert lattice_count(_inst()) == 4 * 4 * 4


def test_phase_guard():
    inst = ExpSumInstance(H=1, M=1, N=1, X=2.0 ** 50, alpha=1.0, beta=1.0,
                          gamma=1.0, coeff_a=constant_coeff_a(),
                          coeff_b=constant_coeff_b())
    with pytest.raises(CapacityError, match="precision guard"):
        eval_exp_sum(inst)
    # every power fits a double, but 3^490 * 3^490 overflows the
    # denominators and 1e100 * 2^490 * 2^490 the scale, so the peak is
    # inf/inf: a NaN, which would make every phase NaN
    inst = ExpSumInstance(H=1, M=2, N=2, X=1e100, alpha=1.0, beta=490.0,
                          gamma=490.0, coeff_a=constant_coeff_a(),
                          coeff_b=constant_coeff_b())
    with np.errstate(all="ignore"), pytest.raises(CapacityError, match="peak phase nan"):
        eval_exp_sum(inst)


def test_term_budget_guard():
    # 465^3 > 10^8 = DEFAULT_TERM_BUDGET; refused before any allocation
    inst = _inst(H=465, M=465, N=465)
    with pytest.raises(CapacityError, match="term budget 100000000"):
        eval_exp_sum(inst)


def test_coefficient_modulus_rejected():
    inst = ExpSumInstance(H=1, M=2, N=2, X=5.0, alpha=1.0, beta=1.0, gamma=1.0,
                          coeff_a=constant_coeff_a(2.0), coeff_b=constant_coeff_b())
    with pytest.raises(ValueError, match="modulus"):
        eval_exp_sum(inst)
    # NaN compares false with every bound and must not slip through
    inst = ExpSumInstance(H=1, M=2, N=2, X=5.0, alpha=1.0, beta=1.0, gamma=1.0,
                          coeff_a=constant_coeff_a(math.nan), coeff_b=constant_coeff_b())
    with pytest.raises(ValueError, match="coeff_a at h=2: peak modulus nan"):
        eval_exp_sum(inst)


def test_instance_validation():
    good = dict(H=1, M=1, N=1, X=2.0, alpha=1.0, beta=1.0, gamma=1.0,
                coeff_a=constant_coeff_a(), coeff_b=constant_coeff_b())
    ExpSumInstance(**good)
    for bad in (dict(H=0), dict(X=1.0), dict(alpha=0.0), dict(delta=-1.0),
                dict(K=0.5), dict(epsilon=0.0)):
        with pytest.raises(ValueError):
            ExpSumInstance(**{**good, **bad})


@pytest.mark.parametrize("field", ["H", "M", "N"])
def test_instance_refuses_non_integer_block(field):
    # M = 2.5 once built an instance whose bound was a number and whose sum
    # died in range(); an integral float is kept as an int
    good = dict(H=1, M=1, N=1, X=2.0, alpha=1.0, beta=1.0, gamma=1.0,
                coeff_a=constant_coeff_a(), coeff_b=constant_coeff_b())
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got 2.5"):
        ExpSumInstance(**{**good, field: 2.5})
    inst = ExpSumInstance(**{**good, field: 2.0, "mn_clip": (1, 100)})
    assert type(getattr(inst, field)) is int
    assert eval_exp_sum(inst) == eval_exp_sum(ExpSumInstance(**{**good, field: 2, "mn_clip": (1, 100)}))


@pytest.mark.parametrize("clip", [(math.nan, 50), (40, math.inf), (50, 40), (40, 40), (1, 2, 3)])
def test_instance_refuses_bad_clip(clip):
    # NaN once died in lattice_count's int(), inf overflowed there, and an
    # empty range summed to 0 over 0 terms without a word
    good = dict(H=1, M=4, N=4, X=2.0, alpha=1.0, beta=1.0, gamma=1.0,
                coeff_a=constant_coeff_a(), coeff_b=constant_coeff_b())
    with pytest.raises(ValueError, match="mn_clip must be two finite numbers lo < hi"):
        ExpSumInstance(**good, mn_clip=clip)


@pytest.mark.parametrize("field", ["X", "alpha", "beta", "gamma", "delta", "K", "epsilon"])
def test_instance_refuses_non_finite(field):
    # a NaN slips past every order comparison, and an infinite exponent or
    # K gives a NaN phase or bound rather than an error
    good = dict(H=1, M=1, N=1, X=2.0, alpha=1.0, beta=1.0, gamma=1.0,
                coeff_a=constant_coeff_a(), coeff_b=constant_coeff_b())
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            ExpSumInstance(**{**good, field: value})


@pytest.mark.parametrize("fields, what", [
    ({"beta": 1100.0, "M": 2}, "(2M)^beta"),
    ({"alpha": 1100.0, "H": 2}, "(2H)^alpha"),
    ({"epsilon": 200.0, "H": 4, "M": 4, "N": 4}, "(HMN)^(1+epsilon)"),
    ({"epsilon": 2.0, "X": 1e200}, "X^epsilon"),
], ids=["beta", "alpha", "epsilon", "x-epsilon"])
def test_instance_refuses_overflowing_powers(fields, what):
    # the sum or a bound takes each power with a Python float power, which
    # raises a bare OverflowError past a double
    good = dict(H=1, M=1, N=1, X=2.0, alpha=1.0, beta=1.0, gamma=1.0,
                coeff_a=constant_coeff_a(), coeff_b=constant_coeff_b())
    with pytest.raises(ValueError, match=re.escape(what) + " = .* overflows a double"):
        ExpSumInstance(**{**good, **fields})


def test_thm1_k1_delta0_matches_rs06():
    # at K = 1, delta = 0 thm1 is the unperturbed literature shape (rs06)
    inst = _inst(delta=0.0, K=1.0)
    H, M, N, X = float(inst.H), float(inst.M), float(inst.N), inst.X
    rs06 = (H * M * N) ** (1.0 + inst.epsilon) * (
        (X / (H * M * N * N)) ** 0.25 + (H * M) ** -0.25 + N ** -0.5 + X ** -0.5)
    assert bound_value(inst, "thm1") == pytest.approx(rs06, rel=1e-12)


def test_thm1_hand_value_with_k():
    inst = ExpSumInstance(H=1, M=1, N=1, X=4.0, alpha=1.0, beta=1.0, gamma=1.0,
                          coeff_a=constant_coeff_a(), coeff_b=constant_coeff_b(),
                          delta=0.0, K=2.0, epsilon=1e-12)
    want = 8.0 ** 0.25 + 2.0 ** 0.5 + 2.0 ** 0.5 + 1.0
    assert bound_value(inst, "thm1") == pytest.approx(want, rel=1e-9)


def test_thm1_regime_rejection():
    inst = _inst(delta=0.5, K=1.0, X=10.0)  # cap = 16/4 = 4 < X
    assert not inst.thm1_regime_ok
    with pytest.raises(RejectedInstanceError, match="violated"):
        bound_value(inst, "thm1")
    # lwy ignores thm1's regime
    bound_value(inst, "lwy")


def test_lwy_hand_value_and_rejections():
    inst = ExpSumInstance(H=1, M=1, N=1, X=4.0, alpha=1.0, beta=1.0, gamma=1.0,
                          coeff_a=constant_coeff_a(), coeff_b=constant_coeff_b(),
                          epsilon=1e-12)
    want = 2.0 ** (1.0 / 3.0) + 1.0 + 1.0 + 0.5
    assert bound_value(inst, "lwy") == pytest.approx(want, rel=1e-9)
    tall = _inst(H=4, M=2, N=2, delta=0.0, K=1.0)  # cap = 2^0 * 2 = 2 < 4
    with pytest.raises(RejectedInstanceError, match="H <="):
        bound_value(tall, "lwy")
    deep = _inst(H=1, M=4, N=4, delta=30.0, K=5.0, epsilon=0.1)
    with pytest.raises(RejectedInstanceError, match="delta <="):
        bound_value(deep, "lwy")


def test_bound_name_validation():
    with pytest.raises(ValueError):
        bound_value(_inst(), "nope")
    assert Bound("lwy") is Bound.lwy
    assert {b.value for b in Bound} == {"thm1", "lwy"}
    with pytest.raises(ValueError):
        bound_value(_inst(), "rs06")


def test_random_regime_instances_properties():
    a = random_regime_instances(12, seed=5)
    b = random_regime_instances(12, seed=5)
    assert [i.params_dict() for i in a] == [i.params_dict() for i in b]
    for inst in a:
        assert inst.thm1_regime_ok
        assert inst.H * inst.M * inst.N <= 10 ** 6
    c = random_regime_instances(12, seed=6)
    assert [i.params_dict() for i in c] != [i.params_dict() for i in a]


def test_build_floor_scenario_shapes():
    inst = build_floor_scenario(x=10 ** 6, D=500, delta=1.0, Hp=4, Hmax=16,
                                M=20, N=25)
    assert inst.X == pytest.approx(10 ** 6 * 4 / 500.0)
    assert inst.mn_clip is None
    assert inst.thm1_regime_ok
    hy = build_floor_scenario(x=10 ** 6, D=500, delta=1.0, Hp=4, Hmax=16,
                              M=20, N=25, mode="hyperbola")
    assert hy.mn_clip == (500, 1000)
    assert lattice_count(hy) < lattice_count(inst)


def test_build_floor_scenario_truncated_tail_vanishes():
    # Hp = Hmax: every h in (Hp, 2Hp] is beyond the coefficient support
    inst = build_floor_scenario(x=10 ** 6, D=500, delta=0.0, Hp=16, Hmax=16,
                                M=20, N=25)
    assert abs(eval_exp_sum(inst)) <= 1e-12


def test_build_floor_scenario_zero_off_rough_support():
    # at D = 1000 the rough support is (10, 181]: the m block (8, 16]
    # starts below it and the n block (125, 250] ends above it
    t = alpha_tables(1000)
    assert (t.cut, t.rough_hi) == (10, 181)
    inst = build_floor_scenario(x=1e5, D=1000, delta=0.0, Hp=1, Hmax=2, M=8, N=125)
    m, n = np.arange(9, 17), np.arange(126, 251)
    a, b = inst.coeff_a(2, m), inst.coeff_b(n)
    on = m > t.cut
    assert np.all(a[~on] == 0.0)
    assert np.array_equal(a[on] != 0.0, t.alpha3[m[on] - t.cut - 1] != 0.0)
    assert np.all(b[n > t.rough_hi] == 0.0) and np.all(b[n <= t.rough_hi] == 1.0)


def test_build_floor_scenario_validation():
    ok = dict(x=10 ** 6, D=500, delta=0.0, Hp=4, Hmax=16, M=20, N=25)
    build_floor_scenario(**ok)
    with pytest.raises(ValueError, match="factor 4"):
        build_floor_scenario(**{**ok, "M": 5, "N": 5})
    with pytest.raises(ValueError, match="Hp"):
        build_floor_scenario(**{**ok, "Hp": 32})
    with pytest.raises(ValueError, match="mode"):
        build_floor_scenario(**{**ok, "mode": "disc"})
    with pytest.raises(ValueError, match="exceed 1"):
        build_floor_scenario(**{**ok, "x": 10.0})
