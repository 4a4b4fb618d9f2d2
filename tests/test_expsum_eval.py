import cmath
import math

import numpy as np
import pytest

from expsumlab.errors import CapacityError, RejectedInstanceError
from expsumlab.expsum_eval import (
    Bound,
    ExpSumInstance,
    bound_value,
    build_floor_scenario,
    constant_coeff_a,
    constant_coeff_b,
    eval_exp_sum,
    lattice_count,
    random_regime_instances,
    unimodular_coeff_a,
    unimodular_coeff_b,
)
from expsumlab.exponent_calc import ExponentPair


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


def test_instance_validation():
    good = dict(H=1, M=1, N=1, X=2.0, alpha=1.0, beta=1.0, gamma=1.0,
                coeff_a=constant_coeff_a(), coeff_b=constant_coeff_b())
    ExpSumInstance(**good)
    for bad in (dict(H=0), dict(X=1.0), dict(alpha=0.0), dict(delta=-1.0),
                dict(K=0.5), dict(epsilon=0.0)):
        with pytest.raises(ValueError):
            ExpSumInstance(**{**good, **bad})


def test_rs06_hand_value():
    inst = ExpSumInstance(H=1, M=1, N=1, X=4.0, alpha=1.0, beta=1.0, gamma=1.0,
                          coeff_a=constant_coeff_a(), coeff_b=constant_coeff_b(),
                          epsilon=1e-12)
    want = math.sqrt(2.0) + 1.0 + 1.0 + 0.5
    assert bound_value(inst, "rs06") == pytest.approx(want, rel=1e-9)


def test_thm1_k1_delta0_matches_rs06():
    inst = _inst(delta=0.0, K=1.0)
    assert bound_value(inst, "thm1") == pytest.approx(
        bound_value(inst, "rs06"), rel=1e-12)


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
    # other bounds ignore the regime
    bound_value(inst, "rs06")


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


def test_lwy_pair_dependence():
    inst = _inst(H=1, M=4, N=4, delta=0.0, K=1.0)
    default = bound_value(inst, "lwy")
    explicit = bound_value(inst, "lwy", pair=ExponentPair(0.5, 0.5))
    assert default == explicit
    other = bound_value(inst, "lwy", pair=ExponentPair(0, 1))
    assert other != default


def test_bound_name_validation():
    with pytest.raises(ValueError):
        bound_value(_inst(), "nope")
    assert Bound("sw") is Bound.sw


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
