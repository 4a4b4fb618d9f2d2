"""phase_kernels: warm, in-process mix bound by numpy phase kernels.

Why this workload: the triple sum, the Vaaler approximant, the dispersion
check and the correlation counters spend their time in numpy transcendental
and broadcast kernels.  It touches the sieves only through ``alpha_tables``
at D <= 2*10^4 and never calls ``mangoldt_point``, so a change aimed at the
floor-sum layers should leave it unchanged, and the reverse.
"""

from __future__ import annotations

import math
import random

import numpy as np
from expsumlab import arith_core as ac
from expsumlab import bilinear_sieve as bs
from expsumlab import diophantine_count as dc
from expsumlab import expsum_eval as ee
from expsumlab import suites
from expsumlab import vaaler_psi as vp
from expsumlab import vaughan_decomp as vd
from expsumlab.errors import RejectedInstanceError

from perfbench.core import Op, call, stratified_log

NAME = "phase_kernels"

# eval_exp_sum on random in-regime instances: RANDOM_PER_SIZE of each term
# count, taken in pool order from a seeded random_regime_instances pool
RANDOM_TERMS = (1 << 14, 1 << 15, 1 << 16, 1 << 17)
RANDOM_PER_SIZE = 6
RANDOM_POOL = 2048
SCENARIO_D = (10 ** 3, 2 * 10 ** 4, 8)   # per mode: rectangle and hyperbola
SCENARIO_HP = (8, 16, 32, 64)
PSI_H = (100, 999, 24)
PSI_POINTS = 2000
DLS_POINTS = (50, 400, 16)               # synthetic dls instances
DLS_SCENARIOS = 8
DLS_REJECTED = 2                         # out-of-precondition, must be refused
LEMMA_POINTS = (50, 600, 12)
DIO_SIZES = {"B0": (8, 40), "B1": (4, 16), "B2": (8, 32), "B3": (64, 1024)}
DIO_PER_KIND = 4
DIO_DELTA = {"B2": 0.3, "B3": 0.5}

SUM_TOL = 1e-9          # |S - S_ref| per summed term
BASELINE_REL_TOL = 1e-9
BASELINE_DRIFT = 10.0   # the regression suite's own gate


# ---------------------------------------------------------------------------
# triple sums


def reference_sum(inst) -> complex:
    """The triple sum by one broadcast over the whole lattice: a summation
    order unrelated to eval_exp_sum's per-h, per-row-block chunks."""
    h = np.arange(inst.H + 1, 2 * inst.H + 1)
    m = np.arange(inst.M + 1, 2 * inst.M + 1, dtype=np.int64)
    n = np.arange(inst.N + 1, 2 * inst.N + 1, dtype=np.int64)
    c0 = inst.X * inst.M ** inst.beta * inst.N ** inst.gamma / inst.H ** inst.alpha
    ph = np.array([c0 * float(v) ** inst.alpha for v in h])
    denom = (m.astype(float) ** inst.beta)[:, None] * (n.astype(float) ** inst.gamma)[None, :]
    theta = ph[:, None, None] / (denom + inst.delta)[None, :, :]
    theta -= np.floor(theta)
    a = np.array([inst.coeff_a(int(v), m) for v in h], dtype=np.complex128)
    b = np.asarray(inst.coeff_b(n), dtype=np.complex128)
    terms = a[:, :, None] * b[None, None, :] * np.exp(2j * np.pi * theta)
    if inst.mn_clip is not None:
        prod = m[:, None] * n[None, :]
        keep = (prod > inst.mn_clip[0]) & (prod <= inst.mn_clip[1])
        terms = terms * keep[None, :, :]
    return complex(terms.sum())


def _sum_verdict(inst, s: complex) -> str | None:
    count = ee.lattice_count(inst)
    if abs(s) > count * (1.0 + 1e-9):
        return f"|S| = {abs(s):.6g} exceeds the {count} summed terms"
    err = abs(s - reference_sum(inst))
    if err > SUM_TOL * max(count, 1):
        return f"S differs from the reference sum by {err:.3g}"
    return None


def _eval_counters(inst) -> dict:
    return {
        "expsum_eval.eval_exp_sum.calls": 1,
        "expsum_eval.eval_exp_sum.terms": ee.lattice_count(inst),
        "expsum_eval.eval_exp_sum.terms_evaluated": inst.H * inst.M * inst.N,
    }


def _eval_and_bound(tr, inst):
    s = call(tr, "expsum_eval.eval_exp_sum", ee.eval_exp_sum, inst)
    bound = call(tr, "expsum_eval.bound_value", ee.bound_value, inst, "thm1")
    return s, bound


def random_op(inst) -> Op:
    def check(res):
        s, bound = res
        if not bound > 0:
            return f"bound {bound!r} is not positive"
        return _sum_verdict(inst, s)

    counters = _eval_counters(inst)
    threaded = ("expsum_eval.eval_exp_sum", counters["expsum_eval.eval_exp_sum.terms"],
                lambda w: ee.eval_exp_sum(inst, workers=w))
    return Op("expsum_random", {"seed": inst.seed, "H": inst.H, "M": inst.M, "N": inst.N},
              lambda tr: _eval_and_bound(tr, inst), check, counters, threaded=threaded)


def random_instances(seed: int) -> list:
    """The first RANDOM_PER_SIZE pool members of each count in RANDOM_TERMS,
    so the total number of terms is the same for every seed."""
    pool = ee.random_regime_instances(RANDOM_POOL, seed=seed, hmn_budget=10 ** 6)
    out = []
    for terms in RANDOM_TERMS:
        picks = [i for i in pool if ee.lattice_count(i) == terms][:RANDOM_PER_SIZE]
        if len(picks) < RANDOM_PER_SIZE:
            raise ValueError(f"seed {seed}: only {len(picks)} pool instances of {terms} terms")
        out += picks
    return out


def scenario_op(x: float, D: int, delta: float, hp: int, M: int, N: int, mode: str) -> Op:
    args = (x, D, delta, hp, 2 * hp, M, N, mode)

    def run(tr):
        inst = call(tr, "expsum_eval.build_floor_scenario", ee.build_floor_scenario, *args)
        return _eval_and_bound(tr, inst)

    def check(res):
        s, bound = res
        if not bound > 0:
            return f"bound {bound!r} is not positive"
        return _sum_verdict(ee.build_floor_scenario(*args), s)

    def probe(tr):
        t = call(tr, "vaughan_decomp.alpha_tables", vd.alpha_tables, D)
        call(tr, "arith_core.sieve_mangoldt", ac.sieve_mangoldt, t.rough_hi)

    shape = ee.ExpSumInstance(H=hp, M=M, N=N, X=2.0, alpha=1.0, beta=1.0, gamma=1.0,
                              coeff_a=None, coeff_b=None,
                              mn_clip=(D, 2 * D) if mode == "hyperbola" else None)
    counters = _eval_counters(shape)
    rough_hi = (2 * D) // (vd.vaughan_cut(D) + 1)
    counters.update({
        "expsum_eval.build_floor_scenario.calls": 1,
        "vaughan_decomp.alpha_tables.calls": 1,
        "arith_core.sieve_mangoldt.calls": 1,
        "arith_core.sieve_mangoldt.entries": rough_hi,
    })
    params = {"x": x, "D": D, "delta": delta, "Hp": hp, "M": M, "N": N, "mode": mode}
    return Op("expsum_scenario", params, run, check, counters, probe)


def regression_ops() -> list:
    """The frozen grid: |S|/bound must reproduce data/baselines.json."""
    base = suites.load_baselines()["expsum_thm1"]
    cases, insts = suites.regression_instances()
    ops = []
    for case, inst in zip(cases, insts):
        def check(res, case=case, inst=inst):
            s, bound = res
            ratio = abs(s) / bound
            want = base[case]
            if ratio > BASELINE_DRIFT * want or abs(ratio - want) > BASELINE_REL_TOL * want:
                return f"ratio {ratio!r} vs frozen {want!r}"
            return _sum_verdict(inst, s)

        ops.append(Op("expsum_regression", {"case": case},
                      lambda tr, inst=inst: _eval_and_bound(tr, inst), check,
                      _eval_counters(inst)))
    return ops


# ---------------------------------------------------------------------------
# sawtooth approximant


def psi_points(rng, count: int) -> np.ndarray:
    """Uniform on [-1, 2], every tenth point within 1e-9 of an integer,
    where the majorant is tight."""
    xs = np.array([-1.0 + 3.0 * rng.random() for _ in range(count)])
    xs[::10] = np.round(xs[::10]) + np.array([(rng.random() - 0.5) * 2e-9
                                              for _ in range(len(xs[::10]))])
    return xs


def psi_op(xs: np.ndarray, H: int) -> Op:
    def run(tr):
        approx = call(tr, "vaaler_psi.psi_approx_many", vp.psi_approx_many, xs, H)
        major = call(tr, "vaaler_psi.error_majorant_many", vp.error_majorant_many, xs, H)
        return approx, major

    def check(res):
        approx, major = res
        slack = np.abs(ac.psi_frac_many(xs) - approx) - major
        worst = float(np.max(slack))
        return None if worst <= 1e-12 else f"error exceeds the majorant by {worst:.3g}"

    counters = {
        "vaaler_psi.psi_approx_many.calls": 1,
        "vaaler_psi.psi_approx_many.evals": len(xs) * H,
        "vaaler_psi.error_majorant_many.calls": 1,
    }
    return Op("psi", {"H": H, "points": len(xs)}, run, check, counters)


# ---------------------------------------------------------------------------
# dispersion and spacing inequalities


def _disc(rng) -> complex:
    """Area-uniform in the closed unit disc."""
    r, t = math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
    return complex(r * math.cos(t), r * math.sin(t))


def synthetic_dls(rng, n_pts: int, n_fns: int, reject: bool = False):
    """Point set and affine member family; ``reject`` makes every member
    oscillate by more than K/(4Y), which dls_check must refuse."""
    Y = math.exp(rng.uniform(math.log(0.5), math.log(8.0)))
    X = math.exp(rng.uniform(math.log(0.5), math.log(8.0)))
    K = rng.uniform(1.0, 6.0)
    pts = bs.PointSet(points=[rng.uniform(0.0, Y) for _ in range(n_pts)],
                      coeffs=[_disc(rng) for _ in range(n_pts)], Y=Y)
    cap = K / (4.0 * Y)
    if reject:
        X = max(X, 3.0 * cap)
    grid = np.linspace(0.0, 1.0, n_pts)
    table = np.empty((n_fns, n_pts))
    for j in range(n_fns):
        spread = 1.5 * cap if reject else rng.uniform(0.0, min(0.45 * cap, X))
        table[j] = rng.uniform(0.0, X - spread) + spread * grid
    fam = bs.FunctionFamily(table=table, coeffs=[_disc(rng) for _ in range(n_fns)], X=X)
    return fam, pts, K


def scenario_dls(rng):
    """Family and points of the perturbed reciprocal scenario, with delta
    inside the oscillation precondition by construction."""
    H, M, N = rng.randint(2, 8), rng.randint(2, 12), rng.randint(2, 10)
    alpha, beta, gamma = (rng.uniform(0.5, 1.5) for _ in range(3))
    X = math.exp(rng.uniform(math.log(2.0), math.log(30.0)))
    K = rng.uniform(1.0, 6.0)
    cap = bs.max_safe_delta(M, N, X, alpha, beta, gamma, K)
    delta = min(rng.uniform(0.0, 0.45 * cap), 0.99 * M ** beta)
    spec = dc.PerturbationSpec(beta=beta, delta=delta, M=M, kind="mu")
    pts = bs.scenario_points(H, M, X, alpha, beta)
    ms = bs.scenario_m_coordinates(H, M)
    if rng.random() < 0.5:
        fam = bs.reciprocal_family(N, gamma, spec, ms)
    else:
        fam = bs.pair_difference_family(N, gamma, spec, ms)
    return fam, pts, K


def reference_bilinear(fam, pts) -> complex:
    phases = np.exp(2j * np.pi * fam.table * pts.points[None, :])
    return complex(fam.coeffs @ phases @ pts.coeffs)


def dls_op(fam, pts, K: float, label: str) -> Op:
    def run(tr):
        rep = call(tr, "bilinear_sieve.dls_check", bs.dls_check, fam, pts, K)
        return rep.lhs, rep.rhs, rep.ratio, rep.passed

    def check(res):
        lhs, rhs, ratio, passed = res
        limit = bs.dls_proof_constant(K)
        if not (passed and ratio <= limit):
            return f"ratio {ratio!r} above the proof constant {limit!r}"
        scale = float(np.sum(np.abs(fam.coeffs))) * float(np.sum(np.abs(pts.coeffs)))
        ref = abs(reference_bilinear(fam, pts)) ** 2
        if abs(lhs - ref) > 1e-9 * scale * scale:
            return f"|B|^2 = {lhs!r} vs reference {ref!r}"
        return None

    counters = {"bilinear_sieve.dls_check.calls": 1}
    params = {"kind": label, "members": len(fam), "points": len(pts), "K": K}
    threaded = ("bilinear_sieve.dls_check", len(fam) * len(pts),
                lambda w: bs.dls_check(fam, pts, K, workers=w).lhs)
    return Op("dls", params, run, check, counters, threaded=threaded)


def rejected_op(fam, pts, K: float) -> Op:
    def run(tr):
        try:
            call(tr, "bilinear_sieve.dls_check", bs.dls_check, fam, pts, K)
        except RejectedInstanceError:
            return "rejected"
        return "accepted"

    def check(res):
        return None if res == "rejected" else "out-of-precondition instance was not refused"

    counters = {"bilinear_sieve.dls_check.calls": 1, "bilinear_sieve.rejected": 1}
    return Op("dls_rejected", {"members": len(fam), "points": len(pts), "K": K},
              run, check, counters)


def lemma21_op(rng, n: int) -> Op:
    Y = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
    pts = bs.PointSet(points=[rng.uniform(0.0, Y) for _ in range(n)], coeffs=np.ones(n), Y=Y)
    T = math.exp(rng.uniform(math.log(0.5), math.log(8.0)))
    eta = math.exp(rng.uniform(math.log(1e-3), math.log(1.0 / (2.0 * T))))

    def run(tr):
        rep = call(tr, "bilinear_sieve.lemma21_check", bs.lemma21_check, pts, T, eta)
        return rep.lhs, rep.rhs

    def check(res):
        lhs, rhs = res
        if lhs > rhs * (1.0 + 1e-9):
            return f"lhs {lhs!r} > rhs {rhs!r}"
        # the exact integral again, with the kernel written as 2T sinc(2T d)
        d = pts.points[:, None] - pts.points[None, :]
        ref = float(np.real(np.sum(np.outer(pts.coeffs, np.conj(pts.coeffs))
                                   * 2.0 * T * np.sinc(2.0 * T * d))))
        scale = 2.0 * T * float(np.sum(np.abs(pts.coeffs))) ** 2
        return None if abs(lhs - ref) <= 1e-9 * scale else f"lhs {lhs!r} vs reference {ref!r}"

    return Op("lemma21", {"n": n, "T": T, "eta": eta}, run, check,
              {"bilinear_sieve.lemma21_check.calls": 1})


# ---------------------------------------------------------------------------
# correlation counts


def sorted_pair_count(values: np.ndarray, threshold: float) -> int:
    """Ordered pairs within threshold, by sorting and binary search."""
    v = np.sort(values)
    lo = np.searchsorted(v, v - threshold, side="left")
    hi = np.searchsorted(v, v + threshold, side="right")
    return int(np.sum(hi - lo))


def dio_values(kind: str, params: dict) -> np.ndarray:
    """The values whose close pairs B0 and B1 count, from their definition."""
    if kind == "B0":
        N, beta = params["N"], params["beta"]
        n = np.arange(N + 1, 2 * N + 1, dtype=np.float64) ** beta / float(N) ** beta
        return (n[:, None] + n[None, :]).ravel()
    H, M = params["H"], params["M"]
    h = np.arange(H + 1, 2 * H + 1, dtype=np.float64) ** params["alpha"]
    m = np.arange(M + 1, 2 * M + 1, dtype=np.float64) ** params["beta"]
    return (h[:, None] * m[None, :]).ravel() / (float(H) ** params["alpha"] * float(M) ** params["beta"])


def dio_pairs(kind: str, params: dict) -> int:
    if kind in ("B0", "B2"):
        return params["N"] ** 4
    if kind == "B1":
        return (params["H"] * params["M"]) ** 2
    return params["N"] ** 2


def dio_op(kind: str, params: dict) -> Op:
    if kind in ("B0", "B1"):
        def run(tr):
            rep = call(tr, "diophantine_count.dio_report", dc.dio_report, kind, **params)
            return rep.count, rep.boundary

        def check(res):
            count, boundary = res
            ref = sorted_pair_count(dio_values(kind, params), 1.0 / params["X"])
            return None if abs(ref - count) <= boundary else f"count {count} vs sorted count {ref}"

        calls = 1
    else:
        spec = dc.PerturbationSpec(beta=1.0, delta=DIO_DELTA[kind], M=params["N"],
                                   kind="mu" if kind == "B2" else "nu")

        def run(tr):
            out = []
            for mode in ("endpoint", "scan"):
                rep = call(tr, "diophantine_count.dio_report", dc.dio_report, kind,
                           mode=mode, spec=spec, **params)
                out += [rep.count, rep.boundary]
            return tuple(out)

        def check(res):
            return None if res[:2] == res[2:] else f"endpoint {res[:2]} != scan {res[2:]}"

        calls = 2
    counters = {"diophantine_count.dio_report.calls": calls,
                "diophantine_count.dio_report.pairs": calls * dio_pairs(kind, params)}
    return Op("dio_" + kind, dict(params), run, check, counters)


def _dio_params(kind: str, size: int, rng) -> dict:
    if kind == "B0":
        return {"N": size, "beta": rng.uniform(1.2, 2.5), "X": float(size * size)}
    if kind == "B1":
        return {"H": size, "M": 2 * size, "alpha": 1.0, "beta": 1.0, "X": float(2 * size * size)}
    return {"N": size, "gamma": 1.0, "X": float(size)}


# ---------------------------------------------------------------------------


def build_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = [random_op(inst) for inst in random_instances(seed)]
    for mode in ("rectangle", "hyperbola"):
        for k, D in enumerate(stratified_log(rng, *SCENARIO_D)):
            D = int(D)
            M = max(2, int(round(math.sqrt(D) * 2.0 ** rng.uniform(-1.0, 1.0))))
            N = max(2, int(round(D / M)))
            hp = SCENARIO_HP[k % len(SCENARIO_HP)]
            x = D * 10.0 ** rng.uniform(1.0, 3.0)
            ops.append(scenario_op(x, D, rng.choice((0.0, 0.5, 1.0)), hp, M, N, mode))
    ops += regression_ops()
    xs = psi_points(rng, PSI_POINTS)
    ops += [psi_op(xs, int(H)) for H in stratified_log(rng, *PSI_H)]
    for k, n in enumerate(stratified_log(rng, *DLS_POINTS)):
        ops.append(dls_op(*synthetic_dls(rng, int(n), 8 + 4 * (k % 8)), "synthetic"))
    ops += [dls_op(*scenario_dls(rng), "scenario") for _ in range(DLS_SCENARIOS)]
    ops += [rejected_op(*synthetic_dls(rng, 64, 8, reject=True)) for _ in range(DLS_REJECTED)]
    ops += [lemma21_op(rng, int(n)) for n in stratified_log(rng, *LEMMA_POINTS)]
    for kind, (lo, hi) in DIO_SIZES.items():
        for size in stratified_log(rng, lo, hi, DIO_PER_KIND):
            ops.append(dio_op(kind, _dio_params(kind, int(size), rng)))
    return ops


def warm_up(ops) -> None:
    """Fill the Vaaler polynomial cache for every degree in the op list and
    touch each kernel once on a small input."""
    for op in ops:
        if op.kind == "psi":
            vp.psi_approx_many(np.zeros(1), op.params["H"])
    inst = ee.random_regime_instances(1, seed=1)[0]
    ee.eval_exp_sum(inst)
    ee.bound_value(inst, "thm1")
    fam, pts, K = synthetic_dls(random.Random(0), 16, 4)
    bs.dls_check(fam, pts, K)
    dc.dio_report("B0", N=4, beta=1.5, X=16.0)


def trace_extras(ops, passes, seed: int, tracer) -> dict:
    """Threshold ties the correlation counters reported (first pass)."""
    boundary = 0
    for op, res in zip(ops, passes[0].results):
        if op.kind.startswith("dio_") and isinstance(res, tuple):
            boundary += sum(res[1::2])
    return {"diophantine_count.dio_report.boundary": boundary}
