"""Deterministic verification batteries.

Each suite runs a fixed, seeded battery of checks against one component and
returns a SuiteResult whose rows are byte-stable: given the same seed and
sizes, every float in every row is identical from run to run.  Rows leave
wall_time at 0.0; timing a battery is the caller's business.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from importlib import resources

import numpy as np

from . import bilinear_sieve as bs
from . import diophantine_count as dc
from . import exponent_calc as xc
from . import expsum_eval as ee
from . import floor_mangoldt as fm
from . import vaughan_decomp as vd
from .arith_core import mangoldt_point, psi_frac_many, segment_sieve, sieve_mangoldt
from .reports import ReportRow
from .seeding import DetRand, pair_uniform
from .vaaler_psi import error_majorant_many, psi_approx_many

BASELINE_RESOURCE = "data/baselines.json"


@dataclass
class SuiteResult:
    name: str
    passed: bool
    rows: list
    failures: list = field(default_factory=list)


def _finish(name: str, rows: list) -> SuiteResult:
    failures = [r.case for r in rows if r.verdict != "pass"]
    return SuiteResult(name=name, passed=not failures, rows=rows, failures=failures)


# ---------------------------------------------------------------------------
# sawtooth approximation


def vaaler_suite(seed: int = 0, count: int = 10 ** 5, h_max: int = 200) -> SuiteResult:
    """Seeded (x, H) pairs, one tenth nudged to within 1e-9 of an integer;
    the approximation error must stay under the majorant plus 1e-12."""
    idx = np.arange(count)
    hs = 1 + np.floor(pair_uniform(seed, idx, 0) * h_max).astype(np.int64)
    hs = np.minimum(hs, h_max)
    xs = -1.0 + 3.0 * pair_uniform(seed, idx, 1)
    near = idx % 10 == 0
    nudge = (pair_uniform(seed, idx, 2) - 0.5) * 2e-9
    xs[near] = np.round(xs[near]) + nudge[near]
    rows = []
    for H in np.unique(hs):
        grp = xs[hs == H]
        diff = np.abs(psi_frac_many(grp) - psi_approx_many(grp, int(H)))
        slack = diff - error_majorant_many(grp, int(H))
        worst = float(np.max(slack))
        rows.append(ReportRow("vaaler", f"H={int(H)}",
                              {"H": int(H), "pairs": int(grp.size)},
                              worst, 1e-12, worst <= 1e-12, seed=seed))
    return _finish("vaaler", rows)


# ---------------------------------------------------------------------------
# counting inequality and dispersion


def lemma21_suite(seed: int = 0, count: int = 1000, max_points: int = 50) -> SuiteResult:
    """Random well-spaced-free point sets: the pair count at separation eta
    is controlled by the exact oscillatory kernel sum."""
    rows = []
    for i in range(count):
        rng = DetRand(seed, stream=i)
        n = rng.integer(1, max_points)
        Y = rng.log_uniform(0.5, 4.0)
        pts = bs.PointSet(points=rng.uniform_array(n, 0.0, Y),
                          coeffs=np.ones(n), Y=Y)
        T = rng.log_uniform(0.5, 8.0)
        eta = rng.log_uniform(1e-3, 1.0 / (2.0 * T))
        rep = bs.lemma21_check(pts, T=T, eta=eta, seed=seed + i)
        rows.append(replace(rep, case=f"i={i:04d}"))
    return _finish("lemma21", rows)


def _synthetic_dls_instance(rng: DetRand):
    n_pts = rng.integer(4, 40)
    n_fns = rng.integer(2, 12)
    Y = rng.log_uniform(0.5, 8.0)
    X = rng.log_uniform(0.5, 8.0)
    K = rng.uniform(1.0, 6.0)
    pts = bs.PointSet(points=rng.uniform_array(n_pts, 0.0, Y),
                      coeffs=np.array([rng.complex_in_disc() for _ in range(n_pts)]),
                      Y=Y)
    osc_cap = 0.45 * K / (4.0 * Y)
    grid = np.linspace(0.0, 1.0, n_pts)
    table = np.empty((n_fns, n_pts))
    for j in range(n_fns):
        spread = rng.uniform(0.0, min(osc_cap, X))
        base = rng.uniform(0.0, X - spread)
        table[j] = base + spread * grid
    fam = bs.FunctionFamily(table=table,
                            coeffs=np.array([rng.complex_in_disc() for _ in range(n_fns)]),
                            X=X)
    return fam, pts, K


def _scenario_dls_instance(rng: DetRand):
    H = rng.integer(2, 5)
    M = rng.integer(2, 6)
    N = rng.integer(2, 6)
    alpha = rng.uniform(0.5, 1.5)
    beta = rng.uniform(0.5, 1.5)
    gamma = rng.uniform(0.5, 1.5)
    X = rng.log_uniform(2.0, 30.0)
    K = rng.uniform(1.0, 6.0)
    cap = bs.max_safe_delta(M, N, X, alpha, beta, gamma, K)
    delta = rng.uniform(0.0, 0.45 * cap)
    spec = dc.PerturbationSpec(beta=beta, delta=min(delta, 0.99 * M ** beta),
                               M=M, kind="mu")
    pts = bs.scenario_points(H, M, X, alpha, beta)
    ms = bs.scenario_m_coordinates(H, M)
    if rng.uniform() < 0.5:
        fam = bs.reciprocal_family(N, gamma, spec, ms)
    else:
        fam = bs.pair_difference_family(N, gamma, spec, ms)
    return fam, pts, K


def dls_suite(seed: int = 0, count: int = 1000) -> SuiteResult:
    """Bilinear forms against the dispersion bound: the observed ratio must
    stay within the proof constant for every precondition-satisfying
    instance, synthetic and scenario-derived alike."""
    rows = []
    for i in range(count):
        rng = DetRand(seed, stream=i)
        if i % 2 == 0:
            fam, pts, K = _synthetic_dls_instance(rng)
            kind = "synthetic"
        else:
            fam, pts, K = _scenario_dls_instance(rng)
            kind = "scenario"
        res = bs.dls_check(fam, pts, K=K, seed=seed + i)
        rows.append(ReportRow("dls", f"{kind}_{i:04d}",
                              {"kind": kind, "K": K, "members": int(fam.table.shape[0]),
                               "points": int(pts.points.size)},
                              res.ratio, bs.dls_proof_constant(K), res.passed,
                              seed=seed + i))
    return _finish("dls", rows)


# ---------------------------------------------------------------------------
# lattice-point correlation counts


_DIO_LADDERS = {
    "B0": [{"N": n, "beta": 1.5, "X": float(n * n)} for n in (4, 8, 16)],
    "B1": [{"H": h, "M": 2 * h, "alpha": 1.0, "beta": 1.0, "X": float(2 * h * h)}
           for h in (2, 4, 8)],
    "B2": [{"N": n, "gamma": 1.0, "X": float(n)} for n in (4, 8, 16)],
    "B3": [{"N": n, "gamma": 1.0, "X": float(n)} for n in (4, 8, 16, 32)],
}


# how far a ladder step's fitted constant may drift from the base step's,
# as a factor either way
DIO_SLACK = 4.0


def dio_suite(seed: int = 0) -> SuiteResult:
    """Frozen exact counts, doubling ladders with a fitted constant that may
    drift by at most the DIO_SLACK factor, and endpoint-vs-scan agreement."""
    rows = []
    for kind, params in (("B0", {"N": 2, "beta": 2.0, "X": 100.0}),
                         ("B1", {"H": 2, "M": 2, "alpha": 1.0, "beta": 1.0, "X": 100.0})):
        count = dc.dio_report(kind, **params).count
        rows.append(ReportRow("dio", f"exact_{kind}", params, count, 6.0, count == 6))
    for kind, ladder in _DIO_LADDERS.items():
        base_c = None
        for step in ladder:
            rep = dc.dio_report(kind, mode="endpoint",
                                spec=dc.default_spec(kind, step.get("N")), **step)
            if base_c is None:
                base_c = rep.fitted_constant or 1.0
                rows.append(ReportRow("dio", f"ladder_{kind}_base", dict(step),
                                      rep.fitted_constant, base_c, True))
                continue
            drift = rep.fitted_constant / base_c
            ok = 1.0 / DIO_SLACK <= drift <= DIO_SLACK
            size = step.get("N") or step.get("M")
            rows.append(ReportRow("dio", f"ladder_{kind}_size{size}",
                                  dict(step), drift, DIO_SLACK, ok))
    for kind in ("B2", "B3"):
        params = {"N": 8, "gamma": 1.0, "X": 8.0}
        spec = dc.default_spec(kind, params["N"])
        a, b = (dc.dio_report(kind, mode=mode, spec=spec, **params).count
                for mode in dc.MODES)
        rows.append(ReportRow("dio", f"mode_agree_{kind}", params, a, b, a == b))
    return _finish("dio", rows)


# ---------------------------------------------------------------------------
# arithmetic decomposition


def _vaughan_cases(seed: int, D: int):
    lo_val = -1.0
    yield "ones", lambda d: np.ones(len(d))
    x = 10.0 * D + 0.5
    yield "sawtooth", lambda d: psi_frac_many(x / (d.astype(np.float64) + 1.0))
    for i in range(20):
        key = DetRand(seed, stream=i).next_u64()
        yield f"random_{i:02d}", (
            lambda d, key=key: 2.0 * pair_uniform(key, d, 0) + lo_val
        )


def vaughan_suite(seed: int = 0, d_values=(101, 1000, 10000)) -> SuiteResult:
    """The six-table decomposition must reproduce the direct Mangoldt block
    sum to 1e-9 relative for constant, sawtooth, and random weights, and the
    decomposed sawtooth block must match its direct evaluator."""
    rows = []
    for D in d_values:
        tables = vd.alpha_tables(D)
        for case, g in _vaughan_cases(seed, D):
            split = vd.vaughan_split(D, g, tables=tables)
            direct = vd.direct_lambda_sum(D, g)
            err = abs(split.total - direct)
            tol = 1e-9 * (1.0 + abs(direct))
            rows.append(ReportRow("vaughan", f"D{D}_{case}", {"D": D, "case": case},
                                  err, tol, err <= tol, seed=seed))
        x = 12.5 * D
        for delta in (0.0, 1.0):
            dec = vd.frak_s_decomposed(x, D, delta).total
            direct = fm.frak_s(x, D, delta)
            err = abs(dec - direct)
            tol = 1e-9 * (1.0 + abs(direct))
            rows.append(ReportRow("vaughan", f"D{D}_fraks_delta{delta:g}",
                                  {"D": D, "x": x, "delta": delta},
                                  err, tol, err <= tol, seed=seed))
    return _finish("vaughan", rows)


# ---------------------------------------------------------------------------
# floor-ratio Mangoldt sum


def msum_suite(seed: int = 0, random_count: int = 20) -> SuiteResult:
    """Direct-vs-blocked agreement, the hand value at x = 10, the block-count
    budget, and the two-cutoff stability of the main constant."""
    rows = []
    v10 = fm.s_lambda_direct(10)
    err10 = abs(v10 - math.log(60.0))
    rows.append(ReportRow("msum", "direct_x10", {"x": 10}, err10, 1e-12, err10 <= 1e-12))
    rng = DetRand(seed)
    xs = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    xs += sorted(rng.integer(10, 10 ** 6) for _ in range(random_count))
    for x in xs:
        d = fm.s_lambda_direct(x)
        b = fm.s_lambda_blocked(x)
        rel = abs(d - b) / (1.0 + abs(d))
        rows.append(ReportRow("msum", f"agree_x{x}", {"x": x}, rel, 1e-6,
                              rel <= 1e-6, seed=seed))
        blocks = fm.blocked_block_count(x)
        cap = 2 * (math.isqrt(x - 1) + 1) + 2 if x > 1 else 4
        rows.append(ReportRow("msum", f"blocks_x{x}", {"x": x}, blocks, cap,
                              blocks <= cap, seed=seed))
    c6 = fm.main_constant(10 ** 6)
    c7 = fm.main_constant(10 ** 7)
    gap = abs(c6.value - c7.value)
    rows.append(ReportRow("msum", "constant_cutoffs", {"T1": 10 ** 6, "T2": 10 ** 7},
                          gap, c6.tail_bound, gap <= c6.tail_bound))
    return _finish("msum", rows)


def fraks_suite(x: float = 12345.678, d_values=(1000, 10000),
                delta: float = 0.5) -> SuiteResult:
    """Direct sawtooth block sums against the decomposition, plus the
    trivial half-Chebyshev cap."""
    rows = []
    for D in d_values:
        direct = fm.frak_s(x, D, delta)
        dec = vd.frak_s_decomposed(x, D, delta).total
        err = abs(direct - dec)
        tol = 1e-9 * (1.0 + abs(direct))
        rows.append(ReportRow("fraks", f"decomp_D{D}", {"x": x, "D": D, "delta": delta},
                              err, tol, err <= tol))
        cheb = 0.5 * float(np.sum(segment_sieve(D, 2 * D)))
        rows.append(ReportRow("fraks", f"cap_D{D}", {"x": x, "D": D, "delta": delta},
                              abs(direct), cheb, abs(direct) <= cheb))
    return _finish("fraks", rows)


def fit_suite(lo: int = 10 ** 4, hi: int = 10 ** 9, points: int = 12,
              slope_cap: float = 0.60) -> SuiteResult:
    """Error curve of the floor-ratio sum on a geometric grid and the
    fitted log-log growth exponent.  A non-finite slope cap is refused: at
    nan the gate reads failed, at inf it cannot fail."""
    if not math.isfinite(slope_cap):
        raise ValueError(f"--slope-cap must be a finite number, got {slope_cap!r}")
    grid = fm.geometric_grid(lo, hi, points)
    curve = fm.error_curve(grid)
    rows = []
    for x, s, e, b in zip(grid, curve.s_values, curve.e_values, curve.band):
        rows.append(ReportRow("fit", f"point_x{x}",
                              {"x": x, "S": float(s), "band": float(b)},
                              abs(float(e)), max(1.0, float(s)), True))
    fit = fm.fit_error_slope(curve)
    rows.append(ReportRow("fit", "slope",
                          {"points": len(grid), "used": fit.used,
                           "stderr": fit.slope_stderr, "T": curve.constant.T},
                          fit.slope, slope_cap, fit.slope <= slope_cap))
    return _finish("fit", rows)


# ---------------------------------------------------------------------------
# exponential sum regression


def load_baselines() -> dict:
    with resources.files("expsumlab").joinpath(BASELINE_RESOURCE).open() as fh:
        return json.load(fh)


# the seed of the frozen grid's random instances, and how far a thm1 ratio
# may rise above its baseline, as a factor
REGRESSION_SEED = 20260801
REGRESSION_DRIFT = 10.0


def regression_instances(count: int = 24):
    """The frozen grid: seeded random in-regime instances plus fixed
    decomposition scenarios."""
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {count}")
    insts = list(ee.random_regime_instances(count, seed=REGRESSION_SEED))
    cases = [f"rand_{i:02d}" for i in range(count)]
    for hp, mode, delta in ((1, "rectangle", 0.0), (4, "rectangle", 1.0),
                            (4, "hyperbola", 1.0), (2, "hyperbola", 0.5)):
        insts.append(ee.build_floor_scenario(
            x=10 ** 6, D=500, delta=delta, Hp=hp, Hmax=16, M=20, N=25, mode=mode))
        cases.append(f"scenario_hp{hp}_{mode}_d{delta:g}")
    return cases, insts


def expsum_regression_suite(count: int = 24) -> SuiteResult:
    """|S| against the perturbation-aware bound on the frozen grid: the
    ratio may not exceed the packaged baseline by more than the
    REGRESSION_DRIFT factor, and |S| may never exceed the number of lattice
    points.  A count beyond the recorded cases is refused before any sum."""
    base = load_baselines()["expsum_thm1"]
    cases, insts = regression_instances(count=count)
    missing = [case for case in cases if case not in base]
    if missing:
        raise ValueError(f"the baseline has no entry for case {missing[0]!r} "
                         f"({len(missing)} of {len(cases)} cases missing)")
    rows = []
    for case, inst in zip(cases, insts):
        lhs = abs(ee.eval_exp_sum(inst))
        rhs = ee.bound_value(inst, "thm1")
        ratio = lhs / rhs
        cap = REGRESSION_DRIFT * base[case]
        rows.append(ReportRow("expsum", case, inst.params_dict(), ratio, cap,
                              ratio <= cap, seed=inst.seed))
        cnt = ee.lattice_count(inst)
        rows.append(ReportRow("expsum", f"{case}_count", {"count": cnt}, lhs,
                              float(cnt) * (1 + 1e-9), lhs <= cnt * (1 + 1e-9),
                              seed=inst.seed))
    return _finish("expsum", rows)


def measure_baselines(count: int = 24) -> dict:
    """Current thm1 ratios on the frozen grid, for regenerating the
    committed baseline file."""
    cases, insts = regression_instances(count=count)
    ratios = {}
    for case, inst in zip(cases, insts):
        lhs = abs(ee.eval_exp_sum(inst))
        ratios[case] = lhs / ee.bound_value(inst, "thm1")
    return {"version": 1, "seed": REGRESSION_SEED, "count": count, "expsum_thm1": ratios}


# ---------------------------------------------------------------------------
# exact exponent identities


def exponent_suite() -> SuiteResult:
    """Zero-tolerance rational identities of the optimization chain."""
    rows = []

    def exact(case, got, want):
        rows.append(ReportRow("expcalc", case, {"got": str(got), "want": str(want)},
                              1.0 if got == want else 0.0, 1.0, got == want))

    F = Fraction
    terms = xc.parse_bound_expr("E, x^{17/19} * E^{-17/19}, x^{212/285} * E^{-329/570}")
    mm = xc.minimax_balance(terms, lo=F(8, 17), hi=F(1, 2))
    exact("minimax_estar", mm.e_star, F(17, 36))
    exact("minimax_optimum", mm.optimum, xc.Monomial.of(x=F(17, 36)))
    exact("minimax_active", mm.active, (0, 1))
    large = xc.segment_bound_large()
    exact("large_terms", large,
          xc.BoundExpr.of(xc.Monomial.of(D=F(17, 19)),
                          xc.Monomial.of(x=F(1, 6), D=F(329, 570))))
    exact("rough_exponent", F(1, 2) + xc.THETA / 6, F(329, 570))
    ok_order = F(679, 760) <= F(680, 760)
    rows.append(ReportRow("expcalc", "shoulder_order",
                          {"lhs": "679/760", "rhs": "680/760"},
                          float(F(679, 760)), float(F(680, 760)), ok_order))
    at_t = xc.affine_in(xc.Monomial.of(x=F(1, 6), D=F(7, 12))).at(F(11, 21))
    exact("small_peak_at_t", at_t, F(17, 36))
    bp = xc.balance_pair(xc.parse_monomial("D * L^{-1}"),
                         xc.parse_monomial("x^{1/2} * D^{-1/6} * L^{1/2}"),
                         var="L")
    exact("balance_lstar", bp.l_star, xc.Monomial.of(x=F(-1, 3), D=F(7, 9)))
    exact("balance_value", bp.value, xc.Monomial.of(x=F(1, 3), D=F(2, 9)))
    t1 = xc.optimize_type_one(xc.ExponentPair(F(1, 2), F(1, 2)))
    exact("type_one_lead", t1.terms[0], xc.Monomial.of(x=F(1, 3), D=F(2, 9)))
    pipe = xc.combined_error_exponent()
    exact("pipeline_estar", pipe.minimax.e_star, F(17, 36))
    gap = xc.side_condition_gap()
    rows.append(ReportRow("expcalc", "side_condition",
                          {"margins": str(gap.margins)}, 1.0 if gap.holds else 0.0,
                          1.0, gap.holds))
    window_ok = (xc.E_RANGE[0] >= xc.SMALL_RANGE_FLOOR
                 and xc.T_RANGE[0] <= xc.SMALL_RANGE_CEIL)
    rows.append(ReportRow("expcalc", "validity_window",
                          {"e_lo": "8/17", "floor": "6/13"},
                          1.0 if window_ok else 0.0, 1.0, window_ok))
    return _finish("expcalc", rows)


# ---------------------------------------------------------------------------
# sieve consistency


def sieve_suite(seed: int = 0, limit: int = 10 ** 6, window: int = 10 ** 4) -> SuiteResult:
    """Full sieve against segments and point evaluation, plus the Chebyshev
    partial sums against a coarse envelope.  The segment (limit // 2,
    limit // 2 + window] must lie inside the full table."""
    if limit < 2 or not 1 <= window <= limit - limit // 2:
        raise ValueError(f"need --limit >= 2 and 1 <= --window <= --limit - --limit // 2, "
                         f"got --limit {limit} --window {window}")
    rows = []
    full = sieve_mangoldt(limit)
    lo = limit // 2
    seg = segment_sieve(lo, lo + window)
    err = float(np.max(np.abs(seg - full[lo: lo + window])))
    rows.append(ReportRow("sieve", "segment_agrees",
                          {"limit": limit, "lo": lo, "window": window},
                          err, 0.0, err == 0.0, seed=seed))
    rng = DetRand(seed)
    worst = 0.0
    for _ in range(200):
        d = rng.integer(2, limit)
        worst = max(worst, abs(float(full[d - 1]) - mangoldt_point(d)))
    rows.append(ReportRow("sieve", "point_agrees", {"limit": limit, "samples": 200},
                          worst, 1e-12, worst <= 1e-12, seed=seed))
    cheb = float(np.sum(full))
    envelope_ok = 0.9 * limit < cheb < 1.1 * limit
    rows.append(ReportRow("sieve", "chebyshev_envelope", {"limit": limit},
                          cheb, 1.1 * limit, envelope_ok, seed=seed))
    return _finish("sieve", rows)


ALL_SUITES = {
    "sieve": sieve_suite,
    "vaaler": vaaler_suite,
    "lemma21": lemma21_suite,
    "dls": dls_suite,
    "dio": dio_suite,
    "vaughan": vaughan_suite,
    "msum": msum_suite,
    "fraks": fraks_suite,
    "expsum": expsum_regression_suite,
    "expcalc": exponent_suite,
    "fit": fit_suite,
}
