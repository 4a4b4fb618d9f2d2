"""floor_sum: warm, in-process stream of floor-ratio and block-sum queries.

Why this workload: the sieves, ``mangoldt_point`` and the six-table split do
nearly all their work here, and nothing else does.  Sizes are drawn one per
log-width stratum, with the top of each range always present, so the total
work and the peak memory barely move from one seed to another.
"""

from __future__ import annotations

import math
import random

import numpy as np
from expsumlab import arith_core as ac
from expsumlab import floor_mangoldt as fm
from expsumlab import vaughan_decomp as vd

from perfbench.core import Op, call, stratified_log

NAME = "floor_sum"

# C = sum_d Lambda(d)/(d(d+1)), the reference value the constant must reach
C_REF = 0.44984431306617305
# float noise of S(x) - S(x-1) is ~1e-5 at x = 1e11; the smallest nonzero
# Lambda value is log 2, so 1e-3 still catches any wrong Lambda term
RECURRENCE_TOL = 1e-3
REL_TOL = 1e-9

# (lo, hi, ops): ops - 1 stratified draws plus hi itself
BLOCKED = (10 ** 9, 10 ** 11, 6)
AGREE = (10 ** 5, 10 ** 7, 16)
CONSTANT = (10 ** 4, 10 ** 7, 16)
FRAK = (10 ** 3, 10 ** 6, 16)


def _divisors(x: int) -> list:
    small = [d for d in range(1, math.isqrt(x) + 1) if x % d == 0]
    return sorted(set(small) | {x // d for d in small})


def recurrence_gap(x: int, s_x: float, s_prev: float) -> float:
    """|S(x) - S(x-1) - (log x - sum_{d | x, d > 1} Lambda(d - 1))|: the
    exact one-step recurrence, since [x/n] - [(x-1)/n] = 1 iff n | x."""
    rhs = math.log(x) - math.fsum(ac.mangoldt_point(d - 1) for d in _divisors(x) if d > 1)
    return abs((s_x - s_prev) - rhs)


def blocked_counters(x: int) -> dict:
    n0 = math.isqrt(x)
    return {
        "floor_mangoldt.s_lambda_blocked.calls": 1,
        "arith_core.mangoldt_point.calls": n0,
        "arith_core.sieve_mangoldt.calls": 1,
        "arith_core.sieve_mangoldt.entries": x // (n0 + 1),
    }


def probe_blocked(tracer, x: int) -> None:
    """The two parts of s_lambda_blocked: pointwise Lambda([x/n]) for
    n <= sqrt(x), and the sieve over the remaining small values."""
    n0 = math.isqrt(x)
    with tracer.span("arith_core.mangoldt_point"):
        math.fsum(ac.mangoldt_point(x // n) for n in range(1, n0 + 1))
    call(tracer, "arith_core.sieve_mangoldt", ac.sieve_mangoldt, x // (n0 + 1))


def blocked_op(x: int) -> Op:
    def run(tr):
        return call(tr, "floor_mangoldt.s_lambda_blocked", fm.s_lambda_blocked, x)

    def check(s):
        gap = recurrence_gap(x, s, fm.s_lambda_blocked(x - 1))
        return None if gap <= RECURRENCE_TOL else f"recurrence off by {gap:.3g}"

    threaded = ("floor_mangoldt.s_lambda_blocked", x,
                lambda w: fm.s_lambda_blocked(x, workers=w))
    return Op("blocked", {"x": x}, run, check, blocked_counters(x),
              lambda tr: probe_blocked(tr, x), threaded)


def agree_op(x: int) -> Op:
    def run(tr):
        d = call(tr, "floor_mangoldt.s_lambda_direct", fm.s_lambda_direct, x)
        b = call(tr, "floor_mangoldt.s_lambda_blocked", fm.s_lambda_blocked, x)
        return d, b

    def check(res):
        d, b = res
        rel = abs(d - b) / (1.0 + abs(d))
        return None if rel <= REL_TOL else f"direct {d!r} vs blocked {b!r}"

    def probe(tr):
        call(tr, "arith_core.sieve_mangoldt", ac.sieve_mangoldt, x)
        probe_blocked(tr, x)

    counters = blocked_counters(x)
    counters["floor_mangoldt.s_lambda_direct.calls"] = 1
    counters["arith_core.sieve_mangoldt.calls"] += 1
    counters["arith_core.sieve_mangoldt.entries"] += x
    threaded = ("floor_mangoldt.s_lambda_direct", x,
                lambda w: fm.s_lambda_direct(x, workers=w))
    return Op("agree", {"x": x}, run, check, counters, probe, threaded)


def _constant_segments(T: int) -> list:
    cap = ac.DEFAULT_SEGMENT_CAPACITY
    return [(lo, min(T, lo + cap)) for lo in range(1, T, cap)]


def constant_op(T: int) -> Op:
    segments = _constant_segments(T)

    def run(tr):
        c = call(tr, "floor_mangoldt.main_constant", fm.main_constant, T)
        return c.value, c.tail_bound

    def check(res):
        value, tail = res
        if value > C_REF + 1e-15 or C_REF - value > tail:
            return f"C({T}) = {value!r} not within {tail:.3g} below C"
        return None

    def probe(tr):
        for lo, hi in segments:
            call(tr, "arith_core.segment_sieve", ac.segment_sieve, lo, hi)

    counters = {
        "floor_mangoldt.main_constant.calls": 1,
        "arith_core.segment_sieve.calls": len(segments),
        "arith_core.segment_sieve.entries": T - 1,
    }
    threaded = ("floor_mangoldt.main_constant", T,
                lambda w: fm.main_constant(T, workers=w).value)
    return Op("constant", {"T": T}, run, check, counters, probe, threaded)


def split_inner_terms(tables) -> int:
    """g evaluations vaughan_split makes: the length of the inner n range
    of every nonzero coefficient in the four sums."""
    D, cut, hi = tables.D, tables.cut, tables.rough_hi
    total = 0
    for coeffs in (tables.alpha1, tables.alpha2):
        for m in range(1, cut + 1):
            if coeffs[m - 1] != 0.0:
                total += (2 * D) // m - D // m
    m = np.arange(cut + 1, hi + 1, dtype=np.int64)
    n_lo = np.maximum(cut, D // m) + 1
    n_hi = np.minimum(hi, (2 * D) // m)
    lengths = np.maximum(n_hi - n_lo + 1, 0)
    for outer in (tables.alpha3, tables.alpha5):
        total += int(lengths[outer != 0.0].sum())
    return total


def frak_op(x: float, D: int, delta: float) -> Op:
    tables = vd.alpha_tables(D)

    def g(d):
        return ac.psi_frac_many(x / (d.astype(float) + delta))

    def run(tr):
        a = call(tr, "floor_mangoldt.frak_s", fm.frak_s, x, D, delta)
        b = call(tr, "vaughan_decomp.frak_s_decomposed", vd.frak_s_decomposed, x, D, delta)
        return a, b.total

    def check(res):
        a, b = res
        err = abs(a - b)
        return None if err <= REL_TOL * (1.0 + abs(a)) else f"direct {a!r} vs split {b!r}"

    def probe(tr):
        call(tr, "arith_core.segment_sieve", ac.segment_sieve, D, 2 * D)
        t = call(tr, "vaughan_decomp.alpha_tables", vd.alpha_tables, D)
        call(tr, "arith_core.sieve_mangoldt", ac.sieve_mangoldt, t.rough_hi)
        call(tr, "vaughan_decomp.vaughan_split", vd.vaughan_split, D, g, tables=t)
        call(tr, "vaughan_decomp.direct_lambda_sum", vd.direct_lambda_sum, D, g)

    counters = {
        "floor_mangoldt.frak_s.calls": 1,
        "arith_core.segment_sieve.calls": 1,
        "arith_core.segment_sieve.entries": D,
        "vaughan_decomp.alpha_tables.calls": 1,
        "vaughan_decomp.vaughan_split.calls": 1,
        "vaughan_decomp.vaughan_split.inner_terms": split_inner_terms(tables),
        "vaughan_decomp.direct_lambda_sum.calls": 1,
        "arith_core.sieve_mangoldt.calls": 1,
        "arith_core.sieve_mangoldt.entries": tables.rough_hi,
    }
    return Op("frak", {"x": x, "D": D, "delta": delta}, run, check, counters, probe)


def build_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = [blocked_op(int(x)) for x in stratified_log(rng, *BLOCKED)]
    ops += [agree_op(int(x)) for x in stratified_log(rng, *AGREE)]
    ops += [constant_op(int(t)) for t in stratified_log(rng, *CONSTANT)]
    for D in stratified_log(rng, *FRAK):
        D = int(D)
        x = D * (4.0 + 12.0 * rng.random())
        ops.append(frak_op(x, D, rng.choice((0.0, 0.5, 1.0))))
    return ops


def warm_up(ops) -> None:
    fm.s_lambda_blocked(10 ** 7)
    fm.s_lambda_direct(10 ** 4)
    fm.main_constant(10 ** 4)
    fm.frak_s(12500.0, 1000, 0.5)
    vd.frak_s_decomposed(12500.0, 1000, 0.5)


# gate_cold is not one of the workloads BENCHMARK.json lists, so the traced
# run of this workload also measures its layers (cli_harness, suites,
# reports, exponent_calc and best_constant's cold sieve)
HOSTS_GATE_LAYERS = True


def trace_extras(ops, passes, seed: int, tracer) -> dict:
    return {}
