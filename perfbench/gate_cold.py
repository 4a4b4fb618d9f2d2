"""gate_cold: the release gate as a user runs it, one cold CLI call per op.

Why this workload: it is the only one that pays interpreter start, import,
lazy set-up (``fit``'s ``best_constant`` sieve to 10^8) and report emission
on every op, so work moved into caches or set-up shows here and not in the
warm workloads.  Each subcommand runs at its default size in a fresh
interpreter with the workload seed as ``--seed``; the sha256 of every stdout
must repeat across sweeps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from perfbench.core import Op, call

NAME = "gate_cold"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BIG_X = 10 ** 11
BALANCE_TERMS = "E, x^{17/19}*E^{-17/19}, x^{212/285}*E^{-329/570}"
SUBCOMMANDS = {
    "sieve": ["sieve"],
    "psi": ["psi"],
    "dls": ["dls"],
    "dio": ["dio"],
    "vaughan": ["vaughan"],
    "msum": ["msum"],
    "fit": ["fit"],
    "expcalc_balance": ["expcalc", "balance", "--terms", BALANCE_TERMS, "--range", "8/17:1/2"],
    "msum_x1e11": ["msum", "--x", str(BIG_X)],
}
CALL_TIMEOUT_S = 120
# expsumlab is imported only after the timed sweeps, so that the process
# running them stays small and its set-up excludes that import
IMPORT_SAMPLES = 3
BIG_X_REPEATS = 3
RECURRENCE_TOL = 1e-3


def cli_env() -> dict:
    """The caller's environment, minus expsumlab's own settings, with the
    checkout's sources first on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EXPSUMLAB_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def cold(args, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CALL_TIMEOUT_S, check=False)


def row_verdicts(stdout: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if not rows:
        return "no report rows"
    bad = [r["case"] for r in rows if r["verdict"] != "pass"]
    return f"failing rows {bad[:3]}" if bad else None


def _big_x_verdict(stdout: str) -> str | None:
    from expsumlab import floor_mangoldt as fm

    from perfbench.floor_sum import recurrence_gap

    why = row_verdicts(stdout)
    if why:
        return why
    s_x = float(next(csv.DictReader(io.StringIO(stdout)))["lhs"])
    gap = recurrence_gap(BIG_X, s_x, fm.s_lambda_blocked(BIG_X - 1))
    return None if gap <= RECURRENCE_TOL else f"S({BIG_X}) fails the recurrence by {gap:.3g}"


def cli_op(name: str, argv: list, seed: int, env: dict) -> Op:
    args = ["-m", "expsumlab.cli_harness", "--seed", str(seed), *argv]

    def run(tr):
        proc = cold(args, env)
        return proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest(), proc.stdout

    def check(res):
        code, _, stdout = res
        if code != 0:
            return f"exit code {code}"
        if name == "expcalc_balance":
            return None if stdout == "E = x^{17/36}\n" else f"printed {stdout!r}"
        if name == "msum_x1e11":
            return _big_x_verdict(stdout)
        return row_verdicts(stdout)

    threaded = None
    if name == "msum_x1e11":
        def blocked(workers):
            from expsumlab import floor_mangoldt as fm

            return fm.s_lambda_blocked(BIG_X, workers=workers)

        threaded = ("floor_mangoldt.s_lambda_blocked", BIG_X, blocked)
    return Op(name, {"argv": argv}, run, check, {}, None, threaded)


def build_ops(seed: int) -> list:
    env = cli_env()
    return [cli_op(name, argv, seed, env) for name, argv in SUBCOMMANDS.items()]


def warm_up(ops) -> None:
    """One cold import, so that bytecode is compiled before the first op."""
    cold(["-m", "expsumlab.cli_harness", "--version"], cli_env())


def digests(ops, results) -> dict:
    out = {op.kind: res[1] for op, res in zip(ops, results) if isinstance(res, tuple)}
    out["sweep"] = hashlib.sha256("".join(out[k] for k in sorted(out)).encode()).hexdigest()
    return out


def _import_s(env) -> float:
    code = ("import time; t = time.perf_counter(); import expsumlab.cli_harness; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(cold(["-c", code], env).stdout)
                             for _ in range(IMPORT_SAMPLES))


def cold_layers(ops, passes, seed: int, tracer) -> dict:
    """Per-layer numbers of the gate: cold import, each subcommand cold, the
    same batteries in-process, report emission and the lazy constant.
    ``best_constant`` must not have run in this process yet."""
    from expsumlab import exponent_calc as xc
    from expsumlab import floor_mangoldt as fm
    from expsumlab import reports, suites

    out = {"cli_harness.import_s": _import_s(cli_env())}
    for i, op in enumerate(ops):
        out[f"cli_harness.{op.kind}.s"] = statistics.median(p.latencies[i] for p in passes)

    t0 = time.perf_counter()
    fm.best_constant()
    out["floor_mangoldt.best_constant.cold_s"] = time.perf_counter() - t0
    batteries = {
        "sieve": lambda: suites.sieve_suite(seed=seed).rows,
        "vaaler": lambda: suites.vaaler_suite(seed=seed).rows,
        "lemma21": lambda: suites.lemma21_suite(seed=seed).rows,
        "dls": lambda: suites.dls_suite(seed=seed).rows,
        "dio": lambda: suites.dio_suite(seed=seed).rows,
        "vaughan": lambda: suites.vaughan_suite(seed=seed).rows,
        "msum": lambda: suites.msum_suite(seed=seed).rows,
        "fit": lambda: suites.fit_suite().rows,  # best_constant is cached by now
    }
    rows = 0
    for name, battery in batteries.items():
        t0 = time.perf_counter()
        result_rows = battery()
        out[f"suites.{name}.s"] = time.perf_counter() - t0
        call(tracer, "reports.rows_to_csv", reports.rows_to_csv, result_rows)
        rows += len(result_rows)
    out["reports.rows_to_csv.rows"] = rows

    t0 = time.perf_counter()
    terms = call(tracer, "exponent_calc.parse_bound_expr", xc.parse_bound_expr, BALANCE_TERMS)
    call(tracer, "exponent_calc.minimax_balance", xc.minimax_balance, terms,
         lo=Fraction(8, 17), hi=Fraction(1, 2))
    out["exponent_calc.self_s"] = time.perf_counter() - t0
    return out


def trace_extras(ops, passes, seed: int, tracer) -> dict:
    from expsumlab import floor_mangoldt as fm

    from perfbench.floor_sum import blocked_counters, probe_blocked

    out = cold_layers(ops, passes, seed, tracer)
    # the 10^11 query and its pointwise part, BIG_X_REPEATS times in turn,
    # so that one slow moment does not decide pointwise_share
    for _ in range(BIG_X_REPEATS):
        call(tracer, "floor_mangoldt.s_lambda_blocked", fm.s_lambda_blocked, BIG_X)
        probe_blocked(tracer, BIG_X)
    out.update({k: BIG_X_REPEATS * v for k, v in blocked_counters(BIG_X).items()})
    return out
