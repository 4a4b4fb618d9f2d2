"""Ops, spans and the measuring loop shared by every workload.

An op is one query a user of expsumlab would issue.  Its ``run`` is timed;
its ``check`` is the independent correctness oracle, applied once to the
first result; every later execution of the op must reproduce that result
bit for bit.  Spans are kept in memory as ``[name, start, end, parent,
op]`` records and turned into per-layer self times at the end of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# ---------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory span recorder.  ``op`` is the id of the op being run."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()


class NullTracer:
    """The untraced run: same interface, records nothing."""

    enabled = False
    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def call(tracer, name: str, fn, *args, **kwargs):
    """Call ``fn`` inside a span named after the public function."""
    with tracer.span(name):
        return fn(*args, **kwargs)


def span_stats(spans) -> dict:
    """Per span name: number of spans, total time and self time.

    Self time is the span's duration minus the time covered by its direct
    children (children of one span run one after another)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        agg = out.setdefault(name, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
        agg["spans"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - covered[i]
    return out


# ---------------------------------------------------------------------------
# ops


@dataclass
class Op:
    """One query.  ``run(tracer)`` is timed and returns the result;
    ``check(result)`` returns None when the oracle accepts it, else a reason.
    ``counters`` are deterministic work counts of one execution, computed
    from the inputs.  ``probe(tracer)`` times the public functions that run
    inside this op's calls, on the inputs the op derives (traced run only).
    ``threaded`` is (layer, size, fn(workers)) for an op whose layer takes a
    worker count; the thread probe runs the largest one per layer."""

    kind: str
    params: dict
    run: Callable
    check: Callable
    counters: dict = field(default_factory=dict)
    probe: Callable | None = None
    threaded: tuple | None = None


@dataclass(frozen=True)
class OpError:
    reason: str


def fingerprint(result):
    """Hashable, bit-exact stand-in for a result (arrays become digests)."""
    if isinstance(result, np.ndarray):
        blob = np.ascontiguousarray(result).tobytes()
        return ("ndarray", str(result.dtype), result.shape,
                hashlib.sha256(blob).hexdigest())
    if isinstance(result, (tuple, list)):
        return tuple(fingerprint(r) for r in result)
    if isinstance(result, float):
        return ("f", result.hex())
    if isinstance(result, complex):
        return ("c", result.real.hex(), result.imag.hex())
    return result


@dataclass
class PassResult:
    wall: float
    latencies: list
    results: list


def run_pass(ops, tracer) -> PassResult:
    """Run the op list once in order, one op at a time (closed loop, one
    client).  An op that raises is recorded as failed, not retried."""
    latencies, results = [], []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.op = i
        t0 = time.perf_counter()
        try:
            with tracer.span("op." + op.kind):
                result = op.run(tracer)
        except Exception as exc:  # an op failure is counted, the run goes on
            result = OpError(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    tracer.op = None
    return PassResult(time.perf_counter() - t_pass, latencies, results)


def measure(ops, seconds: float, make_tracers=(NullTracer,)):
    """Repeat the op list for about ``seconds``: a pass starts only if a
    pass of average length still fits.  ``make_tracers`` cycles per pass, so
    ``(NullTracer, Tracer)`` alternates untraced and traced passes.
    Returns a list of (PassResult, tracer)."""
    passes = []
    start = time.perf_counter()
    while True:
        for make in make_tracers:
            tracer = make()
            pr = run_pass(ops, tracer)
            if passes:  # only the first results go to the oracles; keep memory flat
                pr.results = [fingerprint(r) for r in pr.results]
            passes.append((pr, tracer))
        elapsed = time.perf_counter() - start
        per_round = elapsed / (len(passes) // len(make_tracers))
        if elapsed + per_round > seconds:
            return passes


def judge(ops, passes) -> tuple[int, int, list]:
    """(attempted, failed, reasons).  The first result of each op goes to its
    oracle; every later execution must reproduce it exactly."""
    first = passes[0].results
    verdicts = []
    for op, result in zip(ops, first):
        if isinstance(result, OpError):
            verdicts.append(result.reason)
            continue
        try:
            verdicts.append(op.check(result))
        except Exception as exc:  # a crashing oracle fails the op
            verdicts.append(f"check raised {type(exc).__name__}: {exc}")
    prints = [fingerprint(r) for r in first]
    attempted = failed = 0
    reasons = []
    for p, pr in enumerate(passes):
        for i, (op, result) in enumerate(zip(ops, pr.results)):
            attempted += 1
            why = verdicts[i]
            if why is None and isinstance(result, OpError):
                why = result.reason
            elif why is None and p and fingerprint(result) != prints[i]:
                why = "result differs from the first pass"
            if why is not None:
                failed += 1
                reasons.append(f"pass {p} op {i} {op.kind} {op.params}: {why}")
    return attempted, failed, reasons


def sum_counters(ops) -> dict:
    total: dict = {}
    for op in ops:
        for key, val in op.counters.items():
            total[key] = total.get(key, 0) + val
    return total


# ---------------------------------------------------------------------------
# inputs and statistics


# Share of its stratum over which a size may move with the seed.  Runs are
# compared across seeds, so the seed changes the inputs (their arithmetic and
# results) while total work stays within a few percent.
JITTER = 0.1


def stratified_log(rng, lo: float, hi: float, n: int) -> list:
    """n - 1 sizes, one near the log-centre of each equal log-width stratum
    of [lo, hi), then hi itself, which sets the peak memory of every seed."""
    span = math.log(hi / lo)
    draws = [lo * math.exp(span * (k + 0.5 + JITTER * (rng.random() - 0.5)) / (n - 1))
             for k in range(n - 1)]
    return draws + [float(hi)]


def latency_summary(passes) -> dict:
    """p50: median over the op list of each op's median latency across
    passes, so a slow pass moves it little.  p90: over all executions,
    reported only with at least ten samples beyond it."""
    per_op = [statistics.median(col) for col in zip(*(p.latencies for p in passes))]
    pooled = [t for p in passes for t in p.latencies]
    out = {"n": len(pooled), "ops": len(per_op), "p50": statistics.median(per_op)}
    if len(pooled) >= 100:
        out["p90"] = statistics.quantiles(pooled, n=10)[8]
    return out


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0
