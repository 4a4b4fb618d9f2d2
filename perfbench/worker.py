"""One benchmark process: set up a workload, measure it, check every op.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Needs the checkout's ``src`` and root on PYTHONPATH (perfbench/run.py sets
them).  Prints one JSON object on stdout.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench import core  # noqa: E402
from perfbench.metrics import WORKLOADS  # noqa: E402

TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


def derive(m: dict) -> None:
    """Ratios of the per-layer table, where the layer ran."""
    def put(name, num, den, scale=1.0):
        if m.get(den):
            m[name] = m.get(num, 0.0) / m[den] * scale

    put("arith_core.mangoldt_point.us_per_call", "arith_core.mangoldt_point.self_s",
        "arith_core.mangoldt_point.calls", 1e6)
    for sieve in ("sieve_mangoldt", "segment_sieve"):
        put(f"arith_core.{sieve}.ns_per_entry", f"arith_core.{sieve}.self_s",
            f"arith_core.{sieve}.entries", 1e9)
    put("floor_mangoldt.s_lambda_blocked.pointwise_share", "arith_core.mangoldt_point.self_s",
        "floor_mangoldt.s_lambda_blocked.self_s")
    put("vaughan_decomp.split_over_direct", "vaughan_decomp.vaughan_split.self_s",
        "vaughan_decomp.direct_lambda_sum.self_s")
    put("expsum_eval.eval_exp_sum.mterms_per_s", "expsum_eval.eval_exp_sum.terms_evaluated",
        "expsum_eval.eval_exp_sum.self_s", 1e-6)
    put("expsum_eval.eval_exp_sum.useful_frac", "expsum_eval.eval_exp_sum.terms",
        "expsum_eval.eval_exp_sum.terms_evaluated")
    put("vaaler_psi.psi_approx_many.ns_per_eval", "vaaler_psi.psi_approx_many.self_s",
        "vaaler_psi.psi_approx_many.evals", 1e9)


def layer_table(ops, traced, probes, extras: dict) -> dict:
    """Self time per public function (median over the traced passes, plus
    the probes), the deterministic counters, and the derived ratios.
    ``perfbench.op_self_s`` is the self time of the op root spans: time
    outside any traced public call, which is the benchmark's own glue in
    the warm workloads and the whole child process on gate_cold."""
    per_pass = [core.span_stats(tr.spans) for _, tr in traced]
    names = set().union(*per_pass)
    layers = {}
    for name in sorted(names):
        key = "perfbench.op_self_s" if name.startswith("op.") else name + ".self_s"
        value = statistics.median(st[name]["self_s"] if name in st else 0.0 for st in per_pass)
        layers[key] = layers.get(key, 0.0) + value
    for name, st in core.span_stats(probes.spans).items():
        layers[name + ".self_s"] = layers.get(name + ".self_s", 0.0) + st["self_s"]
    layers.update(core.sum_counters(ops))
    layers.update(extras)
    derive(layers)
    return dict(sorted(layers.items()))


def thread_probe(ops) -> dict:
    """Largest input of each threaded layer at workers 1 and 2: speed-up of
    two over one worker, and whether the two results are bit-identical."""
    largest = {}
    for op in ops:
        if op.threaded:
            layer, size, fn = op.threaded
            if layer not in largest or size > largest[layer][0]:
                largest[layer] = (size, fn)
    out = {}
    for layer, (_, fn) in sorted(largest.items()):
        times, prints = [], set()
        for workers in (1, 2):
            t0 = time.perf_counter()
            prints.add(core.fingerprint(fn(workers)))
            times.append(time.perf_counter() - t0)
        out[f"{layer}.w2_speedup"] = times[0] / times[1]
        out[f"{layer}.w2_identical"] = int(len(prints) == 1)
    return out


def gate_layers(seed: int, tracer, out: dict) -> dict:
    """gate_cold's per-layer numbers, for the traced run of a warm workload:
    one sweep of cold CLI calls, checked and counted into ``out`` like the
    workload's own ops, then the in-process part of the gate."""
    from perfbench import gate_cold

    ops = gate_cold.build_ops(seed)
    gate_cold.warm_up(ops)
    sweep = core.run_pass(ops, core.NullTracer())
    attempted, failed, reasons = core.judge(ops, [sweep])
    out["attempted"] += attempted
    out["failed"] += failed
    out["reasons"] = (out["reasons"] + reasons)[:20]
    out["digests"] = gate_cold.digests(ops, sweep.results)
    return gate_cold.cold_layers(ops, [sweep], seed, tracer)


def write_trace(args, record: dict, traced, probes) -> str:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    payload = dict(record)
    payload["span_fields"] = ["name", "start", "end", "parent", "op"]
    payload["traced_passes"] = [tr.spans for _, tr in traced]
    payload["probe_spans"] = probes.spans
    path.write_text(json.dumps(payload))
    return str(path)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    mod = importlib.import_module(f"perfbench.{args.workload}")
    ops = mod.build_ops(args.seed)
    mod.warm_up(ops)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracers = (core.NullTracer, core.Tracer) if args.trace else (core.NullTracer,)
    passes = core.measure(ops, args.seconds, tracers)
    # the process doing the work: the CLI children on gate_cold, else this one;
    # read before the oracles run, which are not part of the workload
    who = resource.RUSAGE_CHILDREN if args.workload == "gate_cold" else resource.RUSAGE_SELF
    rss = core.peak_rss_mb(who)
    results = [pr for pr, _ in passes]
    attempted, failed, reasons = core.judge(ops, results)
    plain = [pr for pr, tr in passes if not tr.enabled]

    from perfbench import machine

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:20],
        "passes": len(plain),
        "ops_per_pass": len(ops),
        "wall_s": statistics.median(pr.wall for pr in plain),
        "pass_walls": [pr.wall for pr in plain],
        "latency": core.latency_summary(plain),
        "machine": machine.record(args.seed),
    }
    if hasattr(mod, "digests"):
        out["digests"] = mod.digests(ops, results[0].results)
    if args.trace:
        traced = [(pr, tr) for pr, tr in passes if tr.enabled]
        probes = core.Tracer()
        for i, op in enumerate(ops):
            if op.probe:
                probes.op = i
                op.probe(probes)
        probes.op = None
        extras = mod.trace_extras(ops, results, args.seed, probes)
        if getattr(mod, "HOSTS_GATE_LAYERS", False):
            extras.update(gate_layers(args.seed, probes, out))
        extras["trace_overhead_frac"] = (
            statistics.median(pr.wall for pr, _ in traced) / out["wall_s"] - 1.0)
        extras.update(thread_probe(ops))
        out["layers"] = layer_table(ops, traced, probes, extras)
        out["trace_file"] = write_trace(args, out, traced, probes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
