#!/usr/bin/env python3
"""Benchmark entry point for expsumlab.

    python3 perfbench/run.py --workload floor_sum --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced then traced

Run from the root of a checkout.  Each workload runs in a fresh worker
process; set-up is sampled in further fresh processes and the median is
reported.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import E2E_UNITS, PER_LAYER_UNITS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170  # one workload, set-up samples included


def _unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    if last.endswith("us_per_call"):
        return "us"
    if last.startswith("ns_per_"):
        return "ns"
    if last == "mterms_per_s":
        return "Mterms/s"
    if last == "w2_speedup":
        return "x"
    if last == "w2_identical":
        return "bool"
    if last == "s" or last.endswith("_s"):
        return "s"
    if last == "split_over_direct":
        return "x"
    if last.endswith(("_share", "_frac")):
        return "frac"
    return "count"


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_worker(workload: str, seed: int, seconds: int, trace: int, deadline: float,
               setup_only=False) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH"))))
    # own process group, so that a timeout also stops the worker's CLI children
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if not trace:  # set-up samples in fresh processes; the main run adds one more
        setups = [run_worker(workload, seed, seconds, trace, deadline, True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(workload, seed, seconds, trace, deadline)
    setups.append(res["setup_s"])
    lat = res["latency"]
    attempted, failed = res["attempted"], res["failed"]

    print(f"machine {json.dumps(res['machine'], sort_keys=True)}")
    print(f"workload {workload} seed {seed} trace {trace}: {res['passes']} untraced "
          f"passes of {res['ops_per_pass']} ops, closed loop, one client, workers=1")
    for reason in res["reasons"]:
        print(f"  FAILED {reason}")
    for name, digest in res.get("digests", {}).items():
        print(f"  stdout sha256 {name} {digest}")
    metrics = {}
    if trace:
        for name, value in res["layers"].items():
            print(f"  {name} = {_fmt(value)} {_unit(name)}")
        print(f"  trace file {res['trace_file']}")
        for name, unit in PER_LAYER_UNITS.items():
            metrics[name] = {"value": res["layers"].get(name, 0), "unit": unit}
    else:
        values = {
            "wall_s": res["wall_s"],
            "op_p50_s": lat["p50"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        for name, unit in E2E_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name} = {values[name]:.6g} {unit}")
        print(f"  op latencies: {lat['n']} executions of {lat['ops']} ops")
        if "p90" in lat:
            print(f"  op_p90_s = {lat['p90']:.6g} s (n={lat['n']})")
        else:
            print(f"  op_p90_s not reported: {lat['n']} op executions, fewer than 100")
        print(f"  pass walls = {', '.join(f'{w:.4f}' for w in res['pass_walls'])} s")
        print(f"  setup samples = {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"  ops_failed_frac = {failed / attempted:.6g} frac ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "expsumlab" / "__init__.py").is_file():
        print(f"error: no expsumlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            runs = {(w, t): run_workload(w, args.seed, args.seconds, t)
                    for w in WORKLOADS for t in (0, 1)}
            result = {
                "correct": all(r["correct"] for r in runs.values()),
                "attempted": sum(r["attempted"] for r in runs.values()),
                "failed": sum(r["failed"] for r in runs.values()),
                "metrics": {f"{w}.{name}": m for (w, _), r in runs.items()
                            for name, m in r["metrics"].items()},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
