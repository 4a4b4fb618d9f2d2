"""Tests of the benchmark itself: oracles count corrupted results as failures,
work counters repeat exactly, and total work barely moves between seeds.

Run with ``python3 -m pytest perfbench/tests`` from the root of a checkout.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from expsumlab import floor_mangoldt as fm

from perfbench import core, floor_sum, gate_cold, metrics, phase_kernels

ROOT = Path(__file__).resolve().parents[2]


def _one_pass(ops):
    return core.run_pass(ops, core.NullTracer())


def _corrupt(result):
    """Nudge the first number of a result far beyond its oracle's tolerance."""
    if isinstance(result, tuple):
        return (_corrupt(result[0]),) + result[1:]
    if isinstance(result, np.ndarray):
        return result + 0.25
    if isinstance(result, complex):
        return result + 0.5
    return result + 0.5 if isinstance(result, float) else result + 10 ** 6


@pytest.fixture(scope="module")
def small_ops():
    """Cheap ops of every checked kind in the two warm workloads."""
    rng = random.Random(3)
    ops = [
        floor_sum.blocked_op(10 ** 9 + 7),
        floor_sum.agree_op(123457),
        floor_sum.constant_op(10 ** 5),
        floor_sum.frak_op(12345.6, 1000, 0.5),
        phase_kernels.random_op(phase_kernels.random_instances(5)[0]),
        phase_kernels.scenario_op(2.0e5, 1000, 1.0, 8, 25, 40, "hyperbola"),
        phase_kernels.psi_op(phase_kernels.psi_points(rng, 200), 150),
        phase_kernels.dls_op(*phase_kernels.synthetic_dls(rng, 40, 6), "synthetic"),
        phase_kernels.lemma21_op(rng, 60),
        phase_kernels.dio_op("B0", {"N": 8, "beta": 1.5, "X": 64.0}),
        phase_kernels.dio_op("B2", {"N": 8, "gamma": 1.0, "X": 8.0}),
        phase_kernels.rejected_op(*phase_kernels.synthetic_dls(rng, 32, 4, reject=True)),
    ]
    return ops, _one_pass(ops)


def test_every_small_op_passes_its_oracle(small_ops):
    ops, first = small_ops
    attempted, failed, reasons = core.judge(ops, [first, _one_pass(ops)])
    assert (attempted, failed) == (2 * len(ops), 0), reasons


def test_corrupted_results_are_counted_as_failures(small_ops):
    ops, first = small_ops
    for i, op in enumerate(ops):
        bad = list(first.results)
        bad[i] = "accepted" if op.kind == "dls_rejected" else _corrupt(bad[i])
        corrupted = core.PassResult(first.wall, first.latencies, bad)
        attempted, failed, reasons = core.judge(ops, [corrupted])
        assert (attempted, failed) == (len(ops), 1), (op.kind, reasons)
        assert str(op.params) in reasons[0], reasons


def test_a_result_that_changes_between_passes_is_a_failure(small_ops):
    ops, first = small_ops
    later = list(first.results)
    later[0] = _corrupt(later[0])
    changed = core.PassResult(first.wall, first.latencies, later)
    attempted, failed, reasons = core.judge(ops, [first, changed])
    assert failed == 1 and "differs from the first pass" in reasons[0]


def test_an_op_that_raises_is_a_failure():
    def boom(tr):
        raise ValueError("boom")

    ops = [core.Op("boom", {}, boom, lambda r: None)]
    assert core.judge(ops, [_one_pass(ops)])[:2] == (1, 1)


def test_gate_cold_checks_exit_code_rows_and_output():
    ops = {op.kind: op for op in gate_cold.build_ops(seed=4)}
    good = "suite,case,params,lhs,rhs,ratio,verdict,seed,wall_time\nsieve,a,\"{}\",0.0,1.0,0.0,pass,4,0.0\n"
    assert ops["sieve"].check((0, "d", good)) is None
    assert ops["sieve"].check((1, "d", good)) == "exit code 1"
    assert "failing rows" in ops["sieve"].check((0, "d", good.replace(",pass,", ",fail,")))
    assert ops["expcalc_balance"].check((0, "d", "E = x^{17/36}\n")) is None
    assert ops["expcalc_balance"].check((0, "d", "E = x^{1/2}\n")) is not None


def test_recurrence_oracle_rejects_a_wrong_value():
    x = 10 ** 6 + 1
    s_x, s_prev = (fm.s_lambda_blocked(v) for v in (x, x - 1))
    assert floor_sum.recurrence_gap(x, s_x, s_prev) <= floor_sum.RECURRENCE_TOL
    assert floor_sum.recurrence_gap(x, s_x + 0.01, s_prev) > floor_sum.RECURRENCE_TOL


@pytest.mark.parametrize("mod", [floor_sum, phase_kernels])
def test_work_counters_repeat_exactly(mod):
    assert core.sum_counters(mod.build_ops(7)) == core.sum_counters(mod.build_ops(7))
    assert [op.params for op in mod.build_ops(7)] == [op.params for op in mod.build_ops(7)]


WORK = {
    floor_sum: ("arith_core.mangoldt_point.calls", "arith_core.sieve_mangoldt.entries",
                "arith_core.segment_sieve.entries", "vaughan_decomp.vaughan_split.inner_terms"),
    phase_kernels: ("expsum_eval.eval_exp_sum.terms_evaluated", "vaaler_psi.psi_approx_many.evals",
                    "diophantine_count.dio_report.pairs"),
}


@pytest.mark.parametrize("mod", [floor_sum, phase_kernels])
def test_total_work_changes_little_between_seeds(mod):
    totals = [core.sum_counters(mod.build_ops(seed)) for seed in range(1, 9)]
    for key in WORK[mod]:
        values = [t[key] for t in totals]
        assert max(values) / min(values) < 1.1, (key, values)
    assert [op.params for op in mod.build_ops(1)] != [op.params for op in mod.build_ops(2)]


def test_span_self_time_subtracts_children():
    spans = [["op.a", 0.0, 10.0, None, 0], ["layer.f", 1.0, 4.0, 0, 0], ["layer.g", 5.0, 6.0, 0, 0]]
    stats = core.span_stats(spans)
    assert stats["op.a"]["self_s"] == pytest.approx(6.0)
    assert stats["layer.f"]["self_s"] == pytest.approx(3.0)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == metrics.BENCHMARK_WORKLOADS
