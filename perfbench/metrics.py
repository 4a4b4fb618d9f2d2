"""Workload names, and metric names and units of the result line (standard
library only, so that run.py can use them before anything else is imported)."""

WORKLOADS = ("floor_sum", "phase_kernels", "gate_cold")
# The workloads BENCHMARK.json lists.  gate_cold is left out: on a 2-vCPU
# guest whose CPU speed drifts by 20 to 30 % over minutes, its median op
# (one cold call of under a second, pure interpreter work) spread past a
# 0.24 bound over ten seeds in three sets out of four.
BENCHMARK_WORKLOADS = ("floor_sum", "phase_kernels")

# End-to-end metrics reported by ``--trace 0``: name -> unit.
E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics reported by ``--trace 1`` on every workload.  A count is
# zero on a workload that makes no call into that layer; every time here is
# measured on all three workloads.  The full per-layer table of a workload
# is printed above the result line and written to the trace file.
PER_LAYER_UNITS = {
    "trace_overhead_frac": "frac",
    "arith_core.sieve_mangoldt.self_s": "s",
    "arith_core.sieve_mangoldt.ns_per_entry": "ns",
    "arith_core.mangoldt_point.calls": "count",
    "arith_core.sieve_mangoldt.calls": "count",
    "arith_core.sieve_mangoldt.entries": "count",
    "arith_core.segment_sieve.calls": "count",
    "arith_core.segment_sieve.entries": "count",
    "floor_mangoldt.s_lambda_blocked.calls": "count",
    "floor_mangoldt.s_lambda_direct.calls": "count",
    "floor_mangoldt.main_constant.calls": "count",
    "floor_mangoldt.frak_s.calls": "count",
    "vaughan_decomp.alpha_tables.calls": "count",
    "vaughan_decomp.vaughan_split.calls": "count",
    "vaughan_decomp.vaughan_split.inner_terms": "count",
    "expsum_eval.eval_exp_sum.calls": "count",
    "expsum_eval.eval_exp_sum.terms": "count",
    "expsum_eval.eval_exp_sum.terms_evaluated": "count",
    "vaaler_psi.psi_approx_many.calls": "count",
    "vaaler_psi.psi_approx_many.evals": "count",
    "bilinear_sieve.dls_check.calls": "count",
    "bilinear_sieve.lemma21_check.calls": "count",
    "bilinear_sieve.rejected": "count",
    "diophantine_count.dio_report.calls": "count",
    "diophantine_count.dio_report.pairs": "count",
    "reports.rows_to_csv.rows": "count",
}
