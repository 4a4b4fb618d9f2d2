import csv
import io

import pytest

from expsumlab import suites
from expsumlab.cli_harness import main
from expsumlab.reports import rows_to_csv


def _assert_green(result):
    assert result.passed, result.failures[:3]
    assert result.rows
    for row in result.rows:
        assert row.verdict in ("pass", "info"), (row.case, row.verdict)


def test_sieve_suite():
    _assert_green(suites.sieve_suite(limit=10 ** 5, window=10 ** 3))


def test_vaaler_suite_reduced():
    _assert_green(suites.vaaler_suite(count=2000, h_max=60))


def test_lemma21_suite_reduced():
    _assert_green(suites.lemma21_suite(count=120))


def test_dls_suite_reduced():
    _assert_green(suites.dls_suite(count=120))


def test_dio_suite():
    _assert_green(suites.dio_suite())


def test_vaughan_suite_reduced():
    _assert_green(suites.vaughan_suite(d_values=(101, 1000)))


def test_msum_suite_reduced():
    _assert_green(suites.msum_suite(random_count=5))


def test_fraks_suite():
    _assert_green(suites.fraks_suite(d_values=(1000,)))


def test_exponent_suite():
    _assert_green(suites.exponent_suite())


def test_expsum_regression_suite():
    _assert_green(suites.expsum_regression_suite())


def test_fit_suite_reduced():
    result = suites.fit_suite(lo=10 ** 4, hi=10 ** 7, points=8, slope_cap=0.60)
    _assert_green(result)
    slope_rows = [r for r in result.rows if r.case == "slope"]
    assert len(slope_rows) == 1
    assert slope_rows[0].lhs <= 0.60


def test_registry_names_runnable():
    assert set(suites.ALL_SUITES) == {
        "sieve", "vaaler", "lemma21", "dls", "dio", "vaughan", "msum",
        "fraks", "expsum", "expcalc", "fit",
    }


def test_rows_byte_stable_across_reruns():
    a = rows_to_csv(suites.dls_suite(seed=3, count=40).rows)
    b = rows_to_csv(suites.dls_suite(seed=3, count=40).rows)
    assert a == b
    c = rows_to_csv(suites.dls_suite(seed=4, count=40).rows)
    assert c != a


def test_timing_off_keeps_rows_deterministic(capsys, monkeypatch):
    monkeypatch.delenv("EXPSUMLAB_TIMING", raising=False)

    def run(*flags):
        assert main([*flags, "vaughan", "--d-list", "101"]) == 0
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    plain, again, timed = run(), run(), run("--timing")
    assert plain == again
    assert all(r["wall_time"] == "0.0" for r in plain)
    # each timed row carries the battery's wall time over its row count
    walls = {r.pop("wall_time") for r in timed}
    assert len(walls) == 1 and float(walls.pop()) > 0.0
    assert timed == [{k: v for k, v in r.items() if k != "wall_time"} for r in plain]


def test_baselines_resource_loads():
    data = suites.load_baselines()
    assert data["version"] == 1
    assert data["seed"] == 20260801
    assert len(data["expsum_thm1"]) == data["count"] + 4


def test_regression_instances_layout():
    names, insts = suites.regression_instances()
    assert len(names) == len(insts) == 24 + 4
    assert names[0] == "rand_00"
    assert sum(1 for n in names if n.startswith("scenario_hp")) == 4
    assert len(set(names)) == len(names)


def test_measure_baselines_matches_frozen():
    frozen = suites.load_baselines()
    fresh = suites.measure_baselines(count=24)
    for case, val in list(fresh["expsum_thm1"].items())[:6]:
        assert val == pytest.approx(frozen["expsum_thm1"][case], rel=1e-9), case
