import json
import math

import pytest

from expsumlab.reports import ReportRow, rows_to_csv, rows_to_json


@pytest.mark.parametrize("lhs, rhs, want", [
    (3.0, 4.0, 0.75),
    (0.0, 0.0, 0.0),
    (2.5, 0.0, math.inf),
    (6.0, math.nan, math.nan),
])
def test_ratio_rule(lhs, rhs, want):
    row = ReportRow("s", "c", {}, lhs, rhs)
    csv_ratio = float(rows_to_csv([row]).splitlines()[1].split(",")[-4])
    json_ratio = json.loads(rows_to_json([row]))["rows"][0]["ratio"]
    for got in (row.ratio, csv_ratio, json_ratio):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want
