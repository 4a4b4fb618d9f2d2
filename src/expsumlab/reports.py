"""The report record shared by inequality checks, suites and the CLI."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

CSV_COLUMNS = ("suite", "case", "params", "lhs", "rhs", "ratio", "verdict", "seed", "wall_time")


@dataclass
class ReportRow:
    """Outcome of one check: measured lhs against the asserted rhs, with
    enough parameter echo and seed to reproduce the instance.  Single-value
    rows leave rhs at nan, which keeps their ratio nan."""

    suite: str
    case: str
    params: dict
    lhs: float
    rhs: float = math.nan
    passed: bool = True
    seed: int | None = None
    wall_time: float = 0.0

    def __post_init__(self):
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)

    @property
    def ratio(self) -> float:
        """lhs/rhs; a zero rhs gives inf, or 0.0 when lhs is zero too."""
        if self.rhs != 0.0:
            return self.lhs / self.rhs
        return math.inf if self.lhs else 0.0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _fmt_float(v: float) -> str:
    # repr round-trips doubles and is stable, which keeps reports byte-identical
    return repr(float(v))


def _fmt_params(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.suite,
                    r.case,
                    '"' + _fmt_params(r.params).replace('"', '""') + '"',
                    _fmt_float(r.lhs),
                    _fmt_float(r.rhs),
                    _fmt_float(r.ratio),
                    r.verdict,
                    "" if r.seed is None else str(r.seed),
                    _fmt_float(r.wall_time),
                )
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows, meta: dict | None = None) -> str:
    payload = {
        "meta": dict(meta or {}),
        "rows": [{col: getattr(r, col) for col in CSV_COLUMNS} for r in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
