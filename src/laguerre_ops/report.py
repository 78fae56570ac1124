"""Measured-versus-bound reports and their JSON/CSV serialization.

The config's numbers, which validation keeps finite, are plain JSON
numbers (json writes a float's shortest round-tripping repr), so a
run_scenario report's config object is the ScenarioConfig JSON that
`laguerre-ops run --config` reads.  The rows, summary, extra and wall
time are 17-significant-digit decimal strings, since a bound, ratio or
spread may be +-inf or nan, which strict JSON cannot hold.  Either way a
parse(emit(r)) round trip reproduces every value bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .errors import ConfigError

__all__ = ["ReportRow", "BoundReport", "emit_report", "parse_report"]

CSV_HEADER = "scenario,point,measured,bound,margin"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ReportRow:
    """One grid point: measured value against its bound."""

    point: str
    measured: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.measured


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one verification scenario."""

    scenario: str
    claim: str
    config: dict
    rows: tuple
    max_ratio: float
    passed: bool
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def same_results(self, other: "BoundReport") -> bool:
        """Field-for-field equality ignoring wall-clock time."""
        return replace(self, wall_time=0.0) == replace(other, wall_time=0.0)


def report_to_json(r: BoundReport) -> str:
    doc = {
        "scenario": r.scenario,
        "claim": r.claim,
        "config": r.config,
        "rows": [
            {
                "point": row.point,
                "measured": _fmt(row.measured),
                "bound": _fmt(row.bound),
                "margin": _fmt(row.margin),
            }
            for row in r.rows
        ],
        "summary": {"max_ratio": _fmt(r.max_ratio), "pass": r.passed},
        "extra": {k: _fmt(v) for k, v in r.extra.items()},
        "wall_time": _fmt(r.wall_time),
    }
    return json.dumps(doc, indent=2)


def report_to_csv(r: BoundReport) -> str:
    lines = [CSV_HEADER]
    for row in r.rows:
        lines.append(
            ",".join(
                [r.scenario, row.point, _fmt(row.measured), _fmt(row.bound), _fmt(row.margin)]
            )
        )
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> BoundReport:
    """The report of report_to_json's schema; ConfigError for any other text."""
    try:  # a JSONDecodeError is a ValueError
        doc = json.loads(text)
        rows = tuple(
            ReportRow(row["point"], float(row["measured"]), float(row["bound"]))
            for row in doc["rows"]
        )
        passed, config = doc["summary"]["pass"], doc["config"]
        if not isinstance(passed, bool):
            raise TypeError(f"pass must be true or false, got {passed!r}")
        if not isinstance(config, dict):
            raise TypeError(f"config must be an object, got {config!r}")
        return BoundReport(
            scenario=doc["scenario"],
            claim=doc["claim"],
            config=config,
            rows=rows,
            max_ratio=float(doc["summary"]["max_ratio"]),
            passed=passed,
            wall_time=float(doc.get("wall_time", 0.0)),
            extra={k: float(v) for k, v in doc.get("extra", {}).items()},
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"not a report document: {exc!r}") from exc


def emit_report(r: BoundReport, path, fmt: str = "json") -> None:
    if fmt == "json":
        text = report_to_json(r)
    elif fmt == "csv":
        text = report_to_csv(r)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)
