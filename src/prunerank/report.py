"""Deterministic report writing, without numpy: a report is written as
json.dumps gives it, with sorted keys and a two-space indent, after its
tables; no report holds bulk data, so the standard encoder is fast enough.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping

from .errors import NonFiniteError


def report_json_bytes(report: Mapping) -> bytes:
    """Canonical JSON encoding: sorted keys, two-space indent, trailing newline.

    Identical report dicts serialize to identical bytes, which is what the
    determinism checks compare. JSON has no NaN or infinity, so a report
    holding one at any depth raises NonFiniteError.
    """
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"report holds a NaN or infinite value: {exc}") from exc
    return (text + "\n").encode("utf-8")


# Every table a command writes, as tables/<name>.csv: the one list of them.
# A run removes those it does not write, so no table outlives its report.
TABLES = frozenset({
    "aggregate", "bound_tallies", "cost_sweep", "failure_taxonomy",
    "metrics_by_subset", "pruning_comparison", "ranking_quality",
})


def write_report(out_dir, report: Mapping, tables: Mapping[str, tuple] = ()) -> Path:
    """Write tables/<name>.csv for each of tables, then report.json, under out_dir.

    Each table is (header, rows) with rows as sequences matching the header.
    The old report.json is removed first and the new one written last, so a
    write that fails leaves none. A table of TABLES that this run does not
    write is removed; no other file is touched. Returns the report path.
    """
    data = report_json_bytes(report)
    tables = dict(tables)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.unlink(missing_ok=True)
    table_dir = out / "tables"
    if tables:
        table_dir.mkdir(exist_ok=True)
    if table_dir.is_dir():
        for name in TABLES - tables.keys():
            (table_dir / f"{name}.csv").unlink(missing_ok=True)
        for name, (header, rows) in tables.items():
            with open(table_dir / f"{name}.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
    report_path.write_bytes(data)
    return report_path
