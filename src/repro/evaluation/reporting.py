"""Plain-text reporting helpers for experiment results.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that formatting in one place.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from repro.evaluation.runner import ExperimentResult


def results_to_rows(results: Iterable[ExperimentResult]) -> List[Dict[str, object]]:
    """Convert results into plain dictionaries (one row per result)."""
    return [result.as_dict() for result in results]


def pivot(results: Iterable[ExperimentResult], index: str = "dataset",
          columns: str = "method", value: str = "mae") -> Dict[str, Dict[str, float]]:
    """Pivot results into ``{index: {column: value}}`` (last write wins)."""
    table: Dict[str, Dict[str, float]] = {}
    for result in results:
        row = result.as_dict()
        table.setdefault(str(row[index]), {})[str(row[columns])] = row[value]
    return table


def format_table(table: Mapping[str, Mapping[str, float]], value_format: str = "{:.3f}",
                 index_name: str = "dataset") -> str:
    """Render a pivoted table as an aligned plain-text table."""
    columns: List[str] = []
    for row in table.values():
        for column in row:
            if column not in columns:
                columns.append(column)
    header = [index_name] + columns
    rows = []
    for index_value, row in table.items():
        cells = [str(index_value)]
        for column in columns:
            if column in row:
                cells.append(value_format.format(row[column]))
            else:
                cells.append("-")
        rows.append(cells)
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(header, widths))]
    lines.append("  ".join("-" * width for width in widths))
    for cells in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(cells, widths)))
    return "\n".join(lines)

