"""Plain-text result tables used by the benchmark harnesses.

The benchmark scripts regenerate the paper's Tables I and II; this helper
formats rows the same way the paper lays them out (one metric row per system,
one column per controller) without pulling in any external dependency.
:func:`write_records_csv` writes flat per-cell / per-job records (the
scenario matrix and the verification sweep) as one CSV.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union


class ResultTable:
    """Accumulates named rows of named columns and renders aligned text."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self._rows: List[Dict[str, str]] = []
        self._row_names: List[str] = []

    def add_row(self, name: str, values: Dict[str, object]) -> None:
        """Add one row; missing columns render as '-', extra keys are errors."""

        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}; table has {self.columns}")
        formatted = {col: _format(values.get(col)) for col in self.columns}
        self._rows.append(formatted)
        self._row_names.append(name)

    def as_dict(self) -> Dict[str, Dict[str, str]]:
        return {name: dict(row) for name, row in zip(self._row_names, self._rows)}

    def render(self) -> str:
        header = ["metric", *self.columns]
        body = [[name, *[row[col] for col in self.columns]] for name, row in zip(self._row_names, self._rows)]
        widths = [max(len(str(cell)) for cell in column) for column in zip(header, *body)] if body else [len(h) for h in header]
        lines = [self.title, "-" * max(len(self.title), sum(widths) + 3 * len(widths))]
        lines.append(" | ".join(str(cell).ljust(width) for cell, width in zip(header, widths)))
        lines.append("-+-".join("-" * width for width in widths))
        for row in body:
            lines.append(" | ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = [",".join(["metric", *self.columns])]
        for name, row in zip(self._row_names, self._rows):
            lines.append(",".join([name, *[row[col] for col in self.columns]]))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format(value: Optional[object]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def write_records_csv(path: Union[str, Path], records: Sequence[Mapping]) -> Path:
    """Write ``records`` to ``path``, one row each, and return the path.

    The header is the union of the records' keys in first-seen order; a
    record without some key leaves that cell empty.
    """

    import csv

    keys: List[str] = []
    for record in records:
        for key in record:
            if key not in keys:
                keys.append(key)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(records)
    return path
