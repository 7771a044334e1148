"""Machine-readable run reports: JSON (full precision) and TSV (6 decimals).

Reports are dicts with a schema version so saved JSON can be re-rendered later.
Callers build every section from built-in JSON values (`labeled_matrix` takes
string labels); a numpy value raises `TypeError` as it does in `json.dumps`.
Serialization sorts keys, so identical runs give byte-identical files. A JSON
report is one line; `loads` reads the indented layout that earlier versions
wrote to the same value. A top-level section may also be `Rendered`, JSON text
that `records` writes from columns; `dumps` splices it in, and writes the bytes
`json.dumps` writes for the value it holds.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

SCHEMA_VERSION = 1
# What json.dumps(value, sort_keys=True, ensure_ascii=False) builds on every call
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


@dataclass(frozen=True)
class Rendered:
    """JSON text written as it is: a top-level report section, or a value in `records`."""

    text: str


def _conversion(values) -> tuple[str, list]:
    """A %-conversion that writes each value as `json.dumps` does, and the values it takes."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return "%d", values
    if kinds == {float} and math.isfinite(sum(values)):  # json writes a finite float's repr
        return "%r", values
    if kinds == {bool}:
        return "%s", ["true" if v else "false" for v in values]
    return "%s", [v.text if type(v) is Rendered else _ENCODER.encode(v) for v in values]


def records(columns: dict) -> Rendered:
    """JSON text of the list whose record k holds value k of each of equal-length sequences."""
    keys = sorted(columns)
    conversions = [_conversion(columns[key]) for key in keys]
    row = "{" + ", ".join([_ENCODER.encode(key).replace("%", "%%") + ": " + conversion
                           for key, (conversion, _) in zip(keys, conversions)]) + "}"
    n = len(conversions[0][1]) if keys else 0
    values = [None] * (n * len(keys))  # record by record; a column of another length raises
    for k, (_, column) in enumerate(conversions):  # ValueError in the slice assignment
        values[k::len(keys)] = column
    # one %-format for the whole list: measured faster than one per record
    return Rendered("[" + ", ".join([row] * n) % tuple(values) + "]")


def labeled_matrix(row_labels, col_labels, entries) -> dict:
    return {
        "row_labels": list(row_labels),
        "col_labels": list(col_labels),
        "entries": entries.tolist(),
    }


def matrix_tsv(key: str, mat: dict) -> str:
    """Matrix section `key` under a `# key` heading; ValueError if hand edits broke its shape."""
    rows, cols, entries = mat["row_labels"], mat["col_labels"], mat["entries"]
    if not (type(rows) is type(cols) is type(entries) is list
            and all(type(label) is str for label in rows + cols)
            and len(entries) == len(rows)
            and all(type(row) is list and len(row) == len(cols) for row in entries)):
        raise ValueError(f"matrix {key!r} needs string labels and one entry per row and column")
    lines = [f"# {key}", "\t".join(["", *cols])]
    for label, row in zip(rows, entries):
        cells = [f"{v:.6f}" if isinstance(v, float) else str(v) for v in row]
        lines.append("\t".join([label] + cells))
    return "\n".join(lines)


def build_report(command: str, config: dict, **sections) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command, "config": config, **sections}


def dumps(report) -> str:
    """One line of compact, key-sorted JSON plus a newline."""
    if type(report) is dict and Rendered in map(type, report.values()):
        # the report is the one record of a list whose columns hold one value each
        return records({key: [value] for key, value in report.items()}).text[1:-1] + "\n"
    return _ENCODER.encode(report) + "\n"


dumps_line = dumps  # trace streams: one record per line


def loads(text: str) -> dict:
    report = json.loads(text)
    if type(report) is not dict:
        raise ValueError("a saved report must be a JSON object")
    if type(report.get("schema")) is not int or report["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema: {report.get('schema')!r}")
    return report


def _kv_lines(report: dict) -> list[str]:
    lines = []
    for key in sorted(report):
        if key == "schema":
            continue
        value = json.loads(report[key].text) if type(report[key]) is Rendered else report[key]
        if isinstance(value, dict) and set(value) == {"row_labels", "col_labels", "entries"}:
            lines.append(matrix_tsv(key, value))
        elif isinstance(value, list) and value and all(isinstance(item, dict) for item in value):
            cols = sorted({k for item in value for k in item})
            lines.append(f"# {key}")
            lines.append("\t".join(cols))
            for item in value:
                lines.append(
                    "\t".join(_fmt(item.get(c, "")) for c in cols)
                )
        else:
            lines.append(f"{key}\t{_fmt(value)}")
    return lines


def _round6(v):
    if isinstance(v, float):
        return round(v, 6)
    if isinstance(v, list):
        return [_round6(x) for x in v]
    if isinstance(v, dict):
        return {k: _round6(x) for k, x in v.items()}
    return v


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    if isinstance(v, (list, dict)):
        return _ENCODER.encode(_round6(v))
    if v is None:
        return "-"
    return str(v)


def to_tsv(report: dict) -> str:
    """Render a whole report as sectioned TSV."""
    return "\n".join(_kv_lines(report)) + "\n"
