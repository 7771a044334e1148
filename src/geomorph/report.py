"""Machine-readable run reports: JSON (full precision) and TSV (6 decimals).

Reports are dicts with a schema version so saved JSON can be re-rendered
later. Callers build every section from built-in JSON values (`labeled_matrix`
converts its matrix with `tolist()`); a numpy value raises `TypeError` as it
does in `json.dumps`. Serialization sorts keys, so identical runs give
byte-identical files. A JSON report is one line; `loads` reads the indented
layout that earlier versions wrote to the same value.
"""
from __future__ import annotations

import json

SCHEMA_VERSION = 1


def labeled_matrix(row_labels, col_labels, entries) -> dict:
    return {
        "row_labels": [str(r) for r in row_labels],
        "col_labels": [str(c) for c in col_labels],
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
    return json.dumps(report, sort_keys=True, ensure_ascii=False) + "\n"


dumps_line = dumps  # trace streams: one record per line


def loads(text: str) -> dict:
    report = json.loads(text)
    if type(report) is not dict:
        raise ValueError("a saved report must be a JSON object")
    if report.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema: {report.get('schema')!r}")
    return report


def _kv_lines(report: dict) -> list[str]:
    lines = []
    for key in sorted(report):
        if key == "schema":
            continue
        value = report[key]
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
        return json.dumps(_round6(v), sort_keys=True, ensure_ascii=False)
    if v is None:
        return "-"
    return str(v)


def to_tsv(report: dict) -> str:
    """Render a whole report as sectioned TSV."""
    return "\n".join(_kv_lines(report)) + "\n"
