"""Machine-readable run reports: JSON (full precision) and TSV (6 decimals).

Reports are dicts with a schema version so saved JSON can be re-rendered
later. Callers build every section from built-in JSON values (`labeled_matrix`
converts its matrix with `tolist()`); a numpy value raises `TypeError` as it
does in `json.dumps`. Serialization sorts keys, so identical runs give
byte-identical files.

`dumps` writes exactly `json.dumps(report, sort_keys=True, indent=2,
ensure_ascii=False)` plus a newline, but keeps the work in the C encoder,
which `json` uses only when `indent` is None. A non-empty dict, list or tuple
whose members are all exact-type scalars (str, int, float, bool, None) is
encoded in one call by a `json.JSONEncoder` whose item separator is a comma
plus the newline and indentation of its members; the writer then adds the
indented line breaks after the opening and before the closing bracket. A
table -- a list of such dicts, or of such lists -- is encoded in one call at
its rows' member indent, and every `},` or `],` followed by a line break is
then re-indented as a row boundary. That rewrite is exact: an encoded string
never holds a raw newline and always ends in `"`, and row members are
scalars, so a closing bracket followed by a comma and a line break can only
end a row. Everything else (containers of containers, subclasses, numpy
leaves, empty rows) takes the recursive path, which raises the same
`TypeError`/`ValueError` as `json.dumps`.
"""
from __future__ import annotations

import functools
import json
import math
from itertools import chain

SCHEMA_VERSION = 1

_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = (dict, list, tuple)
_CONSTANTS = {True: "true", False: "false", None: "null"}


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


def _flat(value) -> bool:
    """A non-empty exact dict, list or tuple holding only exact-type scalars."""
    kind = type(value)
    if kind not in _CONTAINERS or not value:
        return False
    return _SCALARS.issuperset(map(type, value.values() if kind is dict else value))


def _table(value) -> bool:
    """A non-empty list or tuple of flat dicts, or of flat lists and tuples."""
    if type(value) not in (list, tuple) or not value:
        return False
    kinds = set(map(type, value))
    if kinds == {dict}:
        members = chain.from_iterable(map(dict.values, value))
    elif kinds <= {list, tuple}:
        members = chain.from_iterable(value)
    else:
        return False
    return all(value) and _SCALARS.issuperset(map(type, members))


def _newline(level: int) -> str:
    return "\n" + "  " * level


_quote = json.JSONEncoder(ensure_ascii=False).encode


def _scalar(value) -> str:
    """A leaf as json writes it; exact ints, finite floats and constants inline."""
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    # strings, NaN, infinities and subclasses, or json's TypeError
    return _quote(value)


def _key(key) -> str:
    """A dict key as json writes it: a string, or a number or constant in quotes."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return _quote(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@functools.cache
def _encoder(level: int) -> json.JSONEncoder:
    """C encoder whose members sit at `level`; it keeps no state between calls."""
    return json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                            separators=("," + _newline(level), ": "))


def _write(value, level: int, markers: set) -> str:
    """`value` written at indent `level`.

    `markers` holds the ids of the containers being written, as json checks
    cycles. A module function, not a closure in `dumps`: a recursive closure
    is a reference cycle that only the cycle collector frees.
    """
    if not isinstance(value, _CONTAINERS):
        return _scalar(value)
    if _flat(value):
        text = _encoder(level + 1).encode(value)
        return text[0] + _newline(level + 1) + text[1:-1] + _newline(level) + text[-1]
    if _table(value):
        outer, inner = _newline(level + 1), _newline(level + 2)
        text = _encoder(level + 2).encode(value)
        opening, closing = text[1], text[-2]
        rows = text[2:-2].replace(
            closing + "," + inner + opening,
            outer + closing + "," + outer + opening + inner,
        )
        return "[" + outer + opening + inner + rows + outer + closing + _newline(level) + "]"
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    if id(value) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(value))
    if isinstance(value, dict):
        brackets = "{}"
        members = [
            _key(k) + ": " + (_scalar(v) if type(v) in _SCALARS else _write(v, level + 1, markers))
            for k, v in sorted(value.items())
        ]
    else:
        brackets = "[]"
        members = [
            _scalar(v) if type(v) in _SCALARS else _write(v, level + 1, markers) for v in value
        ]
    markers.discard(id(value))
    inner = _newline(level + 1)
    return brackets[0] + inner + ("," + inner).join(members) + _newline(level) + brackets[1]


def dumps(report) -> str:
    """`json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)` + newline."""
    return _write(report, 0, set()) + "\n"


def dumps_line(record: dict) -> str:
    """One compact JSON object per line, for trace streams."""
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


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
