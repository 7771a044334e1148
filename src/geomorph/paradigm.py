"""Line-oriented paradigm description files.

Grammar (one construct per line, `#` comments and blank lines ignored):

    FEATURE <name>: <v1> <v2> ...
    MORPHEMES: <m1> <m2> ...          # token 0 is the null morpheme
    CELL <value per feature, declaration order> -> <morpheme>
    CLASS <label> LEXEMES <count>     # opens a block of CELL lines
    END                               # closes a CLASS block
    PLANE <x-value> <y-value>
    STEM <label> [@ <angle-rad>]
    AFFIX <label> [@ <angle-rad>]
    FORM <stem> <cell-values> -> <affix>

A file declares one feature system and exactly one of: a single gold
paradigm (top-level CELL lines), a set of inflection classes (CLASS
blocks), or a stem/affix composition section.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .composition import AngleModel
from .errors import (
    DuplicateDeclaration,
    ParadigmSyntaxError,
    UndeclaredName,
)
from .exponence import SelectionTable, selection_from_winners
from .features import (
    CornerMatrix,
    FeatureSystem,
    ParadigmCell,
    build_corner_matrix,
    build_feature_system,
)
from .rotations import ClassInventory

_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class ParadigmFile:
    features: tuple[tuple[str, tuple[str, ...]], ...]
    morphemes: tuple[str, ...] | None = None
    cells: tuple[tuple[tuple[str, ...], str], ...] = ()
    classes: tuple[tuple[str, int, tuple[tuple[tuple[str, ...], str], ...]], ...] = ()
    plane: tuple[str, str] | None = None
    stems: tuple[tuple[str, float | None], ...] = ()
    affixes: tuple[tuple[str, float | None], ...] = ()
    forms: tuple[tuple[str, tuple[str, ...], str], ...] = ()

    # ---- derived builders -------------------------------------------------

    def feature_system(self) -> FeatureSystem:
        return build_feature_system(self.features)

    def sections(self) -> tuple[str, ...]:
        """The kinds of section the file declares; a parsed file declares one."""
        declared = (
            ("single", self.cells),
            ("classes", self.classes),
            ("composition", self.forms or self.stems or self.affixes),
        )
        return tuple(kind for kind, present in declared if present)

    def kind(self) -> str:
        (kind,) = self.sections()
        return kind

    def _cells(self, rows, fs: FeatureSystem):
        return tuple(ParadigmCell.of(fs, values) for values, _ in rows)

    def corner_matrix(self, fs: FeatureSystem | None = None) -> CornerMatrix:
        fs = fs or self.feature_system()
        if self.cells:
            rows = self.cells
        elif self.classes:
            rows = self.classes[0][2]
        else:
            raise UndeclaredName("file declares no paradigm cells")
        return build_corner_matrix(fs, self._cells(rows, fs))

    def gold_table(self, fs: FeatureSystem | None = None) -> SelectionTable:
        fs = fs or self.feature_system()
        corners = self.corner_matrix(fs)
        winners = [m for _, m in self.cells]
        return selection_from_winners(corners.row_labels, self.morphemes, winners)

    def class_inventory(self, fs: FeatureSystem | None = None) -> ClassInventory:
        fs = fs or self.feature_system()
        corners = self.corner_matrix(fs)
        tables = {}
        lexemes = {}
        for label, count, rows in self.classes:
            cells = self._cells(rows, fs)
            if cells != corners.row_labels:
                raise UndeclaredName(
                    f"class {label} must list the same cells in the same order"
                )
            tables[label] = selection_from_winners(
                cells, self.morphemes, [m for _, m in rows]
            )
            lexemes[label] = count
        return ClassInventory(corners, tuple(self.morphemes), tables, lexemes)

    def stem_labels(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.stems)

    def affix_labels(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.affixes)

    def angle_model(self) -> AngleModel | None:
        """Angle model from authored positions; None when any angle is missing."""
        entries = {}
        for label, angle in self.stems + self.affixes:
            if angle is None:
                return None
            entries[label] = angle
        return AngleModel(self.plane, entries)

    def authored_angles(self) -> dict[str, float]:
        """Whatever subset of positions the file pins explicitly."""
        return {
            label: angle
            for label, angle in self.stems + self.affixes
            if angle is not None
        }

    def gold_forms(self):
        """(stem, plane-axis value) -> affix, for the 2D angle machinery."""
        plane = set(self.plane) if self.plane else set()
        out = {}
        for stem, values, affix in self.forms:
            on_plane = [v for v in values if v in plane]
            if len(on_plane) != 1:
                raise UndeclaredName(
                    f"form for {stem!r} must use exactly one plane value, got {values}"
                )
            out[(stem, on_plane[0])] = affix
        return out

    # ---- canonical serialization -------------------------------------------

    def serialize(self) -> str:
        lines = []
        for name, values in self.features:
            lines.append(f"FEATURE {name}: {' '.join(values)}")
        if self.morphemes is not None:
            lines.append(f"MORPHEMES: {' '.join(self.morphemes)}")
        for values, m in self.cells:
            lines.append(f"CELL {' '.join(values)} -> {m}")
        for label, count, rows in self.classes:
            lines.append(f"CLASS {label} LEXEMES {count}")
            for values, m in rows:
                lines.append(f"CELL {' '.join(values)} -> {m}")
            lines.append("END")
        if self.plane is not None:
            lines.append(f"PLANE {self.plane[0]} {self.plane[1]}")
        for label, angle in self.stems:
            lines.append(f"STEM {label}" + (f" @ {angle!r}" if angle is not None else ""))
        for label, angle in self.affixes:
            lines.append(f"AFFIX {label}" + (f" @ {angle!r}" if angle is not None else ""))
        for stem, values, affix in self.forms:
            lines.append(f"FORM {stem} {' '.join(values)} -> {affix}")
        return "\n".join(lines) + "\n"


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.features: list[tuple[str, tuple[str, ...]]] = []
        self.morphemes: tuple[str, ...] | None = None
        self.cells: list = []
        self.classes: list = []
        self.plane = None
        self.stems: list = []
        self.affixes: list = []
        self.forms: list = []
        self.in_class: tuple[str, int, list] | None = None

    # tokens come with 1-based column positions
    def tokens(self, line: str):
        return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]

    def fail(self, lineno, col, expected):
        raise ParadigmSyntaxError(lineno, col, expected)

    def feature_names(self):
        return {name for name, _ in self.features}

    def all_values(self):
        return {v for _, values in self.features for v in values}

    def declared(self):
        names = self.feature_names() | self.all_values()
        names.update(self.morphemes or ())
        names.update(s for s, _ in self.stems)
        names.update(a for a, _ in self.affixes)
        return names

    DIRECTIVES = {
        "FEATURE": "line_feature",
        "MORPHEMES:": "line_morphemes",
        "CELL": "line_cell",
        "CLASS": "line_class",
        "END": "line_end",
        "PLANE": "line_plane",
        "STEM": "line_stem",
        "AFFIX": "line_affix",
        "FORM": "line_form",
    }

    def parse(self) -> ParadigmFile:
        for n, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0]
            toks = self.tokens(line)
            if not toks:
                continue
            head, col = toks[0]
            rest = toks[1:]
            name = self.DIRECTIVES.get(head)
            if name is None:
                self.fail(n, col, "a directive (FEATURE, MORPHEMES:, CELL, CLASS, END, PLANE, STEM, AFFIX, FORM)")
            if self.in_class and head not in ("CELL", "END"):
                self.fail(n, col, "only CELL or END inside a CLASS block")
            getattr(self, name)(n, head, rest)
        if self.in_class is not None:
            self.fail(len(self.lines) + 1, 1, "END to close the open CLASS block")
        pf = ParadigmFile(
            features=tuple(self.features),
            morphemes=self.morphemes,
            cells=tuple(self.cells),
            classes=tuple(
                (label, count, tuple(rows)) for label, count, rows in self.classes
            ),
            plane=self.plane,
            stems=tuple(self.stems),
            affixes=tuple(self.affixes),
            forms=tuple(self.forms),
        )
        if len(pf.sections()) != 1:
            self.fail(len(self.lines) + 1, 1,
                      "exactly one of: a cell table, class blocks, or a composition section")
        if pf.kind() != "composition" and pf.morphemes is None:
            self.fail(len(self.lines) + 1, 1, "a MORPHEMES line before any CELL")
        return pf

    # ---- one handler per directive ----

    def line_feature(self, n, head, rest):
        if len(rest) < 3:
            self.fail(n, len(self.lines[n - 1]) + 1, "FEATURE <name>: <v1> <v2> ...")
        name, col = rest[0]
        if not name.endswith(":"):
            self.fail(n, col, "feature name followed by ':'")
        name = name[:-1]
        if not name:
            self.fail(n, col, "non-empty feature name")
        values = []
        for v, vcol in rest[1:]:
            if v in values or v in self.all_values() or v == name or v in self.feature_names():
                raise DuplicateDeclaration(v, n)
            values.append(v)
        if name in self.feature_names():
            raise DuplicateDeclaration(name, n)
        self.features.append((name, tuple(values)))

    def line_morphemes(self, n, head, rest):
        if self.morphemes is not None:
            raise DuplicateDeclaration("MORPHEMES", n)
        if not rest:
            self.fail(n, len(self.lines[n - 1]) + 1, "at least one morpheme")
        seen = []
        for m, col in rest:
            if m in seen:
                raise DuplicateDeclaration(m, n)
            seen.append(m)
        self.morphemes = tuple(seen)

    def _parse_cell(self, n, rest):
        if self.morphemes is None:
            self.fail(n, 1, "a MORPHEMES line before any CELL")
        arrow = [k for k, (t, _) in enumerate(rest) if t == "->"]
        if len(arrow) != 1:
            self.fail(n, 1, "CELL <values> -> <morpheme>")
        k = arrow[0]
        values = rest[:k]
        tail = rest[k + 1:]
        if len(tail) != 1:
            self.fail(n, rest[k][1], "exactly one morpheme after '->'")
        if len(values) != len(self.features):
            self.fail(n, rest[0][1] if rest else 1,
                      f"{len(self.features)} cell value(s), one per feature")
        vals = []
        for (v, col), (fname, fvalues) in zip(values, self.features):
            if v not in fvalues:
                raise UndeclaredName(v, n)
            vals.append(v)
        m, mcol = tail[0]
        if m not in self.morphemes:
            raise UndeclaredName(m, n)
        return tuple(vals), m

    def line_cell(self, n, head, rest):
        row = self._parse_cell(n, rest)
        bucket = self.in_class[2] if self.in_class else self.cells
        if any(r[0] == row[0] for r in bucket):
            raise DuplicateDeclaration(",".join(row[0]), n)
        bucket.append(row)

    def line_class(self, n, head, rest):
        if self.in_class:
            self.fail(n, 1, "END before a new CLASS block")
        if len(rest) != 3 or rest[1][0] != "LEXEMES":
            self.fail(n, 1, "CLASS <label> LEXEMES <count>")
        label = rest[0][0]
        if any(c[0] == label for c in self.classes):
            raise DuplicateDeclaration(label, n)
        try:
            count = int(rest[2][0])
        except ValueError:
            self.fail(n, rest[2][1], "an integer lexeme count")
        if count < 1:
            self.fail(n, rest[2][1], "a positive lexeme count")
        self.in_class = (label, count, [])

    def line_end(self, n, head, rest):
        if not self.in_class:
            self.fail(n, 1, "END only closes a CLASS block")
        if rest:
            self.fail(n, rest[0][1], "nothing after END")
        label, count, rows = self.in_class
        if not rows:
            self.fail(n, 1, "at least one CELL line in the CLASS block")
        self.classes.append((label, count, rows))
        self.in_class = None

    def line_plane(self, n, head, rest):
        if self.plane is not None:
            raise DuplicateDeclaration("PLANE", n)
        if len(rest) != 2:
            self.fail(n, 1, "PLANE <x-value> <y-value>")
        for v, col in rest:
            if v not in self.all_values():
                raise UndeclaredName(v, n)
        if rest[0][0] == rest[1][0]:
            raise DuplicateDeclaration(rest[0][0], n)
        self.plane = (rest[0][0], rest[1][0])

    def _parse_positioned(self, n, rest, what):
        if not rest:
            self.fail(n, 1, f"{what} <label> [@ <angle-rad>]")
        label = rest[0][0]
        angle = None
        if len(rest) > 1:
            if rest[1][0] != "@" or len(rest) != 3:
                self.fail(n, rest[1][1], "@ <angle-rad> or end of line")
            try:
                angle = float(rest[2][0])
            except ValueError:
                self.fail(n, rest[2][1], "a real-number angle in radians")
        return label, angle

    def line_stem(self, n, head, rest):
        label, angle = self._parse_positioned(n, rest, "STEM")
        if label in self.declared():
            raise DuplicateDeclaration(label, n)
        self.stems.append((label, angle))

    def line_affix(self, n, head, rest):
        label, angle = self._parse_positioned(n, rest, "AFFIX")
        if label in self.declared():
            raise DuplicateDeclaration(label, n)
        self.affixes.append((label, angle))

    def line_form(self, n, head, rest):
        arrow = [k for k, (t, _) in enumerate(rest) if t == "->"]
        if len(arrow) != 1 or arrow[0] < 2 or len(rest) != arrow[0] + 2:
            self.fail(n, 1, "FORM <stem> <cell-values> -> <affix>")
        k = arrow[0]
        stem, scol = rest[0]
        if stem not in {s for s, _ in self.stems}:
            raise UndeclaredName(stem, n)
        values = []
        for v, col in rest[1:k]:
            if v not in self.all_values():
                raise UndeclaredName(v, n)
            values.append(v)
        affix, acol = rest[k + 1]
        if affix not in {a for a, _ in self.affixes}:
            raise UndeclaredName(affix, n)
        key = (stem, tuple(values))
        if any((s, tuple(v)) == key for s, v, _ in self.forms):
            raise DuplicateDeclaration(f"FORM {stem} {' '.join(values)}", n)
        self.forms.append((stem, tuple(values), affix))


def parse_text(text: str) -> ParadigmFile:
    return _Parser(text).parse()


def parse(path) -> ParadigmFile:
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read())
