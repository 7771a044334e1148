"""Line-oriented paradigm description files.

Grammar (one construct per line, `#` comments and blank lines ignored):

    FEATURE <name>: <v1> <v2> ...
    MORPHEMES: <m1> <m2> ...          # token 0 is the null morpheme
    CELL <value per feature, declaration order> -> <morpheme>
    CLASS <label> LEXEMES <count>     # opens a block of CELL lines
    END                               # closes it; every block lists the same cells, in order
    PLANE <x-value> <y-value>
    STEM <label> [@ <angle-rad>]
    AFFIX <label> [@ <angle-rad>]
    FORM <stem> <cell-values> -> <affix>  # one PLANE value; once per stem and PLANE value

A file declares one feature system and exactly one of: a single gold
paradigm (top-level CELL lines), a set of inflection classes (CLASS
blocks), or a stem/affix composition section.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .composition import AngleModel
from .errors import (
    DuplicateDeclaration,
    ParadigmSyntaxError,
    UndeclaredName,
)
from .exponence import SelectionTable, selection_from_winners, selection_tables
from .features import (
    CornerMatrix,
    FeatureSystem,
    ParadigmCell,
    build_corner_matrix,
    build_feature_system,
)
from .rotations import ClassInventory

_TOKEN = re.compile(r"\S+")
_FIRST_BLOCK_CELLS = "the cells of the first CLASS block, in its order"


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
        return tuple([kind for kind, present in declared if present])

    def kind(self) -> str:
        (kind,) = self.sections()
        return kind

    def corner_matrix(self) -> CornerMatrix:
        fs = self.feature_system()
        rows = self.cells or (self.classes[0][2] if self.classes else ())
        return build_corner_matrix(fs, [ParadigmCell.of(fs, values) for values, _ in rows])

    def gold_table(self, corners: CornerMatrix | None = None) -> SelectionTable:
        """The gold winners; `corners`, when given, is this file's corner matrix."""
        if corners is None:
            corners = self.corner_matrix()
        winners = [m for _, m in self.cells]
        return selection_from_winners(corners.row_labels, self.morphemes, winners)

    def class_inventory(self) -> ClassInventory:
        corners = self.corner_matrix()
        tables = selection_tables(corners.row_labels, self.morphemes,
                                  [[m for _, m in rows] for _, _, rows in self.classes])
        return ClassInventory(corners, tuple(self.morphemes),
                              dict(zip([label for label, _, _ in self.classes], tables)),
                              {label: count for label, count, _ in self.classes})

    def stem_labels(self) -> tuple[str, ...]:
        return tuple([s for s, _ in self.stems])

    def affix_labels(self) -> tuple[str, ...]:
        return tuple([a for a, _ in self.affixes])

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
        return {(stem, v): affix for stem, values, affix in self.forms
                for v in values if v in self.plane}

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
        self.values: set = set()  # every feature value
        self.declared: set = set()  # feature names and values, morphemes, stems, affixes
        self.morphemes: tuple[str, ...] | None = None
        self.cells: list = []
        self.classes: list = []
        self.plane = None
        self.stems: dict = {}
        self.affixes: dict = {}
        self.forms: dict = {}  # line number -> (stem, values, affix)
        self.in_class: tuple[str, int, list] | None = None
        # cells already listed: top-level, and in the open CLASS block
        self.cell_keys: set = set()
        self.class_keys: set = set()

    def column(self, n, k):
        """1-based column of token k after the directive on line n; k = -1 is the directive.

        Handlers get plain tokens; positions are worked out only for an error.
        """
        line = self.lines[n - 1].split("#", 1)[0]
        return [m.start() + 1 for m in _TOKEN.finditer(line)][k + 1]

    def fail(self, lineno, col, expected):
        raise ParadigmSyntaxError(lineno, col, expected)

    def declare(self, n, names):
        """Enter `names` in the symbol table, in order; a name already there is a duplicate."""
        for name in names:
            if name in self.declared:
                raise DuplicateDeclaration(name, n)
            self.declared.add(name)

    def parse(self) -> ParadigmFile:
        handlers = {
            "FEATURE": self.line_feature,
            "MORPHEMES:": self.line_morphemes,
            "CELL": self.line_cell,
            "CLASS": self.line_class,
            "END": self.line_end,
            "PLANE": self.line_plane,
            "STEM": self.line_positioned,
            "AFFIX": self.line_positioned,
            "FORM": self.line_form,
        }
        for n, raw in enumerate(self.lines, start=1):
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            head = toks[0]
            handler = handlers.get(head)
            if handler is None:
                self.fail(n, self.column(n, -1), f"a directive ({', '.join(handlers)})")
            if self.in_class and head not in ("CELL", "END"):
                self.fail(n, self.column(n, -1), "only CELL or END inside a CLASS block")
            handler(n, head, toks[1:])
        end = len(self.lines) + 1
        if self.in_class is not None:
            self.fail(end, 1, "END to close the open CLASS block")
        pf = ParadigmFile(
            features=tuple(self.features),
            morphemes=self.morphemes,
            cells=tuple(self.cells),
            classes=tuple([
                (label, count, tuple(rows)) for label, count, rows in self.classes
            ]),
            plane=self.plane,
            stems=tuple(self.stems.items()),
            affixes=tuple(self.affixes.items()),
            forms=tuple(self.forms.values()),
        )
        if len(pf.sections()) != 1:
            self.fail(end, 1,
                      "exactly one of: a cell table, class blocks, or a composition section")
        if pf.plane is None and pf.kind() == "composition":
            self.fail(end, 1, "a PLANE line in the composition section")
        slots = set()  # (stem, plane value) of the FORM lines so far
        for n, (stem, values, _) in self.forms.items():
            on_plane = [v for v in values if v in pf.plane]
            if len(on_plane) != 1:
                self.fail(n, self.column(n, 1), "exactly one value of the PLANE line")
            if (stem, on_plane[0]) in slots:
                raise DuplicateDeclaration(f"FORM {stem} {on_plane[0]}", n)
            slots.add((stem, on_plane[0]))
        return pf

    # ---- one handler per directive; `rest` holds the tokens after it ----

    def line_feature(self, n, head, rest):
        if self.cells or self.classes:
            self.fail(n, self.column(n, -1), "FEATURE lines before the first CELL")
        if len(rest) < 3:
            self.fail(n, len(self.lines[n - 1]) + 1, "FEATURE <name>: <v1> <v2> ...")
        name = rest[0]
        if not name.endswith(":"):
            self.fail(n, self.column(n, 0), "feature name followed by ':'")
        name = name[:-1]
        if not name:
            self.fail(n, self.column(n, 0), "non-empty feature name")
        self.declare(n, rest[1:] + [name])
        self.features.append((name, tuple(rest[1:])))
        self.values.update(rest[1:])

    def line_morphemes(self, n, head, rest):
        if self.morphemes is not None:
            raise DuplicateDeclaration("MORPHEMES", n)
        if not rest:
            self.fail(n, len(self.lines[n - 1]) + 1, "at least one morpheme")
        self.declare(n, rest)
        self.morphemes = tuple(rest)

    def line_cell(self, n, head, rest):
        if self.morphemes is None:
            self.fail(n, 1, "a MORPHEMES line before any CELL")
        if rest.count("->") != 1:
            self.fail(n, 1, "CELL <values> -> <morpheme>")
        k = rest.index("->")
        if len(rest) != k + 2:
            self.fail(n, self.column(n, k), "exactly one morpheme after '->'")
        values = tuple(rest[:k])
        if len(values) != len(self.features):
            self.fail(n, self.column(n, 0),
                      f"{len(self.features)} cell value(s), one per feature")
        for v, (_, fvalues) in zip(values, self.features):
            if v not in fvalues:
                raise UndeclaredName(v, n)
        m = rest[k + 1]
        if m not in self.morphemes:
            raise UndeclaredName(m, n)
        rows = self.in_class[2] if self.in_class else self.cells
        keys = self.class_keys if self.in_class else self.cell_keys
        if values in keys:
            raise DuplicateDeclaration(",".join(values), n)
        if self.in_class and self.classes:
            first = self.classes[0][2]
            if len(rows) >= len(first) or first[len(rows)][0] != values:
                self.fail(n, self.column(n, 0), _FIRST_BLOCK_CELLS)
        keys.add(values)
        rows.append((values, m))

    def line_class(self, n, head, rest):
        if len(rest) != 3 or rest[1] != "LEXEMES":
            self.fail(n, 1, "CLASS <label> LEXEMES <count>")
        label = rest[0]
        if any(c[0] == label for c in self.classes):
            raise DuplicateDeclaration(label, n)
        try:
            count = int(rest[2])
        except ValueError:
            self.fail(n, self.column(n, 2), "an integer lexeme count")
        if count < 1:
            self.fail(n, self.column(n, 2), "a positive lexeme count")
        self.in_class = (label, count, [])
        self.class_keys = set()

    def line_end(self, n, head, rest):
        if not self.in_class:
            self.fail(n, 1, "END only closes a CLASS block")
        if rest:
            self.fail(n, self.column(n, 0), "nothing after END")
        label, count, rows = self.in_class
        if not rows:
            self.fail(n, 1, "at least one CELL line in the CLASS block")
        if self.classes and len(rows) < len(self.classes[0][2]):
            self.fail(n, 1, _FIRST_BLOCK_CELLS)
        self.classes.append((label, count, rows))
        self.in_class = None

    def line_plane(self, n, head, rest):
        if self.plane is not None:
            raise DuplicateDeclaration("PLANE", n)
        if len(rest) != 2:
            self.fail(n, 1, "PLANE <x-value> <y-value>")
        for v in rest:
            if v not in self.values:
                raise UndeclaredName(v, n)
        if rest[0] == rest[1]:
            raise DuplicateDeclaration(rest[0], n)
        self.plane = (rest[0], rest[1])

    def line_positioned(self, n, head, rest):
        """A STEM or AFFIX line: a new label and, optionally, its angle."""
        if not rest:
            self.fail(n, 1, f"{head} <label> [@ <angle-rad>]")
        label = rest[0]
        angle = None
        if len(rest) > 1:
            if rest[1] != "@" or len(rest) != 3:
                self.fail(n, self.column(n, 1), "@ <angle-rad> or end of line")
            try:
                angle = float(rest[2])
            except ValueError:
                angle = math.nan
            if not math.isfinite(angle):
                self.fail(n, self.column(n, 2), "a real-number angle in radians")
        self.declare(n, [label])
        (self.stems if head == "STEM" else self.affixes)[label] = angle

    def line_form(self, n, head, rest):
        k = rest.index("->") if rest.count("->") == 1 else 0
        if k < 2 or len(rest) != k + 2:
            self.fail(n, 1, "FORM <stem> <cell-values> -> <affix>")
        stem = rest[0]
        if stem not in self.stems:
            raise UndeclaredName(stem, n)
        for v in rest[1:k]:
            if v not in self.values:
                raise UndeclaredName(v, n)
        affix = rest[k + 1]
        if affix not in self.affixes:
            raise UndeclaredName(affix, n)
        self.forms[n] = (stem, tuple(rest[1:k]), affix)


def parse_text(text: str) -> ParadigmFile:
    return _Parser(text).parse()


def parse(path) -> ParadigmFile:
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read())
