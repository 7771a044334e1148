"""Every parse error the paradigm reader raises, pinned to its exact text.

One malformed input per failure site of the parser, with the exception
type, line, column (None for name errors, which carry no column) and
message. Two sites cannot be reached from text and have no row: a CLASS
line inside an open block is rejected as "only CELL or END inside a
CLASS block", and a cell table or class block cannot exist without the
MORPHEMES line its CELL lines need.
"""
import pytest

from geomorph import parse_text
from geomorph.errors import DuplicateDeclaration, ParadigmSyntaxError, UndeclaredName

CASES = [
    ('unknown directive', 'FEATURE number: sg pl\n  NOISE a b\n',
     ParadigmSyntaxError, 2, 3, 'line 2, col 3: expected a directive (FEATURE, MORPHEMES:, CELL, CLASS, END, PLANE, STEM, AFFIX, FORM)'),
    ('directive inside class', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 1\nCELL sg -> 0\n  PLANE sg pl\n',
     ParadigmSyntaxError, 5, 3, 'line 5, col 3: expected only CELL or END inside a CLASS block'),
    ('nested class', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 1\nCLASS B LEXEMES 1\n',
     ParadigmSyntaxError, 4, 1, 'line 4, col 1: expected only CELL or END inside a CLASS block'),
    ('unclosed class', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 3\nCELL sg -> 0\n',
     ParadigmSyntaxError, 5, 1, 'line 5, col 1: expected END to close the open CLASS block'),
    ('no section', 'FEATURE number: sg pl\nMORPHEMES: 0 s\n',
     ParadigmSyntaxError, 3, 1, 'line 3, col 1: expected exactly one of: a cell table, class blocks, or a composition section'),
    ('two sections', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL sg -> 0\nSTEM x\n',
     ParadigmSyntaxError, 5, 1, 'line 5, col 1: expected exactly one of: a cell table, class blocks, or a composition section'),
    ('feature after cell', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL sg -> 0\n  FEATURE case: nom acc\n',
     ParadigmSyntaxError, 4, 3, 'line 4, col 3: expected FEATURE lines before the first CELL'),
    ('feature after class', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 1\nCELL sg -> 0\nEND\nFEATURE case: nom acc\n',
     ParadigmSyntaxError, 6, 1, 'line 6, col 1: expected FEATURE lines before the first CELL'),
    ('feature too short', 'FEATURE number: sg\n',
     ParadigmSyntaxError, 1, 19, 'line 1, col 19: expected FEATURE <name>: <v1> <v2> ...'),
    ('feature without colon', 'FEATURE number sg pl\n',
     ParadigmSyntaxError, 1, 9, "line 1, col 9: expected feature name followed by ':'"),
    ('feature empty name', 'FEATURE : sg pl\n',
     ParadigmSyntaxError, 1, 9, 'line 1, col 9: expected non-empty feature name'),
    ('value repeated in feature', 'FEATURE number: sg sg\n',
     DuplicateDeclaration, 1, None, "duplicate declaration of 'sg' (line 1)"),
    ('value of earlier feature', 'FEATURE number: sg pl\nFEATURE case: pl acc\n',
     DuplicateDeclaration, 2, None, "duplicate declaration of 'pl' (line 2)"),
    ('value named like its feature', 'FEATURE case: case acc\n',
     DuplicateDeclaration, 1, None, "duplicate declaration of 'case' (line 1)"),
    ('value named like earlier feature', 'FEATURE number: sg pl\nFEATURE case: number acc\n',
     DuplicateDeclaration, 2, None, "duplicate declaration of 'number' (line 2)"),
    ('feature named like earlier value', 'FEATURE number: sg pl\nFEATURE sg: a b\n',
     DuplicateDeclaration, 2, None, "duplicate declaration of 'sg' (line 2)"),
    ('feature declared twice', 'FEATURE number: sg pl\nFEATURE number: du tr\n',
     DuplicateDeclaration, 2, None, "duplicate declaration of 'number' (line 2)"),
    ('morphemes twice', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nMORPHEMES: 0\n',
     DuplicateDeclaration, 3, None, "duplicate declaration of 'MORPHEMES' (line 3)"),
    ('morphemes empty', 'FEATURE number: sg pl\nMORPHEMES:\n',
     ParadigmSyntaxError, 2, 11, 'line 2, col 11: expected at least one morpheme'),
    ('morpheme repeated', 'FEATURE number: sg pl\nMORPHEMES: 0 s 0\n',
     DuplicateDeclaration, 2, None, "duplicate declaration of '0' (line 2)"),
    ('morpheme named like a value', 'FEATURE number: sg pl\nMORPHEMES: sg s\n',
     DuplicateDeclaration, 2, None, "duplicate declaration of 'sg' (line 2)"),
    ('cell before morphemes', 'FEATURE number: sg pl\nCELL sg -> 0\n',
     ParadigmSyntaxError, 2, 1, 'line 2, col 1: expected a MORPHEMES line before any CELL'),
    ('cell without arrow', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL sg 0\n',
     ParadigmSyntaxError, 3, 1, 'line 3, col 1: expected CELL <values> -> <morpheme>'),
    ('cell two arrows', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL sg -> 0 -> s\n',
     ParadigmSyntaxError, 3, 1, 'line 3, col 1: expected CELL <values> -> <morpheme>'),
    ('cell two morphemes', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL sg -> 0 s\n',
     ParadigmSyntaxError, 3, 9, "line 3, col 9: expected exactly one morpheme after '->'"),
    ('cell no morpheme', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL sg ->\n',
     ParadigmSyntaxError, 3, 9, "line 3, col 9: expected exactly one morpheme after '->'"),
    ('cell too few values', 'FEATURE number: sg pl\nFEATURE case: nom acc\nMORPHEMES: 0 s\nCELL   sg -> 0\n',
     ParadigmSyntaxError, 4, 8, 'line 4, col 8: expected 2 cell value(s), one per feature'),
    ('cell no values', 'FEATURE number: sg pl\nFEATURE case: nom acc\nMORPHEMES: 0 s\nCELL -> 0\n',
     ParadigmSyntaxError, 4, 6, 'line 4, col 6: expected 2 cell value(s), one per feature'),
    ('cell undeclared value', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL du -> 0\n',
     UndeclaredName, 3, None, "undeclared name 'du' (line 3)"),
    ('cell value of wrong feature', 'FEATURE number: sg pl\nFEATURE case: nom acc\nMORPHEMES: 0 s\nCELL nom sg -> 0\n',
     UndeclaredName, 4, None, "undeclared name 'nom' (line 4)"),
    ('cell undeclared morpheme', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL sg -> zz\n',
     UndeclaredName, 3, None, "undeclared name 'zz' (line 3)"),
    ('duplicate top-level cell', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL sg -> 0\nCELL pl -> s\nCELL sg -> s\n',
     DuplicateDeclaration, 5, None, "duplicate declaration of 'sg' (line 5)"),
    ('duplicate cell in class', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 2\nCELL sg -> 0\nCELL pl -> s\nCELL sg -> s\nEND\n',
     DuplicateDeclaration, 6, None, "duplicate declaration of 'sg' (line 6)"),
    ('duplicate two-feature cell', 'FEATURE number: sg pl\nFEATURE case: nom acc\nMORPHEMES: 0 s\nCELL sg nom -> 0\nCELL sg acc -> 0\nCELL sg nom -> s\n',
     DuplicateDeclaration, 6, None, "duplicate declaration of 'sg,nom' (line 6)"),
    ('class malformed', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES\n',
     ParadigmSyntaxError, 3, 1, 'line 3, col 1: expected CLASS <label> LEXEMES <count>'),
    ('class wrong keyword', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A COUNT 3\n',
     ParadigmSyntaxError, 3, 1, 'line 3, col 1: expected CLASS <label> LEXEMES <count>'),
    ('class label twice', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 2\nCELL sg -> 0\nCELL pl -> s\nEND\nCLASS A LEXEMES 1\n',
     DuplicateDeclaration, 7, None, "duplicate declaration of 'A' (line 7)"),
    ('class count not integer', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES  three\n',
     ParadigmSyntaxError, 3, 18, 'line 3, col 18: expected an integer lexeme count'),
    ('class count zero', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 0\n',
     ParadigmSyntaxError, 3, 17, 'line 3, col 17: expected a positive lexeme count'),
    ('end outside class', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nEND\n',
     ParadigmSyntaxError, 3, 1, 'line 3, col 1: expected END only closes a CLASS block'),
    ('tokens after end', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 1\nCELL sg -> 0\nEND  now\n',
     ParadigmSyntaxError, 5, 6, 'line 5, col 6: expected nothing after END'),
    ('later class cell out of order', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 2\nCELL sg -> 0\nCELL pl -> s\nEND\nCLASS B LEXEMES 1\nCELL  pl -> s\n',
     ParadigmSyntaxError, 8, 7, 'line 8, col 7: expected the cells of the first CLASS block, in its order'),
    ('later class one cell more', 'FEATURE number: sg pl du\nMORPHEMES: 0 s\nCLASS A LEXEMES 2\nCELL sg -> 0\nCELL pl -> s\nEND\nCLASS B LEXEMES 1\nCELL sg -> s\nCELL pl -> s\nCELL du -> s\nEND\n',
     ParadigmSyntaxError, 10, 6, 'line 10, col 6: expected the cells of the first CLASS block, in its order'),
    ('later class one cell fewer', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 2\nCELL sg -> 0\nCELL pl -> s\nEND\nCLASS B LEXEMES 1\nCELL sg -> s\nEND\n',
     ParadigmSyntaxError, 9, 1, 'line 9, col 1: expected the cells of the first CLASS block, in its order'),
    ('empty class', 'FEATURE number: sg pl\nMORPHEMES: 0 s\nCLASS A LEXEMES 1\nEND\n',
     ParadigmSyntaxError, 4, 1, 'line 4, col 1: expected at least one CELL line in the CLASS block'),
    ('composition without plane', 'FEATURE number: sg pl\nSTEM x\nAFFIX y\nFORM x sg -> y\n',
     ParadigmSyntaxError, 5, 1, 'line 5, col 1: expected a PLANE line in the composition section'),
    ('plane twice', 'FEATURE number: sg pl\nPLANE pl sg\nPLANE sg pl\n',
     DuplicateDeclaration, 3, None, "duplicate declaration of 'PLANE' (line 3)"),
    ('plane one value', 'FEATURE number: sg pl\nPLANE sg\n',
     ParadigmSyntaxError, 2, 1, 'line 2, col 1: expected PLANE <x-value> <y-value>'),
    ('plane undeclared value', 'FEATURE number: sg pl\nPLANE sg du\n',
     UndeclaredName, 2, None, "undeclared name 'du' (line 2)"),
    ('plane same value', 'FEATURE number: sg pl\nPLANE sg sg\n',
     DuplicateDeclaration, 2, None, "duplicate declaration of 'sg' (line 2)"),
    ('stem without label', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM\n',
     ParadigmSyntaxError, 3, 1, 'line 3, col 1: expected STEM <label> [@ <angle-rad>]'),
    ('stem without @', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x  at 1.0\n',
     ParadigmSyntaxError, 3, 9, 'line 3, col 9: expected @ <angle-rad> or end of line'),
    ('stem @ without angle', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x @\n',
     ParadigmSyntaxError, 3, 8, 'line 3, col 8: expected @ <angle-rad> or end of line'),
    ('stem angle not a number', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x @  abc\n',
     ParadigmSyntaxError, 3, 11, 'line 3, col 11: expected a real-number angle in radians'),
    ('affix angle not a number', 'FEATURE number: sg pl\nPLANE pl sg\nAFFIX y @ 1.0rad\n',
     ParadigmSyntaxError, 3, 11, 'line 3, col 11: expected a real-number angle in radians'),
    ('stem angle nan', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x @ nan\n',
     ParadigmSyntaxError, 3, 10, 'line 3, col 10: expected a real-number angle in radians'),
    ('affix angle -inf', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX y  @ -inf\n',
     ParadigmSyntaxError, 4, 12, 'line 4, col 12: expected a real-number angle in radians'),
    ('stem named like a value', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM sg\n',
     DuplicateDeclaration, 3, None, "duplicate declaration of 'sg' (line 3)"),
    ('stem twice', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nSTEM x\n',
     DuplicateDeclaration, 4, None, "duplicate declaration of 'x' (line 4)"),
    ('affix named like a stem', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX x\n',
     DuplicateDeclaration, 4, None, "duplicate declaration of 'x' (line 4)"),
    ('affix named like a feature', 'FEATURE number: sg pl\nPLANE pl sg\nAFFIX number\n',
     DuplicateDeclaration, 3, None, "duplicate declaration of 'number' (line 3)"),
    ('value named like a stem', 'FEATURE number: sg pl\nSTEM Kind\nAFFIX s\nFEATURE case: Kind s\n',
     DuplicateDeclaration, 4, None, "duplicate declaration of 'Kind' (line 4)"),
    ('form without arrow', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM x sg y\n',
     ParadigmSyntaxError, 5, 1, 'line 5, col 1: expected FORM <stem> <cell-values> -> <affix>'),
    ('form without values', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM x -> y\n',
     ParadigmSyntaxError, 5, 1, 'line 5, col 1: expected FORM <stem> <cell-values> -> <affix>'),
    ('form two affixes', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM x sg -> y y\n',
     ParadigmSyntaxError, 5, 1, 'line 5, col 1: expected FORM <stem> <cell-values> -> <affix>'),
    ('form undeclared stem', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM z sg -> y\n',
     UndeclaredName, 5, None, "undeclared name 'z' (line 5)"),
    ('form undeclared value', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM x du -> y\n',
     UndeclaredName, 5, None, "undeclared name 'du' (line 5)"),
    ('form undeclared affix', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM x sg -> z\n',
     UndeclaredName, 5, None, "undeclared name 'z' (line 5)"),
    ('form twice', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM x sg -> y\nFORM x sg -> y\n',
     DuplicateDeclaration, 6, None, "duplicate declaration of 'FORM x sg' (line 6)"),
    ('form without plane value', 'FEATURE number: sg pl\nFEATURE case: nom gen\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM x  nom -> y\n',
     ParadigmSyntaxError, 6, 9, 'line 6, col 9: expected exactly one value of the PLANE line'),
    ('form two plane values', 'FEATURE number: sg pl\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM x sg pl -> y\n',
     ParadigmSyntaxError, 5, 8, 'line 5, col 8: expected exactly one value of the PLANE line'),
    ('form plane value twice by case', 'FEATURE number: sg pl\nFEATURE case: nom gen\nPLANE pl sg\nSTEM x\nAFFIX y\nFORM x sg nom -> y\nFORM x sg gen -> y\n',
     DuplicateDeclaration, 7, None, "duplicate declaration of 'FORM x sg' (line 7)"),
]


@pytest.mark.parametrize("text, kind, line, col, message",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_parse_error_is_exactly_as_recorded(text, kind, line, col, message):
    with pytest.raises(kind) as err:
        parse_text(text)
    assert type(err.value) is kind
    assert (err.value.line, getattr(err.value, "col", None), str(err.value)) == (line, col, message)


def test_same_cell_in_two_classes_is_legal():
    text = (
        "FEATURE number: sg pl\nMORPHEMES: 0 s\n"
        "CLASS A LEXEMES 2\nCELL sg -> 0\nCELL pl -> s\nEND\n"
        "CLASS B LEXEMES 1\nCELL sg -> s\nCELL pl -> s\nEND\n"
    )
    pf = parse_text(text)
    assert [rows for _, _, rows in pf.classes] == [
        ((("sg",), "0"), (("pl",), "s")),
        ((("sg",), "s"), (("pl",), "s")),
    ]


def test_form_may_precede_plane():
    pf = parse_text("FEATURE number: sg pl\nSTEM x\nAFFIX y\nFORM x sg -> y\nPLANE pl sg\n")
    assert pf.gold_forms() == {("x", "sg"): "y"}
