import pytest

from geomorph import fixtures, parse_text
from geomorph.errors import (
    DuplicateDeclaration,
    ParadigmSyntaxError,
    UndeclaredName,
)

MINI = """\
# a tiny paradigm
FEATURE number: sg pl
MORPHEMES: 0 s
CELL sg -> 0
CELL pl -> s
"""


def test_parse_minimal_table():
    pf = parse_text(MINI)
    assert pf.kind() == "single"
    assert pf.features == (("number", ("sg", "pl")),)
    assert pf.morphemes == ("0", "s")
    assert pf.cells == ((("sg",), "0"), (("pl",), "s"))


def test_english_fixture_shapes(english):
    fs = english.feature_system()
    assert fs.num_values == 7
    assert len(english.cells) == 12
    assert english.morphemes == ("0", "s", "ed")
    gold = english.gold_table(fs)
    assert gold.matrix.sum() == 12


def test_nuer_fixture_classes(nuer):
    assert nuer.kind() == "classes"
    assert len(nuer.classes) == 16
    counts = {label: n for label, n, _ in nuer.classes}
    assert counts["I"] == 61 and counts["X"] == 3 and counts["XVI"] == 1
    inv = nuer.class_inventory()
    assert sum(inv.lexeme_counts.values()) == 236


def test_composition_fixture(spanish):
    assert spanish.kind() == "composition"
    assert spanish.plane == ("second", "first")
    model = spanish.angle_model()
    assert model.entries["cant"] == -0.18875
    gold = spanish.gold_forms()
    assert gold[("cant", "second")] == "as"


def test_angle_model_is_none_when_unpositioned(german_plurals):
    assert german_plurals.angle_model() is None


def test_comments_and_blank_lines_ignored():
    pf = parse_text("# top\n\n" + MINI + "\nCELL sg -> 0  # dup? no: comment only\n".replace("CELL sg -> 0  # dup? no: comment only\n", ""))
    assert pf.morphemes == ("0", "s")


def test_undeclared_cell_value_reports_line():
    text = MINI + "CELL du -> 0\n"
    with pytest.raises(UndeclaredName) as err:
        parse_text(text)
    assert err.value.line == 6


def test_undeclared_morpheme_rejected():
    with pytest.raises(UndeclaredName):
        parse_text("FEATURE number: sg pl\nMORPHEMES: 0\nCELL sg -> zz\n")


def test_unknown_directive_position():
    with pytest.raises(ParadigmSyntaxError) as err:
        parse_text("FEATURE number: sg pl\nNOISE a b\n")
    assert (err.value.line, err.value.col) == (2, 1)


def test_cell_requires_morphemes_line():
    with pytest.raises(ParadigmSyntaxError):
        parse_text("FEATURE number: sg pl\nCELL sg -> 0\n")


def test_duplicate_feature_rejected():
    with pytest.raises(DuplicateDeclaration):
        parse_text("FEATURE n: a b\nFEATURE n: c d\nMORPHEMES: m\nCELL a c -> m\n")


def test_duplicate_cell_rejected():
    with pytest.raises(DuplicateDeclaration):
        parse_text(MINI + "CELL sg -> s\n")


def test_unclosed_class_block():
    text = "FEATURE number: sg pl\nMORPHEMES: 0\nCLASS A LEXEMES 3\nCELL sg -> 0\n"
    with pytest.raises(ParadigmSyntaxError):
        parse_text(text)


def test_mixed_sections_rejected():
    with pytest.raises(ParadigmSyntaxError):
        parse_text(MINI + "STEM x\n")


def test_file_without_a_section_rejected():
    with pytest.raises(ParadigmSyntaxError, match="exactly one of") as err:
        parse_text("FEATURE number: sg pl\nMORPHEMES: 0 s\n")
    assert (err.value.line, err.value.col) == (3, 1)


def test_form_requires_declared_stem():
    text = "FEATURE number: sg pl\nPLANE pl sg\nAFFIX 0\nFORM who sg -> 0\n"
    with pytest.raises(UndeclaredName):
        parse_text(text)


def test_wrong_value_count_in_cell():
    with pytest.raises(ParadigmSyntaxError):
        parse_text("FEATURE number: sg pl\nFEATURE case: n g\nMORPHEMES: 0\nCELL sg -> 0\n")


def test_lexeme_count_must_be_positive_integer():
    base = "FEATURE number: sg pl\nMORPHEMES: 0\n"
    with pytest.raises(ParadigmSyntaxError):
        parse_text(base + "CLASS A LEXEMES zero\nCELL sg -> 0\nCELL pl -> 0\nEND\n")
    with pytest.raises(ParadigmSyntaxError):
        parse_text(base + "CLASS A LEXEMES 0\nCELL sg -> 0\nCELL pl -> 0\nEND\n")


def test_bad_angle_reported():
    with pytest.raises(ParadigmSyntaxError):
        parse_text("FEATURE number: sg pl\nPLANE pl sg\nSTEM x @ abc\nAFFIX y\nFORM x sg -> y\n")


@pytest.mark.parametrize("name", fixtures.FIXTURES)
def test_serialize_round_trip(name):
    pf = fixtures.load(name)
    assert parse_text(pf.serialize()) == pf


def test_class_blocks_must_share_cells():
    text = (
        "FEATURE number: sg pl\nMORPHEMES: 0 s\n"
        "CLASS A LEXEMES 2\nCELL sg -> 0\nCELL pl -> s\nEND\n"
        "CLASS B LEXEMES 1\nCELL pl -> s\nCELL sg -> 0\nEND\n"
    )
    pf = parse_text(text)
    with pytest.raises(UndeclaredName):
        pf.class_inventory()
