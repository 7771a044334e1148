import math

import numpy as np
import pytest

from geomorph import (
    CornerMatrix,
    ParadigmCell,
    all_cells,
    build_corner_matrix,
    build_feature_system,
    corner_vector,
    fixtures,
    validate_feature_blocks,
)
from geomorph.errors import (
    DuplicateCell,
    DuplicateValue,
    EmptyFeature,
    ShapeMismatch,
    UnknownValue,
)

ENGLISH = [
    ("tense", ["past", "present"]),
    ("person", ["1", "2", "3"]),
    ("number", ["sg", "pl"]),
]


def test_english_system_has_seven_coordinates():
    fs = build_feature_system(ENGLISH)
    assert fs.num_values == 7
    assert fs.value_index["past"] == 0
    assert fs.value_index["pl"] == 6
    assert fs.value_names == ("past", "present", "1", "2", "3", "sg", "pl")


def test_single_feature_system():
    fs = build_feature_system([("number", ["sg", "pl"])])
    assert fs.num_values == 2


def test_duplicate_value_rejected():
    with pytest.raises(DuplicateValue):
        build_feature_system([("tense", ["past", "past"])])
    with pytest.raises(DuplicateValue):
        build_feature_system([("a", ["x", "y"]), ("b", ["y", "z"])])


def test_too_few_values_rejected():
    with pytest.raises(EmptyFeature):
        build_feature_system([("tense", ["past"])])
    with pytest.raises(EmptyFeature):
        build_feature_system([])
    with pytest.raises(EmptyFeature, match="empty token"):
        build_feature_system([("tense", ["past", ""])])


def test_corner_vectors_match_published_rows():
    fs = build_feature_system(ENGLISH)
    past_1_sg = ParadigmCell.of(fs, ["past", "1", "sg"])
    assert corner_vector(past_1_sg, fs).tolist() == [1, 0, 1, 0, 0, 1, 0]
    pres_3_pl = ParadigmCell.of(fs, ["present", "3", "pl"])
    assert corner_vector(pres_3_pl, fs).tolist() == [0, 1, 0, 0, 1, 0, 1]


def test_corner_norm_is_sqrt_feature_count():
    fs = build_feature_system(ENGLISH)
    for cell in all_cells(fs):
        assert math.isclose(np.linalg.norm(corner_vector(cell, fs)), math.sqrt(3))


def test_one_feature_corner_is_one_hot():
    fs = build_feature_system([("number", ["sg", "pl"])])
    cell = ParadigmCell.of(fs, ["sg"])
    assert corner_vector(cell, fs).tolist() == [1, 0]


def test_unknown_value_rejected():
    fs = build_feature_system(ENGLISH)
    with pytest.raises(UnknownValue):
        ParadigmCell.of(fs, ["future", "1", "sg"])
    with pytest.raises(UnknownValue):
        ParadigmCell.of(fs, ["past", "1"])


def test_corner_matrix_row_order_and_values(english):
    fs = english.feature_system()
    corners = english.corner_matrix()
    assert corners.matrix.shape == (12, 7)
    labels = [c.label() for c in corners.row_labels]
    i = labels.index("past,2,sg")
    assert corners.matrix[i].tolist() == [1, 0, 0, 1, 0, 1, 0]
    # one 1 per feature block in every row
    for row in corners.matrix:
        assert row[0:2].sum() == 1 and row[2:5].sum() == 1 and row[5:7].sum() == 1


def test_full_cross_product_size():
    fs = build_feature_system(ENGLISH)
    assert len(all_cells(fs)) == 12
    corners = build_corner_matrix(fs, all_cells(fs))
    assert corners.matrix.shape == (12, 7)


def test_two_cell_system_is_identity():
    fs = build_feature_system([("number", ["sg", "pl"])])
    corners = build_corner_matrix(fs, all_cells(fs))
    assert np.array_equal(corners.matrix, np.eye(2))


def test_duplicate_cell_rejected():
    fs = build_feature_system(ENGLISH)
    cell = ParadigmCell.of(fs, ["past", "1", "sg"])
    with pytest.raises(DuplicateCell):
        build_corner_matrix(fs, [cell, cell])


def test_feature_blocks_clean_for_bundled_paradigms(english, nuer):
    for pf in (english, nuer):
        fs = pf.feature_system()
        corners = pf.corner_matrix()
        assert validate_feature_blocks(corners, fs) == []


def test_feature_blocks_report_constructed_violation(english):
    fs = english.feature_system()
    corners = english.corner_matrix()
    bad = np.array(corners.matrix)
    bad[0, 0] = 1
    bad[0, 1] = 1  # both past and present set
    broken = CornerMatrix(fs, corners.row_labels, bad)
    diags = validate_feature_blocks(broken, fs)
    assert diags and all("tense" in d for d in diags)
    wider = build_feature_system(ENGLISH + [("mood", ["ind", "sbj"])])
    with pytest.raises(ShapeMismatch, match="matrix has 7 columns, system has 9 values"):
        validate_feature_blocks(corners, wider)


def test_corner_vector_injective():
    fs = build_feature_system(ENGLISH)
    cells = all_cells(fs)
    vecs = {tuple(corner_vector(c, fs)) for c in cells}
    assert len(vecs) == len(cells)


@pytest.mark.parametrize("name", ["english_weak_verb", "latin_adjectives", "nuer_classes"])
def test_corner_matrix_stacks_the_corner_vectors(name):
    pf = fixtures.load(name)
    fs = pf.feature_system()
    for cells in (all_cells(fs), pf.corner_matrix().row_labels):
        corners = build_corner_matrix(fs, cells)
        want = np.array([corner_vector(c, fs) for c in cells])
        assert corners.matrix.tobytes() == want.tobytes()
        assert corners.matrix.dtype == want.dtype and not corners.matrix.flags.writeable


@pytest.mark.parametrize("cells, kind, message", [
    ([], ShapeMismatch, "need at least one cell"),
    ([[("tense", "past"), ("person", "1"), ("number", "du")]],
     UnknownValue, "cell value 'du' unknown to the feature system"),
    ([[("tense", "past"), ("number", "sg")]],
     UnknownValue, "cell does not assign feature(s) ['person']"),
    ([[("tense", "past"), ("person", "1"), ("number", "sg")],
      [("tense", "past")]],
     UnknownValue, "cell does not assign feature(s) ['number', 'person']"),
    ([[("tense", "past"), ("person", "1"), ("number", "sg")]] * 2,
     DuplicateCell, "duplicate paradigm cell"),
])
def test_corner_matrix_rejects_bad_cells(cells, kind, message):
    fs = build_feature_system(ENGLISH)
    with pytest.raises(kind) as err:
        build_corner_matrix(fs, [ParadigmCell(tuple(c)) for c in cells])
    assert type(err.value) is kind and str(err.value) == message
