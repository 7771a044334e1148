import math

import numpy as np
import pytest

from geomorph import (
    CountArray,
    ExponentMatrix,
    activations,
    count_features,
    evaluate,
    initial_exponents,
    normalize_columns,
    select_winners,
    selection_from_winners,
)
from geomorph.errors import ShapeMismatch, ZeroColumn
from geomorph.exponence import SelectionTable

# attestation counts for the English weak verb, by feature value
ENGLISH_COUNTS = {
    "0": [0, 5, 2, 2, 1, 2, 3],
    "s": [0, 1, 0, 0, 1, 1, 0],
    "ed": [6, 0, 2, 2, 2, 3, 3],
}


def test_english_count_array(english):
    corners, gold = english.corner_matrix(), english.gold_table()
    counts = count_features(corners, gold)
    for j, m in enumerate(counts.morphemes):
        assert counts.matrix[:, j].tolist() == ENGLISH_COUNTS[m]


def test_german_full_count_column(german_full):
    corners, gold = german_full.corner_matrix(), german_full.gold_table()
    counts = count_features(corners, gold)
    e = counts.morphemes.index("e")
    assert counts.matrix[:, e].tolist() == [2, 1, 2, 0, 1, 3, 0]


def test_single_morpheme_counts_are_column_sums():
    import geomorph as g

    fs = g.build_feature_system([("number", ["sg", "pl"]), ("case", ["nom", "acc"])])
    cells = g.all_cells(fs)
    corners = g.build_corner_matrix(fs, cells)
    gold = selection_from_winners(cells, ("k", "other"), ["k"] * len(cells))
    counts = count_features(corners, gold)
    assert counts.matrix[:, 0].tolist() == corners.matrix.sum(axis=0).tolist()
    assert counts.matrix[:, 1].tolist() == [0, 0, 0, 0]


def test_normalize_matches_exact_ratios(english):
    counts = count_features(english.corner_matrix(), english.gold_table())
    expo = normalize_columns(counts)
    ed = expo.column("ed")
    assert np.allclose(ed, np.array([6, 0, 2, 2, 2, 3, 3]) / math.sqrt(66), atol=1e-12)
    null = expo.column("0")
    assert math.isclose(null[1], 5 / math.sqrt(47), abs_tol=1e-12)
    assert math.isclose(null[1], 0.7293, abs_tol=5e-4)


def test_normalize_one_hot_column_unchanged():
    counts = CountArray(("m",), np.array([[0.0], [1.0], [0.0]]))
    assert normalize_columns(counts).matrix[:, 0].tolist() == [0, 1, 0]


def test_normalize_rejects_zero_column():
    counts = CountArray(("m", "n"), np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ZeroColumn):
        normalize_columns(counts)


@pytest.mark.parametrize(
    "kind, morphemes, matrix",
    [
        (ExponentMatrix, ("a", "b"), [[math.nan, 1.0], [0.0, 0.0]]),
        (CountArray, ("a",), [[math.nan]]),
        (CountArray, ("a", "b"), [[1.0, math.inf], [0.0, 2.0]]),
    ],
    ids=["exponents-nan", "counts-nan", "counts-inf"],
)
def test_non_finite_entries_are_rejected(kind, morphemes, matrix):
    with pytest.raises(ShapeMismatch):
        kind(morphemes, np.array(matrix))


def test_initial_exponents_russian(russian):
    expo = initial_exponents(russian.corner_matrix(), russian.gold_table())
    null = expo.column("0")
    assert math.isclose(null[0], 0.816, abs_tol=5e-4)  # 2/sqrt(6) on sg
    for j in range(len(expo.morphemes)):
        assert math.isclose(np.linalg.norm(expo.matrix[:, j]), 1.0, abs_tol=1e-12)


def test_english_activation_row(english):
    corners, gold = english.corner_matrix(), english.gold_table()
    acts = activations(corners, initial_exponents(corners, gold))
    labels = [c.label() for c in acts.row_labels]
    row = acts.matrix[labels.index("present,3,sg")]
    assert np.allclose(row, [1.167, 1.731, 0.615], atol=0.005)


def test_german_present_activation(german_present):
    corners, gold = german_present.corner_matrix(), german_present.gold_table()
    acts = activations(corners, initial_exponents(corners, gold))
    labels = [c.label() for c in acts.row_labels]
    row = acts.matrix[labels.index("present,1,sg")]
    by = dict(zip(acts.morphemes, row))
    assert math.isclose(by["e"], 1.73, abs_tol=0.01)
    assert by["e"] == max(row)


def test_one_hot_exponents_echo_corners():
    import geomorph as g

    fs = g.build_feature_system([("number", ["sg", "pl"])])
    cells = g.all_cells(fs)
    corners = g.build_corner_matrix(fs, cells)
    expo = ExponentMatrix(("a", "b"), np.eye(2))
    acts = activations(corners, expo)
    assert np.array_equal(acts.matrix, corners.matrix)


def test_select_winners_reproduces_english_gold(english):
    corners, gold = english.corner_matrix(), english.gold_table()
    acts = activations(corners, initial_exponents(corners, gold))
    predicted, ties = select_winners(acts)
    assert ties == []
    assert np.array_equal(predicted.matrix, gold.matrix)


def test_select_winners_zeroes_tied_rows():
    import geomorph as g
    from geomorph.exponence import ActivationMatrix

    fs = g.build_feature_system([("number", ["sg", "pl"])])
    cells = g.all_cells(fs)
    acts = ActivationMatrix(cells, ("a", "b"), np.array([[1.0, 1.0], [0.3, 0.1]]))
    table, ties = select_winners(acts)
    assert ties == [0]
    assert table.matrix[0].tolist() == [0, 0]
    assert table.matrix[1].tolist() == [1, 0]


def test_german_full_init_has_single_error(german_full):
    corners, gold = german_full.corner_matrix(), german_full.gold_table()
    acts = activations(corners, initial_exponents(corners, gold))
    ev = evaluate(acts, gold)
    assert ev.mismatch_labels() == ("present,3,sg",)
    labels = [c.label() for c in acts.row_labels]
    row = acts.matrix[labels.index("present,3,sg")]
    by = dict(zip(acts.morphemes, row))
    assert math.isclose(by["e"], 1.147, abs_tol=0.005)
    assert math.isclose(by["t"], 1.033, abs_tol=0.005)
    assert math.isclose(by["e"] - by["t"], 0.114, abs_tol=0.005)


def test_latin_init_mismatches_pinned(latin):
    """Initialization misses five cells; one of them is an exact as/os tie."""
    corners, gold = latin.corner_matrix(), latin.gold_table()
    acts = activations(corners, initial_exponents(corners, gold))
    ev = evaluate(acts, gold)
    assert ev.mismatch_labels() == (
        "sg,fem,nom",
        "sg,fem,abl",
        "sg,fem,voc",
        "sg,neu,gen",
        "pl,neu,acc",
    )
    assert [acts.row_labels[i].label() for i in ev.ties] == ["pl,neu,acc"]
    by = dict(zip(acts.morphemes, acts.matrix[[c.label() for c in acts.row_labels].index("sg,fem,nom")]))
    assert math.isclose(by["ae"], 1.323, abs_tol=0.005)
    assert math.isclose(by["a"], 1.180, abs_tol=0.005)


def test_russian_init_is_perfect(russian):
    corners, gold = russian.corner_matrix(), russian.gold_table()
    acts = activations(corners, initial_exponents(corners, gold))
    ev = evaluate(acts, gold)
    assert ev.mismatches == ()
    for i in range(12):
        winning = acts.matrix[i].max()
        assert (
            math.isclose(winning, 1.225, abs_tol=0.005)
            or math.isclose(winning, 1.414, abs_tol=0.005)
        )


def test_evaluate_self_comparison(english):
    corners, gold = english.corner_matrix(), english.gold_table()
    acts = activations(corners, initial_exponents(corners, gold))
    ev = evaluate(acts, gold)
    assert ev.mismatches == () and all(m > 0 for m in ev.margins)


def test_evaluate_shape_mismatch(english, russian):
    acts = activations(english.corner_matrix(), initial_exponents(english.corner_matrix(), english.gold_table()))
    with pytest.raises(ShapeMismatch):
        evaluate(acts, russian.gold_table())


@pytest.mark.parametrize("entry,ok", [(1.0, True), (0.0, True), (-0.0, True), (0.5, False),
                                      (2.0, False), (math.nan, False), (math.inf, False)])
def test_selection_table_takes_only_zero_and_one(english, entry, ok):
    gold = english.gold_table()
    matrix = np.zeros(gold.matrix.shape)
    matrix[0, 0] = entry
    if ok:
        SelectionTable(gold.row_labels, gold.morphemes, matrix)
    else:
        with pytest.raises(ShapeMismatch, match="one-hot or all zero"):
            SelectionTable(gold.row_labels, gold.morphemes, matrix)


def _old_exponent_rule(matrix):
    """The unit-length checks as `ExponentMatrix` made them on `np.linalg.norm`, one by one."""
    norms = np.linalg.norm(matrix, axis=0)
    if (norms < 1e-9).any():
        return ZeroColumn
    if not (np.abs(norms - 1.0) <= 1e-9).all():
        return ShapeMismatch
    return None


@pytest.mark.parametrize(
    "columns, expected",
    [
        ([[0.0, 0.0], [0.0, math.nan]], ZeroColumn),  # a zero column beside a NaN one
        ([[math.nan, 0.0], [0.0, 0.0]], ZeroColumn),  # and before it
        ([[0.0, 3.0], [0.0, 4.0]], ZeroColumn),  # a zero column beside a non-unit one
        ([[0.0, 1.0], [1e-10, 0.0]], ZeroColumn),  # a norm under the tolerance
        ([[math.nan, 1.0], [0.0, 0.0]], ShapeMismatch),  # NaN alone
        ([[1.0 + 2e-9, 1.0], [0.0, 0.0]], ShapeMismatch),  # 2e-9 off unit
        ([[1.0, 0.0], [0.0, 1.0 - 2e-9]], ShapeMismatch),
        ([[1.0 + 9e-10, 1.0 - 9e-10], [0.0, 0.0]], None),  # within 1e-9 of unit
        ([[0.6, 0.0], [0.8, -1.0]], None),
    ],
)
def test_exponent_matrix_checks_match_the_norm_rule(columns, expected):
    matrix = np.array(columns)
    assert _old_exponent_rule(matrix) is expected
    if expected is None:
        ExponentMatrix(("a", "b"), matrix)
    else:
        with pytest.raises(expected):
            ExponentMatrix(("a", "b"), matrix)


def test_require_one_hot_rejects_a_tie_row(english):
    gold = english.gold_table()
    assert gold.require_one_hot() is gold
    matrix = np.array(gold.matrix)
    matrix[3] = 0.0  # an all-zero row: a tie, which selects nothing
    table = SelectionTable(gold.row_labels, gold.morphemes, matrix)
    with pytest.raises(ShapeMismatch, match="^every row must select exactly one exponent$"):
        table.require_one_hot()
