import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_rotation_lanes import _class_text, generated_classes

from geomorph import (
    ClassInventory,
    ExponentMatrix,
    PlaneRotation,
    RotationLearnConfig,
    activations,
    apply_rotation,
    base_configuration,
    class_of_base,
    count_features,
    deponent_transform,
    gram_matrix,
    initial_exponents,
    learn_all_classes,
    learn_class_rotation,
    parse_text,
    select_winners,
    sigmoid_gain,
    weighted_counts,
)
from geomorph import fixtures, rotations
from geomorph import report as rpt
from geomorph.errors import BadAxis, EmptyFilter, ShapeMismatch
from geomorph.exponence import SelectionTable
from geomorph.features import CornerMatrix
from geomorph.rotations import RunRecord

# weighted attestation counts computed from the class table, frequent classes only
NUER_COUNTS = {
    "0": [460, 177, 374, 127, 136],
    "ni": [0, 504, 80, 216, 208],
    "kä": [221, 0, 0, 111, 110],
}

# cells differing from the base-realized class, per class
NUER_DISTANCES = {
    "I": 3, "II": 1, "III": 0, "IV": 2, "V": 5, "VI": 2, "VII": 1, "VIII": 4,
    "IX": 2, "X": 1, "XI": 2, "XII": 3, "XIII": 4, "XIV": 3, "XV": 3, "XVI": 3,
}


def test_plane_rotation_rejects_bad_axes():
    with pytest.raises(BadAxis):
        PlaneRotation(2, 2, 0.1)
    with pytest.raises(BadAxis):
        apply_rotation(ExponentMatrix(("a", "b", "c"), np.eye(3)), [PlaneRotation(0, 9, 0.1)])


def test_identity_plan_is_noop(nuer):
    base = base_configuration(nuer.class_inventory())
    out = apply_rotation(base, [])
    assert np.array_equal(out.matrix, base.matrix)


def test_rotation_preserves_gram_matrix(nuer):
    base = base_configuration(nuer.class_inventory())
    rotated = apply_rotation(base, [PlaneRotation(2, 3, 0.3)])  # (nom, gen) plane
    assert np.allclose(gram_matrix(rotated), gram_matrix(base), atol=1e-12)
    assert np.allclose(np.linalg.norm(rotated.matrix, axis=0), 1.0, atol=1e-12)


def test_nuer_weighted_counts_pinned(nuer):
    counts, kept = weighted_counts(nuer.class_inventory(), 3)
    assert kept == ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"]
    for j, m in enumerate(counts.morphemes):
        assert counts.matrix[:, j].tolist() == NUER_COUNTS[m]


def test_nuer_filter_can_empty(nuer):
    with pytest.raises(EmptyFilter):
        weighted_counts(nuer.class_inventory(), 1000)


def test_class_inventory_rejects_tables_that_disagree(nuer):
    inv = nuer.class_inventory()
    label, table = next(iter(inv.classes.items()))
    morphs = SelectionTable(table.row_labels, table.morphemes[::-1], table.matrix)
    cells = SelectionTable(table.row_labels[::-1], table.morphemes, table.matrix)
    for other, message in ((morphs, "uses different morphemes"), (cells, "uses different cells")):
        with pytest.raises(ShapeMismatch, match=f"class '{label}' {message}"):
            ClassInventory(inv.corners, inv.morphemes, {**inv.classes, label: other},
                           inv.lexeme_counts)
    counts = dict(inv.lexeme_counts)
    del counts[label]
    with pytest.raises(ShapeMismatch, match="lexeme counts must cover exactly the classes"):
        ClassInventory(inv.corners, inv.morphemes, inv.classes, counts)


@pytest.mark.parametrize("min_lexemes", [0, -5])
def test_weighted_counts_rejects_min_lexemes_below_one(nuer, min_lexemes):
    # every class has at least one lexeme, so such a filter would keep them all
    with pytest.raises(ValueError, match="min_lexemes must be at least 1"):
        weighted_counts(nuer.class_inventory(), min_lexemes)


# class files whose cells have 2 or 4 coordinates (one per feature)
@settings(max_examples=80, deadline=None)
@given(generated_classes().filter(lambda classes: len(classes[0]) in (2, 4)), st.data())
def test_weighted_counts_is_the_sum_of_per_class_counts_bit_for_bit(classes, data):
    shape, drawn = classes
    lexemes = st.integers(1, 10**6)
    inv = parse_text(_class_text(shape, {label: (data.draw(lexemes), cells)
                                         for label, (_, cells) in drawn.items()})).class_inventory()
    min_lexemes = data.draw(st.one_of(st.integers(1, 3), lexemes))
    kept = [label for label in inv.labels() if inv.lexeme_counts[label] >= min_lexemes]
    if not kept:
        with pytest.raises(EmptyFilter):
            weighted_counts(inv, min_lexemes)
        return
    event(f"{len(shape)}-coordinate cells")
    counts, got_kept = weighted_counts(inv, min_lexemes)
    per_class = sum(inv.lexeme_counts[c] * count_features(inv.corners, inv.classes[c]).matrix
                    for c in kept)
    assert got_kept == kept
    assert counts.matrix.dtype == per_class.dtype and counts.matrix.tobytes() == per_class.tobytes()


# margins as the learner records them: finite, with signed zeros and subnormals
awkward_margins = st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310])
margin_lists = st.lists(st.one_of(st.floats(-4, 4), awkward_margins), min_size=1, max_size=300)


@settings(max_examples=300, deadline=None)
@given(margin_lists)
def test_stats_mean_min_margin_is_np_mean_bit_for_bit(margins):
    # one class, one converged run per margin: the lockstep is replaced by the runs' records
    inv = fixtures.load("nuer_classes").class_inventory()
    solo = ClassInventory(inv.corners, inv.morphemes, {"III": inv.classes["III"]}, {"III": 3})
    records = [RunRecord(True, 0, margin, 0) for margin in margins]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rotations, "_learn_lanes", lambda *args: (records, []))
        (stats,), _ = learn_all_classes(solo, RotationLearnConfig(runs=len(margins)))
    assert stats.mean_min_margin.hex() == float(np.mean(margins)).hex()


def test_single_class_weighting_degenerates_to_plain_init(nuer):
    from geomorph import ClassInventory, normalize_columns

    inv = nuer.class_inventory()
    # class III attests all three suffixes, so plain initialization is defined
    solo = ClassInventory(
        inv.corners, inv.morphemes, {"III": inv.classes["III"]}, {"III": 1}
    )
    counts, kept = weighted_counts(solo, 1)
    assert kept == ["III"]
    plain = initial_exponents(inv.corners, inv.classes["III"])
    assert np.allclose(normalize_columns(counts).matrix, plain.matrix, atol=1e-12)


def test_base_realizes_class_three(nuer):
    inv = nuer.class_inventory()
    base = base_configuration(inv, 3)
    assert class_of_base(base, inv) == "III"


def test_base_activations_pinned(nuer):
    """Winners match the published base-class table; values are computed."""
    inv = nuer.class_inventory()
    base = base_configuration(inv, 3)
    acts = activations(inv.corners, base)
    by_cell = {
        c.label(): dict(zip(acts.morphemes, row))
        for c, row in zip(acts.row_labels, acts.matrix)
    }
    assert math.isclose(by_cell["sg,nom"]["0"], 1.2908, abs_tol=5e-4)
    assert math.isclose(by_cell["sg,gen"]["kä"], 1.2266, abs_tol=5e-4)
    assert math.isclose(by_cell["sg,loc"]["kä"], 1.2229, abs_tol=5e-4)
    assert math.isclose(by_cell["pl,nom"]["ni"], 0.9867, abs_tol=5e-4)
    assert math.isclose(by_cell["pl,gen"]["ni"], 1.2164, abs_tol=5e-4)
    assert math.isclose(by_cell["pl,loc"]["ni"], 1.2029, abs_tol=5e-4)


def test_scrambled_base_matches_no_class(nuer):
    inv = nuer.class_inventory()
    base = base_configuration(inv, 3)
    swapped = ExponentMatrix(base.morphemes, base.matrix[:, [1, 0, 2]])
    assert class_of_base(swapped, inv) is None


def test_class_distances_pinned(nuer):
    inv = nuer.class_inventory()
    for label, d in NUER_DISTANCES.items():
        assert inv.distance_between(label, "III") == d


def test_sigmoid_gain_values():
    assert math.isclose(sigmoid_gain(1.0, 1.0), 0.25, abs_tol=1e-12)
    assert math.isclose(sigmoid_gain(2.0, 1.0), 1 / (1 + math.exp(-2)) ** 2, abs_tol=1e-12)
    assert math.isclose(sigmoid_gain(2.0, 1.0), 0.7758, abs_tol=5e-5)
    assert math.isclose(sigmoid_gain(1.0, 2.0), 1 / (1 + math.exp(2)) ** 2, abs_tol=1e-12)
    assert math.isclose(sigmoid_gain(1.0, 2.0), 0.0142, abs_tol=5e-5)


def test_sigmoid_gain_monotone_and_bounded():
    grid = np.linspace(-4, 4, 81)
    vals = [sigmoid_gain(x, 0.0) for x in grid]
    assert all(0 < v < 1 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_learn_rotation_fixed_point(nuer):
    inv = nuer.class_inventory()
    base = base_configuration(inv, 3)
    res = learn_class_rotation(base, inv.corners, inv.classes["III"])
    assert res.converged and res.iterations == 0 and res.plan.rotations == ()


def test_learn_rotation_reaches_neighbouring_class(nuer):
    inv = nuer.class_inventory()
    base = base_configuration(inv, 3)
    res = learn_class_rotation(
        base, inv.corners, inv.classes["II"], RotationLearnConfig(seed=4), "II"
    )
    assert res.converged
    assert res.min_margin >= 0.02
    rotated = apply_rotation(base, res.plan.rotations)
    predicted, _ = select_winners(activations(inv.corners, rotated))
    assert np.array_equal(predicted.matrix, inv.classes["II"].matrix)
    # rigidity of the learned plan
    assert np.allclose(gram_matrix(rotated), gram_matrix(base), atol=1e-9)
    assert np.allclose(np.linalg.norm(rotated.matrix, axis=0), 1.0, atol=1e-9)


def test_learn_rotation_deterministic(nuer):
    inv = nuer.class_inventory()
    base = base_configuration(inv, 3)
    a = learn_class_rotation(base, inv.corners, inv.classes["I"], RotationLearnConfig(seed=9), "I")
    b = learn_class_rotation(base, inv.corners, inv.classes["I"], RotationLearnConfig(seed=9), "I")
    assert a.plan == b.plan and a.iterations == b.iterations


def test_deponent_columns_are_one_over_sqrt_three(deponent):
    expo = initial_exponents(deponent.corner_matrix(), deponent.gold_table())
    nz = expo.matrix[expo.matrix != 0]
    assert np.allclose(np.abs(nz), 1 / math.sqrt(3), atol=1e-12)


def _voice_axes(pf):
    fs = pf.feature_system()
    return fs.value_index["active"], fs.value_index["passive"]


def test_deponent_transform_swaps_voice_coordinates(deponent):
    corners, gold = deponent.corner_matrix(), deponent.gold_table()
    expo = initial_exponents(corners, gold)
    act_ax, pas_ax = _voice_axes(deponent)
    rotated = deponent_transform(expo, act_ax, pas_ax)
    third = 1 / math.sqrt(3)
    or_col = rotated.column("or")
    assert math.isclose(or_col[act_ax], third, abs_tol=1e-9)
    assert math.isclose(or_col[pas_ax], 0.0, abs_tol=1e-9)
    o_col = rotated.column("o")
    assert math.isclose(o_col[act_ax], 0.0, abs_tol=1e-9)
    assert math.isclose(o_col[pas_ax], -third, abs_tol=1e-9)
    # passive columns now carry exactly the old active feature values
    assert np.allclose(rotated.column("or")[:5], expo.column("o")[:5], atol=1e-9)


def test_deponent_four_turns_restore(deponent):
    expo = initial_exponents(deponent.corner_matrix(), deponent.gold_table())
    act_ax, pas_ax = _voice_axes(deponent)
    out = expo
    for _ in range(4):
        out = deponent_transform(out, act_ax, pas_ax)
    assert np.allclose(out.matrix, expo.matrix, atol=1e-12)


def test_deponent_selection_after_transform(deponent):
    corners, gold = deponent.corner_matrix(), deponent.gold_table()
    expo = initial_exponents(corners, gold)
    act_ax, pas_ax = _voice_axes(deponent)
    rotated = deponent_transform(expo, act_ax, pas_ax)
    predicted, ties = select_winners(activations(corners, rotated))
    assert ties == []
    by_cell = dict(zip((c.label() for c in corners.row_labels), predicted.winners()))
    assert by_cell["sg,1,active"] == "or"
    assert by_cell["sg,2,active"] == "aris"
    assert by_cell["pl,3,active"] == "antur"


def test_deponent_transform_requires_distinct_axes(deponent):
    expo = initial_exponents(deponent.corner_matrix(), deponent.gold_table())
    with pytest.raises(BadAxis):
        deponent_transform(expo, 5, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_learner_parameters_must_be_finite(bad):
    with pytest.raises(ValueError, match="base_increment"):
        RotationLearnConfig(base_increment=bad)
    with pytest.raises(ValueError, match="margin_floor"):
        RotationLearnConfig(margin_floor=bad)


def test_max_iters_must_not_be_negative():
    with pytest.raises(ValueError, match="max_iters"):
        RotationLearnConfig(max_iters=-3)
    # zero asks only which classes the base realizes as it is
    assert RotationLearnConfig(max_iters=0).max_iters == 0


def test_runs_must_be_at_least_one():
    with pytest.raises(ValueError, match="^runs must be at least 1$"):
        RotationLearnConfig(runs=0)


def test_learned_plan_serializes(nuer):
    inv = nuer.class_inventory()
    base = base_configuration(inv, 3)
    res = learn_class_rotation(
        base, inv.corners, inv.classes["II"], RotationLearnConfig(seed=4), "II"
    )
    assert res.plan.rotations
    for rot in res.plan.rotations:
        assert type(rot.axis_i) is int and type(rot.axis_j) is int
    # the plan is held as columns; the report writes its rows straight from them
    plan = res.plan
    assert len(plan.axis_i) == len(plan.axis_j) == len(plan.theta) == len(plan.rotations)
    rows = [{"i": r.axis_i, "j": r.axis_j, "theta": r.theta} for r in plan.rotations]
    text = rpt.records({"i": plan.axis_i, "j": plan.axis_j, "theta": plan.theta}).text
    assert text == json.dumps(rows, sort_keys=True, ensure_ascii=False)
    assert json.loads(text) == rows


def test_learner_needs_one_coordinate_count_for_every_cell(nuer):
    # a cell's random toward-coordinate is drawn like `choice` of its
    # coordinates, in blocks that assume the same count for every cell
    inv = nuer.class_inventory()
    base = base_configuration(inv, 3)
    bad = np.array(inv.corners.matrix)
    bad[0, :] = 1.0
    corners = CornerMatrix(inv.corners.fs, inv.corners.row_labels, bad)
    with pytest.raises(ShapeMismatch, match="same, non-zero number of coordinates"):
        learn_class_rotation(base, corners, inv.classes["I"])


def _misfits(inv, base):
    """A base or target that does not fit Nuer's corners and classes, by case."""
    target = inv.classes["I"]
    four_axes = base.matrix[:4] / np.linalg.norm(base.matrix[:4], axis=0)
    return {
        "two exponents": (ExponentMatrix(base.morphemes[:2], base.matrix[:, :2]), target),
        "four axes": (ExponentMatrix(base.morphemes, four_axes), target),
        "reversed exponents": (ExponentMatrix(base.morphemes[::-1], base.matrix[:, ::-1]), target),
        "reversed cells": (base, SelectionTable(target.row_labels[::-1], target.morphemes,
                                                target.matrix[::-1])),
    }


@pytest.mark.parametrize("case", ["two exponents", "four axes", "reversed exponents",
                                  "reversed cells"])
def test_learn_rotation_rejects_inputs_that_do_not_fit(nuer, case):
    # each of these once failed deep in numpy, or ran against mislabeled columns
    inv = nuer.class_inventory()
    base, target = _misfits(inv, base_configuration(inv, 3))[case]
    with pytest.raises(ShapeMismatch, match="must agree on morphemes, cells and axes"):
        learn_class_rotation(base, inv.corners, target, RotationLearnConfig(max_iters=3))
