import json
import math

import numpy as np
import pytest

from geomorph import (
    ExponentMatrix,
    PlaneRotation,
    RotationLearnConfig,
    activations,
    apply_rotation,
    base_configuration,
    class_of_base,
    deponent_transform,
    gram_matrix,
    initial_exponents,
    learn_class_rotation,
    select_winners,
    sigmoid_gain,
    weighted_counts,
)
from geomorph.errors import BadAxis, EmptyFilter

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


def test_plane_rotation_matrix_is_special_orthogonal():
    rot = PlaneRotation(1, 3, 0.7)
    r = rot.matrix(5)
    assert np.allclose(r.T @ r, np.eye(5), atol=1e-12)
    assert math.isclose(np.linalg.det(r), 1.0, abs_tol=1e-12)


def test_plane_rotation_rejects_bad_axes():
    with pytest.raises(BadAxis):
        PlaneRotation(2, 2, 0.1)
    with pytest.raises(BadAxis):
        PlaneRotation(0, 9, 0.1).matrix(3)


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
    rotated = apply_rotation(base, res.plan)
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


def test_runs_limited_below_seed_stride():
    # run seeds step by 1009 per class, so run 1009 would replay the next class's run 0
    with pytest.raises(ValueError, match="1009"):
        RotationLearnConfig(runs=1009)
    assert RotationLearnConfig(runs=1008).runs == 1008


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


def test_learned_plan_serializes(nuer):
    inv = nuer.class_inventory()
    base = base_configuration(inv, 3)
    res = learn_class_rotation(
        base, inv.corners, inv.classes["II"], RotationLearnConfig(seed=4), "II"
    )
    assert res.plan.rotations
    for rot in res.plan.rotations:
        assert type(rot.axis_i) is int and type(rot.axis_j) is int
    assert json.loads(json.dumps(res.plan.as_dicts())) == res.plan.as_dicts()
