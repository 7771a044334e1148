import math
import re
import tracemalloc

import numpy as np
import pytest

from geomorph import (
    AngleLearnConfig,
    AngleModel,
    CompositionInventory,
    angle_of_sum,
    inventory_from_angles,
    learn_angles,
    select_affix_by_angle,
    select_affix_for_stem,
    select_pair,
)
from geomorph.composition import _sum_angle, verify_gold_forms, wrap_angle
from geomorph.errors import (DegenerateSum, EmptyInventory, ShapeMismatch, UnknownStem,
                             UpdateOverflow)

DEG = math.pi / 180.0

# angles (degrees) of one converged German-plural run, used as authored data
GERMAN_RUN = {
    "Fenster": -38.593,
    "Auto": -31.568,
    "Glas": 11.800,
    "Kind": 58.535,
    "Mutter": 95.310,
    "0": 40.430,
    "s": 28.909,
    "¨er": 12.729,
    "er": -42.441,
    "¨": -80.694,
}


def german_model():
    return AngleModel(("pl", "sg"), {k: v * DEG for k, v in GERMAN_RUN.items()})


def test_angle_of_sum_basics():
    a, mag = angle_of_sum(0.5, 0.5)
    assert math.isclose(a, 0.5) and math.isclose(mag, 2.0)
    a, mag = angle_of_sum(60 * DEG, 0.0)
    assert math.isclose(a, 30 * DEG)


def test_angle_of_sum_auto_plus_s():
    a, mag = angle_of_sum(GERMAN_RUN["Auto"] * DEG, GERMAN_RUN["s"] * DEG)
    assert math.isclose(a, -1.33 * DEG, abs_tol=0.01 * DEG)
    assert math.isclose(mag, 1.728, abs_tol=0.01)


def test_angle_of_sum_rejects_antipodal():
    with pytest.raises(DegenerateSum):
        angle_of_sum(math.pi / 2, -math.pi / 2)


def test_angle_of_sum_agrees_with_atan2():
    import random

    rng = random.Random(1)
    for _ in range(200):
        a = rng.uniform(-math.pi, math.pi)
        b = a + rng.uniform(-math.pi + 1e-6, math.pi - 1e-6)
        direction, _ = angle_of_sum(a, wrap_angle(b))
        assert math.isclose(
            wrap_angle(direction - _sum_angle(a, b)), 0.0, abs_tol=1e-12
        )


def test_select_pair_exact_realization():
    inv = CompositionInventory(
        {"x": np.array([1.0, 0.0])}, {"y": np.array([0.0, 1.0])}, {}
    )
    (stem, affix), ties = select_pair(inv, np.array([1.0, 1.0]))
    assert (stem, affix) == ("x", "y") and ties == []


def test_select_pair_reports_ties():
    inv = CompositionInventory(
        {"a": np.array([1.0, 0.0]), "b": np.array([-1.0, 0.0])},
        {"c": np.array([0.0, 1.0])},
        {},
    )
    _, ties = select_pair(inv, np.array([0.0, 1.0]))
    assert len(ties) == 1


def test_select_pair_empty_inventory():
    inv = CompositionInventory({}, {"y": np.array([0.0, 1.0])}, {})
    with pytest.raises(EmptyInventory):
        select_pair(inv, np.array([1.0, 1.0]))
    no_affixes = CompositionInventory({"x": np.array([1.0, 0.0])}, {}, {})
    with pytest.raises(EmptyInventory, match="no affixes"):
        select_affix_for_stem(no_affixes, "x", np.array([1.0, 1.0]))
    with pytest.raises(EmptyInventory, match="no affixes"):
        select_affix_by_angle(german_model(), "Kind", [], "pl")


@pytest.mark.parametrize("target", [[math.nan, 0.0], [0.0, -math.inf], 2.0, [2.0],
                                    [1.0, 1.0, 0.0], [[1.0, 1.0]]],
                         ids=["nan", "-inf", "scalar", "shape (1,)", "shape (3,)", "shape (1, 2)"])
def test_selections_by_distance_take_only_a_finite_target_of_the_inventory_dimension(target):
    inv = CompositionInventory({"s": np.array([1.0, 0.0])}, {"a": np.array([0.0, 1.0])}, {})
    message = "^target must be a finite vector of dimension 2$"
    with pytest.raises(ShapeMismatch, match=message):
        select_pair(inv, target)
    with pytest.raises(ShapeMismatch, match=message):
        select_affix_for_stem(inv, "s", target)


def test_an_overflowing_distance_selects_no_affix_as_decide_selects_no_exponent():
    """The one affix's distance overflows to inf: its negated row is [-inf], which no entry
    wins, as `decide` gives -1 on it."""
    inv = CompositionInventory({"s": np.array([1.0, 0.0])}, {"a": np.array([0.0, 1.0])}, {})
    with np.errstate(over="ignore"):
        assert select_affix_for_stem(inv, "s", [1e308, -1e308]) is None


@pytest.mark.parametrize("bad", [[math.nan, 0.0], [math.inf, 0.0], [2.0, 0.0], [1 + 1e-7, 0.0]],
                         ids=["nan", "inf", "norm 2", "norm 1 + 1e-7"])
@pytest.mark.parametrize("side", ["stem", "affix"])
def test_inventory_rejects_non_unit_vectors(side, bad):
    unit = {"u": np.array([1.0, 0.0])}
    vectors = {"v": np.array(bad)}
    stems, affixes = (vectors, unit) if side == "stem" else (unit, vectors)
    with pytest.raises(ShapeMismatch, match="'v' is not unit length"):
        CompositionInventory(stems, affixes, {})


# Kind + a and Kind + b are both exactly 0.25 rad from the pl axis, and as far from (1, 0)
TIE_ANGLES = {"Kind": 0.0, "a": 0.5, "b": -0.5, "c": math.pi / 2}
TIE_GOLD = {("Kind", "pl"): "b", ("Kind", "sg"): "c"}


def test_selections_by_angle_and_by_distance_tie_to_none():
    model = AngleModel(("pl", "sg"), TIE_ANGLES)
    affixes = ["a", "b", "c"]
    assert select_affix_by_angle(model, "Kind", affixes, "pl") is None
    assert select_affix_by_angle(model, "Kind", affixes, "sg") == "c"
    assert verify_gold_forms(model, ["Kind"], affixes, TIE_GOLD) == [("Kind", "pl", "b", None)]
    inv = inventory_from_angles(model, ["Kind"], affixes, TIE_GOLD)
    assert select_affix_for_stem(inv, "Kind", np.array([1.0, 0.0])) is None
    assert select_affix_for_stem(inv, "Kind", np.array([0.0, 1.0])) == "c"
    # two affixes at one position tie at distance 0
    twins = CompositionInventory({"x": np.array([1.0, 0.0])},
                                 {"p": np.array([0.0, 1.0]), "q": np.array([0.0, 1.0])}, {})
    assert select_affix_for_stem(twins, "x", np.array([1.0, 1.0])) is None
    assert select_pair(twins, np.array([1.0, 1.0])) == (("x", "p"), [("x", "q")])


def test_learner_does_not_stop_on_an_exact_tie_at_margin_zero():
    res = learn_angles(["Kind"], ["a", "b", "c"], TIE_GOLD, ("pl", "sg"),
                       AngleLearnConfig(margin=0.0), initial=TIE_ANGLES)
    assert res.adjustments > 0 and res.iterations > 0 and res.converged
    assert verify_gold_forms(res.model, ["Kind"], ["a", "b", "c"], TIE_GOLD) == []


def test_spanish_affix_choice_by_angle(spanish):
    model = spanish.angle_model()
    affixes = spanish.affix_labels()
    assert select_affix_by_angle(model, "cant", affixes, "second") == "as"
    assert select_affix_by_angle(model, "com", affixes, "second") == "es"
    assert select_affix_by_angle(model, "cant", affixes, "first") == "o"
    assert select_affix_by_angle(model, "com", affixes, "first") == "o"


def test_spanish_distance_selection_agrees_on_far_axis_target(spanish):
    # a target far out on the axis makes nearest-sum match smallest-angle
    model = spanish.angle_model()
    inv = inventory_from_angles(
        model, spanish.stem_labels(), spanish.affix_labels(), spanish.gold_forms()
    )
    assert select_affix_for_stem(inv, "cant", np.array([2.0, 0.0])) == "as"
    assert select_affix_for_stem(inv, "com", np.array([2.0, 0.0])) == "es"


def test_unknown_stem_raises(spanish):
    model = spanish.angle_model()
    inv = inventory_from_angles(
        model, spanish.stem_labels(), spanish.affix_labels(), {}
    )
    with pytest.raises(UnknownStem):
        select_affix_for_stem(inv, "bail", np.array([2.0, 0.0]))
    with pytest.raises(UnknownStem):
        select_affix_by_angle(model, "bail", spanish.affix_labels(), "second")
    with pytest.raises(UnknownStem, match="'third' is not an axis of plane"):
        model.axis_angle("third")


def test_german_published_run_selections():
    model = german_model()
    affixes = list(GERMAN_RUN)[5:]
    assert select_affix_by_angle(model, "Auto", affixes, "pl") == "s"
    assert select_affix_by_angle(model, "Fenster", affixes, "pl") == "0"
    assert select_affix_by_angle(model, "Mutter", affixes, "sg") == "0"
    assert select_affix_by_angle(model, "Kind", affixes, "pl") == "er"
    assert select_affix_by_angle(model, "Glas", affixes, "pl") == "¨er"
    assert select_affix_by_angle(model, "Mutter", affixes, "pl") == "¨"


def test_learn_angles_converges_and_reproduces_gold(german_plurals):
    gold = german_plurals.gold_forms()
    res = learn_angles(
        german_plurals.stem_labels(),
        german_plurals.affix_labels(),
        gold,
        german_plurals.plane,
        AngleLearnConfig(seed=0),
    )
    assert res.converged
    failures = verify_gold_forms(
        res.model, german_plurals.stem_labels(), german_plurals.affix_labels(), gold
    )
    assert failures == []


def test_learn_angles_trivial_dataset_converges_immediately():
    res = learn_angles(
        ["stem"], ["only"], {("stem", "sg"): "only", ("stem", "pl"): "only"},
        ("pl", "sg"), AngleLearnConfig(seed=3),
    )
    assert res.converged and res.iterations == 0


def test_learn_angles_deterministic(german_plurals):
    gold = german_plurals.gold_forms()
    args = (
        german_plurals.stem_labels(),
        german_plurals.affix_labels(),
        gold,
        german_plurals.plane,
    )
    r1 = learn_angles(*args, AngleLearnConfig(seed=11))
    r2 = learn_angles(*args, AngleLearnConfig(seed=11))
    assert r1.model.entries == r2.model.entries
    assert r1.iterations == r2.iterations


def test_learn_angles_memory_does_not_grow_with_its_passes():
    """A run that never converges or cycles (measured to 200,000 passes) keeps no per-pass
    state: 2,000 passes peak far below the ~180 B per pass a history of starts takes."""
    gold = {("d", "x"): "h", ("d", "y"): "e", ("a", "x"): "e", ("a", "y"): "c",
            ("c", "x"): "c", ("c", "y"): "e"}
    cfg = AngleLearnConfig(stepsize=0.006784902877816887, margin=0.20120505346242584,
                           max_iters=2_000, seed=224339410098)
    tracemalloc.start()
    try:
        res = learn_angles(["d", "a", "c"], ["c", "h", "e"], gold, ("x", "y"), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.iterations, res.converged) == (2_000, False)
    assert peak < 100_000


def test_learn_config_validation():
    with pytest.raises(ValueError):
        AngleLearnConfig(stepsize=0)
    with pytest.raises(ValueError):
        AngleLearnConfig(margin=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="stepsize"):
            AngleLearnConfig(stepsize=bad)
        with pytest.raises(ValueError, match="margin"):
            AngleLearnConfig(margin=bad)


def test_learn_config_max_iters_must_not_be_negative():
    with pytest.raises(ValueError, match="max_iters"):
        AngleLearnConfig(max_iters=-3)
    # zero runs no pass: the authored or seeded start is reported as it is
    assert AngleLearnConfig(max_iters=0).max_iters == 0


@pytest.mark.parametrize("stepsize,max_iters", [(1e308, 3), (1e307, 500)])
def test_learn_angles_reports_an_overflowing_stepsize(german_plurals, stepsize, max_iters):
    """An angle that overflows to inf raises UpdateOverflow, not `math.sin`'s ValueError."""
    message = f"stepsize {stepsize!r} overflows the angle update; use a smaller stepsize"
    with pytest.raises(UpdateOverflow, match=f"^{re.escape(message)}$"):
        learn_angles(german_plurals.stem_labels(), german_plurals.affix_labels(),
                     german_plurals.gold_forms(), german_plurals.plane,
                     AngleLearnConfig(stepsize=stepsize, max_iters=max_iters))


def test_learn_angles_requires_complete_gold(german_plurals):
    gold = dict(german_plurals.gold_forms())
    del gold[("Auto", "pl")]
    with pytest.raises(EmptyInventory):
        learn_angles(
            german_plurals.stem_labels(),
            german_plurals.affix_labels(),
            gold,
            german_plurals.plane,
        )


def test_learn_angles_honours_authored_start(german_plurals):
    gold = german_plurals.gold_forms()
    res = learn_angles(
        german_plurals.stem_labels(),
        german_plurals.affix_labels(),
        gold,
        german_plurals.plane,
        AngleLearnConfig(seed=0),
        initial={"s": 0.5046},
    )
    assert res.converged
    assert not verify_gold_forms(
        res.model, german_plurals.stem_labels(), german_plurals.affix_labels(), gold
    )
