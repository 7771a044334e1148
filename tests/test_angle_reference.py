"""`learn_angles` against the angle learner as it was written before one offset.

`reference_learn_angles` is the learner loop that measured every sum against
its axis inline and recomputed the gold pair's sum once for every rival.
`learn_angles` holds labels as indices, keeps each label's sine and cosine
until it moves, recomputes the gold pair's offset only after an adjustment
and stops at a pass that starts where an earlier one started; it must return
the same `AngleLearnResult` bit for bit, on the German plurals and on
generated inventories. Both count a rival exactly as close as the gold sum
as not beaten, at any margin.
"""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomorph import composition, fixtures
from geomorph.composition import (
    HALF_PI,
    AngleLearnConfig,
    AngleLearnResult,
    AngleModel,
    _sign,
    _sum_angle,
    learn_angles,
    wrap_angle,
)
from geomorph.errors import EmptyInventory


def reference_learn_angles(stems, affixes, gold_forms, plane, cfg, initial=None):
    stems = list(stems)
    affixes = list(affixes)
    gold = dict(gold_forms)
    x_value, y_value = plane
    for stem in stems:
        for value in (x_value, y_value):
            if (stem, value) not in gold:
                raise EmptyInventory(f"no gold affix for stem {stem!r} on {value!r}")
    rng = random.Random(cfg.seed)
    initial = initial or {}
    ang = {
        lab: initial[lab] if lab in initial else rng.uniform(-HALF_PI, HALF_PI)
        for lab in stems + affixes
    }

    targets = []
    for stem in stems:
        for affix in affixes:
            for value, axis in ((y_value, HALF_PI), (x_value, 0.0)):
                if gold.get((stem, value)) == affix:
                    targets.append((stem, affix, value, axis))

    total_adjustments = 0
    for it in range(1, cfg.max_iters + 1):
        adjusted = False
        for stem, gold_affix, _value, axis in targets:
            for rival in affixes:
                if rival == gold_affix:
                    continue
                gs = _sum_angle(ang[stem], ang[gold_affix])
                rs = _sum_angle(ang[stem], ang[rival])
                dg = abs(wrap_angle(gs - axis))
                dr = abs(wrap_angle(rs - axis))
                if dr < dg + cfg.margin or dr == dg:
                    adjusted = True
                    total_adjustments += 1
                    d = _sign(wrap_angle(axis - gs))
                    ang[stem] += cfg.stepsize * d
                    ang[gold_affix] += cfg.stepsize * d
                    if dr < HALF_PI:
                        ang[rival] -= cfg.stepsize * _sign(wrap_angle(axis - rs))
        if not adjusted:
            model = AngleModel(plane, {k: wrap_angle(v) for k, v in ang.items()})
            return AngleLearnResult(model, it - 1, True, total_adjustments)
    model = AngleModel(plane, {k: wrap_angle(v) for k, v in ang.items()})
    return AngleLearnResult(model, cfg.max_iters, False, total_adjustments)


def outcome(learner, *args, **kwargs):
    """The whole result, with every angle's bits (== alone equates 0.0 and -0.0)."""
    result = learner(*args, **kwargs)
    return result, [(k, v.hex()) for k, v in result.model.entries.items()]


def assert_same_as_reference(*args, **kwargs):
    assert outcome(learn_angles, *args, **kwargs) == outcome(
        reference_learn_angles, *args, **kwargs
    )


GERMAN_CONFIGS = (
    {},
    {"stepsize": 0.05, "margin": 0.0},
    {"margin": 0.3, "max_iters": 40},
    {"max_iters": 5},
)


def test_learner_matches_reference_on_german_plurals():
    pf = fixtures.load("german_plurals")
    stems, affixes, gold = pf.stem_labels(), pf.affix_labels(), pf.gold_forms()
    authored = {"Kind": 1.0, "¨": -1.4, "0": 0.7}
    for seed in range(6):
        for options in GERMAN_CONFIGS:
            cfg = AngleLearnConfig(seed=seed, **options)
            for initial in (None, authored):
                assert_same_as_reference(stems, affixes, gold, pf.plane, cfg, initial=initial)


def test_learner_matches_reference_at_the_benchmark_op_seeds():
    """`compose german_plurals --seed s` as the benchmark runs it, at its first 80 op seeds."""
    pf = fixtures.load("german_plurals")
    inputs = (pf.stem_labels(), pf.affix_labels(), pf.gold_forms(), pf.plane)
    unconverged = []
    for seed in range(100_000, 100_080):
        args = (*inputs, AngleLearnConfig(seed=seed))
        learned = outcome(learn_angles, *args, initial=pf.authored_angles())
        assert learned == outcome(reference_learn_angles, *args, initial=pf.authored_angles())
        if not learned[0].converged:
            unconverged.append(seed)
    assert unconverged == [100_040, 100_044, 100_078]  # each runs all 500 passes


@pytest.mark.parametrize("max_iters", [20, 5_000])
@pytest.mark.parametrize("margin", [0.05, 0.0])
def test_a_pass_that_ends_where_it_began_reports_running_out_max_iters(
    monkeypatch, margin, max_iters
):
    """Affix c is gold on both axes and d sits at its angle: each pass's x-axis steps undo
    its y-axis steps, so every pass repeats the first and the learner stops after it."""
    cfg = AngleLearnConfig(margin=margin, max_iters=max_iters)
    case = (["a"], ["c", "d"], {("a", "x"): "c", ("a", "y"): "c"}, ("x", "y"), cfg)
    initial = {"c": 0.3, "d": 0.3}
    assert_same_as_reference(*case, initial=initial)
    signs = []
    monkeypatch.setattr(composition, "_sign", lambda x: signs.append(x) or _sign(x))
    result = learn_angles(*case, initial=initial)
    assert (result.iterations, result.converged, result.adjustments) == (
        max_iters, False, 2 * max_iters)
    assert result.model.entries["c"] == result.model.entries["d"] == 0.3
    assert len(signs) == 6  # one pass: two adjustments, each taking two signs and the rival's


def test_a_cycle_of_many_passes_reports_running_out_max_iters(monkeypatch):
    """`compose german_plurals --seed 100044`: pass 2224 starts where pass 2026 started, so
    passes 2026-2223 (198 of them) would repeat until `max_iters`. The learner stops at
    pass 2224 with the reference's result, at every phase of the cycle."""
    pf = fixtures.load("german_plurals")
    inputs = (pf.stem_labels(), pf.affix_labels(), pf.gold_forms(), pf.plane)
    signs = {}
    for max_iters in (2_026, 2_224, 2_225, 2_500, 3_000):
        args = (*inputs, AngleLearnConfig(seed=100_044, max_iters=max_iters))
        learned = outcome(learn_angles, *args, initial=pf.authored_angles())
        assert learned == outcome(reference_learn_angles, *args, initial=pf.authored_angles())
        assert (learned[0].iterations, learned[0].converged) == (max_iters, False)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(composition, "_sign", lambda x: calls.append(x) or _sign(x))
            learn_angles(*args, initial=pf.authored_angles())
        signs[max_iters] = len(calls)
    # every run from 2,224 passes on stops after the same 2,224 passes
    assert signs[2_224] == signs[2_225] == signs[2_500] == signs[3_000] > signs[2_026]


@st.composite
def inventories(draw):
    """Up to 3 stems and 4 affixes; a label may name a stem and an affix at once."""
    stems = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
    affixes = draw(st.lists(st.sampled_from("cdefgh"), min_size=1, max_size=4, unique=True))
    gold = {
        (stem, value): draw(st.sampled_from(affixes)) for stem in stems for value in ("x", "y")
    }
    angle = st.floats(-math.pi, math.pi)
    initial = draw(st.dictionaries(st.sampled_from(stems + affixes), angle, max_size=3))
    cfg = AngleLearnConfig(
        stepsize=draw(st.floats(1e-3, 0.3)),
        margin=draw(st.floats(0.0, 0.3)),
        max_iters=draw(st.integers(0, 60)),
        seed=draw(st.integers(0, 2**40)),
    )
    return stems, affixes, gold, cfg, initial


@given(inventories())
@settings(max_examples=150, deadline=None)
# two affixes at one angle: every gold sum ties its rival exactly, at margin 0
@example((["a"], ["c", "d"], {("a", "x"): "c", ("a", "y"): "c"},
          AngleLearnConfig(margin=0.0, max_iters=20), {"c": 0.3, "d": 0.3}))
# one label as a stem and as an affix: it holds one angle, which both roles move
@example((["c"], ["c", "d"], {("c", "x"): "c", ("c", "y"): "c"},
          AngleLearnConfig(max_iters=20), {}))
def test_learner_matches_reference_on_generated_inventories(case):
    stems, affixes, gold, cfg, initial = case
    assert_same_as_reference(stems, affixes, gold, ("x", "y"), cfg, initial=initial)
