"""The lockstep rotation learner against the sequential one-run-at-a-time search.

`sequential_learn` is the learner as it was written before runs were
batched: one run, one cell at a time, scalar control flow. Every (class,
run) lane of `learn_all_classes`, and every `learn_class_rotation` call,
must reproduce it exactly: same plan, iterations, convergence and margin.
"""
import functools
import itertools
import math
import random

import numpy as np
import pytest

from geomorph import fixtures, parse_text, rotations
from geomorph.exponence import activations, evaluate, gold_margins
from geomorph.rotations import (
    ClassRunStats,
    RotationLearnConfig,
    RotationLearnResult,
    RotationPlan,
    RunRecord,
    _BLOCK,
    _choice_indices,
    _finish_lane,
    apply_rotation,
    base_configuration,
    class_of_base,
    learn_all_classes,
    learn_class_rotation,
    sigmoid_gain,
)
from geomorph.seeds import seeded_random

ONE_EXPONENT = (
    "FEATURE number: sg pl\nMORPHEMES: a\n"
    "CLASS A LEXEMES 3\nCELL sg -> a\nCELL pl -> a\nEND\n"
)


def _class_text(shape, classes):
    """A class file whose k-th feature has shape[k] values.

    `classes` maps a label to its lexeme count and its exponents, one letter
    per cell, the cells in cross-product order (last feature fastest).
    """
    features = [[f"f{k}v{v}" for v in range(n)] for k, n in enumerate(shape)]
    morphemes = sorted(set("".join(cells for _, cells in classes.values())))
    lines = [f"FEATURE f{k}: {' '.join(values)}" for k, values in enumerate(features)]
    lines.append(f"MORPHEMES: {' '.join(morphemes)}")
    for label, (lexemes, cells) in classes.items():
        lines.append(f"CLASS {label} LEXEMES {lexemes}")
        lines += [f"CELL {' '.join(cell)} -> {m}"
                  for cell, m in zip(itertools.product(*features), cells, strict=True)]
        lines.append("END")
    return "\n".join(lines) + "\n"


# Three and four features: a cell's activation sums three or four coordinates,
# where a product over stacked cells can round differently from the per-cell
# one. Each file's classes are the winners of one random configuration after
# two small plane rotations, so many runs converge within 30 iterations; the
# class with 2 lexemes stays out of the base configuration.
MULTI_FEATURE = {
    "3x3x2": _class_text((3, 3, 2), {
        "C1": (20, "aabbbbaabbdddacccc"), "C2": (9, "aabbbbdabadddacccc"),
        "C3": (5, "dabbbbdabbdddabbcc"), "C4": (3, "aabbbbaabbdddabcdc"),
        "C5": (2, "aabbbbaabbdddaccdc"),
    }),
    "3x2x2x2": _class_text((3, 2, 2, 2), {
        "C1": (20, "caddcacdaaddaaddbabdcadd"), "C2": (9, "cadacacaaaddaaddbabdcadd"),
        "C3": (5, "caddcacdaaddaaddbabdcabd"), "C4": (3, "caddcacdaaddaaddbaddcadd"),
        "C5": (2, "caddcacdaaddaaddcaddcadd"),
    }),
    "4x3x2": _class_text((4, 3, 2), {
        "C1": (20, "bbddcdddadddbbccccbbaacc"), "C2": (9, "bbadcdbdadddbbcdccabaacc"),
        "C3": (5, "bbddddddadddbbccccbbaacc"), "C4": (3, "bbcdcdddddddbbccccabaaac"),
        "C5": (2, "bbddddddddddbbccccbbaacc"),
    }),
}


def _reference_margins_ok(acts, is_goal, floor):
    worst = float(gold_margins(acts, is_goal).min(initial=math.inf))
    return worst > 0 and worst >= floor, worst


def sequential_learn(base, corners, target, cfg, class_label, rng):
    """One run of the rotation search, sub-iteration by sub-iteration."""
    target.require_one_hot()
    b = np.array(base.matrix)
    phi = corners.matrix
    is_goal = target.matrix == 1.0
    axis_i, axis_j, angles = [], [], []  # the plan's columns

    def current_result(iterations, converged, worst):
        plan = RotationPlan(class_label, tuple(axis_i), tuple(axis_j), tuple(angles))
        return RotationLearnResult(plan, iterations, converged, worst)

    ok, worst = _reference_margins_ok(phi @ b, is_goal, cfg.margin_floor)
    if ok:
        return current_result(0, True, worst)

    cell_coords = [list(np.flatnonzero(phi[i])) for i in range(phi.shape[0])]
    goal_index = target.matrix.argmax(axis=1).tolist()
    for it in range(1, cfg.max_iters + 1):
        for i in range(phi.shape[0]):
            acts = (phi @ b)[i]
            j_star = goal_index[i]
            rival = int(np.argmax(np.where(is_goal[i], -np.inf, acts)))
            gain = sigmoid_gain(float(acts[rival]), float(acts[j_star]))
            theta = cfg.base_increment * gain
            toward = rng.choice(cell_coords[i])
            advantage = b[:, j_star] - b[:, rival]
            advantage[toward] = -np.inf
            away = int(np.argmax(advantage))
            c, s = math.cos(theta), math.sin(theta)
            x_away, x_toward = b[away].copy(), b[toward].copy()
            plus_toward = s * x_away[j_star] + c * x_toward[j_star]
            minus_toward = -s * x_away[j_star] + c * x_toward[j_star]
            if plus_toward >= minus_toward:
                signed = theta
                b[away] = c * x_away - s * x_toward
                b[toward] = s * x_away + c * x_toward
            else:
                signed = -theta
                b[away] = c * x_away + s * x_toward
                b[toward] = -s * x_away + c * x_toward
            axis_i.append(away)
            axis_j.append(toward)
            angles.append(signed)
            ok, worst = _reference_margins_ok(phi @ b, is_goal, cfg.margin_floor)
            if ok:
                return current_result(it, True, worst)
    _, worst = _reference_margins_ok(phi @ b, is_goal, cfg.margin_floor)
    return current_result(cfg.max_iters, False, worst)


@functools.lru_cache(maxsize=None)
def _inventory(text):
    pf = fixtures.load("nuer_classes") if text is None else parse_text(text)
    inv = pf.class_inventory()
    return inv, base_configuration(inv, 3)


@functools.lru_cache(maxsize=None)
def _reference_run(text, seed, max_iters, floor, ci, run):
    # run r of class c has the same seed whatever the batch size, so runs=1
    # reuses run 0 of a runs=3 batch
    inv, base = _inventory(text)
    label = inv.labels()[ci]
    cfg = RotationLearnConfig(margin_floor=floor, max_iters=max_iters, seed=seed)
    rng = random.Random(seed * 1_000_003 + ci * 1_009 + run)
    return sequential_learn(base, inv.corners, inv.classes[label], cfg, label, rng)


def _reference_stats(text, cfg):
    """ClassRunStats aggregated from sequential runs, as learn_all_classes reports them."""
    inv, base = _inventory(text)
    base_label = class_of_base(base, inv)
    stats = []
    for ci, label in enumerate(inv.labels()):
        results = [
            _reference_run(text, cfg.seed, cfg.max_iters, cfg.margin_floor, ci, run)
            for run in range(cfg.runs)
        ]
        done = [r for r in results if r.converged]
        iters = [r.iterations for r in done]
        margins = [r.min_margin for r in done]
        stats.append(ClassRunStats(
            label,
            inv.lexeme_counts[label],
            inv.distance_between(label, base_label) if base_label is not None else -1,
            cfg.runs,
            len(done),
            float(np.mean(iters)) if iters else None,
            float(np.mean(margins)) if margins else None,
            float(np.min(margins)) if margins else None,
            done[0].plan if done else None,
            tuple(RunRecord(r.converged, r.iterations, r.min_margin, len(r.plan.rotations))
                  for r in results),
        ))
    return stats, base_label


def _assert_lanes_match(text, cfg):
    inv, base = _inventory(text)
    got = learn_all_classes(inv, cfg, 3)
    assert got == _reference_stats(text, cfg)
    # a converged run's plan, re-applied and scored as `select` scores it,
    # realizes its class with exactly the margin the learner stopped at
    for ci, (label, stats) in enumerate(zip(inv.labels(), got[0])):
        for run, record in enumerate(stats.run_records):
            if record.converged:
                plan = _reference_run(text, cfg.seed, cfg.max_iters, cfg.margin_floor,
                                      ci, run).plan
                report = evaluate(activations(inv.corners, apply_rotation(base, plan.rotations)),
                                  inv.classes[label])
                assert report.mismatches == ()
                assert report.min_margin.hex() == record.min_margin.hex()
    return got


# (seed, runs, max_iters, margin_floor). Short searches leave lanes
# unconverged; at max_iters 500 lanes converge and leave the batch at many
# different sub-iterations; at floor 0.3 the first runs converge after 10-60
# iterations; at floors 0 and -0.1 a lane converges once every margin is
# positive. The sequential reference dominates the cost, so the long
# searches cover fewer seeds.
GRID = (
    [(seed, runs, 1, 0.02) for seed in range(5) for runs in (1, 3)]
    + [(seed, runs, 7, 0.3) for seed in range(5) for runs in (1, 3)]
    + [(0, 1, 1, 0.3), (0, 3, 7, 0.02)]
    + [(0, 3, 1, 0.0), (1, 3, 7, 0.0), (2, 1, 1, -0.1), (3, 3, 7, -0.1)]
    + [(seed, 1, 500, 0.02) for seed in range(5)]
    + [(3, 3, 500, 0.02), (1, 1, 60, 0.3)]
)


@pytest.mark.parametrize("seed,runs,max_iters,floor", GRID)
def test_every_lane_matches_a_sequential_run(seed, runs, max_iters, floor):
    cfg = RotationLearnConfig(margin_floor=floor, max_iters=max_iters, runs=runs, seed=seed)
    stats, base_label = _assert_lanes_match(None, cfg)
    by_class = {s.class_label: s for s in stats}
    # the base realizes class III, so at the default floor each of its runs
    # converges before any rotation
    assert base_label == "III"
    if floor == 0.02:
        assert all(r == RunRecord(True, 0, r.min_margin, 0) for r in by_class["III"].run_records)
    if max_iters < 500:
        assert any(not r.converged for s in stats for r in s.run_records)
    if max_iters >= 60:
        assert any(r.converged and r.iterations > 7 for s in stats for r in s.run_records)


# (seed, runs, max_iters, margin_floor) for the files with three or more features
MULTI_GRID = [(0, 3, 30, 0.02), (2, 3, 7, 0.02), (3, 1, 1, 0.02), (4, 3, 7, 0.3),
              (2, 3, 7, 0.0), (4, 3, 1, -0.1)]


@pytest.mark.parametrize("name", MULTI_FEATURE)
@pytest.mark.parametrize("seed,runs,max_iters,floor", MULTI_GRID)
def test_lanes_match_with_three_or_more_features(name, seed, runs, max_iters, floor):
    cfg = RotationLearnConfig(margin_floor=floor, max_iters=max_iters, runs=runs, seed=seed)
    stats, _ = _assert_lanes_match(MULTI_FEATURE[name], cfg)
    records = [r for s in stats for r in s.run_records]
    if max_iters < 30:
        assert any(not r.converged for r in records)
    else:
        assert any(r.converged and r.iterations > 7 for r in records)


@pytest.mark.parametrize("runs", [1, 3])
def test_one_exponent_lanes_match_a_sequential_run(runs):
    stats, _ = _assert_lanes_match(ONE_EXPONENT, RotationLearnConfig(runs=runs, seed=2))
    assert stats[0].run_records == (RunRecord(True, 0, math.inf, 0),) * runs


@pytest.mark.parametrize("n", range(1, 7))
def test_block_draws_reproduce_random_choice(n):
    # -3 is keyed by the string "-3"; blocks of uneven length cross many refills
    seeds = [0, 1, 1_009, 123_456_789, -3]
    rngs = [seeded_random(seed) for seed in seeds]
    want = [seeded_random(seed) for seed in seeds]
    queue = np.empty((len(seeds), 0), dtype=np.uint32)
    blocks = [64, 1, 63, 37, 64] * 25  # 5,725 draws per stream
    for k, block in enumerate(blocks):
        if k == len(blocks) // 2:  # a lane leaves, with its stream and its queue row
            del rngs[1], want[1]
            queue = np.delete(queue, 1, axis=0)
        picks, queue = _choice_indices(rngs, queue, n, block)
        assert picks.tolist() == [[rng.choice(range(n)) for rng in want] for _ in range(block)]


@pytest.mark.parametrize("label,seed,max_iters", [("I", 3, 500), ("V", 1, 7), ("III", 0, 1)])
def test_single_lane_call_matches_a_sequential_run(label, seed, max_iters):
    inv, base = _inventory(None)
    cfg = RotationLearnConfig(max_iters=max_iters, seed=seed)
    got = learn_class_rotation(base, inv.corners, inv.classes[label], cfg, label)
    want = sequential_learn(base, inv.corners, inv.classes[label], cfg, label,
                            random.Random(seed))
    assert got == want


@pytest.fixture
def handovers(monkeypatch):
    """(sub-iteration, picks passed on) of every lane `_learn_lanes` hands to `_finish_lane`."""
    calls = []

    def spy(phi, b, acts, goal, coords, picks, rng, done, cfg):
        calls.append((done, len(picks)))
        return finish(phi, b, acts, goal, coords, picks, rng, done, cfg)

    finish = rotations._finish_lane
    monkeypatch.setattr(rotations, "_finish_lane", spy)
    return calls


# Cases of GRID whose last lanes finish alone: (seed, runs, max_iters, margin_floor),
# the sub-iteration of the hand-over and how many lanes it hands over
HANDOVERS = [
    ((0, 1, 500, 0.02), 192, 2),  # at a block boundary: every pick passed on is a queued word
    ((1, 1, 500, 0.02), 156, 2),  # mid-block: the block's unused picks, then queued words
    ((2, 1, 500, 0.02), 186, 1),
    ((3, 3, 500, 0.02), 222, 2),
]


@pytest.mark.parametrize("case,done,lanes", HANDOVERS)
def test_last_lanes_finish_alone_as_sequential_runs(case, done, lanes, handovers):
    seed, runs, max_iters, floor = case
    cfg = RotationLearnConfig(margin_floor=floor, max_iters=max_iters, runs=runs, seed=seed)
    _assert_lanes_match(None, cfg)
    assert [d for d, _ in handovers] == [done] * lanes
    # each lane gets more picks than its block has left, so its queued words too
    assert all(picks > -done % _BLOCK for _, picks in handovers)


def test_one_check_per_iteration_records_the_first_converged_sub_iteration(handovers):
    cells = 6
    cfg = RotationLearnConfig(max_iters=500, seed=0)
    stats, _ = _assert_lanes_match(None, cfg)
    handed = handovers[0][0]
    in_lockstep = {r.rotations % cells for s in stats for r in s.run_records
                   if r.converged and 0 < r.rotations <= handed}
    # lanes converged at the first, a middle and the last sub-iteration of an iteration
    assert {1, 3, 0} <= in_lockstep
    # at max_iters 13, a lane of seed 2 converges at the last sub-iteration the search has
    handovers.clear()
    cfg = RotationLearnConfig(max_iters=13, seed=2)
    stats, _ = _assert_lanes_match(None, cfg)
    assert not handovers
    assert any(r == RunRecord(True, 13, r.min_margin, 13 * cells)
               for s in stats for r in s.run_records)


@pytest.mark.parametrize("name", MULTI_FEATURE)
def test_lanes_match_with_three_or_more_features_at_500_iterations(name, handovers):
    stats, _ = _assert_lanes_match(MULTI_FEATURE[name], RotationLearnConfig(max_iters=500))
    assert len(handovers) == 2
    assert any(not r.converged for s in stats for r in s.run_records)


@pytest.mark.parametrize("done,drawn,max_iters", [(100, 0, 500), (100, 5, 500), (100, 5, 20)])
def test_finish_lane_goes_on_from_a_mid_run_state(done, drawn, max_iters):
    # class VIII at seed 0 converges after 160 sub-iterations; at max_iters 20 it stops at 120
    inv, base = _inventory(None)
    ci = inv.labels().index("VIII")
    want = _reference_run(None, 0, max_iters, 0.02, ci, 0)
    phi = inv.corners.matrix
    coords = [np.flatnonzero(row).tolist() for row in phi]
    rng = random.Random(ci * 1_009)
    for k in range(done):
        rng.choice(coords[k % len(coords)])
    picks = [rng.choice(coords[k % len(coords)]) for k in range(done, done + drawn)]
    b = apply_rotation(base, want.plan.rotations[:done]).matrix
    goal = inv.classes["VIII"].matrix.argmax(axis=1).tolist()
    record, steps = _finish_lane(phi, b.tolist(), (phi @ b).tolist(), goal, coords, picks, rng,
                                 done, RotationLearnConfig(max_iters=max_iters))
    assert record == RunRecord(want.converged, want.iterations, want.min_margin,
                               len(want.plan.rotations))
    assert record.min_margin.hex() == want.min_margin.hex()
    assert steps == tuple(list(column[done:])
                          for column in (want.plan.axis_i, want.plan.axis_j, want.plan.theta))
