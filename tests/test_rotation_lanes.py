"""The lockstep rotation learner against the sequential one-run-at-a-time search.

`sequential_learn` is the learner as it was written before runs were
batched: one run, one cell at a time, scalar control flow. Every (class,
run) lane of `learn_all_classes`, and every `learn_class_rotation` call,
must reproduce it exactly: same plan, iterations, convergence and margin.
"""
import functools
import math
import random

import numpy as np
import pytest

from geomorph import fixtures, parse_text
from geomorph.exponence import gold_margins
from geomorph.rotations import (
    ClassRunStats,
    PlaneRotation,
    RotationLearnConfig,
    RotationLearnResult,
    RotationPlan,
    RunRecord,
    base_configuration,
    class_of_base,
    learn_all_classes,
    learn_class_rotation,
    sigmoid_gain,
)

ONE_EXPONENT = (
    "FEATURE number: sg pl\nMORPHEMES: a\n"
    "CLASS A LEXEMES 3\nCELL sg -> a\nCELL pl -> a\nEND\n"
)


def _reference_margins_ok(acts, is_goal, floor):
    worst = float(gold_margins(acts, is_goal).min(initial=math.inf))
    return worst > 0 and worst >= floor, worst


def sequential_learn(base, corners, target, cfg, class_label, rng):
    """One run of the rotation search, sub-iteration by sub-iteration."""
    target.require_one_hot()
    b = np.array(base.matrix)
    phi = corners.matrix
    is_goal = target.matrix == 1.0
    plan = []

    def current_result(iterations, converged, worst):
        return RotationLearnResult(
            RotationPlan(class_label, tuple(plan)), iterations, converged, worst
        )

    ok, worst = _reference_margins_ok(phi @ b, is_goal, cfg.margin_floor)
    if ok:
        return current_result(0, True, worst)

    cell_coords = [list(np.flatnonzero(phi[i])) for i in range(phi.shape[0])]
    goal_index = target.matrix.argmax(axis=1).tolist()
    for it in range(1, cfg.max_iters + 1):
        for i in range(phi.shape[0]):
            acts = phi[i] @ b
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
            plan.append(PlaneRotation(away, toward, signed))
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
    inv, _ = _inventory(text)
    got = learn_all_classes(inv, cfg, 3)
    assert got == _reference_stats(text, cfg)
    return got


# (seed, runs, max_iters, margin_floor). Short searches leave lanes
# unconverged; at max_iters 500 lanes converge and leave the batch at many
# different sub-iterations; at floor 0.3 the first runs converge after 10-60
# iterations. The sequential reference dominates the cost, so the long
# searches cover fewer seeds.
GRID = (
    [(seed, runs, 1, 0.02) for seed in range(5) for runs in (1, 3)]
    + [(seed, runs, 7, 0.3) for seed in range(5) for runs in (1, 3)]
    + [(0, 1, 1, 0.3), (0, 3, 7, 0.02)]
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


@pytest.mark.parametrize("runs", [1, 3])
def test_one_exponent_lanes_match_a_sequential_run(runs):
    stats, _ = _assert_lanes_match(ONE_EXPONENT, RotationLearnConfig(runs=runs, seed=2))
    assert stats[0].run_records == (RunRecord(True, 0, math.inf, 0),) * runs


@pytest.mark.parametrize("label,seed,max_iters", [("I", 3, 500), ("V", 1, 7), ("III", 0, 1)])
def test_single_lane_call_matches_a_sequential_run(label, seed, max_iters):
    inv, base = _inventory(None)
    cfg = RotationLearnConfig(max_iters=max_iters, seed=seed)
    got = learn_class_rotation(base, inv.corners, inv.classes[label], cfg, label)
    want = sequential_learn(base, inv.corners, inv.classes[label], cfg, label,
                            random.Random(seed))
    assert got == want
