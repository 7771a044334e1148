"""The lockstep rotation learner against the sequential one-run-at-a-time search.

`sequential_learn` is the learner as it was written before runs were
batched: one run, one cell at a time, scalar control flow. Every (class,
run) lane of `learn_all_classes`, and every `learn_class_rotation` call,
must reproduce it exactly: same plan, iterations, convergence and margin,
on Nuer, on hand-made class files and on class files Hypothesis generates.
"""
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from geomorph import fixtures, parse_text, rotations
from geomorph.exponence import activations, evaluate, gold_margins
from geomorph.rotations import (
    ClassRunStats,
    RotationLearnConfig,
    RotationLearnResult,
    RotationPlan,
    RunRecord,
    _finish_lane,
    _mix,
    _pick,
    _run_key,
    apply_rotation,
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


def sequential_learn(base, corners, target, cfg, class_label, key):
    """One run of the rotation search, sub-iteration by sub-iteration.

    Its k-th sub-iteration turns toward coordinate `_pick(key, k, n)` of its cell's n.
    """
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
    k = 0
    for it in range(1, cfg.max_iters + 1):
        for i in range(phi.shape[0]):
            acts = (phi @ b)[i]
            j_star = goal_index[i]
            rival = int(np.argmax(np.where(is_goal[i], -np.inf, acts)))
            gain = sigmoid_gain(float(acts[rival]), float(acts[j_star]))
            theta = cfg.base_increment * gain
            toward = cell_coords[i][_pick(key, k, len(cell_coords[i]))]
            k += 1
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
    # run r of class c has the same key whatever the batch size, so runs=1
    # reuses run 0 of a runs=3 batch
    inv, base = _inventory(text)
    label = inv.labels()[ci]
    cfg = RotationLearnConfig(margin_floor=floor, max_iters=max_iters, seed=seed)
    return sequential_learn(base, inv.corners, inv.classes[label], cfg, label,
                            _run_key(seed, ci, run))


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
# different sub-iterations; at floor 0.3 the first runs converge after 10-150
# iterations; at floors 0 and -0.1 a lane converges once every margin is
# positive. The sequential reference dominates the cost, so the long
# searches cover fewer seeds.
GRID = (
    [(seed, runs, 1, 0.02) for seed in range(5) for runs in (1, 3)]
    + [(seed, runs, 7, 0.3) for seed in range(5) for runs in (1, 3)]
    + [(0, 1, 1, 0.3), (0, 3, 7, 0.02)]
    + [(0, 3, 1, 0.0), (1, 3, 7, 0.0), (2, 1, 1, -0.1), (3, 3, 7, -0.1)]
    + [(seed, 1, 500, 0.02) for seed in range(5)]
    + [(3, 3, 500, 0.02), (2, 1, 60, 0.3)]
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
    if (seed, runs, max_iters, floor) == (3, 3, 500, 0.02):
        # the one case where a class's plan is not run 0's: class XVI's run 0 never converges
        xvi = by_class["XVI"]
        assert [r.converged for r in xvi.run_records] == [False, True, True]
        ci = [s.class_label for s in stats].index("XVI")
        assert xvi.first_plan == _reference_run(None, seed, max_iters, floor, ci, 1).plan


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


@st.composite
def generated_classes(draw):
    """A feature shape and classes for `_class_text`, made as MULTI_FEATURE's were.

    Each class is the winners of one random unit configuration after 1-3
    small plane rotations, so some of its runs converge and others do not.
    Every exponent is attested in a class of at least 3 lexemes, and the
    first class has at least 3, so the base configuration can be built.
    """
    shape = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = sum(shape)
    config = rng.standard_normal((dim, draw(st.integers(2, 5))))
    config /= np.linalg.norm(config, axis=0)
    starts = np.cumsum([0, *shape[:-1]])
    cells = [starts + values for values in itertools.product(*map(range, shape))]
    classes = {}
    for c in range(draw(st.integers(1, 5))):
        b = config.copy()
        for _ in range(draw(st.integers(1, 3))):
            i, j = rng.choice(dim, 2, replace=False)
            theta = rng.uniform(-0.5, 0.5)
            b[[i, j]] = [math.cos(theta) * b[i] - math.sin(theta) * b[j],
                         math.sin(theta) * b[i] + math.cos(theta) * b[j]]
        winners = "".join("abcde"[b[coords].sum(axis=0).argmax()] for coords in cells)
        classes[f"C{c}"] = [draw(st.integers(3 if c == 0 else 1, 20)), winners]
    kept = {m for lexemes, winners in classes.values() if lexemes >= 3 for m in winners}
    for entry in classes.values():  # a class with an exponent no kept class has is kept
        if not set(entry[1]) <= kept:
            entry[0] = 3
            kept |= set(entry[1])
    return tuple(shape), {label: tuple(entry) for label, entry in classes.items()}


@settings(max_examples=100, deadline=None)
@given(generated_classes(), st.integers(-3, 50), st.integers(1, 3),
       st.sampled_from([1, 3, 10, 40]), st.sampled_from([0.02, 0.0, -0.1, 0.3]))
def test_lanes_match_on_generated_class_files(classes, seed, runs, max_iters, floor):
    text = _class_text(*classes)
    cfg = RotationLearnConfig(margin_floor=floor, max_iters=max_iters, runs=runs, seed=seed)
    handed = []
    finish = rotations._finish_lane
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rotations, "_finish_lane",
                      lambda *args: handed.append(args) or finish(*args))
        stats, _ = _assert_lanes_match(text, cfg)
    records = [r for s in stats for r in s.run_records]
    if any(r.converged and r.rotations for r in records):
        event("a lane converges after rotating")
    if not all(r.converged for r in records):
        event("a lane does not converge")
    if handed:
        event("the last lanes are handed over")
    if any(s.converged_runs and not s.run_records[0].converged for s in stats):
        event("a class's plan comes from a run after run 0")


@st.composite
def classes_near_the_base(draw):
    """A feature shape and classes for `_class_text` whose runs often converge after rotating.

    The first class, of 3-20 lexemes, is the winners of a random unit
    configuration, as in `generated_classes`, and alone sets the base
    configuration. Each other class, of 1 or 2 lexemes, is the winners of
    the base after up to 20 plane rotations of at most 0.5 rad, stopping at
    the first that moves a winner: the base does not realize it, a nearby
    configuration does.
    """
    shape = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = sum(shape)
    starts = np.cumsum([0, *shape[:-1]])
    cells = [starts + values for values in itertools.product(*map(range, shape))]

    def winners(b, morphemes):
        return "".join(morphemes[b[coords].sum(axis=0).argmax()] for coords in cells)

    config = rng.standard_normal((dim, draw(st.integers(2, 5))))
    config /= np.linalg.norm(config, axis=0)
    classes = {"C0": (draw(st.integers(3, 20)), winners(config, "abcde"))}
    base = base_configuration(parse_text(_class_text(shape, classes)).class_inventory(), 3)
    for c in range(1, draw(st.integers(2, 5))):
        b, own = np.array(base.matrix), winners(base.matrix, base.morphemes)
        for _ in range(20):
            i, j = rng.choice(dim, 2, replace=False)
            theta = rng.uniform(-0.5, 0.5)
            b[[i, j]] = [math.cos(theta) * b[i] - math.sin(theta) * b[j],
                         math.sin(theta) * b[i] + math.cos(theta) * b[j]]
            if winners(b, base.morphemes) != own:
                break
        classes[f"C{c}"] = (draw(st.integers(1, 2)), winners(b, base.morphemes))
    return tuple(shape), classes


# Searches long enough, at floors low enough, that lanes converge after rotating in
# 28-46 % of examples (hypothesis seeds 1-5), where `generated_classes` reaches 4.5-18 %
@settings(max_examples=100, deadline=None)
@given(classes_near_the_base(), st.integers(-3, 50), st.integers(1, 3),
       st.sampled_from([10, 40]), st.sampled_from([0.02, 0.0, -0.1]))
def test_lanes_match_on_classes_near_the_base(classes, seed, runs, max_iters, floor):
    cfg = RotationLearnConfig(margin_floor=floor, max_iters=max_iters, runs=runs, seed=seed)
    stats, _ = _assert_lanes_match(_class_text(*classes), cfg)
    if any(r.converged and r.rotations for s in stats for r in s.run_records):
        event("a lane converges after rotating")


@pytest.mark.parametrize("runs", [1, 3, 1009])
def test_one_exponent_lanes_match_a_sequential_run(runs):
    stats, _ = _assert_lanes_match(ONE_EXPONENT, RotationLearnConfig(runs=runs, seed=2))
    assert stats[0].run_records == (RunRecord(True, 0, math.inf, 0),) * runs


GAMMA = 0x9E3779B97F4A7C15


def test_mix_is_splitmix64():
    # splitmix64's published outputs: seed 1234567, and the first output of seed 0
    assert [_mix((1234567 + k * GAMMA) % 2**64) for k in (1, 2, 3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert _mix(GAMMA) == 0xE220A8397B1DCDAF
    # on a uint64 array elementwise, also where sums and products wrap past 2**64
    z = [0, 1, GAMMA, 2**63, 2**64 - 1, 1234567]
    assert _mix(np.array(z, dtype=np.uint64)).tolist() == [_mix(v) for v in z]


@pytest.mark.parametrize("n", range(2, 7))
def test_picks_spread_evenly_and_agree_on_ints_and_arrays(n):
    # keys of seed 0, of a negative seed and one near 2**64, so key + k * GAMMA wraps
    keys = [_mix(0), _mix(-3 % 2**64), 2**64 - 5]
    k = np.arange(60_000, dtype=np.uint64)[:, None]
    picks = _pick(np.array(keys, dtype=np.uint64), k, n)
    for lane in picks.T:
        counts = np.bincount(lane.astype(np.intp), minlength=n)
        assert counts.size == n
        assert np.all(np.abs(counts - len(k) / n) <= 0.03 * len(k) / n)
    # a pick is a function of (key, sub-iteration) alone: uint64 arrays give the Python-int picks
    assert picks[:500].tolist() == [[_pick(key, i, n) for key in keys] for i in range(500)]


def test_run_streams_never_overlap():
    # key + k * GAMMA = (p + k) * GAMMA with p = key / GAMMA mod 2**64, so two runs
    # share a pick position only if their p lie within max_iters x cells of each other
    # (here 500 x 6). The p lie far apart over a --runs 100 Nuer batch at seeds -2 to 2,
    # class 991 at each of those seeds (next to the following seed's class 0) and runs
    # 0 to 1,008 of seed 0's class 0
    inverse, classes = pow(GAMMA, -1, 2**64), len(_inventory(None)[0].labels())
    runs = {(seed, ci, run) for seed in range(-2, 3) for ci in (*range(classes), 991)
            for run in range(100)}
    runs |= {(0, 0, run) for run in range(1009)}
    positions = sorted(_run_key(*run) * inverse % 2**64 for run in runs)
    assert len(set(positions)) == len(runs) == 9_409
    gaps = [b - a for a, b in zip(positions, positions[1:] + [positions[0] + 2**64])]
    assert min(gaps) > 10**7


@pytest.mark.parametrize("label,seed,max_iters", [("I", 3, 500), ("V", 1, 7), ("III", 0, 1)])
def test_single_lane_call_matches_a_sequential_run(label, seed, max_iters):
    inv, base = _inventory(None)
    cfg = RotationLearnConfig(max_iters=max_iters, seed=seed)
    got = learn_class_rotation(base, inv.corners, inv.classes[label], cfg, label)
    want = sequential_learn(base, inv.corners, inv.classes[label], cfg, label,
                            _run_key(seed, 0, 0))
    assert got == want


@pytest.fixture
def handovers(monkeypatch):
    """The sub-iteration of every lane `_learn_lanes` hands to `_finish_lane`."""
    calls = []

    def spy(phi, b, acts, log, goal, coords, key, done, cfg):
        calls.append(done)
        return finish(phi, b, acts, log, goal, coords, key, done, cfg)

    finish = rotations._finish_lane
    monkeypatch.setattr(rotations, "_finish_lane", spy)
    return calls


# Cases whose last lanes finish alone: (seed, runs, max_iters, margin_floor), the
# sub-iteration of the hand-over and how many lanes it hands over. All but seeds 5
# and 11 are cases of GRID.
HANDOVERS = [
    ((5, 3, 500, 0.02), 192, 2),  # at a block boundary, where the lockstep's block is spent
    ((0, 1, 500, 0.02), 186, 2),  # mid-block: the finisher takes over inside a block
    ((1, 1, 500, 0.02), 222, 2),
    ((2, 1, 500, 0.02), 168, 2),
    ((3, 3, 500, 0.02), 1314, 2),
    ((11, 1, 500, 0.02), 216, 1),  # two of the last three lanes converge at one check
]


@pytest.mark.parametrize("case,done,lanes", HANDOVERS)
def test_last_lanes_finish_alone_as_sequential_runs(case, done, lanes, handovers):
    seed, runs, max_iters, floor = case
    cfg = RotationLearnConfig(margin_floor=floor, max_iters=max_iters, runs=runs, seed=seed)
    _assert_lanes_match(None, cfg)
    assert handovers == [done] * lanes


def test_one_check_per_iteration_records_the_first_converged_sub_iteration(handovers):
    cells = 6
    cfg = RotationLearnConfig(max_iters=500, seed=1)
    stats, _ = _assert_lanes_match(None, cfg)
    handed = handovers[0]
    in_lockstep = {r.rotations % cells for s in stats for r in s.run_records
                   if r.converged and 0 < r.rotations <= handed}
    # lanes converged at the first, a middle and the last sub-iteration of an iteration
    assert {1, 3, 0} <= in_lockstep
    # at max_iters 11, a lane of seed 93 converges at the last sub-iteration the search has
    handovers.clear()
    cfg = RotationLearnConfig(max_iters=11, seed=93)
    stats, _ = _assert_lanes_match(None, cfg)
    assert not handovers
    assert any(r == RunRecord(True, 11, r.min_margin, 11 * cells)
               for s in stats for r in s.run_records)


# Per file, a seed at which the last two lanes of the default shape finish alone
# and one never converges (on 3x3x2 at seed 0, three never converge)
HANDOVER_SEEDS = {"3x3x2": 1, "3x2x2x2": 0, "4x3x2": 0}


@pytest.mark.parametrize("name", MULTI_FEATURE)
def test_lanes_match_with_three_or_more_features_at_500_iterations(name, handovers):
    cfg = RotationLearnConfig(max_iters=500, seed=HANDOVER_SEEDS[name])
    stats, _ = _assert_lanes_match(MULTI_FEATURE[name], cfg)
    assert len(handovers) == 2
    assert any(not r.converged for s in stats for r in s.run_records)


@pytest.mark.parametrize("max_iters", [500, 20])
def test_finish_lane_goes_on_from_a_mid_run_state(max_iters):
    # class VI at seed 0 converges after 182 sub-iterations; at max_iters 20 it stops at 120.
    # Sub-iteration 100 is the fifth of an iteration.
    done = 100
    inv, base = _inventory(None)
    ci = inv.labels().index("VI")
    want = _reference_run(None, 0, max_iters, 0.02, ci, 0)
    phi = inv.corners.matrix
    coords = np.array([np.flatnonzero(row) for row in phi])
    b = apply_rotation(base, want.plan.rotations[:done]).matrix
    goal = inv.classes["VI"].matrix.argmax(axis=1).tolist()
    cfg = RotationLearnConfig(max_iters=max_iters)
    key = _run_key(0, ci, 0)
    # the steps one after another, each as away axis, toward axis and signed angle
    plan = want.plan
    steps = [x for step in zip(plan.axis_i, plan.axis_j, plan.theta) for x in step]
    log = steps[: 3 * done]
    record = _finish_lane(phi, b.tolist(), (phi @ b).tolist(), log, goal, coords, key, done, cfg)
    assert record == RunRecord(want.converged, want.iterations, want.min_margin,
                               len(want.plan.rotations))
    assert record.min_margin.hex() == want.min_margin.hex()
    # the first `done` steps are left as they were, and the lane's steps follow them
    assert log == steps


def test_a_larger_iteration_limit_costs_the_search_no_memory():
    # at seed 0 every Nuer lane converges within 605 sub-iterations, so a limit of 10**5
    # iterations learns what 500 do; the last lanes draw their picks a block at a time,
    # not up to the limit, so the peak stays where it is
    inv, _ = _inventory(None)
    learned, peaks = [], []
    for max_iters in (500, 10**5):
        cfg = RotationLearnConfig(max_iters=max_iters)
        learn_all_classes(inv, cfg)  # first calls fill caches that would count once
        tracemalloc.start()
        try:
            learned.append(learn_all_classes(inv, cfg))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert learned[1] == learned[0]  # every run record and plan
    assert abs(peaks[1] - peaks[0]) <= 0.5 * 2**20
