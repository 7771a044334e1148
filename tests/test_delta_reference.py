"""The delta pass and the training loop against the numpy forms they replaced.

`reference_delta_step` is the delta pass as it was written before its
bookkeeping moved to Python scalars: a `gold_margins` test, `np.outer`,
`np.linalg.norm`, an `.any()` zero-column test and a set of moved columns,
all per cell. `delta_step` must reproduce it exactly: the same matrix
bytes, the same moved columns and the same ZeroColumn, and `train` must
leave the matrix and trace that `reference_train` leaves on the reference pass.

`reference_train` is the training loop as it was written before it decided
each pass with one `decide` and kept one working state: a full
`evaluate(activations(...))` before every pass and a fresh matrix from each
call of its step function. `train` must reproduce it bit for bit, trace
margins included, with `delta_step` or with `reference_delta_step` as the step.
"""
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomorph import fixtures, parse_text
from geomorph.errors import ZeroColumn
from geomorph.exponence import (
    ExponentMatrix,
    activations,
    evaluate,
    gold_margins,
    initial_exponents,
)
from geomorph.training import TrainConfig, TraceRecord, TrainTrace, delta_step, train

FLAT_FIXTURES = ["english_weak_verb", "german_present", "german_full",
                 "latin_adjectives", "russian_class_one", "latin_deponent"]
ETAS = [0.0, 0.1, 0.37, 2.5]
ONE_EXPONENT = "FEATURE number: sg pl\nFEATURE person: 1 2\nMORPHEMES: a\n" + "".join(
    f"CELL {n} {p} -> a\n" for n in ("sg", "pl") for p in ("1", "2")
)


def reference_delta_step(expo, corners, gold, cfg):
    """One delta pass, every cell's bookkeeping done with numpy calls."""
    gold.require_one_hot()
    b = np.array(expo.matrix)
    is_gold = gold.matrix == 1.0
    updated: set[int] = set()
    for i in range(corners.num_cells):
        corner = corners.matrix[i]
        acts = (corners.matrix @ b)[i]
        if cfg.error_driven and gold_margins(acts, is_gold[i])[0] > 0:
            continue
        if cfg.eta == 0.0:
            continue
        b += cfg.eta * np.outer(corner, gold.matrix[i] - acts)
        norms = np.linalg.norm(b, axis=0)
        if (norms < 1e-12).any():
            raise ZeroColumn("update drove an exponent column to zero")
        b /= norms
        updated.update(np.flatnonzero(gold.matrix[i] - acts != 0.0))
    moved = tuple(expo.morphemes[j] for j in sorted(updated))
    return ExponentMatrix(expo.morphemes, b), moved


def reference_train(expo, corners, gold, cfg, step=delta_step):
    """`train` with a full evaluation of the activations before every pass,
    each pass one call of `step`."""
    trace = TrainTrace()
    b = expo
    for it in range(cfg.max_iters + 1):
        report = evaluate(activations(corners, b), gold)
        if it > 0:
            trace.records.append(
                TraceRecord(it, len(report.mismatches), report.min_margin, list(moved))
            )
        if not report.mismatches:
            trace.converged = True
            trace.iterations = it
            return b, trace
        if it == cfg.max_iters:
            break
        b, moved = step(b, corners, gold, cfg)
    trace.iterations = cfg.max_iters
    return b, trace


def step_outcome(step, expo, corners, gold, cfg):
    try:
        stepped, moved = step(expo, corners, gold, cfg)
    except ZeroColumn:
        return ZeroColumn
    return stepped.matrix.tobytes(), moved


def train_outcome(expo, corners, gold, cfg, learner=train):
    """The whole result; the records by `repr`, since == takes 0.0 for -0.0."""
    try:
        trained, trace = learner(expo, corners, gold, cfg)
    except ZeroColumn:
        return ZeroColumn
    return trained.matrix.tobytes(), repr(trace.records), trace.converged, trace.iterations


def assert_same_as_reference(expo, corners, gold, cfg):
    expected = step_outcome(reference_delta_step, expo, corners, gold, cfg)
    assert step_outcome(delta_step, expo, corners, gold, cfg) == expected
    reference = functools.partial(reference_train, step=reference_delta_step)
    assert train_outcome(expo, corners, gold, cfg) == train_outcome(
        expo, corners, gold, cfg, learner=reference)


@st.composite
def delta_cases(draw):
    """A small flat paradigm, a unit exponent configuration and a config.

    Integer-valued columns of either sign plant exact activation ties, and a
    column set to a cell's normalized corner together with eta = 1 / features
    drives that column to zero when the cell pulls it away.
    """
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    feats = [[f"f{i}v{k}" for k in range(n)] for i, n in enumerate(sizes)]
    product = list(itertools.product(*feats))
    keep = sorted(draw(st.sets(st.sampled_from(range(len(product))), min_size=1)))
    morphs = [f"e{j}" for j in range(draw(st.integers(1, 4)))]
    lines = [f"FEATURE f{i}: {' '.join(vs)}" for i, vs in enumerate(feats)]
    lines.append("MORPHEMES: " + " ".join(morphs))
    lines += [f"CELL {' '.join(product[k])} -> {draw(st.sampled_from(morphs))}" for k in keep]
    pf = parse_text("\n".join(lines) + "\n")
    corners, gold = pf.corner_matrix(), pf.gold_table()
    width = corners.matrix.shape[1]
    start = np.array(
        draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(morphs), max_size=len(morphs)),
                      min_size=width, max_size=width)),
        dtype=float,
    )
    for j in range(len(morphs)):
        if not start[:, j].any() or draw(st.booleans()):
            start[:, j] = corners.matrix[draw(st.integers(0, corners.num_cells - 1))]
    expo = ExponentMatrix(tuple(morphs), start / np.linalg.norm(start, axis=0))
    eta = draw(st.one_of(st.sampled_from(ETAS + [1.0 / len(sizes)]), st.floats(0.0, 3.0)))
    cfg = TrainConfig(eta=eta, error_driven=draw(st.booleans()), max_iters=draw(st.integers(1, 4)))
    return expo, corners, gold, cfg


@settings(deadline=None)
@given(delta_cases())
def test_delta_step_matches_reference_on_generated_paradigms(case):
    assert_same_as_reference(*case)


@pytest.mark.parametrize("error_driven", [True, False])
@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("name", FLAT_FIXTURES)
def test_delta_step_matches_reference_on_fixtures(name, eta, error_driven):
    pf = fixtures.load(name)
    corners, gold = pf.corner_matrix(), pf.gold_table()
    cfg = TrainConfig(eta=eta, error_driven=error_driven)
    assert_same_as_reference(initial_exponents(corners, gold), corners, gold, cfg)


@settings(deadline=None)
@given(delta_cases())
def test_train_matches_reference_train_on_generated_paradigms(case):
    assert train_outcome(*case) == train_outcome(*case, learner=reference_train)


@pytest.mark.parametrize("max_iters", [1, 100])
@pytest.mark.parametrize("error_driven", [True, False])
@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("name", FLAT_FIXTURES)
def test_train_matches_reference_train_on_fixtures(name, eta, error_driven, max_iters):
    pf = fixtures.load(name)
    corners, gold = pf.corner_matrix(), pf.gold_table()
    case = (initial_exponents(corners, gold), corners, gold,
            TrainConfig(eta=eta, error_driven=error_driven, max_iters=max_iters))
    assert train_outcome(*case) == train_outcome(*case, learner=reference_train)


@pytest.mark.parametrize("error_driven", [True, False])
def test_one_exponent_paradigm_matches_reference(error_driven):
    pf = parse_text(ONE_EXPONENT)
    corners, gold = pf.corner_matrix(), pf.gold_table()
    expo = initial_exponents(corners, gold)
    cfg = TrainConfig(eta=0.1, error_driven=error_driven)
    assert_same_as_reference(expo, corners, gold, cfg)
    # without rivals every cell is correct, so the error-driven pass moves nothing
    if error_driven:
        assert delta_step(expo, corners, gold, cfg)[1] == ()


def zero_column_case():
    pf = parse_text("FEATURE number: sg pl\nMORPHEMES: a b\nCELL sg -> a\nCELL pl -> b\n")
    corners, gold = pf.corner_matrix(), pf.gold_table()
    # b sits on the sg corner, which pulls it away with eta = 1 / features
    expo = ExponentMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    return expo, corners, gold, TrainConfig(eta=1.0, error_driven=False)


def test_zero_column_matches_reference():
    expo, corners, gold, cfg = zero_column_case()
    with pytest.raises(ZeroColumn):
        reference_delta_step(expo, corners, gold, cfg)
    assert_same_as_reference(expo, corners, gold, cfg)


def test_negative_zeros_off_the_corner_match_reference():
    pf = parse_text("FEATURE number: sg pl\nFEATURE case: nom acc\nMORPHEMES: a b\n"
                    "CELL sg nom -> a\n")
    corners, gold = pf.corner_matrix(), pf.gold_table()
    # rows sg, pl, nom, acc; b wins the sg nom cell, whose update leaves pl and acc
    # alone but adds a zero there with the sign of each column's error: +0.0 turns
    # a's -0.0 at pl into +0.0, and -0.0 keeps b's
    expo = ExponentMatrix(("a", "b"), np.array([[0.6, 0.8], [-0.0, -0.0],
                                                [0.0, -0.0], [-0.8, 0.6]]))
    cfg = TrainConfig(eta=0.1)
    assert_same_as_reference(expo, corners, gold, cfg)
    stepped = delta_step(expo, corners, gold, cfg)[0].matrix
    assert np.copysign(1.0, stepped[1]).tolist() == [1.0, -1.0]


def test_each_pass_records_only_the_columns_it_moved():
    pf = parse_text("FEATURE f: x y z\nMORPHEMES: a b c\nCELL x -> a\nCELL y -> c\nCELL z -> c\n")
    corners, gold = pf.corner_matrix(), pf.gold_table()
    # a and b tie at x in every pass (b renormalizes back onto x), and c starts
    # with no z coordinate: the first pass moves b at x and c at z, where c then
    # wins, so the second moves only b
    expo = ExponentMatrix(("a", "b", "c"), np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                                     [0.0, 0.0, 0.0]]))
    cfg = TrainConfig(eta=0.1, max_iters=2)
    assert_same_as_reference(expo, corners, gold, cfg)
    assert [r.updated for r in train(expo, corners, gold, cfg)[1].records] == [["b", "c"], ["b"]]
