import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_delta_reference import delta_cases

from geomorph import (
    TrainConfig,
    activations,
    delta_step,
    evaluate,
    initial_exponents,
    parse_text,
    train,
)
from geomorph.errors import ZeroColumn
from geomorph.exponence import ExponentMatrix

# exponent vectors after the single corrective pass on the German paradigm
GERMAN_AFTER_ONE_PASS = {
    "e": [0.521, 0.130, 0.521, 0.0, 0.130, 0.651, 0.0],
    "st": [0.344, 0.241, 0.0, 0.687, -0.103, 0.584, 0.0],
    "en": [0.370, 0.296, 0.370, 0.0, 0.296, -0.074, 0.739],
    "t": [0.259, 0.515, 0.0, 0.518, 0.256, 0.256, 0.518],
}


def test_german_single_pass_matches_published_vectors(german_full):
    corners, gold = german_full.corner_matrix(), german_full.gold_table()
    expo = initial_exponents(corners, gold)
    stepped, moved = delta_step(expo, corners, gold, TrainConfig(eta=0.1))
    assert set(moved) == {"e", "st", "en", "t"}
    for m, expected in GERMAN_AFTER_ONE_PASS.items():
        assert np.allclose(stepped.column(m), expected, atol=5e-4)


def test_german_training_converges_in_one_iteration(german_full):
    corners, gold = german_full.corner_matrix(), german_full.gold_table()
    expo = initial_exponents(corners, gold)
    trained, trace = train(expo, corners, gold, TrainConfig(eta=0.1))
    assert trace.converged and trace.iterations == 1
    acts = activations(corners, trained)
    labels = [c.label() for c in acts.row_labels]
    by = dict(zip(acts.morphemes, acts.matrix[labels.index("present,3,sg")]))
    assert math.isclose(by["t"], 1.026, abs_tol=0.01)
    assert evaluate(acts, gold).mismatches == ()


def test_zero_stepsize_is_identity(german_full):
    corners, gold = german_full.corner_matrix(), german_full.gold_table()
    expo = initial_exponents(corners, gold)
    stepped, moved = delta_step(expo, corners, gold, TrainConfig(eta=0.0))
    assert moved == ()
    assert np.array_equal(stepped.matrix, expo.matrix)


def test_latin_training_converges(latin):
    corners, gold = latin.corner_matrix(), latin.gold_table()
    expo = initial_exponents(corners, gold)
    trained, trace = train(expo, corners, gold, TrainConfig(eta=0.1, max_iters=20))
    assert trace.converged and trace.iterations <= 20
    assert evaluate(activations(corners, trained), gold).mismatches == ()


def test_already_converged_training_is_a_fixed_point(english):
    corners, gold = english.corner_matrix(), english.gold_table()
    expo = initial_exponents(corners, gold)
    trained, trace = train(expo, corners, gold, TrainConfig(eta=0.1))
    assert trace.converged and trace.iterations == 0
    assert np.array_equal(trained.matrix, expo.matrix)


def test_error_driven_step_is_identity_when_correct(english):
    corners, gold = english.corner_matrix(), english.gold_table()
    expo = initial_exponents(corners, gold)
    stepped, moved = delta_step(expo, corners, gold, TrainConfig(eta=0.1))
    assert moved == ()
    assert np.array_equal(stepped.matrix, expo.matrix)


def test_non_error_driven_step_touches_correct_cells(english):
    corners, gold = english.corner_matrix(), english.gold_table()
    expo = initial_exponents(corners, gold)
    stepped, moved = delta_step(
        expo, corners, gold, TrainConfig(eta=0.1, error_driven=False)
    )
    assert moved == ("0", "s", "ed")
    assert not np.array_equal(stepped.matrix, expo.matrix)


def test_columns_stay_unit_after_every_pass(latin):
    corners, gold = latin.corner_matrix(), latin.gold_table()
    expo = initial_exponents(corners, gold)
    cfg = TrainConfig(eta=0.1)
    for _ in range(5):
        expo, _ = delta_step(expo, corners, gold, cfg)
        norms = np.linalg.norm(expo.matrix, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-9)


def test_not_converged_is_reported_not_raised(latin):
    corners, gold = latin.corner_matrix(), latin.gold_table()
    expo = initial_exponents(corners, gold)
    _, trace = train(expo, corners, gold, TrainConfig(eta=0.1, max_iters=1))
    assert not trace.converged
    assert trace.iterations == 1


def test_trace_records_mismatch_counts(latin):
    corners, gold = latin.corner_matrix(), latin.gold_table()
    expo = initial_exponents(corners, gold)
    _, trace = train(expo, corners, gold, TrainConfig(eta=0.1, max_iters=20))
    assert trace.records[0].iteration == 1
    assert trace.records[-1].mismatches == 0
    assert all(r.updated for r in trace.records[:-1])


def test_config_validation():
    for eta in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta"):
            TrainConfig(eta=eta)
    with pytest.raises(ValueError):
        TrainConfig(max_iters=0)


def test_training_is_deterministic(latin):
    corners, gold = latin.corner_matrix(), latin.gold_table()
    expo = initial_exponents(corners, gold)
    a, trace_a = train(expo, corners, gold, TrainConfig(eta=0.1))
    b, trace_b = train(expo, corners, gold, TrainConfig(eta=0.1))
    assert np.array_equal(a.matrix, b.matrix)
    assert trace_a.records == trace_b.records


# Near-integer unit columns on a 3 x 3 x 2 system, gold the strict winner of
# each cell's product with one corner. At cell f0v0,f1v1,f2v0 that product
# makes e0 win by one ulp, while the cell's row of the corners x exponents
# product ties e0 with e3.
STALL_FEATURES = [[f"f{k}v{v}" for v in range(n)] for k, n in enumerate((3, 3, 2))]
STALL_GOLD = "310131220122010101"  # exponent per cell, cross-product order
STALL_TEXT = "".join(
    [f"FEATURE f{k}: {' '.join(values)}\n" for k, values in enumerate(STALL_FEATURES)]
    + ["MORPHEMES: e0 e1 e2 e3\n"]
    + [f"CELL {' '.join(cell)} -> e{g}\n"
       for cell, g in zip(itertools.product(*STALL_FEATURES), STALL_GOLD, strict=True)]
)
STALL_MATRIX = [
    ["-0x1.44eeeb8eaf931p-54", "0x1.09318615f8f47p-51", "0x1.5f3aa673fa90ap-3", "0x1.13dfadae5bf50p-1"],
    ["0x1.6fd4e79325463p-2", "-0x1.bf2e71a11cab3p-55", "0x1.076bfcd6fbecfp-1", "0x1.13dfadae5bf50p-1"],
    ["0x1.6fd4e7932546ap-2", "-0x1.1bd11d5cad07fp-56", "0x1.5f3aa673fa905p-3", "0x1.6fd4e79325463p-2"],
    ["0x1.6fd4e7932546cp-3", "0x1.b6209ee810aa9p-54", "0x1.076bfcd6fbecdp-1", "-0x1.8a5f03986a4e3p-54"],
    ["0x1.13dfadae5bf4dp-1", "0x1.43d136248490bp-2", "0x1.5f3aa673fa910p-2", "-0x1.af26693f75642p-52"],
    ["0x1.f18b0faa80773p-58", "-0x1.4355f0695b12dp-52", "0x1.076bfcd6fbecbp-1", "0x1.a431e8f2a9614p-53"],
    ["0x1.13dfadae5bf4dp-1", "0x1.c91c6db6ee259p-53", "0x1.5f3aa673fa90ap-3", "0x1.13dfadae5bf4ap-1"],
    ["0x1.6fd4e79325463p-2", "0x1.e5b9d136c6d97p-1", "-0x1.ce5aa43118d4fp-53", "0x1.3352f759b8f03p-54"],
]


def stall_case():
    pf = parse_text(STALL_TEXT)
    corners, gold = pf.corner_matrix(), pf.gold_table()
    b = np.array([[float.fromhex(x) for x in row] for row in STALL_MATRIX])
    return ExponentMatrix(gold.morphemes, b), corners, gold, TrainConfig()


@settings(deadline=None)
@given(delta_cases())
@example(stall_case())
def test_pass_that_moves_nothing_leaves_no_mismatch(case):
    # a pass moves nothing only when it visits no cell, so every cell must
    # already choose gold under the activations `evaluate` reads
    expo, corners, gold, cfg = case
    cfg = TrainConfig(eta=cfg.eta or 0.1, error_driven=True)
    try:
        stepped, moved = delta_step(expo, corners, gold, cfg)
    except ZeroColumn:
        return
    if not moved:
        assert evaluate(activations(corners, stepped), gold).mismatches == ()


def test_one_ulp_tie_is_trained_away():
    expo, corners, gold, cfg = stall_case()
    report = evaluate(activations(corners, expo), gold)
    assert [report.row_labels[i].label() for i in report.ties] == ["f0v0,f1v1,f2v0"]
    _, trace = train(expo, corners, gold, TrainConfig(max_iters=20))
    assert trace.converged and trace.iterations == 1
    assert trace.records[0].updated == ["e0", "e1", "e2", "e3"]
