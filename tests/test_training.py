import math

import numpy as np
import pytest

from geomorph import (
    TrainConfig,
    activations,
    delta_step,
    evaluate,
    initial_exponents,
    train,
)

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
