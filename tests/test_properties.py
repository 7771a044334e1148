"""Property suites: invariants checked against independent oracles."""
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geomorph as g
from geomorph.composition import _sum_angle, wrap_angle
from geomorph.exponence import (ActivationMatrix, _convergence_test, _margin_positions,
                                _worst_margins, decide, decide_row, gold_margin,
                                gold_margins)

# ---------------------------------------------------------------- helpers


def random_paradigm(rng, max_features=4, max_values=4, n_morphemes=None):
    """A random feature system, full cell set, and random one-hot gold table."""
    n_feats = rng.randint(1, max_features)
    decls = []
    k = 0
    for f in range(n_feats):
        n_vals = rng.randint(2, max_values)
        decls.append((f"f{f}", [f"v{k + i}" for i in range(n_vals)]))
        k += n_vals
    fs = g.build_feature_system(decls)
    cells = g.all_cells(fs)
    corners = g.build_corner_matrix(fs, cells)
    n_morphemes = n_morphemes or rng.randint(1, 5)
    morphemes = tuple(f"m{j}" for j in range(n_morphemes))
    # every morpheme attested at least once so normalization is defined
    winners = [morphemes[i % n_morphemes] for i in range(len(cells))]
    rng.shuffle(winners)
    gold = g.selection_from_winners(cells, morphemes, winners)
    return fs, corners, gold


def counting_oracle(fs, corners, gold):
    """Brute-force loop over cells: how often value v occurs with morpheme m."""
    counts = np.zeros((fs.num_values, len(gold.morphemes)))
    for i, cell in enumerate(corners.row_labels):
        j = gold.morphemes.index(gold.winner(i))
        for _, value in cell.assignment:
            counts[fs.value_index[value], j] += 1
    return counts


# ------------------------------------------------- (d) counting oracle


def test_initialization_matches_counting_oracle_on_random_paradigms():
    rng = random.Random(2024)
    checked = 0
    while checked < 50:
        fs, corners, gold = random_paradigm(rng)
        if len(corners.row_labels) < len(gold.morphemes):
            continue
        checked += 1
        counts = g.count_features(corners, gold)
        assert np.array_equal(counts.matrix, counting_oracle(fs, corners, gold))
        expo = g.initial_exponents(corners, gold)
        manual = counting_oracle(fs, corners, gold)
        manual = manual / np.linalg.norm(manual, axis=0)
        assert np.allclose(expo.matrix, manual, atol=1e-12)


# ------------------------------------------------- (e) pair-selection oracle


def test_select_pair_matches_exhaustive_oracle():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(2, 4)
        n_stems = rng.randint(1, 8)
        n_affixes = rng.randint(1, 8)

        def unit():
            v = np.array([rng.gauss(0, 1) for _ in range(dim)])
            return v / np.linalg.norm(v)

        stems = {f"s{i}": unit() for i in range(n_stems)}
        affixes = {f"a{i}": unit() for i in range(n_affixes)}
        inv = g.CompositionInventory(stems, affixes, {})
        target = np.array([rng.gauss(0, 1) for _ in range(dim)])
        (stem, affix), ties = g.select_pair(inv, target)
        # independent oracle: plain python double loop, no numpy
        best, best_pair = None, None
        for s, sv in stems.items():
            for a, av in affixes.items():
                d = math.sqrt(sum((sv[k] + av[k] - target[k]) ** 2 for k in range(dim)))
                if best is None or d < best - 1e-15:
                    best, best_pair = d, (s, a)
        assert (stem, affix) == best_pair
        assert ties == []


# ------------------------------------------------- (a) unit norms in training


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_training_keeps_unit_columns(seed, passes):
    rng = random.Random(seed)
    _, corners, gold = random_paradigm(rng)
    if len(corners.row_labels) < len(gold.morphemes):
        return
    expo = g.initial_exponents(corners, gold)
    cfg = g.TrainConfig(eta=0.1)
    for _ in range(passes):
        expo, _ = g.delta_step(expo, corners, gold, cfg)
    norms = np.linalg.norm(expo.matrix, axis=0)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)


# ------------------------------------------------- (b) rotation rigidity


@given(st.integers(0, 10_000), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_rotation_plans_preserve_gram(seed, n_rotations):
    rng = random.Random(seed)
    dim = rng.randint(2, 6)
    n_cols = rng.randint(1, 5)
    cols = []
    for _ in range(n_cols):
        v = np.array([rng.gauss(0, 1) for _ in range(dim)])
        cols.append(v / np.linalg.norm(v))
    expo = g.ExponentMatrix(tuple(f"m{j}" for j in range(n_cols)), np.array(cols).T)
    plan = []
    for _ in range(n_rotations):
        i, j = rng.sample(range(dim), 2)
        plan.append(g.PlaneRotation(i, j, rng.uniform(-math.pi, math.pi)))
    rotated = g.apply_rotation(expo, plan)
    assert np.allclose(g.gram_matrix(rotated), g.gram_matrix(expo), atol=1e-9)
    assert np.allclose(np.linalg.norm(rotated.matrix, axis=0), 1.0, atol=1e-9)


# ------------------------------------------------- (c) argmax scale invariance


@given(st.integers(0, 10_000), st.floats(0.01, 100.0))
@settings(max_examples=40, deadline=None)
def test_winner_invariant_under_positive_row_scaling(seed, scale):
    rng = random.Random(seed)
    _, corners, gold = random_paradigm(rng)
    if len(corners.row_labels) < len(gold.morphemes):
        return
    expo = g.initial_exponents(corners, gold)
    acts = g.activations(corners, expo)
    base, base_ties = g.select_winners(acts)
    i = rng.randrange(corners.num_cells)
    scaled_rows = np.array(acts.matrix)
    scaled_rows[i] *= scale
    scaled = ActivationMatrix(acts.row_labels, acts.morphemes, scaled_rows)
    after, after_ties = g.select_winners(scaled)
    assert np.array_equal(after.matrix, base.matrix)
    assert after_ties == base_ties


# ------------------------------------------------- decision kernel oracle


def planted_matrix(rng, rows, cols):
    """Random activations with repeated values and exact ties at row maxima."""
    pool = [rng.uniform(-2.0, 2.0) for _ in range(3)]
    a = [
        [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
         for _ in range(cols)]
        for _ in range(rows)
    ]
    for row in a:
        if cols > 1 and rng.random() < 0.4:
            j, k = rng.sample(range(cols), 2)
            row[j] = row[k] = max(row)
    return np.array(a)


def reference_decision(a):
    """Per-row loop: the strict winner (None on a tie) and top minus runner-up."""
    winners, margins = [], []
    for row in a.tolist():
        top = max(row)
        js = [j for j, v in enumerate(row) if v == top]
        winners.append(js[0] if len(js) == 1 else None)
        ranked = sorted(row, reverse=True)
        margins.append(ranked[0] - ranked[1] if len(row) > 1 else math.inf)
    return winners, margins


def reference_gold_margin(row, j):
    """Gold minus best rival in one row given as a list; a missing rival counts as -inf, as
    in `gold_margins`, so the margin is inf without rivals (NaN if gold is -inf too)."""
    return row[j] - max(row[:j] + row[j + 1:], default=-math.inf)


def reference_gold_check(a, gold_index, floor):
    """Per-row loop: gold minus best rival; all must win and the worst reach floor."""
    worst, ok = math.inf, True
    for row, j in zip(a.tolist(), gold_index):
        margin = reference_gold_margin(row, j)
        worst = min(worst, margin)
        ok = ok and margin > 0
    return ok and worst >= floor, worst


@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 6))
@example(seed=0, rows=4, cols=1)
@settings(max_examples=100, deadline=None)
def test_decision_kernel_matches_per_row_loops(seed, rows, cols):
    rng = random.Random(seed)
    a = planted_matrix(rng, rows, cols)
    labels = tuple(f"c{i}" for i in range(rows))
    morphemes = tuple(f"m{j}" for j in range(cols))
    gold_index = [rng.randrange(cols) for _ in range(rows)]
    gold = g.selection_from_winners(labels, morphemes, [morphemes[j] for j in gold_index])
    acts = ActivationMatrix(labels, morphemes, a)
    ref_winners, ref_margins = reference_decision(a)
    ref_names = tuple(morphemes[j] if j is not None else None for j in ref_winners)
    ref_ties = [i for i, w in enumerate(ref_winners) if w is None]

    table, ties = g.select_winners(acts)
    assert table.winners() == ref_names
    assert ties == ref_ties

    ev = g.evaluate(acts, gold)
    assert ev.predicted == ref_names
    assert ev.margins == tuple(ref_margins)
    assert ev.ties == tuple(ref_ties)
    assert ev.mismatches == tuple(
        i for i, (w, j) in enumerate(zip(ref_winners, gold_index)) if w != j
    )

    is_gold = gold.matrix == 1.0
    wins = (gold_margins(a, is_gold) > 0).tolist()
    assert wins == [w == j for w, j in zip(ref_winners, gold_index)]
    rows = list(zip(a.tolist(), gold_index))
    margins = [gold_margin(row, j) for row, j in rows]
    assert margins == [reference_gold_margin(row, j) for row, j in rows]
    assert [m > 0 for m in margins] == [reference_gold_margin(row, j) > 0 for row, j in rows]
    assert rows == list(zip(a.tolist(), gold_index))  # each row is restored after its mask
    assert [decide_row(row) for row, _ in rows] == [-1 if w is None else w for w in ref_winners]
    floor = rng.choice([-0.5, 0.0, 0.02, 0.5])
    worst = _worst_margins(a.ravel(), *_margin_positions(is_gold[None]))
    ok = _convergence_test(floor)(worst)
    assert (ok.item(), worst.item()) == reference_gold_check(a, gold_index, floor)


@pytest.mark.parametrize("row, wins", [
    ([0.0, -0.0], [False, False]),  # signed zeros tie
    ([-0.0, 0.0], [False, False]),
    ([math.inf, math.inf], [False, False]),
    ([math.inf, 1.0], [True, False]),
    ([5e-324, 0.0], [True, False]),  # the least subnormal still wins
    ([-2.5], [True]),  # no rivals
    ([-math.inf], [False]),  # -inf - -inf is NaN: no winner, as for two infs
])
def test_every_form_of_the_rule_agrees_on_edge_rows(row, wins):
    """Each gold index's win by `gold_margin`, the per-row oracle and `gold_margins`, and the
    row's winner by `decide_row` and `decide`."""
    assert [gold_margin(row, j) > 0 for j in range(len(row))] == wins
    assert [reference_gold_margin(row, j) > 0 for j in range(len(row))] == wins
    winner = wins.index(True) if True in wins else -1
    assert decide_row(row) == winner
    goals = np.eye(len(row), dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf, -inf - -inf
        assert (gold_margins(np.array([row] * len(row)), goals) > 0).tolist() == wins
        assert decide(np.array([row]))[0].tolist() == [winner]
        # lane j is one cell whose goal is j; `_worst_margins` reads goal-minus-rival
        # pairs only, so a row without rivals keeps its `initial` inf, even at -inf
        worst = _worst_margins(np.array(row * len(row)), *_margin_positions(goals[:, None]))
    assert (worst > 0).tolist() == (wins if len(row) > 1 else [True])


# finite activations with exact ties and +0.0 entries; adding 0.0 turns -0.0 into +0.0
ACTIVATION = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                       st.floats(-4.0, 4.0, allow_subnormal=True)).map(lambda v: v + 0.0)


@given(st.data(), st.integers(1, 4), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_worst_margin_at_flat_positions_is_the_least_gold_margin(data, lanes, cells, morph):
    """Per lane, the least goal-minus-rival difference equals min(gold_margins), bit for bit."""
    size = lanes * cells * morph
    stack = np.array(data.draw(st.lists(ACTIVATION, min_size=size, max_size=size)))
    stack = stack.reshape(lanes, cells, morph)
    gold = data.draw(st.lists(st.integers(0, morph - 1), min_size=lanes * cells,
                              max_size=lanes * cells))
    goals = np.arange(morph) == np.array(gold).reshape(lanes, cells, 1)
    worst = _worst_margins(stack.ravel(), *_margin_positions(goals))
    margins = gold_margins(stack.reshape(-1, morph), goals.reshape(-1, morph))
    want = margins.reshape(lanes, cells).min(axis=1, initial=math.inf)
    assert worst.tobytes() == want.tobytes()


# ------------------------------------------------- (f) gradient direction


def test_delta_update_matches_finite_difference_gradient():
    """The per-cell update follows -dL/dmu for L = (t - corner.mu)^2 / 2."""
    rng = random.Random(99)
    for _ in range(20):
        dim = rng.randint(2, 5)
        corner = np.array([float(rng.randint(0, 1)) for _ in range(dim)])
        if not corner.any():
            corner[0] = 1.0
        mu = np.array([rng.gauss(0, 1) for _ in range(dim)])
        mu /= np.linalg.norm(mu)
        t = float(rng.randint(0, 1))

        def loss(vec):
            return 0.5 * (t - corner @ vec) ** 2

        eps = 1e-7
        grad = np.zeros(dim)
        for k in range(dim):
            up, down = mu.copy(), mu.copy()
            up[k] += eps
            down[k] -= eps
            grad[k] = (loss(up) - loss(down)) / (2 * eps)
        update = (t - corner @ mu) * corner  # the eta=1 step direction
        assert np.allclose(update, -grad, atol=1e-6)


def test_update_raises_intended_activation_before_renormalization():
    fs = g.build_feature_system([("number", ["sg", "pl"])])
    cells = g.all_cells(fs)
    corners = g.build_corner_matrix(fs, cells)
    gold = g.selection_from_winners(cells, ("x", "y"), ["y", "x"])  # both wrong
    expo = g.ExponentMatrix(("x", "y"), np.eye(2))
    corner = corners.matrix[0]
    before = corner @ expo.matrix
    eta = 0.05
    raw = expo.matrix + eta * np.outer(corner, gold.matrix[0] - before)
    after = corner @ raw
    j = int(np.argmax(gold.matrix[0]))
    assert after[j] > before[j]


# ------------------------------------------------- misc structural properties


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_selection_rows_one_hot_or_zero(seed):
    rng = random.Random(seed)
    _, corners, gold = random_paradigm(rng)
    if len(corners.row_labels) < len(gold.morphemes):
        return
    expo = g.initial_exponents(corners, gold)
    table, ties = g.select_winners(g.activations(corners, expo))
    sums = table.matrix.sum(axis=1)
    assert set(sums.tolist()) <= {0.0, 1.0}
    assert all(sums[i] == 0 for i in ties)


@given(
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6),
)
@settings(max_examples=200, deadline=None)
def test_angle_of_sum_consistent_with_coordinates(a, offset):
    b = wrap_angle(a + 2 * offset)
    direction, magnitude = g.angle_of_sum(a, b)
    assert direction == _sum_angle(a, b)
    vec = np.array([math.cos(a) + math.cos(b), math.sin(a) + math.sin(b)])
    assert math.isclose(magnitude, float(np.linalg.norm(vec)), abs_tol=1e-9)


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_corner_vectors_distinct(seed):
    rng = random.Random(seed)
    fs, corners, _ = random_paradigm(rng)
    seen = {tuple(row) for row in corners.matrix}
    assert len(seen) == corners.num_cells


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_activation_entries_equal_explicit_summation(seed):
    rng = random.Random(seed)
    _, corners, gold = random_paradigm(rng)
    if len(corners.row_labels) < len(gold.morphemes):
        return
    expo = g.initial_exponents(corners, gold)
    acts = g.activations(corners, expo)
    for i in range(corners.num_cells):
        for j in range(len(expo.morphemes)):
            # fixed left-to-right summation, plain python floats
            total = 0.0
            for k in range(corners.matrix.shape[1]):
                total += float(corners.matrix[i, k]) * float(expo.matrix[k, j])
            assert math.isclose(total, float(acts.matrix[i, j]), abs_tol=1e-12)


def test_axis_distance_and_axis_angle_rank_alike_at_equal_radius():
    """Points at one common radius: nearest to a far axis point = smallest angle."""
    rng = random.Random(31)
    target = np.array([2.0, 0.0])
    for _ in range(200):
        radius = rng.uniform(0.2, 2.5)
        angles = [rng.uniform(-math.pi, math.pi) for _ in range(6)]
        points = [radius * np.array([math.cos(t), math.sin(t)]) for t in angles]
        by_distance = min(range(6), key=lambda k: float(np.linalg.norm(points[k] - target)))
        by_angle = min(range(6), key=lambda k: abs(angles[k]))
        assert by_distance == by_angle


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_inner_product_argmax_equals_cosine_argmax(seed):
    # unit columns make the two rankings identical within every row
    rng = random.Random(seed)
    _, corners, gold = random_paradigm(rng)
    if len(corners.row_labels) < len(gold.morphemes):
        return
    expo = g.initial_exponents(corners, gold)
    for i in range(corners.num_cells):
        corner = corners.matrix[i]
        inner = corner @ expo.matrix
        cosine = inner / (np.linalg.norm(corner) * np.linalg.norm(expo.matrix, axis=0))
        # exact inner-product ties may flip under the float division, so
        # check maximizer membership rather than index equality
        assert math.isclose(cosine[np.argmax(inner)], cosine.max(), abs_tol=1e-12)
        assert math.isclose(inner[np.argmax(cosine)], inner.max(), abs_tol=1e-12)
