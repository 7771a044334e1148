"""Exponent vectors, activation of exponents by cells, and winner selection.

Exponents live as unit-length columns of an ExponentMatrix. Activating them
against a corner matrix is a plain matrix product; the selected exponent at
a cell is the strict row maximum. Count-based initialization places each
exponent at the (normalized) sum of the corners it is attested in. The tie
rule and every margin test of the library live here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, ZeroColumn
from .features import CornerMatrix, ParadigmCell, _frozen

UNIT_TOL = 1e-9


@dataclass(frozen=True)
class ExponentMatrix:
    """Feature-value coordinates of each exponent; columns are unit length."""

    morphemes: tuple[str, ...]
    matrix: np.ndarray  # NumFeaVal x NumMorph

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.morphemes):
            raise ShapeMismatch("one column per morpheme required")
        m = self.matrix
        # np.linalg.norm(m, axis=0) on real input minus its call overhead
        norms = np.sqrt(np.add.reduce(m * m, axis=0))
        if not (np.abs(norms - 1.0) <= UNIT_TOL).all():  # NaN fails too
            if (norms < UNIT_TOL).any():
                raise ZeroColumn("zero exponent column")
            raise ShapeMismatch("exponent columns must be unit length")
        _frozen(m)

    def column(self, morpheme: str) -> np.ndarray:
        return self.matrix[:, self.morphemes.index(morpheme)]


@dataclass(frozen=True)
class SelectionTable:
    """0/1 table naming one exponent per cell; an all-zero row marks a tie.

    The matrix is frozen, so whether every row is one-hot is decided once.
    """

    row_labels: tuple[ParadigmCell, ...]
    morphemes: tuple[str, ...]
    matrix: np.ndarray  # NumParaPos x NumMorph

    def __post_init__(self):
        m = self.matrix
        if m.shape != (len(self.row_labels), len(self.morphemes)):
            raise ShapeMismatch("selection table shape does not match labels")
        if not ((m == 0.0) | (m == 1.0)).all() or ((sums := m.sum(axis=1)) > 1).any():
            raise ShapeMismatch("rows must be one-hot or all zero")
        _frozen(m)
        object.__setattr__(self, "_one_hot", bool((sums == 1).all()))

    def require_one_hot(self):
        """Training targets must pick exactly one exponent per cell."""
        if not self._one_hot:
            raise ShapeMismatch("every row must select exactly one exponent")
        return self

    def winner(self, i: int) -> str | None:
        js = np.flatnonzero(self.matrix[i])
        return self.morphemes[js[0]] if len(js) else None

    def winners(self) -> tuple[str | None, ...]:
        return tuple(self.winner(i) for i in range(self.matrix.shape[0]))


def selection_tables(row_labels, morphemes, winner_lists) -> list[SelectionTable]:
    """`selection_from_winners` for each list of winners: one 1.0 a row in one zeroed stack, so
    the tables are one-hot by construction and of `SelectionTable`'s checks only shape can fail."""
    row_labels, morphemes = tuple(row_labels), tuple(morphemes)
    picks = [list(map(morphemes.index, winners)) for winners in winner_lists]
    if any(len(p) != len(row_labels) for p in picks):
        raise ShapeMismatch("selection table shape does not match labels")
    stack = np.zeros((len(picks), len(row_labels), len(morphemes)))
    rows = stack.reshape(-1, len(morphemes))
    rows[np.arange(len(rows)), np.array(picks, dtype=np.intp).ravel()] = 1.0
    tables = [object.__new__(SelectionTable) for _ in picks]
    for table, matrix in zip(tables, _frozen(stack)):
        table.__dict__.update(row_labels=row_labels, morphemes=morphemes, matrix=matrix,
                              _one_hot=True)
    return tables


def selection_from_winners(row_labels, morphemes, winners) -> SelectionTable:
    """Build a one-hot SelectionTable from a winner label per row."""
    return selection_tables(row_labels, morphemes, [winners])[0]


@dataclass(frozen=True)
class ActivationMatrix:
    """Inner products of every cell corner with every exponent vector."""

    row_labels: tuple[ParadigmCell, ...]
    morphemes: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        _frozen(self.matrix)


@dataclass(frozen=True)
class CountArray:
    """Per feature value, how often each exponent is attested with it."""

    morphemes: tuple[str, ...]
    matrix: np.ndarray  # NumFeaVal x NumMorph, >= 0

    def __post_init__(self):
        if not (np.isfinite(self.matrix) & (self.matrix >= 0)).all():
            raise ShapeMismatch("counts must be finite and non-negative")
        _frozen(self.matrix)


def count_features(corners: CornerMatrix, gold: SelectionTable) -> CountArray:
    """Co-occurrence counts of feature values with gold exponents: cornersᵀ · gold."""
    if gold.matrix.shape[0] != corners.num_cells:
        raise ShapeMismatch("gold table and corner matrix disagree on cell count")
    gold.require_one_hot()
    return CountArray(gold.morphemes, corners.matrix.T @ gold.matrix)


def normalize_columns(counts: CountArray) -> ExponentMatrix:
    """Scale every count column to unit L2 length."""
    norms = np.linalg.norm(counts.matrix, axis=0)
    dead = np.flatnonzero(norms == 0)
    if len(dead):
        raise ZeroColumn(
            f"morpheme(s) never attested: {[counts.morphemes[j] for j in dead]}"
        )
    return ExponentMatrix(counts.morphemes, counts.matrix / norms)


def initial_exponents(corners: CornerMatrix, gold: SelectionTable) -> ExponentMatrix:
    """Count-based initial placement: count co-occurrences, then normalize."""
    return normalize_columns(count_features(corners, gold))


def activations(corners: CornerMatrix, expo: ExponentMatrix) -> ActivationMatrix:
    """Activation of every exponent at every cell: the product corners @ exponents.

    The model's one activation: every layer reads a cell's activations as its
    row of `corners.matrix @ b`, never from a per-cell product, which rounds
    differently once a cell has three or more features.
    """
    if corners.matrix.shape[1] != expo.matrix.shape[0]:
        raise ShapeMismatch("corner width and exponent height differ")
    return ActivationMatrix(
        corners.row_labels, expo.morphemes, corners.matrix @ expo.matrix
    )


def gold_margins(acts: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Per row, the gold exponent's activation minus its best rival's.

    `gold` is a boolean mask of the same shape with one True per row (a 1-D
    row gives a one-element result). The margin is inf without rivals, and
    it is > 0 exactly when gold wins the row under the tie rule of `decide`.
    """
    return acts[gold] - np.where(gold, -np.inf, acts).max(axis=-1)


def _margin_positions(goals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where a raveled (lanes, cells, exponents) stack holds the (goal, rival) pairs of `goals`.

    Row l of each array is lane l's pairs, cell by cell; a goal repeats once per rival.
    """
    at, lanes, rivals = np.arange(goals.size).reshape(goals.shape), len(goals), goals.shape[2] - 1
    return np.repeat(at[goals], rivals).reshape(lanes, -1), at[~goals].reshape(lanes, -1)


def _worst_margins(flat: np.ndarray, goal_at: np.ndarray, rival_at: np.ndarray) -> np.ndarray:
    """Each lane's least goal-minus-rival difference in the raveled stack `flat` (inf if none).

    `flat` may hold several raveled stacks along its first axis; then each
    gets a row of worst margins. Rounded g - r never rises with r, so on
    finite activations without -0.0 this is bit for bit the lane's least
    `gold_margins` value.
    """
    pairs = flat.take(goal_at, axis=-1) - flat.take(rival_at, axis=-1)
    return pairs.min(axis=-1, initial=np.inf)


def _convergence_test(floor: float):
    """Whether worst margins are all positive and at or above `floor`, as one comparison."""
    return (lambda worst: worst >= floor) if floor > 0 else (lambda worst: worst > 0)


def gold_wins(acts: list[float], gold: int) -> bool:
    """Whether exponent `gold` wins one row of activations given as a list.

    The scalar form of `gold_margins(row, mask) > 0` for a single row without
    NaN: gold is the strict maximum. A difference of distinct floats never
    rounds to 0, so this is the margin test; 0.0 and -0.0 tie, as do two infs.
    """
    top = max(acts)
    return acts[gold] == top and acts.count(top) == 1


def decide_row(scores: list[float]) -> int:
    """`decide` on one row held as a list: the index of its strict maximum, or -1 if shared.

    Exact float equality, as in `gold_wins`: 0.0 and -0.0 tie, as do two infs.
    """
    top = max(scores)
    return scores.index(top) if scores.count(top) == 1 else -1


def decide(acts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model's one decision over a cells x exponents activation matrix.

    Returns the winner index per row, -1 where the row maximum is shared,
    and the top-minus-runner-up margin per row (inf with one exponent).
    Tie rule: an exponent wins a cell only when its activation is strictly
    greater than every other one in that row, compared as exact floats; no
    tolerance is applied.
    """
    first = acts.argmax(axis=1)
    margins = gold_margins(acts, np.arange(acts.shape[1]) == first[:, None])
    return np.where(margins > 0, first, -1), margins


def select_winners(acts: ActivationMatrix) -> tuple[SelectionTable, list[int]]:
    """Strict row-wise argmax. Tied rows select nothing and are reported.

    Returns the selection table and the indices of tied rows.
    """
    winners, _ = decide(acts.matrix)
    out = (winners[:, None] == np.arange(acts.matrix.shape[1])).astype(float)
    ties = np.flatnonzero(winners < 0).tolist()
    return SelectionTable(acts.row_labels, acts.morphemes, out), ties


@dataclass(frozen=True)
class EvaluationReport:
    """Row-by-row comparison of a predicted selection against a gold one."""

    row_labels: tuple[ParadigmCell, ...]
    morphemes: tuple[str, ...]
    predicted: tuple[str | None, ...]
    gold: tuple[str, ...]
    margins: tuple[float, ...]  # winner activation minus runner-up, per row
    mismatches: tuple[int, ...]  # row indices where predicted != gold
    ties: tuple[int, ...]

    @property
    def num_correct(self) -> int:
        return len(self.row_labels) - len(self.mismatches)

    @property
    def min_margin(self) -> float:
        return min(self.margins)

    def mismatch_labels(self) -> tuple[str, ...]:
        return tuple([self.row_labels[i].label() for i in self.mismatches])


def evaluate(acts: ActivationMatrix, gold: SelectionTable) -> EvaluationReport:
    """Compare strict winners of an activation matrix against gold choices."""
    if acts.matrix.shape != gold.matrix.shape or acts.morphemes != gold.morphemes:
        raise ShapeMismatch("activation and gold tables do not line up")
    gold.require_one_hot()
    winners, margins = decide(acts.matrix)
    gold_idx = gold.matrix.argmax(axis=1)
    return EvaluationReport(
        acts.row_labels,
        acts.morphemes,
        tuple([acts.morphemes[j] if j >= 0 else None for j in winners.tolist()]),
        tuple([acts.morphemes[j] for j in gold_idx.tolist()]),
        tuple(margins.tolist()),
        tuple(np.flatnonzero(winners != gold_idx).tolist()),
        tuple(np.flatnonzero(winners < 0).tolist()),
    )
