"""Inflection classes as rigid rotations of a shared exponent configuration.

All classes of a language share one configuration of exponent vectors,
fixed up to rotation. The weighted count initialization over the frequent
classes gives the base configuration; every class is then reachable by a
learned composition of 2D plane rotations, each rotation applied to every
exponent column alike so lengths and mutual angles never change.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import BadAxis, EmptyFilter, ShapeMismatch
from .exponence import (
    CountArray,
    ExponentMatrix,
    SelectionTable,
    activations,
    count_features,
    gold_margins,
    normalize_columns,
    select_winners,
)
from .features import CornerMatrix, _frozen


@dataclass(frozen=True)
class PlaneRotation:
    """Rotation by theta in the coordinate plane (axis_i, axis_j)."""

    axis_i: int
    axis_j: int
    theta: float

    def __post_init__(self):
        if self.axis_i == self.axis_j or self.axis_i < 0 or self.axis_j < 0:
            raise BadAxis(f"bad plane ({self.axis_i}, {self.axis_j})")

    def matrix(self, dim: int) -> np.ndarray:
        if self.axis_i >= dim or self.axis_j >= dim:
            raise BadAxis(f"axis out of range for dim {dim}")
        r = np.eye(dim)
        c, s = math.cos(self.theta), math.sin(self.theta)
        r[self.axis_i, self.axis_i] = c
        r[self.axis_i, self.axis_j] = -s
        r[self.axis_j, self.axis_i] = s
        r[self.axis_j, self.axis_j] = c
        return r


@dataclass(frozen=True)
class RotationPlan:
    """Ordered plane rotations deriving one class from the base configuration."""

    class_label: str
    rotations: tuple[PlaneRotation, ...]

    def as_dicts(self):
        return [
            {"i": r.axis_i, "j": r.axis_j, "theta": r.theta} for r in self.rotations
        ]


def apply_rotation(expo: ExponentMatrix, plan) -> ExponentMatrix:
    """Apply plane rotations in order to every exponent column."""
    rotations = plan.rotations if isinstance(plan, RotationPlan) else tuple(plan)
    b = np.array(expo.matrix)
    dim = b.shape[0]
    for rot in rotations:
        if rot.axis_i >= dim or rot.axis_j >= dim:
            raise BadAxis(f"axis out of range for dim {dim}")
        c, s = math.cos(rot.theta), math.sin(rot.theta)
        xi = b[rot.axis_i].copy()
        xj = b[rot.axis_j].copy()
        b[rot.axis_i] = c * xi - s * xj
        b[rot.axis_j] = s * xi + c * xj
    return ExponentMatrix(expo.morphemes, b)


@dataclass(frozen=True)
class ClassInventory:
    """Gold selection tables per class, plus how many lexemes attest each."""

    corners: CornerMatrix
    morphemes: tuple[str, ...]
    classes: dict[str, SelectionTable]
    lexeme_counts: dict[str, int]

    def __post_init__(self):
        for label, table in self.classes.items():
            if table.morphemes != self.morphemes:
                raise ShapeMismatch(f"class {label!r} uses different morphemes")
            if table.row_labels != self.corners.row_labels:
                raise ShapeMismatch(f"class {label!r} uses different cells")
            table.require_one_hot()
        if set(self.lexeme_counts) != set(self.classes):
            raise ShapeMismatch("lexeme counts must cover exactly the classes")

    def labels(self) -> tuple[str, ...]:
        return tuple(self.classes)

    def distance_between(self, a: str, b: str) -> int:
        """Number of cells where two classes pick different exponents."""
        return int(
            (self.classes[a].matrix != self.classes[b].matrix).any(axis=1).sum()
        )


def weighted_counts(inv: ClassInventory, min_lexemes: int = 3):
    """Lexeme-count-weighted feature counts over the frequent classes."""
    kept = [c for c in inv.labels() if inv.lexeme_counts[c] >= min_lexemes]
    if not kept:
        raise EmptyFilter(f"no class has at least {min_lexemes} lexemes")
    total = sum(
        inv.lexeme_counts[label] * count_features(inv.corners, inv.classes[label]).matrix
        for label in kept
    )
    return CountArray(inv.morphemes, total), kept


def base_configuration(inv: ClassInventory, min_lexemes: int = 3) -> ExponentMatrix:
    """Normalized weighted counts: the shared configuration all classes rotate."""
    counts, _ = weighted_counts(inv, min_lexemes)
    return normalize_columns(counts)


def class_of_base(expo: ExponentMatrix, inv: ClassInventory) -> str | None:
    """Which class, if any, the configuration realizes as-is."""
    predicted, _ = select_winners(activations(inv.corners, expo))
    for label, table in inv.classes.items():
        if np.array_equal(predicted.matrix, table.matrix):
            return label
    return None


def sigmoid_gain(a_winner: float, a_intended: float) -> float:
    """Squared logistic gain on the winner-minus-intended activation gap.

    Small when the intended exponent already leads, saturating toward 1 the
    further it trails.
    """
    return 1.0 / (1.0 + math.exp(-2.0 * (a_winner - a_intended))) ** 2


_RUN_SEED_STRIDE = 1_009  # per-class offset between run seeds


@dataclass(frozen=True)
class RotationLearnConfig:
    base_increment: float = 0.1  # radians per sub-iteration before gain
    margin_floor: float = 0.02  # minimal acceptable winning margin
    max_iters: int = 500
    runs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.base_increment <= 0:
            raise ValueError("base_increment must be positive")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.runs >= _RUN_SEED_STRIDE:
            raise ValueError(
                f"runs must be below {_RUN_SEED_STRIDE}, or run seeds repeat across classes"
            )


@dataclass
class RotationLearnResult:
    plan: RotationPlan
    iterations: int
    converged: bool
    min_margin: float


def _margins_ok(acts: np.ndarray, is_goal: np.ndarray, floor: float) -> tuple[bool, float]:
    worst = float(gold_margins(acts, is_goal).min(initial=math.inf))
    return worst > 0 and worst >= floor, worst


def learn_class_rotation(
    base: ExponentMatrix,
    corners: CornerMatrix,
    target: SelectionTable,
    cfg: RotationLearnConfig = RotationLearnConfig(),
    class_label: str = "",
    rng: random.Random | None = None,
) -> RotationLearnResult:
    """Search a rotation composition that makes the base realize `target`.

    Each iteration spends one sub-iteration per paradigm cell, in row
    order. The sub-iteration for cell i rotates every column in one 2D
    plane: away from the coordinate where the intended exponent most
    out-weighs its strongest competitor at i (it can afford to lose there),
    toward one of the cell's own coordinates picked at random, through an
    angle of base_increment scaled by the sigmoid gain on the competitor's
    lead. The rotation sign is whichever of the two directions raises the
    intended exponent's toward-coordinate. Cells are processed whether or
    not they are currently correct; the gain merely shrinks as the intended
    exponent's lead grows, so a settled configuration is disturbed less and
    less. Convergence (checked after every sub-iteration) means the winners
    equal the target with the minimum margin at or above margin_floor.
    """
    target.require_one_hot()
    if rng is None:
        rng = random.Random(cfg.seed)
    b = np.array(base.matrix)
    phi = corners.matrix
    is_goal = target.matrix == 1.0
    plan: list[PlaneRotation] = []

    def current_result(iterations, converged, worst):
        return RotationLearnResult(
            RotationPlan(class_label, tuple(plan)), iterations, converged, worst
        )

    ok, worst = _margins_ok(phi @ b, is_goal, cfg.margin_floor)
    if ok:
        return current_result(0, True, worst)

    cell_coords = [list(np.flatnonzero(phi[i])) for i in range(phi.shape[0])]
    goal_index = target.matrix.argmax(axis=1).tolist()
    for it in range(1, cfg.max_iters + 1):
        for i in range(phi.shape[0]):
            acts = phi[i] @ b
            j_star = goal_index[i]
            # masked argmaxes: equal values go to the lowest index, as plans expect
            rival = int(np.argmax(np.where(is_goal[i], -np.inf, acts)))
            gain = sigmoid_gain(float(acts[rival]), float(acts[j_star]))
            theta = cfg.base_increment * gain
            toward = rng.choice(cell_coords[i])
            advantage = b[:, j_star] - b[:, rival]
            advantage[toward] = -np.inf
            away = int(np.argmax(advantage))
            c, s = math.cos(theta), math.sin(theta)
            x_away, x_toward = b[away].copy(), b[toward].copy()
            # counter-clockwise candidate in the (away, toward) plane
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
            ok, worst = _margins_ok(phi @ b, is_goal, cfg.margin_floor)
            if ok:
                return current_result(it, True, worst)
    _, worst = _margins_ok(phi @ b, is_goal, cfg.margin_floor)
    return current_result(cfg.max_iters, False, worst)


@dataclass
class ClassRunStats:
    class_label: str
    lexemes: int
    distance: int
    runs: int
    converged_runs: int
    mean_iterations: float | None
    mean_min_margin: float | None
    smallest_margin: float | None
    first_plan: RotationPlan | None = None  # plan of the first converged run


def learn_all_classes(
    inv: ClassInventory,
    cfg: RotationLearnConfig,
    min_lexemes: int = 3,
) -> tuple[list[ClassRunStats], str | None]:
    """Learn every class from the shared base; seeded per class and run."""
    base = base_configuration(inv, min_lexemes)
    base_label = class_of_base(base, inv)
    stats = []
    labels = inv.labels()
    for ci, label in enumerate(labels):
        conv = 0
        iters = []
        margins = []
        first_plan = None
        for run in range(cfg.runs):
            rng = random.Random(cfg.seed * 1_000_003 + ci * _RUN_SEED_STRIDE + run)
            res = learn_class_rotation(
                base, inv.corners, inv.classes[label], cfg, label, rng
            )
            if res.converged:
                conv += 1
                iters.append(res.iterations)
                margins.append(res.min_margin)
                if first_plan is None:
                    first_plan = res.plan
        distance = (
            inv.distance_between(label, base_label) if base_label is not None else -1
        )
        stats.append(
            ClassRunStats(
                label,
                inv.lexeme_counts[label],
                distance,
                cfg.runs,
                conv,
                float(np.mean(iters)) if iters else None,
                float(np.mean(margins)) if margins else None,
                float(np.min(margins)) if margins else None,
                first_plan,
            )
        )
    return stats, base_label


def deponent_transform(expo: ExponentMatrix, active_axis: int, passive_axis: int) -> ExponentMatrix:
    """Swap a voice pair by a three-quarter turn in the (active, passive) plane.

    The columns that used to realize the passive cells take over the active
    coordinates exactly, and the old active columns move to the negative
    passive half-space.
    """
    if active_axis == passive_axis:
        raise BadAxis("voice axes must differ")
    return apply_rotation(
        expo, [PlaneRotation(active_axis, passive_axis, 3.0 * math.pi / 2.0)]
    )


def gram_matrix(expo: ExponentMatrix) -> np.ndarray:
    """Pairwise inner products of the exponent columns (rigidity witness)."""
    return _frozen(expo.matrix.T @ expo.matrix)
