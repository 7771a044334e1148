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
from typing import NamedTuple

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
from .seeds import seeded_random


@dataclass(frozen=True)
class PlaneRotation:
    """Rotation by theta in the coordinate plane (axis_i, axis_j)."""

    axis_i: int
    axis_j: int
    theta: float

    def __post_init__(self):
        if self.axis_i == self.axis_j or self.axis_i < 0 or self.axis_j < 0:
            raise BadAxis(f"bad plane ({self.axis_i}, {self.axis_j})")


@dataclass(frozen=True)
class RotationPlan:
    """Ordered plane rotations deriving one class from the base configuration.

    Step k rotates by `theta[k]` in the plane (`axis_i[k]`, `axis_j[k]`).
    """

    class_label: str
    axis_i: tuple[int, ...]
    axis_j: tuple[int, ...]
    theta: tuple[float, ...]

    @property
    def rotations(self) -> tuple[PlaneRotation, ...]:
        return tuple(map(PlaneRotation, self.axis_i, self.axis_j, self.theta))

    def as_dicts(self):
        return [
            {"i": i, "j": j, "theta": theta}
            for i, j, theta in zip(self.axis_i, self.axis_j, self.theta)
        ]


def apply_rotation(expo: ExponentMatrix, rotations) -> ExponentMatrix:
    """Apply a sequence of plane rotations in order to every exponent column."""
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
    if min_lexemes < 1:
        raise ValueError(f"min_lexemes must be at least 1, got {min_lexemes}")
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
        if not (math.isfinite(self.base_increment) and self.base_increment > 0):
            raise ValueError("base_increment must be finite and positive")
        if not math.isfinite(self.margin_floor):
            raise ValueError("margin_floor must be finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be at least 0")
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


def _margins_ok(acts: np.ndarray, is_goal: np.ndarray, floor: float):
    """Worst gold margin of each stacked cells x exponents matrix, and whether it clears `floor`.

    `acts` and `is_goal` have shape (..., cells, exponents); one matrix gives
    a scalar pair, a (lanes, cells, exponents) stack one pair per lane.
    """
    m = acts.shape[-1]
    margins = gold_margins(acts.reshape(-1, m), is_goal.reshape(-1, m))
    worst = margins.reshape(acts.shape[:-1]).min(axis=-1, initial=math.inf)
    return (worst > 0) & (worst >= floor), worst


class RunRecord(NamedTuple):
    """Outcome of one learner run; `rotations` is the length of its plan."""

    converged: bool
    iterations: int
    min_margin: float
    rotations: int


_BLOCK = 64  # sub-iterations whose random picks are drawn at once
_WORDS = 3 * _BLOCK  # 32-bit words a lane short of picks draws at once


def _choice_indices(rngs: list[random.Random], queue: np.ndarray, n: int, block: int):
    """The next `block` values of each lane's `rng.choice(range(n))` stream.

    `Random.choice` of n items takes 32-bit Mersenne words, each shifted right
    by 32 - n.bit_length(), until one is below n; `getrandbits(32 * w)` returns
    the next w words, least significant first. So a lane draws its words in
    blocks, and `queue` (lanes, k) holds every lane's shifted words not used
    yet: the accepted ones first, in stream order, then values >= n.
    Returns the picks as a (block, lanes) array and the queue left over.
    """
    shift = 32 - n.bit_length()
    while True:
        have = np.count_nonzero(queue < n, axis=1)
        short = np.flatnonzero(have < block)
        if not short.size:
            return queue[:, :block].T, queue[:, block : have.max()]
        words = b"".join([rngs[lane].getrandbits(32 * _WORDS).to_bytes(4 * _WORDS, "little")
                          for lane in short.tolist()])
        drawn = np.full((len(rngs), _WORDS), n, dtype=np.uint32)
        drawn[short] = np.frombuffer(words, dtype="<u4").reshape(short.size, _WORDS) >> shift
        queue = np.concatenate((queue, drawn), axis=1)
        # move each lane's accepted words to the front, keeping their order
        order = np.argsort(queue >= n, axis=1, kind="stable")
        queue = queue.take(order + np.arange(0, queue.size, queue.shape[1])[:, None])


def _learn_lanes(
    base: np.ndarray,
    phi: np.ndarray,
    goals: np.ndarray,
    rngs: list[random.Random],
    cfg: RotationLearnConfig,
) -> tuple[list[RunRecord], list]:
    """Run the rotation search of `learn_class_rotation` for many lanes in lockstep.

    A lane is one run towards one target: its own copy of `base`, its own
    goal mask `goals[lane]` (cells x exponents) and its own random stream
    `rngs[lane]`. Lanes share the corner matrix `phi` and the cell order, so
    every live lane spends the same sub-iteration on the same cell, and the
    (lanes, dim, exponents) stack is rotated with array operations. One
    product `phi @ b` per sub-iteration serves both the margin check and the
    next sub-iteration, which reads its cell's row of it. Per lane, the
    arithmetic and the random picks are exactly those of a run on its own:
    the picks are `rng.choice` of the cell's coordinates, drawn for a block
    of sub-iterations at once, and the gain, cos, sin and sign test are one
    pass of `math` scalars per sub-iteration. Converged lanes leave the
    stacks, so a sub-iteration costs what the live lanes need.

    Returns one record per lane and the sub-iteration log `_plan` reads.
    """
    cells, (dim, morph) = phi.shape[0], base.shape
    per_cell = np.count_nonzero(phi, axis=1)
    if not per_cell.all() or (per_cell != per_cell[0]).any():
        raise ShapeMismatch("every cell needs the same, non-zero number of coordinates")
    coords = np.nonzero(phi)[1].reshape(cells, -1)  # each cell's coordinates, ascending
    records: list[RunRecord | None] = [None] * len(rngs)
    live = np.arange(len(rngs))  # ids of the lanes still searching, ascending
    b = np.repeat(base[None], live.size, axis=0)
    is_goal, goal_index = goals, goals.argmax(axis=2)
    queue = np.empty((live.size, 0), dtype=np.uint32)  # per lane, drawn words not used yet
    towards = np.empty((0, live.size), dtype=coords.dtype)  # toward coordinates, (block, lanes)
    log = []  # one _stretch per run of sub-iterations with unchanged live lanes
    steps = None  # the current stretch, per sub-iteration: away, toward, signed angles
    done = 0  # sub-iterations every live lane has taken
    stack = phi @ b  # (lanes, cells, exponents): every live lane's activations
    ok, worst = _margins_ok(stack, is_goal, cfg.margin_floor)
    while True:
        # drop the lanes that just converged; the first pass builds the stacks
        if steps is None or ok.any():
            if steps:
                log.append(_stretch(live, steps, dim))
            for lane, w in zip(live[ok].tolist(), worst[ok].tolist()):
                records[lane] = RunRecord(True, -(-done // cells), w, done)
            keep = ~ok
            live, b, stack, is_goal, goal_index, worst, queue, towards = (
                live[keep], b[keep], stack[keep], is_goal[keep], goal_index[keep], worst[keep],
                queue[keep], towards[:, keep],
            )
            rngs = [rng for rng, k in zip(rngs, keep.tolist()) if k]
            steps = []
            lanes = np.arange(live.size)
            rows = b.reshape(-1, morph)  # lane l, axis d is row l * dim + d
            first_row = lanes * dim
            goal_of_cell = goal_index.T.tolist()
            # where each lane's goal exponent sits in the rows (away, toward) that
            # a sub-iteration moves, stacked into one flat array, per cell
            goal_at = lanes * morph + goal_index.T
            goal_moved = np.concatenate((goal_at, goal_at + live.size * morph), axis=1)
        if not live.size or done == cfg.max_iters * cells:
            break
        t = done % _BLOCK
        if t == 0:
            block = min(_BLOCK, cfg.max_iters * cells - done)
            picks, queue = _choice_indices(rngs, queue, coords.shape[1], block)
            towards = coords[(done + np.arange(block))[:, None] % cells, picks]
        i = done % cells
        acts = stack[:, i]
        # masked argmaxes: equal values go to the lowest index, as plans expect
        rival = np.where(is_goal[:, i], -np.inf, acts).argmax(axis=1)
        toward_rows = first_row + towards[t]
        advantage = b[lanes, :, goal_index[:, i]] - b[lanes, :, rival]
        advantage.put(toward_rows, -np.inf)
        away = advantage.argmax(axis=1)
        # rows (away, toward, toward, away): the rows to rotate, then their partners
        away_rows = first_row + away
        moved = np.concatenate((away_rows, toward_rows))
        x = rows.take(np.concatenate((moved, toward_rows, away_rows)), axis=0)
        cos, sin, signed = [], [], []
        for row, r, j, x_away, x_toward in zip(
            acts.tolist(), rival.tolist(), goal_of_cell[i],
            *x.take(goal_moved[i]).reshape(2, -1).tolist(),
        ):
            theta = cfg.base_increment * sigmoid_gain(row[r], row[j])
            c, s = math.cos(theta), math.sin(theta)
            # counter-clockwise in the (away, toward) plane unless clockwise raises the
            # intended exponent's toward-coordinate more; rotating by -s is that branch, exactly
            s_goal, c_goal = s * x_away, c * x_toward
            if not s_goal + c_goal >= c_goal - s_goal:
                theta, s = -theta, -s
            cos.append(c)
            sin.append(s)
            signed.append(theta)
        # away rows become c * x_away - s * x_toward, toward rows c * x_toward + s * x_away
        x *= np.array(cos + cos + [-v for v in sin] + sin)[:, None]
        rows[moved] = x[: 2 * live.size] + x[2 * live.size :]
        steps.append((away, towards[t], signed))
        done += 1
        stack = phi @ b
        ok, worst = _margins_ok(stack, is_goal, cfg.margin_floor)
    if steps:
        log.append(_stretch(live, steps, dim))
    for lane, w in zip(live.tolist(), worst.tolist()):
        records[lane] = RunRecord(False, cfg.max_iters, w, done)
    return records, log


def _stretch(live: np.ndarray, steps: list, dim: int) -> tuple:
    """Sub-iteration records of unchanged live lanes as (sub-iterations, lanes) arrays."""
    away, toward, signed = zip(*steps)
    axis = np.min_scalar_type(dim)
    return live, np.array(away, dtype=axis), np.array(toward, dtype=axis), np.array(signed)


def _plan(log: list, lane: int, record: RunRecord, label: str) -> RotationPlan:
    """Rebuild one lane's rotation plan from the sub-iteration log."""
    columns = ([], [], [])
    for live, *stretch in log:
        n = record.rotations - len(columns[0])
        if not n:
            break
        k = live.searchsorted(lane)
        for column, steps in zip(columns, stretch):
            column += steps[:n, k].tolist()
    return RotationPlan(label, *map(tuple, columns))


def learn_class_rotation(
    base: ExponentMatrix,
    corners: CornerMatrix,
    target: SelectionTable,
    cfg: RotationLearnConfig = RotationLearnConfig(),
    class_label: str = "",
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

    This is the one-lane case of the lockstep search `learn_all_classes` runs.
    """
    target.require_one_hot()
    (record,), log = _learn_lanes(
        base.matrix, corners.matrix, (target.matrix == 1.0)[None], [seeded_random(cfg.seed)], cfg
    )
    return RotationLearnResult(
        _plan(log, 0, record, class_label), record.iterations, record.converged, record.min_margin
    )


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
    run_records: tuple[RunRecord, ...] = ()  # one per run, in run order


def run_seed(cfg: RotationLearnConfig, class_index: int, run: int) -> int:
    """Seed of run `run` for the `class_index`-th class; distinct while runs < 1009."""
    return cfg.seed * 1_000_003 + class_index * _RUN_SEED_STRIDE + run


def learn_all_classes(
    inv: ClassInventory,
    cfg: RotationLearnConfig,
    min_lexemes: int = 3,
) -> tuple[list[ClassRunStats], str | None]:
    """Learn every class from the shared base; seeded per class and run.

    Every (class, run) pair is one lane of a single lockstep search, and
    each run's result is the one `learn_class_rotation` gives it alone.
    """
    base = base_configuration(inv, min_lexemes)
    base_label = class_of_base(base, inv)
    labels = inv.labels()
    goals = np.stack([inv.classes[label].matrix == 1.0 for label in labels])
    rngs = [seeded_random(run_seed(cfg, ci, run))
            for ci in range(len(labels)) for run in range(cfg.runs)]
    records, log = _learn_lanes(
        base.matrix, inv.corners.matrix, np.repeat(goals, cfg.runs, axis=0), rngs, cfg
    )
    stats = []
    for ci, label in enumerate(labels):
        runs = records[ci * cfg.runs : (ci + 1) * cfg.runs]
        done = [run for run, r in enumerate(runs) if r.converged]
        iters = [runs[run].iterations for run in done]
        margins = [runs[run].min_margin for run in done]
        first_plan = (
            _plan(log, ci * cfg.runs + done[0], runs[done[0]], label) if done else None
        )
        distance = (
            inv.distance_between(label, base_label) if base_label is not None else -1
        )
        stats.append(
            ClassRunStats(
                label,
                inv.lexeme_counts[label],
                distance,
                cfg.runs,
                len(done),
                float(np.mean(iters)) if iters else None,
                float(np.mean(margins)) if margins else None,
                float(np.min(margins)) if margins else None,
                first_plan,
                tuple(runs),
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
