"""Inflection classes as rigid rotations of a shared exponent configuration.

All classes of a language share one configuration of exponent vectors,
fixed up to rotation. The weighted count initialization over the frequent
classes gives the base configuration; every class is then reachable by a
learned composition of 2D plane rotations, each rotation applied to every
exponent column alike so lengths and mutual angles never change.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BadAxis, EmptyFilter, ShapeMismatch
from .exponence import (
    CountArray,
    ExponentMatrix,
    SelectionTable,
    _convergence_test,
    _margin_positions,
    _worst_margins,
    activations,
    decide,
    normalize_columns,
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
    """Gold selection tables per class, as a (classes, cells, exponents) mask `goals` too."""

    corners: CornerMatrix
    morphemes: tuple[str, ...]
    classes: dict[str, SelectionTable]
    lexeme_counts: dict[str, int]
    goals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for label, table in self.classes.items():
            if table.morphemes != self.morphemes:
                raise ShapeMismatch(f"class {label!r} uses different morphemes")
            if table.row_labels != self.corners.row_labels:
                raise ShapeMismatch(f"class {label!r} uses different cells")
            table.require_one_hot()
        if set(self.lexeme_counts) != set(self.classes):
            raise ShapeMismatch("lexeme counts must cover exactly the classes")
        tables = [table.matrix for table in self.classes.values()]
        goals = np.reshape(tables, (-1, self.corners.num_cells, len(self.morphemes))) == 1.0
        object.__setattr__(self, "goals", _frozen(goals))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.classes)

    def distance_between(self, a: str, b: str) -> int:
        """Number of cells where two classes pick different exponents."""
        return int((self.classes[a].matrix != self.classes[b].matrix).any(axis=1).sum())


def weighted_counts(inv: ClassInventory, min_lexemes: int = 3):
    """Lexeme-count-weighted feature counts over the frequent classes, `cornersᵀ · Σ n_c G_c`:
    every entry is an integer below 2**53, so it equals Σ n_c · count_features bit for bit."""
    if min_lexemes < 1:
        raise ValueError(f"min_lexemes must be at least 1, got {min_lexemes}")
    labels = inv.labels()
    weights = [n if (n := inv.lexeme_counts[label]) >= min_lexemes else 0 for label in labels]
    kept = [label for label, n in zip(labels, weights) if n]
    if not kept:
        raise EmptyFilter(f"no class has at least {min_lexemes} lexemes")
    weighted = np.array(weights, dtype=float) @ inv.goals.transpose(1, 0, 2)  # cell by cell
    return CountArray(inv.morphemes, inv.corners.matrix.T @ weighted), kept


def base_configuration(inv: ClassInventory, min_lexemes: int = 3) -> ExponentMatrix:
    """Normalized weighted counts: the shared configuration all classes rotate."""
    counts, _ = weighted_counts(inv, min_lexemes)
    return normalize_columns(counts)


def class_of_base(expo: ExponentMatrix, inv: ClassInventory) -> str | None:
    """Which class, if any, the configuration realizes as-is: the first whose table it selects."""
    winners, _ = decide(activations(inv.corners, expo).matrix)
    # one-hot rows agree where their winners do; a tie (-1) or another width agrees with none
    hits = (inv.goals.argmax(axis=2) == winners).all(axis=1)
    other_width = expo.matrix.shape[1] != len(inv.morphemes)
    return None if other_width or not hits.any() else inv.labels()[hits.argmax()]


def sigmoid_gain(a_winner: float, a_intended: float) -> float:
    """Squared logistic gain on the winner-minus-intended activation gap.

    Small when the intended exponent already leads, saturating toward 1 the
    further it trails.
    """
    return 1.0 / (1.0 + math.exp(-2.0 * (a_winner - a_intended))) ** 2


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
        if not -(2**63) <= self.seed < 2**63:  # where seed mod 2**64 is one-to-one
            raise ValueError(f"seed must be in [-2**63, 2**63), got {self.seed}")


@dataclass
class RotationLearnResult:
    plan: RotationPlan
    iterations: int
    converged: bool
    min_margin: float


class RunRecord(NamedTuple):
    """Outcome of one learner run; `rotations` is the length of its plan."""

    converged: bool
    iterations: int
    min_margin: float
    rotations: int


_BLOCK = 64  # sub-iterations whose toward picks are computed at once
_FINISH_LANES = 2  # lanes few enough to finish one at a time on Python floats
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment, the step of a pick stream
_MASK = 2**64 - 1


def _mix(z):
    """splitmix64's output function: of a Python int below 2**64, or of a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _word(key, k):
    """Word k of the stream keyed by `key`: Python ints, or uint64 arrays elementwise.

    numpy wraps array sums and products mod 2**64 silently; uint64 scalars would warn.
    """
    return _mix((key + k * _GAMMA) & _MASK)


def _pick(key, k, n):
    """Which of a cell's n coordinates sub-iteration k of the run keyed by `key` turns toward."""
    return _word(key, k) % n


def _run_key(seed: int, c, r):
    """Key of run r of class c: word r of the stream keyed by word c of the seed's stream.

    `_mix` is one-to-one and `_GAMMA` odd, so distinct classes of one seed
    get distinct keys, and so do distinct runs of one class; distinct seeds
    of a config have distinct `seed & _MASK`. A key depends on nothing else,
    so run r of class c is the same run in any batch.
    """
    return _word(_word(_mix(seed & _MASK), c), r)


def _learn_lanes(base: np.ndarray, phi: np.ndarray, goals: np.ndarray, keys: np.ndarray,
                 cfg: RotationLearnConfig) -> tuple[list[RunRecord], list]:
    """Run the rotation search of `learn_class_rotation` for many lanes in lockstep.

    A lane is one run towards one target: its own copy of `base`, its own
    goal mask `goals[lane]` (cells x exponents) and its own pick stream key
    `keys[lane]`. Lanes share the corner matrix `phi` and the cell order, so
    every live lane spends the same sub-iteration on the same cell, and the
    (lanes, dim, exponents) stack is rotated with array operations. One
    product `phi @ b` per sub-iteration serves both the margin check and the
    next sub-iteration, which reads its cell's row of it. The check runs once
    per iteration, before the first and then over the stacked products of
    the iteration's sub-iterations: the least goal-minus-rival difference per
    lane and sub-iteration at flat positions, then one comparison chosen from
    the floor. A lane's record is that of its first converged sub-iteration;
    it takes the rest of the iteration's steps, which lie past its plan's
    end, and leaves the stacks at the check, so lanes drop at most once per
    iteration. A drop takes the live lanes' goal and rival positions from
    tables built once, and rotated rows go back through a whole-row view.
    Per lane, arithmetic and picks are exactly those of a run on its own:
    sub-iteration k turns toward coordinate `_pick(key, k, n)` of the cell's
    n, found for all live lanes and `_BLOCK` sub-iterations at once, and the
    gain (`sigmoid_gain` inline), cos, sin and sign test are `math` scalars.

    A sub-iteration costs about the same numpy calls for one lane as for
    sixteen, so once at most `_FINISH_LANES` lanes are left, each finishes
    alone in `_finish_lane`, which goes on with its picks from the
    sub-iteration reached. Their steps close the log as one stretch.

    Returns one record per lane and the sub-iteration log `_plans` reads.
    """
    cells, (dim, morph) = phi.shape[0], base.shape
    per_cell = np.count_nonzero(phi, axis=1)
    if not per_cell.all() or (per_cell != per_cell[0]).any():
        raise ShapeMismatch("every cell needs the same, non-zero number of coordinates")
    coords = np.nonzero(phi)[1].reshape(cells, -1)  # each cell's coordinates, ascending
    converged, inc = _convergence_test(cfg.margin_floor), cfg.base_increment
    limit, row_type = cfg.max_iters * cells, np.dtype((np.void, morph * base.itemsize))  # b's rows
    records: list[RunRecord | None] = [None] * len(keys)
    live = np.arange(len(keys))  # ids of the lanes still searching, ascending
    b = np.repeat(base[None], live.size, axis=0)
    goal_at, rival_at = _margin_positions(goals)  # a drop takes them from each lane's start
    start = np.arange(0, goals.size, cells * morph)[:, None]  # in a raveled stack of products
    goal_in, rival_in, goal_index = goal_at - start, rival_at - start, goals.argmax(axis=2).T
    col_ats = np.arange(0, b.size, morph).reshape(-1, dim)  # b.reshape(-1) at (lane, axis, 0)
    no_goal = np.where(goals, -np.inf, 0.0).transpose(1, 0, 2)  # added to acts, hides the goals
    towards = np.empty((0, live.size), dtype=coords.dtype)  # toward coordinates, (block, lanes)
    log = []  # one _stretch per run of sub-iterations with unchanged live lanes
    steps = None  # the current stretch, per sub-iteration: away, toward, signed angles
    done = 0  # sub-iterations every live lane has taken
    checked = (phi @ b)[None]  # (sub-iterations, lanes, cells, exponents): products to check
    while True:
        margins = _worst_margins(checked.reshape(len(checked), -1), goal_at, rival_at)
        ok = converged(margins)
        stack, worst = checked[-1], margins[-1]  # the activations the next sub-iteration reads
        # drop the lanes that converged; the first pass builds the positions
        if steps is None or ok.any():
            if steps:
                log.append(_stretch(live, steps))
            hit = ok.any(axis=0)
            gone, kept = hit.nonzero()[0], (~hit).nonzero()[0]
            first = ok.argmax(axis=0)[gone]  # each converged lane's first converged product
            for lane, d, w in zip(live[gone].tolist(), (done + 1 - len(checked) + first).tolist(),
                                  margins[first, gone].tolist()):
                records[lane] = RunRecord(True, -(-d // cells), w, d)
            live, b, stack, worst, keys = (x.take(kept, axis=0)
                                           for x in (live, b, stack, worst, keys))
            n, steps = live.size, []
            goal_at, rival_at = (at.take(live, axis=0) + start[:n] for at in (goal_in, rival_in))
            hide_goal, goal_of_cell = no_goal.take(live, axis=1), goal_index.take(live, axis=1)
            goal_list = goal_of_cell.tolist()
            # lane l, axis d is row l * dim + d; `put` writes whole rows through the row view
            rows, flat_b, row_view = b.reshape(-1, morph), b.reshape(-1), b.view(row_type).ravel()
            col_at, first_row = col_ats[:n], col_ats[:n, 0] // morph
            goal_col = col_at + goal_of_cell[:, :, None]  # per cell, each lane's goal column
            towards = towards.take(kept, axis=1)
            toward_rows = first_row + towards
        if live.size <= _FINISH_LANES or done == limit:
            break
        checked = np.empty((cells, *stack.shape))
        for i, product in enumerate(checked):  # one iteration: sub-iteration i is on cell i
            t = done % _BLOCK
            if t == 0:
                k = np.arange(done, min(done + _BLOCK, limit), dtype=np.uint64)[:, None]
                towards = coords[k % cells, _pick(keys, k, coords.shape[1])]
                toward_rows = first_row + towards
            acts = stack[:, i]
            # masked argmaxes: equal values go to the lowest index, as plans expect
            rival = (acts + hide_goal[i]).argmax(axis=1)
            goal_x = flat_b.take(goal_col[i])  # (lanes, dim): each lane's goal column
            advantage = goal_x - flat_b.take(col_at + rival[:, None])
            advantage.put(toward_rows[t], -np.inf)
            away = advantage.argmax(axis=1)
            away_rows = first_row + away
            # rows (away, toward, toward, away): the rows to rotate, then their partners
            at = np.concatenate((away_rows, toward_rows[t], toward_rows[t], away_rows))
            moved = at[: 2 * n]
            x = rows.take(at, axis=0)
            x_goal = goal_x.take(moved).tolist()  # the goal exponent's away, then toward coordinates
            cos, sin, nsin, signed = [], [], [], []
            for row, r, j, x_away, x_toward in zip(
                acts.tolist(), rival.tolist(), goal_list[i], x_goal[:n], x_goal[n:]
            ):
                theta = inc * (1.0 / (1.0 + math.exp(-2.0 * (row[r] - row[j]))) ** 2)
                c, s = math.cos(theta), math.sin(theta)
                # counter-clockwise in the (away, toward) plane unless clockwise raises the
                # intended exponent's toward-coordinate more; rotating by -s is that branch, exactly
                s_goal, c_goal = s * x_away, c * x_toward
                if not s_goal + c_goal >= c_goal - s_goal:
                    theta, s = -theta, -s
                cos.append(c)
                sin.append(s)
                nsin.append(-s)
                signed.append(theta)
            # away rows become c * x_away - s * x_toward, toward rows c * x_toward + s * x_away
            factors = np.array(cos + cos + nsin + sin + signed)
            x *= factors[: 4 * n, None]
            row_view.put(moved, (x[: 2 * n] + x[2 * n :]).view(row_type))
            steps.append((away, towards[t], factors[4 * n :]))  # the signed angles ride along
            np.matmul(phi, b, out=product)
            stack = product
            done += 1
    if steps:
        log.append(_stretch(live, steps))
    if done == limit:
        for lane, w in zip(live.tolist(), worst.tolist()):
            records[lane] = RunRecord(False, cfg.max_iters, w, done)
        return records, log
    tails = []
    for k, (lane, key) in enumerate(zip(live.tolist(), keys.tolist())):
        records[lane], tail = _finish_lane(phi, b[k].tolist(), stack[k].tolist(),
                                           goal_index[:, lane].tolist(), coords.tolist(), key,
                                           done, cfg)
        tails.append(tail)
    if tails:  # one stretch for the finished lanes, shorter steps padded past their plans' ends
        log.append((live, *(np.array(list(itertools.zip_longest(*column, fillvalue=0)))
                            for column in zip(*tails))))
    return records, log


def _finish_lane(phi: np.ndarray, b: list[list[float]], acts: list[list[float]], goal: list[int],
                 coords: list[list[int]], key: int, done: int,
                 cfg: RotationLearnConfig) -> tuple[RunRecord, tuple[list, list, list]]:
    """Go on with one lane of `_learn_lanes` alone, on Python floats, from sub-iteration `done`.

    `b` is the lane's configuration and `acts` its activations `phi @ b`,
    both as lists of rows; `goal[c]` is the goal exponent of cell c and
    `coords[c]` the cell's coordinates. Sub-iteration k turns toward
    coordinate `_pick(key, k, n)` of its cell's n, as in the lockstep (all
    found at once), so only the key is handed over. Every decision and every
    rounding is the lockstep's: rival and away are first maxima, as `argmax`;
    the rows rotate as `c * x + (-s) * y` and `c * y + s * x`; and the
    activations are the rows of one 2-D product `phi @ b` per sub-iteration,
    which rounds as the stacked product does and as `activations` computes
    them. The test is one comparison on the least, over cells, of the goal
    minus its largest rival, so a step stops at the first cell that fails
    it, trying first the cell that failed the step before. The worst margin
    (`exponence._worst_margins` on the lane) is computed once, for the record.

    Returns the lane's record and its steps: away axes, toward axes and signed angles.
    """
    cells, converged = len(coords), _convergence_test(cfg.margin_floor)
    steps = away_log, toward_log, theta_log = [], [], []
    picks = _pick(key, np.arange(done, cfg.max_iters * cells, dtype=np.uint64), len(coords[0]))

    def margin(row, j):  # the goal's lead over its largest rival in one row of activations
        return row[j] - max(row[:j] + row[j + 1 :], default=-math.inf)

    stuck = 0  # the cell that failed the last check: it most often fails the next one too
    for done, pick in enumerate(picks.tolist(), done):
        i = done % cells
        row, j = acts[i], goal[i]
        g, row[j] = row[j], -math.inf
        r = row.index(max(row))
        row[j] = g
        theta = cfg.base_increment * sigmoid_gain(row[r], g)
        c, s = math.cos(theta), math.sin(theta)
        toward = coords[i][pick]
        advantage = [x[j] - x[r] for x in b]
        advantage[toward] = -math.inf
        away = advantage.index(max(advantage))
        x_away, x_toward = b[away], b[toward]
        s_goal, c_goal = s * x_away[j], c * x_toward[j]
        if not s_goal + c_goal >= c_goal - s_goal:
            theta, s = -theta, -s
        b[away] = [c * x + -s * y for x, y in zip(x_away, x_toward)]
        b[toward] = [c * y + s * x for x, y in zip(x_away, x_toward)]
        away_log.append(away)
        toward_log.append(toward)
        theta_log.append(theta)
        acts = (phi @ np.array(b)).tolist()
        for stuck in (stuck, *range(cells)):  # the test is one comparison on the least margin
            row, j = acts[stuck], goal[stuck]
            g, row[j] = row[j], -math.inf
            lead, row[j] = g - max(row), g
            if not converged(lead):
                break
        else:
            break
    worst = min(map(margin, acts, goal))
    return RunRecord(converged(worst), -(-(done + 1) // cells), worst, done + 1), steps


def _stretch(live: np.ndarray, steps: list) -> tuple:
    """Sub-iteration records of unchanged live lanes as (sub-iterations, lanes) arrays."""
    return live, *(np.concatenate(column).reshape(len(steps), -1) for column in zip(*steps))


def _plans(log: list, wanted: list[tuple[int, int, str]]) -> list[RotationPlan]:
    """The rotation plans of the lanes in `wanted`, given as (lane, plan length, label)."""
    lanes = np.array([lane for lane, _, _ in wanted], dtype=np.intp)
    lengths, rows = [n for _, n, _ in wanted], [len(entry[1]) for entry in log]
    # a lane is live in every stretch until its plan ends, so step g of its plan is in
    # sub-iteration g of the stretches laid end to end, at the lane's place among their lanes
    widths = np.repeat(np.array([entry[0].size for entry in log], dtype=np.intp), rows)
    places = np.array([entry[0].searchsorted(lanes) for entry in log], dtype=np.intp)
    at = places.reshape(len(log), lanes.size).repeat(rows, axis=0).T + (np.cumsum(widths) - widths)
    at = at[np.arange(widths.size) < np.array(lengths, dtype=np.intp)[:, None]]  # plan by plan
    # one read of each column: its stretches raveled end to end, every plan's steps taken at once
    i, j, theta = [np.concatenate([np.empty(0, np.intp), *[entry[c] for entry in log]], axis=None)
                   .take(at).tolist() for c in (1, 2, 3)]
    return [RotationPlan(label, tuple(i[a:a + n]), tuple(j[a:a + n]), tuple(theta[a:a + n]))
            for (_, n, label), a in zip(wanted, itertools.accumulate(lengths, initial=0))]


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

    The pick of sub-iteration k is `_pick(key, k, n)` with the run's key
    `_run_key(cfg.seed, 0, 0)`: this is run 0 of class 0 of a
    `learn_all_classes` batch at the same seed, and the one-lane case of its
    lockstep search, so after the first check its lane finishes alone on
    Python floats.
    """
    if (base.morphemes != target.morphemes or target.row_labels != corners.row_labels
            or base.matrix.shape[0] != corners.matrix.shape[1]):
        raise ShapeMismatch("base, corners and target must agree on morphemes, cells and axes")
    target.require_one_hot()
    (record,), log = _learn_lanes(
        base.matrix, corners.matrix, (target.matrix == 1.0)[None],
        np.array([_run_key(cfg.seed, 0, 0)], dtype=np.uint64), cfg
    )
    (plan,) = _plans(log, [(0, record.rotations, class_label)])
    return RotationLearnResult(plan, record.iterations, record.converged, record.min_margin)


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


def learn_all_classes(
    inv: ClassInventory,
    cfg: RotationLearnConfig,
    min_lexemes: int = 3,
) -> tuple[list[ClassRunStats], str | None]:
    """Learn every class from the shared base, `cfg.runs` runs per class.

    Every (class, run) pair is one lane of a single lockstep search, keyed
    `_run_key(cfg.seed, class index, run)`, and each run's result is the
    sequential run at its key. Lane memory grows with classes x runs.
    """
    labels, goals = inv.labels(), inv.goals
    base = base_configuration(inv, min_lexemes)
    base_label = class_of_base(base, inv)
    keys = _run_key(cfg.seed, np.arange(len(labels), dtype=np.uint64)[:, None],
                    np.arange(cfg.runs, dtype=np.uint64)).ravel()
    records, log = _learn_lanes(
        base.matrix, inv.corners.matrix, np.repeat(goals, cfg.runs, axis=0), keys, cfg
    )
    per_class = [records[ci * cfg.runs : (ci + 1) * cfg.runs] for ci in range(len(labels))]
    firsts = [next((run for run, r in enumerate(runs) if r.converged), None) for runs in per_class]
    plans = iter(_plans(log, [(ci * cfg.runs + run, per_class[ci][run].rotations, labels[ci])
                              for ci, run in enumerate(firsts) if run is not None]))
    distances = ((goals != goals[labels.index(base_label)]).any(axis=2).sum(axis=1).tolist()
                 if base_label is not None else [-1] * len(labels))  # distance_between, at once
    stats = []
    for label, runs, distance in zip(labels, per_class, distances):
        done = [r for r in runs if r.converged]
        iters, margins = [r.iterations for r in done], [r.min_margin for r in done]
        stats.append(ClassRunStats(
            label, inv.lexeme_counts[label], distance, cfg.runs, len(done),
            sum(iters) / len(iters) if iters else None,  # exact, as np.mean is on ints
            float(np.add.reduce(margins) / len(margins)) if margins else None,  # np.mean's bits
            min(margins) if margins else None,  # converged margins are positive: no -0.0
            next(plans) if done else None, tuple(runs),
        ))
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
