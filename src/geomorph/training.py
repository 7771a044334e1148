"""Error-driven delta-rule training of exponent vectors.

One training pass sweeps the paradigm cells in row order. At every visited
cell each exponent column moves by eta * (target - activation) * corner,
and the columns are renormalized to unit length immediately after the
cell's update; activations always reflect the vectors as they currently
stand, each the cell's row of the product `activations` computes. With
error_driven set, only cells whose strict winner disagrees with the gold
choice are visited.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatch, UpdateOverflow, ZeroColumn
# activations and evaluate are unused here, but the benchmark's tracer rebinds
# both names in this module, so they stay imported
from .exponence import (  # noqa: F401
    ExponentMatrix,
    SelectionTable,
    activations,
    decide,
    evaluate,
    gold_margin,
)
from .features import CornerMatrix


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.1
    error_driven: bool = True
    max_iters: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be finite and non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


class TraceRecord(NamedTuple):
    """One training pass; `_asdict()` is its trace line."""

    iteration: int
    mismatches: int
    min_margin: float
    updated: list[str]  # morphemes whose vectors moved this pass


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def _working_state(expo, corners, gold, cfg, stack):
    """A writable copy `b` of the exponents and `run`, one pass on `b` and on `stack`.

    `stack` must be a writable `corners @ expo.matrix`. `run()` moves `b` in
    place, keeps `stack` equal to `corners @ b` and returns the moved columns'
    names. The first pass builds what every pass reads, per cell its row of
    `stack`, target row, eta-scaled corner column and gold index (nothing at
    eta 0, which moves nothing). Only the updates run under
    `np.errstate(over="raise")`, as only they can overflow.
    """
    c, error_driven, cells = corners.matrix, cfg.error_driven, []
    b = np.array(expo.matrix)
    (err, norms), (update, squares) = np.empty((2, b.shape[1])), np.empty((2, *b.shape))

    def run() -> list[str]:
        if cfg.eta and not cells:
            cells.extend(zip(stack, gold.matrix, cfg.eta * c[:, :, None],
                             gold.matrix.argmax(axis=1).tolist()))
        moved = [False] * b.shape[1]
        try:
            with np.errstate(over="raise"):
                for acts, target, eta_col, g in cells:
                    a = acts.tolist()
                    if error_driven and gold_margin(a, g) > 0:
                        continue
                    np.subtract(target, acts, out=err)
                    np.add(b, np.multiply(eta_col, err, out=update), out=b)
                    # np.linalg.norm(b, axis=0) on real input minus its call overhead;
                    # any other order of the sum (a gemm, a row sum) changes the last bit
                    np.add.reduce(np.multiply(b, b, out=squares), axis=0, out=norms)
                    np.sqrt(norms, out=norms)
                    if min(norms.tolist()) < 1e-12:
                        raise ZeroColumn("update drove an exponent column to zero")
                    np.divide(b, norms, out=b)
                    np.matmul(c, b, out=stack)
                    if not all(moved):
                        for j, x in enumerate(a):  # column j moves unless target - x == 0
                            if x != (1.0 if j == g else 0.0):
                                moved[j] = True
        except FloatingPointError:
            raise UpdateOverflow(
                f"eta {cfg.eta!r} overflows the delta-rule update; use a smaller eta"
            ) from None
        return [m for m, hit in zip(expo.morphemes, moved) if hit]

    return b, run


def delta_step(expo: ExponentMatrix, corners: CornerMatrix, gold: SelectionTable,
               cfg: TrainConfig) -> tuple[ExponentMatrix, tuple[str, ...]]:
    """One pass over all cells; returns the updated matrix and moved columns.

    It is `train`'s pass, run once on a copy of `expo`. Corners must be 0/1
    with a 1 in every row, as `build_corner_matrix` makes them. Then the
    update `b += (eta * corner[:, None]) * d`, d = target - acts, adds the
    floats of `eta * (corner[:, None] * d)` with one multiply per entry: on a
    1 row `eta * 1 == eta`, on a 0 row both add a zero with the sign of d
    (eta > 0), and both overflow at the same inputs.

    Raises ZeroColumn if an update annihilates a column (renormalization
    would be undefined), and UpdateOverflow if an update or its norm
    overflows, which only a huge eta (about 1e154 and up) can cause: so no NaN
    reaches the norms' `min`, as the inputs are finite and an overflow raises first.
    """
    gold.require_one_hot()
    b, run = _working_state(expo, corners, gold, cfg, corners.matrix @ expo.matrix)
    moved = run()
    return ExponentMatrix(expo.morphemes, b), tuple(moved)


def train(expo: ExponentMatrix, corners: CornerMatrix, gold: SelectionTable,
          cfg: TrainConfig = TrainConfig()) -> tuple[ExponentMatrix, TrainTrace]:
    """Iterate delta passes until winners reproduce the gold table.

    The passes move one working copy of the exponents and keep its product
    with the corners, on which one `decide` before every pass decides what
    `evaluate` would: a row mismatches when its winner is not the gold
    exponent, a tied row included, and the least margin is the Python `min`
    of the row margins, as in `EvaluationReport.min_margin`. Every pass
    renormalizes what it moves, so one `ExponentMatrix` is built, at the end
    (`expo` is returned when no pass ran). Non-convergence inside max_iters
    is a reported status, not an error.
    """
    if corners.matrix.shape[1] != expo.matrix.shape[0]:
        raise ShapeMismatch("corner width and exponent height differ")
    if corners.num_cells != gold.matrix.shape[0] or expo.morphemes != gold.morphemes:
        raise ShapeMismatch("activation and gold tables do not line up")
    gold.require_one_hot()
    gold_idx = gold.matrix.argmax(axis=1)
    stack, run, trace = corners.matrix @ expo.matrix, None, TrainTrace()
    for it in range(cfg.max_iters + 1):
        winners, margins = decide(stack)
        mismatches = int(np.count_nonzero(winners != gold_idx))
        if it > 0:  # record the state the previous pass produced
            trace.records.append(TraceRecord(it, mismatches, min(margins.tolist()), moved))
        if not mismatches or it == cfg.max_iters:
            break
        if run is None:  # built for the first pass: most fixture trains converge without one
            b, run = _working_state(expo, corners, gold, cfg, stack)
        moved = run()
    trace.converged, trace.iterations = not mismatches, it
    return (ExponentMatrix(expo.morphemes, b) if it else expo), trace
