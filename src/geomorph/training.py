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
    gold_wins,
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


def delta_step(
    expo: ExponentMatrix,
    corners: CornerMatrix,
    gold: SelectionTable,
    cfg: TrainConfig,
) -> tuple[ExponentMatrix, tuple[str, ...]]:
    """One pass over all cells; returns the updated matrix and moved columns.

    Corners must be 0/1 with a 1 in every row, as `build_corner_matrix` makes
    them. Then `b += cols[i] * (eta * d)`, d = target - acts, adds the floats
    of `eta * (corner[:, None] * d)` with one multiply per exponent: on a 1 row
    `eta * (1 * d) == 1 * (eta * d)`, on a 0 row both add a zero with the sign
    of d (eta > 0), and both overflow at the same inputs.

    Raises ZeroColumn if an update annihilates a column (renormalization
    would be undefined), and UpdateOverflow if an update or its norm
    overflows, which only a huge eta (about 1e154 and up) can cause.
    """
    gold.require_one_hot()
    b = np.array(expo.matrix)
    if cfg.eta == 0.0:
        return ExponentMatrix(expo.morphemes, b), ()
    eta, cols = cfg.eta, corners.matrix[:, :, None]
    squares, norms = np.empty_like(b), np.empty(b.shape[1])
    moved = [False] * b.shape[1]
    try:
        with np.errstate(over="raise"):
            stack = corners.matrix @ b  # the activations; recomputed after each update
            for i, g in enumerate(gold.matrix.argmax(axis=1).tolist()):
                acts = stack[i]
                a = acts.tolist()
                if cfg.error_driven and gold_wins(a, g):
                    continue
                b += cols[i] * (eta * (gold.matrix[i] - acts))
                # np.linalg.norm(b, axis=0) on real input minus its call overhead;
                # any other order of the sum (a gemm, a row sum) changes the last bit
                np.add.reduce(np.multiply(b, b, out=squares), axis=0, out=norms)
                np.sqrt(norms, out=norms)
                if np.minimum.reduce(norms) < 1e-12:
                    raise ZeroColumn("update drove an exponent column to zero")
                b /= norms
                stack = corners.matrix @ b
                if not all(moved):
                    for j, x in enumerate(a):  # column j moves unless target - x == 0
                        if x != (1.0 if j == g else 0.0):
                            moved[j] = True
    except FloatingPointError:
        raise UpdateOverflow(
            f"eta {cfg.eta!r} overflows the delta-rule update; use a smaller eta"
        ) from None
    names = tuple([m for m, hit in zip(expo.morphemes, moved) if hit])
    return ExponentMatrix(expo.morphemes, b), names


def train(
    expo: ExponentMatrix,
    corners: CornerMatrix,
    gold: SelectionTable,
    cfg: TrainConfig = TrainConfig(),
) -> tuple[ExponentMatrix, TrainTrace]:
    """Iterate delta passes until winners reproduce the gold table.

    Before every pass one `decide` on the product decides what `evaluate`
    would: a row mismatches when its winner is not the gold exponent, a tied
    row included, and the least margin is the Python `min` of the row
    margins, as in `EvaluationReport.min_margin`. Non-convergence inside
    max_iters is a reported status, not an error.
    """
    if corners.matrix.shape[1] != expo.matrix.shape[0]:
        raise ShapeMismatch("corner width and exponent height differ")
    if corners.num_cells != gold.matrix.shape[0] or expo.morphemes != gold.morphemes:
        raise ShapeMismatch("activation and gold tables do not line up")
    gold.require_one_hot()
    gold_idx = gold.matrix.argmax(axis=1)
    trace = TrainTrace()
    b = expo
    for it in range(cfg.max_iters + 1):
        winners, margins = decide(corners.matrix @ b.matrix)
        mismatches = int(np.count_nonzero(winners != gold_idx))
        if it > 0:
            # record the state the previous pass produced
            trace.records.append(
                TraceRecord(it, mismatches, min(margins.tolist()), list(moved))
            )
        if not mismatches:
            trace.converged = True
            trace.iterations = it
            return b, trace
        if it == cfg.max_iters:
            break
        b, moved = delta_step(b, corners, gold, cfg)
    trace.converged = False
    trace.iterations = cfg.max_iters
    return b, trace

