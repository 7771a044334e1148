"""Error-driven delta-rule training of exponent vectors.

One training pass sweeps the paradigm cells in row order. At every visited
cell each exponent column moves by eta * (target - activation) * corner,
and the columns are renormalized to unit length immediately after the
cell's update; activations always reflect the vectors as they currently
stand. With error_driven set, only cells whose strict winner disagrees
with the gold choice are visited.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroColumn
from .exponence import (
    ExponentMatrix,
    SelectionTable,
    activations,
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


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    mismatches: int
    min_margin: float
    updated: tuple[str, ...]  # morphemes whose vectors moved this pass


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    def as_dicts(self):
        return [
            {
                "iteration": r.iteration,
                "mismatches": r.mismatches,
                "min_margin": r.min_margin,
                "updated": list(r.updated),
            }
            for r in self.records
        ]


def delta_step(
    expo: ExponentMatrix,
    corners: CornerMatrix,
    gold: SelectionTable,
    cfg: TrainConfig,
) -> tuple[ExponentMatrix, tuple[str, ...]]:
    """One pass over all cells; returns the updated matrix and moved columns.

    Raises ZeroColumn if an update annihilates a column (renormalization
    would be undefined).
    """
    gold.require_one_hot()
    b = np.array(expo.matrix)
    if cfg.eta == 0.0:
        return ExponentMatrix(expo.morphemes, b), ()
    moved = [False] * b.shape[1]
    for i, g in enumerate(gold.matrix.argmax(axis=1).tolist()):
        corner = corners.matrix[i]
        acts = corner @ b
        a = acts.tolist()
        if cfg.error_driven and gold_wins(a, g):
            continue
        # exactly the arithmetic of np.outer(corner, d) and of
        # np.linalg.norm(b, axis=0) on real input, minus their call overhead;
        # any other form of it (a gemm, a row sum) changes the last bit
        b += cfg.eta * (corner[:, None] * (gold.matrix[i] - acts))
        norms = np.sqrt(np.add.reduce(b * b, axis=0))
        if norms.min() < 1e-12:
            raise ZeroColumn("update drove an exponent column to zero")
        b /= norms
        for j, x in enumerate(a):  # column j moves unless target - x == 0
            if x != (1.0 if j == g else 0.0):
                moved[j] = True
    names = tuple(m for m, hit in zip(expo.morphemes, moved) if hit)
    return ExponentMatrix(expo.morphemes, b), names


def train(
    expo: ExponentMatrix,
    corners: CornerMatrix,
    gold: SelectionTable,
    cfg: TrainConfig = TrainConfig(),
) -> tuple[ExponentMatrix, TrainTrace]:
    """Iterate delta passes until winners reproduce the gold table.

    Non-convergence inside max_iters is a reported status, not an error.
    """
    trace = TrainTrace()
    b = expo
    for it in range(cfg.max_iters + 1):
        report = evaluate(activations(corners, b), gold)
        if it > 0:
            # record the state the previous pass produced
            trace.records.append(
                TraceRecord(it, len(report.mismatches), report.min_margin, moved)
            )
        if not report.mismatches:
            trace.converged = True
            trace.iterations = it
            return b, trace
        if it == cfg.max_iters:
            break
        b, moved = delta_step(b, corners, gold, cfg)
    trace.converged = False
    trace.iterations = cfg.max_iters
    return b, trace


__all__ = [
    "TrainConfig",
    "TrainTrace",
    "TraceRecord",
    "delta_step",
    "train",
]
