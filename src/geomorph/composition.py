"""Stem+affix composition: vector sums, 2D angle models, and angle learning.

A (stem, affix) pair realizes a cell when the sum of the two unit vectors
lands closest to the requested target. In a named 2D plane every morpheme
is just an angle, the sum of two unit vectors bisects them, and closeness
to a target axis is an absolute angle difference.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSum, EmptyInventory, UnknownStem

HALF_PI = math.pi / 2


def wrap_angle(x: float) -> float:
    """Reduce an angle into (-pi, pi]."""
    x = math.fmod(x, 2 * math.pi)
    if x > math.pi:
        x -= 2 * math.pi
    elif x <= -math.pi:
        x += 2 * math.pi
    return x


def angle_of_sum(a: float, b: float) -> tuple[float, float]:
    """Direction and magnitude of the sum of unit vectors at angles a and b.

    The direction is the bisector (a + b) / 2 and the magnitude is
    2 cos((a - b) / 2); both are computed through the wrapped separation so
    inputs reduced into (-pi, pi] give the same answer as the raw angles.
    Antipodal inputs have no direction.
    """
    half = wrap_angle(a - b) / 2.0
    if abs(half) >= math.pi / 2 - 1e-12:
        raise DegenerateSum("antipodal unit vectors sum to zero")
    return wrap_angle(b + half), 2.0 * math.cos(half)


def _sum_angle(a: float, b: float) -> float:
    # atan2 form; agrees with angle_of_sum inside its precondition and
    # stays finite outside it, which the learner needs mid-flight
    return math.atan2(math.sin(a) + math.sin(b), math.cos(a) + math.cos(b))


@dataclass(frozen=True)
class AngleModel:
    """Morphemes as angles in a 2D feature plane (x-axis value, y-axis value)."""

    plane: tuple[str, str]
    entries: dict[str, float]

    def vector(self, label: str) -> np.ndarray:
        theta = self.entries[label]
        return np.array([math.cos(theta), math.sin(theta)])

    def axis_angle(self, value: str) -> float:
        if value == self.plane[0]:
            return 0.0
        if value == self.plane[1]:
            return HALF_PI
        raise UnknownStem(f"{value!r} is not an axis of plane {self.plane}")

    def axis_distance(self, label: str, value: str) -> float:
        """Absolute angle between one morpheme and a named axis."""
        return abs(wrap_angle(self.entries[label] - self.axis_angle(value)))

    def sum_distance(self, a: str, b: str, value: str) -> float:
        """Absolute angle between the a+b sum direction and a named axis."""
        s = _sum_angle(self.entries[a], self.entries[b])
        return abs(wrap_angle(s - self.axis_angle(value)))


@dataclass(frozen=True)
class CompositionInventory:
    """Unit stem and affix vectors plus the gold affix per (stem, slot)."""

    stems: dict[str, np.ndarray]
    affixes: dict[str, np.ndarray]
    gold_forms: dict[tuple[str, str], str]  # (stem, slot value) -> affix

    def __post_init__(self):
        for name, vec in list(self.stems.items()) + list(self.affixes.items()):
            n = np.linalg.norm(vec)
            if abs(n - 1.0) > 1e-6:
                raise EmptyInventory(f"vector for {name!r} is not unit length")


def inventory_from_angles(model: AngleModel, stems, affixes, gold_forms) -> CompositionInventory:
    return CompositionInventory(
        {s: model.vector(s) for s in stems},
        {a: model.vector(a) for a in affixes},
        dict(gold_forms),
    )


def select_pair(inv: CompositionInventory, target: np.ndarray):
    """Stem+affix pair whose vector sum is nearest the target point.

    Returns ((stem, affix), ties) where ties lists every other pair at the
    same minimal distance; a non-empty tie list means no unique winner.
    """
    if not inv.stems or not inv.affixes:
        raise EmptyInventory("need at least one stem and one affix")
    target = np.asarray(target, dtype=float)
    scored = []
    for s, sv in inv.stems.items():
        for a, av in inv.affixes.items():
            scored.append((float(np.linalg.norm(sv + av - target)), (s, a)))
    best = min(d for d, _ in scored)
    winners = [pair for d, pair in scored if d == best]
    return winners[0], winners[1:]


def select_affix_for_stem(inv: CompositionInventory, stem: str, target: np.ndarray) -> str:
    """Nearest-sum affix with the stem held fixed (stem choice is lexical)."""
    if stem not in inv.stems:
        raise UnknownStem(stem)
    if not inv.affixes:
        raise EmptyInventory("no affixes")
    sv = inv.stems[stem]
    target = np.asarray(target, dtype=float)
    return min(
        inv.affixes, key=lambda a: float(np.linalg.norm(sv + inv.affixes[a] - target))
    )


def select_affix_by_angle(model: AngleModel, stem: str, affixes, axis_value: str) -> str:
    """2D specialization: minimize the absolute sum angle to a target axis."""
    if stem not in model.entries:
        raise UnknownStem(stem)
    affixes = list(affixes)
    if not affixes:
        raise EmptyInventory("no affixes")
    return min(affixes, key=lambda a: model.sum_distance(stem, a, axis_value))


@dataclass(frozen=True)
class AngleLearnConfig:
    stepsize: float = 0.01  # radians
    margin: float = 0.05  # required separation, radians
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.stepsize) and self.stepsize > 0):
            raise ValueError("stepsize must be finite and positive")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError("margin must be finite and non-negative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be at least 0")


@dataclass
class AngleLearnResult:
    model: AngleModel
    iterations: int
    converged: bool
    adjustments: int = 0


def _sign(x: float) -> float:
    return 1.0 if x > 0 else (-1.0 if x < 0 else 0.0)


def learn_angles(
    stems,
    affixes,
    gold_forms,
    plane: tuple[str, str],
    cfg: AngleLearnConfig = AngleLearnConfig(),
    initial: dict[str, float] | None = None,
) -> AngleLearnResult:
    """Learn angles that make every stem pick its gold affix on both axes.

    Angles start at seeded uniform positions in (-pi/2, pi/2), except labels
    given in `initial`, which start where the caller placed them. A pass
    visits every (stem, gold affix, rival) triple in declaration order;
    whenever the rival's sum lies closer to the target axis than the gold
    sum, or within the margin of it, the stem and gold affix move one step
    so their sum approaches the axis, and the rival moves one step so its
    sum retreats. A rival whose sum is already a quarter turn or more from
    the axis is beaten regardless and is left where it is; unbounded retreat
    would let the configuration wander into the antipodal half-plane where
    sums degenerate. Convergence is a full pass with no adjustment.
    """
    stems = list(stems)
    affixes = list(affixes)
    gold = dict(gold_forms)
    x_value, y_value = plane
    for stem in stems:
        for value in (x_value, y_value):
            if (stem, value) not in gold:
                raise EmptyInventory(f"no gold affix for stem {stem!r} on {value!r}")
    rng = random.Random(cfg.seed)
    initial = initial or {}
    ang = {
        lab: initial[lab] if lab in initial else rng.uniform(-HALF_PI, HALF_PI)
        for lab in stems + affixes
    }

    targets = []
    for stem in stems:
        for affix in affixes:
            for value, axis in ((y_value, HALF_PI), (x_value, 0.0)):
                if gold.get((stem, value)) == affix:
                    targets.append((stem, affix, value, axis))

    total_adjustments = 0
    for it in range(1, cfg.max_iters + 1):
        adjusted = False
        for stem, gold_affix, _value, axis in targets:
            for rival in affixes:
                if rival == gold_affix:
                    continue
                gs = _sum_angle(ang[stem], ang[gold_affix])
                rs = _sum_angle(ang[stem], ang[rival])
                dg = abs(wrap_angle(gs - axis))
                dr = abs(wrap_angle(rs - axis))
                if dr < dg + cfg.margin:
                    adjusted = True
                    total_adjustments += 1
                    d = _sign(wrap_angle(axis - gs))
                    ang[stem] += cfg.stepsize * d
                    ang[gold_affix] += cfg.stepsize * d
                    if dr < HALF_PI:
                        ang[rival] -= cfg.stepsize * _sign(wrap_angle(axis - rs))
        if not adjusted:
            model = AngleModel(plane, {k: wrap_angle(v) for k, v in ang.items()})
            return AngleLearnResult(model, it - 1, True, total_adjustments)
    model = AngleModel(plane, {k: wrap_angle(v) for k, v in ang.items()})
    return AngleLearnResult(model, cfg.max_iters, False, total_adjustments)


def verify_gold_forms(model: AngleModel, stems, affixes, gold_forms) -> list[tuple[str, str, str, str]]:
    """Re-select every gold form; returns (stem, slot, expected, got) failures."""
    failures = []
    for (stem, value), expected in gold_forms.items():
        got = select_affix_by_angle(model, stem, affixes, value)
        if got != expected:
            failures.append((stem, value, expected, got))
    return failures
