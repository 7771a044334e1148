"""Stem+affix composition: vector sums, 2D angle models, and angle learning.

A (stem, affix) pair realizes a cell when the sum of the two unit vectors
lands closest to the requested target. In a named 2D plane every morpheme
is just an angle, the sum of two unit vectors bisects them, and closeness
to a target axis is an absolute angle difference.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSum, EmptyInventory, ShapeMismatch, UnknownStem
from .exponence import UNIT_TOL, decide_row
from .seeds import seeded_random

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

    The direction is `_sum_angle`'s bisector, in [-pi, pi], and the
    magnitude is 2 cos((a - b) / 2), computed through the wrapped separation
    so inputs reduced into (-pi, pi] give the same magnitude as the raw
    angles. Antipodal inputs have no direction.
    """
    half = wrap_angle(a - b) / 2.0
    if abs(half) >= math.pi / 2 - 1e-12:
        raise DegenerateSum("antipodal unit vectors sum to zero")
    return _sum_angle(a, b), 2.0 * math.cos(half)


def _sum_angle(a: float, b: float) -> float:
    # stays finite for antipodal inputs, which the learner can pass mid-flight
    return math.atan2(math.sin(a) + math.sin(b), math.cos(a) + math.cos(b))


def _offset(a: float, b: float, axis: float) -> float:
    """Signed angle from the direction of the a+b sum to `axis`, in (-pi, pi]."""
    return wrap_angle(axis - _sum_angle(a, b))


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
        return abs(_offset(self.entries[a], self.entries[b], self.axis_angle(value)))


@dataclass(frozen=True)
class CompositionInventory:
    """Unit stem and affix vectors plus the gold affix per (stem, slot)."""

    stems: dict[str, np.ndarray]
    affixes: dict[str, np.ndarray]
    gold_forms: dict[tuple[str, str], str]  # (stem, slot value) -> affix

    def __post_init__(self):
        for name, vec in list(self.stems.items()) + list(self.affixes.items()):
            n = np.linalg.norm(vec)
            if not abs(n - 1.0) <= UNIT_TOL:  # NaN fails too
                raise ShapeMismatch(f"vector for {name!r} is not unit length")


def inventory_from_angles(model: AngleModel, stems, affixes, gold_forms) -> CompositionInventory:
    return CompositionInventory({s: model.vector(s) for s in stems},
                                {a: model.vector(a) for a in affixes}, dict(gold_forms))


def _nearest(distances: list[float]) -> int:
    """Index of the strictly least distance, or -1 (a tie): `decide_row` on their negations."""
    return decide_row([-d for d in distances])


def select_pair(inv: CompositionInventory, target: np.ndarray):
    """Stem+affix pair whose vector sum is nearest the target point.

    Returns ((stem, affix), ties) where ties lists every other pair at the
    same minimal distance; a non-empty tie list means no unique winner.
    """
    if not inv.stems or not inv.affixes:
        raise EmptyInventory("need at least one stem and one affix")
    target = np.asarray(target, dtype=float)
    pairs = [(s, a) for s in inv.stems for a in inv.affixes]
    dists = [float(np.linalg.norm(inv.stems[s] + inv.affixes[a] - target)) for s, a in pairs]
    k = _nearest(dists)
    if k >= 0:
        return pairs[k], []
    best = min(dists)
    tied = [pair for pair, d in zip(pairs, dists) if d == best]
    return tied[0], tied[1:]


def select_affix_for_stem(inv: CompositionInventory, stem: str, target: np.ndarray) -> str | None:
    """Nearest-sum affix with the stem held fixed (stem choice is lexical); None on a tie."""
    if stem not in inv.stems:
        raise UnknownStem(stem)
    if not inv.affixes:
        raise EmptyInventory("no affixes")
    sv, target = inv.stems[stem], np.asarray(target, dtype=float)
    affixes = list(inv.affixes)
    k = _nearest([float(np.linalg.norm(sv + inv.affixes[a] - target)) for a in affixes])
    return affixes[k] if k >= 0 else None


def select_affix_by_angle(model: AngleModel, stem: str, affixes, axis_value: str) -> str | None:
    """2D specialization: the least absolute sum angle to a target axis; None on a tie."""
    if stem not in model.entries:
        raise UnknownStem(stem)
    affixes = list(affixes)
    if not affixes:
        raise EmptyInventory("no affixes")
    k = _nearest([model.sum_distance(stem, a, axis_value) for a in affixes])
    return affixes[k] if k >= 0 else None


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
    sum, within the margin of it, or exactly as close (a tie is never a
    win, at any margin), the stem and gold affix move one step
    so their sum approaches the axis, and the rival moves one step so its
    sum retreats. A rival whose sum is already a quarter turn or more from
    the axis is beaten regardless and is left where it is; unbounded retreat
    would let the configuration wander into the antipodal half-plane where
    sums degenerate. Convergence is a full pass with no adjustment. A pass
    that starts with every angle bit for bit where an earlier pass started
    begins a cycle that would repeat until `max_iters`, so the run stops there
    with what running out `max_iters` returns: the angles at that pass's phase
    of the cycle, not converged, and the adjustments of every pass that would
    run. A pass that ends where it began is the cycle of one pass. A label's
    sine and cosine are recomputed only when it moves.
    """
    stems, affixes, gold = list(stems), list(affixes), dict(gold_forms)
    missing = [(stem, value) for stem in stems for value in plane if (stem, value) not in gold]
    if missing:
        raise EmptyInventory("no gold affix for stem {!r} on {!r}".format(*missing[0]))
    rng = seeded_random(cfg.seed)
    initial = initial or {}
    ang = {lab: initial[lab] if lab in initial else rng.uniform(-HALF_PI, HALF_PI)
           for lab in stems + affixes}
    # a label that is a stem and an affix at once holds one angle, at one index
    index, th = {lab: k for k, lab in enumerate(ang)}, list(ang.values())
    sin, cos, atan2 = math.sin, math.cos, math.atan2
    sn, cs = [sin(t) for t in th], [cos(t) for t in th]
    targets = [(index[stem], index[affix], axis, [index[r] for r in affixes if r != affix])
               for stem in stems for affix in affixes
               for value, axis in ((plane[1], HALF_PI), (plane[0], 0.0))
               if gold.get((stem, value)) == affix]

    step, margin, pi, tau = cfg.stepsize, cfg.margin, math.pi, 2 * math.pi
    total_adjustments = iterations = 0
    # pass k starts from the k-th key of seen (whose value is k), after adjusted[k] adjustments
    seen: dict[bytes, int] = {}
    adjusted: list[int] = []
    while iterations < cfg.max_iters:  # reaching max_iters is not converging
        start, adjustments = array("d", th).tobytes(), 0
        first = seen.setdefault(start, iterations)
        if first < iterations:  # passes first .. iterations - 1 repeat until max_iters
            full, rest = divmod(cfg.max_iters - iterations, iterations - first)
            total_adjustments += (full * (total_adjustments - adjusted[first])
                                  + adjusted[first + rest] - adjusted[first])
            th, iterations = array("d", list(seen)[first + rest]), cfg.max_iters
            break
        adjusted.append(total_adjustments)
        for s, g, axis, rivals in targets:
            # _offset inlined: axis - atan2(...) is in (-2pi, 2pi), where fmod is exact
            dg = axis - atan2(sn[s] + sn[g], cs[s] + cs[g])
            dg = dg - tau if dg > pi else (dg + tau if dg <= -pi else dg)
            for r in rivals:
                dr = axis - atan2(sn[s] + sn[r], cs[s] + cs[r])
                dr = dr - tau if dr > pi else (dr + tau if dr <= -pi else dr)
                ar, ag = abs(dr), abs(dg)
                if ar < ag + margin or ar == ag:  # a tie is not a win
                    adjustments += 1
                    th[s] += step * _sign(dg)
                    th[g] += step * _sign(dg)
                    if ar < HALF_PI:
                        th[r] -= step * _sign(dr)
                        sn[r], cs[r] = sin(th[r]), cos(th[r])
                    sn[s], cs[s], sn[g], cs[g] = sin(th[s]), cos(th[s]), sin(th[g]), cos(th[g])
                    dg = axis - atan2(sn[s] + sn[g], cs[s] + cs[g])
                    dg = dg - tau if dg > pi else (dg + tau if dg <= -pi else dg)
        if not adjustments:
            break
        iterations += 1
        total_adjustments += adjustments
    model = AngleModel(plane, {k: wrap_angle(v) for k, v in zip(ang, th)})
    return AngleLearnResult(model, iterations, iterations < cfg.max_iters, total_adjustments)


def verify_gold_forms(model: AngleModel, stems, affixes, gold_forms) -> list[tuple[str, str, str, str]]:
    """Re-select every gold form; returns (stem, slot, expected, got) failures."""
    failures = []
    for (stem, value), expected in gold_forms.items():
        got = select_affix_by_angle(model, stem, affixes, value)
        if got != expected:
            failures.append((stem, value, expected, got))
    return failures
