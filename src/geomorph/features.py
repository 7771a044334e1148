"""Feature systems, paradigm cells, and the cell/feature-value incidence matrix.

A feature system declares ordered features, each with two or more values.
Every value owns one coordinate of feature-value space; a paradigm cell
(one value per feature) maps to a 0/1 corner vector with exactly one 1
inside each feature's coordinate block.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateCell, DuplicateValue, EmptyFeature, ShapeMismatch, UnknownValue


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FeatureSystem:
    """Ordered features, each with 2+ values, no token empty; fixes the coordinate order."""

    features: tuple[tuple[str, tuple[str, ...]], ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    value_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.features:
            raise EmptyFeature("need at least one feature")
        index: dict[str, int] = {}
        for name, values in self.features:
            if not name or not all(values):
                raise EmptyFeature(f"feature {name!r} has an empty token")
            if len(values) < 2:
                raise EmptyFeature(f"feature {name!r} needs at least 2 values")
            for v in values:
                if v in index:
                    raise DuplicateValue(f"value {v!r} declared twice")
                index[v] = len(index)
        object.__setattr__(self, "names", tuple([name for name, _ in self.features]))
        object.__setattr__(self, "value_index", index)

    @property
    def num_values(self) -> int:
        return len(self.value_index)

    @property
    def num_features(self) -> int:
        return len(self.names)

    @property
    def value_names(self) -> tuple[str, ...]:
        return tuple([v for _, values in self.features for v in values])

    def blocks(self):
        """Yield (feature-name, slice of its coordinate block)."""
        k = 0
        for name, values in self.features:
            yield name, slice(k, k + len(values))
            k += len(values)


def build_feature_system(declarations) -> FeatureSystem:
    """Build a FeatureSystem from (name, values) pairs as strings; a falsy token is empty."""
    feats = []
    for name, values in declarations:
        if not name or not all(values):
            raise EmptyFeature(f"feature {name!r} has an empty token")
        feats.append((str(name), tuple([str(v) for v in values])))
    return FeatureSystem(tuple(feats))


@dataclass(frozen=True)
class ParadigmCell:
    """A total assignment of one value per feature, stored in feature order."""

    assignment: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, fs: FeatureSystem, values) -> "ParadigmCell":
        """Make a cell from values listed in the system's feature order."""
        values = tuple(values)
        if len(values) != fs.num_features:
            raise UnknownValue(
                f"cell needs {fs.num_features} values, got {len(values)}"
            )
        pairs = []
        for (fname, fvalues), v in zip(fs.features, values):
            if v not in fvalues:
                raise UnknownValue(f"{v!r} is not a value of feature {fname!r}")
            pairs.append((fname, v))
        return cls(tuple(pairs))

    @property
    def values(self) -> tuple[str, ...]:
        # tuple(<list>), not tuple(<generator>): CPython builds the latter by
        # resizing, and resized small tuples pile up on its free lists (about
        # 1 MB in a long-lived process); the same holds throughout the package
        return tuple([v for _, v in self.assignment])

    def label(self) -> str:
        return ",".join(self.values)


def _coordinates(cell: ParadigmCell, fs: FeatureSystem) -> list[int]:
    """The coordinates of the cell's values.

    Every value must be known and every feature assigned.
    """
    index = fs.value_index
    coords = []
    for _, v in cell.assignment:
        if v not in index:
            raise UnknownValue(f"cell value {v!r} unknown to the feature system")
        coords.append(index[v])
    assigned = tuple([fname for fname, _ in cell.assignment])
    if assigned != fs.names:
        missing = set(fs.names).difference(assigned)
        if missing:
            raise UnknownValue(f"cell does not assign feature(s) {sorted(missing)}")
    return coords


def corner_vector(cell: ParadigmCell, fs: FeatureSystem) -> np.ndarray:
    """0/1 vector with a 1 at each of the cell's value coordinates.

    L2 norm is sqrt(number of features) by construction.
    """
    vec = np.zeros(fs.num_values)
    vec[_coordinates(cell, fs)] = 1.0
    return vec


@dataclass(frozen=True)
class CornerMatrix:
    """One corner vector per paradigm cell; rows follow cell order."""

    fs: FeatureSystem
    row_labels: tuple[ParadigmCell, ...]
    matrix: np.ndarray  # NumParaPos x NumFeaVal, entries 0/1

    @property
    def num_cells(self) -> int:
        return self.matrix.shape[0]


def build_corner_matrix(fs: FeatureSystem, cells) -> CornerMatrix:
    """Stack the corner vectors of `cells` into a matrix, preserving order."""
    cells = tuple(cells)
    if not cells:
        raise ShapeMismatch("need at least one cell")
    if len({c.assignment for c in cells}) != len(cells):
        raise DuplicateCell("duplicate paradigm cell")
    width = fs.num_values
    flat = []  # row-major positions of the ones
    for r, cell in enumerate(cells):
        flat += [r * width + k for k in _coordinates(cell, fs)]
    mat = np.zeros((len(cells), width))
    mat.put(flat, 1.0)
    return CornerMatrix(fs, cells, _frozen(mat))


def all_cells(fs: FeatureSystem) -> tuple[ParadigmCell, ...]:
    """Full cross-product of feature values, rightmost feature fastest."""
    combos = [()]
    for _, values in fs.features:
        combos = [c + (v,) for c in combos for v in values]
    return tuple(ParadigmCell.of(fs, c) for c in combos)


def validate_feature_blocks(corners: CornerMatrix, fs: FeatureSystem) -> list[str]:
    """Check the block structure of the cell/value matrix.

    Within each feature's column block, distinct columns must be orthogonal
    and the block's columns must sum to the all-ones vector. Returns a list
    of human-readable violations; empty means the matrix is well formed.
    """
    diagnostics = []
    m = corners.matrix
    if m.shape[1] != fs.num_values:
        raise ShapeMismatch(
            f"matrix has {m.shape[1]} columns, system has {fs.num_values} values"
        )
    for fname, block in fs.blocks():
        cols = m[:, block]
        gram = cols.T @ cols
        n = cols.shape[1]
        for a in range(n):
            for b in range(a + 1, n):
                if gram[a, b] != 0:
                    diagnostics.append(
                        f"feature {fname!r}: columns {a} and {b} not orthogonal"
                    )
        if not np.array_equal(cols.sum(axis=1), np.ones(m.shape[0])):
            diagnostics.append(f"feature {fname!r}: block columns do not sum to ones")
    return diagnostics
