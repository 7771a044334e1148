"""Exception hierarchy for geomorph."""


class GeomorphError(Exception):
    """Base class for all geomorph errors."""


class DuplicateValue(GeomorphError):
    """A feature-value name appears more than once across all features."""


class EmptyFeature(GeomorphError):
    """A feature was declared with fewer than two values."""


class UnknownValue(GeomorphError):
    """A cell references a feature or value the feature system does not define."""


class DuplicateCell(GeomorphError):
    """The same paradigm cell appears twice in one table."""


class ShapeMismatch(GeomorphError):
    """Matrix dimensions or labels do not line up."""


class ZeroColumn(GeomorphError):
    """An exponent column is (or would become) the zero vector."""


class UpdateOverflow(GeomorphError):
    """A learning update overflowed floating point (its step size is too large)."""


class EmptyInventory(GeomorphError):
    """A stem or affix inventory is empty."""


class UnknownStem(GeomorphError):
    """A stem label is not in the inventory."""


class DegenerateSum(GeomorphError):
    """Two unit vectors are antipodal; their sum has no direction."""


class BadAxis(GeomorphError):
    """A rotation plane references an invalid or repeated coordinate index."""


class EmptyFilter(GeomorphError):
    """No inflection class survives the lexeme-count filter."""


class ParadigmSyntaxError(GeomorphError):
    """A paradigm file failed to parse; carries the position of the offence."""

    def __init__(self, line, col, expected):
        super().__init__(f"line {line}, col {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


class UndeclaredName(GeomorphError):
    """A paradigm file refers to a name it never declared."""

    def __init__(self, name, line=None):
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"undeclared name {name!r}{at}")
        self.name = name
        self.line = line


class DuplicateDeclaration(GeomorphError):
    """A paradigm file declares the same name twice."""

    def __init__(self, name, line=None):
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate declaration of {name!r}{at}")
        self.name = name
        self.line = line
