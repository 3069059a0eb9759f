"""Exception types shared across the package.

A computation fails in one of two ways, and each has one class: an input
outside the model's domain (:class:`InvalidInput`, CLI exit 2) or a
numerical failure (:class:`NumericalFailure`, CLI exit 3).
"""


class ResokitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(ResokitError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class ParseError(InvalidInput):
    """Malformed input file; the message starts with the line, and the column if known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}{'' if column is None else f', column {column}'}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class NumericalFailure(ResokitError):
    """The computation has no finite result (a divergent amplitude) or did not converge."""


class NoBoundState(NumericalFailure):
    """The two-channel model has no bound-state pole below threshold."""


class RootAtGridBoundary(UserWarning):
    """A reported root lies within ``bound.EDGE_REL`` of the window edge q_max.

    Rounding may move such a root, or a neighbour, across the edge.
    """
