"""Exception types shared across the package."""


class ResokitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(ResokitError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class PoleAtResonance(ResokitError):
    """The magnetic field sits exactly on the resonance pole, a(B) diverges."""


class DegenerateResonance(ResokitError):
    """Resonance parameters make the width radius undefined (zero denominator)."""


class DivergentAmplitude(ResokitError):
    """The scattering amplitude has a pole at the requested wavenumber."""


class KindMismatch(ResokitError):
    """Operation requires eigenstates of a different kind (bound vs scattering)."""


class SingularSystem(ResokitError):
    """The linear system for the requested model construction is singular."""


class NoBoundState(ResokitError):
    """The two-channel model has no bound-state pole below threshold."""


class NoConvergence(ResokitError):
    """An iterative solve reached its step cap without converging."""


class ParameterMismatch(ResokitError):
    """States were built with incompatible model parameters."""


class ParseError(ResokitError):
    """Malformed input file; the message starts with the line, and the column if known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}{'' if column is None else f', column {column}'}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class UnitError(ResokitError):
    """A field value cannot be converted to the target unit system."""


class RootAtGridBoundary(UserWarning):
    """A reported root lies within ``bound.EDGE_REL`` of the window edge q_max.

    Rounding may move such a root, or a neighbour, across the edge.
    """
