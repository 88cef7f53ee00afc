"""Exception types shared across the package.

Everything derives from NqaError, which is a ValueError so that generic
callers can catch dimension and domain problems uniformly.
"""


class NqaError(ValueError):
    """Base class for domain errors raised by this package.

    An error about expression text carries the 0-based `position` it
    refers to, and its text starts with the 1-based column; `message` is
    the text without that prefix.
    """

    def __init__(self, message: str = "", position: int | None = None):
        super().__init__(message if position is None else f"column {position + 1}: {message}")
        self.message = message
        self.position = position


class DimensionError(NqaError):
    """Slot counts, slot indices, or array shapes do not line up."""


class DenseCapError(NqaError):
    """A dense conversion beyond the configured slot cap was requested."""


class HomogeneityError(NqaError):
    """An operator is not homogeneous in the grading an operation requires."""


class NumericError(NqaError):
    """A numerical routine left its domain (non-symmetric input, no convergence)."""


class ExponentialFormError(NqaError):
    """A generator whose square is not plus or minus the identity."""


class ParseError(NqaError):
    """Expression text rejected, annotated with the offending position."""


class EvaluationError(NqaError):
    """A syntactically valid expression that does not denote a real operator."""
