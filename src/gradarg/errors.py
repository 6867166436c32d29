"""Exception types shared across the library."""
from __future__ import annotations


class GradargError(Exception):
    """Base class for all library-specific errors."""


class _LineError(GradargError):
    """An error in a line-oriented document; carries the 1-based line
    number of the offending input line when known, and prefixes the
    message with it."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FrameworkParseError(_LineError):
    """A TGF or APX document could not be parsed."""


class TooLargeError(GradargError):
    """An argument count exceeds the cap: a framework too large to
    enumerate, or a knowledge base generating too many arguments."""


class NotExpandableError(GradargError):
    """The start set is not contained in its own graded defense."""


class NotAdmissibleError(GradargError):
    """The start set fails the graded admissibility precondition."""


class NotReachingError(GradargError):
    """The start set does not reach every argument along attack paths."""


class ConstraintViolatedError(GradargError):
    """Grade parameters fall outside the existence-safe region (n >= m, l >= m)."""


class NoExtensionError(GradargError):
    """No extension of the requested kind exists.

    ``witness`` holds the set whose conflict witnesses the failure.
    """

    def __init__(self, message: str, witness=None) -> None:
        self.witness = witness
        super().__init__(message)


class KnowledgeBaseError(_LineError):
    """A stratified knowledge-base document is malformed."""


class FormulaParseError(GradargError):
    """A propositional formula could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"column {position}: {message}"
        super().__init__(message)


class AtomBoundError(GradargError):
    """A truth-table operation exceeded the supported number of atoms."""
