"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, data errors
exit 2, fit errors exit 3.
"""


class TlcausalError(Exception):
    """Base class for all package errors."""


class UsageError(TlcausalError):
    """Bad command-line or configuration usage."""


class DataError(TlcausalError):
    """Malformed or inconsistent input data."""


class FormulaParseError(DataError):
    """Syntax or literal-range error in a formula string."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CheckError(DataError):
    """A formula cannot be evaluated against the given model or traces."""


class EmptyWindowError(CheckError):
    """A conditional probability has an empty denominator."""


class FitError(TlcausalError):
    """Density or null-model fitting failed."""
