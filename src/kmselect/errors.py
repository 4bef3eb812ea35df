"""Exception types shared across the package."""


class SelectionError(Exception):
    """Base class for every error raised by this package."""


class ArgumentError(SelectionError, ValueError):
    """An argument violates an operation's preconditions."""


class ContractViolationError(SelectionError, ValueError):
    """An input value breaks one of its documented invariants."""


class RankDeficiencyError(SelectionError):
    """A requested rank exceeds the numerical rank of the input."""


class NumericalSearchError(SelectionError):
    """The greedy column search failed at some iteration.

    Existence of an admissible column is guaranteed in exact arithmetic, so
    this error only signals floating-point breakdown.  ``step`` records the
    iteration counter and ``diagnostics`` holds barrier/eigenvalue state at
    the point of failure.
    """

    def __init__(self, message, *, step=None, diagnostics=None):
        super().__init__(message)
        self.step = step
        self.diagnostics = dict(diagnostics or {})


class ResourceLimitError(SelectionError):
    """The problem size exceeds a hard enumeration guard."""


class RankFailureError(SelectionError):
    """A random sketch lost rank; the draw may be retried with a new seed."""
