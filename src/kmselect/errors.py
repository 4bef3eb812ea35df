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
    """An iterative search broke down at some step.

    The greedy column search raises it when no admissible column is left,
    and Lloyd refinement when a step raises the k-means cost.  Exact
    arithmetic rules out both, so this error only signals floating-point
    breakdown.  ``step`` records the iteration counter and ``diagnostics``
    holds the state at the point of failure: barrier/eigenvalue values for
    the column search; for Lloyd, the restart's ``seed`` and its
    ``previous_cost`` and ``cost``, on the rescaled points.
    """

    def __init__(self, message, *, step=None, diagnostics=None):
        super().__init__(message)
        self.step = step
        self.diagnostics = dict(diagnostics or {})


class ResourceLimitError(SelectionError):
    """The problem size exceeds a hard enumeration guard."""


class RankFailureError(SelectionError):
    """A random sketch lost rank; the draw may be retried with a new seed."""
