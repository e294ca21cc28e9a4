"""Error types raised by the laboratory.

Every error that a caller may want to catch programmatically gets its own
class.  All inherit from FlockLabError so blanket handling stays possible,
and each carries a ``detail`` dict that serializes into machine-readable
error reports.
"""

from __future__ import annotations


class FlockLabError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.message = message
        self.detail = dict(detail)

    def to_dict(self) -> dict:
        return {
            "error": type(self).__name__,
            "message": self.message,
            "detail": self.detail,
        }


class CollisionalState(FlockLabError):
    """Two particles share a position (or sit below the safe-distance floor),
    so the interaction kernel is not evaluable."""


class StepCollapse(FlockLabError):
    """The adaptive integrator drove the step size below its floor; carries
    the closest pair so the caller can see which encounter caused it."""


class StepBudgetExceeded(FlockLabError):
    """The integrator used up its budget of step attempts before reaching
    the horizon; carries the time reached, the attempts made and the
    budget."""


class NonFiniteState(FlockLabError):
    """The particle state or the integrator's local error estimate is not
    finite (NaN or infinite), so no step size can repair the step."""


class PivotBudgetExceeded(FlockLabError):
    """The flat-metric simplex used up its pivot budget without reaching an
    optimal basis; carries the support size, the pivots made and the
    budget."""


class SnapshotMissing(FlockLabError):
    """A requested time is not on the stored snapshot grid."""


class GridMismatch(FlockLabError):
    """Two binned field grids do not share bin width and dimension."""


class RejectionOverflow(FlockLabError):
    """Rejection sampling failed to produce an admissible draw within the
    attempt budget."""
