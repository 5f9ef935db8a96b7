"""Exception and warning types shared across the package, and the overflow
error of the closed forms."""

from __future__ import annotations


def beyond_float_range(quantity: str) -> OverflowError:
    """The error a closed form raises in place of returning inf or nan; an
    ArithmeticError, which the CLI reports as "cannot compute"."""
    return OverflowError(f"{quantity} is beyond the float range")


class RejectedParameter(ValueError):
    """A model parameter violates one of the admissibility constraints.

    The message names the constraint that failed and the offending value.
    """


class BalancedUnsupported(ValueError):
    """Per-barrier absorption times are refused for a balanced walk."""


class StartNotBarrier(ValueError):
    """Per-barrier absorption times are defined for walks started on a
    barrier site (i0 = 0)."""


class SingularSystem(ArithmeticError):
    """A truncated linear system could not be solved.  Cannot happen for a
    valid model with positive absorption at z <= 1; kept as a defensive
    diagnostic."""


class TruncationInsufficient(ValueError):
    """The requested accuracy is below the geometric tail bound of the
    chosen truncation."""


class ExcessCensoring(UserWarning):
    """A simulation hit its step cap on more than 0.1% of the walks; the
    returned statistics are still valid but flagged."""
