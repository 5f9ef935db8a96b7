"""Exception and warning types shared across the package."""

from __future__ import annotations


class RejectedParameter(ValueError):
    """A model parameter violates one of the admissibility constraints.

    The message names the constraint that failed and the offending value.
    """


class BalancedUnsupported(ValueError):
    """The requested closed form exists only for walks with enough drift
    (p != q, and not so close to balance that it loses its precision)."""


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
