"""Exception types shared across the package."""

from __future__ import annotations


class GmdError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GmdError):
    """A scalar argument falls outside the documented domain of a function."""


class ValidationError(GmdError):
    """A distribution specification violates one or more invariants.

    Carries the full list of violations so callers can report all of them
    at once instead of failing on the first.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MomentExistenceError(GmdError):
    """A required moment does not exist for the given degrees of freedom."""


class DegeneratePairError(GmdError):
    """The conditional law of a pair is degenerate (|rho| = 1)."""


class NonconvergenceError(GmdError):
    """Adaptive quadrature failed to reach the requested tolerances.

    ``integral`` is the index of the failing integral within a batch of
    integrals run together, or None.
    """

    def __init__(self, message: str, integral: int | None = None):
        super().__init__(message)
        self.integral = integral
