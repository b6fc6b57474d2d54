"""Exception types shared across the package."""

from __future__ import annotations


class GLKinksError(Exception):
    """Base class for every error this package raises on purpose."""


class NonPositiveCoefficient(GLKinksError):
    """A double-well coefficient that must be strictly positive is not."""


class ComplexDelta(GLKinksError):
    """The driving shift epsilon makes the root discriminant 4*A1 - 3*B1*eps^2 negative."""


class SingularPoint(GLKinksError):
    """A closed-form profile was evaluated at, or too close to, one of its poles."""

    def __init__(self, message: str, xi: float | None = None):
        super().__init__(message)
        self.xi = xi


class NonFinite(GLKinksError):
    """A numerical integration blew up; carries the location and the partial run."""

    def __init__(self, message: str, xi: float | None = None, trajectory=None):
        super().__init__(message)
        self.xi = xi
        self.trajectory = trajectory


class EmptyGrid(GLKinksError):
    """Every grid point was skipped, so there is nothing to report."""


class DomainMismatch(GLKinksError):
    """A trajectory and a closed form were compared on incompatible domains."""


class NoCrossing(GLKinksError):
    """The profile never crosses the midpoint level on the search range."""


class NonPositiveRate(GLKinksError):
    """A driven case's decay rate is zero, so its kink and lambda bound degenerate."""
