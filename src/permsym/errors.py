"""Exception types shared across the package.

The CLI maps DomainError to exit code 2, CapacityError to 3 and IntegrityError to 4.
"""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """A request exceeds a configured size cap (memory / cost guard)."""


class IntegrityError(RuntimeError):
    """A computed object violates an invariant beyond numerical tolerance."""
