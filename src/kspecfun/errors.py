"""Exception types shared across the package."""

__all__ = ["DomainError", "NonConvergenceError"]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class NonConvergenceError(RuntimeError):
    """A series or quadrature ran out of budget before reaching tolerance."""
