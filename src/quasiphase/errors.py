"""Exception types shared across the package.

Every error carries enough context to act on: truncation errors report the
tail mass and a dimension that would satisfy the tolerance, grid errors
report the offending boundary value, budget errors the bytes a request needs,
trace leaks the deficit and the output dimension that lost it.
"""

from __future__ import annotations


class QuasiphaseError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(QuasiphaseError, ValueError):
    """Fock-space dimension is not a positive integer, or an index is out of range."""


class ValidationError(QuasiphaseError, ValueError):
    """An operator failed a structural invariant (shape, hermiticity, trace, positivity)."""


class TruncationError(QuasiphaseError):
    """A construction would silently lose more tail mass than the tolerance allows."""

    def __init__(self, message: str, tail_mass: float, required_dim: int):
        super().__init__(message)
        self.tail_mass = tail_mass
        self.required_dim = required_dim


class BudgetError(QuasiphaseError):
    """A dense array sized by the request would exceed the allocation budget."""

    def __init__(self, message: str, required_bytes: int, budget_bytes: int):
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


class SingularPError(QuasiphaseError):
    """The Glauber-Sudarshan distribution of this operator is not an ordinary function."""


class GridTooSmallError(QuasiphaseError):
    """A phase-space grid does not enclose the support of the quantity on it."""

    def __init__(self, message: str, boundary_value: float, tolerance: float):
        super().__init__(message)
        self.boundary_value = boundary_value
        self.tolerance = tolerance


class TraceLeakError(QuasiphaseError):
    """A channel output dimension is too small to hold the image; trace escaped."""

    def __init__(self, message: str, deficit: float, dim_out: int):
        super().__init__(message)
        self.deficit = deficit
        self.dim_out = dim_out


class AncillaTailError(QuasiphaseError):
    """A dilation ancilla register is too small: its cut may stop too much population."""

    def __init__(self, message: str, tail_mass: float):
        super().__init__(message)
        self.tail_mass = tail_mass


class SpecParseError(QuasiphaseError, ValueError):
    """A textual state or channel specification could not be parsed."""
