"""Error types shared across the package."""

import math


class DomainError(ValueError):
    """Raised when an input violates a documented precondition."""


def _isfinite(name: str, value) -> bool:
    """``math.isfinite(value)``, but a DomainError naming ``name`` for an int beyond the float
    range, where it raises OverflowError (such an int may be too long to print)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        raise DomainError(f"{name} is beyond the float range") from None
