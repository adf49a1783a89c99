"""Error types shared across the package, and the integer check of its entry points.

The CLI maps these onto process exit codes: DomainError -> 2,
ResourceError -> 3.
"""

import operator


class QugameError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QugameError, ValueError):
    """Invalid argument or precondition violation (bad digit, dims mismatch...)."""


class ResourceError(QugameError, RuntimeError):
    """A configured size cap was exceeded (state dimension, operator dimension)."""


def as_index(value, what: str) -> int:
    """value as an exact int: numpy integers pass; a bool or a value that is not
    an integer (1.7, "1") is a DomainError instead of being truncated."""
    if isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
