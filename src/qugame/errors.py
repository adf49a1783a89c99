"""Error types shared across the package, the integer check of its entry points,
and the one size guard that runs before every dense allocation.

The CLI maps these onto process exit codes: DomainError -> 2,
ResourceError -> 3.
"""

import math
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


def brief(value: int) -> str:
    """An integer for a message: a short one as is, a power of two from 2^10 or
    any magnitude from 2^64 as (-)2^k, so no message prints an unbounded integer."""
    if value < 0:
        return "-" + brief(-value)
    if value >= 1 << 64 or (value >= 1 << 10 and value & (value - 1) == 0):
        return f"2^{math.log2(value):.6g}"
    return str(value)


def brief_all(values) -> str:
    """A tuple of integers for a message, each through `brief`."""
    return "(" + ", ".join(map(brief, values)) + ")"


def check_size(size, cap: int, what: str) -> int:
    """size as an exact int, a ResourceError when it exceeds cap."""
    size = as_index(size, what)
    if size > cap:
        raise ResourceError(f"{what} {brief(size)} exceeds cap {brief(cap)}")
    return size


def check_qubits(n, cap: int) -> int:
    """n as a qubit count >= 1 whose 2^n-entry dimension fits cap; 2^n is never built."""
    n = as_index(n, "qubit count")
    if n < 1:
        raise DomainError("need at least one qubit")
    if n >= cap.bit_length():  # 2^n > cap
        raise ResourceError(f"dimension 2^{brief(n)} exceeds cap {brief(cap)}")
    return n
