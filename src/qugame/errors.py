"""Error types shared across the package, the integer check of its entry points,
the one size guard that runs before every dense allocation, and how a value type
is built: `Frozen`, the defensive copy and the distribution and finiteness checks.

The CLI maps these onto process exit codes: DomainError -> 2,
ResourceError -> 3.
"""

import math
import operator

import numpy as np


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


def copy_array(value, dtype, what: str) -> np.ndarray:
    """value as a fresh C-order array of dtype, a value constructor's defensive copy; a
    value numpy cannot convert (a bad string, a ragged list) is a DomainError naming what."""
    try:
        return np.array(value, dtype=dtype, order="C")
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} cannot be read as an array of {np.dtype(dtype).name}") from None


def check_finite(x: np.ndarray, what: str) -> None:
    """A DomainError when the float array x holds a NaN or an infinity."""
    if not np.isfinite(x).all():
        raise DomainError(f"{what} must be finite numbers")


def check_distribution(p: np.ndarray, what: str) -> None:
    """A DomainError unless the float array p (one axis or more) holds probability
    vectors along axis 0: non-empty, entries >= -1e-12 and each sum within 1e-10 of
    1 (NaN fails).  The message shows the largest |sum - 1|, never the entries."""
    off = np.abs(p.sum(axis=0) - 1.0).max(initial=0.0)
    if not (p.size and p.min() >= -1e-12 and off <= 1e-10):
        raise DomainError(f"{what} must be non-negative and sum to 1 (|sum - 1| = {off:.3g})")


class Frozen:
    """Base of the package's value types: `_freeze` sets each field once, and no
    attribute can be assigned after that."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _freeze(self, **fields):
        """self, with the fields set and each numpy array among them made read-only."""
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        return self
