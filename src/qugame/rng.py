"""Deterministic random source used by every stochastic operation.

The generator is numpy's PCG64. All sampling in the package goes through an
explicit RandomSource so that a seed fully determines every outcome sequence;
nothing draws from global random state.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, as_index, brief

DEFAULT_SEED = 0


def cumulative(probs) -> np.ndarray:
    """Read-only cumulative table of the weights `probs`, for `RandomSource.draw`.

    The steps are those of numpy's `Generator.choice(len(p), p=p)` after the
    weights are clipped at 0 and divided by their sum, in the same order, so
    `draw(cumulative(p))` gives the index `choice` would on the same stream.
    """
    p = np.maximum(np.asarray(probs, dtype=float), 0.0)  # drop tiny negative drift
    total = p.sum()
    if not 0.0 < total < np.inf:  # all zero, or a NaN or infinite weight
        raise DomainError(f"cannot sample from weights summing to {total}")
    p /= total
    cdf = np.add.accumulate(p, out=p)
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


class RandomSource:
    """PCG64 stream behind a small sampling interface.

    Same seed, same call sequence -> identical outcomes across runs and
    platforms.
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = as_index(seed, "seed")
        if self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {brief(self.seed)}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"

    def choice(self, probs) -> int:
        """Sample an index according to the probability vector `probs`."""
        return self.draw(cumulative(probs))

    def draw(self, cdf: np.ndarray) -> int:
        """Sample an index from a table built by `cumulative`: one uniform, one search."""
        return int(cdf.searchsorted(self._gen.random(), side="right"))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return int(self._gen.integers(low, high + 1))

    def uniform(self) -> float:
        """Uniform float in [0, 1): the double `Generator.uniform()` gives, drawn faster."""
        return self._gen.random()
