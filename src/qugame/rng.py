"""Deterministic random source used by every stochastic operation.

The generator is numpy's PCG64. All sampling in the package goes through an
explicit RandomSource so that a seed fully determines every outcome sequence;
nothing draws from global random state.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

DEFAULT_SEED = 0


class RandomSource:
    """PCG64 stream behind a small sampling interface.

    Same seed, same call sequence -> identical outcomes across runs and
    platforms.
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = int(seed)
        if self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"

    def choice(self, probs) -> int:
        """Sample an index according to the probability vector `probs`."""
        p = np.asarray(probs, dtype=float)
        # guard against tiny negative / drifting sums from float arithmetic
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if not 0.0 < total < np.inf:  # all zero, or a NaN or infinite weight
            raise DomainError(f"cannot sample from weights summing to {total}")
        p = p / total
        return int(self._gen.choice(len(p), p=p))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return int(self._gen.integers(low, high + 1))

    def uniform(self) -> float:
        return float(self._gen.uniform())
