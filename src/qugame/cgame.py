"""Classical game-theory analysis over bimatrix payoff tables.

Dominance, Nash and Pareto tests use weak inequalities throughout. Everything
here is deterministic and pure; quantum protocols feed their induced payoff
tables into these functions unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (DomainError, Frozen, as_index, brief, check_distribution, check_finite,
                     check_size)

# comparison slack for payoff tables produced by floating-point simulation
PAYOFF_TOL = 1e-9


class Bimatrix(Frozen):
    """Pair of real payoff matrices with move labels; rows = Alice, cols = Bob."""

    __slots__ = ("row_moves", "col_moves", "payoff_row", "payoff_col")

    def __init__(self, row_moves, col_moves, payoff_row, payoff_col):
        row_moves = tuple(str(s) for s in row_moves)
        col_moves = tuple(str(s) for s in col_moves)
        a = np.array(payoff_row, dtype=float)  # the defensive copies
        b = np.array(payoff_col, dtype=float)
        if not row_moves or not col_moves:
            raise DomainError("each player needs at least one move")
        expected = (len(row_moves), len(col_moves))
        if a.shape != expected or b.shape != expected:
            raise DomainError(
                f"payoff matrices must have shape {expected}, got {a.shape} and {b.shape}"
            )
        check_finite(a, "payoffs")
        check_finite(b, "payoffs")
        self._freeze(row_moves=row_moves, col_moves=col_moves, payoff_row=a, payoff_col=b)

    @property
    def shape(self) -> tuple[int, int]:
        return self.payoff_row.shape

    def is_zero_sum(self, tol: float = PAYOFF_TOL) -> bool:
        return bool(np.abs(self.payoff_row + self.payoff_col).max() <= tol)

    def is_symmetric(self, tol: float = PAYOFF_TOL) -> bool:
        return (
            self.shape[0] == self.shape[1]
            and bool(np.abs(self.payoff_row - self.payoff_col.T).max() <= tol)
        )

    def cell(self, i: int, j: int) -> tuple[float, float]:
        return float(self.payoff_row[i, j]), float(self.payoff_col[i, j])

    def to_json_dict(self) -> dict:
        return {
            "row_moves": list(self.row_moves),
            "col_moves": list(self.col_moves),
            "payoff_row": self.payoff_row.tolist(),
            "payoff_col": self.payoff_col.tolist(),
        }

    @classmethod
    def zero_sum(cls, row_moves, col_moves, payoff_row) -> "Bimatrix":
        a = np.asarray(payoff_row, dtype=float)
        return cls(row_moves, col_moves, a, -a)

    def __repr__(self) -> str:
        return f"Bimatrix({self.row_moves} x {self.col_moves})"


class MixedStrategy(Frozen):
    """Probability vector over a player's moves."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1:
            raise DomainError("strategy probabilities must be a vector")
        check_distribution(p, "strategy probabilities")
        self._freeze(probs=np.clip(p, 0.0, None))

    def __len__(self) -> int:
        return len(self.probs)

    @classmethod
    def pure(cls, index: int, size: int) -> "MixedStrategy":
        index = _move(index, size, "move")  # no move is in range when size < 1
        p = np.zeros(size)
        p[index] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, size: int) -> "MixedStrategy":
        size = as_index(size, "move count")
        if size < 1:
            raise DomainError("a strategy needs at least one move")
        return cls(np.full(size, 1.0 / size))

    def __repr__(self) -> str:
        return f"MixedStrategy({self.probs.tolist()})"


def _move(index, size, what: str) -> int:
    """index as a move of a game with size moves, both exact integers."""
    index, size = as_index(index, what), as_index(size, "move count")
    if not 0 <= index < size:
        raise DomainError(f"{what} {brief(index)} out of range for {size} moves")
    return index


def _coerce_strategy(s, size: int) -> MixedStrategy:
    if not isinstance(s, MixedStrategy):
        s = MixedStrategy(s)
    if len(s) != size:
        raise DomainError(f"strategy length {len(s)} does not match {size} moves")
    return s


def expected_payoff(g: Bimatrix, pA, pB) -> tuple[float, float]:
    """Expected payoffs (Alice, Bob) under independent mixed strategies."""
    pA = _coerce_strategy(pA, g.shape[0])
    pB = _coerce_strategy(pB, g.shape[1])
    a = float(pA.probs @ g.payoff_row @ pB.probs)
    b = float(pA.probs @ g.payoff_col @ pB.probs)
    return a, b


def _best_responses(g: Bimatrix, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cells where the row (column) player's move is a weak best response."""
    rows = g.payoff_row >= g.payoff_row.max(axis=0) - tol
    cols = g.payoff_col >= g.payoff_col.max(axis=1, keepdims=True) - tol
    return rows, cols


def pure_nash(g: Bimatrix, tol: float = PAYOFF_TOL) -> list[tuple[int, int]]:
    """All cells where neither player gains by a unilateral deviation (weak)."""
    rows, cols = _best_responses(g, tol)
    return [tuple(cell) for cell in np.argwhere(rows & cols).tolist()]


def dominant_moves(g: Bimatrix, tol: float = PAYOFF_TOL) -> tuple[list[int], list[int]]:
    """Weakly dominant moves for the row and the column player (may be empty)."""
    rows, cols = _best_responses(g, tol)
    return np.flatnonzero(rows.all(axis=1)).tolist(), np.flatnonzero(cols.all(axis=0)).tolist()


@dataclass(frozen=True)
class ParetoFlags:
    """Per-cell joint-domination and Pareto-optimality flags."""

    jointly_dominated: np.ndarray
    pareto_optimal: np.ndarray

    def cell(self, i: int, j: int) -> tuple[bool, bool]:
        return bool(self.jointly_dominated[i, j]), bool(self.pareto_optimal[i, j])


def _improvable(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Cells i for which some cell k has a[k] > a[i] + tol and b[k] >= b[i] - tol.

    One sweep: sort by a, take the suffix maximum of b (-inf past the end), and
    binary-search the first cell whose a exceeds a[i] + tol, so each test is the
    same float comparison the pairwise definition makes.
    """
    order = a.argsort()
    best_b = np.empty(a.size + 1)  # best_b[k]: max of b over sorted cells k, k+1, ...
    best_b[-1] = -np.inf
    np.maximum.accumulate(b[order[::-1]], out=best_b[-2::-1])
    return best_b[a[order].searchsorted(a + tol, side="right")] >= b - tol


def pareto_analysis(g: Bimatrix, tol: float = PAYOFF_TOL) -> ParetoFlags:
    """Classify each payoff point of the table.

    A point is jointly dominated when some other cell weakly improves both
    payoffs and strictly improves one.  It is Pareto optimal when no other cell
    raises one player's payoff without lowering the other's.  For tol >= 0 a
    strict improvement is also a weak one, so the two flags are complements.
    """
    if not tol >= 0.0:
        raise DomainError(f"Pareto tolerance must be >= 0, got {tol}")
    a, b = g.payoff_row.reshape(-1), g.payoff_col.reshape(-1)
    dominated = (_improvable(a, b, tol) | _improvable(b, a, tol)).reshape(g.shape)
    return ParetoFlags(jointly_dominated=dominated, pareto_optimal=~dominated)


@dataclass(frozen=True)
class MixedNash2x2:
    """Interior indifference solution of a 2x2 game, or a degenerate report."""

    interior: bool
    p: float | None          # probability the row player puts on move 0
    q: float | None          # probability the column player puts on move 0
    payoffs: tuple[float, float] | None
    pure_equilibria: tuple[tuple[int, int], ...]


def mixed_nash_2x2(g: Bimatrix) -> MixedNash2x2:
    """Solve the indifference conditions of a 2x2 bimatrix game.

    q makes the row player indifferent (d pi_A / d p = 0) and p makes the
    column player indifferent; the pair is reported only when both lie
    strictly inside (0, 1), otherwise the pure equilibria are returned.
    """
    if g.shape != (2, 2):
        raise DomainError(f"mixed_nash_2x2 requires a 2x2 game, got {g.shape}")
    A, B = g.payoff_row, g.payoff_col
    pure = tuple(pure_nash(g))
    denom_a = A[0, 0] - A[0, 1] - A[1, 0] + A[1, 1]
    denom_b = B[0, 0] - B[0, 1] - B[1, 0] + B[1, 1]
    if abs(denom_a) < 1e-14 or abs(denom_b) < 1e-14:
        return MixedNash2x2(False, None, None, None, pure)
    q = (A[1, 1] - A[0, 1]) / denom_a
    p = (B[1, 1] - B[1, 0]) / denom_b
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        return MixedNash2x2(False, None, None, None, pure)
    pA = MixedStrategy([p, 1.0 - p])
    pB = MixedStrategy([q, 1.0 - q])
    return MixedNash2x2(True, float(p), float(q), expected_payoff(g, pA, pB), pure)


def zero_sum_value_2x2(g: Bimatrix) -> tuple[float, MixedStrategy, MixedStrategy]:
    """Value and maximin strategies of a 2x2 zero-sum game.

    Returns (value, row strategy, column strategy) and verifies the minimax
    identity max_p min_q = min_q max_p on the returned strategies.
    """
    if g.shape != (2, 2):
        raise DomainError(f"zero_sum_value_2x2 requires a 2x2 game, got {g.shape}")
    if not g.is_zero_sum():
        raise DomainError("payoff_col must equal -payoff_row for a zero-sum game")
    A = g.payoff_row
    # saddle point in pure strategies?
    maximin_row = int(np.argmax(A.min(axis=1)))
    minimax_col = int(np.argmin(A.max(axis=0)))
    if abs(A.min(axis=1)[maximin_row] - A.max(axis=0)[minimax_col]) <= PAYOFF_TOL:
        value = float(A[maximin_row, minimax_col])
        pA = MixedStrategy.pure(maximin_row, 2)
        pB = MixedStrategy.pure(minimax_col, 2)
    else:
        denom = A[0, 0] - A[0, 1] - A[1, 0] + A[1, 1]
        p = (A[1, 1] - A[1, 0]) / denom
        q = (A[1, 1] - A[0, 1]) / denom
        value = float((A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) / denom)
        pA = MixedStrategy([p, 1.0 - p])
        pB = MixedStrategy([q, 1.0 - q])
    # evaluate both orders of play at the returned strategies (minimax identity)
    worst_for_row = min(float(pA.probs @ A[:, j]) for j in range(2))
    best_against_col = max(float(A[i, :] @ pB.probs) for i in range(2))
    if abs(worst_for_row - best_against_col) > 1e-9:
        raise DomainError("minimax identity failed on the computed strategies")
    return value, pA, pB


def repeated_payoff_distribution(N: int, p: float) -> list[tuple[int, float]]:
    """Payoff distribution of N repetitions of a +-1 game won with probability p.

    x wins in N games pay 2x - N, with binomial weight C(N, x) p^x (1-p)^(N-x).
    """
    N = as_index(N, "game count")
    if N < 1:
        raise DomainError("need at least one game")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"win probability {p} outside [0, 1]")
    q = 1.0 - p
    return [
        (2 * x - N, math.comb(N, x) * p**x * q ** (N - x))
        for x in range(N + 1)
    ]


@dataclass(frozen=True)
class ESSResult:
    stable: bool
    invasion_barrier: float
    fitness_incumbent: float
    fitness_mutant: float


def ess_test(g: Bimatrix, incumbent: int, mutant: int, eta: float) -> ESSResult:
    """Evolutionary stability of move `incumbent` against invader `mutant`.

    The game must be symmetric (payoff_row == payoff_col.T).  Fitnesses are
    population-share weighted payoffs against the (1-eta, eta) mixture.  Their
    gap (1 - s) d0 + s d1 is linear in the mutant share s, so the invasion
    barrier is its root d0 / (d0 - d1), clamped to [0, 1].
    """
    if not g.is_symmetric():
        raise DomainError("ess_test requires a symmetric game")
    if not 0.0 < eta < 1.0:
        raise DomainError(f"mutant share eta={eta} must lie in (0, 1)")
    A = g.payoff_row
    i, j = _move(incumbent, len(A), "incumbent move"), _move(mutant, len(A), "mutant move")
    fit_i = (1.0 - eta) * A[i, i] + eta * A[i, j]
    fit_j = (1.0 - eta) * A[j, i] + eta * A[j, j]
    d0, d1 = A[i, i] - A[j, i], A[i, j] - A[j, j]
    if d0 < 0.0 or (d0 == 0.0 and d1 <= 0.0):
        barrier = 0.0
    elif d1 >= 0.0:
        barrier = 1.0
    else:
        barrier = d0 / (d0 - d1)
    return ESSResult(
        stable=bool(fit_i - fit_j > 0.0),
        invasion_barrier=float(barrier),
        fitness_incumbent=float(fit_i),
        fitness_mutant=float(fit_j),
    )


# ---------------------------------------------------------------------------
# cooperative games


MAX_PLAYERS = 16


class CharacteristicGame(Frozen):
    """Coalition-value table v(S) over all subsets of n players."""

    __slots__ = ("n_players", "values")

    def __init__(self, n_players: int, v: Mapping):
        n_players = as_index(n_players, "player count")
        if n_players < 1:
            raise DomainError("need at least one player")
        check_size(n_players, MAX_PLAYERS, "player count")
        values = np.zeros(1 << n_players)
        for subset, value in v.items():
            values[self._mask(subset, n_players)] = float(value)
        check_finite(values, "coalition values")
        if values[0] != 0.0:
            raise DomainError("v(empty set) must be 0")
        self._freeze(n_players=n_players, values=values)

    @staticmethod
    def _mask(subset, n_players: int) -> int:
        if isinstance(subset, (int, np.integer)):
            mask = as_index(subset, "coalition mask")
            if not 0 <= mask < (1 << n_players):
                raise DomainError(
                    f"coalition mask {brief(mask)} out of range for {n_players} players")
            return mask
        players = {as_index(player, "player") for player in subset}
        for player in players:  # before 1 << player, which grows with the index
            if not 0 <= player < n_players:
                raise DomainError(f"player {brief(player)} out of range for {n_players} players")
        return sum(1 << player for player in players)

    def value(self, subset) -> float:
        return float(self.values[self._mask(subset, self.n_players)])


class Imputation(Frozen):
    """Per-player allocation vector."""

    __slots__ = ("allocations",)

    def __init__(self, allocations: Sequence[float]):
        arr = np.array(allocations, dtype=float)  # the defensive copy
        if arr.ndim != 1:
            raise DomainError("allocations must be a vector")
        check_finite(arr, "allocations")
        self._freeze(allocations=arr)

    def __len__(self) -> int:
        return len(self.allocations)


def core_check(g: CharacteristicGame, imp: Imputation, tol: float = 1e-9) -> bool:
    """True when every coalition receives at least v(S) and v(N) is fully split."""
    if len(imp) != g.n_players:
        raise DomainError(
            f"imputation length {len(imp)} does not match {g.n_players} players"
        )
    n = g.n_players
    full = (1 << n) - 1
    totals = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + imp.allocations[low.bit_length() - 1]
    if abs(totals[full] - g.values[full]) > tol:
        return False
    return bool(np.all(totals >= g.values - tol))
