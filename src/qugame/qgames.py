"""The quantum games and protocols, executed over the statevector core.

Every protocol returns a GameReport carrying an operator transcript, outcome
probabilities and payoffs.  Stochastic steps accept a forced outcome so tests
can walk every measurement branch deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import density, qalgo, qstate
from .cgame import Bimatrix, CharacteristicGame, MixedStrategy
from .errors import DomainError, as_index, brief, check_size
from .qstate import StateVector, UnitaryMatrix
from .rng import RandomSource

PSEUDO_TELEPATHY_CAP = 54  # one 53-bit uniform picks among 2^(N-1) outputs evenly


# up to this many amplitudes, rounding each part costs less than one numpy pass
_ROUND_BY_PART = 4


def _rounded(amps: np.ndarray) -> list[list[float]]:
    """One [re, im] row per amplitude, each part exactly round(x, 10), in one numpy pass.

    rint(x * 1e10) / 1e10 is round()'s integer over 1e10, correctly rounded, unless
    rounding the product carried x * 1e10 across a half.  An amplitude is at most
    1 + 1e-6 in size, so that rounding is below 2^-19, and the parts whose scaled
    fraction is within 1e-4 of one half are left to round() itself.
    """
    flat = amps.view(np.float64)
    scaled = flat * 1e10
    whole = np.rint(scaled)
    rounded = whole / 1e10
    off = np.abs(scaled - whole)
    if not off.max() < 0.4999:
        for i in np.flatnonzero(off >= 0.4999).tolist():
            rounded[i] = round(flat[i].item(), 10)
    return rounded.reshape(-1, 2).tolist()


@dataclass
class GameReport:
    """Structured record of one protocol run (JSON-ready)."""

    game: str
    params: dict
    transcript: list = field(default_factory=list)
    outcome: str = ""
    payoffs: dict = field(default_factory=dict)
    probabilities: dict = field(default_factory=dict)

    def log(self, actor: str, operation: str, state: StateVector | None = None):
        entry = {"actor": actor, "operation": operation}
        if state is not None:
            amps = state.amps
            if amps.size > _ROUND_BY_PART:
                entry["state"] = _rounded(amps)
            else:
                entry["state"] = [[round(z.real, 10), round(z.imag, 10)] for z in amps.tolist()]
        self.transcript.append(entry)

    def to_json_dict(self) -> dict:
        return {
            "game": self.game,
            "params": self.params,
            "transcript": self.transcript,
            "outcome": self.outcome,
            "payoffs": self.payoffs,
            "probabilities": self.probabilities,
        }


@dataclass(frozen=True)
class MoveSet:
    """Labeled unitary moves available to a player."""

    labels: tuple[str, ...]
    gates: tuple[UnitaryMatrix, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.gates):
            raise DomainError("one label per gate required")
        if not self.labels:
            raise DomainError("a move set needs at least one move")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(zip(self.labels, self.gates))


def move_set(labels: Sequence[str] | str) -> MoveSet:
    """Build a MoveSet from gate names like ["I", "X", "H", "Z"] or "I,X,H,Z"."""
    if isinstance(labels, str):
        labels = [part.strip() for part in labels.split(",") if part.strip()]
    gates = tuple(qstate.standard_gate(label) for label in labels)
    return MoveSet(tuple(str(l).upper() for l in labels), gates)


def prisoners_dilemma_payoffs() -> Bimatrix:
    """Cooperate/defect payoff table with the (3,0,5,1) constants."""
    return Bimatrix(["C", "D"], ["C", "D"], [[3, 0], [5, 1]], [[3, 5], [0, 1]])


def battle_of_sexes_payoffs(alpha: float = 3.0, beta: float = 2.0, gamma: float = 1.0) -> Bimatrix:
    """Opera/TV coordination table; requires alpha > beta > gamma."""
    if not alpha > beta > gamma:  # Bimatrix refuses an infinite one
        raise DomainError(f"need alpha > beta > gamma, got ({alpha}, {beta}, {gamma})")
    return Bimatrix(
        ["O", "T"],
        ["O", "T"],
        [[alpha, gamma], [gamma, beta]],
        [[beta, gamma], [gamma, alpha]],
    )


# ---------------------------------------------------------------------------
# spin flip


def _require_qubit_gate(u: UnitaryMatrix, who: str) -> None:
    if u.dim != 2:
        raise DomainError(f"{who} must play a 2x2 unitary")


def spin_flip_play(
    bob1: UnitaryMatrix,
    alice: UnitaryMatrix,
    bob2: UnitaryMatrix,
    rng: RandomSource | None = None,
    force: int | None = None,
) -> GameReport:
    """One round of the spin-flip game: Bob, Alice, Bob act on an up spin.

    The final measurement pays Alice +1 on down (|1>) and -1 on up (|0>).
    """
    for u, who in ((bob1, "Bob"), (alice, "Alice"), (bob2, "Bob")):
        _require_qubit_gate(u, who)
    report = GameReport("spinflip", params={})
    state = qstate.basis_state([2], [0])
    report.log("Alice", "prepare |u>", state)
    for actor, u in (("Bob", bob1), ("Alice", alice), ("Bob", bob2)):
        state = qstate.apply(state, u)
        report.log(actor, "apply move", state)
    record = qstate.measure(state, rng=rng, force=force)
    alice_pay = 1.0 if record.outcome_index == 1 else -1.0
    report.outcome = "d" if record.outcome_index == 1 else "u"
    report.payoffs = {"Alice": alice_pay, "Bob": -alice_pay}
    probs = state.probabilities()
    report.probabilities = {"u": float(probs[0]), "d": float(probs[1])}
    report.log("referee", f"measure -> {report.outcome}")
    return report


def spin_flip_expected(
    alice_mix: MixedStrategy,
    bob_pair: tuple[UnitaryMatrix, UnitaryMatrix],
    initial: StateVector,
) -> float:
    """Alice's expected payoff when she mixes over {1, sigma_x} (analytic).

    Bob's two moves are fixed; the average runs over Alice's mixture without
    sampling.
    """
    if len(alice_mix) != 2:
        raise DomainError("Alice mixes over the two moves {1, sigma_x}")
    if initial.dims != (2,):
        raise DomainError("spin flip is played on a single qubit")
    bob1, bob2 = bob_pair
    _require_qubit_gate(bob1, "Bob")
    _require_qubit_gate(bob2, "Bob")
    alice_moves = (qstate.identity(2), qstate.pauli_x())
    expected = 0.0
    for weight, move in zip(alice_mix.probs, alice_moves):
        if weight == 0.0:
            continue
        state = qstate.apply(qstate.apply(qstate.apply(initial, bob1), move), bob2)
        p_down = float(np.abs(state.amps[1]) ** 2)
        expected += weight * (2.0 * p_down - 1.0)
    return float(expected)


# ---------------------------------------------------------------------------
# guess-a-number


def guess_number_game(variant: str, n: int, a: int) -> GameReport:
    """Bob guesses Alice's n-bit secret using her oracle.

    Variant I plays Grover rotations against the phase oracle; variant II
    recovers the secret exactly from a single Bernstein-Vazirani query.
    """
    variant = str(variant).upper()
    report = GameReport("guess", params={"variant": variant, "n": n, "secret": a})
    if variant == "I":
        run = qalgo.grover_search(n, a)
        report.log("Bob", f"prepare uniform superposition over {1 << n} numbers")
        report.log("Bob", f"apply {run.k} oracle+diffusion rotations")
        report.outcome = f"guess {a}"
        report.probabilities = {"win": run.success_probability}
        report.params["iterations"] = run.k
        report.params["oracle_calls"] = run.k
    elif variant == "II":
        guess = qalgo.bernstein_vazirani(n, a)
        report.log("Bob", "submit uniform superposition to the bitwise oracle")
        report.log("Bob", "apply the Walsh transform and read the register")
        report.outcome = f"guess {guess}"
        report.probabilities = {"win": 1.0 if guess == a else 0.0}
        report.params["oracle_calls"] = 1
    else:
        raise DomainError(f"unknown variant {variant!r}")
    return report


# ---------------------------------------------------------------------------
# EWL protocol


def ewl_entangler() -> UnitaryMatrix:
    """The two-player symmetric entangling operator (1 + i X x X)/sqrt(2)."""
    x = qstate.pauli_x().entries
    u = (np.eye(4, dtype=complex) + 1j * np.kron(x, x)) / math.sqrt(2.0)
    return UnitaryMatrix._owned(u)


# J|00> as a 2x2 amplitude array, and J^dag with its input index split per qubit
_EWL_START = ewl_entangler().entries[:, 0].reshape(2, 2)
_EWL_UNDO = ewl_entangler().dagger().entries.reshape(4, 2, 2)


def _ewl_kernel(ua: np.ndarray, ub: np.ndarray, payoffs: Bimatrix):
    """Final states and expected payoffs for every pair of stacked 2x2 moves.

    Returns the (len(ua), len(ub), 4) amplitudes of J+ (uA x uB) J |00> and
    the two payoff tables, which weight the basis probabilities with the
    classical 2x2 table.
    """
    if payoffs.shape != (2, 2):
        raise DomainError("EWL games pay off a 2x2 table")
    amps = np.einsum("pik,aij,bkl,jl->abp", _EWL_UNDO, ua, ub, _EWL_START)
    probs = np.abs(amps) ** 2
    return amps, probs @ payoffs.payoff_row.reshape(4), probs @ payoffs.payoff_col.reshape(4)


def ewl_play(
    uA: UnitaryMatrix, uB: UnitaryMatrix, payoffs: Bimatrix
) -> tuple[float, float, StateVector]:
    """Entangle, apply the players' local moves, disentangle, pay off.

    Final state U+ (uA x uB) U |00>; expected payoffs weight the four basis
    probabilities with the classical table.
    """
    _require_qubit_gate(uA, "Alice")
    _require_qubit_gate(uB, "Bob")
    amps, pay_a, pay_b = _ewl_kernel(uA.entries[None], uB.entries[None], payoffs)
    return float(pay_a[0, 0]), float(pay_b[0, 0]), StateVector([2, 2], amps[0, 0])


def ewl_table(moves: MoveSet, payoffs: Bimatrix) -> Bimatrix:
    """Classical payoff table induced by playing EWL over a grid of at most 512
    moves (its kernel holds 4 amplitudes per pair, capped at qstate.MAX_STATE_DIM)."""
    for label, u in moves:
        if u.dim != 2:
            raise DomainError(f"EWL move {label} is not a 2x2 unitary")
    check_size(4 * len(moves.gates) ** 2, qstate.MAX_STATE_DIM, "EWL table amplitudes")
    stack = np.array([u.entries for u in moves.gates])
    _, pay_a, pay_b = _ewl_kernel(stack, stack, payoffs)
    return Bimatrix(moves.labels, moves.labels, pay_a, pay_b)


# ---------------------------------------------------------------------------
# Newcomb


NEWCOMB_PAYOFFS = {0b00: 1_000_000.0, 0b01: 0.0, 0b10: 1_001_000.0, 0b11: 1_000.0}


def newcomb_play(sb_choice: int, w: float, coherent_shorthand: bool = False) -> GameReport:
    """Newcomb's game against the predictor.

    The predictor prepares |00> or |11>, Hadamards Alice's qubit, Alice flips
    with probability w, and the predictor Hadamards again.  Alice's
    probabilistic step is a classical mixture of the two unitary branches;
    ``coherent_shorthand`` instead applies the literal operator sum
    w(X x 1) + (1-w)(1 x 1), whose |11> coefficient is 1 - 2w.
    """
    if sb_choice not in (0, 1):
        raise DomainError("the predictor chooses 0 or 1")
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"flip probability w={w} outside [0, 1]")
    report = GameReport(
        "newcomb",
        params={"sb_choice": sb_choice, "w": w, "coherent_shorthand": coherent_shorthand},
    )
    h = qstate.hadamard()
    x = qstate.pauli_x()
    initial = qstate.basis_state([2, 2], [sb_choice, sb_choice])
    report.log("SB", f"prepare |{sb_choice}{sb_choice}>", initial)
    stage = qstate.apply(initial, h, [0])
    report.log("SB", "Hadamard on Alice's qubit", stage)

    if coherent_shorthand:
        # literal (unphysical) operator sum applied to amplitudes; the result
        # is sub-normalized, so only the target coefficient is reported
        mixed = w * qstate.apply(stage, x, [0]).amps + (1.0 - w) * stage.amps
        target = 0b00 if sb_choice == 0 else 0b11
        h_mat = np.kron(h.entries, np.eye(2))
        coefficient = complex((h_mat @ mixed)[target])
        report.params["coherent_coefficient"] = [coefficient.real, coefficient.imag]
        report.outcome = qstate.basis_label((2, 2), target)
        report.log("SB", "Hadamard on Alice's qubit (coherent shorthand)")
        report.probabilities = {"target_weight": abs(coefficient) ** 2}
        return report

    # classical mixture of the two unitary branches
    dists = []
    for weight, move, name in ((w, x, "sigma_x"), (1.0 - w, None, "identity")):
        if weight == 0.0:
            continue
        branch = stage if move is None else qstate.apply(stage, move, [0])
        branch = qstate.apply(branch, h, [0])
        report.log("Alice", f"branch {name} (weight {weight})", branch)
        dists.append(weight * branch.probabilities())
    probs = np.sum(dists, axis=0)
    report.probabilities = {
        qstate.basis_label((2, 2), k): float(p) for k, p in enumerate(probs) if p > 1e-15
    }
    report.outcome = qstate.basis_label((2, 2), int(np.argmax(probs)))
    dollars = float(sum(NEWCOMB_PAYOFFS[k] * probs[k] for k in range(4)))
    report.payoffs = {"Alice": dollars}
    return report


# ---------------------------------------------------------------------------
# card game


_H = qstate.hadamard()
# Bob's query H U_k H on card k, U_k = phase_gate(up-face bit), as one 8x8 gate per
# legal deal (0, 1, b): kron(Q_0, Q_1, Q_b) with Q_bit = H U H
_CARD_BIT = [_H @ qstate.phase_gate(bit) @ _H for bit in (0, 1)]
_CARD_QUERY = tuple(qstate.tensor(qstate.tensor(*_CARD_BIT), q) for q in _CARD_BIT)


def card_game_round(
    r: Sequence[int], draw: int | None = None, rng: RandomSource | None = None
) -> GameReport:
    """One round of the three-card game with Bob's quantum query.

    Cards: 0 = circle/circle, 1 = dot/dot, 2 = circle/dot; ``r`` lists the
    up-faces, so a legal deal has r = (0, 1, b) with only the mixed card's
    orientation b free.  Bob's query (H U_k H per card, applied as the deal's
    precomputed 8x8 gate ``_CARD_QUERY[b]``) reveals the up-faces;
    he withdraws when his drawn card shows the minority mark (a sure loser)
    and otherwise plays, winning only if he actually drew the mixed card.
    """
    r = tuple(as_index(b, "deal bit") for b in r)
    if len(r) != 3 or any(b not in (0, 1) for b in r):
        raise DomainError(f"deal must be three bits, got {r}")
    if r[0] != 0 or r[1] != 1:
        raise DomainError(f"illegal deal {r}: card 0 shows circles, card 1 shows dots")
    if draw is not None:
        draw = as_index(draw, "draw index")
        if not 0 <= draw <= 2:
            raise DomainError(f"draw index {draw} out of range")
    if rng is None:  # the query readout is sampled even when the draw is given
        raise DomainError("pass rng")
    if draw is None:
        draw = rng.integer(0, 2)

    report = GameReport("card", params={"deal": list(r), "draw": draw})
    state = qstate.basis_state([2, 2, 2], [0, 0, 0])
    report.log("Bob", "prepare query register |000>", state)
    state = qstate.apply(state, _CARD_QUERY[r[2]])
    report.log("Bob", "apply H U_k H per card", state)
    record = qstate.measure(state, rng=rng)
    revealed = qstate.index_to_digits((2, 2, 2), record.outcome_index)
    if revealed != r:
        raise DomainError("query circuit failed to reveal the deal")  # pragma: no cover
    report.log("Bob", f"read up-faces {revealed}")

    majority = 1 if sum(r) >= 2 else 0
    up_face = r[draw]
    if up_face != majority:
        report.outcome = "withdraw"
        report.payoffs = {"Alice": 0.0, "Bob": 0.0}
        report.probabilities = {"bob_win_if_played": 0.0}
        report.log("Bob", "withdraw: drawn card shows the minority mark")
    else:
        bob_wins = draw == 2
        report.outcome = "bob-wins" if bob_wins else "alice-wins"
        pay = 1.0 if bob_wins else -1.0
        report.payoffs = {"Alice": -pay, "Bob": pay}
        # from Bob's viewpoint the two majority-up cards are equally likely
        report.probabilities = {"bob_win_if_played": 0.5}
        report.log("Bob", f"play: card {draw} -> {report.outcome}")
    return report


# ---------------------------------------------------------------------------
# pseudo-telepathy


def pseudo_telepathy_round(
    x: Sequence[int], rng: RandomSource | None = None, force: int | None = None
) -> tuple[tuple[int, ...], bool]:
    """One round of the N-player parity promise game on a shared |b0^N>.

    Players holding x_i = 1 phase their qubit by i, everyone Hadamards and
    measures; the promise requires sum(x) even and the players always win.
    The outcome law is closed (Mermin 1990; Brassard, Broadbent & Tapp 2003):
    each y with sum(y) = sum(x)/2 mod 2 has probability 2/2^N.  One uniform u
    picks the k-th of them in index order, k = floor(u 2^(N-1)), as a search of
    the dense cumulative table would.  ``force`` selects an outcome index.
    """
    n = check_size(len(x), PSEUDO_TELEPATHY_CAP, "player count")
    if n < 2:
        raise DomainError("need at least 2 players")
    x = tuple(as_index(b, "input bit") for b in x)
    if any(b not in (0, 1) for b in x):
        raise DomainError(f"inputs must be bits, got {x}")
    if sum(x) % 2 != 0:
        raise DomainError("promise violated: sum of inputs must be even")
    parity = (sum(x) // 2) % 2
    if force is None:
        if rng is None:
            raise DomainError("pass rng or force")
        k = int(rng.uniform() * (1 << (n - 1)))
        index = 2 * k + (k.bit_count() + parity) % 2  # k's N-1 bits, then the parity bit
    else:
        index = as_index(force, "forced outcome")
        if not 0 <= index < 1 << n or index.bit_count() % 2 != parity:
            raise DomainError(f"forced outcome {brief(index)} is not a possible outcome")
    y = qstate.index_to_digits((2,) * n, index)
    return y, sum(y) % 2 == parity


def pseudo_telepathy_game(n: int) -> CharacteristicGame:
    """Induced coalition game: worthless proper coalitions, v(N) = 1."""
    return CharacteristicGame(n, {tuple(range(n)): 1.0})


# ---------------------------------------------------------------------------
# teleportation


# the fixed states, the Bell readout (row k is <b_k|, so outcome k reads b_k) and
# Bob's corrections (i sigma_y, -sigma_z, sigma_x, -1), built once
_BELL = qstate.bell_basis(2)
_BELL_READOUT = UnitaryMatrix(np.array([b.amps for b in _BELL]).conj())
_GHZ = qstate.bell_basis(3)[0]
_CORRECTION_GATES = (
    UnitaryMatrix._owned([[0, 1], [-1, 0]]),
    UnitaryMatrix._owned([[-1, 0], [0, 1]]),
    qstate.pauli_x(),
    UnitaryMatrix._owned([[-1, 0], [0, -1]]),
)


def teleport(
    psi: StateVector, rng: RandomSource | None = None, force: int | None = None
) -> GameReport:
    """Teleport a qubit through the shared singlet |b3>.

    Alice Bell-measures the unknown qubit with her half of the pair (each
    outcome has weight 1/4); Bob applies the outcome's correction
    (i sigma_y, -sigma_z, sigma_x, -1) and recovers psi up to global phase.
    """
    if psi.dims != (2,):
        raise DomainError("teleport expects a single qubit")
    state = qstate.tensor(psi, _BELL[3])
    report = GameReport("teleport", params={})
    report.log("Alice", "compose psi with shared |b3>", state)
    record = qstate.measure(qstate.apply(state, _BELL_READOUT, (0, 1)), targets=(0, 1),
                            rng=rng, force=force)
    k = record.outcome_index
    report.log("Alice", f"Bell measurement -> b{k} (prob {record.probability:.4f})")
    recovered = qstate.apply(record.residual, _CORRECTION_GATES[k])
    report.log("Bob", f"apply correction for b{k}", recovered)
    fidelity = abs(qstate.inner(recovered, psi))
    report.outcome = f"b{k}"
    report.probabilities = {f"b{j}": 0.25 for j in range(4)}
    report.params["recovery_fidelity"] = float(fidelity)
    return report


# ---------------------------------------------------------------------------
# secret sharing


_X, _Z = qstate.pauli_x().entries, qstate.pauli_z().entries
# Gerald's correction, indexed [bell outcome][bob outcome]; bob outcome 0 is
# |x+>, 1 is |x-> (the Hadamard is the x-basis readout).
_SHARING_CORRECTIONS = tuple(
    tuple(UnitaryMatrix(m) for m in pair)
    for pair in ((np.eye(2), _Z), (_X, _X @ _Z), (_Z, np.eye(2)), (_Z @ _X, -_X))
)


def secret_share_qubit(
    secret: StateVector,
    rng: RandomSource | None = None,
    force: tuple[int, int] | None = None,
) -> GameReport:
    """(2,3)-style qubit sharing over a GHZ triple.

    Alice Bell-measures the secret with her GHZ share and announces the
    outcome; Bob measures his share in the x basis; Gerald applies the
    tabulated Pauli correction and holds the secret.  Neither message alone
    determines the state: given only Alice's, Gerald's density matrix is
    diagonal (no phases); given only Bob's, it is fully mixed.
    """
    if secret.dims != (2,):
        raise DomainError("the shared secret must be a single qubit")
    state = qstate.tensor(secret, _GHZ)  # qubits: secret, Alice, Bob, Gerald
    report = GameReport("secret-qubit", params={})
    report.log("Alice", "compose secret with GHZ", state)

    force_bell = force[0] if force is not None else None
    record = qstate.measure(qstate.apply(state, _BELL_READOUT, (0, 1)), targets=(0, 1),
                            rng=rng, force=force_bell)
    k = record.outcome_index
    bob_gerald = record.residual
    report.log("Alice", f"Bell measurement -> b{k} (prob {record.probability:.4f})")

    force_bob = force[1] if force is not None else None
    bob_record = qstate.measure(qstate.apply(bob_gerald, _H, (0,)), targets=(0,),
                                rng=rng, force=force_bob)
    s = bob_record.outcome_index
    report.log("Bob", f"x-basis measurement -> x{'+' if s == 0 else '-'}")

    recovered = qstate.apply(bob_record.residual, _SHARING_CORRECTIONS[k][s])
    report.log("Gerald", "apply tabulated correction", recovered)
    fidelity = abs(qstate.inner(recovered, secret))

    # security bookkeeping: what each message alone leaves Gerald with.
    # Alice's alone: Gerald's state given only the Bell outcome is diagonal
    # (phases lost); Bob's alone: his x outcome leaves Gerald, once Alice's
    # two qubits are traced out (summed over her Bell basis), fully mixed.
    rho_given_alice = density.reduced(bob_gerald, (1,))
    given_bob = qstate.measure(qstate.apply(state, _H, (2,)), targets=(2,), force=s).residual
    mix = density.reduced(given_bob, (2,)).entries
    off_diag = float(np.abs(rho_given_alice.entries[0, 1]))
    mixed_dev = float(np.abs(mix - np.eye(2) / 2.0).max())

    report.outcome = f"b{k}/x{'+' if s == 0 else '-'}"
    report.probabilities = {"bell": record.probability, "bob": bob_record.probability}
    report.params.update(
        {
            "recovery_fidelity": float(fidelity),
            "gerald_offdiag_given_alice_only": off_diag,
            "gerald_deviation_from_mixed_given_bob_only": mixed_dev,
        }
    )
    return report


_PAIR_NAMES = {
    frozenset((0, 1)): ("alice", "bob"),
    frozenset((1, 2)): ("bob", "gerald"),
    frozenset((0, 2)): ("gerald", "alice"),
}
_MEMBER_INDEX = {"alice": 0, "bob": 1, "gerald": 2}
# the cyclic code's nine basis states |j, j+s, j+2s> (mod 3), as register
# indices, and the secret digit s each one carries
_QUTRIT_CODE = tuple(
    (qstate.digits_to_index((3, 3, 3), (j, (j + s) % 3, (j + 2 * s) % 3)), s)
    for s in range(3) for j in range(3)
)
_ADD_MOD_3 = qstate.controlled_add(3)


def encode_qutrit_secret(secret: StateVector) -> StateVector:
    """Spread a qutrit over three shares with the cyclic (2,3)-threshold code."""
    if secret.dims != (3,):
        raise DomainError("the shared secret must be a single qutrit")
    amps = np.zeros(27, dtype=complex)
    scale = 1.0 / math.sqrt(3.0)
    for index, s in _QUTRIT_CODE:
        amps[index] = secret.amps[s] * scale
    return StateVector._owned((3, 3, 3), amps)


def secret_share_qutrit(secret: StateVector, pair: str) -> GameReport:
    """(2,3)-threshold qutrit sharing with modulo-3 recovery.

    ``pair`` names the two cooperating members (e.g. "alice,bob").  The
    member whose cyclic successor (alice -> bob -> gerald -> alice) is the
    other one performs the recovery: the helper adds the recoverer's qutrit
    to their own, then the recoverer adds the helper's new qutrit back.  The
    recoverer ends holding the secret, disentangled from the rest.
    """
    if not isinstance(pair, str):
        raise DomainError(f"pair must be a string such as 'alice,bob', got {type(pair).__name__}")
    members = [p.strip().lower() for p in pair.split(",") if p.strip()]
    if len(members) != 2 or any(m not in _MEMBER_INDEX for m in members):
        raise DomainError(f"pair must name two of alice/bob/gerald, got {pair!r}")
    indices = frozenset(_MEMBER_INDEX[m] for m in members)
    if len(indices) != 2:
        raise DomainError("pair members must differ")
    recoverer_name, helper_name = _PAIR_NAMES[indices]
    recoverer = _MEMBER_INDEX[recoverer_name]
    helper = _MEMBER_INDEX[helper_name]

    report = GameReport(
        "secret-qutrit",
        params={"pair": sorted(members), "recoverer": recoverer_name, "helper": helper_name},
    )
    encoded = encode_qutrit_secret(secret)
    report.log("Alice", "encode secret into three shares", encoded)

    report.params["share_mixedness_deviation"] = [
        float(np.abs(density.reduced(encoded, (share,)).entries - np.eye(3) / 3.0).max())
        for share in range(3)
    ]

    state = qstate.apply(encoded, _ADD_MOD_3, [recoverer, helper])
    report.log(helper_name, "add recoverer's qutrit to own (mod 3)", state)
    state = qstate.apply(state, _ADD_MOD_3, [helper, recoverer])
    report.log(recoverer_name, "add helper's new qutrit to own (mod 3)", state)

    rho_rec = density.reduced(state, (recoverer,))
    fidelity = density.measure_prob(rho_rec, secret)
    purity = float((rho_rec.entries @ rho_rec.entries).trace().real)
    report.outcome = f"{recoverer_name} holds the secret"
    report.params["recovery_fidelity"] = float(fidelity)
    report.params["recoverer_purity"] = purity
    return report
