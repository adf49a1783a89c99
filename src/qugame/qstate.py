"""Qudit statevector core: registers, gates, tensor products, measurement.

Conventions used throughout the package:

* A register is an ordered list of subsystem dimensions, e.g. ``(2, 2, 3)``
  for two qubits and a qutrit.  The *leftmost* subsystem is the most
  significant digit, so the 5-qubit label ``10011`` addresses amplitude
  index 19.
* Gates are dense complex matrices certified unitary on construction.
* All values are immutable after construction; the only stateful object is
  the RandomSource consumed by ``measure``.
* ``apply`` and ``measure`` see the register as an (L, T, R) block with the
  addressed subsystems on the middle axis: a zero-copy view for contiguous
  ascending targets, one transposed copy with the targets in front
  otherwise.  ``_split`` and ``_join`` are the only code that picks this
  layout; ``_contract`` runs one kernel on the block: a batched matmul, or for a
  lead L above 32 with T*R at most 32 one GEMM of kron(m, I_R) over (L, T*R) rows.
* ``measure`` is the one measurement primitive and reads the computational basis;
  a basis {b_k} is read by applying first the readout ``UnitaryMatrix`` with rows
  <b_k|.  Its record's residual is what a receiver holds after a Bell measurement.
* Every ``StateVector``'s norm is within NORM_TOL of 1.  Each value carries a bound,
  ``drift``: a state's on |norm - 1|, up to the rounding of the norm pass that last
  measured it, and a gate's on how far its singular values are from 1.  A gate
  certified at deviation delta = max|U+U - 1| has drift dim*delta (plus the rounding
  of U+U), which ``apply`` adds to the state's bound together with the rounding of its
  length-T kernel (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
  2002, sections 3.5-3.6).  ``apply`` and the residual of ``measure`` run a norm
  pass only when their bound passes NORM_TOL, and ``basis_state`` none; every
  other constructor of a state runs one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DomainError, Frozen, as_index, brief, brief_all, check_qubits, check_size,
                     copy_array)
from .rng import RandomSource

# Size caps (module-level, adjustable, read by errors.check_size/check_qubits
# at each call, before the allocation): dense statevectors up to 2^20
# amplitudes, dense operators (identity, controlled_add, walsh, qft, the Grover
# matrices, maximally mixed density matrices) up to dimension 2^11.
MAX_STATE_DIM = 1 << 20
MAX_OPERATOR_DIM = 1 << 11

# Construction-time checks run at 1e-8; equality assertions in tests use 1e-10.
NORM_TOL = 1e-10
UNITARY_TOL = 1e-8
PHASE_TOL = 1e-8


# unit roundoff of float64
_U = 2.0**-53
# drift of a gate the package builds through `UnitaryMatrix._owned`, times dim^2: a
# worst-case bound on every builder's rounding; the largest, qft's phases, measures
# about 1.3 dim^1.5 u (tests/test_qstate.py checks each builder against it)
_BUILT_DRIFT = 32 * _U


def _unit(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """(arr, |norm - 1|) if its norm is within NORM_TOL of 1, else arr divided by its
    norm and the bound 2u of that division.

    A norm further than 1e-6 from 1, NaN or infinite is a DomainError.  arr
    must be a contiguous complex vector.
    """
    flat = arr.view(np.float64)
    norm = math.sqrt(flat @ flat)
    deviation = abs(norm - 1.0)
    if not deviation <= 1e-6:
        raise DomainError(f"state is not normalized (norm {norm})")
    if deviation > NORM_TOL:
        return arr / norm, 2 * _U
    return arr, deviation


def _rounding(k: int) -> float:
    """Bound on sqrt(2) gamma_{k+2} (Higham section 3.6): the error of a complex inner
    product of length k relative to |x|.|y|, a complex product's for k = 0."""
    return 1.5 * (k + 2) * _U


def _grow(a: float, b: float, rounding: float) -> float:
    """Drift of a computed product of two factors whose singular values (a state's
    norm) lie within a and b of 1: a + b + ab for the exact product, plus its rounding
    relative to the product of the factors' norms.  A NaN stays NaN."""
    return a + b + a * b + rounding * (1.0 + a) * (1.0 + b)


# the least weight `_residual_drift` trusts: from it up, the squares' underflow (at most
# 2^-1075 each, 2^21 of them) costs the weight less than u
_TINY_WEIGHT = 2.0**-960


def _residual_drift(size: int, weight: float) -> float:
    """Bound on |norm - 1| of `size` amplitudes divided by the square root of their
    computed squared norm `weight`, and on what a norm pass would read; infinity
    below _TINY_WEIGHT, so that the pass runs.

    The weight, a sum of 2 size squares, is within g = gamma_{2 size} + u of the
    exact one (u for underflow), the square root adds u and the division 2u (a
    reciprocal, then a product per entry): the norm is within about g/2 + 3u of 1,
    and a norm pass reads at most about gamma/2 + 2u more; 2 gamma + 8u covers both
    (Higham 2002, sections 3.1-3.5).
    """
    if not weight >= _TINY_WEIGHT:  # NaN too
        return math.inf
    k = 2 * size
    return 2 * k * _U / (1 - k * _U) + 8 * _U


def digits_to_index(dims: Sequence[int], digits: Sequence[int]) -> int:
    """Mixed-radix index of a digit string, leftmost digit most significant."""
    if len(digits) != len(dims):
        raise DomainError(f"expected {len(dims)} digits, got {len(digits)}")
    index = 0
    for d, digit in zip(dims, digits):
        digit = as_index(digit, "digit")
        if not 0 <= digit < d:
            raise DomainError(f"digit {brief(digit)} out of range for dimension {brief(d)}")
        index = index * d + digit
    return index


def index_to_digits(dims: Sequence[int], index: int) -> tuple[int, ...]:
    """Inverse of digits_to_index."""
    digits = []
    for d in reversed(dims):
        digits.append(index % d)
        index //= d
    return tuple(reversed(digits))


def basis_label(dims: Sequence[int], index: int) -> str:
    """Ket label of a basis index, e.g. '|011>' for index 3 over (2, 2, 2)."""
    return "|" + "".join(map(str, index_to_digits(dims, index))) + ">"


def _register(dims: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """dims as a tuple of integers >= 2, and the amplitude count, within MAX_STATE_DIM."""
    dims = tuple(as_index(d, "dimension") for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise DomainError(f"every subsystem dimension must be >= 2, got {brief_all(dims)}")
    return dims, check_size(math.prod(dims), MAX_STATE_DIM, "state dimension")


class StateVector(Frozen):
    """Normalized complex amplitude vector over a list of subsystem dimensions.

    ``drift`` is the package's bound on |norm - 1|, at most NORM_TOL.
    """

    __slots__ = ("dims", "amps", "drift")

    def __init__(self, dims: Sequence[int], amps):
        dims, total = _register(dims)
        arr = copy_array(amps, complex, "amplitudes")
        if arr.shape != (total,):
            raise DomainError(f"expected {total} amplitudes for dims {dims}, got shape {arr.shape}")
        arr, drift = _unit(arr)
        self._freeze(dims=dims, amps=arr, drift=drift)

    @classmethod
    def _owned(cls, dims: tuple[int, ...], arr: np.ndarray,
               drift: float = math.inf) -> "StateVector":
        """Trusted constructor for a fresh array the package made itself.

        dims must be a valid tuple and arr a contiguous complex vector of
        matching size that no one else holds; it is neither re-validated nor
        copied.  drift is the caller's bound on |norm - 1| (`apply` passes its
        own; by default there is none).  Only a bound above NORM_TOL runs the
        norm pass, which checks the norm, renormalizes a drifted one and
        records what it measured as the new bound.
        """
        if not drift <= NORM_TOL:  # NaN too
            arr, drift = _unit(arr)
        return object.__new__(cls)._freeze(dims=dims, amps=arr, drift=drift)

    @property
    def dim(self) -> int:
        return self.amps.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def __repr__(self) -> str:
        return f"StateVector(dims={self.dims}, dim={self.dim})"

    def to_json_dict(self) -> dict:
        """dims, and one [re, im] row per amplitude."""
        return {"dims": list(self.dims), "amps": self.amps.view(np.float64).reshape(-1, 2).tolist()}


class UnitaryMatrix(Frozen):
    """Dense complex square matrix with a unitarity certificate (U+U = 1).

    ``drift`` bounds how far each singular value of U is from 1; the public
    constructor's bounds ||U+U - 1||_2, which is at least that.
    """

    __slots__ = ("dim", "entries", "drift")

    def __init__(self, entries):
        arr = copy_array(entries, complex, "matrix entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise DomainError(f"matrix must be square and non-empty, got shape {arr.shape}")
        deviation = np.abs(arr.conj().T @ arr - np.eye(len(arr))).max()
        if not deviation <= UNITARY_TOL:  # NaN fails too
            raise DomainError(f"matrix is not unitary (max deviation {deviation:.3e})")
        # each entry of the exact U+U - 1 is within the rounding of U+U of deviation,
        # and a spectral norm is at most dim times the largest entry
        dim = len(arr)
        self._freeze(dim=dim, entries=arr, drift=dim * (deviation + 2 * _rounding(dim)))

    @classmethod
    def _owned(cls, entries, drift: float | None = None) -> "UnitaryMatrix":
        """Trusted constructor for a unitary the package has just built: entries is not
        certified and is copied only into C-order complex, so an array must be fresh.
        drift defaults to the builders' bound _BUILT_DRIFT * dim^2, or infinity when the
        entries' sum is not finite (an entry is not, or the sum overflows), so that
        `apply` checks what such a gate makes."""
        arr = np.ascontiguousarray(entries, dtype=complex)
        if drift is None:
            drift = _BUILT_DRIFT * arr.size if cmath.isfinite(arr.sum()) else math.inf
        return object.__new__(cls)._freeze(dim=len(arr), entries=arr, drift=drift)

    def dagger(self) -> "UnitaryMatrix":
        return UnitaryMatrix._owned(self.entries.conj().T, self.drift)

    def __matmul__(self, other: "UnitaryMatrix") -> "UnitaryMatrix":
        if self.dim != other.dim:
            raise DomainError("dimension mismatch in matrix product")
        # ||(|A| |B|)||_2 <= ||A||_F ||B||_F <= dim ||A||_2 ||B||_2
        drift = _grow(self.drift, other.drift, self.dim * _rounding(self.dim))
        return UnitaryMatrix._owned(self.entries @ other.entries, drift)

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


@dataclass(frozen=True)
class MeasurementRecord:
    """One computational-basis measurement outcome.

    ``probability`` is the Born weight of outcome ``outcome_index`` over the
    measured subsystems (mixed-radix, in target order).  ``residual`` is the
    normalized state of the unmeasured subsystems in register order, None
    when every subsystem was measured.
    """

    outcome_index: int
    probability: float
    residual: StateVector | None


# ---------------------------------------------------------------------------
# construction


def basis_state(dims: Sequence[int], digits: Sequence[int] | str) -> StateVector:
    """Computational basis state |digits> over the given dimension list."""
    dims, total = _register(dims)
    if isinstance(digits, str):
        if not (digits.isascii() and digits.isdigit()):
            raise DomainError(f"basis label {digits!r} must be decimal digits")
        digits = [int(c) for c in digits]
    elif not hasattr(digits, "__len__"):
        raise DomainError(f"basis digits must be a sequence or a label, got {type(digits).__name__}")
    amps = np.zeros(total, dtype=complex)
    amps[digits_to_index(dims, digits)] = 1.0
    return StateVector._owned(dims, amps, 0.0)  # one amplitude 1: the norm is exact


def tensor(a, b):
    """Kronecker product of two states or two unitaries; dims concatenate."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        check_size(a.dim * b.dim, MAX_STATE_DIM, "state dimension")
        # the products np.kron forms, into a fresh array the result owns
        return StateVector._owned(a.dims + b.dims, np.multiply.outer(a.amps, b.amps).reshape(-1))
    if isinstance(a, UnitaryMatrix) and isinstance(b, UnitaryMatrix):
        dim = check_size(a.dim * b.dim, MAX_OPERATOR_DIM, "operator dimension")
        # one complex product per entry; ||(|A| x |B|)||_2 <= sqrt(dim) ||A||_2 ||B||_2
        drift = _grow(a.drift, b.drift, math.sqrt(dim) * _rounding(0))
        return UnitaryMatrix._owned(np.kron(a.entries, b.entries), drift)
    raise DomainError("tensor requires two StateVectors or two UnitaryMatrices")


# ---------------------------------------------------------------------------
# gates

_SQ2 = 1.0 / math.sqrt(2.0)


def identity(dim: int = 2) -> UnitaryMatrix:
    dim = check_size(dim, MAX_OPERATOR_DIM, "operator dimension")
    return UnitaryMatrix._owned(np.eye(dim, dtype=complex))


# the parameterless gates, built once: each call returns the same frozen value
_PAULI_X = UnitaryMatrix._owned([[0, 1], [1, 0]])
_PAULI_Y = UnitaryMatrix._owned([[0, -1j], [1j, 0]])
_PAULI_Z = UnitaryMatrix._owned([[1, 0], [0, -1]])
_HADAMARD = UnitaryMatrix._owned([[_SQ2, _SQ2], [_SQ2, -_SQ2]])
_CNOT = UnitaryMatrix._owned(np.eye(4)[[0, 1, 3, 2]])
_QUARTER_PHASE = UnitaryMatrix._owned([[1, 0], [0, 1j]])


def pauli_x() -> UnitaryMatrix:
    return _PAULI_X


def pauli_y() -> UnitaryMatrix:
    return _PAULI_Y


def pauli_z() -> UnitaryMatrix:
    return _PAULI_Z


def hadamard() -> UnitaryMatrix:
    return _HADAMARD


def cnot() -> UnitaryMatrix:
    """Controlled NOT on two qubits; left (most significant) qubit controls."""
    return _CNOT


def phase_gate(r: float) -> UnitaryMatrix:
    """diag(1, e^{i pi r}): identity at r=0, pauli_z at r=1."""
    if not math.isfinite(r):
        raise DomainError(f"phase {r} must be a finite number")
    return UnitaryMatrix._owned([[1, 0], [0, np.exp(1j * math.pi * r)]])


def quarter_phase() -> UnitaryMatrix:
    """diag(1, i); applying it twice to |1> gives -|1>."""
    return _QUARTER_PHASE


def controlled_add(dim: int = 3) -> UnitaryMatrix:
    """Two-qudit gate |c,t> -> |c, (t+c) mod dim>; left qudit controls."""
    dim = as_index(dim, "dimension")
    size = check_size(dim * dim, MAX_OPERATOR_DIM, "operator dimension")
    m = np.zeros((size, size), dtype=complex)
    for c in range(dim):
        for t in range(dim):
            m[c * dim + (t + c) % dim, c * dim + t] = 1.0
    return UnitaryMatrix._owned(m)


# lower-case gate names; the short ones are the move labels of the games and the CLI
_GATES = {
    "identity": identity, "i": identity, "1": identity,
    "pauli_x": pauli_x, "x": pauli_x,
    "pauli_y": pauli_y, "y": pauli_y,
    "pauli_z": pauli_z, "z": pauli_z,
    "hadamard": hadamard, "h": hadamard,
    "cnot": cnot,
    "quarter_phase": quarter_phase,
}


def standard_gate(name: str) -> UnitaryMatrix:
    """Case-insensitive named gate lookup: identity (short I or 1, the qubit one),
    pauli_x/y/z (X, Y, Z), hadamard (H), cnot, quarter_phase.  phase_gate(r) and
    identity(d) take their parameter by call, not by name."""
    builder = _GATES.get(name.strip().lower())
    if builder is None:
        raise DomainError(f"unknown gate {name!r}")
    return builder()


def walsh(n: int) -> UnitaryMatrix:
    """Walsh-Hadamard transform on n qubits, H tensored n times.

    Entry (x, y) is (-1)^(x.y) / sqrt(2^n) with x.y the bitwise dot product;
    the transform is its own inverse.
    """
    n = check_qubits(n, MAX_OPERATOR_DIM)
    h = hadamard().entries
    m = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        m = np.kron(m, h)
    return UnitaryMatrix._owned(m)


def qft(n: int) -> UnitaryMatrix:
    """Quantum Fourier transform on n qubits: entry (x,y) = e^{2 pi i xy/2^n}/sqrt(2^n).
    Its inverse is qft(n).dagger()."""
    dim = 1 << check_qubits(n, MAX_OPERATOR_DIM)
    exponent = np.outer(np.arange(dim), np.arange(dim))
    m = np.exp(2j * math.pi * exponent / dim) / math.sqrt(dim)
    return UnitaryMatrix._owned(m)


# ---------------------------------------------------------------------------
# operations


def _resolve_targets(state: StateVector, targets: Sequence[int] | None) -> tuple[int, ...]:
    if targets is None:
        return tuple(range(len(state.dims)))
    targets = tuple(as_index(t, "target") for t in targets)
    if len(set(targets)) != len(targets):
        raise DomainError(f"targets must be distinct, got {brief_all(targets)}")
    for t in targets:
        if not 0 <= t < len(state.dims):
            raise DomainError(f"target {brief(t)} out of range for {len(state.dims)} subsystems")
    return targets


# A lead L up to this runs one batched matmul over L.  A longer lead with T*R up to
# this folds m to kron(m, I_R) for one GEMM over (L, T*R) rows, where a batched
# matmul makes L tiny GEMMs (2^18 for the next-to-last of 20 qubits).
_FOLD_WIDTH = 32


def _split(state: StateVector, targets: Sequence[int] | None):
    """Amplitudes as an (L, T, R) block, the target basis index on the middle axis.

    Contiguous ascending targets give a zero-copy view: L and R are the
    dimensions of the subsystems before and after them.  Any other target
    list gives one transposed copy with the targets in front, in the given
    order, and the rest behind them in register order (L = 1).  Either way
    the (L, R) pair indexes the other subsystems in register order.  Returns
    (targets, block, order); order is None for the view and the axis order
    of the copy otherwise.  Only this helper and `_join` decide the layout.
    """
    targets = _resolve_targets(state, targets)
    dims = state.dims
    target_dim = math.prod(dims[t] for t in targets)
    first = min(targets, default=0)
    if targets == tuple(range(first, first + len(targets))):
        return targets, state.amps.reshape(math.prod(dims[:first]), target_dim, -1), None
    order = targets + tuple(i for i in range(len(dims)) if i not in targets)
    block = np.transpose(state.amps.reshape(dims), order).reshape(1, target_dim, -1)
    return targets, block, order


def _join(block: np.ndarray, dims: tuple[int, ...], order: tuple[int, ...] | None) -> np.ndarray:
    """Inverse of `_split`: flat amplitudes in register order from a block laid out by `order`."""
    if order is None:
        return block.reshape(-1)
    shuffled = block.reshape([dims[i] for i in order])
    return np.transpose(shuffled, sorted(range(len(order)), key=order.__getitem__)).reshape(-1)


def _contract(m: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The (L, K, R) block of m (K x T) acting on the middle axis of an (L, T, R) block.

    A batched matmul over L (one GEMM when L = 1) when L is at most _FOLD_WIDTH
    or T*R is wider than it; otherwise one GEMM with m folded to kron(m, I_R)
    (R = 1 folds nothing: psi.reshape(L, T) @ m.T).
    """
    lead, width, tail = block.shape
    if lead <= _FOLD_WIDTH or width * tail > _FOLD_WIDTH:
        return np.matmul(m, block)
    if tail > 1:
        m = (m[:, None, :, None] * np.eye(tail)[:, None, :]).reshape(m.shape[0] * tail, -1)
    return (block.reshape(lead, -1) @ m.T).reshape(lead, -1, tail)


def _weights(block: np.ndarray) -> np.ndarray:
    """Squared norm of each middle-axis slice of an (L, T, R) block: one reduction
    over axes 0 and 2 of its real and imaginary parts, with no |.|^2 temporary."""
    lead, width, tail = block.shape
    parts = block.view(np.float64)
    if width * tail > _FOLD_WIDTH:
        return np.einsum("ltr,ltr->t", parts, parts)
    rows = parts.reshape(lead, -1)  # few columns: reduce down them, then per slice
    return np.einsum("lj,lj->j", rows, rows).reshape(width, -1).sum(axis=1)


def apply(state: StateVector, u: UnitaryMatrix, targets: Sequence[int] | None = None) -> StateVector:
    """Apply u on the addressed subsystems, identity elsewhere. Norm-preserving.

    The result's drift is the state's and u's, grown by the rounding of the
    kernel's length-T inner products (a fold's extra terms are exact zeros):
    ||(|I x U x I|)||_2 = ||(|U|)||_2 <= sqrt(T) ||U||_2.  A norm pass runs only
    when that passes NORM_TOL.
    """
    targets, block, order = _split(state, targets)
    if u.dim != block.shape[1]:
        raise DomainError(
            f"operator dimension {u.dim} does not match target dimensions {block.shape[1]}"
        )
    # rebind at each step so every intermediate is freed before the next large
    # allocation; an extra live buffer costs fresh page faults on big registers
    block = _contract(u.entries, block)
    drift = _grow(state.drift, u.drift, math.sqrt(u.dim) * _rounding(u.dim))
    return StateVector._owned(state.dims, _join(block, state.dims, order), drift)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the conjugate on the first argument."""
    if a.dims != b.dims:
        raise DomainError(f"dims mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amps, b.amps))


def equal_up_to_phase(a: StateVector, b: StateVector) -> bool:
    """True when a and b differ only by a unit-modulus scalar, to PHASE_TOL."""
    if a.dims != b.dims:
        return False
    return abs(abs(inner(a, b)) - 1.0) <= PHASE_TOL


def measure(
    state: StateVector,
    targets: Sequence[int] | None = None,
    rng: RandomSource | None = None,
    force: int | None = None,
) -> MeasurementRecord:
    """Computational-basis measurement of the addressed subsystems.

    Outcome k is sampled with the Born probability; pass ``force`` to select
    a branch deterministically (the recorded probability is still the true
    branch weight, and a zero-weight branch is a DomainError); neither ``rng``
    nor ``force`` is a DomainError.  The residual comes from the same block.
    """
    targets, rows, _ = _split(state, targets)  # middle index k is already <k|psi>
    probs = _weights(rows)
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-6:  # NaN fails too
        raise DomainError(f"measurement probabilities sum to {total}, state not normalized")

    if force is not None:
        outcome = as_index(force, "forced outcome")
        if not 0 <= outcome < len(probs):
            raise DomainError(f"forced outcome {brief(outcome)} out of range")
        if probs[outcome] <= 1e-30:
            raise DomainError(f"forced outcome {outcome} has zero probability")
    elif rng is None:
        raise DomainError("pass rng or force")
    else:
        outcome = rng.choice(probs)

    probability = float(probs[outcome])
    residual = None
    if len(targets) < len(state.dims):  # the block's (L, R) pair is the rest in register order
        rest_dims = tuple(d for i, d in enumerate(state.dims) if i not in targets)
        amps = rows[:, outcome, :] / math.sqrt(probability)
        residual = StateVector._owned(rest_dims, amps.reshape(-1),
                                      _residual_drift(amps.size, probability))
    return MeasurementRecord(outcome, probability, residual)


def bell_basis(n: int) -> list[StateVector]:
    """Maximally entangled basis states.

    n == 2 returns the four Bell states b0..b3; n > 2 returns the two
    N-qubit analogues (|0..0> +- |1..1>)/sqrt(2).
    """
    n = check_qubits(n, MAX_STATE_DIM)
    if n < 2:
        raise DomainError("bell_basis requires n >= 2")
    dims = (2,) * n
    dim = 1 << n
    if n == 2:  # rows b0..b3: |00> + |11>, |01> + |10>, |00> - |11>, |01> - |10>
        signs = [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]]
        return [StateVector(dims, row) for row in np.array(signs) * _SQ2]
    top = np.zeros(dim, dtype=complex)
    bottom = np.zeros(dim, dtype=complex)
    top[0] = top[-1] = _SQ2
    bottom[0], bottom[-1] = _SQ2, -_SQ2
    return [StateVector(dims, top), StateVector(dims, bottom)]
