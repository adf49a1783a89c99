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
  layout; ``_contract`` runs one kernel on the block.
* ``measure`` is the one measurement primitive: its record carries the
  normalized residual state of the unmeasured subsystems, which is what a
  receiver holds after a Bell measurement (teleportation, secret sharing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, Frozen, as_index, brief, brief_all, check_qubits, check_size
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
ORTHO_TOL = 1e-8
PHASE_TOL = 1e-8


def _unit(arr: np.ndarray) -> np.ndarray:
    """arr if its norm is within NORM_TOL of 1, else arr divided by its norm.

    A norm further than 1e-6 from 1, NaN or infinite is a DomainError.  arr
    must be a contiguous complex vector.
    """
    flat = arr.view(np.float64)
    norm = math.sqrt(flat @ flat)
    if not abs(norm - 1.0) <= 1e-6:
        raise DomainError(f"state is not normalized (norm {norm})")
    if abs(norm - 1.0) > NORM_TOL:
        arr = arr / norm
    return arr


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


class StateVector(Frozen):
    """Normalized complex amplitude vector over a list of subsystem dimensions."""

    __slots__ = ("dims", "amps")

    def __init__(self, dims: Sequence[int], amps):
        dims = tuple(as_index(d, "dimension") for d in dims)
        if not dims or any(d < 2 for d in dims):
            raise DomainError(f"every subsystem dimension must be >= 2, got {brief_all(dims)}")
        total = check_size(math.prod(dims), MAX_STATE_DIM, "state dimension")
        arr = np.array(amps, dtype=complex)  # the defensive copy
        if arr.shape != (total,):
            raise DomainError(f"expected {total} amplitudes for dims {dims}, got shape {arr.shape}")
        self._freeze(dims=dims, amps=_unit(arr))

    @classmethod
    def _owned(cls, dims: tuple[int, ...], arr: np.ndarray) -> "StateVector":
        """Trusted constructor for a fresh array the package made itself.

        dims must be a valid tuple and arr a contiguous complex vector of
        matching size that no one else holds; it is neither re-validated nor
        copied.  The norm check and the renorm on drift still run.
        """
        return object.__new__(cls)._freeze(dims=dims, amps=_unit(arr))

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def digits_of(self, index: int) -> tuple[int, ...]:
        return index_to_digits(self.dims, index)

    def label_of(self, index: int) -> str:
        return "|" + "".join(str(d) for d in self.digits_of(index)) + ">"

    def __repr__(self) -> str:
        return f"StateVector(dims={self.dims}, dim={self.dim})"

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "amps": [[float(a.real), float(a.imag)] for a in self.amps],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StateVector":
        amps = [complex(re, im) for re, im in data["amps"]]
        return cls(tuple(data["dims"]), amps)


class UnitaryMatrix(Frozen):
    """Dense complex square matrix with a unitarity certificate (U+U = 1)."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        arr = np.array(entries, dtype=complex)  # the defensive copy
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise DomainError(f"matrix must be square and non-empty, got shape {arr.shape}")
        deviation = np.abs(arr.conj().T @ arr - np.eye(len(arr))).max()
        if not deviation <= UNITARY_TOL:  # NaN fails too
            raise DomainError(f"matrix is not unitary (max deviation {deviation:.3e})")
        self._freeze(dim=len(arr), entries=arr)

    @classmethod
    def _owned(cls, entries) -> "UnitaryMatrix":
        """Trusted constructor for a unitary the package has just built: entries is not
        checked and is copied only into C-order complex, so an array must be fresh."""
        arr = np.ascontiguousarray(entries, dtype=complex)
        return object.__new__(cls)._freeze(dim=len(arr), entries=arr)

    def dagger(self) -> "UnitaryMatrix":
        return UnitaryMatrix._owned(self.entries.conj().T)

    def __matmul__(self, other: "UnitaryMatrix") -> "UnitaryMatrix":
        if self.dim != other.dim:
            raise DomainError("dimension mismatch in matrix product")
        return UnitaryMatrix._owned(self.entries @ other.entries)

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective measurement outcome.

    ``probability`` is the Born weight of ``vector``, the selected basis
    vector over ``targets`` (in target order).  ``residual`` is the
    normalized state of the unmeasured subsystems in register order, None
    when every subsystem was measured.
    """

    outcome_index: int
    outcome_label: str
    probability: float
    targets: tuple[int, ...]
    vector: StateVector
    residual: StateVector | None

    @property
    def post_state(self) -> StateVector:
        """The collapsed register, vector (x) residual in register order, built on each read."""
        if self.residual is None:
            return self.vector
        n = len(self.targets) + len(self.residual.dims)
        order = self.targets + tuple(i for i in range(n) if i not in self.targets)
        dims = tuple(d for _, d in sorted(zip(order, self.vector.dims + self.residual.dims)))
        amps = np.multiply.outer(self.vector.amps, self.residual.amps)
        return StateVector._owned(dims, _join(amps, dims, order))


# ---------------------------------------------------------------------------
# construction


def basis_state(dims: Sequence[int], digits: Sequence[int] | str | int) -> StateVector:
    """Computational basis state |digits> over the given dimension list."""
    dims = tuple(as_index(d, "dimension") for d in dims)
    total = check_size(math.prod(dims), MAX_STATE_DIM, "state dimension")
    if isinstance(digits, str):
        if not (digits.isascii() and digits.isdigit()):
            raise DomainError(f"basis label {digits!r} must be decimal digits")
        digits = [int(c) for c in digits]
    if isinstance(digits, (int, np.integer)):
        index = as_index(digits, "basis index")
        if not 0 <= index < total:
            raise DomainError(f"basis index {brief(index)} out of range for dims {brief_all(dims)}")
    else:
        index = digits_to_index(dims, digits)
    amps = np.zeros(total, dtype=complex)
    amps[index] = 1.0
    return StateVector(dims, amps)


def tensor(a, b):
    """Kronecker product of two states or two unitaries; dims concatenate."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        check_size(a.dim * b.dim, MAX_STATE_DIM, "state dimension")
        # the products np.kron forms, into a fresh array the result owns
        return StateVector._owned(a.dims + b.dims, np.multiply.outer(a.amps, b.amps).reshape(-1))
    if isinstance(a, UnitaryMatrix) and isinstance(b, UnitaryMatrix):
        check_size(a.dim * b.dim, MAX_OPERATOR_DIM, "operator dimension")
        return UnitaryMatrix._owned(np.kron(a.entries, b.entries))
    raise DomainError("tensor requires two StateVectors or two UnitaryMatrices")


# ---------------------------------------------------------------------------
# gates

_SQ2 = 1.0 / math.sqrt(2.0)


def identity(dim: int = 2) -> UnitaryMatrix:
    dim = check_size(dim, MAX_OPERATOR_DIM, "operator dimension")
    return UnitaryMatrix._owned(np.eye(dim, dtype=complex))


def pauli_x() -> UnitaryMatrix:
    return UnitaryMatrix._owned([[0, 1], [1, 0]])


def pauli_y() -> UnitaryMatrix:
    return UnitaryMatrix._owned([[0, -1j], [1j, 0]])


def pauli_z() -> UnitaryMatrix:
    return UnitaryMatrix._owned([[1, 0], [0, -1]])


def hadamard() -> UnitaryMatrix:
    return UnitaryMatrix._owned([[_SQ2, _SQ2], [_SQ2, -_SQ2]])


def cnot() -> UnitaryMatrix:
    """Controlled NOT on two qubits; left (most significant) qubit controls."""
    m = np.eye(4, dtype=complex)
    m[[2, 3]] = m[[3, 2]]
    return UnitaryMatrix._owned(m)


def phase_gate(r: float) -> UnitaryMatrix:
    """diag(1, e^{i pi r}): identity at r=0, pauli_z at r=1."""
    if not math.isfinite(r):
        raise DomainError(f"phase {r} must be a finite number")
    return UnitaryMatrix._owned([[1, 0], [0, np.exp(1j * math.pi * r)]])


def quarter_phase() -> UnitaryMatrix:
    """diag(1, i); applying it twice to |1> gives -|1>."""
    return UnitaryMatrix._owned([[1, 0], [0, 1j]])


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
    "phase": phase_gate,
    "quarter_phase": quarter_phase,
}


def standard_gate(name: str, param: float | int | None = None) -> UnitaryMatrix:
    """Case-insensitive named gate lookup: identity(d) (short I or 1), pauli_x/y/z
    (X, Y, Z), hadamard (H), cnot, phase(r), quarter_phase."""
    builder = _GATES.get(name.strip().lower())
    if builder is None:
        raise DomainError(f"unknown gate {name!r}")
    if builder is phase_gate:
        return phase_gate(0.0 if param is None else param)
    if builder is identity:
        return identity(2 if param is None else param)
    if param is not None:
        raise DomainError(f"gate {name!r} takes no parameter")
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


def qft(n: int, inverse: bool = False) -> UnitaryMatrix:
    """Quantum Fourier transform on n qubits: entry (x,y) = e^{+-2 pi i xy/2^n}/sqrt(2^n)."""
    dim = 1 << check_qubits(n, MAX_OPERATOR_DIM)
    sign = -1.0 if inverse else 1.0
    exponent = np.outer(np.arange(dim), np.arange(dim))
    m = np.exp(sign * 2j * math.pi * exponent / dim) / math.sqrt(dim)
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


# Up to this width the operator is folded over the trailing axis, kron(m, I_R),
# and the block contracted as one GEMM over (L, T*R) rows: a batched matmul
# there makes L tiny GEMM calls (2^18 for the next-to-last of 20 qubits).
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

    One GEMM when L = 1; one GEMM with m folded to kron(m, I_R) when that is
    at most _FOLD_WIDTH wide (R = 1 folds nothing: psi.reshape(L, T) @ m.T);
    a batched matmul over L otherwise.
    """
    lead, width, tail = block.shape
    if lead == 1 or width * tail > _FOLD_WIDTH:
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
    """Apply u on the addressed subsystems, identity elsewhere. Norm-preserving."""
    targets, block, order = _split(state, targets)
    if u.dim != block.shape[1]:
        raise DomainError(
            f"operator dimension {u.dim} does not match target dimensions {block.shape[1]}"
        )
    # rebind at each step so every intermediate is freed before the next large
    # allocation; an extra live buffer costs fresh page faults on big registers
    block = _contract(u.entries, block)
    return StateVector._owned(state.dims, _join(block, state.dims, order))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the conjugate on the first argument."""
    if a.dims != b.dims:
        raise DomainError(f"dims mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amps, b.amps))


def equal_up_to_phase(a: StateVector, b: StateVector, tol: float = PHASE_TOL) -> bool:
    """True when a and b differ only by a unit-modulus scalar."""
    if a.dims != b.dims:
        return False
    return abs(abs(inner(a, b)) - 1.0) <= tol


def measure(
    state: StateVector,
    basis: Sequence[StateVector] | None = None,
    targets: Sequence[int] | None = None,
    rng: RandomSource | None = None,
    force: int | None = None,
) -> MeasurementRecord:
    """Projective measurement of the addressed subsystems.

    ``basis`` defaults to the computational basis of the targets and must be
    orthonormal and complete otherwise.  Outcome k is sampled with the Born
    probability; pass ``force`` to select a branch deterministically (the
    recorded probability is still the true branch weight, and a zero-weight
    branch is a DomainError).  The residual comes from the same contraction.
    """
    targets, block, _ = _split(state, targets)
    target_dims = tuple(state.dims[t] for t in targets)

    if basis is None:
        rows = block  # middle index k is already <k|psi>
    else:
        for bv in basis:
            if bv.dims != target_dims:
                raise DomainError(
                    f"basis vector dims {bv.dims} do not match measured subsystems {target_dims}"
                )
        if len(basis) != block.shape[1]:
            raise DomainError(f"basis with {len(basis)} vectors does not span the measured "
                              f"subsystems (dim {block.shape[1]})")
        vectors = np.array([bv.amps for bv in basis])
        if not np.abs(vectors.conj() @ vectors.T - np.eye(len(basis))).max() <= ORTHO_TOL:
            raise DomainError("measurement basis is not orthonormal")
        rows = _contract(vectors.conj(), block)

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
    else:
        if rng is None:
            rng = RandomSource()
        outcome = rng.choice(probs)

    probability = float(probs[outcome])
    if basis is None:
        label = "|" + "".join(str(d) for d in index_to_digits(target_dims, outcome)) + ">"
        unit = np.zeros(len(probs), dtype=complex)
        unit[outcome] = 1.0
        vector = StateVector._owned(target_dims, unit)
    else:
        label = f"basis[{outcome}]"
        vector = basis[outcome]
    residual = None
    if len(targets) < len(state.dims):  # the block's (L, R) pair is the rest in register order
        rest_dims = tuple(d for i, d in enumerate(state.dims) if i not in targets)
        amps = rows[:, outcome, :] / math.sqrt(probability)
        residual = StateVector._owned(rest_dims, amps.reshape(-1))
    return MeasurementRecord(outcome, label, probability, targets, vector, residual)


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
    if n == 2:
        vecs = []
        for plus, flipped in (
            (True, False),   # b0 = (|00> + |11>)/sqrt2
            (True, True),    # b1 = (|01> + |10>)/sqrt2
            (False, False),  # b2 = (|00> - |11>)/sqrt2
            (False, True),   # b3 = (|01> - |10>)/sqrt2
        ):
            amps = np.zeros(4, dtype=complex)
            i, j = (1, 2) if flipped else (0, 3)
            amps[i] = _SQ2
            amps[j] = _SQ2 if plus else -_SQ2
            vecs.append(StateVector(dims, amps))
        return vecs
    top = np.zeros(dim, dtype=complex)
    bottom = np.zeros(dim, dtype=complex)
    top[0] = top[-1] = _SQ2
    bottom[0], bottom[-1] = _SQ2, -_SQ2
    return [StateVector(dims, top), StateVector(dims, bottom)]
