"""Mixed-state machinery: density matrices, Bloch picture, estimation, cloning.

The positivity certificate tolerates eigenvalues down to -1e-9 to absorb
float drift accumulated by partial traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qstate
from .errors import (DomainError, Frozen, as_index, brief_all, check_distribution, check_finite,
                     check_size, copy_array)
from .qstate import StateVector

HERMITIAN_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9


class DensityMatrix(Frozen):
    """Hermitian, positive-semidefinite, trace-1 operator."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        arr = copy_array(entries, complex, "density matrix entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise DomainError(f"density matrix must be square and non-empty, got shape {arr.shape}")
        if not np.abs(arr - arr.conj().T).max() <= HERMITIAN_TOL:
            raise DomainError("density matrix is not Hermitian")
        tr = arr.trace()
        if not abs(tr - 1.0) <= 1e-8:
            raise DomainError(f"density matrix has trace {tr}, expected 1")
        eigenvalues = np.linalg.eigvalsh(arr)
        if not eigenvalues.min() >= EIGENVALUE_FLOOR:
            raise DomainError(f"density matrix has negative eigenvalue {eigenvalues.min():.3e}")
        self._freeze(dim=len(arr), entries=arr)

    @classmethod
    def _owned(cls, entries) -> "DensityMatrix":
        """Trusted constructor for a density matrix the package has just built,
        on the terms of `UnitaryMatrix._owned`: not checked, and fresh."""
        arr = np.ascontiguousarray(entries, dtype=complex)
        return object.__new__(cls)._freeze(dim=len(arr), entries=arr)

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        check_size(psi.dim, qstate.MAX_OPERATOR_DIM, "density matrix dimension")
        return cls._owned(np.outer(psi.amps, psi.amps.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        dim = check_size(dim, qstate.MAX_OPERATOR_DIM, "density matrix dimension")
        return cls._owned(np.eye(dim, dtype=complex) / dim)

    def to_json_dict(self) -> dict:
        """dim, and one [re, im] row per entry in row-major order."""
        return {"dim": self.dim, "entries": self.entries.view(np.float64).reshape(-1, 2).tolist()}

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector r with |r| <= 1; pure states sit on the sphere."""

    r_x: float
    r_y: float
    r_z: float

    def __post_init__(self):
        if not self.norm() <= 1.0 + 1e-9:
            raise DomainError(f"Bloch vector has length {self.norm()} > 1")

    def norm(self) -> float:
        return math.sqrt(self.r_x**2 + self.r_y**2 + self.r_z**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.r_x, self.r_y, self.r_z])


def rho_from_ensemble(states: Sequence[StateVector], probs: Sequence[float]) -> DensityMatrix:
    """Probability-weighted sum of the pure-state projectors."""
    p = np.asarray(probs, dtype=float)
    if p.shape != (len(states),):
        raise DomainError("one probability per state required")
    check_distribution(p, "ensemble probabilities")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DomainError("ensemble states must share a dimension")
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, s in zip(p, states):
        rho += weight * np.outer(s.amps, s.amps.conj())
    return DensityMatrix(rho)


def measure_prob(rho: DensityMatrix, phi: StateVector) -> float:
    """Born probability <phi|rho|phi> of observing phi."""
    if phi.dim != rho.dim:
        raise DomainError(f"state dimension {phi.dim} does not match rho dim {rho.dim}")
    value = np.vdot(phi.amps, rho.entries @ phi.amps)
    return float(value.real)


def expectation(rho: DensityMatrix, observable) -> float:
    """trace(A rho) for a Hermitian observable A."""
    a = np.asarray(observable, dtype=complex)
    if a.shape != (rho.dim, rho.dim):
        raise DomainError(f"observable shape {a.shape} does not match dim {rho.dim}")
    if not np.abs(a - a.conj().T).max() <= HERMITIAN_TOL:  # NaN fails too
        raise DomainError("observable is not Hermitian")
    return float((a @ rho.entries).trace().real)


_PAULIS = tuple(sigma().entries for sigma in (qstate.pauli_x, qstate.pauli_y, qstate.pauli_z))


def to_bloch(rho: DensityMatrix) -> BlochVector:
    """Bloch components r_i = trace(sigma_i rho) of a qubit state, read from rho's
    entries with the additions the products make; each diagonal entry of sigma_i rho
    adds a zero product as well, so a zero component is +0.0."""
    if rho.dim != 2:
        raise DomainError("Bloch representation requires a 2-dimensional state")
    (a, b), (c, d) = rho.entries.tolist()
    return BlochVector(b.real + c.real + 0.0, c.imag - b.imag + 0.0, a.real - d.real + 0.0)


def from_bloch(r: BlochVector) -> DensityMatrix:
    """rho = (1 + r . sigma) / 2."""
    m = np.eye(2, dtype=complex)
    for component, sigma in zip(r.as_array(), _PAULIS):
        m = m + component * sigma
    return DensityMatrix(m / 2.0)


def reduced(psi: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """The subsystems in `keep` (in register order) of a pure state, the rest traced out:
    B B^dag for B the (T, L*R) matrix of `qstate._split`'s block, capped by T alone."""
    keep = sorted(as_index(k, "kept subsystem") for k in keep)
    _, block, _ = qstate._split(psi, keep)
    width = check_size(block.shape[1], qstate.MAX_OPERATOR_DIM, "density matrix dimension")
    b = block.transpose(1, 0, 2).reshape(width, -1)
    return DensityMatrix._owned(b @ b.conj().T)


def partial_trace(rho: DensityMatrix, dims: Sequence[int], keep: Sequence[int]) -> DensityMatrix:
    """Trace out every subsystem not listed in `keep` (of a pure state: `reduced`)."""
    dims = tuple(as_index(d, "dimension") for d in dims)
    if math.prod(dims) != rho.dim:
        raise DomainError(f"dims {brief_all(dims)} do not factor dimension {rho.dim}")
    keep = sorted(set(as_index(k, "kept subsystem") for k in keep))
    if any(not 0 <= k < len(dims) for k in keep):
        raise DomainError(f"keep indices {brief_all(keep)} out of range")
    n, rest = len(dims), [i for i in range(len(dims)) if i not in keep]
    kept_dim = math.prod(dims[k] for k in keep)
    # kept subsystems in front on both the ket and the bra side, then a (K, M, K, M) trace
    tensor = rho.entries.reshape(dims + dims).transpose(keep + rest + [n + i for i in keep + rest])
    traced = np.einsum("imjm->ij", tensor.reshape(kept_dim, -1, kept_dim, rho.dim // kept_dim))
    return DensityMatrix(traced)


@dataclass(frozen=True)
class MLEstimate:
    """Maximum-likelihood read-out of z-axis Bernoulli counts."""

    p_hat: float          # estimated probability of outcome |1>
    r_z: float            # Bloch z component maximizing the likelihood
    rho: DensityMatrix    # statistical density matrix diag(n_a/n, n_b/n)


def _counts(n_a, n_b) -> tuple[int, int, int]:
    """The |0> and |1> counts as exact integers >= 0, and their total n >= 1."""
    n_a, n_b = as_index(n_a, "count"), as_index(n_b, "count")
    if n_a < 0 or n_b < 0:
        raise DomainError("counts must be non-negative")
    if n_a + n_b < 1:
        raise DomainError("need at least one observation")
    return n_a, n_b, n_a + n_b


def mle_bernoulli(n_a: int, n_b: int) -> MLEstimate:
    """Estimate a qubit's z-axis statistics from |0>/|1> counts.

    p_hat = n_b / n maximizes the Bernoulli likelihood; r_z = (n_a - n_b)/n
    maximizes the Bloch-form likelihood [ (1+r)/2 ]^(n_a/n) [ (1-r)/2 ]^(n_b/n).
    """
    n_a, n_b, n = _counts(n_a, n_b)
    p_hat = n_b / n
    r_z = (n_a - n_b) / n
    rho = DensityMatrix._owned(np.diag([n_a / n, n_b / n]))
    return MLEstimate(p_hat=float(p_hat), r_z=float(r_z), rho=rho)


def bloch_likelihood(r_z: float, n_a: int, n_b: int) -> float:
    """Likelihood of z-spin counts under rho = (1 + r_z sigma_z)/2 (frequency exponents)."""
    if not -1.0 <= r_z <= 1.0:
        raise DomainError(f"Bloch component r_z={r_z} outside [-1, 1]")
    n_a, n_b, n = _counts(n_a, n_b)
    up = 0.5 * (1.0 + r_z)
    down = 0.5 * (1.0 - r_z)
    # 0^0 = 1 keeps the boundary r_z = +-1 well-defined
    lik = 1.0
    if n_a:
        lik *= up ** (n_a / n)
    if n_b:
        lik *= down ** (n_b / n)
    return lik


class DiscriminationProblem(Frozen):
    """Bayesian state-discrimination setup: priors, costs and a channel matrix.

    ``channel[m, k]`` is the probability of hypothesis a_m given that state k
    was sent; each column must sum to 1 (completeness).
    """

    __slots__ = ("priors", "costs", "channel")

    def __init__(self, priors, costs, channel):
        priors = copy_array(priors, float, "priors")
        costs = copy_array(costs, float, "costs")
        channel = copy_array(channel, float, "channel")
        if priors.ndim != 1 or not costs.shape == channel.shape == priors.shape * 2:
            raise DomainError("priors must be a vector of N, the cost and channel matrices N x N")
        check_distribution(priors, "priors")
        check_finite(costs, "costs")
        check_distribution(channel, "channel columns")
        self._freeze(priors=priors, costs=costs, channel=channel)


def discrimination_cost(problem: DiscriminationProblem) -> tuple[float, float]:
    """Average Bayesian cost c_B and total error probability p_E.

    c_B = sum_mk eta_k c_mk h(a_m | rho_k);  p_E = 1 - sum_k eta_k h(a_k | rho_k).
    With zero diagonal and constant off-diagonal cost c these satisfy c_B = c p_E.
    """
    eta = problem.priors
    c_b = float(np.sum(problem.costs * problem.channel * eta[np.newaxis, :]))
    p_e = float(1.0 - np.sum(eta * np.diag(problem.channel)))
    return c_b, p_e


@dataclass(frozen=True)
class CloneResult:
    clone: DensityMatrix          # single-clone reduced state (both clones equal)
    pair: DensityMatrix           # joint two-clone state after tracing the ancilla
    fidelity: float               # <psi|clone|psi>
    eta: float                    # Bloch-vector shrink factor


# Images of |0>|blank>|ancilla> and |1>|blank>|ancilla> under the symmetric
# 1 -> 2 cloning transformation; ancilla states A -> |0>, A_perp -> |1>.
_CLONE_ZERO = np.zeros(8, dtype=complex)
_CLONE_ZERO[0b001] = math.sqrt(2.0 / 3.0)
_CLONE_ZERO[0b010] = math.sqrt(1.0 / 6.0)
_CLONE_ZERO[0b100] = math.sqrt(1.0 / 6.0)
_CLONE_ONE = np.zeros(8, dtype=complex)
_CLONE_ONE[0b110] = math.sqrt(2.0 / 3.0)
_CLONE_ONE[0b011] = math.sqrt(1.0 / 6.0)
_CLONE_ONE[0b101] = math.sqrt(1.0 / 6.0)


def uqcm_clone(psi: StateVector) -> CloneResult:
    """Universal 1 -> 2 qubit cloner.

    Applies the basis transformation linearly to psi tensor |blank, ancilla>
    and traces out the ancilla (the pair), then the other clone too (each
    clone).  Fidelity is 5/6 and the Bloch vector shrinks by 2/3 for every input state.
    """
    if psi.dims != (2,):
        raise DomainError("uqcm_clone expects a single qubit")
    a, b = psi.amps
    out = StateVector._owned((2, 2, 2), a * _CLONE_ZERO + b * _CLONE_ONE)
    pair = reduced(out, (0, 1))
    clone_first = reduced(out, (0,))
    clone_second = reduced(out, (1,))
    if np.abs(clone_first.entries - clone_second.entries).max() > 1e-10:
        raise DomainError("cloner symmetry violated")
    fid = measure_prob(clone_first, psi)
    r_in = to_bloch(DensityMatrix.from_state(psi)).as_array()
    r_out = to_bloch(clone_first).as_array()
    eta = float(r_out @ r_in)  # |r_in| = 1 for pure inputs
    return CloneResult(clone=clone_first, pair=pair, fidelity=float(fid), eta=eta)
