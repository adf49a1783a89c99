"""Oracle-based quantum algorithms at desk scale.

Grover search runs in its two-dimensional invariant plane, spanned by the
target |a> and the uniform state over the other N - 1 items (Boyer, Brassard,
Hoyer, Tapp, Fortschr. Phys. 46, 493, 1998): the oracle and the diffusion are
reflections of the pair (on-target amplitude, shared off-target amplitude),
their product a rotation by 2*theta with sin(theta) = 1/sqrt(N).  A run keeps
k + 1 such pairs, O(k) memory; its trajectory is lazy, and each index builds
the 2^n-amplitude state afresh.  Order finding keeps the full left register of
2n qubits but represents the right register symbolically as the integer
m^x mod N, collapsing it before the Fourier transform; the collapse commutes
with the left-register QFT, so the sampled distribution is identical to the
deferred-measurement version (tested).  That comb spectrum depends only on Q
and the order r, and on the peak w only through the folded phase k of
r' w mod Q' (Shor 1997, section 5); it is kept by (Q, r), as one cumulative
table over k per comb length, in an LRU bounded by SPECTRUM_CACHE_BYTES.  Its
weights are within 3e-15 of a long-double evaluation of the full grid, where
float64 sines of the unreduced phases were up to 1.4e-10 off at Q = 2^20.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd

import numpy as np

from . import qstate
from .errors import DomainError, ResourceError, as_index, brief, check_qubits, check_size
from .qstate import StateVector, UnitaryMatrix
from .rng import RandomSource, cumulative


def _nearest_int(x: float) -> int:
    """Nearest integer, ties rounding half away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


# ---------------------------------------------------------------------------
# Grover


@dataclass(frozen=True)
class GroverTrajectory(Sequence):
    """Read-only sequence of the states of a Grover run, kept as (on, off) pairs.

    Item j is the register after j rotations: amplitude `on` on the target
    and `off` on every other item; ``pairs`` is a read-only (k + 1, 2)
    float64 array.  Indexing (integers, negative integers) builds a fresh
    2^n-amplitude StateVector each time, nothing is cached; a slice is
    another lazy trajectory over a view of the pairs.
    """

    dims: tuple[int, ...]
    target: int
    pairs: np.ndarray = field(repr=False, compare=False)

    def __eq__(self, other):
        if not isinstance(other, GroverTrajectory):
            return NotImplemented
        return ((self.dims, self.target) == (other.dims, other.target)
                and np.array_equal(self.pairs, other.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return replace(self, pairs=self.pairs[index])
        on, off = self.pairs[operator.index(index)].tolist()
        amps = np.full(1 << check_qubits(len(self.dims), qstate.MAX_STATE_DIM), off, dtype=complex)
        amps[self.target] = on
        return StateVector._owned(self.dims, amps)


@dataclass(frozen=True)
class GroverRun:
    """Bookkeeping of one Grover search.

    ``trajectory`` holds the k + 1 states from the uniform start to the final
    register as a lazy GroverTrajectory: memory is O(k), and each index
    builds one 2^n-amplitude state.
    """

    n: int
    target: int
    k: int
    theta: float
    trajectory: Sequence[StateVector]
    success_probability: float


def grover_iterations(N: int) -> int:
    """Optimal rotation count: nearest integer to pi/(4 theta) - 1/2, theta = asin(1/sqrt(N)).

    Ties round half away from zero.  An N that does not fit a float64 is a
    ResourceError.
    """
    N = as_index(N, "search space size")
    if N < 2:
        raise DomainError("search space must have at least 2 elements")
    try:
        root = math.sqrt(N)
    except OverflowError:
        raise ResourceError(f"N = 2^{math.log2(N):.6g} does not fit a float64") from None
    return max(0, _nearest_int(math.pi / (4.0 * math.asin(1.0 / root)) - 0.5))


def grover_operators(n: int, a: int) -> tuple[UnitaryMatrix, UnitaryMatrix]:
    """Dense (oracle, diffusion) pair for an n-qubit search marking a.

    oracle = 1 - 2|a><a| flips the sign of the marked state; diffusion is
    -W (1 - 2|0><0|) W = 2|s><s| - 1, the inversion about the mean.
    """
    n, a = check_qubits(n, qstate.MAX_OPERATOR_DIM), as_index(a, "target")
    dim = 1 << n
    if not 0 <= a < dim:
        raise DomainError(f"target {brief(a)} out of range for {n} qubits")
    oracle = np.eye(dim, dtype=complex)
    oracle[a, a] = -1.0
    w = qstate.walsh(n).entries
    zero_reflect = np.eye(dim, dtype=complex)
    zero_reflect[0, 0] = -1.0
    diffusion = -(w @ zero_reflect @ w)
    return UnitaryMatrix._owned(oracle), UnitaryMatrix._owned(diffusion)


def grover_search(n: int, a: int, k: int | None = None) -> GroverRun:
    """Run Grover search for target a on n qubits, recording each rotation.

    Starts from the uniform superposition walsh(n)|0..0>; applies the
    diffusion*oracle rotation k times (k from grover_iterations by default).
    The phase-kickback ancilla is dropped: once the oracle acts as the phase
    flip 1 - 2|a><a| on the search register, the (|0> - |1>) qubit never
    changes and carries no information.  Both reflections act on the pair
    (on-target amplitude, shared off-target amplitude), O(1) work per step,
    so only the k + 1 pairs are capped at MAX_STATE_DIM, and N must fit a
    float64 (n <= 1023).  Reading a trajectory state builds all N amplitudes,
    and that state is capped at MAX_STATE_DIM.
    """
    n, a = as_index(n, "qubit count"), as_index(a, "target")
    if n < 1:
        raise DomainError(f"need at least one qubit, got n={brief(n)}")
    if n >= sys.float_info.max_exp:
        raise ResourceError(f"N = 2^{brief(n)} does not fit a float64")
    N = 1 << n
    if not 0 <= a < N:
        raise DomainError(f"target {brief(a)} out of range for {n} qubits")
    k = grover_iterations(N) if k is None else as_index(k, "rotation count")
    if k < 0:
        raise DomainError(f"rotation count must be >= 0, got k={brief(k)}")
    check_size(k + 1, qstate.MAX_STATE_DIM, "Grover states (k + 1)")
    theta = math.asin(1.0 / math.sqrt(N))
    pairs = np.empty((k + 1, 2))
    flat = memoryview(pairs.reshape(-1))  # plain float stores, no numpy scalar per item
    on = off = flat[0] = flat[1] = 1.0 / math.sqrt(N)
    rest, size = float(N - 1), float(N)
    for j in range(2, 2 * k + 2, 2):
        mean = (rest * off - on) / size  # mean after the oracle flips the target
        on = 2.0 * mean + on             # inversion about the mean
        off = 2.0 * mean - off
        flat[j] = on
        flat[j + 1] = off
    flat.release()
    pairs.setflags(write=False)
    return GroverRun(
        n=n,
        target=a,
        k=k,
        theta=theta,
        trajectory=GroverTrajectory((2,) * n, a, pairs),
        success_probability=on * on,
    )


# ---------------------------------------------------------------------------
# Bernstein-Vazirani


def _parity_phases(n: int, a: int) -> np.ndarray:
    x = np.arange(1 << n)
    masked = x & a
    parity = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        parity ^= (masked >> bit) & 1
    return 1.0 - 2.0 * parity  # (-1)^(x.a)


def bernstein_vazirani(n: int, a: int, oracle=None) -> int:
    """Recover the hidden string a with a single oracle application.

    The oracle phases each basis state by (-1)^(x.a); the result is exactly
    the Walsh transform of |a>, so one more Walsh transform yields |a>
    deterministically.  A custom ``oracle`` (amps -> amps) may be injected;
    it is invoked exactly once.
    """
    n, a = check_qubits(n, qstate.MAX_STATE_DIM), as_index(a, "hidden string")
    N = 1 << n
    if not 0 <= a < N:
        raise DomainError(f"hidden string {brief(a)} out of range for {n} qubits")
    if oracle is None:
        phases = _parity_phases(n, a)

        def oracle(amps):
            return amps * phases

    state = np.full(N, 1.0 / math.sqrt(N), dtype=complex)
    state = oracle(state)
    sv = StateVector((2,) * n, state)
    h = qstate.hadamard()
    for q in range(n):
        sv = qstate.apply(sv, h, [q])
    return int(np.argmax(np.abs(sv.amps)))


# ---------------------------------------------------------------------------
# continued fractions and order finding


def continued_fraction_best(w: int, Q: int, bound: int) -> tuple[int, int]:
    """Convergent of w/Q with the largest denominator below `bound`.

    Returns (numerator, denominator) in lowest terms; (0, 1) for w = 0.
    """
    w, Q, bound = as_index(w, "w"), as_index(Q, "Q"), as_index(bound, "denominator bound")
    if not 0 <= w < Q:
        raise DomainError(f"need 0 <= w < Q, got w={brief(w)}, Q={brief(Q)}")
    if bound < 1:
        raise DomainError("denominator bound must be >= 1")
    return _best_convergent(w, Q, bound)


def _best_convergent(w: int, Q: int, bound: int) -> tuple[int, int]:
    """`continued_fraction_best` on arguments already checked."""
    if w == 0:
        return (0, 1)
    a, b = w, Q
    num, num_prev = 1, 0   # p_{-1}, p_{-2}
    den, den_prev = 0, 1   # q_{-1}, q_{-2}
    best = (0, 1)
    while b:
        q = a // b
        a, b = b, a - q * b
        num, num_prev = q * num + num_prev, num
        den, den_prev = q * den + den_prev, den
        if den >= bound:
            break
        best = (num, den)
    return best


@dataclass(frozen=True)
class PeriodSample:
    """One order-finding shot: the observed Fourier peak and its rational read-out."""

    modulus: int
    base: int
    observed_w: int
    register_width: int          # 2n, the left-register qubit count
    candidate_num: int           # d'
    candidate_den: int           # r', the period candidate
    collapsed_value: int         # m^x mod N seen in the right register


def _register_width(N: int) -> int:
    """Smallest even 2n with 2^(2n-2) < N^2 < 2^(2n)."""
    return 2 * math.ceil(math.log2(N))


@lru_cache(maxsize=1024, typed=True)  # typed: a cached (2, 15) must not answer (2.0, 15)
def multiplicative_order(m: int, N: int) -> int:
    m, N = as_index(m, "base"), as_index(N, "modulus")
    if gcd(m, N) != 1:
        raise DomainError(f"{brief(m)} is not a unit modulo {brief(N)}")
    r, v = 1, m % N
    while v != 1:
        v = v * m % N
        r += 1
    return r


# Bytes of comb spectra kept between calls: 23 spectra of the largest (Q = 2^20)
# register at odd order, each two 4 MiB k tables (two comb lengths) and a small
# x0 table.  An even order's k tables are 2g times smaller, so more fit.
SPECTRUM_CACHE_BYTES = 192 << 20


def _fold(k: np.ndarray, Q: int) -> np.ndarray:
    """Reduce k mod Q in place, then fold it to min(k, Q - k), in [0, Q/2].

    sin^2(pi k / Q) has period Q and is symmetric about Q/2, so the folded k
    gives the same value from an argument pi k / Q in [0, pi/2].
    """
    half = Q >> 1
    k += half
    k &= Q - 1
    k -= half
    return np.abs(k, out=k)


@lru_cache(maxsize=None)  # one per power of two Q' <= MAX_STATE_DIM: at most 8 MiB in all
def _sines(Qp: int) -> np.ndarray:
    """Read-only sin(pi i / Q') for i in [0, Q'/2], shared by every spectrum on Q'."""
    sines = np.sin(np.arange((Qp >> 1) + 1) * (math.pi / Qp))
    sines.setflags(write=False)
    return sines


def _build_comb_spectrum(two_n: int, r: int):
    """Sampling tables of the comb spectrum for order r on a 2n-qubit left register.

    Returns (x0_cdf, {comb_length: k_cdf}, Q', 2g, r'^-1 mod Q'), the tables
    built by `rng.cumulative`.  After the collapse onto m^(x0) mod N the left
    register holds the comb x0, x0 + r, ... of length M, with probability
    M/Q, and its QFT puts weight |sum_j e^(2 pi i j r w / Q)|^2 on w.  With
    g = gcd(r, Q), Q' = Q/g and r' = r/g (odd), that is the Fejer kernel
    sin^2(pi M u / Q') / sin^2(pi u / Q') of u = r' w mod Q' (M^2 at u = 0),
    even in u, and g values of w share each u: so the table runs over the
    folded phase k = min(u, Q' - u) in [0, Q'/2], doubled where k != Q' - k.
    Only Q and r enter.  Both sines come from `_sines(Q')` at phases reduced
    and folded in integers; `cumulative` normalises the weights.
    """
    Q = 1 << two_n
    g = gcd(r, Q)
    Qp, half = Q // g, Q // (2 * g)
    lengths = (Q - 1 - np.arange(r)) // r + 1
    sines = _sines(Qp)
    k_cdfs = {}
    for M in np.unique(lengths).tolist():
        v = np.arange(half + 1)
        v *= M
        weights = sines[_fold(v, Qp)]  # sin(pi M k / Q') up to sign
        del v
        with np.errstate(divide="ignore", invalid="ignore"):
            weights /= sines
        weights[0] = M
        weights **= 2
        weights[1:half] *= 2  # k stands for u = k and u = Q' - k
        k_cdfs[M] = cumulative(weights)
    return cumulative(lengths / Q), k_cdfs, Qp, 2 * g, pow(r // g, -1, Qp)


class _SpectrumCache:
    """Least-recently-used comb spectra by (2n, r), bounded by their arrays' bytes.

    Pairs (N, m) with the same register width and order share one entry.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: OrderedDict = OrderedDict()
        self.nbytes = 0

    def __call__(self, two_n: int, r: int):
        key = (two_n, r)
        spectrum = self.entries.get(key)
        if spectrum is not None:
            self.entries.move_to_end(key)
            return spectrum
        spectrum = _build_comb_spectrum(two_n, r)
        self.entries[key] = spectrum
        self.nbytes += _spectrum_bytes(spectrum)
        while self.nbytes > self.budget:
            _, old = self.entries.popitem(last=False)
            self.nbytes -= _spectrum_bytes(old)
        return spectrum

    def cache_clear(self) -> None:
        self.entries.clear()
        self.nbytes = 0


def _spectrum_bytes(spectrum) -> int:
    x0_cdf, k_cdfs = spectrum[:2]
    return x0_cdf.nbytes + sum(cdf.nbytes for cdf in k_cdfs.values())


_comb_spectrum = _SpectrumCache(SPECTRUM_CACHE_BYTES)


def order_find(N: int, m: int, rng: RandomSource) -> PeriodSample:
    """Sample one run of the quantum period-finding subroutine for m mod N.

    The right register is never expanded into amplitudes: it is collapsed to
    a concrete value Z = m^(x0) mod N first, which filters the left register
    down to the comb {x : m^x = Z}, and the QFT peak w is then sampled from
    the exact comb spectrum: x0, then the folded phase k, then one uniform
    j in [0, 2g), exact because 2g is a power of two, whose low bit picks
    u = +-k mod Q' and whose other bits pick the period t in
    w = u r'^-1 mod Q' + t Q'.  The continued-fraction candidate (d', r')
    with denominator below N is attached.  A left register Q = 2^(2n) above
    qstate.MAX_STATE_DIM is a ResourceError.
    """
    N, m = as_index(N, "modulus"), as_index(m, "base")
    if N < 3:
        raise DomainError("modulus must be >= 3")
    if gcd(m, N) != 1:
        raise DomainError(
            f"gcd({brief(m)}, {brief(N)}) > 1: the classical exit should have been taken"
        )
    two_n = check_qubits(_register_width(N), qstate.MAX_STATE_DIM)
    Q = 1 << two_n
    r = multiplicative_order(m, N)
    x0_cdf, k_cdfs, Qp, two_g, r_inverse = _comb_spectrum(two_n, r)
    x0 = rng.draw(x0_cdf)
    k = rng.draw(k_cdfs[(Q - 1 - x0) // r + 1])
    j = int(rng.uniform() * two_g)
    w = (-k if j & 1 else k) * r_inverse % Qp + (j >> 1) * Qp
    d, rr = _best_convergent(w, Q, N)
    return PeriodSample(
        modulus=N,
        base=m,
        observed_w=w,
        register_width=two_n,
        candidate_num=d,
        candidate_den=rr,
        collapsed_value=pow(m, x0, N),
    )


# ---------------------------------------------------------------------------
# factor extraction


@dataclass(frozen=True)
class FactorOutcome:
    """Result of turning an order candidate into factors; reason set on failure."""

    factors: tuple[int, int] | None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.factors is not None


def factor_from_order(N: int, m: int, r: int) -> FactorOutcome:
    """Extract factors of N from a candidate order r of m.

    Requires m^r = 1 mod N and even r; computes gcd(N, m^(r/2) +- 1) and,
    when m^(r/2) = 1, keeps halving the exponent while it stays even.
    """
    N, m, r = as_index(N, "modulus"), as_index(m, "base"), as_index(r, "order candidate")
    if r < 1:
        raise DomainError("order candidate must be >= 1")
    if pow(m, r, N) != 1:
        return FactorOutcome(None, "bad-order")
    if r % 2 == 1:
        return FactorOutcome(None, "odd-order")
    e = r
    while e % 2 == 0:
        y = pow(m, e // 2, N)
        for g in (gcd(N, y - 1), gcd(N, y + 1)):
            if 1 < g < N:
                return FactorOutcome(tuple(sorted((g, N // g))))
        if y == 1:
            e //= 2
        else:
            break  # y = -1 mod N: both gcds trivial, halving cannot continue
    return FactorOutcome(None, "trivial-roots")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_power_root(n: int):
    """The root p of n = p^k for the smallest k >= 2 that has one, or None.

    n is never converted to a float: each estimate 2^(log2(n) / k) below
    2^40 is confirmed in integers, first modulo 2^64, so above 2^80 a power
    may be missed (None), but no wrong root is returned.
    """
    log_n, low = math.log2(n), n % (1 << 64)
    for k in range(2, n.bit_length()):
        if log_n > 40 * k:
            continue
        root = round(2.0 ** (log_n / k))
        for candidate in (root - 1, root, root + 1):
            if candidate >= 2 and pow(candidate, k, 1 << 64) == low and candidate**k == n:
                return candidate
    return None


@dataclass(frozen=True)
class ShorResult:
    factors: tuple[int, int] | None
    rounds: int
    transcript: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.factors is not None


def shor_factor(N: int, rng: RandomSource, max_rounds: int = 25) -> ShorResult:
    """Shor's factoring loop: random bases, order finding, gcd extraction.

    Even N, prime powers and lucky gcd draws take the classical exits; any
    other N whose order-finding register exceeds the cap is a ResourceError
    before the first base is drawn, and before the primality test, so a
    prime above the cap is a ResourceError too.  Each base is retried
    O(log log N) times before a new one is drawn; a round is one
    order-finding invocation.
    """
    N, max_rounds = as_index(N, "modulus"), as_index(max_rounds, "round limit")
    if N < 4:
        raise DomainError(f"{brief(N)} is not composite")
    if N % 2 == 0:
        return ShorResult((2, N // 2), 0, ({"event": "classical-exit", "detail": "even"},))
    root = _prime_power_root(N)
    if root is not None:
        return ShorResult(
            tuple(sorted((root, N // root))),
            0,
            ({"event": "classical-exit", "detail": f"prime power of {root}"},),
        )
    check_qubits(_register_width(N), qstate.MAX_STATE_DIM)
    if _is_prime(N):
        raise DomainError(f"{brief(N)} is not composite")

    per_base = max(2, _nearest_int(math.log2(math.log2(N))))
    transcript: list[dict] = []
    rounds = 0
    while rounds < max_rounds:
        m = rng.integer(2, N - 2)
        g = gcd(m, N)
        if g > 1:
            transcript.append({"event": "gcd-shortcut", "m": m, "factor": g})
            return ShorResult(tuple(sorted((g, N // g))), rounds, tuple(transcript))
        for _ in range(per_base):
            if rounds >= max_rounds:
                break
            rounds += 1
            sample = order_find(N, m, rng)
            outcome = factor_from_order(N, m, sample.candidate_den)
            transcript.append(
                {
                    "event": "order-sample",
                    "m": m,
                    "w": sample.observed_w,
                    "candidate": [sample.candidate_num, sample.candidate_den],
                    "result": list(outcome.factors) if outcome.ok else outcome.reason,
                }
            )
            if outcome.ok:
                return ShorResult(outcome.factors, rounds, tuple(transcript))
    return ShorResult(None, rounds, tuple(transcript))


@dataclass(frozen=True)
class RSAResult:
    p: int
    q: int
    phi: int
    d: int
    plaintext: int
    rounds: int


def rsa_demo(N: int, e: int, ciphertext: int, rng: RandomSource, max_rounds: int = 25) -> RSAResult:
    """Break a toy RSA triplet (N, e, c): factor N, invert e mod phi, decrypt."""
    N, e = as_index(N, "modulus"), as_index(e, "public exponent")
    ciphertext = as_index(ciphertext, "ciphertext")
    shor = shor_factor(N, rng, max_rounds=max_rounds)
    if not shor.ok:
        raise DomainError(f"factoring {N} exhausted {max_rounds} rounds")
    p, q = shor.factors
    phi = (p - 1) * (q - 1)
    if gcd(e, phi) != 1:
        raise DomainError(f"public exponent {brief(e)} is not invertible mod phi={phi}")
    d = pow(e, -1, phi)
    plaintext = pow(ciphertext, d, N)
    return RSAResult(p=p, q=q, phi=phi, d=d, plaintext=plaintext, rounds=shor.rounds)
