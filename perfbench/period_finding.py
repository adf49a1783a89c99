"""period-finding: one op is one `qalgo.order_find(N, m, rng)`.

N is drawn from the 197 odd semiprimes p*q (p < q) with 15 <= N < 1024, so the
left register Q = 2^(2 ceil(log2 N)) runs from 2^8 to 2^20, and m is a base
coprime to N.  This isolates one layer used two ways: a first-seen (N, m)
pair builds the dense comb spectrum, a repeat reuses the program's cached
spectrum and spends its time in `RandomSource.choice` over up to 2^20
entries.  No `apply` call happens.  Each cycle brings in four new Q = 2^20
pairs, so a run sees more of them than the program's 64-entry spectrum
cache holds; the cache's memory is what `peak_rss_mib` shows.
`shor_factor` is not timed: how many order-finding rounds it makes depends
on the program's own sample stream.

The check recomputes each sample's candidate as the convergent of w/Q with
the largest denominator below N, independently of the program, and checks
that the collapsed right-register value lies on m's orbit mod N.  Once per
run, the number of samples whose candidate is the true order r is compared
with its expectation under the closed-form comb spectrum, within a binomial
tolerance; a program that skips the spectrum (say, w = 0 or w uniform)
fails it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from common import CheckFailed, array_probe, require
from qugame import qalgo
from qugame.rng import RandomSource

NAME = "period-finding"


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


SEMIPRIMES = tuple(
    n for n in range(15, 1024, 2)
    if any(n % p == 0 and _is_prime(p) and _is_prime(n // p) and p < n // p
           for p in range(3, math.isqrt(n) + 1, 2))
)


def register_width(n: int) -> int:
    return 2 * math.ceil(math.log2(n))


BY_CLASS = {
    "big": tuple(n for n in SEMIPRIMES if register_width(n) == 20),
    "mid": tuple(n for n in SEMIPRIMES if register_width(n) == 18),
    "small": tuple(n for n in SEMIPRIMES if register_width(n) <= 16),
}
# Warm-up pairs never appear in the stream, so every first-seen op is a
# spectrum build.
WARM_UP_PAIRS = ((15, 2), (1007, 2))
# One 20-op cycle: F = first-seen pair of a Q class, R = repeat of a recent
# pair.  Sorted by latency: small repeats (<3 ms, 30%), then Q = 2^20 repeats
# with first-seen Q <= 2^16 (~3-15 ms, 40%, holds p50), first-seen Q = 2^18
# (~50 ms, 10%), first-seen Q = 2^20 (~160 ms, 20%, holds p90).
TEMPLATE = (
    "F:big", "R:big", "F:mid", "R:small", "R:big", "F:big", "R:small", "F:small",
    "R:big", "R:small", "F:big", "R:big", "R:small", "F:mid", "R:big", "F:big",
    "R:small", "F:small", "R:big", "R:small",
)
# Repeats come from the last RECENT pairs of their class, all still cached.
RECENT = 16
# The run-wide hit count may stray this many standard deviations (plus one)
# from its expectation: a false alarm about once in 1.7 million runs.
HIT_Z = 5.0


@dataclass(frozen=True)
class Op:
    kind: str     # "first" or "repeat"
    n: int
    m: int
    seed: int

    @property
    def label(self) -> str:
        return f"{self.kind}-q{register_width(self.n)}"


def cycles(seed: int):
    gen = np.random.default_rng([seed, 3])
    seen = set(WARM_UP_PAIRS)
    recent = {"big": deque(maxlen=RECENT), "small": deque(maxlen=RECENT)}

    def new_pair(q_class):
        while True:
            n = int(gen.choice(BY_CLASS[q_class]))
            m = int(gen.integers(2, n - 1))
            if math.gcd(m, n) == 1 and (n, m) not in seen:
                seen.add((n, m))
                return n, m

    while True:
        cycle = []
        for slot in TEMPLATE:
            kind, q_class = slot.split(":")
            window = recent["big" if q_class == "big" else "small"]
            if kind == "F":
                n, m = new_pair(q_class)
                window.append((n, m))
                op_kind = "first"
            else:
                n, m = window[int(gen.integers(len(window)))]
                op_kind = "repeat"
            cycle.append(Op(op_kind, n, m, int(gen.integers(2**31))))
        yield cycle


def prepare(op: Op):
    return RandomSource(op.seed)


def run(op: Op, rng):
    return qalgo.order_find(op.n, op.m, rng)


def best_convergent(w: int, q: int, bound: int) -> tuple[int, int]:
    """Convergent of w/q with the largest denominator below `bound`."""
    terms = []
    x, y = w, q
    while y:
        a, r = divmod(x, y)
        terms.append(a)
        x, y = y, r
    best = Fraction(0)
    for i in range(1, len(terms) + 1):
        value = Fraction(terms[i - 1])
        for a in reversed(terms[: i - 1]):
            value = a + 1 / value
        if value.denominator >= bound:
            break
        best = value
    return best.numerator, best.denominator


def orbit(m: int, n: int) -> set[int]:
    values, v = {1}, m % n
    while v != 1:
        values.add(v)
        v = v * m % n
    return values


def check(op: Op, rng, sample) -> tuple[int, int, int]:
    """Checks one sample; returns (N, m, candidate denominator) for `check_run`."""
    n = op.n
    require((sample.modulus, sample.base) == (n, op.m), f"echo {sample.modulus}, {sample.base}")
    width = register_width(n)
    require(sample.register_width == width, f"register width {sample.register_width} != {width}")
    q = 1 << width
    require(0 <= sample.observed_w < q, f"w = {sample.observed_w} outside [0, {q})")
    expected = best_convergent(sample.observed_w, q, n)
    got = (sample.candidate_num, sample.candidate_den)
    require(got == expected, f"candidate {got} != convergent {expected} of {sample.observed_w}/{q}")
    require(sample.collapsed_value in orbit(op.m, n),
            f"collapsed value {sample.collapsed_value} not a power of {op.m} mod {n}")
    return n, op.m, expected[1]


def convergent_denominators(w: np.ndarray, q: int, bound: int) -> np.ndarray:
    """`best_convergent(w, q, bound)[1]` for every entry of w at once."""
    x, y = w.astype(np.int64), np.full(w.shape, q, dtype=np.int64)
    k2, k1 = np.ones_like(x), np.zeros_like(x)   # denominators two and one terms back
    best = np.ones_like(x)
    active = np.ones(w.shape, dtype=bool)
    while active.any():
        active &= y != 0
        y_safe = np.where(active, y, 1)
        a = x // y_safe
        k = a * k1 + k2
        active &= k < bound
        best = np.where(active, k, best)
        x, y = np.where(active, y_safe, x), np.where(active, x - a * y_safe, y)
        k2, k1 = np.where(active, k1, k2), np.where(active, k, k1)
    return best


def hit_probability(n: int, m: int) -> float:
    """P(candidate denominator == order of m) under the exact comb spectrum.

    Collapsing onto m^x0 leaves a comb of length M = a + 1 (for b of the r
    offsets) or a (for the rest), Q = a r + b, with probability M / Q, and
    the QFT then gives w with |S_M(w)|^2 / (M Q), S_M the geometric sum of
    e^(2 pi i w j r / Q).  So P(w) = (b |S_(a+1)|^2 + (r - b) |S_a|^2) / Q^2.
    A denominator-r candidate k/r is a convergent followed by one with
    denominator >= N, so |w - kQ/r| < Q / (r N): only those windows count.
    """
    q = 1 << register_width(n)
    r = len(orbit(m, n))
    a, b = divmod(q, r)
    half = q // (r * n) + 2
    centres = np.rint(np.arange(r) * (q / r)).astype(np.int64)
    w = np.unique((centres[:, None] + np.arange(-half, half + 1)[None, :]).ravel() % q)
    w = w[convergent_denominators(w, q, n) == r]
    phi = math.pi * r * w / q
    s = np.sin(phi)
    flat = np.abs(s) < 1e-12

    def comb(length):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(flat, float(length) ** 2, (np.sin(length * phi) / s) ** 2)

    return float(((b * comb(a + 1) + (r - b) * comb(a)) / q**2).sum())


def check_run(evidence) -> None:
    """The run's count of order-r candidates against the comb spectrum's expectation."""
    pairs = {}   # (N, m) -> (order, hit probability)
    hits, expected, variance = 0, 0.0, 0.0
    for n, m, den in evidence:
        if (n, m) not in pairs:
            pairs[(n, m)] = len(orbit(m, n)), hit_probability(n, m)
        r, p = pairs[(n, m)]
        hits += den == r
        expected += p
        variance += p * (1 - p)
    slack = HIT_Z * math.sqrt(variance) + 1
    if abs(hits - expected) > slack:
        raise CheckFailed(f"{hits} of {len(evidence)} candidates are the order, "
                          f"expected {expected:.1f} +- {slack:.1f}")


host_probe = array_probe


WARM_UP = tuple(Op("first", n, m, 0) for n, m in WARM_UP_PAIRS)
