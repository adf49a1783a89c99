import dataclasses
import functools
import itertools
import math
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest

from qugame import qalgo, qstate
from qugame.errors import DomainError, ResourceError
from qugame.rng import RandomSource, cumulative


class TestGroverIterations:
    def test_n4_exact_rotation(self):
        assert qalgo.grover_iterations(4) == 1
        run = qalgo.grover_search(2, 3)
        assert abs(run.success_probability - 1.0) < 1e-12

    def test_n2_tie_rounds_away_from_zero(self):
        # pi/(4 asin(1/sqrt 2)) - 1/2 sits at the 0.5 tie; success is 1/2 at
        # k = 0 and k = 1 alike, so only the documented rounding is pinned
        assert qalgo.grover_iterations(2) == 1
        for k in (0, 1):
            run = qalgo.grover_search(1, 0, k=k)
            assert abs(run.success_probability - 0.5) < 1e-12

    def test_too_small(self):
        with pytest.raises(DomainError):
            qalgo.grover_iterations(1)

    @pytest.mark.parametrize("N", [1 << 1024, (1 << 1024) - 1], ids=["2^1024", "2^1024-1"])
    def test_beyond_float64_is_a_resource_error(self, N):
        # (1 << 1024) - 1 rounds up to 2^1024 as a float
        with pytest.raises(ResourceError, match="does not fit a float64"):
            qalgo.grover_iterations(N)


class TestGroverOperators:
    def test_oracle_is_reflection(self):
        oracle, diffusion = qalgo.grover_operators(2, 1)
        assert np.allclose((oracle @ oracle).entries, np.eye(4), atol=1e-12)
        assert np.allclose((diffusion @ diffusion).entries, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_qubits_rejected(self, n):
        with pytest.raises(DomainError, match="at least one qubit"):
            qalgo.grover_operators(n, 0)

    def test_matrix_and_vector_paths_agree(self):
        oracle, diffusion = qalgo.grover_operators(3, 5)
        state = qstate.apply(qstate.basis_state([2] * 3, [0] * 3), qstate.walsh(3))
        for step in range(1, 3):
            state = qstate.apply(qstate.apply(state, oracle), diffusion)
            run = qalgo.grover_search(3, 5, k=step)
            assert np.allclose(state.amps, run.trajectory[-1].amps, atol=1e-10)


class TestGroverSearch:
    def test_sin_theta_invariant(self):
        for n in range(1, 9):
            run = qalgo.grover_search(n, 0)
            assert abs(math.sin(run.theta) - 2 ** (-n / 2)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rotation_formula_exhaustive(self, n):
        # success == sin^2((2k+1) theta) for every target (rotation geometry)
        for a in range(1 << n):
            run = qalgo.grover_search(n, a)
            predicted = math.sin((2 * run.k + 1) * run.theta) ** 2
            assert abs(run.success_probability - predicted) < 1e-9

    def test_non_target_amplitudes_stay_equal(self):
        run = qalgo.grover_search(5, 17)
        for snapshot in run.trajectory:
            others = np.delete(snapshot.amps, 17)
            assert np.abs(others - others[0]).max() < 1e-10

    def test_success_bound(self):
        # winning probability is at least 1 - 1/N at the optimal k
        for n in range(1, 9):
            run = qalgo.grover_search(n, (1 << n) - 1)
            assert run.success_probability >= 1.0 - 1.0 / (1 << n) - 1e-12


def dense_replay(n: int, a: int, k: int) -> list[np.ndarray]:
    """Reference: both reflections applied to all 2^n amplitudes at every step."""
    N = 1 << n
    amps = np.full(N, 1.0 / math.sqrt(N), dtype=complex)
    states = [amps]
    for _ in range(k):
        amps = amps.copy()
        amps[a] = -amps[a]                     # reflection about a-perp
        amps = 2.0 * amps.mean() - amps        # inversion about the mean
        states.append(amps)
    return states


def replay_cases(n: int):
    """(target, k) pairs: every target up to n = 4, the ends and three seeded ones above."""
    N = 1 << n
    gen = np.random.default_rng(n)
    targets = range(N) if n <= 4 else sorted({0, N - 1, *gen.integers(1, N - 1, size=3).tolist()})
    best = qalgo.grover_iterations(N)
    return [(a, k) for a in targets for k in sorted({0, 1, best, 3 * best})]


class TestGroverTrajectory:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_replay(self, n):
        for a, k in replay_cases(n):
            run = qalgo.grover_search(n, a, k=k)
            reference = dense_replay(n, a, k)
            assert run.k == k and len(run.trajectory) == k + 1
            for j, state in enumerate(run.trajectory):
                assert np.abs(state.amps - reference[j]).max() <= 1e-12, (n, a, k, j)
            assert abs(run.success_probability - abs(reference[-1][a]) ** 2) <= 1e-12

    def test_sequence_contract(self):
        run = qalgo.grover_search(4, 9, k=5)
        traj = run.trajectory
        assert isinstance(traj, Sequence) and len(traj) == 6
        assert np.array_equal(traj[-1].amps, traj[5].amps)
        assert np.array_equal(traj[-6].amps, traj[0].amps)
        for bad in (6, -7):
            with pytest.raises(IndexError):
                traj[bad]
        part = traj[1:4]
        assert len(part) == 3
        for got, j in zip(part, range(1, 4)):
            assert np.array_equal(got.amps, traj[j].amps)
        assert [s.amps[9] for s in traj[::-2]] == [traj[j].amps[9] for j in (5, 3, 1)]
        assert len(traj[7:]) == 0
        assert [s.amps[9] for s in traj] == [traj[j].amps[9] for j in range(6)]

    def test_states_are_fresh_and_read_only(self):
        traj = qalgo.grover_search(3, 5).trajectory
        first, again = traj[1], traj[1]
        assert first is not again and not np.shares_memory(first.amps, again.amps)
        assert first.dims == (2, 2, 2)
        assert not first.amps.flags.writeable
        with pytest.raises(AttributeError):
            traj.pairs = ()
        with pytest.raises(TypeError):
            traj[0] = first

    def test_pairs_are_one_read_only_array(self):
        run = qalgo.grover_search(5, 17)
        pairs = run.trajectory.pairs
        assert pairs.shape == (run.k + 1, 2) and pairs.dtype == np.float64
        assert pairs.nbytes == 16 * (run.k + 1) and not pairs.flags.writeable
        assert pairs[-1, 0] ** 2 == run.success_probability
        part = run.trajectory[1:3]
        assert np.shares_memory(part.pairs, pairs)  # slices stay lazy views
        with pytest.raises(TypeError):
            run.trajectory[1.0]

    def test_runs_compare_without_raising(self):
        run = qalgo.grover_search(4, 9)
        assert run == qalgo.grover_search(4, 9)
        assert run.trajectory[1:] == qalgo.grover_search(4, 9).trajectory[1:]
        assert run != qalgo.grover_search(4, 8)
        assert run != qalgo.grover_search(4, 9, k=1)
        assert run.trajectory != tuple(run.trajectory)
        assert hash(run) == hash(qalgo.grover_search(4, 9))

    def test_replace_with_a_tuple(self):
        run = qalgo.grover_search(3, 5)
        dense = dataclasses.replace(run, trajectory=tuple(run.trajectory))
        assert len(dense.trajectory) == 3
        assert np.array_equal(dense.trajectory[2].amps, run.trajectory[2].amps)

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            qalgo.grover_search(3, 5, k=-2)
        assert len(qalgo.grover_search(3, 5, k=0).trajectory) == 1

    def test_memory_is_o_of_k_plus_one_state(self):
        tracemalloc.start()
        try:
            run = qalgo.grover_search(16, 3)
            search_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for state in run.trajectory:
                pass
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.k == 201
        assert search_peak < 1 << 20
        assert read_peak < 4 << 20

    def test_paper_scale_search_keeps_only_pairs(self):
        tracemalloc.start()
        try:
            run = qalgo.grover_search(30, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # 16 bytes for each of the 25,736 pairs
        assert len(run.trajectory) == run.k + 1
        for index in (0, -1):
            with pytest.raises(ResourceError):
                run.trajectory[index]

    def test_rotation_count_and_register_caps(self):
        with pytest.raises(ResourceError):
            qalgo.grover_search(3, 5, k=qstate.MAX_STATE_DIM)
        with pytest.raises(ResourceError):
            qalgo.grover_search(50, 0)  # the optimal k is about 2.6e7
        with pytest.raises(ResourceError):
            qalgo.grover_search(1024, 0, k=1)  # N = 2^1024 overflows a float64
        run = qalgo.grover_search(1023, 7, k=1)
        on, off = run.trajectory.pairs[1]
        assert abs(on * on + (2.0**1023 - 1) * off * off - 1.0) < 1e-12

    def test_largest_register_final_state(self):
        tracemalloc.start()
        try:
            run = qalgo.grover_search(20, 0)
            final = run.trajectory[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20
        assert abs(final.amps[0] ** 2 - run.success_probability) < 1e-12
        assert run.success_probability > 1 - 2.0**-20


class TestBernsteinVazirani:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_recovery(self, n):
        for a in range(1 << n):
            assert qalgo.bernstein_vazirani(n, a) == a

    def test_single_oracle_application(self):
        calls = []
        phases = 1.0 - 2.0 * np.array([bin(x & 5).count("1") % 2 for x in range(8)])

        def counting_oracle(amps):
            calls.append(1)
            return amps * phases

        assert qalgo.bernstein_vazirani(3, 5, oracle=counting_oracle) == 5
        assert len(calls) == 1


def brute_force_best_fraction(w: int, Q: int, bound: int) -> tuple[int, int]:
    """Independent oracle: scan all denominators below the bound."""
    if w == 0:
        return (0, 1)
    target = Fraction(w, Q)
    best = (Fraction(1), (0, 1))
    for den in range(1, bound):
        num = round(w * den / Q)
        err = abs(target - Fraction(num, den))
        if err < best[0]:
            frac = Fraction(num, den)
            best = (err, (frac.numerator, frac.denominator))
    return best[1]


def convergents_oracle(w: int, Q: int) -> list[Fraction]:
    """Textbook convergent list built by back-substitution (independent path)."""
    coefficients = []
    value = Fraction(w, Q)
    while True:
        whole = math.floor(value)
        coefficients.append(whole)
        if value == whole:
            break
        value = 1 / (value - whole)
    out = []
    for k in range(len(coefficients)):
        v = Fraction(coefficients[k])
        for a in reversed(coefficients[:k]):
            v = a + 1 / v
        out.append(v)
    return out


class TestContinuedFractions:
    def test_zero(self):
        assert qalgo.continued_fraction_best(0, 16384, 77) == (0, 1)

    def test_exact_half(self):
        assert qalgo.continued_fraction_best(8192, 16384, 77) == (1, 2)

    def test_rsa_observation_best_convergent(self):
        # The faithful largest-denominator convergent of 14770/16384 under 77
        # is 64/71 (the narrative's 27/30 is not a convergent of this ratio);
        # the full pipeline never needs that sample. Cross-checked against a
        # brute-force best-approximation scan.
        got = qalgo.continued_fraction_best(14770, 16384, 77)
        assert got == (64, 71)
        assert got == brute_force_best_fraction(14770, 16384, 77)

    def test_peak_sample_recovers_period(self):
        # a high-probability observation: w = round(27 * 16384 / 30)
        d, r = qalgo.continued_fraction_best(14746, 16384, 77)
        assert (d, r) == (9, 10)
        assert 30 % r == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_convergent_oracle(self, seed):
        gen = np.random.default_rng(seed)
        Q = 1 << 12
        for _ in range(40):
            w = int(gen.integers(0, Q))
            bound = int(gen.integers(2, 90))
            mine = Fraction(*qalgo.continued_fraction_best(w, Q, bound))
            under = [c for c in convergents_oracle(w, Q) if c.denominator < bound]
            assert mine == under[-1]

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_best_fraction_inside_window(self, seed):
        # whenever the true best bounded-denominator fraction sits within the
        # 1/(2Q) window, it is a convergent, so the two oracles must coincide
        gen = np.random.default_rng(100 + seed)
        Q = 1 << 12
        for _ in range(60):
            bound = int(gen.integers(3, 60))
            w = int(gen.integers(0, Q))
            best = Fraction(w, Q).limit_denominator(bound - 1)
            if abs(Fraction(w, Q) - best) < Fraction(1, 2 * Q):
                mine = Fraction(*qalgo.continued_fraction_best(w, Q, bound))
                assert mine == best

    def test_eq115_inequality_when_attainable(self):
        # whenever some fraction with denominator < N lands inside the
        # 1/2^(2n+1) window, the returned convergent does as well
        Q = 16384
        window = Fraction(1, 2 * Q)
        hit = 0
        for w in (14746, 547, 1093, 8739, 2731, 546):
            d, r = qalgo.continued_fraction_best(w, Q, 77)
            brute = brute_force_best_fraction(w, Q, 77)
            if abs(Fraction(w, Q) - Fraction(*brute)) < window:
                hit += 1
                assert abs(Fraction(w, Q) - Fraction(d, r)) < window
        assert hit >= 3  # the case list must actually exercise the window


def combs_of_every_point(Q: int, r: int) -> np.ndarray:
    """(Q, 2) array: `qalgo._comb_of(t, Q, r)` = (x0, M) for every t in [0, Q)."""
    pairs = itertools.chain.from_iterable(qalgo._comb_of(t, Q, r) for t in range(Q))
    return np.fromiter(pairs, dtype=np.int64, count=2 * Q).reshape(Q, 2)


class TestOrderFind:
    def test_comb_spacing_matches_order(self):
        # the left-register comb after collapse steps by the true order: comb x0
        # holds the M points x0, x0 + 30, ... below Q, and the combs tile [0, Q)
        two_n, r = qalgo._register_width(77), qalgo.multiplicative_order(39, 77)
        assert two_n == 14 and r == 30
        Q = 1 << two_n
        combs = combs_of_every_point(Q, r)
        sizes = np.bincount(combs[:, 0])
        assert sizes.tolist() == [len(range(x0, Q, r)) for x0 in range(r)]
        assert (combs[:, 1] == sizes[combs[:, 0]]).all()

    def test_register_sizing(self):
        # 2^(2n-2) < N^2 < 2^(2n)
        for N in (15, 21, 77):
            two_n = qalgo._register_width(N)
            assert 2 ** (two_n - 2) < N * N < 2 ** two_n

    def test_order_five_comb(self):
        # 3 has order 5 mod 11: the surviving comb steps by 5
        two_n, r = qalgo._register_width(11), qalgo.multiplicative_order(3, 11)
        assert r == 5
        Q = 1 << two_n
        assert set(combs_of_every_point(Q, r)[:, 0].tolist()) == set(range(r))
        for x0 in range(r):
            z = pow(3, x0, 11)
            comb = [x for x in range(Q) if pow(3, x, 11) == z]
            assert comb == list(range(x0, Q, 5))

    def test_rsa_candidates_concentrate_on_divisors(self):
        rng = RandomSource(11)
        hits = 0
        exact = 0
        near_peak = 0
        samples = 400
        spacing = 16384 / 30.0
        for _ in range(samples):
            s = qalgo.order_find(77, 39, rng)
            if s.candidate_den > 0 and 30 % s.candidate_den == 0:
                hits += 1
            if s.candidate_den == 30:
                exact += 1
            offset = s.observed_w / spacing
            if abs(offset - round(offset)) * spacing <= 10.0:
                near_peak += 1
        assert hits / samples >= 0.9
        assert exact > 0
        assert near_peak / samples >= 0.95  # w clusters at multiples of Q/r

    def test_n15_candidates(self):
        rng = RandomSource(3)
        denominators = [qalgo.order_find(15, 2, rng).candidate_den for _ in range(200)]
        assert all(4 % d == 0 for d in denominators if d > 0)
        assert max(set(denominators), key=denominators.count) == 4

    def test_gcd_precondition(self):
        with pytest.raises(DomainError):
            qalgo.order_find(15, 6, RandomSource(0))

    def test_collapse_before_qft_equals_deferred(self):
        # joint (Z, w) distribution computed both ways; r = 4 divides Q, r = 3 is
        # odd, and r = 6 and 12 have g = 2 and 4
        for N, m in ((15, 2), (21, 4), (21, 2), (35, 2)):
            two_n, r = qalgo._register_width(N), qalgo.multiplicative_order(m, N)
            Q = 1 << two_n
            x0_probs = np.bincount(combs_of_every_point(Q, r)[:, 0]) / Q
            w_dists = peak_probabilities(Q, r)
            powers = [pow(m, x, N) for x in range(Q)]
            deferred = {}
            for z in sorted(set(powers)):
                xs = np.array([x for x in range(Q) if powers[x] == z])
                amps = np.exp(2j * np.pi * np.outer(np.arange(Q), xs) / Q).sum(axis=1) / Q
                deferred[z] = np.abs(amps) ** 2
            early = {}
            for x0 in range(r):
                z = powers[x0]
                M = (Q - 1 - x0) // r + 1
                early[z] = x0_probs[x0] * w_dists[M]
            for z, dist in deferred.items():
                assert np.abs(dist - early[z]).max() < 1e-12, f"N = {N}, value {z}"

    def test_register_cap(self):
        # Q = 2^(2 ceil(log2 N)) may not exceed MAX_STATE_DIM: N = 1023 is the largest odd N
        assert qalgo.order_find(1023, 2, RandomSource(0)).register_width == 20
        for N in (1025, 10403):
            with pytest.raises(ResourceError):
                qalgo.order_find(N, 2, RandomSource(0))

    def test_sample_fields(self):
        s = qalgo.order_find(77, 39, RandomSource(0))
        assert s.modulus == 77 and s.base == 39
        assert 0 <= s.observed_w < 1 << s.register_width
        assert s.collapsed_value in {pow(39, x, 77) for x in range(30)}


@functools.cache
def dense_distributions(N: int, m: int):
    """Reference: the comb spectrum built per (N, m) as probability vectors.

    Returns (Q, 2n, r, x0_probs, {comb_length: w_probs}), each vector the
    squared geometric sum of the collapsed comb, evaluated over all Q outputs
    in long double from phases reduced mod Q in integers, then rounded to
    float64.
    """
    two_n = qalgo._register_width(N)
    Q = 1 << two_n
    r = qalgo.multiplicative_order(m, N)
    lengths = np.array([(Q - 1 - x0) // r + 1 for x0 in range(r)])
    x0_probs = lengths / Q
    pi = np.arccos(np.longdouble(-1))
    u = np.arange(Q) * r % Q
    sin_half = np.sin(pi * u.astype(np.longdouble) / Q)
    w_dists = {}
    for M in np.unique(lengths).tolist():
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.sin(pi * (M * u % Q).astype(np.longdouble) / Q) / sin_half
        ratio[u == 0] = M
        probs = ratio**2 / (M * Q)
        w_dists[M] = (probs / probs.sum()).astype(float)
    return Q, two_n, r, x0_probs, w_dists


@functools.cache
def phase_distributions(N: int, m: int):
    """Reference: the oracle's spectrum summed over each folded phase.

    Returns (Q', 2g, {comb_length: k_probs}, peak), where k = min(u, Q' - u)
    for u = r' w mod Q' (g = gcd(r, Q), Q' = Q/g, r' = r/g), k_probs[k] sums
    the oracle's P(w) over the w with that phase, and peak[u] is the w in
    [0, Q') with r' w = u mod Q', found by tabulating r' w, not by inversion.
    """
    Q, two_n, r, x0_probs, w_dists = dense_distributions(N, m)
    g = math.gcd(r, Q)
    Qp = Q // g
    u = (r // g) * np.arange(Q) % Qp
    k = np.minimum(u, Qp - u)
    k_probs = {M: np.bincount(k, weights=p, minlength=Qp // 2 + 1) for M, p in w_dists.items()}
    peak = np.empty(Qp, dtype=np.int64)
    peak[u[:Qp]] = np.arange(Qp)
    return Qp, 2 * g, k_probs, peak


def comb_lengths(Q: int, r: int) -> list[int]:
    """The distinct lengths of the combs x0, x0 + r, ... below Q."""
    return sorted({len(range(x0, Q, r)) for x0 in range(r)})


def peak_probabilities(Q: int, r: int) -> dict:
    """P(w) over all Q outputs, per comb length M, from the package's (Q', M) tables.

    A phase k in (0, Q'/2) stands for the 2g outputs with u = k or Q' - k,
    k = 0 and k = Q'/2 for g outputs each; the phase of w is taken from its
    definition, u = r' w mod Q'.
    """
    g = math.gcd(r, Q)
    Qp = Q // g
    u = (r // g) * np.arange(Q) % Qp
    k = np.minimum(u, Qp - u)
    share = np.where((k == 0) | (k == Qp // 2), g, 2 * g)
    return {M: np.diff(qalgo._comb_spectrum(Qp, M), prepend=0.0)[k] / share
            for M in comb_lengths(Q, r)}


def numpy_choice(gen, probs) -> int:
    """Reference sampler: clip, normalise, then numpy's own `Generator.choice`."""
    p = np.clip(probs, 0.0, None)
    return int(gen.choice(len(p), p=p / p.sum()))


def dense_order_find(N: int, m: int, gen) -> qalgo.PeriodSample:
    """Reference `order_find`: x0 and the phase k drawn by `numpy_choice` from the
    oracle, then j uniform in [0, 2g) from `gen.random()`: its low bit picks
    u = k or -k mod Q', the rest the period t in w = peak[u] + t Q'."""
    Q, two_n, r, x0_probs, _ = dense_distributions(N, m)
    Qp, two_g, k_probs, peak = phase_distributions(N, m)
    x0 = numpy_choice(gen, x0_probs)
    k = numpy_choice(gen, k_probs[(Q - 1 - x0) // r + 1])
    j = int(gen.random() * two_g)
    w = int(peak[(Qp - k) % Qp if j & 1 else k]) + (j >> 1) * Qp
    d, rr = qalgo.continued_fraction_best(w, Q, N)
    return qalgo.PeriodSample(N, m, w, two_n, d, rr, pow(m, x0, N))


class ScriptedSource:
    """Stands in for a RandomSource: `draw` returns the scripted indices in turn,
    `uniform` the scripted floats."""

    def __init__(self, indices, uniforms):
        self.indices, self.uniforms = list(indices), list(uniforms)

    def draw(self, cdf) -> int:
        return self.indices.pop(0)

    def uniform(self) -> float:
        return self.uniforms.pop(0)


# (N, m): Q = 2^20 pairs, and pairs sharing (Q, r): (91, 2) and (65, 2) have
# Q = 2^14 and r = 12, (1023, 2) and (671, 3) have Q = 2^20 and r = 10; r = 4
# divides Q, so (15, 2) has one comb length.
ORACLE_PAIRS = ((15, 2), (77, 39), (91, 2), (65, 2), (1023, 2), (671, 3), (525, 2))


@pytest.fixture
def spectrum_cache():
    """The package's spectrum cache and sine tables, emptied before and after the test."""
    qalgo._comb_spectrum.cache_clear()
    qalgo._sines.cache_clear()
    yield qalgo._comb_spectrum
    qalgo._comb_spectrum.cache_clear()
    qalgo._sines.cache_clear()


class TestCombSpectrum:
    @pytest.mark.parametrize("seed", range(3))
    def test_samples_match_dense_oracle(self, seed, spectrum_cache):
        rng = RandomSource(seed)
        gen = np.random.Generator(np.random.PCG64(seed))
        for N, m in ORACLE_PAIRS:
            for _ in range(3):
                assert qalgo.order_find(N, m, rng) == dense_order_find(N, m, gen), (N, m)
        assert rng.integer(0, 1 << 30) == int(gen.integers(0, (1 << 30) + 1))

    def test_shared_order_samples_match_after_cache_hit(self, spectrum_cache):
        # (65, 2) is served from the entry (91, 2) built
        for seed in range(4):
            rng = RandomSource(seed)
            gen = np.random.Generator(np.random.PCG64(seed))
            for N, m in ((91, 2), (65, 2), (91, 2), (65, 2)):
                assert qalgo.order_find(N, m, rng) == dense_order_find(N, m, gen)

    # odd r: (899, 7); g = 2: (77, 39), (1023, 2); g = 4: (91, 2), (1007, 2); r | Q: (15, 2)
    @pytest.mark.parametrize("N, m", [(15, 2), (77, 39), (91, 2), (899, 7), (1023, 2), (1007, 2)])
    def test_tables_are_the_dense_spectrum(self, N, m, spectrum_cache):
        Q, two_n, r, x0_probs, w_dists = dense_distributions(N, m)
        Qp = Q // math.gcd(r, Q)
        assert comb_lengths(Q, r) == sorted(w_dists)
        for M, probs in peak_probabilities(Q, r).items():
            assert np.abs(probs - w_dists[M]).max() < 1e-12  # every w
        assert list(spectrum_cache.entries) == [(Qp, M) for M in sorted(w_dists)]
        for table in spectrum_cache.entries.values():
            assert table.shape == (Qp // 2 + 1,) and table[-1] == 1.0
            assert not table.flags.writeable
        assert spectrum_cache.nbytes == len(w_dists) * 8 * (Qp // 2 + 1)
        assert not qalgo._sines(Qp).flags.writeable

    # r | Q, g = 2, g = 4, odd r
    @pytest.mark.parametrize("N, m", [(15, 2), (77, 39), (91, 2), (899, 7)])
    def test_comb_start_is_the_cumulative_search(self, N, m):
        # the cumulative table of the comb lengths holds S_i / Q exactly, S_i the
        # i-th cumulative length, so its search of t / Q finds the comb holding t
        Q, r = 1 << qalgo._register_width(N), qalgo.multiplicative_order(m, N)
        lengths = (Q - 1 - np.arange(r)) // r + 1
        x0_cdf = cumulative(lengths / Q)
        assert np.array_equal(x0_cdf, np.cumsum(lengths) / Q) and x0_cdf[-1] == 1.0
        combs = combs_of_every_point(Q, r)
        assert np.array_equal(combs[:, 0], x0_cdf.searchsorted(np.arange(Q) / Q, "right"))
        assert np.array_equal(combs[:, 1], lengths[combs[:, 0]])

    # r | Q, odd r, g = 2, g = 4
    @pytest.mark.parametrize("N, m", [(15, 2), (21, 4), (21, 2), (35, 2)])
    def test_every_phase_and_j_reach_their_peaks(self, N, m, spectrum_cache):
        # order_find's own mapping, driven through every (k, j) of each comb length
        # and to its x0 by the uniform, puts P(k) / 2g on each output; summed, that
        # is the oracle's P(w) for every w
        Q, two_n, r, x0_probs, w_dists = dense_distributions(N, m)
        g = math.gcd(r, Q)
        Qp, two_g = Q // g, 2 * g
        lengths = (Q - 1 - np.arange(r)) // r + 1
        x0_of = {M: x0 for x0, M in enumerate(lengths.tolist())}
        for M, x0 in x0_of.items():
            t = int(lengths[:x0].sum())  # the comb's first point
            p_k = np.diff(qalgo._comb_spectrum(Qp, M), prepend=0.0)
            probs = np.zeros(Q)
            for k in range(Qp // 2 + 1):
                for j in range(two_g):
                    rng = ScriptedSource([k], [t / Q, (j + 0.5) / two_g])
                    sample = qalgo.order_find(N, m, rng)
                    assert sample.collapsed_value == pow(m, x0, N)
                    probs[sample.observed_w] += p_k[k] / two_g
            assert np.abs(probs - w_dists[M]).max() < 1e-12, M

    def test_shared_tables_add_no_entry(self, spectrum_cache):
        # (19, 7): Q = 2^10, r = 3; (35, 2): Q = 2^12, r = 12, g = 4; both are combs
        # of 341 or 342 points on Q' = 1024
        rng = RandomSource(0)
        for _ in range(20):
            qalgo.order_find(19, 7, rng)
        entries = dict(spectrum_cache.entries)
        held = spectrum_cache.nbytes
        assert sorted(entries) == [(1024, 341), (1024, 342)]
        assert held == sum(table.nbytes for table in entries.values())
        for _ in range(20):
            qalgo.order_find(35, 2, rng)
        assert sorted(spectrum_cache.entries) == sorted(entries)
        assert spectrum_cache.nbytes == held
        assert all(spectrum_cache.entries[key] is table for key, table in entries.items())

    def test_bytes_stay_under_budget(self, spectrum_cache):
        # both comb lengths of each odd order of 2 on the Q = 2^20 register, one
        # Q' = 2^20 table each, until more were built than the budget holds
        Q, orders = 1 << 20, {}
        for N in range(513, 1024, 2):
            r = qalgo.multiplicative_order(2, N)
            if r % 2:
                orders.setdefault(r, N)
        keys = [(Q, M) for r in orders for M in comb_lengths(Q, r)]
        table_bytes = 8 * (Q // 2 + 1)
        fits = qalgo.SPECTRUM_CACHE_BYTES // table_bytes
        assert fits == 47 and len(keys) > fits
        for key in keys[:fits + 2]:
            spectrum_cache(*key)
            assert spectrum_cache.nbytes <= qalgo.SPECTRUM_CACHE_BYTES
            assert spectrum_cache.nbytes == sum(
                table.nbytes for table in spectrum_cache.entries.values())
        # the oldest went first
        assert list(spectrum_cache.entries) == keys[2:fits + 2]
        assert spectrum_cache.nbytes == fits * table_bytes

    def test_hit_refreshes_recency(self, spectrum_cache, monkeypatch):
        table_bytes = qalgo._fejer_cdf(256, 3).nbytes
        monkeypatch.setattr(spectrum_cache, "budget", 3 * table_bytes - 1)
        for M in (3, 5, 3, 7):
            qalgo._comb_spectrum(256, M)
        assert list(spectrum_cache.entries) == [(256, 3), (256, 7)]
        assert spectrum_cache.nbytes == 2 * table_bytes

    def test_first_build_peak(self, spectrum_cache):
        # odd order 105 has the largest tables, Q' = Q; order 10 has Q' = Q/2
        for N, m in ((899, 7), (1023, 2)):
            spectrum_cache.cache_clear()
            qalgo._sines.cache_clear()
            tracemalloc.start()
            try:
                qalgo.order_find(N, m, RandomSource(0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 << 20, (N, m)

    def test_order_is_cached_per_pair(self):
        qalgo.multiplicative_order.cache_clear()
        assert qalgo.multiplicative_order(39, 77) == 30
        assert qalgo.multiplicative_order(39, 77) == 30
        assert qalgo.multiplicative_order.cache_info().hits == 1
        with pytest.raises(DomainError):
            qalgo.multiplicative_order(7, 77)


class TestFactorExtraction:
    def test_odd_order(self):
        outcome = qalgo.factor_from_order(77, 23, 15)
        assert not outcome.ok and outcome.reason == "odd-order"

    def test_bad_order(self):
        outcome = qalgo.factor_from_order(77, 39, 14)
        assert not outcome.ok and outcome.reason == "bad-order"

    def test_factors_multiply_back(self):
        for N, m in ((15, 2), (21, 2), (77, 39)):
            r = qalgo.multiplicative_order(m, N)
            outcome = qalgo.factor_from_order(N, m, r)
            if outcome.ok:
                p, q = outcome.factors
                assert p * q == N


class TestShorAndRSA:
    @pytest.mark.parametrize("N,expected", [(77, (7, 11)), (15, (3, 5)), (21, (3, 7))])
    def test_factoring(self, N, expected):
        result = qalgo.shor_factor(N, RandomSource(2))
        assert result.factors == expected
        assert result.rounds <= 25

    def test_classical_exits(self):
        assert qalgo.shor_factor(12, RandomSource(0)).factors == (2, 6)
        assert qalgo.shor_factor(49, RandomSource(0)).factors == (7, 7)
        with pytest.raises(DomainError):
            qalgo.shor_factor(13, RandomSource(0))

    def test_register_cap_before_first_draw(self):
        rng = RandomSource(3)
        with pytest.raises(ResourceError):
            qalgo.shor_factor(10403, rng)
        assert rng.integer(0, 1 << 30) == RandomSource(3).integer(0, 1 << 30)
        assert qalgo.shor_factor(2 * 10403, rng).factors == (2, 10403)
        assert qalgo.shor_factor(3**7, rng).factors == (3, 729)

    def test_refusals_before_primality_and_float_roots(self):
        # a prime above the cap is refused by the register guard, before trial division
        for N in (1031, 2**61 - 1, 3 * (10**400 + 1)):
            with pytest.raises(ResourceError):
                qalgo.shor_factor(N, RandomSource(0))
        with pytest.raises(DomainError):
            qalgo.shor_factor(1021, RandomSource(0))

    def test_prime_power_root_in_integers(self):
        assert qalgo._prime_power_root(3**9000) == 3**25  # the root of the smallest k, 360
        assert qalgo._prime_power_root((2**39 + 7) ** 2) == 2**39 + 7
        # the root 1000003^5 of k = 10 is above 2^40, so the next power that has one answers
        assert qalgo._prime_power_root(1000003**50) == 1000003**2
        for n in (3 * (10**400 + 1), 2**61 - 1, 1023, 3**2 * 5, (2**39 + 7) ** 2 + 2):
            assert qalgo._prime_power_root(n) is None

    def test_seed_determinism(self):
        a = qalgo.shor_factor(77, RandomSource(9))
        b = qalgo.shor_factor(77, RandomSource(9))
        assert a.factors == b.factors and a.rounds == b.rounds
        assert a.transcript == b.transcript

    def test_rsa_small(self):
        result = qalgo.rsa_demo(15, 3, 8, RandomSource(4))
        assert (result.p, result.q) == (3, 5)
        assert result.phi == 8 and result.d == 3
        assert result.plaintext == 2
        assert pow(2, 3, 15) == 8

    def test_rsa_non_invertible_exponent(self):
        with pytest.raises(DomainError):
            qalgo.rsa_demo(77, 10, 67, RandomSource(1))  # gcd(10, 60) > 1


class TestHugeIntegers:
    # Python refuses to print an integer of more than 4,300 digits
    @pytest.mark.parametrize("call", [
        lambda: qalgo.grover_search(10**5000, 0),
        lambda: qalgo.grover_search(-10**5000, 0),
        lambda: qalgo.grover_search(3, 10**5000),
        lambda: qalgo.grover_search(3, 0, k=-10**5000),
        lambda: qalgo.grover_operators(3, 10**5000),
        lambda: qalgo.bernstein_vazirani(3, 10**5000),
        lambda: qalgo.continued_fraction_best(10**5000, 8, 2),
        lambda: qalgo.multiplicative_order(3 * 10**5000, 15),
        lambda: qalgo.order_find(15, 3 * 10**5000, RandomSource(0)),
        lambda: qalgo.shor_factor(-10**5000, RandomSource(0)),
        lambda: qalgo.rsa_demo(77, 6 * 10**5000, 2, RandomSource(0)),
    ], ids=["grover-n", "grover-negative-n", "grover-target", "grover-k", "grover-operators",
            "bernstein-vazirani", "continued-fraction", "multiplicative-order", "order-find",
            "shor", "rsa-exponent"])
    def test_huge_integers_are_printed_short(self, call):
        with pytest.raises((DomainError, ResourceError)) as exc:
            call()
        assert "2^166" in str(exc.value) and len(str(exc.value)) < 200
