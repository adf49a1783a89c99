import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from qugame import cgame, qgames
from qugame.cgame import Bimatrix, CharacteristicGame, Imputation, MixedStrategy
from qugame.errors import DomainError


def spin_flip_payoff_table() -> Bimatrix:
    # Alice rows {1, sigma_x}, Bob columns are his four move pairs
    payoffs = [[-1, 1, 1, -1], [1, -1, -1, 1]]
    return Bimatrix.zero_sum(["1", "X"], ["11", "1X", "X1", "XX"], payoffs)


class TestExpectedPayoff:
    def test_spin_flip_uniform_is_fair(self):
        g = spin_flip_payoff_table()
        value = cgame.expected_payoff(g, MixedStrategy.uniform(2), MixedStrategy.uniform(4))
        assert value == (0.0, 0.0)

    def test_pd_defect_defect(self):
        g = qgames.prisoners_dilemma_payoffs()
        value = cgame.expected_payoff(g, MixedStrategy.pure(1, 2), MixedStrategy.pure(1, 2))
        assert value == (1.0, 1.0)

    def test_bos_interior_value(self):
        alpha, beta, gamma = 5.0, 2.0, 0.5
        g = qgames.battle_of_sexes_payoffs(alpha, beta, gamma)
        denom = alpha + beta - 2 * gamma
        p = (alpha - gamma) / denom
        q = (beta - gamma) / denom
        va, vb = cgame.expected_payoff(
            g, MixedStrategy([p, 1 - p]), MixedStrategy([q, 1 - q])
        )
        expected = (alpha * beta - gamma**2) / denom
        assert abs(va - expected) < 1e-12 and abs(vb - expected) < 1e-12

    def test_bilinearity(self, gen):
        g = Bimatrix(["a", "b", "c"], ["x", "y"], gen.normal(size=(3, 2)), gen.normal(size=(3, 2)))
        p1 = MixedStrategy(np.array([0.2, 0.5, 0.3]))
        p2 = MixedStrategy(np.array([0.6, 0.1, 0.3]))
        q = MixedStrategy(np.array([0.7, 0.3]))
        lam = 0.37
        blend = MixedStrategy(lam * p1.probs + (1 - lam) * p2.probs)
        left = cgame.expected_payoff(g, blend, q)
        right1 = cgame.expected_payoff(g, p1, q)
        right2 = cgame.expected_payoff(g, p2, q)
        for k in range(2):
            assert abs(left[k] - (lam * right1[k] + (1 - lam) * right2[k])) < 1e-12

    def test_zero_sum_payoffs_cancel(self, gen):
        g = spin_flip_payoff_table()
        for _ in range(10):
            pa = gen.dirichlet(np.ones(2))
            pb = gen.dirichlet(np.ones(4))
            va, vb = cgame.expected_payoff(g, MixedStrategy(pa), MixedStrategy(pb))
            assert abs(va + vb) < 1e-12

    def test_length_mismatch(self):
        g = qgames.prisoners_dilemma_payoffs()
        with pytest.raises(DomainError):
            cgame.expected_payoff(g, MixedStrategy([1.0]), MixedStrategy.uniform(2))


def brute_force_nash(g: Bimatrix, tol=1e-9):
    """Oracle: enumerate joint best responses directly."""
    cells = []
    m, n = g.shape
    for i in range(m):
        for j in range(n):
            row_ok = all(g.payoff_row[i, j] >= g.payoff_row[i2, j] - tol for i2 in range(m))
            col_ok = all(g.payoff_col[i, j] >= g.payoff_col[i, j2] - tol for j2 in range(n))
            if row_ok and col_ok:
                cells.append((i, j))
    return cells


def brute_force_dominance(g: Bimatrix, tol=1e-9):
    """Oracle: a move is weakly dominant when it is a best response to every reply."""
    m, n = g.shape
    A, B = g.payoff_row, g.payoff_col
    rows = [i for i in range(m)
            if all(A[i, j] >= A[i2, j] - tol for j in range(n) for i2 in range(m))]
    cols = [j for j in range(n)
            if all(B[i, j] >= B[i, j2] - tol for i in range(m) for j2 in range(n))]
    return rows, cols


def brute_force_pareto(g: Bimatrix, tol=1e-9):
    """Oracle: compare every cell with every cell, one pair at a time."""
    m, n = g.shape
    A, B = g.payoff_row, g.payoff_col
    dominated = np.zeros((m, n), dtype=bool)
    optimal = np.ones((m, n), dtype=bool)
    points = [(A[i, j], B[i, j]) for i in range(m) for j in range(n)]
    for i in range(m):
        for j in range(n):
            a, b = A[i, j], B[i, j]
            for a2, b2 in points:
                if a2 >= a - tol and b2 >= b - tol and (a2 > a + tol or b2 > b + tol):
                    dominated[i, j] = True
                if (a2 > a + tol and b2 >= b - tol) or (b2 > b + tol and a2 >= a - tol):
                    optimal[i, j] = False
    return dominated, optimal


def random_integer_games(gen, count=200):
    """Small payoff range, so most games have ties."""
    for _ in range(count):
        m, n = gen.integers(1, 6, size=2)
        a = gen.integers(-3, 6, size=(m, n)).astype(float)
        b = gen.integers(-3, 6, size=(m, n)).astype(float)
        yield Bimatrix([str(i) for i in range(m)], [str(j) for j in range(n)], a, b)


def random_tolerance_games(gen, tol, count=90):
    """Unrounded and rounded normal payoffs, and integer payoffs offset by 0,
    +-tol, +-tol/2 or 2 tol, so that many cells differ by exactly tol."""
    offsets = np.array([0.0, tol, -tol, tol / 2, -tol / 2, 2 * tol])
    for k in range(count):
        m, n = gen.integers(1, 6, size=2)
        if k % 3 == 0:
            a, b = gen.normal(size=(2, m, n))
        elif k % 3 == 1:
            a, b = np.round(gen.normal(size=(2, m, n)), 1)
        else:
            a, b = gen.integers(-2, 3, size=(2, m, n)) + gen.choice(offsets, size=(2, m, n))
        yield Bimatrix([str(i) for i in range(m)], [str(j) for j in range(n)], a, b)


class TestRefusals:
    @pytest.mark.parametrize("call", [
        lambda: MixedStrategy([math.nan, math.nan]),
        lambda: MixedStrategy([math.nan, 1.0]),
        lambda: Bimatrix(["a"], ["x"], [[math.nan]], [[0.0]]),
        lambda: Bimatrix(["a"], ["x"], [[0.0]], [[math.inf]]),
        lambda: Bimatrix.zero_sum(["a", "b"], ["x"], [[1.0], [-math.inf]]),
        lambda: cgame.pareto_analysis(qgames.prisoners_dilemma_payoffs(), -1e-9),
        lambda: cgame.pareto_analysis(qgames.prisoners_dilemma_payoffs(), math.nan),
    ], ids=["strategy-nan", "strategy-nan-and-one", "payoff-nan", "payoff-inf",
            "payoff-minus-inf", "tol-negative", "tol-nan"])
    def test_non_finite_or_negative_input_refused(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: MixedStrategy([]),
        lambda: MixedStrategy.uniform(0),
        lambda: MixedStrategy.uniform(1.5),
        lambda: MixedStrategy.pure(5, 2),
        lambda: MixedStrategy.pure(-1, 2),
        lambda: MixedStrategy.pure(0, 0),
        lambda: CharacteristicGame(1, {(0,): math.nan}),
        lambda: CharacteristicGame(2, {(0, 1): math.inf}),
        lambda: Imputation([math.nan]),
        lambda: Imputation([1.0, -math.inf]),
        lambda: cgame.repeated_payoff_distribution(1.5, 0.5),
        lambda: cgame.repeated_payoff_distribution(True, 0.5),
    ], ids=["strategy-empty", "uniform-0", "uniform-float", "pure-index-5-of-2",
            "pure-index-minus-1", "pure-size-0", "coalition-nan", "coalition-inf",
            "allocation-nan", "allocation-minus-inf", "games-float", "games-bool"])
    def test_empty_nan_or_non_integer_input_refused(self, call):
        with pytest.raises(DomainError):
            call()


class TestPureNash:
    def test_battle_of_sexes_two_equilibria(self):
        assert cgame.pure_nash(qgames.battle_of_sexes_payoffs()) == [(0, 0), (1, 1)]

    def test_matches_brute_force_oracle(self, gen):
        for _ in range(200):
            m = int(gen.integers(1, 6))
            n = int(gen.integers(1, 6))
            a = gen.integers(-3, 6, size=(m, n)).astype(float)
            b = gen.integers(-3, 6, size=(m, n)).astype(float)
            g = Bimatrix([str(i) for i in range(m)], [str(j) for j in range(n)], a, b)
            assert cgame.pure_nash(g) == brute_force_nash(g)

    def test_cells_are_python_int_tuples(self):
        cells = cgame.pure_nash(qgames.battle_of_sexes_payoffs())
        assert all(type(c) is tuple and all(type(k) is int for k in c) for c in cells)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_table_without_moves_rejected(self, shape):
        m, n = shape
        with pytest.raises(DomainError):
            Bimatrix([str(i) for i in range(m)], [str(j) for j in range(n)],
                     np.zeros(shape), np.zeros(shape))


class TestDominance:
    def test_newcomb_dominant_row(self):
        # Alice's payoffs only; the predictor column player has no own table
        alice = [[1_000_000, 0], [1_001_000, 1_000]]
        g = Bimatrix(["only-B2", "both"], ["predict-B2", "predict-both"], alice,
                     [[0, 0], [0, 0]])
        rows, _ = cgame.dominant_moves(g)
        assert rows == [1]

    def test_bos_has_none(self):
        rows, cols = cgame.dominant_moves(qgames.battle_of_sexes_payoffs())
        assert rows == [] and cols == []

    def test_matches_brute_force_oracle(self, gen):
        for g in random_integer_games(gen):
            rows, cols = cgame.dominant_moves(g)
            assert (rows, cols) == brute_force_dominance(g)
            assert all(type(k) is int for k in rows + cols)


class TestPareto:
    def test_single_cell_game(self):
        g = Bimatrix(["only"], ["only"], [[2.0]], [[5.0]])
        assert cgame.pareto_analysis(g).cell(0, 0) == (False, True)

    def test_matches_brute_force_oracle(self, gen):
        cases = [(g, cgame.PAYOFF_TOL) for g in random_integer_games(gen)]
        for tol in (0.0, 1e-9, 0.5):
            cases += [(g, tol) for g in random_tolerance_games(gen, tol)]
        for g, tol in cases:
            flags = cgame.pareto_analysis(g, tol)
            dominated, optimal = brute_force_pareto(g, tol)
            assert np.array_equal(flags.jointly_dominated, dominated)
            assert np.array_equal(flags.pareto_optimal, optimal)

    def test_large_table_memory_stays_small(self, gen):
        a = gen.integers(0, 5, size=(256, 256)).astype(float)
        g = Bimatrix([str(i) for i in range(256)], [str(j) for j in range(256)], a, a.T)
        start = time.perf_counter()
        flags = cgame.pareto_analysis(g)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            cgame.pareto_analysis(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 8 * 2**20
        # payoffs run 0..4, so the optimal cells are exactly those paying (4, 4)
        assert np.array_equal(flags.pareto_optimal, (a == 4) & (a.T == 4))


class TestMixedNash2x2:
    def test_bos_formulas_random_triples(self, gen):
        for _ in range(20):
            gamma = float(gen.uniform(0, 2))
            beta = gamma + float(gen.uniform(0.1, 2))
            alpha = beta + float(gen.uniform(0.1, 2))
            g = qgames.battle_of_sexes_payoffs(alpha, beta, gamma)
            result = cgame.mixed_nash_2x2(g)
            denom = alpha + beta - 2 * gamma
            assert result.interior
            assert abs(result.p - (alpha - gamma) / denom) < 1e-12
            assert abs(result.q - (beta - gamma) / denom) < 1e-12
            assert abs(result.payoffs[0] - (alpha * beta - gamma**2) / denom) < 1e-12

    def test_pd_degenerate(self):
        g = qgames.prisoners_dilemma_payoffs()
        result = cgame.mixed_nash_2x2(g)
        assert not result.interior
        assert result.pure_equilibria == ((1, 1),)
        # grid-search oracle: no interior profile is a joint best response
        grid = np.linspace(0.05, 0.95, 19)
        for p, q in itertools.product(grid, grid):
            pa = MixedStrategy([p, 1 - p])
            pb = MixedStrategy([q, 1 - q])
            base_a, base_b = cgame.expected_payoff(g, pa, pb)
            best_a = max(cgame.expected_payoff(g, MixedStrategy.pure(i, 2), pb)[0] for i in range(2))
            best_b = max(cgame.expected_payoff(g, pa, MixedStrategy.pure(j, 2))[1] for j in range(2))
            assert best_a > base_a + 1e-9 or best_b > base_b + 1e-9


class TestZeroSum:
    def test_matching_pennies(self):
        g = Bimatrix.zero_sum(["H", "T"], ["H", "T"], [[1, -1], [-1, 1]])
        value, pa, pb = cgame.zero_sum_value_2x2(g)
        assert abs(value) < 1e-12
        assert np.allclose(pa.probs, [0.5, 0.5])
        assert np.allclose(pb.probs, [0.5, 0.5])

    def test_asymmetric_game(self):
        g = Bimatrix.zero_sum(["a", "b"], ["x", "y"], [[2, 0], [0, 1]])
        value, pa, pb = cgame.zero_sum_value_2x2(g)
        assert abs(value - 2 / 3) < 1e-12
        assert np.allclose(pa.probs, [1 / 3, 2 / 3])
        # independent check: fine-grid maximin
        grid = np.linspace(0, 1, 2001)
        payoff = np.minimum(2 * grid, 0 * grid + (1 - grid))
        assert abs(payoff.max() - value) < 1e-3

    def test_saddle_point(self):
        g = Bimatrix.zero_sum(["a", "b"], ["x", "y"], [[2, 1], [0, -1]])
        value, pa, pb = cgame.zero_sum_value_2x2(g)
        assert value == 1.0
        assert np.allclose(pa.probs, [1, 0]) and np.allclose(pb.probs, [0, 1])

    def test_spin_flip_reduction(self):
        # the four Bob move-pair columns collapse to the two distinct ones
        full = spin_flip_payoff_table()
        assert np.array_equal(full.payoff_row[:, 0], full.payoff_row[:, 3])
        assert np.array_equal(full.payoff_row[:, 1], full.payoff_row[:, 2])
        reduced = Bimatrix.zero_sum(["1", "X"], ["keep", "flip"], full.payoff_row[:, :2])
        value, pa, pb = cgame.zero_sum_value_2x2(reduced)
        assert abs(value) < 1e-12
        assert np.allclose(pa.probs, [0.5, 0.5]) and np.allclose(pb.probs, [0.5, 0.5])

    def test_non_zero_sum_rejected(self):
        with pytest.raises(DomainError):
            cgame.zero_sum_value_2x2(qgames.prisoners_dilemma_payoffs())


class TestRepeatedPayoffs:
    def test_three_games_fair_coin(self):
        dist = cgame.repeated_payoff_distribution(3, 0.5)
        assert [pay for pay, _ in dist] == [-3, -1, 1, 3]
        assert np.allclose([p for _, p in dist], [1 / 8, 3 / 8, 3 / 8, 1 / 8])

    def test_single_game(self):
        assert cgame.repeated_payoff_distribution(1, 0.3) == [(-1, 0.7), (1, 0.3)]

    def test_fair_expectation_any_length(self):
        for n in range(1, 12):
            dist = cgame.repeated_payoff_distribution(n, 0.5)
            assert abs(sum(pay * p for pay, p in dist)) < 1e-12

    def test_probabilities_sum_to_one(self):
        for n in range(1, 31):
            dist = cgame.repeated_payoff_distribution(n, 0.37)
            assert abs(sum(p for _, p in dist) - 1.0) < 1e-12


class TestESS:
    def test_pd_defect_is_ess(self):
        g = qgames.prisoners_dilemma_payoffs()
        result = cgame.ess_test(g, incumbent=1, mutant=0, eta=0.2)
        assert result.stable
        assert result.invasion_barrier > 0.999

    def test_small_eta_matches_best_response(self, gen):
        for _ in range(50):
            a = gen.integers(-3, 6, size=(3, 3)).astype(float)
            g = Bimatrix(["0", "1", "2"], ["0", "1", "2"], a, a.T)
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    result = cgame.ess_test(g, i, j, eta=1e-7)
                    if a[i, i] > a[j, i]:
                        assert result.stable
                    if a[i, i] < a[j, i]:
                        assert not result.stable

    @pytest.mark.parametrize("incumbent, mutant", [(-1, 0), (0, 2), (5, 0), (1.5, 0), (0, True)])
    def test_moves_outside_the_game_rejected(self, incumbent, mutant):
        with pytest.raises(DomainError):
            cgame.ess_test(qgames.prisoners_dilemma_payoffs(), incumbent, mutant, eta=0.2)

    def test_asymmetric_rejected(self):
        g = Bimatrix(["a", "b"], ["x", "y"], [[1, 2], [3, 4]], [[0, 0], [0, 0]])
        with pytest.raises(DomainError):
            cgame.ess_test(g, 0, 1, 0.1)

    def test_barrier_bisection(self):
        # gap flips sign at eta = 0.5 for this hand-built game
        a = np.array([[2.0, 0.0], [1.0, 3.0]])
        g = Bimatrix(["i", "j"], ["i", "j"], a, a.T)
        result = cgame.ess_test(g, 0, 1, eta=0.1)
        assert result.stable
        assert abs(result.invasion_barrier - 0.25) < 1e-5  # (2-1)/(2-1+3-0)

    def test_barrier_is_the_root_of_the_linear_gap(self, gen):
        def barrier(a):
            g = Bimatrix(["i", "j"], ["i", "j"], a, a.T)
            return cgame.ess_test(g, 0, 1, eta=0.5).invasion_barrier

        assert barrier(np.array([[2.0, 0.0], [1.0, 3.0]])) == 0.25
        assert barrier(np.array([[1.0, 2.0], [1.0, 1.0]])) == 1.0  # d0 = 0 < d1: never invaded
        assert barrier(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0  # a neutral mutant
        assert barrier(np.array([[0.0, 5.0], [1.0, 0.0]])) == 0.0  # d0 < 0
        for _ in range(200):
            a = gen.integers(-3, 6, size=(2, 2)).astype(float)
            b = barrier(a)
            gap = lambda s: (1 - s) * (a[0, 0] - a[1, 0]) + s * (a[0, 1] - a[1, 1])  # noqa: E731
            assert 0.0 <= b <= 1.0
            inside = np.linspace(0, 1, 50)[1:-1]  # shares strictly between 0 and 1
            assert all(gap(s) > 0 for s in inside if s < b)
            assert b == 1.0 or gap(b + 1e-9) <= 0


class TestCore:
    def test_pseudo_telepathy_probability_vectors(self, gen):
        game = CharacteristicGame(4, {(0, 1, 2, 3): 1.0})
        for _ in range(20):
            allocation = gen.dirichlet(np.ones(4))
            assert cgame.core_check(game, Imputation(allocation))

    def test_efficiency_violation(self):
        game = CharacteristicGame(3, {(0, 1, 2): 1.0})
        assert not cgame.core_check(game, Imputation([0.3, 0.3, 0.3]))

    def test_empty_core_game(self):
        # v({0,1}) = 2 exceeds v(N) = 1: no allocation can satisfy both
        game = CharacteristicGame(3, {(0, 1): 2.0, (0, 1, 2): 1.0})
        steps = np.linspace(0, 1, 21)
        for x in steps:
            for y in steps:
                if x + y > 1:
                    continue
                imp = Imputation([x, y, 1 - x - y])
                assert not cgame.core_check(game, imp)

    def test_empty_coalition_must_be_zero(self):
        with pytest.raises(DomainError):
            CharacteristicGame(2, {(): 1.0})

    @pytest.mark.parametrize("subset", [(-1,), (0, -1), (2,), 4])
    def test_players_outside_the_game_rejected(self, subset):
        with pytest.raises(DomainError):
            CharacteristicGame(2, {subset: 1.0})

    @pytest.mark.parametrize("subset", [(10**8,), (0, 10**8), (10**5000,), 10**5000],
                             ids=["player-10^8", "second-player-10^8", "player-10^5000",
                                  "mask-10^5000"])
    def test_huge_player_refused_before_the_shift(self, subset):
        # 1 << 10**8 alone would take 12 MiB; the range check comes first, and
        # the message prints a huge index short
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="out of range for 3 players") as exc:
                CharacteristicGame(3, {subset: 1.0})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(str(exc.value)) < 200
