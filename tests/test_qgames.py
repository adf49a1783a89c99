import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_state
from qugame import density, qgames, qstate
from qugame.cgame import MixedStrategy
from qugame.errors import DomainError, ResourceError
from qugame.qstate import StateVector
from qugame.rng import RandomSource

SQ2 = math.sqrt(2.0)
I2, X, H, Z = (qstate.identity(2), qstate.pauli_x(), qstate.hadamard(), qstate.pauli_z())

# bit parity of every index below 2^8
PARITY = np.array([bin(i).count("1") % 2 for i in range(1 << 8)])


def promise_inputs(n: int):
    """Every bit string of length n with an even number of ones."""
    return [x for x in itertools.product((0, 1), repeat=n) if sum(x) % 2 == 0]


def dense_telepathy_probs(x) -> np.ndarray:
    """Outcome law of the parity game's circuit in plain numpy: GHZ, diag(1, i)
    on each qubit with x_i = 1, H on every qubit, Born weights."""
    n = len(x)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1 / SQ2
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # leftmost first
    amps *= np.array([1, 1j, -1, -1j])[(bits @ np.array(x)) % 4]
    h = np.array([[1, 1], [1, -1]]) / SQ2
    walsh = np.ones((1, 1))
    for _ in range(n):
        walsh = np.kron(walsh, h)
    return np.abs(walsh @ amps) ** 2


class TestSpinFlip:
    def test_bob_flips_first(self):
        report = qgames.spin_flip_play(X, I2, I2, rng=RandomSource(0))
        assert report.outcome == "d"
        assert report.payoffs == {"Alice": 1.0, "Bob": -1.0}

    def test_nobody_moves(self):
        report = qgames.spin_flip_play(I2, I2, I2, rng=RandomSource(0))
        assert report.outcome == "u"
        assert report.payoffs["Alice"] == -1.0

    def test_hadamard_sandwich_beats_any_alice(self):
        for alice in (I2, X):
            report = qgames.spin_flip_play(H, alice, H, rng=RandomSource(0))
            assert report.outcome == "u"
            assert abs(report.probabilities["u"] - 1.0) < 1e-12

    def test_transcript_replays_probabilities(self):
        report = qgames.spin_flip_play(H, X, H, rng=RandomSource(0))
        last_state = next(
            e["state"] for e in reversed(report.transcript) if "state" in e
        )
        amps = np.array([complex(re, im) for re, im in last_state])
        probs = np.abs(amps) ** 2
        assert abs(probs[0] - report.probabilities["u"]) < 1e-9
        assert abs(probs[1] - report.probabilities["d"]) < 1e-9


class TestSpinFlipExpected:
    def test_superposed_initial_is_fair(self):
        initial = StateVector([2], [1 / SQ2, 1 / SQ2])
        for bob in itertools.product((I2, X), repeat=2):
            for p in (0.0, 0.25, 1.0):
                value = qgames.spin_flip_expected(MixedStrategy([p, 1 - p]), bob, initial)
                assert abs(value) < 1e-12

    def test_cheating_with_d_changes_nothing_on_average(self):
        down = qstate.basis_state([2], [1])
        for bob in itertools.product((I2, X), repeat=2):
            value = qgames.spin_flip_expected(MixedStrategy([0.5, 0.5]), bob, down)
            assert abs(value) < 1e-12


class TestGuessANumber:
    def test_variant_one_bound(self):
        for n in range(1, 9):
            report = qgames.guess_number_game("I", n, 0)
            assert report.probabilities["win"] >= 1 - 1 / (1 << n) - 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_variant_two_exhaustive(self, n):
        for a in range(1 << n):
            report = qgames.guess_number_game("II", n, a)
            assert report.probabilities["win"] == 1.0
            assert report.params["oracle_calls"] == 1

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            qgames.guess_number_game("III", 2, 1)


def ewl_replay(ua, ub, payoffs):
    """Oracle: the EWL protocol gate by gate, entangler to disentangler."""
    entangler = qgames.ewl_entangler()
    state = qstate.basis_state([2, 2], [0, 0])
    state = qstate.apply(state, entangler)
    state = qstate.apply(state, ua, [0])
    state = qstate.apply(state, ub, [1])
    state = qstate.apply(state, entangler.dagger())
    probs = state.probabilities()
    pay_a = sum(probs[2 * i + j] * payoffs.payoff_row[i, j] for i in range(2) for j in range(2))
    pay_b = sum(probs[2 * i + j] * payoffs.payoff_col[i, j] for i in range(2) for j in range(2))
    return pay_a, pay_b, state


class TestEWL:
    def test_entangler_unitary(self):
        u = qgames.ewl_entangler()
        assert np.allclose((u.dagger() @ u).entries, np.eye(4), atol=1e-12)

    def test_probabilities_sum_to_one(self, gen):
        from conftest import haar_unitary

        pd = qgames.prisoners_dilemma_payoffs()
        for _ in range(20):
            ua = haar_unitary(2, gen)
            ub = haar_unitary(2, gen)
            _, _, state = qgames.ewl_play(ua, ub, pd)
            assert abs(state.probabilities().sum() - 1.0) < 1e-10

    def test_classical_moves_reproduce_classical_pd(self):
        pd = qgames.prisoners_dilemma_payoffs()
        table = qgames.ewl_table(qgames.move_set("I,X"), pd)
        assert np.allclose(table.payoff_row, pd.payoff_row, atol=1e-10)
        assert np.allclose(table.payoff_col, pd.payoff_col, atol=1e-10)

    def test_bos_parameter_validation(self):
        with pytest.raises(DomainError):
            qgames.battle_of_sexes_payoffs(2, 2, 1)

    def test_unknown_move_label(self):
        with pytest.raises(DomainError):
            qgames.move_set("I,Q")

    @pytest.mark.parametrize("labels", ["", ",", " , ", []])
    def test_empty_move_set(self, labels):
        with pytest.raises(DomainError):
            qgames.move_set(labels)
        with pytest.raises(DomainError):
            qgames.MoveSet((), ())

    def test_table_rejects_two_qubit_move(self):
        with pytest.raises(DomainError):
            qgames.ewl_table(qgames.move_set("I,CNOT"), qgames.prisoners_dilemma_payoffs())

    def test_move_count_is_capped_before_the_kernel(self):
        pd = qgames.prisoners_dilemma_payoffs()
        assert qgames.ewl_table(qgames.move_set(["H"] * 512), pd).shape == (512, 512)
        moves = qgames.move_set(["H"] * 513)  # 4 * 513^2 amplitudes, 16 MiB in the kernel
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=r"^EWL table amplitudes 1052676 exceeds cap 2\^20$"):
                qgames.ewl_table(moves, pd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 10

    @pytest.mark.parametrize("bad", [(math.inf, 2, 1), (3, 2, -math.inf), (math.nan, 2, 1)])
    def test_bos_parameters_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            qgames.battle_of_sexes_payoffs(*bad)

    @pytest.mark.parametrize("size", range(1, 7))
    @pytest.mark.parametrize("game", ["pd", "bos"])
    def test_batched_table_and_play_match_replay(self, size, game):
        from conftest import haar_unitary

        gen = np.random.default_rng(1000 * size + len(game))
        payoffs = (qgames.prisoners_dilemma_payoffs() if game == "pd"
                   else qgames.battle_of_sexes_payoffs(5.0, 2.0, 0.5))
        gates = tuple(haar_unitary(2, gen) for _ in range(size))
        moves = qgames.MoveSet(tuple(f"U{k}" for k in range(size)), gates)
        table = qgames.ewl_table(moves, payoffs)
        for i, ua in enumerate(gates):
            for j, ub in enumerate(gates):
                pay_a, pay_b, state = ewl_replay(ua, ub, payoffs)
                assert abs(table.payoff_row[i, j] - pay_a) < 1e-12
                assert abs(table.payoff_col[i, j] - pay_b) < 1e-12
                play_a, play_b, play_state = qgames.ewl_play(ua, ub, payoffs)
                assert abs(play_a - pay_a) < 1e-12 and abs(play_b - pay_b) < 1e-12
                assert play_state.dims == (2, 2)
                assert np.abs(play_state.amps - state.amps).max() < 1e-12


class TestNewcomb:
    def test_flip_branch_is_global_phase_only(self):
        # the sigma_x branch alone ends in -|11>, the same physical state
        state = qstate.basis_state([2, 2], [1, 1])
        state = qstate.apply(state, H, [0])
        state = qstate.apply(state, X, [0])
        state = qstate.apply(state, H, [0])
        assert np.allclose(state.amps, [0, 0, 0, -1], atol=1e-12)
        assert qstate.equal_up_to_phase(state, qstate.basis_state([2, 2], [1, 1]))

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            qgames.newcomb_play(2, 0.5)
        with pytest.raises(DomainError):
            qgames.newcomb_play(0, 1.5)


class TestCardGame:
    def test_query_reveals_deal(self):
        report = qgames.card_game_round((0, 1, 1), draw=2, rng=RandomSource(0))
        assert any("(0, 1, 1)" in e.get("operation", "") for e in report.transcript)

    def test_withdraw_on_minority_mark(self):
        # deal (0,1,0): majority circle; card 1 shows the lone dot
        report = qgames.card_game_round((0, 1, 0), draw=1, rng=RandomSource(0))
        assert report.outcome == "withdraw"
        assert report.payoffs == {"Alice": 0.0, "Bob": 0.0}

    def test_drawing_the_mixed_card_wins(self):
        report = qgames.card_game_round((0, 1, 0), draw=2, rng=RandomSource(0))
        assert report.outcome == "bob-wins"
        assert report.payoffs["Bob"] == 1.0

    def test_drawing_the_matching_pair_loses(self):
        report = qgames.card_game_round((0, 1, 0), draw=0, rng=RandomSource(0))
        assert report.outcome == "alice-wins"
        assert report.payoffs["Bob"] == -1.0

    def test_illegal_deal(self):
        with pytest.raises(DomainError):
            qgames.card_game_round((1, 1, 0), draw=0, rng=RandomSource(0))

    @pytest.mark.parametrize("b", [0, 1])
    def test_query_gate_is_the_per_card_product(self, b):
        """The deal's one 8x8 gate is H U_k H applied card by card, in order."""
        h = qstate.hadamard().entries
        product = np.eye(8)
        for k, bit in enumerate((0, 1, b)):
            for gate in (h, qstate.phase_gate(bit).entries, h):
                factors = [np.eye(2)] * 3
                factors[k] = gate
                product = np.kron(np.kron(factors[0], factors[1]), factors[2]) @ product
        assert np.abs(qgames._CARD_QUERY[b].entries - product).max() <= 1e-15

    @pytest.mark.parametrize("draw", [0, 1, 2])
    @pytest.mark.parametrize("b", [0, 1])
    def test_round_reveals_the_deal(self, b, draw):
        report = qgames.card_game_round((0, 1, b), draw=draw, rng=RandomSource(draw))
        prepared, queried, read = report.transcript[:3]
        assert prepared["operation"] == "prepare query register |000>"
        assert queried["operation"] == "apply H U_k H per card"
        assert read == {"actor": "Bob", "operation": f"read up-faces {(0, 1, b)}"}
        amps = np.array(queried["state"])  # [re, im] rows: the basis state |01b>
        assert np.array_equal(np.hypot(*amps.T), np.eye(8)[0b010 + b])


class TestPseudoTelepathy:
    def test_all_zero_inputs(self):
        y, win = qgames.pseudo_telepathy_round((0, 0, 0), rng=RandomSource(1))
        assert win and sum(y) % 2 == 0

    def test_two_ones(self):
        y, win = qgames.pseudo_telepathy_round((1, 1, 0), rng=RandomSource(1))
        assert win and sum(y) % 2 == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_always_wins_exhaustive(self, n):
        for bits in range(1 << n):
            x = [(bits >> i) & 1 for i in range(n)]
            if sum(x) % 2:
                continue
            for seed in (0, 1, 2):
                _, win = qgames.pseudo_telepathy_round(x, rng=RandomSource(seed))
                assert win

    def test_output_parity_distribution(self):
        # every measurement branch carries the winning parity
        x = (1, 1, 0, 0)
        state = qstate.bell_basis(4)[0]
        for i, bit in enumerate(x):
            if bit:
                state = qstate.apply(state, qstate.quarter_phase(), [i])
        for i in range(4):
            state = qstate.apply(state, H, [i])
        probs = state.probabilities()
        want = (sum(x) // 2) % 2
        for idx in range(16):
            if probs[idx] > 1e-12:
                assert bin(idx).count("1") % 2 == want

    def test_promise_enforced(self):
        with pytest.raises(DomainError):
            qgames.pseudo_telepathy_round((1, 0, 0), rng=RandomSource(0))

    def test_player_cap(self):
        from qugame.errors import ResourceError

        cap = qgames.PSEUDO_TELEPATHY_CAP
        assert qgames.pseudo_telepathy_round((1, 1) + (0,) * (cap - 2), rng=RandomSource(0))[1]
        with pytest.raises(ResourceError):
            qgames.pseudo_telepathy_round((0,) * (cap + 1), rng=RandomSource(0))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_law_matches_dense_circuit(self, n):
        # the closed form, 2/2^N on the winning parity class, against the circuit
        for x in promise_inputs(n):
            want = (sum(x) // 2) % 2
            law = np.where(PARITY[:1 << n] == want, 2.0 / (1 << n), 0.0)
            assert np.abs(dense_telepathy_probs(x) - law).max() <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_round_draws_what_the_dense_search_draws(self, n):
        # one uniform, the same outcome a search of the circuit's cumulative table picks
        for x in promise_inputs(n):
            probs = dense_telepathy_probs(x)
            for seed in (0, 1, 2):
                index = RandomSource(seed).choice(probs)
                y, win = qgames.pseudo_telepathy_round(x, rng=RandomSource(seed))
                assert win and y == qstate.index_to_digits((2,) * n, index)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_force_selects_exactly_the_winning_class(self, n):
        for x in promise_inputs(n):
            probs = dense_telepathy_probs(x)
            for index in range(1 << n):
                if probs[index] > 1e-12:
                    y, win = qgames.pseudo_telepathy_round(x, force=index)
                    assert win and y == qstate.index_to_digits((2,) * n, index)
                else:
                    with pytest.raises(DomainError):
                        qgames.pseudo_telepathy_round(x, force=index)
        for index in (-1, 1 << n):
            with pytest.raises(DomainError):
                qgames.pseudo_telepathy_round((0,) * n, force=index)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_samples_chi_square(self, n):
        # Pearson's statistic over the 2^(N-1) winning outputs, 400 rounds per
        # output on a fixed seed, against its 1 - 1e-6 quantile (Wilson-Hilferty):
        # a correct sampler fails with probability about 1e-6 per N.
        x = (1, 1) + (0,) * (n - 2)
        cells = 1 << (n - 1)
        counts = np.zeros(cells)
        rng = RandomSource(100 + n)
        for _ in range(400 * cells):
            y, win = qgames.pseudo_telepathy_round(x, rng=rng)
            assert win
            counts[qstate.digits_to_index((2,) * (n - 1), y[:-1])] += 1
        chi2 = float(((counts - 400) ** 2).sum() / 400)
        df = cells - 1
        quantile = df * (1 - 2 / (9 * df) + 4.7534 * math.sqrt(2 / (9 * df))) ** 3
        assert chi2 < quantile

    def test_induced_characteristic_game(self):
        game = qgames.pseudo_telepathy_game(3)
        assert game.value((0, 1, 2)) == 1.0
        assert game.value((0, 1)) == 0.0


class TestTeleport:
    def test_zero_state_every_branch(self):
        psi = qstate.basis_state([2], [0])
        for k in range(4):
            report = qgames.teleport(psi, force=k)
            assert abs(report.params["recovery_fidelity"] - 1.0) < 1e-12

    def test_random_states_all_branches(self, gen):
        for _ in range(25):
            psi = random_state((2,), gen)
            for k in range(4):
                report = qgames.teleport(psi, force=k)
                assert abs(report.params["recovery_fidelity"] - 1.0) < 1e-9

    def test_sampled_branch_probability(self):
        psi = StateVector([2], [0.28, math.sqrt(1 - 0.28**2) * 1j])
        report = qgames.teleport(psi, rng=RandomSource(8))
        assert abs(report.probabilities[report.outcome] - 0.25) < 1e-12


class TestSecretSharingQubit:
    def test_all_branches_recover(self, gen):
        for _ in range(10):
            secret = random_state((2,), gen)
            for bell_k in range(4):
                for bob_s in range(2):
                    report = qgames.secret_share_qubit(secret, force=(bell_k, bob_s))
                    assert abs(report.params["recovery_fidelity"] - 1.0) < 1e-9

    def test_branch_probabilities(self):
        secret = StateVector([2], [0.6, 0.8])
        report = qgames.secret_share_qubit(secret, force=(2, 0))
        assert abs(report.probabilities["bell"] - 0.25) < 1e-12
        assert abs(report.probabilities["bob"] - 0.5) < 1e-12

    def test_ghz_shares_fully_mixed(self):
        ghz = qstate.bell_basis(3)[0]
        rho = density.DensityMatrix.from_state(ghz)
        for share in range(3):
            reduced = density.partial_trace(rho, (2, 2, 2), keep=(share,))
            assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12


class TestSecretSharingQutrit:
    def test_trivial_secret(self):
        report = qgames.secret_share_qutrit(qstate.basis_state([3], [0]), "alice,bob")
        assert abs(report.params["recovery_fidelity"] - 1.0) < 1e-12

    def test_every_pair_recovers_random_secret(self, gen):
        expected_recoverer = {
            "alice,bob": "alice",
            "bob,gerald": "bob",
            "alice,gerald": "gerald",
        }
        for _ in range(5):
            secret = random_state((3,), gen)
            for pair, who in expected_recoverer.items():
                report = qgames.secret_share_qutrit(secret, pair)
                assert report.params["recoverer"] == who
                assert abs(report.params["recovery_fidelity"] - 1.0) < 1e-9
                assert max(report.params["share_mixedness_deviation"]) < 1e-9

    def test_share_reduced_density_is_third_identity(self, gen):
        secret = random_state((3,), gen)
        encoded = qgames.encode_qutrit_secret(secret)
        rho = density.DensityMatrix.from_state(encoded)
        for share in range(3):
            reduced = density.partial_trace(rho, (3, 3, 3), keep=(share,))
            assert np.abs(reduced.entries - np.eye(3) / 3).max() < 1e-9

    def test_bad_pair(self):
        with pytest.raises(DomainError):
            qgames.secret_share_qutrit(qstate.basis_state([3], [0]), "alice,alice")


class TestReportSerialization:
    def test_json_round_trip_keys(self):
        report = qgames.teleport(StateVector([2], [0.6, 0.8]), rng=RandomSource(0))
        data = report.to_json_dict()
        assert set(data) == {"game", "params", "transcript", "outcome", "payoffs", "probabilities"}

    def test_transcript_states_are_pairs(self):
        report = qgames.spin_flip_play(X, I2, I2, rng=RandomSource(0))
        states = [e["state"] for e in report.transcript if "state" in e]
        assert states and all(len(pair) == 2 for entry in states for pair in entry)
