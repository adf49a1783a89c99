"""Acceptance gate: every row of the golden table, then the sweeps that are not goldens.

`pytest tests/test_acceptance.py -v` lists one `test_golden[<name>]` per row of
`qugame.verify.GOLDENS`, the table that `qugame verify` runs; each expected
number is stated only there.  The criterion tests below check properties over
many random or exhaustive inputs.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import GOLDEN, haar_unitary, random_state
from qugame import cgame, density, qalgo, qgames, qstate, verify
from qugame.cgame import Bimatrix, Imputation, MixedStrategy
from qugame.errors import DomainError
from qugame.rng import RandomSource

GOLDEN_NAMES = [
    "register-index", "tensor-product", "walsh-matrices", "walsh-signs-on-110",
    "pauli-algebra", "spin-flip-tables", "hadamard-always-wins", "grover-operators",
    "grover-amplitudes", "grover-large-k", "bernstein-vazirani", "euler-halving",
    "rsa-game", "qft", "bell-states", "ewl-entangler", "pd-ewl-play", "pd-three-move-grid",
    "pd-four-move-grid", "pd-classical", "bos-mixed-equilibrium", "bos-four-move-grid",
    "newcomb", "ess-invasion", "card-query", "card-fairness", "pseudo-telepathy",
    "pseudo-telepathy-core", "teleport", "secret-sharing-qubit", "secret-sharing-qutrit",
    "density-ensemble", "bloch-sphere", "mle-estimate", "discrimination-cost", "uqcm-clone",
]


@pytest.mark.parametrize("golden", verify.GOLDENS, ids=lambda g: g.name)
def test_golden(golden):
    start = time.perf_counter()
    verify.check(golden)
    assert time.perf_counter() - start < 1.0


def test_golden_names_keep_their_order():
    # `qugame verify` prints these names; scripts and its JSON consumers rely on them
    assert [g.name for g in verify.GOLDENS] == GOLDEN_NAMES


def nudged(expected, tol):
    """expected with its first leaf moved by 100 * tol + 1e-6, or flipped if it is a bool."""
    if isinstance(expected, dict):
        key = next(iter(expected))
        return {**expected, key: nudged(expected[key], tol[key] if isinstance(tol, dict) else tol)}
    leaf = np.array(expected)
    if leaf.dtype == bool:
        leaf.reshape(-1)[0] ^= True
    else:
        leaf = leaf.astype(complex)
        leaf.reshape(-1)[0] += 100 * tol + 1e-6
    return leaf


def test_every_row_fails_when_its_expected_value_moves():
    vacuous = []
    for golden in verify.GOLDENS:
        try:
            verify.check(dataclasses.replace(golden, expected=nudged(golden.expected, golden.tol)))
        except AssertionError:
            continue
        vacuous.append(golden.name)
    assert vacuous == []


def test_nan_never_matches():
    nan = float("nan")
    for actual, expected in ((nan, 1.0), ([nan, 0.6], [-0.8, 0.6]), ({"x": nan}, {"x": nan})):
        with pytest.raises(AssertionError):
            verify.match(actual, expected, 1.0)
    row = verify.Golden("nan-row", lambda pd: {"p": nan}, {"p": 0.5}, 1e-9)
    with pytest.raises(AssertionError, match="p: max deviation nan"):
        verify.check(row)


def test_match_names_the_failing_key_and_checks_shapes():
    with pytest.raises(AssertionError, match="b: max deviation"):
        verify.match({"a": 1.0, "b": [1, 2]}, {"a": 1.0, "b": [1, 3]}, 1e-12)
    with pytest.raises(AssertionError, match="keys"):
        verify.match({"a": 1.0}, {"a": 1.0, "b": 2.0}, 1e-12)
    with pytest.raises(AssertionError, match="shape"):
        verify.match([(3, 3)], [], 1e-12)


def test_criterion_3_bernstein_vazirani():
    """Bernstein-Vazirani: exact recovery with one oracle call, every a for n <= 5."""
    for n in range(1, 6):
        for a in range(1 << n):
            calls = []
            phases = 1.0 - 2.0 * np.array(
                [bin(x & a).count("1") % 2 for x in range(1 << n)]
            )

            def oracle(amps, phases=phases, calls=calls):
                calls.append(1)
                return amps * phases

            assert qalgo.bernstein_vazirani(n, a, oracle=oracle) == a
            assert len(calls) == 1


def test_criterion_4_shor_rsa():
    """At least 90% of the order candidates for (77, 39) divide its order 30."""
    start = time.perf_counter()
    rng = RandomSource(42)
    samples = 10_000
    dividing = 0
    for _ in range(samples):
        s = qalgo.order_find(77, 39, rng)
        if s.candidate_den > 0 and 30 % s.candidate_den == 0:
            dividing += 1
    assert dividing / samples >= 0.90
    assert time.perf_counter() - start < 30.0


def test_criterion_5_classical_tables():
    """The BoS mixed-equilibrium closed forms hold on random (alpha, beta, gamma)."""
    gen = np.random.default_rng(5)
    for _ in range(20):
        gamma = float(gen.uniform(0, 3))
        beta = gamma + float(gen.uniform(0.05, 3))
        alpha = beta + float(gen.uniform(0.05, 3))
        game = qgames.battle_of_sexes_payoffs(alpha, beta, gamma)
        a, b = cgame.nash_equilibria(game)[-1]  # the full-support mix comes last
        payoffs = cgame.expected_payoff(game, a, b)
        denom = alpha + beta - 2 * gamma
        assert abs(a.probs[0] - (alpha - gamma) / denom) <= 1e-12
        assert abs(b.probs[0] - (beta - gamma) / denom) <= 1e-12
        assert abs(payoffs[0] - (alpha * beta - gamma**2) / denom) <= 1e-12
        assert abs(payoffs[1] - payoffs[0]) <= 1e-12


def test_criterion_8_pseudo_telepathy():
    """Pseudo-telepathy always wins (N = 2..6, 100 seeds); random allocations lie in its core."""
    for n in range(2, 7):
        for bits in range(1 << n):
            x = [(bits >> i) & 1 for i in range(n)]
            if sum(x) % 2:
                continue
            for seed in range(100):
                _, win = qgames.pseudo_telepathy_round(x, rng=RandomSource(seed))
                assert win, f"lost at N={n}, x={x}, seed={seed}"
    game = qgames.pseudo_telepathy_game(5)
    gen = np.random.default_rng(8)
    for _ in range(50):
        allocation = gen.dirichlet(np.ones(5))
        assert cgame.core_check(game, Imputation(allocation))


def test_criterion_9_teleport_and_sharing():
    """Teleportation and secret sharing recover random states on every branch."""
    gen = np.random.default_rng(9)
    for _ in range(100):
        psi = random_state((2,), gen)
        for k in range(4):
            report = qgames.teleport(psi, force=k)
            assert abs(report.params["recovery_fidelity"] - 1.0) <= 1e-9
    for _ in range(10):
        secret = random_state((2,), gen)
        for bell_k in range(4):
            for bob_s in range(2):
                report = qgames.secret_share_qubit(secret, force=(bell_k, bob_s))
                assert abs(report.params["recovery_fidelity"] - 1.0) <= 1e-9
    for _ in range(10):
        secret3 = random_state((3,), gen)
        for pair in ("alice,bob", "bob,gerald", "alice,gerald"):
            report = qgames.secret_share_qutrit(secret3, pair)
            assert abs(report.params["recovery_fidelity"] - 1.0) <= 1e-9
            assert max(report.params["share_mixedness_deviation"]) <= 1e-9
        encoded = qgames.encode_qutrit_secret(secret3)
        rho = density.DensityMatrix.from_state(encoded)
        for share in range(3):
            reduced = density.partial_trace(rho, (3, 3, 3), keep=(share,))
            assert np.abs(reduced.entries - np.eye(3) / 3).max() <= 1e-9


def test_criterion_10_density_estimation():
    """The Bernoulli MLE is at least as likely as the best of a 20,001-point grid."""
    gen = np.random.default_rng(10)
    grid = np.linspace(-1.0, 1.0, 20_001)
    for _ in range(100):
        n_a = int(gen.integers(0, 60))
        n_b = int(gen.integers(0, 60))
        if n_a + n_b == 0:
            n_b = 1
        estimate = density.mle_bernoulli(n_a, n_b)
        grid_best = max(density.bloch_likelihood(r, n_a, n_b) for r in grid)
        assert density.bloch_likelihood(estimate.r_z, n_a, n_b) >= grid_best - 1e-12


def test_criterion_11_cloning():
    """UQCM: the worked fidelity and Bloch shrink hold on 1000 random inputs."""
    clone = GOLDEN["uqcm-clone"].expected
    gen = np.random.default_rng(11)
    for _ in range(1000):
        psi = random_state((2,), gen)
        result = density.uqcm_clone(psi)
        assert abs(result.fidelity - clone["fidelity"][0]) <= 1e-9
        assert abs(result.eta - clone["eta"][0]) <= 1e-9


def test_criterion_12_property_suites():
    """Unitarity, norm preservation, bilinearity, a Nash oracle and the Walsh sign oracle."""
    gen = np.random.default_rng(12)
    # unitarity and norm preservation
    named = [
        qstate.pauli_x(), qstate.pauli_y(), qstate.pauli_z(), qstate.hadamard(),
        qstate.cnot(), qstate.quarter_phase(), qstate.phase_gate(0.31),
        qstate.walsh(3), qstate.qft(3), qgames.ewl_entangler(), qstate.controlled_add(3),
    ]
    for u in named:
        assert np.abs(u.dagger().entries @ u.entries - np.eye(u.dim)).max() <= 1e-10
    for _ in range(50):
        dims = (2, 2) if gen.uniform() < 0.5 else (2, 3)
        state = random_state(dims, gen)
        u = haar_unitary(math.prod(dims), gen)
        assert abs(np.linalg.norm(qstate.apply(state, u).amps) - 1.0) <= 1e-10
    # bilinearity of expected payoff
    for _ in range(100):
        g = Bimatrix(["0", "1", "2"], ["0", "1"],
                     gen.normal(size=(3, 2)), gen.normal(size=(3, 2)))
        p1 = MixedStrategy(gen.dirichlet(np.ones(3)))
        p2 = MixedStrategy(gen.dirichlet(np.ones(3)))
        q = MixedStrategy(gen.dirichlet(np.ones(2)))
        lam = float(gen.uniform())
        blend = MixedStrategy(lam * p1.probs + (1 - lam) * p2.probs)
        left = cgame.expected_payoff(g, blend, q)
        ra = cgame.expected_payoff(g, p1, q)
        rb = cgame.expected_payoff(g, p2, q)
        for k in range(2):
            assert abs(left[k] - (lam * ra[k] + (1 - lam) * rb[k])) <= 1e-10

    # brute-force Nash oracle equivalence on 1000 random integer games
    for _ in range(1000):
        m = int(gen.integers(1, 6))
        n = int(gen.integers(1, 6))
        a = gen.integers(-3, 6, size=(m, n)).astype(float)
        b = gen.integers(-3, 6, size=(m, n)).astype(float)
        g = Bimatrix([str(i) for i in range(m)], [str(j) for j in range(n)], a, b)
        oracle = [
            (i, j)
            for i in range(m)
            for j in range(n)
            if all(a[i, j] >= a[i2, j] for i2 in range(m))
            and all(b[i, j] >= b[i, j2] for j2 in range(n))
        ]
        assert cgame.pure_nash(g) == oracle

    # walsh sign oracle, exhaustive for n <= 6
    for n in range(1, 7):
        w = qstate.walsh(n).entries
        scale = 1.0 / math.sqrt(1 << n)
        for xx in range(1 << n):
            for yy in range(1 << n):
                sign = -1.0 if bin(xx & yy).count("1") % 2 else 1.0
                assert abs(w[xx, yy] - sign * scale) <= 1e-12


# ---------------------------------------------------------------------------
# one integer check at every public entry point: a float or a bool is refused,
# never truncated, and numpy integers pass

BELL_RHO = density.DensityMatrix.from_state(qstate.bell_basis(2)[0])
NON_INTEGER_CALLS = {
    "partial_trace-keep": lambda: density.partial_trace(BELL_RHO, (2, 2), keep=(0.9,)),
    "partial_trace-dims": lambda: density.partial_trace(BELL_RHO, (2.0, 2), keep=(0,)),
    "card-deal": lambda: qgames.card_game_round((0, 1, 0.0), draw=1),
    "card-draw": lambda: qgames.card_game_round((0, 1, 0), draw=1.9),
    "telepathy-inputs": lambda: qgames.pseudo_telepathy_round((1, 1.5, 0)),
    "game-players": lambda: cgame.CharacteristicGame(2.7, {}),
    "game-members": lambda: cgame.CharacteristicGame(2, {(0, 1.0): 1.0}),
    "game-mask": lambda: cgame.CharacteristicGame(2, {True: 1.0}),
    "seed-bool": lambda: RandomSource(True),
    "seed-float": lambda: RandomSource(1.5),
    "grover_iterations": lambda: qalgo.grover_iterations(8.0),
    "identity": lambda: qstate.identity(2.5),
    "controlled_add": lambda: qstate.controlled_add(True),
    "walsh": lambda: qstate.walsh(2.0),
    "qft": lambda: qstate.qft(True),
    "grover_operators": lambda: qalgo.grover_operators(3, 5.0),
    "grover_search": lambda: qalgo.grover_search(3.0, 5),
    "grover_search-k": lambda: qalgo.grover_search(3, 5, k=2.0),
    "bernstein_vazirani": lambda: qalgo.bernstein_vazirani(3, 5.0),
    "continued_fraction_best": lambda: qalgo.continued_fraction_best(1, 4.0, 3),
    "multiplicative_order": lambda: qalgo.multiplicative_order(2.0, 15),
    "order_find": lambda: qalgo.order_find(15.0, 2, RandomSource(0)),
    "factor_from_order": lambda: qalgo.factor_from_order(15, 2, 4.0),
    "shor_factor": lambda: qalgo.shor_factor(15.0, RandomSource(0)),
    "rsa_demo": lambda: qalgo.rsa_demo(77, 11.0, 67, RandomSource(1)),
    "bloch_likelihood": lambda: density.bloch_likelihood(0.0, 1.5, 0),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_non_integer_arguments_are_domain_errors(call):
    qalgo.multiplicative_order(2, 15)  # a cached int pair must not answer a float one
    with pytest.raises(DomainError, match="must be an integer"):
        call()


# a modulus below 2 or a negative count is refused, not looped on or divided by
OUT_OF_DOMAIN_CALLS = {
    "multiplicative_order-modulus-1": lambda: qalgo.multiplicative_order(2, 1),
    "multiplicative_order-modulus-minus-5": lambda: qalgo.multiplicative_order(2, -5),
    "factor_from_order-modulus-0": lambda: qalgo.factor_from_order(0, 2, 2),
    "bloch_likelihood-negative-count": lambda: density.bloch_likelihood(0.0, -1, 1),
}


@pytest.mark.parametrize("call", OUT_OF_DOMAIN_CALLS.values(), ids=OUT_OF_DOMAIN_CALLS.keys())
def test_out_of_domain_arguments_are_domain_errors(call):
    with pytest.raises(DomainError, match="modulus .* must be at least 2|non-negative"):
        call()


# a call that must sample names its stream: with neither rng nor force it is
# refused rather than drawn from a hidden fixed seed
PSI = qstate.StateVector([2], [0.6, 0.8])
UNSEEDED_CALLS = {
    "measure": lambda: qstate.measure(PSI),
    "card": lambda: qgames.card_game_round((0, 1, 1)),
    "card-drawn": lambda: qgames.card_game_round((0, 1, 1), draw=2),
    "pseudo_telepathy_round": lambda: qgames.pseudo_telepathy_round((1, 1, 0)),
    "teleport": lambda: qgames.teleport(PSI),
    "secret_share_qubit": lambda: qgames.secret_share_qubit(PSI),
    "spin_flip_play": lambda: qgames.spin_flip_play(*[qstate.hadamard()] * 3),
}


@pytest.mark.parametrize("call", UNSEEDED_CALLS.values(), ids=UNSEEDED_CALLS.keys())
def test_sampling_needs_rng_or_force(call):
    with pytest.raises(DomainError, match="pass rng"):
        call()


def test_numpy_integers_pass_every_entry_point():
    i = np.int64
    assert density.partial_trace(BELL_RHO, (i(2), i(2)), keep=(i(1),)).dim == 2
    card = qgames.card_game_round((i(0), i(1), i(0)), draw=i(1), rng=RandomSource(0))
    assert card.params == {"deal": [0, 1, 0], "draw": 1}
    assert qgames.pseudo_telepathy_round((i(1), i(1), i(0)), rng=RandomSource(0))[1]
    game = cgame.CharacteristicGame(i(2), {(i(0), i(1)): 1.0, i(1): 0.5})
    assert game.n_players == 2 and game.value((0, 1)) == 1.0 and game.value((0,)) == 0.5
    assert RandomSource(i(3)).seed == 3
    assert qstate.identity(i(2)).dim == 2 and qstate.controlled_add(i(3)).dim == 9
    assert qstate.walsh(i(2)).dim == 4 and qstate.qft(i(2)).dim == 4
    assert qalgo.grover_iterations(i(8)) == 2
    assert qalgo.grover_search(i(3), i(5), k=i(2)).k == 2
    assert qalgo.bernstein_vazirani(i(3), i(5)) == 5
    assert qalgo.continued_fraction_best(i(1), i(4), i(5)) == (1, 4)
    assert qalgo.multiplicative_order(i(2), i(15)) == 4
    assert density.bloch_likelihood(0.0, i(1), i(0)) == 0.5
    assert qalgo.order_find(i(15), i(2), RandomSource(0)).modulus == 15
    assert qalgo.factor_from_order(i(15), i(2), i(4)).factors == (3, 5)
    rsa = qalgo.rsa_demo(i(77), i(11), i(67), RandomSource(1))
    assert rsa.plaintext == pow(67, pow(11, -1, 60), 77)
