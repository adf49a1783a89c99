"""Golden-value checks behind the CLI `verify` subcommand.

Each check recomputes one of the golden tables or worked numbers from
scratch and compares at tight tolerance.  `pd_payoffs` is injectable so a perturbed table
makes the dependent checks fail by name (negative control).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import cgame, density, qalgo, qgames, qstate
from .cgame import Bimatrix
from .qstate import StateVector
from .rng import RandomSource


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _require(condition, message="check failed"):
    # explicit raise, not `assert`: the checks must still fail under `python -O`
    if not condition:
        raise AssertionError(message)


def _close(actual, expected, tol=1e-9):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        raise AssertionError(f"shape {actual.shape} vs {expected.shape}")
    worst = float(np.abs(actual - expected).max()) if actual.size else 0.0
    if worst > tol:
        raise AssertionError(f"max deviation {worst:.3e} > {tol:.0e}")


SQ2 = math.sqrt(2.0)

PD_GRID_THREE_MOVES = {
    "row": [[3, 0, 0.5], [5, 1, 0.5], [3, 3, 2.25]],
    "col": [[3, 5, 3], [0, 1, 3], [0.5, 0.5, 2.25]],
}
PD_GRID_FOUR_MOVES = {
    "row": [[3, 0, 0.5, 1], [5, 1, 0.5, 0], [3, 3, 2.25, 1.5], [1, 5, 4, 3]],
    "col": [[3, 5, 3, 1], [0, 1, 3, 5], [0.5, 0.5, 2.25, 4], [1, 0, 1.5, 3]],
}


def _check_register_index():
    sv = qstate.basis_state([2] * 5, "10011")
    _require(int(np.argmax(np.abs(sv.amps))) == 19, "|10011> must sit in slot 19")
    _close(sv.amps[19], 1.0)
    _require(qstate.basis_state([3, 3], [2, 1]).amps[7] == 1.0)


def _check_tensor_product():
    u = qstate.basis_state([2], [0])
    d = qstate.basis_state([2], [1])
    _close(qstate.tensor(u, d).amps, [0, 1, 0, 0])


def _check_walsh_matrices():
    w4 = qstate.walsh(2)
    _close(w4.entries, np.kron(qstate.hadamard().entries, qstate.hadamard().entries), 1e-12)
    _close(
        2.0 * w4.entries.real,
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
        1e-12,
    )
    uu = qstate.basis_state([2, 2], [0, 0])
    _close(qstate.apply(uu, w4).amps, np.full(4, 0.5), 1e-12)


def _check_walsh_signs_on_110():
    start = qstate.basis_state([2] * 3, "110")
    out = qstate.apply(start, qstate.walsh(3))
    signs = np.sign(out.amps.real)
    _close(signs, [1, 1, -1, -1, -1, -1, 1, 1], 0)
    _close(np.abs(out.amps), np.full(8, 1 / math.sqrt(8)), 1e-12)


def _check_pauli_algebra():
    x, y, z = (g().entries for g in (qstate.pauli_x, qstate.pauli_y, qstate.pauli_z))
    eye = np.eye(2)
    for sigma in (x, y, z):
        _close(sigma @ sigma, eye, 1e-12)
    _close(x @ y, 1j * z, 1e-12)
    _close(y @ z, 1j * x, 1e-12)
    _close(z @ x, 1j * y, 1e-12)


def _check_spin_flip_tables():
    # Tables II-IV: payoff to Alice for each classical move combination
    gates = {"1": qstate.identity(2), "X": qstate.pauli_x()}
    expected = {  # (bob1, alice, bob2) -> Alice's payoff
        ("1", "1", "1"): -1, ("X", "1", "1"): 1, ("1", "1", "X"): 1, ("X", "1", "X"): -1,
        ("1", "X", "1"): 1, ("X", "X", "1"): -1, ("1", "X", "X"): -1, ("X", "X", "X"): 1,
    }
    for (b1, a, b2), pay in expected.items():
        report = qgames.spin_flip_play(gates[b1], gates[a], gates[b2], rng=RandomSource(0))
        _require(report.payoffs["Alice"] == pay, f"({b1},{a},{b2}) -> {report.payoffs}")


def _check_hadamard_always_wins():
    h = qstate.hadamard()
    for p in (0.0, 0.3, 0.5, 1.0):
        value = qgames.spin_flip_expected(
            cgame.MixedStrategy([p, 1 - p]), (h, h), qstate.basis_state([2], [0])
        )
        _close(value, -1.0)


def _check_grover_operators():
    oracle, diffusion = qalgo.grover_operators(3, 5)
    expected_oracle = np.eye(8)
    expected_oracle[5, 5] = -1
    _close(oracle.entries, expected_oracle, 1e-12)
    rotation = 4.0 * (diffusion.entries @ oracle.entries).real
    expected = np.full((8, 8), 1.0) - 4.0 * np.eye(8)
    expected[:, 5] = -1.0
    expected[5, 5] = 3.0
    _close(rotation, expected, 1e-9)


def _check_grover_amplitudes():
    run = qalgo.grover_search(3, 5)
    _require(run.k == 2, f"k = {run.k}")
    one = np.full(8, 1.0)
    one[5] = 5.0
    _close(run.trajectory[1].amps, one / (4 * SQ2), 1e-9)
    two = np.full(8, -1.0)
    two[5] = 11.0
    _close(run.trajectory[2].amps, two / (8 * SQ2), 1e-9)
    _require(abs(run.success_probability - 0.9453) < 5e-5)


def _check_grover_large_k():
    _require(qalgo.grover_iterations(2**30) == 25_735)


def _check_bernstein_vazirani():
    _require(qalgo.bernstein_vazirani(3, 6) == 6)
    _require(qalgo.bernstein_vazirani(3, 0) == 0)
    report = qgames.guess_number_game("II", 4, 11)
    _require(report.params["oracle_calls"] == 1)
    _require(report.probabilities["win"] == 1.0)


def _check_euler_halving():
    _require(pow(2, 60, 77) == 1 and pow(2, 30, 77) == 1 and pow(2, 15, 77) == 43)
    _require(gcd(77, 44) == 11 and gcd(77, 42) == 7)
    outcome = qalgo.factor_from_order(77, 2, 60)
    _require(outcome.factors == (7, 11), outcome)


def _check_rsa_game():
    result = qalgo.rsa_demo(77, 11, 67, RandomSource(1))
    _require((result.p, result.q) == (7, 11))
    _require(result.phi == 60 and result.d == 11 and result.plaintext == 23)
    _require(result.rounds <= 25)
    outcome = qalgo.factor_from_order(77, 39, 30)
    _require(outcome.factors == (7, 11))
    _require(pow(39, 15, 77) - 1 == 42 and pow(39, 15, 77) + 1 == 44)


def _check_qft():
    _close(qstate.qft(1).entries, qstate.hadamard().entries, 1e-12)
    f = qstate.qft(2)
    _close((f.entries @ qstate.qft(2, inverse=True).entries), np.eye(4), 1e-12)


def _check_bell_states():
    bell = qstate.bell_basis(2)
    _close(bell[3].amps, [0, 1 / SQ2, -1 / SQ2, 0], 1e-12)
    state = qstate.basis_state([2, 2], [0, 0])
    state = qstate.apply(state, qstate.hadamard(), [0])
    state = qstate.apply(state, qstate.cnot(), [0, 1])
    _close(state.amps, bell[0].amps, 1e-12)
    ghz = qstate.bell_basis(3)[0]
    _close(ghz.amps[[0, 7]], [1 / SQ2, 1 / SQ2], 1e-12)


def _check_ewl_entangler():
    u = qgames.ewl_entangler(2)
    state = qstate.apply(qstate.basis_state([2, 2], [0, 0]), u)
    _close(state.amps, [1 / SQ2, 0, 0, 1j / SQ2], 1e-12)
    xx = qstate.tensor(qstate.pauli_x(), qstate.pauli_x())
    final = qstate.apply(qstate.apply(state, xx), u.dagger())
    _close(np.abs(final.amps) ** 2, [0, 0, 0, 1], 1e-12)


def _check_ewl_play_values(pd: Bimatrix):
    one, h = qstate.identity(2), qstate.hadamard()
    _close(qgames.ewl_play(one, one, pd)[:2], (3.0, 3.0))
    _close(qgames.ewl_play(one, h, pd)[:2], (0.5, 3.0))
    _close(qgames.ewl_play(h, h, pd)[:2], (2.25, 2.25))


def _check_pd_three_move_grid(pd: Bimatrix):
    table = qgames.ewl_table(qgames.move_set("I,X,H"), pd)
    _close(table.payoff_row, PD_GRID_THREE_MOVES["row"])
    _close(table.payoff_col, PD_GRID_THREE_MOVES["col"])


def _check_pd_four_move_grid(pd: Bimatrix):
    table = qgames.ewl_table(qgames.move_set("I,X,H,Z"), pd)
    _close(table.payoff_row, PD_GRID_FOUR_MOVES["row"])
    _close(table.payoff_col, PD_GRID_FOUR_MOVES["col"])
    _require(cgame.pure_nash(table) == [(3, 3)], "unique Nash at (Z, Z)")
    flags = cgame.pareto_analysis(table)
    _require(flags.cell(3, 3) == (False, True), "Z,Z must be Pareto optimal")


def _check_classical_pd(pd: Bimatrix):
    _require(cgame.pure_nash(pd) == [(1, 1)])
    rows, cols = cgame.dominant_moves(pd)
    _require(rows == [1] and cols == [1])
    flags = cgame.pareto_analysis(pd)
    _require(flags.cell(1, 1)[0] is True, "(1,1) jointly dominated by (3,3)")
    _require(flags.cell(0, 0) == (False, True), "(3,3) is Pareto optimal")


def _check_bos_mixed():
    alpha, beta, gamma = 3.0, 2.0, 1.0
    game = qgames.battle_of_sexes_payoffs(alpha, beta, gamma)
    _require(len(cgame.pure_nash(game)) == 2)
    result = cgame.mixed_nash_2x2(game)
    denom = alpha + beta - 2 * gamma
    _close(result.p, (alpha - gamma) / denom, 1e-12)
    _close(result.q, (beta - gamma) / denom, 1e-12)
    _close(result.payoffs[0], (alpha * beta - gamma**2) / denom, 1e-12)


def _check_bos_four_move_grid():
    alpha, beta, gamma = 3.0, 2.0, 1.0
    bos = qgames.battle_of_sexes_payoffs(alpha, beta, gamma)
    table = qgames.ewl_table(qgames.move_set("I,X,H,Z"), bos)
    _require(cgame.pure_nash(table) == [(1, 1)], "unique Nash at (X, X)")
    _close(table.cell(1, 1), (beta, alpha))
    # mixed play over the {1, sigma_z} corners equalizes the payoffs
    corner = Bimatrix(
        ["I", "Z"], ["I", "Z"],
        [[table.payoff_row[i][j] for j in (0, 3)] for i in (0, 3)],
        [[table.payoff_col[i][j] for j in (0, 3)] for i in (0, 3)],
    )
    result = cgame.mixed_nash_2x2(corner)
    _close((result.p, result.q), (0.5, 0.5))
    _close(result.payoffs, ((alpha + beta) / 2, (alpha + beta) / 2))


def _check_newcomb():
    for w in (0.0, 0.25, 0.5, 1.0):
        report = qgames.newcomb_play(0, w)
        _close(report.probabilities["|00>"], 1.0)
        _close(report.payoffs["Alice"], 1_000_000.0)
        report = qgames.newcomb_play(1, w)
        _close(report.probabilities["|11>"], 1.0)
        _close(report.payoffs["Alice"], 1_000.0)
        shorthand = qgames.newcomb_play(1, w, coherent_shorthand=True)
        _close(shorthand.params["coherent_coefficient"], [1.0 - 2.0 * w, 0.0])


def _check_ess_invasion(pd: Bimatrix):
    _require(cgame.ess_test(pd, incumbent=1, mutant=0, eta=0.1).stable, "D is ESS vs C")
    table = qgames.ewl_table(qgames.move_set("I,X,H,Z"), pd)
    _require(not cgame.ess_test(table, incumbent=1, mutant=2, eta=0.01).stable,
             "sigma_x must fall to H")
    _require(not cgame.ess_test(table, incumbent=2, mutant=3, eta=0.01).stable,
             "H must fall to sigma_z")


def _check_card_query():
    h = qstate.hadamard()
    for bit in (0, 1):
        state = qstate.basis_state([2], [0])
        for gate in (h, qstate.phase_gate(bit), h):
            state = qstate.apply(state, gate)
        _close(np.abs(state.amps) ** 2, [1 - bit, bit], 1e-12)
    report = qgames.card_game_round((0, 1, 1), draw=0, rng=RandomSource(0))
    _require(any("(0, 1, 1)" in e.get("operation", "") for e in report.transcript))


def _check_card_fairness():
    total = 0.0
    count = 0
    for orientation in (0, 1):
        for draw in range(3):
            report = qgames.card_game_round((0, 1, orientation), draw=draw, rng=RandomSource(0))
            total += report.payoffs["Bob"]
            count += 1
    _close(total / count, 0.0)


def _check_pseudo_telepathy():
    y, win = qgames.pseudo_telepathy_round((1, 1, 0), rng=RandomSource(3))
    _require(win and sum(y) % 2 == 1, "sum x = 2 mod 4 forces odd output parity")
    for n in (2, 3, 4):
        for bits in range(1 << n):
            x = [(bits >> i) & 1 for i in range(n)]
            if sum(x) % 2:
                continue
            _, win = qgames.pseudo_telepathy_round(x, rng=RandomSource(bits))
            _require(win)


def _check_pseudo_telepathy_core():
    game = qgames.pseudo_telepathy_game(4)
    rng = RandomSource(5)
    for _ in range(25):
        raw = np.array([rng.uniform() for _ in range(4)])
        allocation = raw / raw.sum()
        _require(cgame.core_check(game, cgame.Imputation(allocation)))
    short = cgame.Imputation([0.3, 0.3, 0.2, 0.1])  # sums to 0.9
    _require(not cgame.core_check(game, short))


def _check_teleport():
    psi = StateVector([2], [0.6, 0.8])
    state = qstate.tensor(psi, qstate.bell_basis(2)[3])
    _, residual = qstate.branch_residual(state, qstate.bell_basis(2)[0], targets=(0, 1))
    # unnormalized residual is (a/2)|1> - (b/2)|0>: normalized (-b, a)
    _close(residual.amps, [-0.8, 0.6], 1e-12)
    for k in range(4):
        report = qgames.teleport(psi, force=k)
        _close(report.params["recovery_fidelity"], 1.0)


def _check_secret_sharing_qubit():
    psi = StateVector([2], [0.6, 0.8j])
    for bell_k in range(4):
        for bob_s in range(2):
            report = qgames.secret_share_qubit(psi, force=(bell_k, bob_s))
            _close(report.params["recovery_fidelity"], 1.0)
            _require(report.params["gerald_offdiag_given_alice_only"] < 1e-9)
            _require(report.params["gerald_deviation_from_mixed_given_bob_only"] < 1e-9)


def _check_secret_sharing_qutrit():
    alpha = qstate.basis_state([3], [0])
    encoded = qgames.encode_qutrit_secret(alpha)
    hot = {qstate.digits_to_index((3, 3, 3), d) for d in ((0, 0, 0), (1, 1, 1), (2, 2, 2))}
    _close(sorted(np.nonzero(np.abs(encoded.amps) > 1e-12)[0]), sorted(hot))
    add = qstate.controlled_add(3)
    state = qstate.apply(encoded, add, [0, 1])
    after_first = {qstate.digits_to_index((3, 3, 3), d) for d in ((0, 0, 0), (1, 2, 1), (2, 1, 2))}
    _close(sorted(np.nonzero(np.abs(state.amps) > 1e-12)[0]), sorted(after_first))
    state = qstate.apply(state, add, [1, 0])
    after_second = {qstate.digits_to_index((3, 3, 3), d) for d in ((0, 0, 0), (0, 2, 1), (0, 1, 2))}
    _close(sorted(np.nonzero(np.abs(state.amps) > 1e-12)[0]), sorted(after_second))
    secret = StateVector([3], np.array([0.5, 0.5j, math.sqrt(0.5)]))
    for pair in ("alice,bob", "bob,gerald", "alice,gerald"):
        report = qgames.secret_share_qutrit(secret, pair)
        _close(report.params["recovery_fidelity"], 1.0)
        _require(max(report.params["share_mixedness_deviation"]) < 1e-9)


def _check_density_ensemble():
    psi1 = StateVector([2], [0.8, 0.6])
    psi2 = StateVector([2], [0.6, -0.8j])
    rho = density.rho_from_ensemble([psi1, psi2], [0.75, 0.25])
    expected = np.array([[0.57, 0.36 + 0.12j], [0.36 - 0.12j, 0.43]])
    _close(rho.entries, expected, 1e-10)
    phi1 = StateVector([2], [0.6, 0.8])
    phi2 = StateVector([2], [0.8, -0.6])
    _require(abs(density.measure_prob(rho, phi1) - 0.826) < 5e-4)
    _require(abs(density.measure_prob(rho, phi2) - 0.174) < 5e-4)
    _close(density.expectation(rho, qstate.pauli_x().entries), 0.72, 1e-10)


def _check_bloch():
    mixed = density.DensityMatrix.maximally_mixed(2)
    _close(density.to_bloch(mixed).as_array(), [0, 0, 0], 1e-12)
    rho = density.from_bloch(density.BlochVector(0, 0, 1 / 3))
    _close(rho.entries, np.diag([2 / 3, 1 / 3]), 1e-12)
    pure = density.DensityMatrix.from_state(StateVector([2], [0.6, 0.8j]))
    _close(density.to_bloch(pure).norm(), 1.0, 1e-12)


def _check_mle():
    est = density.mle_bernoulli(2, 1)
    _close(est.p_hat, 1 / 3, 1e-12)
    _close(est.rho.entries, np.diag([2 / 3, 1 / 3]), 1e-12)
    _close(est.r_z, 1 / 3, 1e-12)


def _check_discrimination():
    n = 3
    priors = np.full(n, 1 / n)
    costs = np.full((n, n), 2.0) - 2.0 * np.eye(n)
    uniform_channel = np.full((n, n), 1 / n)
    problem = density.DiscriminationProblem(priors, costs, uniform_channel)
    c_b, p_e = density.discrimination_cost(problem)
    _close(p_e, 1 - 1 / n, 1e-12)
    _close(c_b, 2.0 * p_e, 1e-12)
    identity_problem = density.DiscriminationProblem(priors, costs, np.eye(n))
    _close(density.discrimination_cost(identity_problem), (0.0, 0.0), 1e-12)


def _check_uqcm():
    result = density.uqcm_clone(qstate.basis_state([2], [0]))
    _close(result.clone.entries, np.diag([5 / 6, 1 / 6]), 1e-10)
    _close(result.fidelity, 5 / 6, 1e-9)
    _close(result.eta, 2 / 3, 1e-9)
    tilted = density.uqcm_clone(StateVector([2], [0.6, 0.8j]))
    _close(tilted.fidelity, 5 / 6, 1e-9)
    _close(tilted.eta, 2 / 3, 1e-9)


def run_golden_checks(pd_payoffs: Bimatrix | None = None) -> list[CheckResult]:
    """Run every golden check; returns one result per named check."""
    pd = pd_payoffs if pd_payoffs is not None else qgames.prisoners_dilemma_payoffs()
    checks = [
        ("register-index", _check_register_index),
        ("tensor-product", _check_tensor_product),
        ("walsh-matrices", _check_walsh_matrices),
        ("walsh-signs-on-110", _check_walsh_signs_on_110),
        ("pauli-algebra", _check_pauli_algebra),
        ("spin-flip-tables", _check_spin_flip_tables),
        ("hadamard-always-wins", _check_hadamard_always_wins),
        ("grover-operators", _check_grover_operators),
        ("grover-amplitudes", _check_grover_amplitudes),
        ("grover-large-k", _check_grover_large_k),
        ("bernstein-vazirani", _check_bernstein_vazirani),
        ("euler-halving", _check_euler_halving),
        ("rsa-game", _check_rsa_game),
        ("qft", _check_qft),
        ("bell-states", _check_bell_states),
        ("ewl-entangler", _check_ewl_entangler),
        ("pd-ewl-play", lambda: _check_ewl_play_values(pd)),
        ("pd-three-move-grid", lambda: _check_pd_three_move_grid(pd)),
        ("pd-four-move-grid", lambda: _check_pd_four_move_grid(pd)),
        ("pd-classical", lambda: _check_classical_pd(pd)),
        ("bos-mixed-equilibrium", _check_bos_mixed),
        ("bos-four-move-grid", _check_bos_four_move_grid),
        ("newcomb", _check_newcomb),
        ("ess-invasion", lambda: _check_ess_invasion(pd)),
        ("card-query", _check_card_query),
        ("card-fairness", _check_card_fairness),
        ("pseudo-telepathy", _check_pseudo_telepathy),
        ("pseudo-telepathy-core", _check_pseudo_telepathy_core),
        ("teleport", _check_teleport),
        ("secret-sharing-qubit", _check_secret_sharing_qubit),
        ("secret-sharing-qutrit", _check_secret_sharing_qutrit),
        ("density-ensemble", _check_density_ensemble),
        ("bloch-sphere", _check_bloch),
        ("mle-estimate", _check_mle),
        ("discrimination-cost", _check_discrimination),
        ("uqcm-clone", _check_uqcm),
    ]
    results = []
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # report, never abort the sweep
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, True))
    return results
