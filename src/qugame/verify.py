"""The paper's golden numbers, each stated once, and the sweep that checks them.

`GOLDENS` is the golden table: one `Golden(name, compute, expected, tol)` row
per worked result of the source paper.  `compute(pd)` recomputes the value
from scratch through the package; `expected` is a literal or a closed form,
or a dict of them, and never calls the package; `tol` is the largest absolute
deviation allowed, one number or a dict with one per key.  `match` is the one
comparison: dict keys must agree, numbers, bools, tuples and arrays compare as
complex arrays of equal shape, and a row fails on `not worst <= tol`, so a NaN
fails.  It raises explicitly, so the checks still fail under `python -O`.

`qugame verify` runs the table through `run_golden_checks`, and the test
suite runs it row by row (`pytest tests/test_acceptance.py -v`).  The rows
whose compute uses `pd` fail by name when a perturbed prisoner's-dilemma
table is injected (negative control).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import cgame, density, qalgo, qgames, qstate
from .cgame import Bimatrix
from .qstate import StateVector, UnitaryMatrix
from .rng import RandomSource


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Golden:
    name: str
    compute: Callable[[Bimatrix], object]
    expected: object
    tol: float | dict = 1e-12


def match(actual, expected, tol, where: str = "value") -> None:
    """Raise AssertionError, naming the failing key, unless actual matches expected."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            got = list(actual) if isinstance(actual, dict) else type(actual).__name__
            raise AssertionError(f"{where}: keys {got} vs {list(expected)}")
        for key, value in expected.items():
            match(actual[key], value, tol[key] if isinstance(tol, dict) else tol, str(key))
        return
    actual = np.asarray(actual, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if actual.shape != expected.shape:
        raise AssertionError(f"{where}: shape {actual.shape} vs {expected.shape}")
    worst = float(np.abs(actual - expected).max()) if actual.size else 0.0
    if not worst <= tol:
        raise AssertionError(f"{where}: max deviation {worst:.3e} > {tol:.0e}")


# literals that several expected values share; none of them comes from the package
SQ2 = math.sqrt(2.0)
X, Y, Z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
HADAMARD = np.array([[1, 1], [1, -1]]) / SQ2
BOS = (3.0, 2.0, 1.0)  # (alpha, beta, gamma) of the worked battle of the sexes
NEWCOMB_W = (0.0, 0.25, 0.5, 0.75, 1.0)
WALSH_110 = [1, 1, -1, -1, -1, -1, 1, 1]
GROVER_30 = 25_735  # optimal rotations at N = 2^30 (Boyer, Brassard, Hoyer, Tapp)


def _spike(n, at, rest, value):
    """Length-n vector of `rest` with `value` at index `at`."""
    out = np.full(n, float(rest))
    out[at] = value
    return out


def _bos_expected(a, b, g):
    """Closed forms of the battle of the sexes at (alpha, beta, gamma) = (a, b, g)."""
    d = a + b - 2 * g
    mixed = {"pure Nash": 2, "p": (a - g) / d, "q": (b - g) / d, "payoff": (a * b - g**2) / d}
    grid = {"Nash": [(1, 1)], "(X, X)": (b, a),
            "row": [[a, g, (b + g) / 2, b], [g, b, (b + g) / 2, g],
                    [(b + g) / 2, (b + g) / 2, (a + b + 2 * g) / 4, (a + g) / 2],
                    [b, g, (a + g) / 2, a]],
            "corner p, q": (0.5, 0.5), "corner payoffs": ((a + b) / 2, (a + b) / 2)}
    return mixed, grid


def _register_index(pd):
    return {"|10011>": qstate.basis_state([2] * 5, "10011").amps,
            "|21> of two qutrits": qstate.basis_state([3, 3], [2, 1]).amps}


def _tensor_product(pd):
    u, d = qstate.basis_state([2], [0]), qstate.basis_state([2], [1])
    return qstate.tensor(u, d).amps


def _walsh_matrices(pd):
    w4 = qstate.walsh(2)
    return {"W4": w4.entries,
            "H x H": qstate.tensor(qstate.hadamard(), qstate.hadamard()).entries,
            "W4|00>": qstate.apply(qstate.basis_state([2, 2], [0, 0]), w4).amps}


def _walsh_signs_on_110(pd):
    out = qstate.apply(qstate.basis_state([2] * 3, "110"), qstate.walsh(3)).amps
    return {"signs": np.sign(out.real), "amplitudes": out}


def _pauli_algebra(pd):
    x, y, z = (g().entries for g in (qstate.pauli_x, qstate.pauli_y, qstate.pauli_z))
    return {"squares": [x @ x, y @ y, z @ z], "xy": x @ y, "yz": y @ z, "zx": z @ x,
            "xy + yx": x @ y + y @ x}


def _spin_flip_tables(pd):
    # Tables II-IV: payoff to Alice for each classical (bob1, alice, bob2) combination
    gates = {"1": qstate.identity(2), "X": qstate.pauli_x()}
    return {
        (b1, a, b2): qgames.spin_flip_play(gates[b1], gates[a], gates[b2],
                                           rng=RandomSource(0)).payoffs["Alice"]
        for b1 in gates for a in gates for b2 in gates
    }


def _hadamard_always_wins(pd):
    h, up = qstate.hadamard(), qstate.basis_state([2], [0])
    return [qgames.spin_flip_expected(cgame.MixedStrategy([p, 1 - p]), (h, h), up)
            for p in (0.0, 0.3, 0.5, 0.77, 1.0)]


def _grover_operators(pd):
    oracle, diffusion = qalgo.grover_operators(3, 5)
    return {"oracle": oracle.entries, "rotation": (diffusion @ oracle).entries}


def _grover_amplitudes(pd):
    run = qalgo.grover_search(3, 5)
    guess = qgames.guess_number_game("I", 3, 5)
    return {"k": run.k, "first": run.trajectory[1].amps, "second": run.trajectory[2].amps,
            "success": run.success_probability,
            "guess I": [guess.params["iterations"], guess.probabilities["win"]]}


def _grover_large_k(pd):
    k = qalgo.grover_iterations(2**30)
    pairs = qalgo.grover_search(30, 0, k=k + 1).trajectory.pairs
    on2 = pairs[:, 0] ** 2
    norm = on2 + (2**30 - 1) * pairs[:, 1] ** 2
    return {"k": k, "peak": int(np.argmax(on2)), "success": on2[k],
            "norm drift": float(np.abs(norm - 1.0).max())}


def _bernstein_vazirani(pd):
    report = qgames.guess_number_game("II", 4, 11)
    return {"a = 6": qalgo.bernstein_vazirani(3, 6), "a = 0": qalgo.bernstein_vazirani(3, 0),
            "guess II": [report.params["oracle_calls"], report.probabilities["win"]]}


def _euler_halving(pd):
    return {"2^(60, 30, 15) mod 77": [pow(2, e, 77) for e in (60, 30, 15)],
            "gcd(77, 44), gcd(77, 42)": [gcd(77, 44), gcd(77, 42)],
            "factors": qalgo.factor_from_order(77, 2, 60).factors}


def _rsa_game(pd):
    result = qalgo.rsa_demo(77, 11, 67, RandomSource(1))
    half = pow(39, 15, 77)
    return {"p": result.p, "q": result.q, "phi": result.phi, "d": result.d,
            "plaintext": result.plaintext, "rounds <= 25": result.rounds <= 25,
            "re-encrypted": pow(result.plaintext, 11, 77),
            "39^15 mod 77": half, "39^15 -+ 1": [half - 1, half + 1],
            "factors from r = 30": qalgo.factor_from_order(77, 39, 30).factors}


def _qft(pd):
    out = {"qft(1)": qstate.qft(1).entries, "qft(2)": qstate.qft(2).entries}
    for n in (1, 2, 3):
        out[f"qft({n}) qft({n})^-1"] = (qstate.qft(n) @ qstate.qft(n).dagger()).entries
    return out


def _bell_states(pd):
    bell = qstate.bell_basis(2)
    state = qstate.apply(qstate.basis_state([2, 2], [0, 0]), qstate.hadamard(), [0])
    state = qstate.apply(state, qstate.cnot(), [0, 1])
    return {"B0": bell[0].amps, "B3": bell[3].amps, "CNOT H|00>": state.amps,
            "GHZ pair": [b.amps for b in qstate.bell_basis(3)]}


def _ewl_entangler(pd):
    u = qgames.ewl_entangler()
    state = qstate.apply(qstate.basis_state([2, 2], [0, 0]), u)
    xx = qstate.tensor(qstate.pauli_x(), qstate.pauli_x())
    final = qstate.apply(qstate.apply(state, xx), u.dagger())
    _, _, played = qgames.ewl_play(qstate.pauli_x(), qstate.pauli_x(), pd)
    return {"J|00>": state.amps, "J^dag XX J|00>": final.probabilities(),
            "ewl_play(X, X)": played.probabilities()}


def _pd_ewl_play(pd):
    one, h = qstate.identity(2), qstate.hadamard()
    return {f"({a}, {b})": qgames.ewl_play(ua, ub, pd)[:2]
            for (a, ua), (b, ub) in (((1, one), (1, one)), ((1, one), ("H", h)),
                                     (("H", h), ("H", h)), (("H", h), (1, one)))}


def _ewl_grid(moves: str, payoffs: Bimatrix):
    table = qgames.ewl_table(qgames.move_set(moves), payoffs)
    return table, {"row": table.payoff_row, "col": table.payoff_col,
                   "Nash": cgame.pure_nash(table)}


def _pd_three_move_grid(pd):
    return _ewl_grid("I,X,H", pd)[1]


def _pd_four_move_grid(pd):
    table, out = _ewl_grid("I,X,H,Z", pd)
    out["Pareto (Z, Z)"] = cgame.pareto_analysis(table).cell(3, 3)
    return out


def _pd_classical(pd):
    flags = cgame.pareto_analysis(pd)
    return {"Nash": cgame.pure_nash(pd), "dominant": cgame.dominant_moves(pd),
            "Pareto (D, D)": flags.cell(1, 1), "Pareto (C, C)": flags.cell(0, 0)}


def _bos_mixed_equilibrium(pd):
    game = qgames.battle_of_sexes_payoffs(*BOS)
    a, b = cgame.nash_equilibria(game)[-1]  # the full-support mix comes last
    return {"pure Nash": len(cgame.pure_nash(game)), "p": a.probs[0], "q": b.probs[0],
            "payoff": cgame.expected_payoff(game, a, b)[0]}


def _bos_four_move_grid(pd):
    table = qgames.ewl_table(qgames.move_set("I,X,H,Z"), qgames.battle_of_sexes_payoffs(*BOS))
    pick = np.ix_((0, 3), (0, 3))  # the {1, sigma_z} corner
    corner = Bimatrix(["I", "Z"], ["I", "Z"], table.payoff_row[pick], table.payoff_col[pick])
    a, b = cgame.nash_equilibria(corner)[-1]  # the full-support mix comes last
    return {"Nash": cgame.pure_nash(table), "(X, X)": table.cell(1, 1), "row": table.payoff_row,
            "corner p, q": (a.probs[0], b.probs[0]),
            "corner payoffs": cgame.expected_payoff(corner, a, b)}


def _newcomb(pd):
    out = {"P|00>": [], "payoff, |00>": [], "P|11>": [], "payoff, |11>": [], "coherent": []}
    for w in NEWCOMB_W:
        million, empty = qgames.newcomb_play(0, w), qgames.newcomb_play(1, w)
        out["P|00>"].append(million.probabilities["|00>"])
        out["payoff, |00>"].append(million.payoffs["Alice"])
        out["P|11>"].append(empty.probabilities["|11>"])
        out["payoff, |11>"].append(empty.payoffs["Alice"])
        shorthand = qgames.newcomb_play(1, w, coherent_shorthand=True)
        out["coherent"].append(shorthand.params["coherent_coefficient"])
    return out


def _ess_invasion(pd):
    table = qgames.ewl_table(qgames.move_set("I,X,H,Z"), pd)
    return {"D vs C": cgame.ess_test(pd, incumbent=1, mutant=0, eta=0.1).stable,
            **{f"{a} vs {b}": cgame.ess_test(table, incumbent=i, mutant=j, eta=eta).stable
               for a, i, b, j, eta in (("X", 1, "H", 2, 0.01), ("H", 2, "Z", 3, 0.01),
                                       ("Z", 3, "X", 1, 0.1))}}


def _card_query(pd):
    h = qstate.hadamard()
    probs = []
    for bit in (0, 1):
        state = qstate.basis_state([2], [0])
        for gate in (h, qstate.phase_gate(bit), h):
            state = qstate.apply(state, gate)
        probs.append(state.probabilities())
    report = qgames.card_game_round((0, 1, 1), draw=0, rng=RandomSource(0))
    logged = any("(0, 1, 1)" in e.get("operation", "") for e in report.transcript)
    return {"H P(b) H|0>": probs, "query logged": logged}


def _card_fairness(pd):
    return float(np.mean([
        qgames.card_game_round((0, 1, o), draw=d, rng=RandomSource(0)).payoffs["Bob"]
        for o in (0, 1) for d in range(3)
    ]))


def _pseudo_telepathy(pd):
    y, win = qgames.pseudo_telepathy_round((1, 1, 0), rng=RandomSource(3))
    wins = [
        qgames.pseudo_telepathy_round(x, rng=RandomSource(bits))[1]
        for n in (2, 3, 4) for bits in range(1 << n)
        for x in [[(bits >> i) & 1 for i in range(n)]] if sum(x) % 2 == 0
    ]
    return {"x = 110": [win, sum(y) % 2 == 1], "every even input": all(wins)}


def _pseudo_telepathy_core(pd):
    game = qgames.pseudo_telepathy_game(4)
    rng = RandomSource(5)
    inside = []
    for _ in range(25):
        raw = np.array([rng.uniform() for _ in range(4)])
        inside.append(cgame.core_check(game, cgame.Imputation(raw / raw.sum())))
    short = cgame.Imputation([0.3, 0.3, 0.2, 0.1])  # sums to 0.9
    return {"random allocations": all(inside), "short allocation": cgame.core_check(game, short)}


def _teleport(pd):
    psi = StateVector([2], [0.6, 0.8])
    bell = qstate.bell_basis(2)
    readout = UnitaryMatrix(np.array([b.amps for b in bell]).conj())  # row k is <b_k|
    state = qstate.apply(qstate.tensor(psi, bell[3]), readout, (0, 1))
    record = qstate.measure(state, targets=(0, 1), force=0)
    return {"B0 branch": record.probability, "B0 branch residual": record.residual.amps,
            "fidelities": [qgames.teleport(psi, force=k).params["recovery_fidelity"]
                           for k in range(4)]}


def _secret_sharing_qubit(pd):
    psi = StateVector([2], [0.6, 0.8j])
    params = [qgames.secret_share_qubit(psi, force=(k, s)).params
              for k in range(4) for s in range(2)]
    return {key: [p[key] for p in params] for key in (
        "recovery_fidelity", "gerald_offdiag_given_alice_only",
        "gerald_deviation_from_mixed_given_bob_only")}


def _secret_sharing_qutrit(pd):
    def support(state):
        return np.argwhere(np.abs(state.amps.reshape(3, 3, 3)) > 1e-12)

    encoded = qgames.encode_qutrit_secret(qstate.basis_state([3], [0]))
    add = qstate.controlled_add(3)
    first = qstate.apply(encoded, add, [0, 1])
    second = qstate.apply(first, add, [1, 0])
    secret = StateVector([3], np.array([0.5, 0.5j, math.sqrt(0.5)]))
    reports = [qgames.secret_share_qutrit(secret, pair)
               for pair in ("alice,bob", "bob,gerald", "alice,gerald")]
    return {"encoded |0>": support(encoded),
            "amplitudes": encoded.amps[np.abs(encoded.amps) > 1e-12],
            "after first add": support(first), "after second add": support(second),
            "fidelities": [r.params["recovery_fidelity"] for r in reports],
            "share mixedness": max(max(r.params["share_mixedness_deviation"]) for r in reports)}


def _density_ensemble(pd):
    rho = density.rho_from_ensemble(
        [StateVector([2], [0.8, 0.6]), StateVector([2], [0.6, -0.8j])], [0.75, 0.25])
    return {"rho": rho.entries,
            "P(0.6, 0.8)": density.measure_prob(rho, StateVector([2], [0.6, 0.8])),
            "P(0.8, -0.6)": density.measure_prob(rho, StateVector([2], [0.8, -0.6])),
            "<sigma_x>": density.expectation(rho, qstate.pauli_x().entries)}


def _bloch_sphere(pd):
    pure = density.DensityMatrix.from_state(StateVector([2], [0.6, 0.8j]))
    mixed = density.DensityMatrix.maximally_mixed(2)
    return {"maximally mixed": density.to_bloch(mixed).as_array(),
            "r = (0, 0, 1/3)": density.from_bloch(density.BlochVector(0, 0, 1 / 3)).entries,
            "|r| of a pure state": density.to_bloch(pure).norm()}


def _mle_estimate(pd):
    est = density.mle_bernoulli(2, 1)
    return {"p_hat": est.p_hat, "rho": est.rho.entries, "r_z": est.r_z}


def _discrimination_cost(pd):
    n = 3
    priors, costs = np.full(n, 1 / n), np.full((n, n), 2.0) - 2.0 * np.eye(n)
    blind = density.DiscriminationProblem(priors, costs, np.full((n, n), 1 / n))
    perfect = density.DiscriminationProblem(priors, costs, np.eye(n))
    return {"uniform channel": density.discrimination_cost(blind),
            "identity channel": density.discrimination_cost(perfect)}


def _uqcm_clone(pd):
    up = density.uqcm_clone(qstate.basis_state([2], [0]))
    tilted = density.uqcm_clone(StateVector([2], [0.6, 0.8j]))
    return {"clone of |0>": up.clone.entries, "fidelity": [up.fidelity, tilted.fidelity],
            "eta": [up.eta, tilted.eta]}


BOS_MIXED, BOS_GRID = _bos_expected(*BOS)
GOLDENS: tuple[Golden, ...] = (
    Golden("register-index", _register_index,
           {"|10011>": np.eye(32)[19], "|21> of two qutrits": np.eye(9)[7]}, 0.0),
    Golden("tensor-product", _tensor_product, [0, 1, 0, 0]),
    Golden("walsh-matrices", _walsh_matrices,
           {"W4": np.kron(HADAMARD, HADAMARD), "H x H": np.kron(HADAMARD, HADAMARD),
            "W4|00>": np.full(4, 0.5)}),
    Golden("walsh-signs-on-110", _walsh_signs_on_110,
           {"signs": WALSH_110, "amplitudes": np.divide(WALSH_110, math.sqrt(8))},
           {"signs": 0.0, "amplitudes": 1e-12}),
    Golden("pauli-algebra", _pauli_algebra,
           {"squares": [np.eye(2)] * 3, "xy": 1j * Z, "yz": 1j * X, "zx": 1j * Y,
            "xy + yx": np.zeros((2, 2))}),
    Golden("spin-flip-tables", _spin_flip_tables,
           {("1", "1", "1"): -1, ("1", "1", "X"): 1, ("1", "X", "1"): 1, ("1", "X", "X"): -1,
            ("X", "1", "1"): 1, ("X", "1", "X"): -1, ("X", "X", "1"): -1, ("X", "X", "X"): 1},
           0.0),
    Golden("hadamard-always-wins", _hadamard_always_wins, [-1.0] * 5),
    Golden("grover-operators", _grover_operators,
           {"oracle": np.diag(_spike(8, 5, 1, -1)),
            "rotation": (np.ones((8, 8)) / 4 - np.eye(8)) * _spike(8, 5, 1, -1)}),
    Golden("grover-amplitudes", _grover_amplitudes,
           {"k": 2, "first": _spike(8, 5, 1, 5) / (4 * SQ2),
            "second": _spike(8, 5, -1, 11) / (8 * SQ2),
            "success": 121 / 128, "guess I": [2, 121 / 128]}),
    Golden("grover-large-k", _grover_large_k,
           {"k": GROVER_30, "peak": GROVER_30,
            "success": math.sin((2 * GROVER_30 + 1) * math.asin(2**-15)) ** 2,
            "norm drift": 0.0}),
    Golden("bernstein-vazirani", _bernstein_vazirani,
           {"a = 6": 6, "a = 0": 0, "guess II": [1, 1.0]}, 0.0),
    Golden("euler-halving", _euler_halving,
           {"2^(60, 30, 15) mod 77": [1, 1, 43], "gcd(77, 44), gcd(77, 42)": [11, 7],
            "factors": (7, 11)}, 0.0),
    Golden("rsa-game", _rsa_game,
           {"p": 7, "q": 11, "phi": 60, "d": 11, "plaintext": 23, "rounds <= 25": True,
            "re-encrypted": 67, "39^15 mod 77": 43, "39^15 -+ 1": [42, 44],
            "factors from r = 30": (7, 11)}, 0.0),
    Golden("qft", _qft,
           {"qft(1)": HADAMARD, "qft(2)": 1j ** np.outer(range(4), range(4)) / 2,
            **{f"qft({n}) qft({n})^-1": np.eye(1 << n) for n in (1, 2, 3)}}),
    Golden("bell-states", _bell_states,
           {"B0": np.array([1, 0, 0, 1]) / SQ2, "B3": np.array([0, 1, -1, 0]) / SQ2,
            "CNOT H|00>": np.array([1, 0, 0, 1]) / SQ2,
            "GHZ pair": [(np.eye(8)[0] + sign * np.eye(8)[7]) / SQ2 for sign in (1, -1)]}),
    Golden("ewl-entangler", _ewl_entangler,
           {"J|00>": np.array([1, 0, 0, 1j]) / SQ2, "J^dag XX J|00>": [0, 0, 0, 1],
            "ewl_play(X, X)": [0, 0, 0, 1]}),
    Golden("pd-ewl-play", _pd_ewl_play,
           {"(1, 1)": (3, 3), "(1, H)": (0.5, 3), "(H, H)": (2.25, 2.25), "(H, 1)": (3, 0.5)}),
    Golden("pd-three-move-grid", _pd_three_move_grid,
           {"row": [[3, 0, 0.5], [5, 1, 0.5], [3, 3, 2.25]],
            "col": [[3, 5, 3], [0, 1, 3], [0.5, 0.5, 2.25]], "Nash": [(2, 2)]}),
    Golden("pd-four-move-grid", _pd_four_move_grid,
           {"row": [[3, 0, 0.5, 1], [5, 1, 0.5, 0], [3, 3, 2.25, 1.5], [1, 5, 4, 3]],
            "col": [[3, 5, 3, 1], [0, 1, 3, 5], [0.5, 0.5, 2.25, 4], [1, 0, 1.5, 3]],
            "Nash": [(3, 3)], "Pareto (Z, Z)": (False, True)}),
    Golden("pd-classical", _pd_classical,
           {"Nash": [(1, 1)], "dominant": ([1], [1]), "Pareto (D, D)": (True, False),
            "Pareto (C, C)": (False, True)}, 0.0),
    Golden("bos-mixed-equilibrium", _bos_mixed_equilibrium, BOS_MIXED),
    Golden("bos-four-move-grid", _bos_four_move_grid, BOS_GRID),
    Golden("newcomb", _newcomb,
           {"P|00>": [1.0] * 5, "payoff, |00>": [1_000_000.0] * 5, "P|11>": [1.0] * 5,
            "payoff, |11>": [1_000.0] * 5, "coherent": [(1 - 2 * w, 0.0) for w in NEWCOMB_W]},
           {"P|00>": 1e-12, "payoff, |00>": 1e-9, "P|11>": 1e-12, "payoff, |11>": 1e-9,
            "coherent": 1e-12}),
    Golden("ess-invasion", _ess_invasion,
           {"D vs C": True, "X vs H": False, "H vs Z": False, "Z vs X": True}, 0.0),
    Golden("card-query", _card_query, {"H P(b) H|0>": np.eye(2), "query logged": True}),
    Golden("card-fairness", _card_fairness, 0.0),
    Golden("pseudo-telepathy", _pseudo_telepathy,
           {"x = 110": [True, True], "every even input": True}, 0.0),
    Golden("pseudo-telepathy-core", _pseudo_telepathy_core,
           {"random allocations": True, "short allocation": False}, 0.0),
    Golden("teleport", _teleport,
           {"B0 branch": 0.25, "B0 branch residual": [-0.8, 0.6], "fidelities": [1.0] * 4}),
    Golden("secret-sharing-qubit", _secret_sharing_qubit,
           {"recovery_fidelity": [1.0] * 8, "gerald_offdiag_given_alice_only": [0.0] * 8,
            "gerald_deviation_from_mixed_given_bob_only": [0.0] * 8}),
    Golden("secret-sharing-qutrit", _secret_sharing_qutrit,
           {"encoded |0>": [(0, 0, 0), (1, 1, 1), (2, 2, 2)], "amplitudes": [3**-0.5] * 3,
            "after first add": [(0, 0, 0), (1, 2, 1), (2, 1, 2)],
            "after second add": [(0, 0, 0), (0, 1, 2), (0, 2, 1)],
            "fidelities": [1.0] * 3, "share mixedness": 0.0}),
    Golden("density-ensemble", _density_ensemble,
           {"rho": [[0.57, 0.36 + 0.12j], [0.36 - 0.12j, 0.43]], "P(0.6, 0.8)": 0.826,
            "P(0.8, -0.6)": 0.174, "<sigma_x>": 0.72}),
    Golden("bloch-sphere", _bloch_sphere,
           {"maximally mixed": [0, 0, 0], "r = (0, 0, 1/3)": np.diag([2 / 3, 1 / 3]),
            "|r| of a pure state": 1.0}),
    Golden("mle-estimate", _mle_estimate,
           {"p_hat": 1 / 3, "rho": np.diag([2 / 3, 1 / 3]), "r_z": 1 / 3}),
    Golden("discrimination-cost", _discrimination_cost,
           {"uniform channel": (2 * (1 - 1 / 3), 1 - 1 / 3), "identity channel": (0.0, 0.0)}),
    Golden("uqcm-clone", _uqcm_clone,
           {"clone of |0>": np.diag([5 / 6, 1 / 6]), "fidelity": [5 / 6] * 2, "eta": [2 / 3] * 2}),
)


def check(golden: Golden, pd: Bimatrix | None = None) -> None:
    """Recompute one row and match it against its expected value (AssertionError on a miss)."""
    pd = pd if pd is not None else qgames.prisoners_dilemma_payoffs()
    match(golden.compute(pd), golden.expected, golden.tol)


def run_golden_checks(pd_payoffs: Bimatrix | None = None) -> list[CheckResult]:
    """Run every row of GOLDENS; returns one result per named row, in table order."""
    pd = pd_payoffs if pd_payoffs is not None else qgames.prisoners_dilemma_payoffs()
    results = []
    for golden in GOLDENS:
        try:
            check(golden, pd)
        except Exception as exc:  # report, never abort the sweep
            results.append(CheckResult(golden.name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(golden.name, True))
    return results
