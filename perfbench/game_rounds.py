"""game-rounds: seeded picks from the small protocols.

Registers stay at n <= 10, so the cost is per-call overhead: the `apply` and
`measure` wrappers, `GameReport.log`, `partial_trace` and the Python loops in
`cgame`; the large-n kernel path is barely used.  Table ops run `ewl_table`
over a 4-move set of {I, X, Y, Z, H} for the prisoner's dilemma or battle of
the sexes, then `pure_nash`, `pareto_analysis` and, for the symmetric PD,
`ess_test`; one op in forty does the same over sixteen seeded Haar moves.

Every check is independent of the program's sample stream: table cells are
recomputed from J^dag (U_A x U_B) J |00> in numpy, Nash and Pareto flags by
vectorised comparison, and the protocols are held to their goldens (unit
fidelity, 5/6 cloning, certain telepathy wins, the PD 4-move table).  For
teleportation and secret sharing the recovered state is read from the last
state in the report's transcript and compared with the secret directly,
besides the fidelity the program reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from common import HostProbe, contraction_task, haar_unitary, require, require_close
from qugame import cgame, density, qgames, qstate
from qugame.rng import RandomSource

NAME = "game-rounds"

# Per 40-op cycle.  Sorted by latency: the cheap protocols (~0.2-0.4 ms)
# fill the bottom, card/qutrit sharing/wide telepathy (~0.5-0.8 ms) hold
# p50, qubit sharing (~1.1 ms) sits above, the 4-move tables (~4 ms) hold
# p90 and the 16x16 table (~100 ms) is the top 2.5%.
CYCLE = (
    ("spinflip", 4), ("clone", 3), ("newcomb", 3), ("teleport", 4),
    ("telepathy_small", 3), ("telepathy_wide", 3), ("card", 4), ("secret_qutrit", 4),
    ("secret_qubit", 4), ("table4", 7), ("table16", 1),
)
TOL = 1e-9
# Transcript states are rounded to 10 decimals, so fidelities read from them
# are good to about 1e-9.
LOG_TOL = 1e-8
MOVE_LABELS = ("I", "X", "Y", "Z", "H")
PD = {"row": [[3, 0], [5, 1]], "col": [[3, 5], [0, 1]]}
# EWL prisoner's dilemma over moves I, X, H, Z.
PD_FOUR_MOVES = {
    "row": [[3, 0, 0.5, 1], [5, 1, 0.5, 0], [3, 3, 2.25, 1.5], [1, 5, 4, 3]],
    "col": [[3, 5, 3, 1], [0, 1, 3, 5], [0.5, 0.5, 2.25, 4], [1, 0, 1.5, 3]],
}
GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
}
PAULIS = (GATES["X"], GATES["Y"], GATES["Z"])


@dataclass(frozen=True)
class Op:
    kind: str
    seed: int

    @property
    def label(self) -> str:
        return self.kind


def cycles(seed: int):
    gen = np.random.default_rng([seed, 2])
    template = [kind for kind, count in CYCLE for _ in range(count)]
    while True:
        order = gen.permutation(len(template))
        yield [Op(template[i], int(gen.integers(2**63))) for i in order]


def random_state(dim, gen) -> np.ndarray:
    v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return v / np.linalg.norm(v)


def prepare(op: Op):
    gen = np.random.default_rng(op.seed)
    kind = op.kind
    inp = {"rng": RandomSource(int(gen.integers(2**31)))}
    if kind in ("table4", "table16"):
        if kind == "table4":
            labels = tuple(MOVE_LABELS[i] for i in sorted(gen.choice(5, 4, replace=False)))
            mats = [GATES[l] for l in labels]
            game = "pd" if gen.integers(2) == 0 else "bos"
        else:
            labels = tuple(f"U{i}" for i in range(16))
            mats = [haar_unitary(2, gen) for _ in labels]
            game = "pd"
        if game == "pd":
            row, col = PD["row"], PD["col"]
        else:
            gamma = float(gen.uniform(0.0, 1.0))
            beta = gamma + float(gen.uniform(0.5, 2.0))
            alpha = beta + float(gen.uniform(0.5, 2.0))
            row, col = [[alpha, gamma], [gamma, beta]], [[beta, gamma], [gamma, alpha]]
        size = len(labels)
        inp.update(
            labels=labels, mats=np.array(mats), game=game, row=np.array(row, float),
            col=np.array(col, float),
            payoffs=cgame.Bimatrix(["a", "b"], ["a", "b"], row, col),
            moves=qgames.MoveSet(labels, tuple(qstate.UnitaryMatrix(m) for m in mats)),
            ess=(int(gen.integers(size)), int(gen.integers(size)), float(gen.uniform(0.01, 0.5))),
        )
    elif kind in ("teleport", "secret_qubit", "clone", "secret_qutrit"):
        dim = 3 if kind == "secret_qutrit" else 2
        inp["psi"] = random_state(dim, gen)
        inp["psi_state"] = qstate.StateVector([dim], inp["psi"])
        if kind == "secret_qutrit":
            inp["pair"] = ("alice,bob", "bob,gerald", "gerald,alice")[int(gen.integers(3))]
    elif kind.startswith("telepathy"):
        n = int(gen.integers(3, 5)) if kind == "telepathy_small" else int(gen.integers(6, 11))
        x = [int(b) for b in gen.integers(0, 2, n)]
        if sum(x) % 2:
            x[0] ^= 1
        inp["x"] = x
    elif kind == "card":
        inp["deal"] = (0, 1, int(gen.integers(2)))
        inp["draw"] = int(gen.integers(3))
    elif kind == "newcomb":
        inp["sb"] = int(gen.integers(2))
        inp["w"] = float(gen.uniform())
    elif kind == "spinflip":
        inp["moves"] = [haar_unitary(2, gen) for _ in range(3)]
        inp["gates"] = [qstate.UnitaryMatrix(m) for m in inp["moves"]]
    return inp


def run(op: Op, inp):
    kind, rng = op.kind, inp["rng"]
    if kind in ("table4", "table16"):
        table = qgames.ewl_table(inp["moves"], inp["payoffs"])
        result = {"table": table, "nash": cgame.pure_nash(table),
                  "pareto": cgame.pareto_analysis(table)}
        if inp["game"] == "pd":
            result["ess"] = cgame.ess_test(table, *inp["ess"])
        return result
    if kind == "teleport":
        return qgames.teleport(inp["psi_state"], rng=rng)
    if kind == "secret_qubit":
        return qgames.secret_share_qubit(inp["psi_state"], rng=rng)
    if kind == "secret_qutrit":
        return qgames.secret_share_qutrit(inp["psi_state"], inp["pair"])
    if kind.startswith("telepathy"):
        return qgames.pseudo_telepathy_round(inp["x"], rng=rng)
    if kind == "card":
        return qgames.card_game_round(inp["deal"], draw=inp["draw"], rng=rng)
    if kind == "newcomb":
        return qgames.newcomb_play(inp["sb"], inp["w"])
    if kind == "spinflip":
        return qgames.spin_flip_play(*inp["gates"], rng=rng)
    if kind == "clone":
        return density.uqcm_clone(inp["psi_state"])
    raise ValueError(f"unknown op kind {kind}")


# ---------------------------------------------------------------------------
# independent references


def ewl_reference(mats: np.ndarray, row: np.ndarray, col: np.ndarray):
    """Payoff tables of J^dag (U_a x U_b) J |00> for every move pair, in one einsum."""
    xx = np.kron(GATES["X"], GATES["X"])
    j = (np.eye(4) + 1j * xx) / math.sqrt(2)
    phi = j[:, 0].reshape(2, 2)
    out = np.einsum("aij,bkl,jl->abik", mats, mats, phi).reshape(len(mats), len(mats), 4)
    final = np.einsum("ps,abs->abp", j.conj().T, out)
    probs = np.abs(final) ** 2
    return probs @ row.reshape(4), probs @ col.reshape(4)


def nash_reference(a: np.ndarray, b: np.ndarray, tol=1e-9) -> list[tuple[int, int]]:
    ok = (a >= a.max(axis=0, keepdims=True) - tol) & (b >= b.max(axis=1, keepdims=True) - tol)
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(ok))]


def pareto_reference(a: np.ndarray, b: np.ndarray, tol=1e-9):
    pa, pb = a.reshape(-1, 1, 1), b.reshape(-1, 1, 1)   # every other cell
    ge_a, ge_b = pa >= a - tol, pb >= b - tol
    gt_a, gt_b = pa > a + tol, pb > b + tol
    dominated = (ge_a & ge_b & (gt_a | gt_b)).any(axis=0)
    optimal = ~((gt_a & ge_b) | (gt_b & ge_a)).any(axis=0)
    return dominated, optimal


def ess_reference(a: np.ndarray, i: int, j: int, eta: float):
    def gap(s):
        return ((1 - s) * a[i, i] + s * a[i, j]) - ((1 - s) * a[j, i] + s * a[j, j])

    eps = 1e-9
    if gap(eps) <= 0.0:
        barrier = 0.0
    elif gap(1 - eps) > 0.0:
        barrier = 1.0
    else:
        d0, d1 = a[i, i] - a[j, i], a[i, j] - a[j, j]
        barrier = d0 / (d0 - d1)
    fit_i = (1 - eta) * a[i, i] + eta * a[i, j]
    fit_j = (1 - eta) * a[j, i] + eta * a[j, j]
    return gap(eta) > 0.0, barrier, fit_i, fit_j


def bloch(rho: np.ndarray) -> np.ndarray:
    return np.array([np.trace(rho @ p).real for p in PAULIS])


def check_table(inp, out) -> None:
    table = out["table"]
    ref_a, ref_b = ewl_reference(inp["mats"], inp["row"], inp["col"])
    require_close(table.payoff_row, ref_a, TOL, "EWL row payoffs")
    require_close(table.payoff_col, ref_b, TOL, "EWL column payoffs")
    if inp["game"] == "pd" and inp["labels"] == ("I", "X", "Z", "H"):
        order = [0, 1, 3, 2]  # golden order is I, X, H, Z
        require_close(table.payoff_row[np.ix_(order, order)], PD_FOUR_MOVES["row"], TOL,
                      "PD 4-move golden (row)")
        require_close(table.payoff_col[np.ix_(order, order)], PD_FOUR_MOVES["col"], TOL,
                      "PD 4-move golden (column)")
    a, b = np.asarray(table.payoff_row), np.asarray(table.payoff_col)
    require(list(out["nash"]) == nash_reference(a, b), f"pure Nash {out['nash']}")
    dominated, optimal = pareto_reference(a, b)
    flags = out["pareto"]
    require(np.array_equal(flags.jointly_dominated, dominated), "joint-domination flags")
    require(np.array_equal(flags.pareto_optimal, optimal), "Pareto-optimal flags")
    if "ess" in out:
        stable, barrier, fit_i, fit_j = ess_reference(a, *inp["ess"])
        res = out["ess"]
        require(bool(res.stable) == stable, f"ESS stable {res.stable}")
        require_close((res.fitness_incumbent, res.fitness_mutant), (fit_i, fit_j), TOL,
                      "ESS fitnesses")
        require_close(res.invasion_barrier, barrier, 2e-6, "ESS invasion barrier")


def logged_state(report) -> np.ndarray:
    """The last state in a report's transcript."""
    states = [entry["state"] for entry in report.transcript if "state" in entry]
    require(bool(states), "no state in the transcript")
    return np.array([complex(re, im) for re, im in states[-1]])


def recoverer_index(pair: str) -> int:
    """Of the two members, the one whose cyclic successor (alice, bob, gerald) is the other."""
    order = ("alice", "bob", "gerald")
    x, y = (order.index(member) for member in pair.split(","))
    return x if (x + 1) % 3 == y else y


def check_recovered(report, psi: np.ndarray, holder: int | None, what: str) -> None:
    """The last transcript state holds psi: on its own, or on subsystem `holder` of three."""
    state = logged_state(report)
    if holder is None:
        require(state.size == psi.size, f"{what}: recovered state has {state.size} amplitudes")
        fidelity = abs(np.vdot(psi, state)) ** 2
    else:
        dim = psi.size
        require(state.size == dim**3, f"{what}: final state has {state.size} amplitudes")
        rows = np.moveaxis(state.reshape(dim, dim, dim), holder, 0).reshape(dim, -1)
        fidelity = float((psi.conj() @ rows @ rows.conj().T @ psi).real)
    require_close(fidelity, 1.0, LOG_TOL, f"{what}: recovered state vs secret")


def check(op: Op, inp, out) -> None:
    kind = op.kind
    if kind in ("table4", "table16"):
        check_table(inp, out)
    elif kind == "teleport":
        check_recovered(out, inp["psi"], None, "teleport")
        require_close(out.params["recovery_fidelity"], 1.0, TOL, "teleport fidelity")
        require(out.outcome in ("b0", "b1", "b2", "b3"), f"outcome {out.outcome}")
    elif kind == "secret_qubit":
        check_recovered(out, inp["psi"], None, "qubit sharing")
        require_close(out.params["recovery_fidelity"], 1.0, TOL, "qubit sharing fidelity")
        require(out.params["gerald_offdiag_given_alice_only"] < TOL, "Alice's message leaks phase")
        require(out.params["gerald_deviation_from_mixed_given_bob_only"] < TOL,
                "Bob's message leaks the state")
        require_close((out.probabilities["bell"], out.probabilities["bob"]), (0.25, 0.5), TOL,
                      "branch weights")
    elif kind == "secret_qutrit":
        check_recovered(out, inp["psi"], recoverer_index(inp["pair"]), "qutrit sharing")
        require_close(out.params["recovery_fidelity"], 1.0, TOL, "qutrit sharing fidelity")
        require_close(out.params["recoverer_purity"], 1.0, TOL, "recovered purity")
        require_close(out.params["share_mixedness_deviation"], [0.0] * 3, TOL, "single shares")
    elif kind.startswith("telepathy"):
        y, win = out
        x = inp["x"]
        require(len(y) == len(x) and set(y) <= {0, 1}, f"outputs {y}")
        require(win and sum(y) % 2 == (sum(x) // 2) % 2, f"lost with x={x}, y={y}")
    elif kind == "card":
        deal, draw = inp["deal"], inp["draw"]
        majority = 1 if sum(deal) >= 2 else 0
        if deal[draw] != majority:
            expected, bob = "withdraw", 0.0
        else:
            expected, bob = ("bob-wins", 1.0) if draw == 2 else ("alice-wins", -1.0)
        require(out.outcome == expected, f"card outcome {out.outcome}, expected {expected}")
        require(out.payoffs["Bob"] == bob, f"Bob paid {out.payoffs['Bob']}")
    elif kind == "newcomb":
        sb = inp["sb"]
        require_close(out.payoffs["Alice"], 1_000_000.0 if sb == 0 else 1_000.0, 1e-6,
                      "Newcomb payoff")
        label = f"|{sb}{sb}>"
        require_close(out.probabilities.get(label, 0.0), 1.0, TOL, f"P({label})")
    elif kind == "spinflip":
        u0, u1, u2 = inp["moves"]
        amps = u2 @ u1 @ u0 @ np.array([1, 0], dtype=complex)
        probs = np.abs(amps) ** 2
        require_close((out.probabilities["u"], out.probabilities["d"]), probs, TOL,
                      "spin-flip probabilities")
        require(out.payoffs["Alice"] == (1.0 if out.outcome == "d" else -1.0), "spin-flip payoff")
    elif kind == "clone":
        psi = inp["psi"]
        r_in = bloch(np.outer(psi, psi.conj()))
        expected = 0.5 * (np.eye(2) + sum(c * p for c, p in zip(r_in * 2 / 3, PAULIS)))
        require_close(out.clone.entries, expected, TOL, "clone density matrix")
        require_close((out.fidelity, out.eta), (5 / 6, 2 / 3), TOL, "cloning fidelity and shrink")


# ---------------------------------------------------------------------------
# host-speed probe


def transcript_task():
    """Probe task: a loop that builds small dicts and lists, like a transcript."""
    def task():
        log = []
        for i in range(300):
            entry = {"step": i, "state": [(float(i), 0.0), (0.5, float(i))]}
            log.append(entry)
            sorted(entry)
    return task


def small_numpy_task():
    """Probe task: a chain of 4x4 matrix-vector products, per-call overhead bound."""
    small = haar_unitary(4, np.random.default_rng(0))
    vec = np.ones(4, dtype=complex)

    def task():
        v = vec
        for _ in range(150):
            v = small @ v
    return task


def host_probe():
    """Interpreter-bound work with small numpy calls, like this workload's ops,
    plus a 2 MiB contraction for the memory side: a transcript-like loop over
    small dicts and lists, a chain of 4x4 matvecs, the table references on
    the PD I, X, Z, H table, and a gate contraction."""
    mats = np.array([GATES[label] for label in ("I", "X", "Z", "H")])
    row, col = np.array(PD["row"], float), np.array(PD["col"], float)

    def tables():
        for _ in range(2):
            a, b = ewl_reference(mats, row, col)
            nash_reference(a, b)
            pareto_reference(a, b)

    return HostProbe((
        (350_000, transcript_task()),
        (300_000, small_numpy_task()),
        (200_000, tables),
        (600_000, contraction_task()),
    ))


# One op of every kind.
WARM_UP = tuple(Op(kind, i) for i, (kind, _) in enumerate(CYCLE))
