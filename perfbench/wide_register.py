"""wide-register: seeded random circuits and Grover searches on wide registers.

`qstate.apply` does nearly all of the work, at state sizes from 1 MiB (2^16
amplitudes, inside L2) to 16 MiB (2^20, inside L3).  A circuit op applies
1- and 2-subsystem Haar gates on leading, middle, trailing and non-adjacent
(reversed) targets, takes one mid-circuit `measure` of the intermediate state,
and ends with the inverse circuit.  A Grover op is `grover_search` at
n = 14-16; its dense trajectory is what `peak_rss_mib` sees.  Grover at
n = 18 and 20 is left out: its projected 1.6 GiB and 12.6 GiB trajectories
would exhaust an 8 GiB machine.

Checks do not read the program's sample stream: the intermediate state must
match the forward circuit computed independently in numpy (one tensordot per
gate, targets in the given order), the circuit and its inverse must return
to the start state, the measured branch's probability must match the
marginal of that numpy reference whichever branch was drawn, and every
Grover trajectory state must match the closed form
sin((2j+1)theta) / cos((2j+1)theta)/sqrt(N-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from common import array_probe, haar_unitary, require, require_close
from qugame import qalgo, qstate
from qugame.rng import RandomSource

NAME = "wide-register"

REGISTERS = {
    "q16": (2,) * 16,
    "q18": (2,) * 18,
    "q20": (2,) * 20,
    "t12": (3,) * 12,
    "q8t7": (2,) * 8 + (3,) * 7,
}
# Op-kind counts per 20-op cycle.  Sorted by latency (reference machine):
# q16 ~7 ms, Grover 14 ~18 ms, q18 ~37 ms, Grover 15 ~65 ms (0-45%), then
# 3^12 and 2^8*3^7 at ~85 ms (45-75%, holds p50), q20 ~195 ms (75-95%,
# holds p90) and one Grover 16 at ~210 ms, so no cut falls between modes.
CYCLE = (
    ("circuit", "q16", 3), ("grover", 14, 2),
    ("circuit", "q18", 2), ("grover", 15, 2),
    ("circuit", "t12", 3), ("circuit", "q8t7", 3),
    ("circuit", "q20", 4),
    ("grover", 16, 1),
)
TOL = 1e-9

@dataclass(frozen=True)
class Op:
    kind: str            # "circuit" or "grover"
    param: object        # register name, or Grover n
    seed: int

    @property
    def label(self) -> str:
        return f"{self.kind}-{self.param}"


def cycles(seed: int):
    gen = np.random.default_rng([seed, 1])
    template = [(kind, param) for kind, param, count in CYCLE for _ in range(count)]
    while True:
        order = gen.permutation(len(template))
        yield [Op(*template[i], int(gen.integers(2**63))) for i in order]


def circuit_layout(dims: tuple, gen: np.random.Generator) -> list[tuple[int, ...]]:
    """Targets: leading, middle pair, trailing, non-adjacent pair reversed."""
    n = len(dims)
    mid = n // 2 - 1 + int(gen.integers(2))
    low = int(gen.integers(0, n // 2 - 1))
    high = int(gen.integers(n // 2 + 1, n))
    return [(0,), (mid, mid + 1), (n - 1,), (high, low)]


def prepare(op: Op):
    gen = np.random.default_rng(op.seed)
    if op.kind == "grover":
        n = op.param
        return {"n": n, "target": int(gen.integers(1 << n))}
    dims = REGISTERS[op.param]
    size = math.prod(dims)
    amps = gen.standard_normal(size) + 1j * gen.standard_normal(size)
    amps /= np.linalg.norm(amps)
    gates = []
    for targets in circuit_layout(dims, gen):
        u = haar_unitary(math.prod(dims[t] for t in targets), gen)
        gates.append((targets, u, qstate.UnitaryMatrix(u), qstate.UnitaryMatrix(u.conj().T)))
    return {
        "dims": dims,
        "start": qstate.StateVector(dims, amps),
        "gates": gates,
        "measure_target": int(gen.integers(len(dims))),
        "rng": RandomSource(int(gen.integers(2**31))),
    }


def run(op: Op, inp):
    if op.kind == "grover":
        return qalgo.grover_search(inp["n"], inp["target"])
    state = inp["start"]
    for targets, _, u, _ in inp["gates"]:
        state = qstate.apply(state, u, targets)
    record = qstate.measure(state, targets=[inp["measure_target"]], rng=inp["rng"])
    middle = state
    for targets, _, _, u_dag in reversed(inp["gates"]):
        state = qstate.apply(state, u_dag, targets)
    return {"middle": middle, "record": record, "final": state}


def apply_reference(psi: np.ndarray, u: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """u on the targets of the register tensor psi; the first target is the leading index."""
    k = len(targets)
    target_dims = tuple(psi.shape[t] for t in targets)
    out = np.tensordot(u.reshape(target_dims * 2), psi, axes=(list(range(k, 2 * k)), targets))
    return np.moveaxis(out, list(range(k)), targets)


def forward_reference(inp) -> np.ndarray:
    psi = inp["start"].amps.reshape(inp["dims"])
    for targets, u, _, _ in inp["gates"]:
        psi = apply_reference(psi, u, targets)
    return psi.reshape(-1)


def marginal(amps: np.ndarray, dims: tuple, target: int) -> np.ndarray:
    probs = (np.abs(amps) ** 2).reshape(dims)
    other = tuple(i for i in range(len(dims)) if i != target)
    return probs.sum(axis=other)


def check_circuit(inp, out) -> None:
    reference = forward_reference(inp)
    middle = out["middle"]
    require(middle.dims == inp["dims"], f"intermediate dims {middle.dims}")
    require_close(middle.amps, reference, TOL, "circuit vs numpy reference")
    final = out["final"]
    require(final.dims == inp["dims"], f"final dims {final.dims}")
    require_close(final.amps, inp["start"].amps, TOL, "circuit + inverse vs start state")
    record = out["record"]
    target = inp["measure_target"]
    p = marginal(reference, inp["dims"], target)
    require(0 <= record.outcome_index < p.size, f"outcome {record.outcome_index} out of range")
    require_close(record.probability, p[record.outcome_index], TOL,
                  f"measure probability of outcome {record.outcome_index}")


def grover_expected(n: int, j: int) -> tuple[float, float]:
    N = 1 << n
    theta = math.asin(1.0 / math.sqrt(N))
    angle = (2 * j + 1) * theta
    return math.sin(angle), math.cos(angle) / math.sqrt(N - 1)


def check_grover(inp, run_) -> None:
    n, a = inp["n"], inp["target"]
    N = 1 << n
    theta = math.asin(1.0 / math.sqrt(N))
    k = math.floor(math.pi / (4.0 * theta))  # nearest integer to pi/(4 theta) - 1/2
    require(run_.k == k, f"k = {run_.k}, expected {k}")
    require(len(run_.trajectory) == k + 1, f"trajectory length {len(run_.trajectory)}")
    for j, state in enumerate(run_.trajectory):
        on, off = grover_expected(n, j)
        amps = state.amps
        require(abs(amps[a] - on) <= TOL, f"step {j}: target amplitude {amps[a]} vs {on}")
        deviation = np.abs(amps - off)
        deviation[a] = 0.0
        require(float(deviation.max()) <= TOL, f"step {j}: off-target deviation {deviation.max():.3e}")
    require_close(run_.success_probability, grover_expected(n, k)[0] ** 2, TOL,
                  "success probability")


def check(op: Op, inp, out) -> None:
    if op.kind == "grover":
        check_grover(inp, out)
    else:
        check_circuit(inp, out)


host_probe = array_probe


# One op of each of the two largest kinds: faults in the 16 MiB states.
WARM_UP = (Op("circuit", "q20", 7), Op("grover", 16, 7))
