"""Seeded streams and output bytes, pinned by SHA-256.

Each stochastic public entry point runs a fixed, seeded call list, and every
output it returns is hashed as exact bytes: amplitudes and probabilities as
float64 bytes, transcripts and reports as canonical JSON (sorted keys, floats
written by `repr`, so a last-bit change shows), CLI text as printed.  The
digests were recorded from the program on x86-64 (numpy 2.4, OpenBLAS), so
they are a tripwire, not an oracle: a failing row says that some output bit
moved, not which value is right.  Editing a digest is a stream change and is
logged in CHANGES.md with the values that moved.

    PYTHONPATH=src python tests/test_streams.py

prints every row's current digest in the tables' own layout, marking the rows
that differ from the recorded ones, so that only those are re-recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import struct

import numpy as np
import pytest

from conftest import haar_unitary, random_state
from qugame import cli, qalgo, qgames, qstate
from qugame.rng import RandomSource


def _float(x) -> bytes:
    return struct.pack("<d", float(x))


def _amps(state) -> bytes:
    return b"none" if state is None else np.ascontiguousarray(state.amps).tobytes()


def _json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _record(record) -> bytes:
    return b"|".join((str(record.outcome_index).encode(), _float(record.probability),
                      _amps(record.residual)))


# ---------------------------------------------------------------------------
# call lists: each yields the bytes of every output, in call order


def _measure():
    gen = np.random.default_rng([11, 1])
    rng = RandomSource(1)
    cases = [((2,), None), ((2, 2), None), ((2, 2, 2), None), ((3, 2), None),
             ((2, 2, 2), (1,)), ((2, 2, 2), (2, 0)), ((2, 3, 2), (0, 2)), ((2,) * 5, None),
             ((2,) * 6, (3, 4)), ((2,) * 12, None), ((3, 3, 3), (1,))]
    for dims, targets in cases:
        state = random_state(dims, gen)
        for _ in range(4):
            yield _record(qstate.measure(state, targets=targets, rng=rng))
        yield _record(qstate.measure(state, targets=targets, force=0))
    # a basis measurement is its readout (rows: the conjugated basis vectors), then measure
    bell = qstate.bell_basis(2)
    bell_readout = qstate.UnitaryMatrix(np.array([b.amps for b in bell]).conj())
    for _ in range(6):
        state = qstate.tensor(random_state((2,), gen), bell[3])
        state = qstate.apply(state, bell_readout, (0, 1))
        yield _record(qstate.measure(state, targets=(0, 1), rng=rng))
        u = haar_unitary(3, gen)  # the basis is u's columns, so its readout is u^dagger
        state = qstate.apply(random_state((2, 3), gen), u.dagger(), (1,))
        yield _record(qstate.measure(state, targets=(1,), rng=rng))


def _choice():
    gen = np.random.default_rng([11, 2])
    rng = RandomSource(2)
    sizes = list(range(1, 41)) + [64, 127, 128, 129, 1000, 4096]
    for size in sizes:
        for trial in range(3):
            weights = gen.random(size) * 10.0 ** gen.integers(-300, 300)
            weights[gen.random(size) < 0.3] = 0.0
            if trial == 2:
                weights[gen.random(size) < 0.2] = -1e-18  # tiny negative drift, clipped
            if not (weights > 0).any():
                weights[-1] = 1.0
            draws = [rng.choice(weights) for _ in range(5)]
            draws.append(rng.choice(weights.tolist()))
            yield np.array(draws, dtype=np.int64).tobytes()


def _order_find():
    rng = RandomSource(3)
    for N, m in ((15, 7), (21, 2), (35, 3), (77, 39), (899, 7), (1023, 2)):
        for _ in range(4):
            sample = qalgo.order_find(N, m, rng)
            yield _json([sample.observed_w, sample.register_width, sample.candidate_num,
                         sample.candidate_den, sample.collapsed_value])


def _shor_factor():
    for N in (15, 21, 35, 77, 91, 143, 323, 899):
        for seed in range(3):
            result = qalgo.shor_factor(N, RandomSource(seed))
            yield _json([result.factors, result.rounds, result.transcript])


def _rsa_demo():
    for (N, e, c), seed in (((77, 11, 67), 1), ((77, 11, 67), 4), ((143, 7, 5), 0),
                            ((323, 5, 100), 2)):
        result = qalgo.rsa_demo(N, e, c, RandomSource(seed))
        yield _json([result.p, result.q, result.phi, result.d, result.plaintext, result.rounds])


def _report(report) -> bytes:
    return _json(report.to_json_dict())


def _spin_flip_play():
    gen = np.random.default_rng([11, 3])
    rng = RandomSource(4)
    h, x = qstate.hadamard(), qstate.pauli_x()
    for _ in range(12):
        moves = [haar_unitary(2, gen) for _ in range(3)]
        yield _report(qgames.spin_flip_play(*moves, rng=rng))
    for alice in (qstate.identity(2), x):
        yield _report(qgames.spin_flip_play(h, alice, h, rng=rng))
        yield _report(qgames.spin_flip_play(x, alice, h, force=1))


def _card_game_round():
    rng = RandomSource(5)
    for b in (0, 1):
        for draw in (None, None, 0, 1, 2):
            yield _report(qgames.card_game_round((0, 1, b), draw=draw, rng=rng))


def _pseudo_telepathy_round():
    gen = np.random.default_rng([11, 4])
    rng = RandomSource(6)
    for n in range(2, 11):
        for _ in range(3):
            x = [int(b) for b in gen.integers(0, 2, n)]
            if sum(x) % 2:
                x[0] ^= 1
            y, win = qgames.pseudo_telepathy_round(x, rng=rng)
            yield _json([list(y), win])
    yield _json(list(qgames.pseudo_telepathy_round([1, 1, 0], force=1)))


def _teleport():
    gen = np.random.default_rng([11, 5])
    rng = RandomSource(7)
    for _ in range(8):
        yield _report(qgames.teleport(random_state((2,), gen), rng=rng))
    psi = qstate.StateVector([2], [0.6, 0.8j])
    for k in range(4):
        yield _report(qgames.teleport(psi, force=k))


def _secret_share_qubit():
    gen = np.random.default_rng([11, 6])
    rng = RandomSource(8)
    for _ in range(8):
        yield _report(qgames.secret_share_qubit(random_state((2,), gen), rng=rng))
    secret = qstate.StateVector([2], [0.6, 0.8])
    for k in range(4):
        for s in range(2):
            yield _report(qgames.secret_share_qubit(secret, force=(k, s)))


def _secret_share_qutrit():
    gen = np.random.default_rng([11, 7])
    for pair in ("alice,bob", "bob,gerald", "gerald,alice", "bob,alice"):
        for _ in range(2):
            yield _report(qgames.secret_share_qutrit(random_state((3,), gen), pair))
    secret = qstate.StateVector([3], [0.5, 0.5j, 1 / math.sqrt(2)])
    yield _report(qgames.secret_share_qutrit(secret, "bob,gerald"))


STREAMS = {
    "measure": (_measure,
        "2dcaf638480d010748879b6b52277521a0269f6fb56df5f29d26d2a203bb8f6f"),
    "choice": (_choice,
        "b1b1aae438ddedd018975bd12f66f790a5dab8860ad23b899c4388c3d7a403e5"),
    "order_find": (_order_find,
        "0de1e1a14c03787eab6ee410021c126fa299dcf43a9117855f5d1dea00614264"),
    "shor_factor": (_shor_factor,
        "2fd3e4e5be756dd22c0bcad9339e0a6dabce520ad5cd1de2090d11b98b6eabe7"),
    "rsa_demo": (_rsa_demo,
        "4f8179d1840950c95de5d319e0ca1b539db19c472bf89a3cd31d2a466935bb57"),
    "spin_flip_play": (_spin_flip_play,
        "f2ad6e30ddb26303dcad49f889e01c4218e005b9180d9a2397687077aee87a2c"),
    "card_game_round": (_card_game_round,
        "ccac177981eb829061340bfc21168cc08cb52fd40751a10a4a7371c71cc9079f"),
    "pseudo_telepathy_round": (_pseudo_telepathy_round,
        "cdb2774143c3b8209368f70b8859a97d0a578b5541526970fbfe763a0f9d9438"),
    "teleport": (_teleport,
        "8bddef96db05fdb2a8ad4911dddecdf301a584c3cfaf666d2c62ef47283bb6ee"),
    "secret_share_qubit": (_secret_share_qubit,
        "ae74ab711baddbfd55b7bd883414a9990f5f227485037714709253661596c3ca"),
    "secret_share_qutrit": (_secret_share_qutrit,
        "53a109c6d01e5ab701e3a5625f8f0592a277bf33796ed2dcc8c0dc1dade85419"),
}

# the 20 README commands, each with --format json
CLI_COMMANDS = {
    "grover --n 3 --target 5":
        "ad86e18b314ec85821b9273a7986448213293cc5aa9883dc1ef5541a1e99a2e5",
    "bv --n 5 --secret 19":
        "4bf15bfab936aaf89eb13900dc420dff395d8ef55ee2060b758e3c00db5fe7d4",
    "shor --N 77 --seed 1":
        "91bb86b4670b33a83795bf2be18a03c11cbe910c10a46df2c08db93cd872b146",
    "rsa --N 77 --e 11 --cipher 67 --seed 1":
        "35ea492aebc5191ff261640033cb16c538fec1481c099e957a0574069cfc3979",
    "spinflip --bob1 H --alice X --bob2 H":
        "e2ebbefdff983d94b7c0152e06f0cf328c15e024c5e6fb4b80d7ae5491b2fa1d",
    "guess --variant I --n 3 --secret 5":
        "5356c89b780dfff3d6a27151d0ad82cfc453211df6d0ec77a28a98f97b4aa5db",
    "pd --moves I,X,H,Z":
        "d7a7ffecaf6656b07f2a13dd3ad8cef3d1606bdff429e400d0fb774c755d0562",
    "bos --alpha 3 --beta 2 --gamma 1":
        "7124509cbfab578b4ef8a3a2c890c92b10c3cce0ec765021192f7f96bd605c1d",
    "newcomb --sb 1 --w 0.25 --coherent":
        "8341d3c0ab5cbfdc279b806981b76eb82b35161bbd1214c3d2d79e2cb6b32f4a",
    "ess --incumbent X --mutant H --eta 0.01":
        "ee413cd6e3858d1015439422e8a74f3cc9761bde4bb52b599d552ce07ff50a45",
    "card --flip 1 --draw 2":
        "ac688db43ed0449f21271401d1ea2eccd64bba4203c9ff7326bf93caa730f55f",
    "telepathy --inputs 1,1,0":
        "62f1781cffabe1622c8ab80f64416bc090d54bf5cfef0976ac56869f28c06d5c",
    "teleport --state 0.6,0.8j":
        "9cffe7a21be31f00bd66c88203624a2a515ed10788b14e164a6dd48196e82ae7",
    "secret-qubit --state 0.6,0.8":
        "8ccd8bc57747287bf992e6263f70b48ccf3d381d5082247603a5de30d993f71b",
    "secret-qutrit --state 0.5,0.5j,0.7071 --pair bob,gerald":
        "f03fa1a0844f38c3d51c736a6a9c88f78b2717f9f95ba4473afe1ad05d8099d8",
    "estimate --n-up 40 --n-down 60":
        "cb3494c803b94d476293cf81de7dabbe166c8a4226c1702d2809a0a788e61e3d",
    "discriminate --priors 0.5,0.5 --channel 0.9,0.2;0.1,0.8 --cost 1":
        "d47f1a103a26ebd7df92359e00bc2e5bbf0f882726488447868ff5cdbe8a51f9",
    "clone --state 1,0":
        "495435ca7d0250b136ee8ab4ee95886c25daf631f7b699bcfa501042e9c61506",
    "tables --game bos --moves I,X,H,Z":
        "2439ae20f017afdb2c2dd4bc2ec92b3e069de16cb4874ab4233d65480212407e",
    "verify":
        "d0d8a77de90451a62e6f5401f23988e4e1d96c25f894ddbf2901e7ac3c48b634",
}


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(hashlib.sha256(chunk).digest())  # one fixed-size link per output
    return digest.hexdigest()


@pytest.mark.parametrize("name", STREAMS)
def test_stream_digest(name):
    calls, expected = STREAMS[name]
    assert _sha256(calls()) == expected


def _cli_sha256(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split() + ["--format", "json"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_json_digest(command, monkeypatch):
    monkeypatch.delenv("QUGAME_SEED", raising=False)
    assert _cli_sha256(command) == CLI_COMMANDS[command]


if __name__ == "__main__":
    os.environ.pop("QUGAME_SEED", None)
    print("STREAMS = {")
    for name, (calls, recorded) in STREAMS.items():
        digest = _sha256(calls())
        print(f'    "{name}": ({calls.__name__},\n        "{digest}"),'
              + ("  # moved" if digest != recorded else ""))
    print("}\n\n# the 20 README commands, each with --format json\nCLI_COMMANDS = {")
    for command, recorded in CLI_COMMANDS.items():
        digest = _cli_sha256(command)
        print(f'    "{command}":\n        "{digest}",'
              + ("  # moved" if digest != recorded else ""))
    print("}")
