"""Layer timings of qstate, qalgo, rng, cgame, qgames, density, verify and the CLI for two package
versions, interleaved.

Each round starts one worker process per side (the base revision's `src/`,
extracted with `git archive`, and this checkout's `src/`), alternating which
side goes first, and every worker times the same rows:

* `apply` of a Haar gate at n = 2, 10, 16, 20 qubits on the leading qubit,
  the middle pair, the trailing qubit and a reversed non-adjacent pair, and of
  a 1-qubit gate on qubit 1 of 3 (a block of lead L = 2, a batched matmul) and
  on qubit 8 of 10 (L = 256, the operator folded over the trailing qubit);
* `measure` (forced outcome 0) at n = 20 on the same layouts and on a single
  middle qubit; the teleportation step on a 3-qubit register: the Bell-readout
  `apply` on qubits (0, 1) followed by their `measure`; and a sampled
  `measure` of a whole 2-qubit register;
* `tensor` of a 1-qubit and a 2-qubit state, and `GameReport.log` of a
  27-amplitude state;
* the public `StateVector` constructor at n = 2 and n = 20;
* `grover_search` at n = 14, 16, 18, 20 and 30, and at n = 14 and 16 the
  search followed by reading every trajectory state;
* the whole golden-table sweep, `verify.run_golden_checks()`;
* `order_find` at Q = 2^14, 2^18 and 2^20: a first build (every order-finding
  cache the side has cleared before each call: spectrum tables, sine tables,
  orders) and a repeat on the warm cache; at Q = 2^20 the pair (899, 7) has the odd
  order 105, and two more first builds have g = gcd(r, Q) = 2, (1023, 2) of
  order 10, and g = 4, (1007, 2) of order 468;
* `RandomSource.choice` over 4, 2^10 and 2^20 weights;
* `pareto_analysis` of 4x4, 16x16 and 256x256 tables;
* `card_game_round` (sampled), `pseudo_telepathy_round` (sampled) at N = 4, 10
  and 16 players, `secret_share_qubit` (sampled), `secret_share_qutrit`,
  `teleport` (sampled) and `uqcm_clone`;
* `density.reduced` of a 20-qubit state onto its 10 middle qubits (5..14);
* the CLI's `grover --n 20 --target 0` with table output, in process.

A row's time is the median per-call wall time over repeated batches inside a
worker (a call slower than SLOW_CALL_S is timed once), and its reported figure
the median over rounds. `peak_kib` is the tracemalloc peak of one call, taken
after the timing. Workers run with one BLAS thread.

    python benchmarks/layers.py --base HEAD~1 --rounds 5 --out BENCH.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BATCH_SECONDS = 0.05
BATCHES = 7
SLOW_CALL_S = 1.0


# (N, m) per register width 2n = 14, 18, 20 (orders 30, 198 and 105)
ORDER_PAIRS = {14: (77, 39), 18: (437, 2), 20: (899, 7)}


def layouts(n: int) -> dict[str, tuple[int, ...]]:
    mid = n // 2 - 1
    reversed_pair = (n - 1, 0) if n < 5 else (n - 3, 2)
    return {"leading": (0,), "middle-pair": (mid, mid + 1),
            "trailing": (n - 1,), "reversed": reversed_pair}


def rows():
    for n in (2, 10, 16, 20):
        for name, targets in layouts(n).items():
            yield {"layer": "apply", "n": n, "layout": name, "targets": list(targets)}
    for n, target in ((3, 1), (10, 8)):  # leads L = 2 and L = 256
        yield {"layer": "apply", "n": n, "layout": f"qubit {target}", "targets": [target]}
    measured = dict(layouts(20))
    measured["middle"] = (10,)
    for name, targets in measured.items():
        yield {"layer": "measure", "n": 20, "layout": name, "targets": list(targets)}
    yield {"layer": "measure", "n": 3, "layout": "bell", "targets": [0, 1]}
    yield {"layer": "measure", "n": 2, "layout": "full, sampled", "targets": None}
    yield {"layer": "tensor", "n": 3, "mode": "1 x 2 qubits"}
    yield {"layer": "GameReport.log", "n": 27, "mode": "amplitudes"}
    for n in (2, 20):
        yield {"layer": "StateVector", "n": n}
    for n in (14, 16):
        for mode in ("search", "search+read"):
            yield {"layer": "grover_search", "n": n, "mode": mode}
    for n in (18, 20):
        yield {"layer": "grover_search", "n": n, "mode": "search"}
    yield {"layer": "grover_search", "n": 30, "mode": "search"}
    yield {"layer": "verify", "n": 0, "mode": "run_golden_checks"}
    for n, pair in ORDER_PAIRS.items():
        for mode in ("first", "repeat"):
            yield {"layer": "order_find", "n": n, "mode": mode, "pair": list(pair)}
    for pair in ([1023, 2], [1007, 2]):  # g = 2 and g = 4
        yield {"layer": "order_find", "n": 20, "mode": "first", "pair": pair}
    for n in (2, 10, 20):
        yield {"layer": "choice", "n": n, "mode": f"{1 << n} weights"}
    for n in (4, 16, 256):
        yield {"layer": "pareto_analysis", "n": n, "mode": f"{n}x{n}"}
    yield {"layer": "card_game_round", "n": 3, "mode": "sampled"}
    for n in (4, 10, 16):
        yield {"layer": "pseudo_telepathy_round", "n": n, "mode": "sampled"}
    yield {"layer": "secret_share_qubit", "n": 4, "mode": "sampled"}
    yield {"layer": "secret_share_qutrit", "n": 3, "mode": "bob,gerald"}
    yield {"layer": "teleport", "n": 3, "mode": "sampled"}
    yield {"layer": "uqcm_clone", "n": 3, "mode": "complex qubit"}
    yield {"layer": "reduced", "n": 20, "mode": "keep 5..14", "keep": list(range(5, 15))}
    yield {"layer": "cli grover", "n": 20, "mode": "table"}


def call_for(row):
    """A zero-argument callable doing one call of the row's layer."""
    from qugame import cgame, cli, density, qalgo, qgames, qstate, verify  # the side's own src/
    from qugame.rng import RandomSource

    n = row["n"]
    if row["layer"] == "verify":
        return verify.run_golden_checks
    if row["layer"] == "order_find":
        N, m = row["pair"]
        rng = RandomSource(0)
        if row["mode"] == "repeat":
            qalgo.order_find(N, m, rng)
            return lambda: qalgo.order_find(N, m, rng)
        caches = [qalgo._comb_spectrum, qalgo._sines, qalgo.multiplicative_order]

        def first_build():
            for cache in caches:
                cache.cache_clear()
            qalgo.order_find(N, m, rng)
        return first_build
    if row["layer"] == "choice":
        weights = np.random.default_rng(n).random(1 << n)
        rng = RandomSource(0)
        return lambda: rng.choice(weights)
    if row["layer"] == "pareto_analysis":
        gen = np.random.default_rng(n)
        table = cgame.Bimatrix(range(n), range(n), gen.random((n, n)), gen.random((n, n)))
        return lambda: cgame.pareto_analysis(table)
    if row["layer"] == "card_game_round":
        rng = RandomSource(0)
        return lambda: qgames.card_game_round((0, 1, 1), rng=rng)
    if row["layer"] == "pseudo_telepathy_round":
        rng = RandomSource(0)
        x = (1, 1) + (0,) * (n - 2)
        return lambda: qgames.pseudo_telepathy_round(x, rng=rng)
    if row["layer"] == "secret_share_qubit":
        rng = RandomSource(0)
        secret = qstate.StateVector([2], [0.6, 0.8j])
        return lambda: qgames.secret_share_qubit(secret, rng=rng)
    if row["layer"] == "teleport":
        rng = RandomSource(0)
        psi = qstate.StateVector([2], [0.6, 0.8j])
        return lambda: qgames.teleport(psi, rng=rng)
    if row["layer"] == "uqcm_clone":
        psi = qstate.StateVector([2], [0.6, 0.8j])
        return lambda: density.uqcm_clone(psi)
    if row["layer"] == "secret_share_qutrit":
        secret = qstate.StateVector([3], [0.5, 0.5j, 0.5**0.5])
        return lambda: qgames.secret_share_qutrit(secret, "bob,gerald")
    if row["layer"] == "reduced":
        gen = np.random.default_rng(n)
        amps = gen.standard_normal(1 << n) + 1j * gen.standard_normal(1 << n)
        psi = qstate.StateVector((2,) * n, amps / np.linalg.norm(amps))
        return lambda: density.reduced(psi, row["keep"])
    if row["layer"] == "cli grover":
        argv = ["grover", "--n", str(n), "--target", "0"]

        def grover_table():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        return grover_table
    if row["layer"] == "grover_search" and row["mode"] == "search":
        return lambda: qalgo.grover_search(n, 3)
    if row["layer"] == "grover_search":
        def search_and_read():
            for _ in qalgo.grover_search(n, 3).trajectory:
                pass
        return search_and_read
    if row["layer"] in ("tensor", "GameReport.log"):
        gen = np.random.default_rng(n)
        unit = [gen.standard_normal(d) + 1j * gen.standard_normal(d) for d in (2, 4, 27)]
        one, two, three = (qstate.StateVector(dims, v / np.linalg.norm(v))
                           for dims, v in zip(((2,), (2, 2), (3, 3, 3)), unit))
        if row["layer"] == "tensor":
            return lambda: qstate.tensor(one, two)
        report = qgames.GameReport("layers", {})
        return lambda: (report.log("player", "move", three), report.transcript.clear())
    gen = np.random.default_rng(n)
    amps = gen.standard_normal(1 << n) + 1j * gen.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    dims = (2,) * n
    if row["layer"] == "StateVector":
        return lambda: qstate.StateVector(dims, amps)
    state = qstate.StateVector(dims, amps)
    if row["targets"] is None:
        rng = RandomSource(0)
        return lambda: qstate.measure(state, rng=rng)
    targets = tuple(row["targets"])
    if row["layout"] == "bell":  # rows of the readout are the conjugated Bell states
        readout = qstate.UnitaryMatrix(np.array([b.amps for b in qstate.bell_basis(2)]).conj())
        return lambda: qstate.measure(qstate.apply(state, readout, targets), targets=targets,
                                      force=0)
    if row["layer"] == "measure":
        return lambda: qstate.measure(state, targets=targets, force=0)
    z = gen.standard_normal((2, 2 ** len(targets), 2 ** len(targets)))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    u = qstate.UnitaryMatrix(q * (np.diag(r) / np.abs(np.diag(r))))
    return lambda: qstate.apply(state, u, targets)


def time_row(fn) -> float:
    """Median seconds per call over BATCHES batches of about BATCH_SECONDS each."""
    fn()
    start = time.perf_counter()
    fn()
    per_call = max(time.perf_counter() - start, 1e-7)
    if per_call > SLOW_CALL_S:
        return per_call
    number = max(1, int(BATCH_SECONDS / per_call))
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def peak_kib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def worker(side: str) -> None:
    out = []
    for row in rows():
        fn = call_for(row)
        out.append({"ms": time_row(fn) * 1e3, "peak_kib": peak_kib(fn)})
    json.dump(out, sys.stdout)


def run_side(side: str, src: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--worker", side], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summary(runs: list[list[dict]], i: int) -> tuple[float, float]:
    """Median time and largest peak of row i over a side's rounds."""
    return (round(statistics.median(r[i]["ms"] for r in runs), 5),
            round(max(r[i]["peak_kib"] for r in runs), 1))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="git revision of the parent side")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", help="JSON file to write (required)")
    parser.add_argument("--worker", choices=("parent", "change"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if args.out is None:
        parser.error("--out is required")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        runs = {"parent": [], "change": []}
        for k in range(args.rounds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                runs[side].append(run_side(side, sides[side]))
    table = []
    for i, row in enumerate(rows()):
        for side in ("parent", "change"):
            row[f"{side}_ms"], row[f"{side}_peak_kib"] = summary(runs[side], i)
        row["speedup"] = round(row["parent_ms"] / row["change_ms"], 2)
        table.append(row)
        where = row.get("layout", row.get("mode", ""))
        if "pair" in row:
            where += " {},{}".format(*row["pair"])
        print(f"{row['layer']:>13} n={row['n']:<2} {where:<11} "
              f"{row['parent_ms']:10.4f} -> {row['change_ms']:10.4f} ms  x{row['speedup']} "
              f"peak {row['parent_peak_kib']:.0f} -> {row['change_peak_kib']:.0f} KiB")
    base = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.base],
                          capture_output=True, text=True).stdout.strip()
    report = {
        "what": "qstate, qalgo, rng, cgame, qgames, density, verify and cli layer timings, "
                "parent vs change, interleaved worker processes",
        "parent": f"src/ of {base}",
        "change": "src/ of the checkout's working tree",
        "rounds": args.rounds,
        "unit": "ms per call, median over rounds of each worker's median batch",
        "host": {"cpu": cpu_model(), "machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count(), "blas_threads": 1},
        "rows": table,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
