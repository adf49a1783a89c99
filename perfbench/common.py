"""Run loop, statistics, environment record and result line of the qugame benchmark.

A run is a single-process closed loop with one client: the next op starts
only after the previous one has returned and been checked.  Ops come in
cycles whose op-kind shares are fixed by the workload, so the seed changes
the inputs but never the mix.  Only the program calls inside an op are
timed; input generation and output checks run between ops, untimed.

Timings are reported at a reference host speed.  A shared host's speed
drifts by tens of percent within seconds, and not by the same amount for
interpreter-bound and memory-bound code.  So between ops the run times the
workload's probe, fixed tasks of the benchmark's own that do the same kinds
of work as the workload's ops, and divides each op's wall time by how much
slower than their reference times the tasks ran around it.  The program
never runs inside a probe, so a change to the program moves the scaled
figures as it moves the wall times.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS thread: on the reference machine (2 vCPUs on a shared host) a
# single-threaded gemm is the steadier baseline.  Set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# p90 needs at least 10 samples beyond it.
MIN_OPS = 100
# Hard stop well inside the 180 s a run may take.
MAX_RUN_S = 120.0
# Set-up (input generation and warm-up, in-process) is short, and a slow spell
# of the machine can cover all of it.  So it is repeated at least WARM_UP_REPS
# times and for at least SETUP_MIN_S, and the median reported.  Fresh-process
# imports are sampled in traced runs only, as a per-layer figure.
WARM_UP_REPS = 5
SETUP_MIN_S = 2.0
IMPORT_REPS = 7
# Host-speed probe: re-timed at the start of every cycle and before any op
# that comes PROBE_EVERY_S or more after the last probe.  Each task counts
# with its best of PROBE_REPS, so an interrupt does not read as a slow host.
PROBE_EVERY_S = 0.5
PROBE_REPS = 5


def pin_blas_threads() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def child_env() -> dict:
    """Environment for child Python processes: the checkout's sources, pinned BLAS.

    Children may write bytecode caches (into src/qugame/__pycache__), as an
    installed package has them; otherwise every cold start would also pay
    for compiling the package, and only where PYTHONDONTWRITEBYTECODE is set.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


def import_program():
    """Import qugame from this checkout's src/, never from anywhere else."""
    if not (SRC / "qugame" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'qugame'}")
    sys.path.insert(0, str(SRC))
    import qugame
    from qugame import cgame, cli, density, qalgo, qgames, qstate, rng, verify

    if Path(qugame.__file__).resolve().parent != (SRC / "qugame").resolve():
        raise SystemExit(f"perfbench: imported qugame from {qugame.__file__}, not {SRC}")
    return {
        "qstate": qstate,
        "rng": rng,
        "qalgo": qalgo,
        "cgame": cgame,
        "qgames": qgames,
        "density": density,
        "verify": verify,
        "cli": cli,
    }


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_close(actual, expected, tol: float, what: str) -> None:
    import numpy as np

    a = np.asarray(actual)
    e = np.asarray(expected)
    require(a.shape == e.shape, f"{what}: shape {a.shape} vs {e.shape}")
    worst = float(np.max(np.abs(a - e))) if a.size else 0.0
    require(worst <= tol, f"{what}: deviation {worst:.3e} > {tol:.0e}")


def haar_unitary(dim: int, gen):
    """Haar-random unitary from a numpy Generator (QR with the phases fixed)."""
    import numpy as np

    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class HostProbe:
    """A workload's host-speed probe: fixed tasks of the benchmark's own.

    Each task comes with a reference time, a round figure within the range
    its best of PROBE_REPS takes on the reference machine (2 vCPUs of a
    2.0 GHz Xeon).  A reading is the geometric mean over the tasks of best
    time / reference time: 1 when the host runs at the reference speed, 2
    when it runs at half of it.  Scaled timings read as if taken at
    reading 1.
    """

    def __init__(self, tasks):
        self.tasks = tuple(tasks)  # (reference ns, callable)

    def reading(self) -> float:
        log_sum = 0.0
        for ref_ns, task in self.tasks:
            best = None
            for _ in range(PROBE_REPS):
                t0 = time.perf_counter_ns()
                task()
                elapsed = time.perf_counter_ns() - t0
                best = elapsed if best is None else min(best, elapsed)
            log_sum += math.log(best / ref_ns)
        return math.exp(log_sum / len(self.tasks))

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from wall time to reference time, for work between two readings."""
        return 2.0 / (before + after)


def interpreter_task():
    """Probe task: a pure-Python integer loop."""
    def task():
        acc = 0
        for i in range(3000):
            acc += i * i % 7
    return task


def contraction_task():
    """Probe task: a 2-qubit gate applied to middle targets of a 2^17-amplitude
    (2 MiB) tensor, and the targets moved to the front.

    It writes into a preallocated buffer and its arrays stay under the 4 MiB
    at which numpy asks for transparent huge pages.  Page faults, and whether
    the kernel granted huge pages to this process, would otherwise set the
    reading more than the host's speed does.
    """
    import numpy as np

    gen = np.random.default_rng(0)
    gate = haar_unitary(4, gen)
    tensor = (gen.standard_normal(1 << 17) + 0j).reshape(8, 4, 1 << 12)
    out = np.empty_like(tensor)
    moved = np.empty((4, 8, 1 << 12), dtype=complex)

    def task():
        np.matmul(gate, tensor, out=out)
        np.copyto(moved, out.transpose(1, 0, 2))  # the axis move that tensordot makes
    return task


def sampling_task():
    """Probe task: a cumulative sum over 2^18 weights (2 MiB) into a
    preallocated buffer, and a search in it."""
    import numpy as np

    weights = np.random.default_rng(0).random(1 << 18)
    sums = np.empty_like(weights)

    def task():
        np.cumsum(weights, out=sums)
        np.searchsorted(sums, weights[:64] * sums[-1])
    return task


def array_probe() -> HostProbe:
    """Probe of wide-register and period-finding: a Python loop and numpy passes
    over 2 MiB arrays, like their gate contractions, spectrum builds,
    continued fractions and sampling."""
    return HostProbe((
        (300_000, interpreter_task()),
        (600_000, contraction_task()),
        (1_150_000, sampling_task()),
    ))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def fresh_process_ms(code: str, reps: int) -> list[float]:
    """Wall time of `python -c code` in fresh processes, one at a time."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def import_ms_samples() -> list[float]:
    return fresh_process_ms("import qugame.cli", IMPORT_REPS)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    l3 = None
    l3_path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if l3_path.is_file():
        l3 = l3_path.read_text().strip()
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "ram_gib": round(ram / 2**30, 2),
        "l3": l3,
        "machine": platform.machine(),
        "note": "a 2^20 state is 16 MiB, under 4x the LLC, so apply bytes are "
        "labelled computed (32 B/amp/call) and no bandwidth ratio is claimed",
    }


@dataclass(slots=True)
class OpRecord:
    kind: str           # the op's label, e.g. "circuit-q20"
    ns: int             # wall time of the program calls
    ok: bool            # returned and passed its check
    cycle: int
    detail: str | None  # why it failed
    evidence: object    # what the workload's check returned, for its run-wide check
    scale: float = 1.0  # 1 / the host probe's reading around the op

    @property
    def scaled_ns(self) -> float:
        """Wall time scaled to the reference host speed."""
        return self.ns * self.scale


def run_cycles(workload, seed: int, seconds: float, tracer=None):
    """Run whole cycles until `seconds` have passed and MIN_OPS ops are done.

    With a tracer, even cycles run traced and odd cycles untraced, so one run
    yields both the layer spans and the tracing overhead.  Each op is scaled
    by the mean of the host probes taken just before and just after it.
    """
    records: list[OpRecord] = []
    probe = workload.host_probe()
    probes: list[tuple[int, float]] = []  # (index of the next op, probe reading)
    t_probe = 0.0
    t_start = time.perf_counter()
    op_id = 0
    for cycle_index, cycle in enumerate(workload.cycles(seed)):
        elapsed = time.perf_counter() - t_start
        if (elapsed >= seconds and len(records) >= MIN_OPS) or elapsed >= MAX_RUN_S:
            break
        traced = tracer is not None and cycle_index % 2 == 0
        if traced:
            tracer.install()
        try:
            for op_index, op in enumerate(cycle):
                inputs = workload.prepare(op)
                if op_index == 0 or time.perf_counter() - t_probe >= PROBE_EVERY_S:
                    probes.append((len(records), probe.reading()))
                    t_probe = time.perf_counter()
                if traced:
                    tracer.begin_op(op_id, op.kind)
                t0 = time.perf_counter_ns()
                try:
                    output = workload.run(op, inputs)
                    error = None
                except Exception as exc:  # an op that raises is a failed op
                    output, error = None, f"{type(exc).__name__}: {exc}"
                ns = time.perf_counter_ns() - t0
                if traced:
                    tracer.end_op()
                evidence = None
                if error is None:
                    try:
                        evidence = workload.check(op, inputs, output)
                    except CheckFailed as exc:
                        error = str(exc)
                records.append(OpRecord(op.label, ns, error is None, cycle_index, error,
                                        evidence))
                op_id += 1
                del inputs, output
        finally:
            if traced:
                tracer.uninstall()
    probes.append((len(records), probe.reading()))
    apply_probes(records, probes)
    return records


def apply_probes(records, probes) -> None:
    """Set each record's scale from the probe readings on either side of it.

    `probes` holds (index of the first record after the reading, reading) in
    run order and ends with a reading after the last record.
    """
    for (start, before), (end, after) in zip(probes, probes[1:]):
        scale = HostProbe.scale(before, after)
        for r in records[start:end]:
            r.scale = scale


def ops_per_s(records, scaled: bool = True) -> float:
    total_ns = sum(r.scaled_ns if scaled else r.ns for r in records)
    return sum(r.ok for r in records) / (total_ns / 1e9) if total_ns else 0.0


def by_cycle(records) -> list[list[OpRecord]]:
    cycles: dict[int, list[OpRecord]] = {}
    for r in records:
        cycles.setdefault(r.cycle, []).append(r)
    return list(cycles.values())


def blocks(records) -> list[list[OpRecord]]:
    """Consecutive whole cycles grouped into blocks of at least MIN_OPS ops."""
    out: list[list[OpRecord]] = []
    current: list[OpRecord] = []
    for cycle in by_cycle(records):
        current.extend(cycle)
        if len(current) >= MIN_OPS:
            out.append(current)
            current = []
    if current:
        if out:
            out[-1].extend(current)
        else:
            out.append(current)
    return out


def timings(records, scaled: bool = True) -> dict:
    """Throughput is the median over cycles, latency percentiles the median over
    blocks of at least MIN_OPS ops, so that a spell in which the host runs
    slow for a few seconds, which the probe scaling may not fully cancel,
    does not move a whole run.  With scaled=False, the plain wall times."""
    ms = [[(r.scaled_ns if scaled else r.ns) / 1e6 for r in block] for block in blocks(records)]
    return {
        "ops_per_s": median([ops_per_s(c, scaled) for c in by_cycle(records)]),
        "op_p50_ms": median([percentile(b, 50) for b in ms]),
        "op_p90_ms": median([percentile(b, 90) for b in ms]),
    }


def end_to_end(records, setup_s: float, peak_rss_mib: float, attempted: int, failed: int) -> dict:
    scaled = timings(records)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": scaled["ops_per_s"], "unit": "ops/s"},
        "op_p50_ms": {"value": scaled["op_p50_ms"], "unit": "ms"},
        "op_p90_ms": {"value": scaled["op_p90_ms"], "unit": "ms"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ok/attempted"},
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def median(values) -> float:
    return float(statistics.median(values))


def failures_summary(records, limit: int = 5) -> list[str]:
    return [f"{r.kind}: {r.detail}" for r in records if not r.ok][:limit]


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def write_spans(path: Path, spans: list) -> None:
    """Spans as [name, start_ns, end_ns, parent_index, op_id, extra], gzipped JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump(spans, fh, separators=(",", ":"))
