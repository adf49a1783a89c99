"""The benchmark's own tests: negative controls, determinism, tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q

A perturbed amplitude, a wrong factor or a wrong table cell fed to a
workload's checker must fail, and the run loop must count such failures.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import types

import numpy as np
import pytest

import common

MODULES = common.import_program()

import cli_probe  # noqa: E402
import game_rounds  # noqa: E402
import once  # noqa: E402
import period_finding  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import wide_register  # noqa: E402
from qugame import qalgo, qgames, qstate  # noqa: E402

WORKLOADS = (wide_register, game_rounds, period_finding)


def first_ops(module, seed, cycles=3):
    return [op for cycle in itertools.islice(module.cycles(seed), cycles) for op in cycle]


def run_checked(module, op):
    inp = module.prepare(op)
    out = module.run(op, inp)
    module.check(op, inp, out)
    return inp, out


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_generator_is_deterministic_per_seed(module):
    assert first_ops(module, 11) == first_ops(module, 11)
    assert first_ops(module, 11) != first_ops(module, 12)


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_warm_up_ops_pass_their_checks(module):
    for op in module.WARM_UP:
        run_checked(module, op)


def test_workload_names_match_benchmark_json():
    with open(common.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(bench_run.WORKLOADS)
    assert {m.NAME for m in WORKLOADS} == set(bench_run.WORKLOADS)


# ---------------------------------------------------------------------------
# wide-register


def small_circuit():
    op = wide_register.Op("circuit", "q16", 5)
    return (op, *run_checked(wide_register, op))


def test_circuit_perturbed_amplitude_fails():
    op, inp, out = small_circuit()
    amps = out["final"].amps.copy()
    amps[123] += 1e-6
    bad = dict(out, final=types.SimpleNamespace(dims=out["final"].dims, amps=amps))
    with pytest.raises(common.CheckFailed, match="start state"):
        wide_register.check(op, inp, bad)


def test_circuit_with_identity_apply_fails(monkeypatch):
    op = wide_register.Op("circuit", "q16", 5)
    inp = wide_register.prepare(op)
    monkeypatch.setattr(qstate, "apply", lambda state, u, targets=None: state)
    out = wide_register.run(op, inp)
    with pytest.raises(common.CheckFailed, match="numpy reference"):
        wide_register.check(op, inp, out)


def test_circuit_with_swapped_targets_fails(monkeypatch):
    # The inverse is applied swapped too, so only the forward reference sees it.
    op = wide_register.Op("circuit", "q16", 5)
    inp = wide_register.prepare(op)
    original = qstate.apply
    monkeypatch.setattr(qstate, "apply",
                        lambda state, u, targets=None: original(state, u, targets[::-1]))
    out = wide_register.run(op, inp)
    common.require_close(out["final"].amps, inp["start"].amps, 1e-9, "round trip")
    with pytest.raises(common.CheckFailed, match="numpy reference"):
        wide_register.check(op, inp, out)


def test_circuit_wrong_measure_probability_fails():
    op, inp, out = small_circuit()
    bad = dict(out, record=dataclasses.replace(out["record"],
                                               probability=out["record"].probability + 1e-6))
    with pytest.raises(common.CheckFailed, match="measure probability"):
        wide_register.check(op, inp, bad)


def test_grover_perturbed_amplitude_fails():
    op = wide_register.Op("grover", 14, 3)
    inp, out = run_checked(wide_register, op)
    trajectory = list(out.trajectory)
    amps = trajectory[40].amps.copy()
    amps[(inp["target"] + 1) % amps.size] *= 1 + 1e-6
    trajectory[40] = types.SimpleNamespace(amps=amps)
    with pytest.raises(common.CheckFailed, match="step 40"):
        wide_register.check(op, inp, dataclasses.replace(out, trajectory=tuple(trajectory)))


# ---------------------------------------------------------------------------
# period-finding


def test_order_find_wrong_candidate_fails():
    op = period_finding.Op("first", 77, 39, 1)
    inp, sample = run_checked(period_finding, op)
    bad = dataclasses.replace(sample, candidate_den=sample.candidate_den + 1)
    with pytest.raises(common.CheckFailed, match="convergent"):
        period_finding.check(op, inp, bad)


def test_best_convergent_matches_program():
    for w, q, bound in [(0, 256, 15), (64, 256, 15), (1229, 2**14, 77), (5, 2**20, 1023)]:
        assert period_finding.best_convergent(w, q, bound) == qalgo.continued_fraction_best(
            w, q, bound)


def test_vectorised_convergents_match_scalar():
    gen = np.random.default_rng(5)
    for n in (15, 77, 221, 1007):
        q = 1 << period_finding.register_width(n)
        w = np.concatenate([[0, 1, q // 2, q - 1], gen.integers(0, q, 200)])
        assert list(period_finding.convergent_denominators(w, q, n)) == [
            period_finding.best_convergent(int(x), q, n)[1] for x in w]


@pytest.mark.parametrize("n, m", [(15, 2), (21, 2), (35, 3), (77, 39)])
def test_hit_probability_matches_brute_force(n, m):
    """Against |x>|m^x mod N>, an FFT over x, and the marginal over the right register."""
    q = 1 << period_finding.register_width(n)
    table = np.zeros((q, n))
    table[np.arange(q), [pow(m, x, n) for x in range(q)]] = 1 / np.sqrt(q)
    probs = (np.abs(np.fft.fft(table, axis=0)) ** 2 / q).sum(axis=1)
    r = len(period_finding.orbit(m, n))
    hit = probs[period_finding.convergent_denominators(np.arange(q), q, n) == r].sum()
    assert period_finding.hit_probability(n, m) == pytest.approx(hit, abs=1e-12)


def small_pair_evidence(samples=400):
    """Program samples over odd semiprimes with Q <= 2^14."""
    gen = np.random.default_rng(9)
    small = [n for n in period_finding.SEMIPRIMES if period_finding.register_width(n) <= 14]
    evidence = []
    for i in range(samples):
        n = int(gen.choice(small))
        m = next(int(x) for x in gen.integers(2, n - 1, 50) if np.gcd(int(x), n) == 1)
        op = period_finding.Op("first", n, m, i)
        inp = period_finding.prepare(op)
        evidence.append(period_finding.check(op, inp, period_finding.run(op, inp)))
    return evidence


def test_spectrum_check_passes_program_and_fails_fake_spectra():
    evidence = small_pair_evidence()
    period_finding.check_run(evidence)
    # A program that skips the spectrum and always returns w = 0 ...
    with pytest.raises(common.CheckFailed, match="candidates are the order"):
        period_finding.check_run([(n, m, 1) for n, m, _ in evidence])
    # ... or draws w uniformly, and reports the right convergent of it.
    gen = np.random.default_rng(3)
    uniform = []
    for n, m, _ in evidence:
        q = 1 << period_finding.register_width(n)
        uniform.append((n, m, period_finding.best_convergent(int(gen.integers(q)), q, n)[1]))
    with pytest.raises(common.CheckFailed, match="candidates are the order"):
        period_finding.check_run(uniform)


def test_failed_run_wide_check_counts_as_a_failure():
    records = [common.OpRecord("first-q8", 1, True, 0, None, (15, 2, 1))] * 200
    assert bench_run.run_wide_check(period_finding, records)


def test_semiprime_stream_covers_q_range():
    assert len(period_finding.SEMIPRIMES) == 197
    widths = {period_finding.register_width(n) for n in period_finding.SEMIPRIMES}
    assert min(widths) == 8 and max(widths) == 20
    ops = first_ops(period_finding, 0, cycles=20)
    big_first = {(op.n, op.m) for op in ops
                 if op.kind == "first" and period_finding.register_width(op.n) == 20}
    assert len(big_first) > 64  # more than the program's spectrum cache holds
    seen = set(period_finding.WARM_UP_PAIRS)
    for op in ops:
        assert ((op.n, op.m) in seen) == (op.kind == "repeat")
        seen.add((op.n, op.m))


def test_rsa_wrong_factor_fails():
    result = qalgo.rsa_demo(77, 11, 67, MODULES["rng"].RandomSource(1))
    once.check_rsa(result)
    with pytest.raises(common.CheckFailed, match="factors"):
        once.check_rsa(dataclasses.replace(result, p=5, q=11))
    with pytest.raises(common.CheckFailed, match="plaintext"):
        once.check_rsa(dataclasses.replace(result, plaintext=24))


# ---------------------------------------------------------------------------
# game-rounds


def table_op(game_seed=0):
    for seed in itertools.count(game_seed):
        op = game_rounds.Op("table4", seed)
        inp = game_rounds.prepare(op)
        if inp["game"] == "pd" and inp["labels"] == ("I", "X", "Z", "H"):
            return op, inp, game_rounds.run(op, inp)


def test_table_wrong_cell_fails():
    op, inp, out = table_op()
    game_rounds.check(op, inp, out)
    table = out["table"]
    row = np.array(table.payoff_row)
    row[2, 3] += 1e-6
    bad_table = MODULES["cgame"].Bimatrix(table.row_moves, table.col_moves, row,
                                          table.payoff_col)
    with pytest.raises(common.CheckFailed, match="EWL row payoffs"):
        game_rounds.check(op, inp, dict(out, table=bad_table))


def test_table_wrong_nash_fails():
    op, inp, out = table_op()
    with pytest.raises(common.CheckFailed, match="pure Nash"):
        game_rounds.check(op, inp, dict(out, nash=[(0, 0)]))


def test_pd_golden_catches_a_wrong_payoff_table():
    op, inp, _ = table_op()
    wrong = MODULES["cgame"].Bimatrix(["C", "D"], ["C", "D"], [[3, 0], [5, 2]], [[3, 5], [0, 2]])
    out = game_rounds.run(op, dict(inp, payoffs=wrong))
    with pytest.raises(common.CheckFailed):
        game_rounds.check(op, inp, out)


@pytest.mark.parametrize("kind", [k for k, _ in game_rounds.CYCLE])
def test_every_game_kind_passes(kind):
    run_checked(game_rounds, game_rounds.Op(kind, 17))


def test_lost_telepathy_round_fails():
    op = game_rounds.Op("telepathy_small", 4)
    inp, (y, win) = run_checked(game_rounds, op)
    with pytest.raises(common.CheckFailed, match="lost"):
        game_rounds.check(op, inp, (y, False))


@pytest.mark.parametrize("kind", ["teleport", "secret_qubit", "secret_qutrit"])
def test_unrecovered_secret_fails(kind):
    # The program still reports fidelity 1, but the state it ends with is the
    # undecoded shares (qutrit) or the state orthogonal to the secret (qubit).
    op = game_rounds.Op(kind, 4)
    inp, report = run_checked(game_rounds, op)
    if kind == "secret_qutrit":
        report.transcript.append(next(e for e in report.transcript if "state" in e))
    else:
        a, b = game_rounds.logged_state(report)
        report.transcript.append({"state": [[-b.real, b.imag], [a.real, -a.imag]]})
    with pytest.raises(common.CheckFailed, match="recovered state vs secret"):
        game_rounds.check(op, inp, report)


def test_teleport_fidelity_below_one_fails():
    op = game_rounds.Op("teleport", 4)
    inp, report = run_checked(game_rounds, op)
    report.params["recovery_fidelity"] = 0.999
    with pytest.raises(common.CheckFailed, match="fidelity"):
        game_rounds.check(op, inp, report)


# ---------------------------------------------------------------------------
# cli probes


@pytest.mark.parametrize("kind", sorted(cli_probe.COMMANDS))
def test_every_subcommand_passes_in_process(kind):
    cli_probe.check(kind, cli_probe.run_in_process(cli_probe.COMMANDS[kind]))


def test_cli_wrong_factor_fails():
    code, stdout, stderr = cli_probe.run_in_process(cli_probe.COMMANDS["shor"])
    payload = json.loads(stdout)
    payload["factors"] = [7, 13]
    with pytest.raises(common.CheckFailed, match="factors"):
        cli_probe.check("shor", (code, json.dumps(payload), stderr))


def test_cli_nonzero_exit_fails():
    with pytest.raises(common.CheckFailed, match="exited 2"):
        cli_probe.check("grover", (2, "", "qugame: domain error"))


def test_cli_child_process_passes():
    cli_probe.check("bv", cli_probe.run_child(cli_probe.COMMANDS["bv"]))


# ---------------------------------------------------------------------------
# run loop and tracing


def fake_workload(fail_every=None, raise_every=None):
    @dataclasses.dataclass(frozen=True)
    class Op:
        kind: str
        index: int

        @property
        def label(self):
            return self.kind

    def cycles(seed):
        for c in itertools.count():
            yield [Op("noop", 10 * c + i) for i in range(10)]

    def run(op, inp):
        if raise_every and op.index % raise_every == 0:
            raise ValueError("boom")
        return op.index

    def check(op, inp, out):
        common.require(not (fail_every and out % fail_every == 0), "wrong output")

    def host_probe():
        return common.HostProbe(((100_000, common.interpreter_task()),))

    return types.SimpleNamespace(cycles=cycles, prepare=lambda op: None, run=run, check=check,
                                 host_probe=host_probe)


def test_run_loop_counts_failed_checks_and_raises():
    assert not any(not r.ok for r in common.run_cycles(fake_workload(), 0, 0.0))
    records = common.run_cycles(fake_workload(fail_every=7, raise_every=5), 0, 0.0)
    assert len(records) >= common.MIN_OPS
    failed = sum(not r.ok for r in records)
    assert failed == sum(1 for i in range(len(records)) if i % 7 == 0 or i % 5 == 0)
    metrics = common.end_to_end(records, 1.0, 1.0, len(records), failed)
    assert metrics["ok_ratio"]["value"] < 1.0


def test_probes_scale_each_op_by_the_probes_around_it():
    records = [common.OpRecord("k", 1_000_000, True, i // 2, None, None) for i in range(4)]
    common.apply_probes(records, [(0, 1.0), (2, 3.0), (4, 3.0)])
    assert [r.scale for r in records] == [0.5, 0.5, 1 / 3, 1 / 3]
    assert common.ops_per_s(records[:2], scaled=False) == pytest.approx(1000.0)
    assert common.ops_per_s(records[:2]) == pytest.approx(2000.0)
    assert common.ops_per_s(records[2:]) == pytest.approx(3000.0)


def test_run_loop_scales_every_op_by_a_probe():
    records = common.run_cycles(fake_workload(), 0, 0.0)
    assert all(0 < r.scale < 100 and r.scale != 1.0 for r in records)
    wall = common.timings(records, scaled=False)["op_p50_ms"]
    scaled = common.timings(records)["op_p50_ms"]
    assert wall > 0 and scaled > 0 and wall != scaled


def test_probe_reading_is_the_geometric_mean_of_best_time_over_reference(monkeypatch):
    # Each task counts with its best of PROBE_REPS: 400 / 100 and 90 / 10.
    elapsed = [500, 400, 450, 400, 600] + [90, 100, 95, 100, 100]
    assert len(elapsed) == 2 * common.PROBE_REPS
    stamps = iter(t for i, e in enumerate(elapsed) for t in (1000 * i, 1000 * i + e))
    monkeypatch.setattr(common.time, "perf_counter_ns", lambda: next(stamps))
    probe = common.HostProbe(((100, lambda: None), (10, lambda: None)))
    assert probe.reading() == pytest.approx(6.0)


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_workload_probe_reads_near_reference_speed(module):
    assert 0.2 < module.host_probe().reading() < 5.0


def test_self_times_subtract_direct_children():
    spans = [("op", 0, 100, -1, 0, "k"), ("a", 10, 60, 0, 0, None), ("b", 20, 50, 1, 0, None),
             ("c", 70, 80, 0, 0, None)]
    assert tracing.self_times(spans) == [40, 20, 30, 10]


def test_tracer_captures_nested_calls_and_restores_originals():
    original = qstate.apply
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        tracer.begin_op(0, "table")
        qgames.ewl_table(qgames.move_set("I,X"), qgames.prisoners_dilemma_payoffs())
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert qstate.apply is original
    names = [s[0] for s in tracer.spans]
    assert names.count("qgames.ewl_play") == 4
    assert names.count("qstate.apply") == 16
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parents["qstate.apply"] == "qgames.ewl_play"
    assert parents["qgames.ewl_play"] == "qgames.ewl_table"
    metrics = tracing.layer_metrics(tracer.spans, qalgo.multiplicative_order)
    assert metrics["qgames.ewl_play.calls"]["value"] == 4


def test_metric_names_and_units_match_benchmark_json():
    with open(common.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    records = common.run_cycles(fake_workload(), 0, 0.0)
    e2e = common.end_to_end(records, 1.0, 1.0, len(records), 0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    once_result = {"verify_ms": 1.0, "verify_passed": 36}
    probes = {"import_ms": [1.0], "floor_ms": [1.0], "cli_main_ms": [1.0]}
    layers = bench_run.traced_metrics(records, tracing.Tracer(MODULES), once_result, probes,
                                      qalgo)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}
