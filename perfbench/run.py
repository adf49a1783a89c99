"""qugame benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the last line of standard output carries the end-to-end
metrics, with `--trace 1` the per-layer metrics from the traced run.  Timings
are scaled to a reference host speed (see common.py); the `wall_clock` line
gives the same figures unscaled.  Full results (and, when traced, every span)
go to perfbench/out/.
See perfbench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

import common

common.pin_blas_threads()

WORKLOADS = {
    "wide-register": "wide_register",
    "game-rounds": "game_rounds",
    "period-finding": "period_finding",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload) -> tuple[float, float]:
    """Median time of in-process input generation plus the warm-up ops, repeated.

    Returns the median scaled to the reference host speed (each repeat by
    the host probes on either side of it) and the plain median.  Warm-up
    outputs are not checked: the timed loop runs and checks ops of the same
    kinds, and counts their failures.
    """
    probe = workload.host_probe()
    times, probes = [], [probe.reading()]
    t_start = time.perf_counter()
    while (len(times) < common.WARM_UP_REPS
           or time.perf_counter() - t_start < common.SETUP_MIN_S):
        t0 = time.perf_counter()
        next(workload.cycles(0))
        for op in workload.WARM_UP:
            try:
                workload.run(op, workload.prepare(op))
            except Exception:  # counted when the same kind fails in the timed loop
                pass
        times.append(time.perf_counter() - t0)
        probes.append(probe.reading())
    scaled = [t * probe.scale(before, after)
              for t, before, after in zip(times, probes, probes[1:])]
    return common.median(scaled), common.median(times)


def run_wide_check(workload, records) -> list[str]:
    """The workload's check over all of a run's passed ops, as a list of failures."""
    try:
        workload.check_run([r.evidence for r in records if r.ok])
    except common.CheckFailed as exc:
        return [f"run-wide check: {exc}"]
    return []


def cli_probes() -> dict:
    """Fresh-process and in-process CLI timings for the traced run, with failures."""
    import cli_probe  # like every module that imports qugame: after import_program()

    cli_ms, failures = cli_probe.in_process_pass()
    return {
        "cli_main_ms": cli_ms,
        "import_ms": common.import_ms_samples(),
        "floor_ms": common.fresh_process_ms("import numpy", common.IMPORT_REPS),
        "failures": failures,
        "checks": len(cli_ms),
    }


def traced_metrics(records, tracer, once, probes, qalgo) -> dict:
    import tracing

    metrics = tracing.layer_metrics(tracer.spans, qalgo.multiplicative_order)
    traced = [r for r in records if r.cycle % 2 == 0]
    plain = [r for r in records if r.cycle % 2 == 1]
    plain_rate = common.ops_per_s(plain)
    extra = {
        "trace.overhead_ratio": (
            common.ops_per_s(traced) / plain_rate if plain_rate else 0.0, "ratio"),
        "verify.run_golden_checks.ms": (once["verify_ms"], "ms"),
        "verify.checks_passed": (once["verify_passed"], "count"),
        "cli.import_ms": (common.median(probes["import_ms"]), "ms"),
        "cli.python_floor_ms": (common.median(probes["floor_ms"]), "ms"),
        "cli.main.p50_ms": (common.median(probes["cli_main_ms"]), "ms"),
    }
    metrics.update({k: {"value": float(v), "unit": u} for k, (v, u) in extra.items()})
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = common.import_program()
    workload = importlib.import_module(WORKLOADS[args.workload])
    import cli_probe
    import once

    setup_s, setup_wall_s = set_up(workload)
    checks = once.run_once_checks()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(modules)
    records = common.run_cycles(workload, args.seed, args.seconds, tracer=tracer)
    if hasattr(workload, "check_run"):
        checks["failures"] += run_wide_check(workload, records)
        checks["checks"] += 1
    if args.trace:
        probes = cli_probes()
        checks["failures"] += probes["failures"]
        checks["checks"] += probes["checks"]
    attempted = len(records) + checks["checks"]
    failures = checks["failures"] + common.failures_summary(records)
    failed = sum(not r.ok for r in records) + len(checks["failures"])
    if args.trace:
        metrics = traced_metrics(records, tracer, checks, probes, modules["qalgo"])
    else:
        metrics = common.end_to_end(records, setup_s, common.peak_rss_mib(), attempted, failed)
    wall = dict(common.timings(records, scaled=False), setup_s=setup_wall_s,
                host_scale_p50=common.median([r.scale for r in records]))
    defects = cli_probe.probe_defects()
    env = common.environment()
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.scaled_ns / 1e6)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        common.write_spans(common.OUT / f"{stem}.spans.json.gz", tracer.dump())
    common.write_json(
        common.OUT / f"{stem}.json",
        {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "defects": defects, "wall_clock": wall,
            "op_p50_ms_by_kind": {k: common.percentile(v, 50) for k, v in sorted(by_kind.items())},
            "ops_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        },
    )
    print("env " + json.dumps(env, sort_keys=True))
    print("defects " + json.dumps(defects, sort_keys=True))
    print("wall_clock " + json.dumps(wall, sort_keys=True))
    for line in failures:
        print("failed " + line)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
