"""Run every workload once and print its end-to-end metrics as a table.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own process through run.py, one after another,
for BENCHMARK.json's `run_seconds` unless --seconds says otherwise.
With --trace, each workload also gets a traced run and its per-layer
metrics are printed as well.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith("env "):
            print(f"  {workload}: {line}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    with open(HERE.parent / "BENCHMARK.json") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result = run_one(workload, args.seed, args.seconds, trace)
            title = f"{workload} ({'traced' if trace else 'untraced'})"
            print(f"{title}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"error_rate={result['failed'] / result['attempted']:.4g} failed/attempted")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
            worst = max(worst, result["failed"])
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
