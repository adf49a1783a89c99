"""CLI probes made from every run: the `cli` and `verify` layers and known defects.

Every subcommand runs once in-process through `cli.main` with the README's
example arguments, and its JSON output is checked against the goldens; a
traced run reports the wall times as `cli.main.p50_ms`.  The import cost is
measured in fresh processes (`common.import_ms_samples`).

`ess` runs with table output: `qugame ess ... --format json` exits 1 with a
TypeError (a numpy bool in the payload) at the commit this benchmark was
written against.  Every run probes that command once in a child process,
untimed, and reports its exit code on the `defects` line, so the defect
stays visible.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time

from common import ROOT, CheckFailed, child_env, require, require_close
from game_rounds import PD_FOUR_MOVES
from once import VERIFY_CHECKS
from qugame import cli

JSON = ("--format", "json")
COMMANDS = {
    "grover": ("grover", "--n", "3", "--target", "5", *JSON),
    "bv": ("bv", "--n", "5", "--secret", "19", *JSON),
    "shor": ("shor", "--N", "77", "--seed", "1", *JSON),
    "rsa": ("rsa", "--N", "77", "--e", "11", "--cipher", "67", "--seed", "1", *JSON),
    "spinflip": ("spinflip", "--bob1", "H", "--alice", "X", "--bob2", "H", *JSON),
    "guess": ("guess", "--variant", "I", "--n", "3", "--secret", "5", *JSON),
    "pd": ("pd", "--moves", "I,X,H,Z", *JSON),
    "bos": ("bos", "--alpha", "3", "--beta", "2", "--gamma", "1", *JSON),
    "newcomb": ("newcomb", "--sb", "1", "--w", "0.25", "--coherent", *JSON),
    "ess": ("ess", "--incumbent", "X", "--mutant", "H", "--eta", "0.01"),
    "card": ("card", "--flip", "1", "--draw", "2", *JSON),
    "telepathy": ("telepathy", "--inputs", "1,1,0", *JSON),
    "teleport": ("teleport", "--state", "0.6,0.8j", *JSON),
    "secret-qubit": ("secret-qubit", "--state", "0.6,0.8", *JSON),
    "secret-qutrit": ("secret-qutrit", "--state", "0.5,0.5j,0.7071", "--pair", "bob,gerald",
                      *JSON),
    "estimate": ("estimate", "--n-up", "40", "--n-down", "60", *JSON),
    "discriminate": ("discriminate", "--priors", "0.5,0.5", "--channel", "0.9,0.2;0.1,0.8",
                     "--cost", "1", *JSON),
    "clone": ("clone", "--state", "1,0", *JSON),
    "tables": ("tables", "--game", "bos", "--moves", "I,X,H,Z", *JSON),
    "verify": ("verify", *JSON),
}
DEFECT_PROBES = {"ess --format json": (*COMMANDS["ess"], *JSON)}
TOL = 1e-9
GROVER_THETA = math.asin(1 / math.sqrt(8))


def check_payload(kind: str, p: dict) -> None:
    require(p.get("subcommand") == kind, f"subcommand field {p.get('subcommand')}")
    if kind in ("grover", "guess"):
        success = math.sin(5 * GROVER_THETA) ** 2          # k = 2 rotations over 8 items
        if kind == "grover":
            require(p["k"] == 2, f"k = {p['k']}")
            require_close(p["success_probability"], success, TOL, "Grover success")
            require_close(p["final_amplitudes"][5], [math.sin(5 * GROVER_THETA), 0.0], TOL,
                          "Grover target amplitude")
        else:
            require_close(p["probabilities"]["win"], success, TOL, "guess win probability")
            require(p["outcome"] == "guess 5", f"guess outcome {p['outcome']}")
    elif kind == "bv":
        require(p["recovered"] == 19 and p["oracle_calls"] == 1, f"bv {p}")
    elif kind == "shor":
        require(p["factors"] == [7, 11], f"factors {p['factors']}")
    elif kind == "rsa":
        got = (p["p"], p["q"], p["phi"], p["d"], p["plaintext"])
        require(got == (7, 11, 60, 11, 23), f"rsa (p, q, phi, d, m) = {got}")
    elif kind == "spinflip":
        require(p["outcome"] == "u" and p["payoffs"]["Alice"] == -1.0, f"spinflip {p['outcome']}")
        require_close((p["probabilities"]["u"], p["probabilities"]["d"]), (1.0, 0.0), TOL,
                      "spinflip probabilities")
    elif kind == "pd":
        require_close(p["table"]["payoff_row"], PD_FOUR_MOVES["row"], TOL, "PD table (row)")
        require_close(p["table"]["payoff_col"], PD_FOUR_MOVES["col"], TOL, "PD table (column)")
        require(p["pure_nash"] == [["Z", "Z"]], f"PD Nash {p['pure_nash']}")
    elif kind in ("bos", "tables"):
        require(p["pure_nash"] == [["X", "X"]], f"BoS Nash {p['pure_nash']}")
        if kind == "bos":
            mixed = p["classical_mixed_nash"]
            require_close((mixed["p"], mixed["q"]), (2 / 3, 1 / 3), TOL, "BoS mixed Nash")
    elif kind == "newcomb":
        require_close(p["params"]["coherent_coefficient"], [0.5, 0.0], TOL, "Newcomb shorthand")
    elif kind == "card":
        require(p["outcome"] == "bob-wins", f"card outcome {p['outcome']}")
    elif kind == "telepathy":
        require(p["win"] is True and sum(p["outputs"]) % 2 == 1, f"telepathy {p}")
    elif kind in ("teleport", "secret-qubit", "secret-qutrit"):
        require_close(p["params"]["recovery_fidelity"], 1.0, TOL, f"{kind} fidelity")
    elif kind == "estimate":
        require_close((p["p_hat"], p["r_z"]), (0.6, -0.2), TOL, "estimate")
    elif kind == "discriminate":
        require_close((p["bayes_cost"], p["error_probability"]), (0.15, 0.15), TOL,
                      "discrimination cost")
    elif kind == "clone":
        require_close((p["fidelity"], p["eta"]), (5 / 6, 2 / 3), TOL, "clone")
    elif kind == "verify":
        require(p["failures"] == 0 and len(p["checks"]) == VERIFY_CHECKS,
                f"verify: {p['failures']} failures of {len(p['checks'])}")
    else:
        raise ValueError(f"no checker for {kind}")


def run_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_child(argv) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "qugame.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def check(kind: str, out) -> None:
    code, stdout, stderr = out
    require(code == 0, f"{kind} exited {code}: {stderr.strip()[-200:]}")
    if kind == "ess":
        # table output: "X falls to an eta=0.01 invasion of H"
        require(stdout.startswith("X falls to an eta=0.01 invasion of H"), f"ess: {stdout[:80]}")
        return
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{kind}: output is not JSON ({exc})") from exc
    check_payload(kind, payload)


def in_process_pass() -> tuple[list[float], list[str]]:
    """Each subcommand once through `cli.main` in this process: wall ms and failures."""
    times, failures = [], []
    for kind, argv in COMMANDS.items():
        t0 = time.perf_counter()
        out = run_in_process(argv)
        times.append((time.perf_counter() - t0) * 1e3)
        try:
            check(kind, out)
        except CheckFailed as exc:
            failures.append(f"cli.main {kind}: {exc}")
    return times, failures


def probe_defects() -> dict:
    """Exit code of each known-defective command; 0 means it has been fixed."""
    return {name: run_child(argv)[0] for name, argv in DEFECT_PROBES.items()}
