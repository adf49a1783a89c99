"""Command-line harness: every demo, game and table as a subcommand.

Output is dual: a human table (probabilities at 4 decimals) or canonical
JSON (sorted keys, full precision).  `--seed` fully determines stochastic
output; QUGAME_SEED overrides the default seed 0.  Exit codes: 0 success,
2 domain error, 3 resource error, 64 usage error (including a manifest that
cannot be read and an --output that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import cgame, density, qalgo, qgames, qstate, verify
from .errors import DomainError, ResourceError, check_finite, check_qubits
from .qstate import StateVector
from .rng import RandomSource

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    raw = os.environ.get("QUGAME_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"QUGAME_SEED must be an integer, got {raw!r}")


def _parse_state(text: str, dim: int) -> StateVector:
    """Parse dim comma-separated complex amplitudes like '0.6,0.8j' into one qudit."""
    try:
        amps = [complex(part.strip().replace(" ", "")) for part in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"cannot parse state {text!r}: {exc}")
    check_finite(np.array(amps), "state amplitudes")
    if len(amps) != dim:
        raise DomainError(f"expected {dim} amplitudes, got {len(amps)}")
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        raise DomainError("state amplitudes are all zero")
    return StateVector((dim,), np.asarray(amps) / norm)


# argparse `type=` converters: a malformed list is a usage error (exit 64)
def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _floats(text: str) -> list[float]:
    return [_finite_float(x) for x in text.split(",")]


def _float_rows(text: str) -> np.ndarray:
    return np.array([_floats(row) for row in text.split(";")])


def _option_text(value) -> str:
    """A manifest value as option text: a list as a comma list, a list of lists as rows."""
    if not isinstance(value, list):
        return str(value)
    return (";" if any(isinstance(v, list) for v in value) else ",").join(map(_option_text, value))


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _bimatrix_lines(table: cgame.Bimatrix, title: str) -> list[str]:
    lines = [title]
    width = max(8, max(len(m) for m in table.row_moves) + 2)
    header = " " * width + "".join(f"{m:>16}" for m in table.col_moves)
    lines.append(header)
    for i, move in enumerate(table.row_moves):
        cells = "".join(
            f"  ({table.payoff_row[i, j]:5.2f},{table.payoff_col[i, j]:5.2f})"
            for j in range(len(table.col_moves))
        )
        lines.append(f"{move:<{width}}" + cells)
    return lines


def _report_lines(report: qgames.GameReport) -> list[str]:
    lines = [f"game: {report.game}"]
    for key, value in report.params.items():
        lines.append(f"  {key}: {value}")
    lines.append(f"  outcome: {report.outcome}")
    if report.payoffs:
        pays = ", ".join(f"{k}: {v:.10g}" for k, v in report.payoffs.items())
        lines.append(f"  payoffs: {pays}")
    if report.probabilities:
        probs = ", ".join(f"{k}: {_fmt(v)}" for k, v in report.probabilities.items())
        lines.append(f"  probabilities: {probs}")
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload_dict, table_lines)


def _run_grover(args, rng):
    # the payload lists all 2^n final amplitudes, so refuse before searching
    check_qubits(args.n, qstate.MAX_STATE_DIM)
    run = qalgo.grover_search(args.n, args.target)
    payload = {
        "n": run.n,
        "target": run.target,
        "k": run.k,
        "theta": run.theta,
        "success_probability": run.success_probability,
    }
    if args.format == "json" or args.output:
        # one [re, im] row per amplitude, only when the payload is written out
        payload["final_amplitudes"] = run.trajectory[-1].to_json_dict()["amps"]
    lines = [
        f"Grover search over {1 << run.n} items for target {run.target}",
        f"  k = {run.k}",
        f"  success probability = {_fmt(run.success_probability)}",
    ]
    return payload, lines


def _run_bv(args, rng):
    recovered = qalgo.bernstein_vazirani(args.n, args.secret)
    payload = {"n": args.n, "secret": args.secret, "recovered": recovered, "oracle_calls": 1}
    lines = [f"Bernstein-Vazirani recovered {recovered} with 1 oracle call"]
    return payload, lines


def _run_shor(args, rng):
    result = qalgo.shor_factor(args.modulus, rng, max_rounds=args.max_rounds)
    payload = {
        "modulus": args.modulus,
        "factors": list(result.factors) if result.ok else None,
        "rounds": result.rounds,
        "transcript": [dict(e) for e in result.transcript],
    }
    if not result.ok:
        lines = [f"factoring {args.modulus} failed after {result.rounds} rounds"]
    else:
        p, q = result.factors
        lines = [f"{args.modulus} = {p} x {q}  ({result.rounds} order-finding rounds)"]
    return payload, lines


def _run_rsa(args, rng):
    result = qalgo.rsa_demo(args.modulus, args.exponent, args.cipher, rng,
                            max_rounds=args.max_rounds)
    payload = {
        "modulus": args.modulus,
        "exponent": args.exponent,
        "cipher": args.cipher,
        "p": result.p,
        "q": result.q,
        "phi": result.phi,
        "d": result.d,
        "plaintext": result.plaintext,
        "rounds": result.rounds,
    }
    lines = [
        f"RSA break of (N={args.modulus}, e={args.exponent}, c={args.cipher})",
        f"  p, q = {result.p}, {result.q}; phi = {result.phi}; d = {result.d}",
        f"  plaintext = {result.plaintext}",
    ]
    return payload, lines


def _run_spinflip(args, rng):
    gate = qstate.standard_gate
    report = qgames.spin_flip_play(gate(args.bob1), gate(args.alice), gate(args.bob2), rng=rng)
    return report.to_json_dict(), _report_lines(report)


def _run_guess(args, rng):
    report = qgames.guess_number_game(args.variant, args.n, args.secret)
    return report.to_json_dict(), _report_lines(report)


def _analyzed_table(table: cgame.Bimatrix, title: str):
    nash = cgame.pure_nash(table)
    flags = cgame.pareto_analysis(table)
    payload = {
        "table": table.to_json_dict(),
        "pure_nash": [
            [table.row_moves[i], table.col_moves[j]] for i, j in nash
        ],
        "pareto_optimal": [
            [table.row_moves[i], table.col_moves[j]]
            for i in range(len(table.row_moves))
            for j in range(len(table.col_moves))
            if flags.pareto_optimal[i, j]
        ],
    }
    lines = _bimatrix_lines(table, title)
    lines.append("  Nash: " + ", ".join(f"({a},{b})" for a, b in payload["pure_nash"]))
    return payload, lines


def _run_pd(args, rng):
    moves = qgames.move_set(args.moves)
    table = qgames.ewl_table(moves, qgames.prisoners_dilemma_payoffs())
    return _analyzed_table(table, f"Quantum prisoner's dilemma over moves {args.moves}")


def _run_bos(args, rng):
    payoffs = qgames.battle_of_sexes_payoffs(args.alpha, args.beta, args.gamma)
    moves = qgames.move_set(args.moves)
    table = qgames.ewl_table(moves, payoffs)
    payload, lines = _analyzed_table(
        table, f"Quantum battle of the sexes ({args.alpha},{args.beta},{args.gamma})"
    )
    mixed = {"p": None, "q": None, "payoffs": None}
    for a, b in cgame.nash_equilibria(payoffs):
        if (a.probs > 0).all() and (b.probs > 0).all():  # the full-support mix
            mixed = {"p": float(a.probs[0]), "q": float(b.probs[0]),
                     "payoffs": list(cgame.expected_payoff(payoffs, a, b))}
    payload["classical_mixed_nash"] = mixed
    return payload, lines


def _run_tables(args, rng):
    return (_run_pd if args.game == "pd" else _run_bos)(args, rng)  # argparse admits no other


def _run_newcomb(args, rng):
    report = qgames.newcomb_play(args.sb, args.w, coherent_shorthand=args.coherent)
    return report.to_json_dict(), _report_lines(report)


def _run_ess(args, rng):
    table = qgames.ewl_table(
        qgames.move_set("I,X,H,Z"), qgames.prisoners_dilemma_payoffs()
    )
    labels = list(table.row_moves)
    try:
        incumbent = labels.index(args.incumbent.upper())
        mutant = labels.index(args.mutant.upper())
    except ValueError:
        raise DomainError(f"moves must be among {labels}")
    result = cgame.ess_test(table, incumbent, mutant, args.eta)
    payload = {
        "incumbent": labels[incumbent],
        "mutant": labels[mutant],
        "eta": args.eta,
        "stable": result.stable,
        "invasion_barrier": result.invasion_barrier,
        "fitness_incumbent": result.fitness_incumbent,
        "fitness_mutant": result.fitness_mutant,
    }
    verdict = "resists" if result.stable else "falls to"
    lines = [
        f"{labels[incumbent]} {verdict} an eta={args.eta} invasion of {labels[mutant]}",
        f"  fitness {result.fitness_incumbent:.4f} vs {result.fitness_mutant:.4f}; "
        f"barrier {result.invasion_barrier:.6f}",
    ]
    return payload, lines


def _run_card(args, rng):
    report = qgames.card_game_round((0, 1, args.flip), draw=args.draw, rng=rng)
    return report.to_json_dict(), _report_lines(report)


def _run_telepathy(args, rng):
    bits = args.inputs
    y, win = qgames.pseudo_telepathy_round(bits, rng=rng)
    payload = {"inputs": bits, "outputs": list(y), "win": win}
    lines = [f"inputs {bits} -> outputs {list(y)}; win = {win}"]
    return payload, lines


def _run_teleport(args, rng):
    psi = _parse_state(args.state, 2)
    report = qgames.teleport(psi, rng=rng)
    return report.to_json_dict(), _report_lines(report)


def _run_secret_qubit(args, rng):
    psi = _parse_state(args.state, 2)
    report = qgames.secret_share_qubit(psi, rng=rng)
    return report.to_json_dict(), _report_lines(report)


def _run_secret_qutrit(args, rng):
    psi = _parse_state(args.state, 3)
    report = qgames.secret_share_qutrit(psi, args.pair)
    return report.to_json_dict(), _report_lines(report)


def _run_estimate(args, rng):
    est = density.mle_bernoulli(args.n_up, args.n_down)
    payload = {
        "n_up": args.n_up,
        "n_down": args.n_down,
        "p_hat": est.p_hat,
        "r_z": est.r_z,
        "rho": est.rho.to_json_dict(),
    }
    lines = [
        f"counts (up={args.n_up}, down={args.n_down})",
        f"  p_hat = {_fmt(est.p_hat)}, r_z = {_fmt(est.r_z)}",
    ]
    return payload, lines


def _run_discriminate(args, rng):
    priors = args.priors
    n = len(priors)
    if args.channel.shape != (n, n):  # before the N x N cost matrix is built
        raise DomainError(f"channel shape {args.channel.shape} does not match {n} priors")
    costs = args.cost * (np.ones((n, n)) - np.eye(n))
    problem = density.DiscriminationProblem(priors, costs, args.channel)
    c_b, p_e = density.discrimination_cost(problem)
    payload = {"priors": priors, "cost_constant": args.cost, "bayes_cost": c_b,
               "error_probability": p_e}
    lines = [f"Bayes cost = {_fmt(c_b)}; error probability = {_fmt(p_e)}"]
    return payload, lines


def _run_clone(args, rng):
    psi = _parse_state(args.state, 2)
    result = density.uqcm_clone(psi)
    payload = {
        "input": psi.to_json_dict(),
        "clone": result.clone.to_json_dict(),
        "fidelity": result.fidelity,
        "eta": result.eta,
    }
    lines = [f"clone fidelity = {_fmt(result.fidelity)}; Bloch shrink = {_fmt(result.eta)}"]
    return payload, lines


def _run_verify(args, rng):
    results = verify.run_golden_checks()
    payload = {
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
        "failures": sum(not r.ok for r in results),
    }
    lines = [
        ("PASS " if r.ok else "FAIL ") + r.name + (f"  ({r.detail})" if r.detail else "")
        for r in results
    ]
    lines.append(f"{len(results) - payload['failures']}/{len(results)} golden checks passed")
    return payload, lines


def _build_parser() -> _Parser:
    parser = _Parser(prog="qugame", description=__doc__)
    parser.add_argument("--manifest", help="JSON manifest with subcommand, parameters, seed")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default QUGAME_SEED or 0)")
    common.add_argument("--format", choices=("table", "json"), default="table")
    common.add_argument("--output", help="also write canonical JSON to this path")
    sub = parser.add_subparsers(dest="command")

    def cmd(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(run=handler)
        return p

    p = cmd("grover", _run_grover, help="Grover search demo")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", type=int, required=True)

    p = cmd("bv", _run_bv, help="Bernstein-Vazirani hidden-string recovery")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--secret", type=int, required=True)

    p = cmd("shor", _run_shor, help="Shor factoring")
    p.add_argument("--modulus", "--N", dest="modulus", type=int, required=True)
    p.add_argument("--max-rounds", type=int, default=25)

    p = cmd("rsa", _run_rsa, help="RSA game: factor, invert, decrypt")
    p.add_argument("--modulus", "--N", dest="modulus", type=int, required=True)
    p.add_argument("--exponent", "--e", dest="exponent", type=int, required=True)
    p.add_argument("--cipher", type=int, required=True)
    p.add_argument("--max-rounds", type=int, default=25)

    p = cmd("spinflip", _run_spinflip, help="spin flip game round")
    p.add_argument("--bob1", default="X")
    p.add_argument("--alice", default="I")
    p.add_argument("--bob2", default="I")

    p = cmd("guess", _run_guess, help="guess-a-number games I and II")
    p.add_argument("--variant", choices=("I", "II"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--secret", type=int, required=True)

    p = cmd("pd", _run_pd, help="quantum prisoner's dilemma table")
    p.add_argument("--moves", default="I,X,H,Z")

    p = cmd("bos", _run_bos, help="battle of the sexes, classical and quantum")
    p.add_argument("--moves", default="I,X,H,Z")
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.0)

    p = cmd("newcomb", _run_newcomb, help="Newcomb's game against the predictor")
    p.add_argument("--sb", type=int, choices=(0, 1), required=True)
    p.add_argument("--w", type=float, default=0.0)
    p.add_argument("--coherent", action="store_true",
                   help="apply the literal operator sum (table-matching shorthand)")

    p = cmd("ess", _run_ess, help="evolutionary stability on the quantum PD table")
    p.add_argument("--incumbent", required=True)
    p.add_argument("--mutant", required=True)
    p.add_argument("--eta", type=float, default=0.1)

    p = cmd("card", _run_card, help="three-card game with a quantum query")
    p.add_argument("--flip", type=int, choices=(0, 1), default=0,
                   help="orientation of the mixed card")
    p.add_argument("--draw", type=int, choices=(0, 1, 2), default=None)

    p = cmd("telepathy", _run_telepathy, help="pseudo-telepathy parity game")
    p.add_argument("--inputs", type=_ints, required=True, help="comma-separated bits, even sum")

    p = cmd("teleport", _run_teleport, help="teleport a qubit through |b3>")
    p.add_argument("--state", default="0.6,0.8")

    p = cmd("secret-qubit", _run_secret_qubit, help="qubit secret sharing over GHZ")
    p.add_argument("--state", default="0.6,0.8")

    p = cmd("secret-qutrit", _run_secret_qutrit, help="(2,3)-threshold qutrit sharing")
    p.add_argument("--state", default="0.7071067811865476,0.7071067811865476,0")
    p.add_argument("--pair", default="alice,bob")

    p = cmd("estimate", _run_estimate, help="maximum-likelihood state estimate")
    p.add_argument("--n-up", type=int, required=True)
    p.add_argument("--n-down", type=int, required=True)

    p = cmd("discriminate", _run_discriminate, help="Bayesian discrimination cost")
    p.add_argument("--priors", type=_floats, default="0.5,0.5")
    p.add_argument("--channel", type=_float_rows, default="0.9,0.2;0.1,0.8",
                   help="rows separated by ';', h[m][k] columns by ','")
    p.add_argument("--cost", type=_finite_float, default=1.0)

    p = cmd("clone", _run_clone, help="universal 1->2 cloning machine")
    p.add_argument("--state", default="1,0")

    p = cmd("tables", _run_tables, help="induced payoff tables with analysis")
    p.add_argument("--game", choices=("pd", "bos"), default="pd")
    p.add_argument("--moves", default="I,X,H,Z")
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.0)

    cmd("verify", _run_verify, help="run every golden check from the source tables")
    return parser


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.manifest:
        try:
            with open(args.manifest, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"qugame: cannot read manifest: {exc}", file=sys.stderr)
            return USAGE_EXIT
        if not (
            isinstance(manifest, dict)
            and isinstance(manifest.get("subcommand"), str)
            and isinstance(manifest.get("parameters", {}), dict)
        ):
            print('qugame: a manifest is an object with a string "subcommand" and an '
                  'object "parameters"', file=sys.stderr)
            return USAGE_EXIT
        common = {key: manifest[key] for key in ("seed", "format", "output") if key in manifest}
        options = {**manifest.get("parameters", {}), **common}
        argv2 = [manifest["subcommand"]]
        for key, value in options.items():
            if value is True:
                argv2.append(f"--{key}")
            elif value is not False:  # one token, so a value may start with '-'
                argv2.append(f"--{key}={_option_text(value)}")
        args = parser.parse_args(argv2)

    if not args.command:
        parser.error("a subcommand is required")

    try:
        seed = args.seed if args.seed is not None else _default_seed()
        rng = RandomSource(seed)
        payload, lines = args.run(args, rng)
        payload = {"subcommand": args.command, "seed": seed, **payload}
        if args.format == "json":
            sys.stdout.write(_canonical_json(payload))
        else:
            print("\n".join(lines))
        if args.output is not None:  # "" is a path that cannot be written, not no path
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(_canonical_json(payload))
            except OSError as exc:
                print(f"qugame: cannot write output: {exc}", file=sys.stderr)
                return USAGE_EXIT
        if args.command == "verify" and payload["failures"]:
            return 1
        return 0
    except ResourceError as exc:
        print(f"qugame: resource error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"qugame: domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
