import json
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import GOLDEN
from qugame import cli, qalgo, qgames, verify
from qugame.cgame import Bimatrix
from qugame.errors import DomainError, QugameError, ResourceError

GROVER = GOLDEN["grover-amplitudes"].expected


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# malformed input from outside the program: exit 2/3/64, never a traceback
BAD_INPUTS = [
    (("telepathy", "--inputs", "a,b"), 64),
    (("discriminate", "--priors", "x"), 64),
    (("discriminate", "--channel", "x"), 64),
    (("discriminate", "--channel", "0.9,0.2;0.1"), 64),
    (("grover", "--n", "-1", "--target", "0"), 2),
    (("bv", "--n", "-1", "--secret", "0"), 2),
    (("bv", "--n", "64", "--secret", "1"), 3),
    (("shor", "--N", "10403"), 3),
    (("rsa", "--N", "10403", "--e", "11", "--cipher", "2"), 3),
    (("guess", "--variant", "I", "--n", "-1", "--secret", "0"), 2),
    (("guess", "--variant", "II", "--n", "-1", "--secret", "0"), 2),
    (("spinflip", "--bob1", "cnot"), 2),
    (("pd", "--moves", "I,cnot"), 2),
    (("pd", "--moves", "I,phase"), 2),
    (("pd", "--moves", ","), 2),
    (("pd", "--moves", ""), 2),
    (("pd", "--moves", ",".join(["H"] * 513)), 3),  # 4 * 513^2 EWL amplitudes > 2^20
    (("card", "--seed", "-1"), 2),
    (("--manifest", '{"subcommand": "card", "seed": -1}'), 2),
    (("teleport", "--state", "nan,1"), 2),
    (("clone", "--state", "inf,0"), 2),
    (("bos", "--alpha", "inf"), 2),
    (("discriminate", "--priors", "nan,0.5"), 64),
    (("discriminate", "--cost", "nan"), 64),
    (("--manifest", "{}"), 64),
    (("--manifest", "[1]"), 64),
    (("--manifest", '{"subcommand": "grover", "parameters": [1]}'), 64),
    (("bv", "--n", "1000000000", "--secret", "1"), 3),
    (("guess", "--variant", "II", "--n", "1000000000", "--secret", "1"), 3),
    (("shor", "--N", str(2**61 - 1)), 3),  # a prime above the order-finding cap
    (("shor", "--N", str(3 * (10**400 + 1))), 3),
    (("rsa", "--N", str(3 * (10**400 + 1)), "--e", "3", "--cipher", "2"), 3),
    (("discriminate", "--priors", ",".join(["0"] * 3000)), 2),
    (("grover", "--n", "3", "--target", "5", "--output", "/nonexistent/x.json"), 64),
    (("grover", "--n", "3", "--target", "5", "--output", "."), 64),  # a directory
    (("grover", "--n", "3", "--target", "5", "--output", ""), 64),  # an empty path
    (("--manifest", '{"subcommand": "grover", "parameters": {"n": 3, "target": 5}, '
                    '"output": ""}'), 64),
]


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "grover", "--n", "3", "--target", "5")
        assert code == 0
        assert f"k = {GROVER['k']}" in out
        assert f"{GROVER['success']:.4f}" in out

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["not-a-command"])
        assert exc.value.code == 64

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 64

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "telepathy", "--inputs", "1,0,0")
        assert code == 2
        assert "domain error" in err

    def test_resource_error(self, capsys):
        code, _, err = run_cli(capsys, "grover", "--n", "21", "--target", "0")
        assert code == 3
        assert "resource error" in err

    def test_every_package_error_has_an_exit_code(self):
        # main maps these two onto exit codes 2 and 3 and has no arm for any other error
        assert QugameError.__subclasses__() == [DomainError, ResourceError]

    @pytest.mark.parametrize("n", ["40", "64"])
    def test_grover_refuses_a_dense_payload_before_searching(self, n):
        # a fresh process that reports VmHWM, the peak RSS (KiB) of its own image, as the
        # last stderr line: ru_maxrss would carry the pytest parent's peak across exec
        script = ("import sys\nfrom qugame import cli\ncode = cli.main(sys.argv[1:])\n"
                  "print(next(line for line in open('/proc/self/status')"
                  " if line.startswith('VmHWM')).split()[1], file=sys.stderr)\n"
                  "sys.exit(code)\n")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", script, "grover", "--n", n, "--target", "0"],
                              capture_output=True, text=True)
        assert proc.returncode == 3 and "resource error" in proc.stderr
        assert time.perf_counter() - start < 10.0
        assert int(proc.stderr.split()[-1]) < 100 * 1024

    def test_resource_message_prints_sizes_as_powers(self, capsys):
        code, _, err = run_cli(capsys, "bv", "--n", "5000", "--secret", "1")
        assert code == 3
        assert "2^5000" in err and len(err) < 200

    def test_discriminate_checks_shapes_before_the_cost_matrix(self):
        # 3,000 priors against the default 2 x 2 channel: refused before an N x N matrix.
        # The child reports VmHWM, the peak RSS of its own image: ru_maxrss would also
        # count the pytest process it was started from.
        script = ("import sys\nfrom qugame import cli\ncode = cli.main(sys.argv[1:])\n"
                  "print(next(line for line in open('/proc/self/status')"
                  " if line.startswith('VmHWM')).split()[1], file=sys.stderr)\n"
                  "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", script, "discriminate",
                               "--priors", ",".join(["0"] * 3000)], capture_output=True, text=True)
        assert proc.returncode == 2 and "does not match 3000 priors" in proc.stderr
        assert int(proc.stderr.split()[-1]) < 64 * 1024

    def test_guess_at_paper_scale(self, capsys):
        code, out, _ = run_cli(capsys, "guess", "--variant", "I", "--n", "30", "--secret", "5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        large = GOLDEN["grover-large-k"].expected
        assert payload["params"]["oracle_calls"] == large["k"]
        assert abs(payload["probabilities"]["win"] - large["success"]) < 1e-12

    @pytest.mark.parametrize(
        "argv, expected", BAD_INPUTS, ids=[" ".join(argv) for argv, _ in BAD_INPUTS]
    )
    def test_bad_input_exits_without_traceback(self, capsys, tmp_path, argv, expected):
        if argv[0] == "--manifest":
            path = tmp_path / "manifest.json"
            path.write_text(argv[1])
            argv = ("--manifest", str(path))
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert code == expected
        assert "Traceback" not in capsys.readouterr().err


class TestGoldenOutputs:
    def test_grover_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "grover", "--n", "3", "--target", "5", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["k"] == GROVER["k"]
        assert abs(payload["success_probability"] - GROVER["success"]) < 1e-12

    def test_rsa_plaintext(self, capsys):
        code, out, _ = run_cli(
            capsys, "rsa", "--N", "77", "--e", "11", "--cipher", "67", "--seed", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        rsa = GOLDEN["rsa-game"].expected
        assert {k: payload[k] for k in ("p", "q", "phi", "d", "plaintext")} == {
            k: rsa[k] for k in ("p", "q", "phi", "d", "plaintext")}

    def test_tables_pd_four_move_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "tables", "--game", "pd", "--moves", "I,X,H,Z", "--format", "json"
        )
        payload = json.loads(out)
        row = np.array(payload["table"]["payoff_row"])
        assert np.abs(row - GOLDEN["pd-four-move-grid"].expected["row"]).max() < 1e-12
        assert payload["pure_nash"] == [["Z", "Z"]]

    def test_bv(self, capsys):
        code, out, _ = run_cli(capsys, "bv", "--n", "4", "--secret", "9", "--format", "json")
        payload = json.loads(out)
        assert payload["recovered"] == 9 and payload["oracle_calls"] == 1

    def test_clone(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--state", "0.6,0.8j", "--format", "json")
        payload = json.loads(out)
        clone = GOLDEN["uqcm-clone"].expected  # index 1: the input (0.6, 0.8j)
        assert abs(payload["fidelity"] - clone["fidelity"][1]) < 1e-12
        assert abs(payload["eta"] - clone["eta"][1]) < 1e-12

    def test_teleport_fidelity(self, capsys):
        code, out, _ = run_cli(capsys, "teleport", "--state", "0.6,0.8j", "--seed", "3",
                               "--format", "json")
        payload = json.loads(out)
        assert abs(payload["params"]["recovery_fidelity"] - 1.0) < 1e-9

    def test_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--n-up", "2", "--n-down", "1",
                               "--format", "json")
        payload = json.loads(out)
        assert abs(payload["p_hat"] - GOLDEN["mle-estimate"].expected["p_hat"]) < 1e-12

    def test_ess_json(self, capsys):
        code, out, _ = run_cli(capsys, "ess", "--incumbent", "X", "--mutant", "H",
                               "--eta", "0.01", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["stable"] is False
        assert payload["invasion_barrier"] == 0.0

    def test_move_labels_are_gate_names(self, capsys):
        _, short, _ = run_cli(capsys, "spinflip", "--bob1", "H", "--alice", "X",
                              "--bob2", "H", "--format", "json")
        _, long, _ = run_cli(capsys, "spinflip", "--bob1", "hadamard", "--alice", "pauli_x",
                             "--bob2", "Hadamard", "--format", "json")
        assert long == short

    def test_newcomb_table_flag(self, capsys):
        code, out, _ = run_cli(capsys, "newcomb", "--sb", "1", "--w", "0.25",
                               "--coherent", "--format", "json")
        payload = json.loads(out)
        coherent = GOLDEN["newcomb"].expected["coherent"][verify.NEWCOMB_W.index(0.25)]
        assert np.abs(np.subtract(payload["params"]["coherent_coefficient"], coherent)).max() < 1e-12


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        args = ("shor", "--N", "77", "--seed", "5", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_grover_json_amplitudes_are_re_im_rows(self, capsys):
        _, out, _ = run_cli(capsys, "grover", "--n", "3", "--target", "5", "--format", "json")
        run = qalgo.grover_search(3, 5)
        rows = [[float(a.real), float(a.imag)] for a in run.trajectory[-1].amps]
        expected = {"subcommand": "grover", "seed": json.loads(out)["seed"], "n": 3,
                    "target": 5, "k": run.k, "theta": run.theta,
                    "success_probability": run.success_probability, "final_amplitudes": rows}
        assert out == cli._canonical_json(expected)

    def test_grover_table_builds_no_amplitudes(self, capsys):
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "grover", "--n", "20", "--target", "0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "k = 804" in out
        assert peak < 4 << 20  # the final state alone takes 16 MiB

    def test_table_and_json_agree(self, capsys):
        _, table_out, _ = run_cli(capsys, "grover", "--n", "3", "--target", "5")
        _, json_out, _ = run_cli(capsys, "grover", "--n", "3", "--target", "5",
                                 "--format", "json")
        payload = json.loads(json_out)
        assert f"{payload['success_probability']:.4f}" in table_out

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QUGAME_SEED", "17")
        _, out, _ = run_cli(capsys, "card", "--format", "json")
        assert json.loads(out)["seed"] == 17

    def test_negative_env_seed_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QUGAME_SEED", "-1")
        code, _, err = run_cli(capsys, "card", "--format", "json")
        assert code == 2
        assert "domain error" in err

    def test_manifest_reproducibility(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        manifest = {
            "subcommand": "shor",
            "parameters": {"modulus": 77},
            "seed": 5,
            "format": "json",
        }
        for out_path in (out_a, out_b):
            bundle = dict(manifest, output=str(out_path))
            path = tmp_path / f"m-{out_path.name}"
            path.write_text(json.dumps(bundle))
            code = cli.main(["--manifest", str(path)])
            capsys.readouterr()
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_manifest_prints_the_argv_bytes(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        for manifest, argv in [
            ({"subcommand": "teleport", "parameters": {"state": "-0.6,0.8"},
              "seed": 4, "format": "json"},
             ["teleport", "--state=-0.6,0.8", "--seed", "4", "--format", "json"]),
            ({"subcommand": "secret-qutrit", "parameters": {"state": "-0.6,0,0.8j"}},
             ["secret-qutrit", "--state=-0.6,0,0.8j"]),
            ({"subcommand": "newcomb", "parameters": {"sb": 1, "w": 0.25, "coherent": True,
                                                      "unused": False}, "format": "json"},
             ["newcomb", "--sb", "1", "--w", "0.25", "--coherent", "--format", "json"]),
        ]:
            path.write_text(json.dumps(manifest))
            from_manifest = run_cli(capsys, "--manifest", str(path))
            assert from_manifest[0] == 0
            assert from_manifest == run_cli(capsys, *argv)

    def test_manifest_lists_are_comma_lists(self, capsys, tmp_path):
        # a JSON list joins with ',' and a list of rows with ';', as typed on the command line
        path = tmp_path / "manifest.json"
        for manifest, argv in [
            ({"subcommand": "telepathy", "parameters": {"inputs": [1, 1]}},
             ["telepathy", "--inputs", "1,1"]),
            ({"subcommand": "discriminate",
              "parameters": {"priors": [0.25, 0.75], "channel": [[0.9, 0.2], [0.1, 0.8]]}},
             ["discriminate", "--priors", "0.25,0.75", "--channel", "0.9,0.2;0.1,0.8"]),
            ({"subcommand": "pd", "parameters": {"moves": ["I", "X", "H"]}, "format": "json"},
             ["pd", "--moves", "I,X,H", "--format", "json"]),
        ]:
            path.write_text(json.dumps(manifest))
            from_manifest = run_cli(capsys, "--manifest", str(path))
            assert from_manifest[0] == 0
            assert from_manifest == run_cli(capsys, *argv)

    def test_output_file_is_canonical_json(self, capsys, tmp_path):
        target = tmp_path / "run.json"
        run_cli(capsys, "grover", "--n", "2", "--target", "1", "--output", str(target))
        payload = json.loads(target.read_text())
        assert payload["subcommand"] == "grover"
        assert len(payload["final_amplitudes"]) == 4  # written although the table was printed
        assert target.read_text() == cli._canonical_json(payload)


class TestVerify:
    def test_all_goldens_pass(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert "golden checks passed" in out
        assert time.perf_counter() - start < 60.0

    def test_negative_control_perturbed_pd(self):
        table = qgames.prisoners_dilemma_payoffs()
        perturbed = Bimatrix(
            table.row_moves, table.col_moves,
            np.array([[2.9, 0], [5, 1]]), table.payoff_col,
        )
        results = verify.run_golden_checks(pd_payoffs=perturbed)
        failed = {r.name for r in results if not r.ok}
        assert {"pd-ewl-play", "pd-three-move-grid", "pd-four-move-grid"} <= failed
        assert failed <= {
            "pd-ewl-play", "pd-three-move-grid", "pd-four-move-grid", "pd-classical",
            "ess-invasion",
        }

    def test_checks_fail_under_optimize_flag(self):
        # the D/D payoff at -1 breaks "D is ESS vs C"; `python -O` strips asserts
        script = (
            "import json, numpy as np\n"
            "from qugame import qgames, verify\n"
            "from qugame.cgame import Bimatrix\n"
            "pd = qgames.prisoners_dilemma_payoffs()\n"
            "row, col = np.array(pd.payoff_row), np.array(pd.payoff_col)\n"
            "row[1, 1] = col[1, 1] = -1.0\n"
            "bad = Bimatrix(pd.row_moves, pd.col_moves, row, col)\n"
            "print(json.dumps([[r.name for r in verify.run_golden_checks(p) if not r.ok]\n"
            "                  for p in (None, bad)]))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        clean, perturbed = json.loads(proc.stdout)
        assert clean == []
        assert {"pd-classical", "ess-invasion"} <= set(perturbed)

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qugame.cli", "grover", "--n", "2", "--target", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "k = 1" in proc.stdout
