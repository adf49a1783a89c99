"""Untimed checks made once per run, on every workload: the RSA break and `verify`."""

from __future__ import annotations

import time

from common import CheckFailed, require
from qugame import qalgo, verify
from qugame.rng import RandomSource

RSA = {"modulus": 77, "exponent": 11, "cipher": 67, "plaintext": 23}
VERIFY_CHECKS = 36


def check_rsa(result) -> None:
    n, e, c = RSA["modulus"], RSA["exponent"], RSA["cipher"]
    p, q = result.p, result.q
    require(1 < p < n and p * q == n, f"factors {p} x {q} != {n}")
    phi = (p - 1) * (q - 1)
    require(result.phi == phi and result.d * e % phi == 1, f"phi {result.phi}, d {result.d}")
    require(result.plaintext == RSA["plaintext"] and pow(result.plaintext, e, n) == c,
            f"plaintext {result.plaintext}")


def check_verify(results) -> None:
    failed = [r.name for r in results if not r.ok]
    require(len(results) == VERIFY_CHECKS and not failed,
            f"verify: {len(results) - len(failed)}/{len(results)} passed, failed {failed}")


def run_once_checks() -> dict:
    """Returns {"failures": [...], "checks": 2, "verify_ms": ..., "verify_passed": ...}."""
    failures = []
    try:
        check_rsa(qalgo.rsa_demo(RSA["modulus"], RSA["exponent"], RSA["cipher"], RandomSource(1)))
    except Exception as exc:  # a raise is a failed check too
        failures.append(f"rsa: {exc}")
    t0 = time.perf_counter()
    results = verify.run_golden_checks()
    verify_ms = (time.perf_counter() - t0) * 1e3
    try:
        check_verify(results)
    except CheckFailed as exc:
        failures.append(str(exc))
    return {
        "failures": failures,
        "checks": 2,
        "verify_ms": verify_ms,
        "verify_passed": sum(r.ok for r in results),
    }
