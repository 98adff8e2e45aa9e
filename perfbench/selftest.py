#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and tracer.

Run from the repository root:  python3 perfbench/selftest.py

Shows that a clean fault-drill passes, that a corrupted oracle digest or an
accepted injection drives failed_share above 0, and that the tracer replaces
each public function under every name the package binds it to.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_program()
import gate  # noqa: E402
import probe  # noqa: E402
from pqbfl import crypto, harness, ledger, protocol, ratchet  # noqa: E402


def drill() -> dict:
    """Two fault-drill cycles (eight runs), untraced."""
    return run.measure("fault-drill", seed=7, seconds=0, trace=False)


def check_clean_drill_passes():
    result = drill()
    assert result["correct"] and result["failed"] == 0, result["lines"]


def check_corrupted_digest_fails():
    real = gate.plain_fedavg_digest
    gate.plain_fedavg_digest = lambda config: "00" * 32
    try:
        result = drill()
    finally:
        gate.plain_fedavg_digest = real
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]
    assert any(line.startswith("problem:") and "oracle" in line for line in result["lines"])


def check_accepted_injection_fails():
    # a broken replay guard: the replayed copy is swallowed instead of rejected
    originals = {cls: cls.__dict__[name] for cls, name in (
        (protocol.Participant, "handle_task"), (protocol.Server, "handle_update"))}

    def lenient(handler):
        def handle(self, env):
            try:
                return handler(self, env)
            except protocol.ReplayDetected:
                return None, None
        return handle

    protocol.Participant.handle_task = lenient(originals[protocol.Participant])
    protocol.Server.handle_update = lenient(originals[protocol.Server])
    try:
        result = drill()
    finally:
        protocol.Participant.handle_task = originals[protocol.Participant]
        protocol.Server.handle_update = originals[protocol.Server]
    assert 0 < result["failed"] < result["attempted"]
    assert not result["correct"]
    assert any(line.startswith("problem: replay") and "accepted" in line
               for line in result["lines"])


def check_wrappers_reach_every_binding():
    before = (ratchet.hkdf, harness.payload_size, ledger.payload_size,
              protocol.SignedEnvelope.__dict__["decode"])
    tracer = probe.Tracer()
    tracer.install()
    try:
        assert ratchet.hkdf is crypto.hkdf is not before[0]
        assert harness.payload_size is ledger.payload_size is not before[1]
        assert protocol.SignedEnvelope.__dict__["decode"] is not before[3]
        assert not isinstance(crypto.ec, type(sys))   # the counting proxy
    finally:
        tracer.uninstall()
    after = (ratchet.hkdf, harness.payload_size, ledger.payload_size,
             protocol.SignedEnvelope.__dict__["decode"])
    assert all(a is b for a, b in zip(before, after))


def main() -> int:
    checks = [check_clean_drill_passes, check_corrupted_digest_fails,
              check_accepted_injection_fails, check_wrappers_reach_every_binding]
    failed = 0
    for check in checks:
        try:
            check()
            print(f"ok    {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
