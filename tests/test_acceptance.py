"""Acceptance gate: ten checks, one pass/fail line each.

Every test measures its own wall time against the stated budget and appends
a summary line that pytest prints in the terminal summary section.
"""

import math
import os
import time

import numpy as np

import conftest
from conftest import establish, rewire, run_round
from pqbfl import crypto, fl, ratchet
from pqbfl.harness import SimConfig, run_simulation, write_outputs
from pqbfl.ledger import event_kind, payload_size

OPS = ("keygen", "encap", "decap", "derive", "sign", "verify")


def record(num, label, ok, elapsed, budget):
    ok = bool(ok) and elapsed < budget
    line = (
        f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}"
        f" [{elapsed:.2f}s / budget {budget:.0f}s]"
    )
    conftest.CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def op_diff(counters, before):
    after = counters.snapshot()
    return {k: after[k] - before[k] for k in OPS}


def test_criterion_01_registration_byte_cost():
    t0 = time.monotonic()
    server, _, ledger, _, _ = establish(n=1, seed=b"c1")
    kinds = [event_kind(b.event) for b in ledger.blocks]
    total = sum(payload_size(b.event) for b in ledger.blocks)
    ok = kinds == ["RegProject", "RegClient"] and total == 100
    record(1, "registration byte cost", ok, time.monotonic() - t0, 1.0)


def test_criterion_02_round_byte_cost():
    t0 = time.monotonic()
    server, parts, ledger, clock, model = establish(n=1, rounds=4, length=9, seed=b"c2")
    before = ledger.onchain_bytes()
    run_round(server, parts, clock, model)
    delta = ledger.onchain_bytes() - before
    kinds = [event_kind(b.event) for b in ledger.blocks[-3:]]
    ok = delta == 148 and kinds == ["Task", "Update", "Feedback"]
    record(2, "round byte cost", ok, time.monotonic() - t0, 1.0)


def test_criterion_03_epoch_schedule():
    t0 = time.monotonic()
    plog = []
    server, parts, _, clock, model = establish(
        n=1, rounds=10, length=9, seed=b"c3", participant_logs=[plog]
    )
    for _ in range(10):
        model = run_round(server, parts, clock, model)
    epoch_one = [row for row in plog if row[3] == 1]
    keys = {row[5] for row in plog}
    ok = (
        len(epoch_one) == 9
        and [row[4] for row in epoch_one] == list(range(1, 10))
        and plog[9][2:5] == (10, 2, 1)
        and len(keys) == 10
    )
    record(3, "epoch schedule", ok, time.monotonic() - t0, 1.0)


def test_criterion_04_key_agreement():
    t0 = time.monotonic()
    slog = []
    plogs = [[] for _ in range(5)]
    server, parts, _, clock, model = establish(
        n=5, rounds=30, length=10, seed=b"c4",
        server_log=slog, participant_logs=plogs,
    )
    for _ in range(30):
        model = run_round(server, parts, clock, model)
    server_keys = {(row[1], row[2]): row[5] for row in slog}
    pairs = 0
    matched = 0
    epochs_per_session = set()
    for p, plog in zip(parts, plogs):
        epochs_per_session.add(frozenset(row[3] for row in plog))
        for row in plog:
            pairs += 1
            if server_keys.get((p.address, row[2])) == row[5]:
                matched += 1
    ok = (
        pairs == 150
        and matched == 150
        and len(server_keys) == 150
        and epochs_per_session == {frozenset({1, 2, 3})}
    )
    record(4, "key agreement across sides", ok, time.monotonic() - t0, 10.0)


def test_criterion_05_operation_counts():
    t0 = time.monotonic()
    server, parts, _, clock, model = establish(n=1, rounds=3, length=2, seed=b"c5")
    p = parts[0]
    diffs = []
    for _ in range(3):
        s0, p0 = server.counters.snapshot(), p.counters.snapshot()
        model = run_round(server, parts, clock, model)
        diffs.append((op_diff(server.counters, s0), op_diff(p.counters, p0)))
    sym = {"keygen": 0, "encap": 0, "decap": 0, "derive": 2, "sign": 1, "verify": 1}
    rot_server = {"keygen": 2, "encap": 0, "decap": 1, "derive": 2, "sign": 1, "verify": 1}
    rot_part = {"keygen": 1, "encap": 1, "decap": 0, "derive": 2, "sign": 1, "verify": 1}
    ok = (
        diffs[0] == (sym, sym)
        and diffs[1] == (rot_server, rot_part)
        and diffs[2] == (sym, sym)
    )
    record(5, "operation counts per round type", ok, time.monotonic() - t0, 1.0)


def test_criterion_06_compromise_window():
    t0 = time.monotonic()
    plog = []
    server, parts, _, clock, model = establish(
        n=1, rounds=10, length=5, seed=b"c6", participant_logs=[plog]
    )
    p = parts[0]
    captures = {}
    for _ in range(10):
        clock.advance(60)
        _, envs = server.publish_round(model)
        got = p.handle_task(rewire(envs[p.address]))
        captures[server.round] = ratchet.serialize_state(p.ratchet)
        local = fl.local_train(got, 7, 0.01, got.round + 1)
        _, received = server.handle_update(rewire(p.send_update(local)))
        model = fl.aggregate([received])
        server.feedback(p.address, 1, 1 if server.round == 10 else 0, model)

    honest = {row[2]: (row[3], row[4], row[5]) for row in plog}  # round -> (j, i, key)
    ok = len(honest) == 10
    for rnd, blob in captures.items():
        state = ratchet.deserialize_state(blob)
        j, i = honest[rnd][0], honest[rnd][1]
        ok = ok and (state.epoch, state.step) == (j, i)
        # an attacker holding the captured state ignores the epoch guard and
        # keeps feeding the chain key back through the KDF
        ck = state.chain_key
        walked = []
        for _ in range(10):
            walked.append(crypto.hkdf(bytes(48), ck, ratchet.LABEL_MODEL, 32))
            ck = crypto.hkdf(bytes(48), ck, ratchet.LABEL_CHAIN, 32)
        epoch_end = j * 5
        remaining = [honest[r][2] for r in range(rnd + 1, epoch_end + 1)]
        ok = ok and walked[: len(remaining)] == remaining
        next_epoch = {honest[r][2] for r in range(epoch_end + 1, 11) if honest[r][0] == j + 1}
        ok = ok and not (set(walked) & next_epoch)
    record(6, "compromise window is one epoch tail", ok, time.monotonic() - t0, 5.0)


def test_criterion_07_attack_rejection():
    t0 = time.monotonic()
    plans = {
        "replay": dict(participants=1, rounds=1, replay_attack=True),
        "tamper": dict(participants=1, rounds=1, tamper_attack=True),
        "mitm_key_swap": dict(participants=1, rounds=1, mitm_key_swap=True),
        "free_ride": dict(participants=2, rounds=2, free_ride=True),
    }
    designated = {
        "replay": {"ReplayDetected"},
        "tamper": {"BadSignature", "AuthFailure"},
        "mitm_key_swap": {"CommitmentMismatch"},
        "free_ride": {"no_leak"},
    }
    ok = True
    for scenario, plan in plans.items():
        for seed in range(100):
            cfg = SimConfig(ratchet_range=5, model_dim=4, seed=seed, **plan)
            m = run_simulation(cfg)
            mine = [a for a in m.attacks if a.scenario == scenario]
            ok = ok and m.terminated and len(mine) >= 1
            ok = ok and all(a.rejected and a.outcome in designated[scenario] for a in mine)
            if not ok:
                break
        if not ok:
            break
    record(7, "attack rejection 4x100 trials", ok, time.monotonic() - t0, 30.0)


def test_criterion_08_aggregation_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(80_000)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 65))
        rnd = int(rng.integers(0, 1000))
        models = [
            fl.ModelVector(rng.normal(0, 10, dim), rnd) for _ in range(n)
        ]
        weights = rng.uniform(0.1, 5.0, n).tolist()
        got = fl.aggregate(models, weights)
        expected = np.array([
            math.fsum(m.values[k] * w for m, w in zip(models, weights)) / n
            for k in range(dim)
        ])
        ok = ok and got.round == rnd
        ok = ok and np.all(np.abs(got.values - expected) <= 1e-12)
        if not ok:
            break
    record(8, "aggregation vs brute-force oracle", ok, time.monotonic() - t0, 10.0)


def test_criterion_09_key_material_trend():
    t0 = time.monotonic()
    totals = {}
    for length in (5, 20):
        cfg = SimConfig(
            participants=10, rounds=60, ratchet_range=length, model_dim=4, seed=9
        )
        totals[length] = run_simulation(cfg).key_material_bytes
    ok = totals[20] * 3 < totals[5]
    record(9, "key material shrinks to under a third", ok, time.monotonic() - t0, 10.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = SimConfig(participants=3, rounds=10, ratchet_range=4, model_dim=16, seed=42)
    a, b = tmp_path / "a", tmp_path / "b"
    write_outputs(run_simulation(cfg), str(a))
    write_outputs(run_simulation(cfg), str(b))
    names_a, names_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    ok = names_a == names_b and len(names_a) >= 4
    for name in names_a:
        ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
    record(10, "byte-identical reruns", ok, time.monotonic() - t0, 10.0)
