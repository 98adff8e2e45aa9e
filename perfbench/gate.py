"""Correctness gate applied to every benchmarked simulation.

A run passes only if it terminated, its written artifacts pass
`harness.verify_transcripts`, every injection was rejected with its designated
error, its priced on-chain bytes follow the paper's accounting, and its final
model digest equals a plain-FedAvg oracle computed without the protocol.
"""

from __future__ import annotations

import hashlib

import numpy as np

from pqbfl import crypto, fl, harness

DESIGNATED = {
    "replay": {"ReplayDetected"},
    "tamper": {"BadSignature", "AuthFailure"},
    "mitm_key_swap": {"CommitmentMismatch"},
    "free_ride": {"no_leak"},
}

# priced calldata bytes (ledger.payload_size): task, update, feedback, finish
TASK_BYTES, UPDATE_BYTES, FEEDBACK_BYTES, FINISH_BYTES = 39, 37, 72, 2
ROTATION_BYTES = 32   # h_keys on the task, h_ct_key on each update
PROJECT_BYTES, CLIENT_BYTES = 68, 32


def free_rider(config: harness.SimConfig) -> int | None:
    return config.participants - 1 if config.free_ride else None


def plain_fedavg_digest(config: harness.SimConfig) -> str:
    """Final model digest of the same training run with no protocol at all.

    Training seeds are derived from the config seed exactly as the harness
    derives them; a free rider's last update is dropped.
    """
    root = crypto.DeterministicRng(config.seed)
    seeds = [
        int.from_bytes(root.fork(f"train-{i}").bytes(8), "big")
        for i in range(config.participants)
    ]
    withheld = free_rider(config)
    model = fl.ModelVector(np.zeros(config.model_dim), 0, fl.GLOBAL_TAG)
    for rnd in range(1, config.rounds + 1):
        local = [
            fl.local_train(model, seeds[i], config.noise_scale, rnd, tag=f"client-{i + 1}")
            for i in range(config.participants)
            if not (withheld == i and rnd == config.rounds)
        ]
        model = fl.aggregate(local)
    return hashlib.sha256(fl.serialize_model(model)).hexdigest()


def expected_round_bytes(config: harness.SimConfig, rnd: int) -> int:
    """On-chain bytes of round `rnd` under the paper's accounting (148 B for
    one participant without rotation), excluding project termination."""
    rotate = rnd % config.ratchet_range == 0 and rnd < config.rounds
    senders = config.participants
    if free_rider(config) is not None and rnd == config.rounds:
        senders -= 1
    extra = ROTATION_BYTES if rotate else 0
    return TASK_BYTES + extra + senders * (UPDATE_BYTES + extra + FEEDBACK_BYTES)


def onchain_by_round(metrics: harness.RunMetrics) -> list[int]:
    """Priced on-chain bytes added in rounds 0..R, summed over parties."""
    totals: dict[int, int] = {}
    for row in metrics.rows:
        totals[row.round] = totals.get(row.round, 0) + row.onchain_bytes
    cumulative = [totals[r] for r in sorted(totals)]
    return [cumulative[0]] + [b - a for a, b in zip(cumulative, cumulative[1:])]


def problems(metrics: harness.RunMetrics, run_dir: str, expected_digest: str) -> list[str]:
    """Everything wrong with one finished run; empty means it passes."""
    config = metrics.config
    out = []
    if not metrics.terminated:
        out.append("project did not terminate")
    out += harness.verify_transcripts(run_dir)
    armed = set(config.scenario_names())
    for rec in metrics.attacks:
        if rec.scenario not in armed:
            out.append(f"injection from unarmed scenario {rec.scenario}")
        elif not rec.rejected or rec.outcome not in DESIGNATED[rec.scenario]:
            out.append(f"{rec.scenario} {rec.phase} round {rec.round}: {rec.outcome}")
    for name in armed - {rec.scenario for rec in metrics.attacks}:
        out.append(f"{name} armed but never injected")
    if metrics.final_model_digest != expected_digest:
        out.append("final model digest differs from the plain-FedAvg oracle")
    per_round = onchain_by_round(metrics)
    want = [PROJECT_BYTES + CLIENT_BYTES * config.participants] + [
        expected_round_bytes(config, r) for r in range(1, config.rounds + 1)
    ]
    want[-1] += FINISH_BYTES
    if per_round != want:
        out.append(f"on-chain bytes per round {per_round} != accounting {want}")
    return out


def artifact_digests(paths: dict[str, str]) -> dict[str, str]:
    out = {}
    for key, path in sorted(paths.items()):
        with open(path, "rb") as fh:
            out[key] = hashlib.sha256(fh.read()).hexdigest()
    return out
