"""Batch orchestration: seeded end-to-end runs, fault injection, metrics.

`run_simulation` drives one full project lifecycle (registration, session
establishment, R rounds with the key-rotation schedule, scored feedback,
termination) over an in-process ledger and an instrumented channel, entirely
deterministically: every random choice flows from the config seed, and the
clock is simulated.  Sessions run in lockstep round by round and metrics are
snapshotted at round boundaries, so output files are reproducible
byte for byte.

The channel's fault model is four scenarios: `replay` re-delivers a captured
envelope, `tamper` flips a bit inside a sealed payload, `mitm_key_swap`
replaces announced keys in transit (re-signed, modeling a compromised
signing oracle), and `free_ride` withholds one participant's final update
while eavesdropping on everything.  Injections ride alongside the honest
copies, so an attacked run still completes and terminates; every injection
and its rejection lands in the attack log.

Metrics rows are cumulative per party, one row per (round, party) starting
at round 0 (registration plus establishment), so every counter column is
non-negative and monotone within a run.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import crypto, fl, protocol, ratchet
from .ledger import Ledger, LedgerConfig, SimClock, TaskEvent, payload_size
from .protocol import (
    AuthFailure,
    CommitmentMismatch,
    KeyAnnouncement,
    ProtocolError,
    ReplayDetected,
    SignedEnvelope,
)

# each fault scenario and the SimConfig flag that arms it, in arming order
SCENARIO_FLAGS = {
    "replay": "replay_attack",
    "tamper": "tamper_attack",
    "mitm_key_swap": "mitm_key_swap",
    "free_ride": "free_ride",
}
SCENARIOS = ("honest", *SCENARIO_FLAGS)

METRICS_HEADER = (
    "round", "party", "offchain_bytes", "onchain_bytes",
    "keygen", "encap", "decap", "derive", "sign", "verify",
)


@dataclass
class SimConfig:
    participants: int = 1
    rounds: int = 1
    ratchet_range: int | tuple[int, ...] = 10
    model_dim: int = 32
    seed: int = 0
    deposit: int = 1000
    noise_scale: float = 0.1
    deadline_window: int = 600
    skew_bound: int = 300
    project_id: int = 1
    replay_attack: bool = False
    tamper_attack: bool = False
    mitm_key_swap: bool = False
    free_ride: bool = False

    def __post_init__(self):
        if self.participants < 1:
            raise ValueError("participants must be at least 1")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.rounds > 255:
            raise ValueError(
                "rounds must be at most 255: the ledger prices a round number as one byte"
            )
        lengths = (
            (self.ratchet_range,)
            if isinstance(self.ratchet_range, int)
            else tuple(self.ratchet_range)
        )
        if not lengths or any(l < 1 for l in lengths):
            raise ValueError("ratchet range entries must be at least 1")
        if self.model_dim < 1:
            raise ValueError("model_dim must be at least 1")
        if self.free_ride and self.participants < 2:
            raise ValueError("free_ride needs a second participant to compare against")

    def scenario_names(self) -> list[str]:
        return [name for name, flag in SCENARIO_FLAGS.items() if getattr(self, flag)]


@dataclass(frozen=True)
class InjectionRecord:
    scenario: str
    phase: str        # establish / task / update / eavesdrop
    round: int
    victim: str
    expected: str
    outcome: str
    rejected: bool
    detail: str


@dataclass
class MetricsRow:
    round: int
    party: str
    offchain_bytes: int
    onchain_bytes: int
    keygen: int
    encap: int
    decap: int
    derive: int
    sign: int
    verify: int
    offchain_recv_bytes: int = 0      # kept out of the fixed CSV schema
    key_material_bytes: int = 0

    def csv_values(self) -> list:
        return [getattr(self, name) for name in METRICS_HEADER]


@dataclass
class RunMetrics:
    config: SimConfig
    rows: list[MetricsRow]
    events: list[str]                 # ledger export lines
    attacks: list[InjectionRecord]
    transcripts: dict[str, list[str]]
    scores: dict[str, int]
    asymmetric_ratchets: int          # establishment plus rotations, per session
    final_epoch: int
    key_material_bytes: int           # all parties, both directions
    final_model_digest: str
    terminated: bool

    def all_attacks_rejected(self) -> bool:
        return all(r.rejected for r in self.attacks)


class Channel:
    """Instrumented delivery path between server and participants.

    Captures every envelope it carries; armed scenarios add forged, replayed,
    or tampered deliveries next to the honest ones.
    """

    def __init__(self, rng: crypto.DeterministicRng, rounds: int, participants: int):
        self.rng = rng
        self.rounds = rounds
        self.participants = participants
        self.captured: list[bytes] = []
        self.records: list[InjectionRecord] = []
        self.plans: dict[str, dict] = {}     # armed scenario -> its injection plan

    def _draw(self, modulus: int) -> int:
        return int.from_bytes(self.rng.bytes(4), "big") % modulus

    def arm(self, scenario: str) -> None:
        if scenario in ("replay", "tamper"):
            self.plans[scenario] = {
                "round": 1 + self._draw(self.rounds),
                "phase": ("task", "update")[self._draw(2)],
                "victim": self._draw(self.participants),
            }
        elif scenario == "mitm_key_swap":
            self.plans[scenario] = {"victim": self._draw(self.participants)}
        elif scenario == "free_ride":
            # the last participant rides free if there is anyone else to carry it
            self.plans[scenario] = {"victim": self.participants - 1}
        else:
            raise ValueError(f"unknown scenario {scenario!r}")

    def _attempt(self, scenario, phase, round, victim, blob, deliver, expected) -> None:
        try:
            deliver(blob)
            outcome, rejected = "accepted", False
        except (ProtocolError, AuthFailure) as exc:
            outcome = type(exc).__name__
            rejected = isinstance(exc, expected)
        self.records.append(
            InjectionRecord(
                scenario=scenario, phase=phase, round=round, victim=victim,
                expected=expected.__name__, outcome=outcome, rejected=rejected,
                detail="injected copy alongside honest delivery",
            )
        )

    def _flip_payload_bit(self, env: SignedEnvelope) -> bytes:
        payload = bytearray(env.payload)
        pos = self._draw(len(payload))
        bit = self._draw(8)
        payload[pos] ^= 1 << bit
        return replace(env, payload=bytes(payload)).encode()

    # delivery entry points; `deliver` takes wire bytes and runs the handler

    def announcement(self, env: SignedEnvelope, victim: int, deliver, forge):
        blob = env.encode()
        self.captured.append(blob)
        if self.plans.get("mitm_key_swap") == {"victim": victim}:
            forged = forge()
            self.captured.append(forged)
            self._attempt(
                "mitm_key_swap", "establish", 0, f"client-{victim + 1}",
                forged, deliver, CommitmentMismatch,
            )
        return deliver(blob)

    def response(self, env: SignedEnvelope, deliver):
        blob = env.encode()
        self.captured.append(blob)
        return deliver(blob)

    def round_message(self, phase: str, env: SignedEnvelope, round: int, victim: int, deliver):
        """Carry a round's task or update (`phase`) for participant `victim`."""
        blob = env.encode()
        self.captured.append(blob)
        name = f"client-{victim + 1}"
        target = {"round": round, "phase": phase, "victim": victim}
        if self.plans.get("tamper") == target:
            self._attempt("tamper", phase, round, name,
                          self._flip_payload_bit(env), deliver, AuthFailure)
        result = deliver(blob)
        if self.plans.get("replay") == target:
            self._attempt("replay", phase, round, name, blob, deliver, ReplayDetected)
        return result

    def scan_for_leak(self, plaintexts: list[bytes], victim: int) -> None:
        leaked = sum(
            1 for pt in plaintexts for blob in self.captured if pt in blob
        )
        self.records.append(
            InjectionRecord(
                scenario="free_ride", phase="eavesdrop", round=0,
                victim=f"client-{victim + 1}", expected="no_leak",
                outcome="no_leak" if leaked == 0 else f"leaked {leaked}",
                rejected=leaked == 0,
                detail=f"scanned {len(self.captured)} captured envelopes "
                       f"for {len(plaintexts)} plaintext models",
            )
        )


def run_simulation(config: SimConfig) -> RunMetrics:
    """Execute one full lifecycle and collect metrics.

    Honest runs must not raise; injected attacks are absorbed by the channel
    and logged.  A withholding participant never desynchronizes the rotation
    schedule because only the final round's update is withheld and rotations
    never occur on the final round.
    """
    root = crypto.DeterministicRng(config.seed)
    clock = SimClock()
    ledger = Ledger(LedgerConfig(deposit=config.deposit), clock)
    rconfig = ratchet.RatchetConfig(config.ratchet_range)
    channel = Channel(root.fork("channel"), config.rounds, config.participants)
    for name in config.scenario_names():
        channel.arm(name)

    server = protocol.Server(
        root.fork("server"), ledger, clock,
        project_id=config.project_id, capacity=config.participants,
        rounds_planned=config.rounds, config=rconfig,
        deadline_window=config.deadline_window, max_skew=config.skew_bound,
    )
    participants = [
        protocol.Participant(
            root.fork(f"participant-{i}"), ledger, clock, rconfig,
            max_skew=config.skew_bound,
        )
        for i in range(config.participants)
    ]
    train_seeds = [
        int.from_bytes(root.fork(f"train-{i}").bytes(8), "big")
        for i in range(config.participants)
    ]
    attacker_rng = root.fork("attacker")

    names = {server.address: "server"}
    for i, p in enumerate(participants):
        names[p.address] = f"client-{i + 1}"
    parties = [("server", server)] + [
        (f"client-{i + 1}", p) for i, p in enumerate(participants)
    ]

    # on-chain bytes per sender, drained from new blocks at snapshot points
    onchain: dict[str, int] = {name: 0 for name, _ in parties}
    cursor = 0

    def drain_blocks():
        nonlocal cursor
        while cursor < len(ledger.blocks):
            block = ledger.blocks[cursor]
            name = names.get(block.sender)
            if name is not None:
                onchain[name] += payload_size(block.event)
            cursor += 1

    rows: list[MetricsRow] = []

    def snapshot(round: int):
        drain_blocks()
        for name, party in parties:
            rows.append(
                MetricsRow(
                    round=round, party=name, onchain_bytes=onchain[name],
                    **party.counters.snapshot(),
                )
            )

    # registration and establishment (round 0)
    global_model = fl.ModelVector(np.zeros(config.model_dim), 0, fl.GLOBAL_TAG)
    server.bootstrap(global_model)
    for p in participants:
        p.join(config.project_id)
    server.admit_clients()

    def forge_announcement():
        # swapped keys re-signed with the server's own signer: the scenario
        # models a compromised signing oracle, so reaching into the private
        # key here is the attack, not an API
        atk_kem = crypto.kem_keygen(attacker_rng.bytes(32))
        atk_dh = crypto.dh_keygen(attacker_rng)
        msg = KeyAnnouncement(
            project_id=config.project_id,
            registration_block=server.registration_block,
            kem_public=atk_kem.public,
            dh_public=atk_dh.public,
        )
        env = protocol.build_envelope(
            protocol.MSG_KEY_ANNOUNCEMENT, 0, msg.encode(), server._sig, clock.now()
        )
        return env.encode()

    for i, p in enumerate(participants):
        ann = server.send_keys(p.address)
        resp = channel.announcement(
            ann, i,
            deliver=lambda blob, p=p: p.handle_keys(SignedEnvelope.decode(blob)),
            forge=forge_announcement,
        )
        channel.response(
            resp,
            deliver=lambda blob: server.handle_key_response(SignedEnvelope.decode(blob)),
        )
    snapshot(0)

    plaintexts: list[bytes] = []
    free_rider = channel.plans.get("free_ride", {}).get("victim")

    for rnd in range(1, config.rounds + 1):
        clock.advance(60)
        _, envelopes = server.publish_round(global_model)
        plaintexts.append(fl.serialize_model(global_model))
        collected = []
        for i, p in enumerate(participants):
            got = channel.round_message(
                "task", envelopes[p.address], rnd, i,
                deliver=lambda blob, p=p: p.handle_task(SignedEnvelope.decode(blob)),
            )
            local = fl.local_train(
                got, train_seeds[i], config.noise_scale, rnd, tag=f"client-{i + 1}"
            )
            if free_rider == i and rnd == config.rounds:
                # withheld update: trained but never sent, never scored
                continue
            plaintexts.append(fl.serialize_model(local))
            upd = p.send_update(local)
            _, model = channel.round_message(
                "update", upd, rnd, i,
                deliver=lambda blob: server.handle_update(SignedEnvelope.decode(blob)),
            )
            collected.append((p.address, model))
        global_model = fl.aggregate([m for _, m in collected])
        for addr, _ in collected:
            server.feedback(addr, 1, 1 if rnd == config.rounds else 0, global_model)
        if rnd == config.rounds:
            server.finish()
        snapshot(rnd)

    if free_rider is not None:
        channel.scan_for_leak(plaintexts, free_rider)

    transcripts: dict[str, list[str]] = {"server": []}
    for i, p in enumerate(participants):
        name = f"client-{i + 1}"
        session = server.sessions[p.address]
        transcripts["server"].extend(
            f"session={name} {row.format()}" for row in session.transcript
        )
        transcripts[name] = [row.format() for row in p.transcript]

    rotations = sum(
        1 for ev in ledger.events if isinstance(ev, TaskEvent) and ev.h_keys
    )
    return RunMetrics(
        config=config,
        rows=rows,
        events=ledger.export().splitlines(),
        attacks=channel.records,
        transcripts=transcripts,
        scores={
            f"client-{i + 1}": ledger.score_of(config.project_id, p.address)
            for i, p in enumerate(participants)
        },
        asymmetric_ratchets=1 + rotations,
        final_epoch=next(iter(server.sessions.values())).ratchet.epoch,
        key_material_bytes=sum(p.counters.key_material_bytes for _, p in parties),
        final_model_digest=crypto.digest(fl.serialize_model(global_model)).hex(),
        terminated=ledger.project_info(config.project_id)["done"],
    )


# --- output files -----------------------------------------------------------

def emit_metrics(metrics: RunMetrics, path: str) -> None:
    """Fixed-schema CSV: one cumulative row per (round, party)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(METRICS_HEADER)
        for row in metrics.rows:
            w.writerow(row.csv_values())


def write_outputs(metrics: RunMetrics, out_dir: str) -> dict[str, str]:
    """Write metrics.csv, ledger.txt, transcripts, and run.json; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    paths["metrics"] = os.path.join(out_dir, "metrics.csv")
    emit_metrics(metrics, paths["metrics"])

    paths["ledger"] = os.path.join(out_dir, "ledger.txt")
    with open(paths["ledger"], "w") as fh:
        fh.write("\n".join(metrics.events) + "\n")

    for name, lines in metrics.transcripts.items():
        key = f"transcript-{name}"
        paths[key] = os.path.join(out_dir, f"transcript-{name}.txt")
        with open(paths[key], "w") as fh:
            fh.write("\n".join(lines) + "\n")

    summary = {
        "config": asdict(metrics.config),
        "scores": metrics.scores,
        "asymmetric_ratchets": metrics.asymmetric_ratchets,
        "final_epoch": metrics.final_epoch,
        "key_material_bytes": metrics.key_material_bytes,
        "final_model_digest": metrics.final_model_digest,
        "terminated": metrics.terminated,
        "attacks": [asdict(a) for a in metrics.attacks],
        "all_attacks_rejected": metrics.all_attacks_rejected(),
    }
    paths["summary"] = os.path.join(out_dir, "run.json")
    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _parse_transcript_line(line: str) -> dict[str, str]:
    out = {}
    for token in line.split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def _read_lines(path: str) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def verify_transcripts(run_dir: str) -> list[str]:
    """Cross-check server vs participant transcripts and the ledger export.

    Returns a list of problems; empty means the views agree.
    """
    problems = []
    server_path = os.path.join(run_dir, "transcript-server.txt")
    if not os.path.exists(server_path):
        return [f"missing {server_path}"]
    sessions: dict[str, list[str]] = {}
    for line in _read_lines(server_path):
        fields = _parse_transcript_line(line)
        name = fields.pop("session", None)
        if name is None:
            problems.append(f"server transcript line without session: {line}")
            continue
        sessions.setdefault(name, []).append(line.split(" ", 1)[1])

    ledger_path = os.path.join(run_dir, "ledger.txt")
    chain_digests = set()
    if os.path.exists(ledger_path):
        for line in _read_lines(ledger_path):
            fields = _parse_transcript_line(line)
            for key in ("h_info", "h_model", "h_keys", "h_key"):
                if fields.get(key):
                    chain_digests.add(fields[key])
    else:
        problems.append(f"missing {ledger_path}")

    for name, server_lines in sorted(sessions.items()):
        client_path = os.path.join(run_dir, f"transcript-{name}.txt")
        if not os.path.exists(client_path):
            problems.append(f"missing {client_path}")
            continue
        client_lines = _read_lines(client_path)
        if server_lines != client_lines:
            limit = min(len(server_lines), len(client_lines))
            at = next(
                (k for k in range(limit) if server_lines[k] != client_lines[k]),
                limit,
            )
            problems.append(
                f"{name}: transcripts diverge at line {at + 1} "
                f"(server has {len(server_lines)} lines, client {len(client_lines)})"
            )
        for line in client_lines:
            fields = _parse_transcript_line(line)
            if int(fields["round"]) >= 1 and fields["digest"] not in chain_digests:
                problems.append(
                    f"{name}: round {fields['round']} {fields['dir']} digest "
                    f"not anchored on chain"
                )
    if not sessions:
        problems.append("server transcript lists no sessions")
    return problems
