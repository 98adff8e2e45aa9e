"""Batch orchestration: seeded end-to-end runs, fault injection, metrics.

`run_simulation` drives one full project lifecycle (registration, session
establishment, R rounds with the key-rotation schedule, one feedback call
closing each round, termination) over an in-process ledger and an
instrumented channel, entirely deterministically: every random choice flows
from the config seed, and the clock is simulated.  Every session takes each
round together, and metrics are snapshotted at round boundaries, so output
files are reproducible byte for byte.

Each exchange goes out over windows of participants (see `_exchange`), and
every envelope's signature check is handed to `crypto.verifier` as soon as
the envelope exists; its handle travels beside the envelope to the receiving
handler.  The order of channel carries, ledger blocks, folds, transcript
rows, counters and injections is the same at any window size, so every
artifact is too.

Every delivery is envelope wire bytes handed from a send call through
`Channel.carry` straight to the receiving handler.  The channel's fault
model is four scenarios: `replay` re-delivers the envelope it just carried,
`tamper` flips a bit inside a sealed payload, `mitm_key_swap` replaces
announced keys in transit (re-signed, modeling a compromised signing
oracle), and `free_ride` withholds one participant's final update while
eavesdropping on everything.  The first three each target one (round, phase,
participant) delivery; injections ride alongside the honest copies, so an
attacked run still completes and terminates.  Every injection, and every plan
whose delivery never came, lands in the attack log.  No envelope outlives its
hop unless the `free_ride` eavesdropper finds a model sent in the clear in it.

Metrics rows are cumulative per party, one row per (round, party) starting
at round 0 (registration plus establishment), so every counter column is
non-negative and monotone within a run.
"""

from __future__ import annotations

import csv
import json
import os
from collections import deque
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import crypto, fl, protocol, ratchet
from .ledger import (
    FeedbackEvent, Ledger, LedgerConfig, LedgerError, RegClientEvent, RegProjectEvent, SimClock,
    TaskEvent, UpdateEvent, event_kind, payload_size, read_blocks,
)
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

# the rejection each injecting scenario expects from the receiving handler
EXPECTED = {"replay": ReplayDetected, "tamper": AuthFailure, "mitm_key_swap": CommitmentMismatch}

METRICS_HEADER = (
    "round", "party", "offchain_bytes", "onchain_bytes",
    "keygen", "encap", "decap", "derive", "sign", "verify",
)

# A numpy Gaussian draw stays below 16 sigma (its ziggurat tail is drawn from
# 53-bit uniforms and ends near 12.2 sigma), and a round moves the global model
# by at most one averaged draw.  So over at most 255 rounds every local model
# entry stays below 256 * 16 * noise_scale, which is finite in float64
# (max 1.8e308) for noise_scale < 4.4e304; round down.
MAX_NOISE_SCALE = 1e304

# A round's traced peak, in model sizes (8 * model_dim bytes): the task
# plaintext, the running sum, and three copies in flight, as a participant's
# send holds its local model, the update payload and the sealed envelope at
# once (see `run_simulation`).
ROUND_MODEL_COPIES = 5

# The envelope bytes one exchange keeps in flight: a window holds as many
# participants as their envelopes fit here, at least one.
WAVE_BYTES = 256 * 1024

# The largest payload is a sealed rotation round: 8 * model_dim value bytes
# plus under 2 KiB of headers, length prefixes, fresh keys, model tag and AEAD
# tag.  Its length prefix, like the model's, is four bytes, so it fits for
# model_dim <= (2**32 - 1 - 2048) // 8 = 536,870,655; round down.
MAX_MODEL_DIM = 536_000_000


def physical_memory() -> int | None:
    """Bytes of physical memory on this host, or None where unknown."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None   # sysconf reads -1 for an unknown value


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
        ratchet.RatchetConfig(self.ratchet_range)   # raises on a bad range
        if not 1 <= self.model_dim <= MAX_MODEL_DIM:
            raise ValueError(
                f"model_dim must be between 1 and {MAX_MODEL_DIM}: "
                "a sealed payload's length prefix is four bytes"
            )
        if self.participants > 0xFFFF:
            raise ValueError(
                "participants must be at most 65535: the ledger prices a capacity as two bytes"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 <= self.deposit <= LedgerConfig().initial_balance:
            raise ValueError(
                f"deposit must be between 0 and the initial balance "
                f"{LedgerConfig().initial_balance}"
            )
        if not 0 <= self.noise_scale <= MAX_NOISE_SCALE:
            raise ValueError(f"noise scale must be between 0 and {MAX_NOISE_SCALE:g}")
        if self.skew_bound < 0:
            raise ValueError("skew bound must be non-negative")
        for name in ("project_id", "deadline_window"):
            if not 0 <= getattr(self, name) <= 0xFFFF:
                raise ValueError(
                    f"{name} must be between 0 and 65535: the ledger prices it as two bytes"
                )
        if self.free_ride and self.participants < 2:
            raise ValueError("free_ride needs a second participant to compare against")
        estimate, memory = self.peak_bytes(), physical_memory()
        if memory is not None and estimate > memory:
            raise ValueError(
                f"estimated peak memory {estimate / 2**30:.1f} GiB exceeds this host's "
                f"{memory / 2**30:.1f} GiB: lower model_dim"
                + (", rounds or participants" if self.free_ride else "")
            )

    def peak_bytes(self) -> int:
        """Estimated peak model bytes of a run: a round's copies, plus, under
        `free_ride`, the eavesdropper's list of every model shown in the
        clear (the global and each local model of every round)."""
        copies = ROUND_MODEL_COPIES
        if self.free_ride:
            copies += self.rounds * (self.participants + 1)
        return copies * 8 * self.model_dim

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


@dataclass(kw_only=True)
class MetricsRow(protocol.OpCounters):
    """One party's cumulative counters at a round boundary.  The CSV keeps
    the `METRICS_HEADER` columns, without `offchain_recv_bytes` and
    `key_material_bytes`."""

    round: int
    party: str
    onchain_bytes: int

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
    final_epoch: int                  # establishment plus rotations
    key_material_bytes: int           # all parties, both directions
    final_model_digest: str
    terminated: bool

    def all_attacks_rejected(self) -> bool:
        return all(r.rejected for r in self.attacks)


class Channel:
    """Instrumented delivery path between server and participants.

    Carries envelope wire bytes.  Every scenario the config arms gets its plan
    here, drawn from `rng` in `SCENARIO_FLAGS` order.  A replay, tamper or mitm
    plan targets one (round, phase, participant) delivery and adds a forged,
    tampered or replayed copy next to the honest one.  A `free_ride` eavesdropper
    scans each envelope as it is carried for the models `shown` so far, and
    `captured` keeps only the envelopes it found one in.
    """

    def __init__(self, rng: crypto.DeterministicRng, config: SimConfig):
        self.rng = rng
        self.captured: list[bytes] = []      # envelopes a shown model was found in
        self.shown: list[bytes] = []         # serialized models sent so far, free_ride only
        self.scanned = self.leaked = 0
        self.records: list[InjectionRecord] = []
        self.plans: dict[str, dict] = {}     # armed scenario -> its injection plan
        n = config.participants
        for name in config.scenario_names():
            if name == "free_ride":   # the last participant; SimConfig requires a second
                self.plans[name] = {"victim": n - 1}
            elif name == "mitm_key_swap":
                self.plans[name] = {"round": 0, "phase": "establish", "victim": self._draw(n)}
            else:
                rnd, phase = 1 + self._draw(config.rounds), ("task", "update")[self._draw(2)]
                self.plans[name] = {"round": rnd, "phase": phase, "victim": self._draw(n)}

    def _draw(self, modulus: int) -> int:
        return int.from_bytes(self.rng.bytes(4), "big") % modulus

    def _attempt(self, scenario, phase, round, victim, blob, deliver) -> None:
        expected = EXPECTED[scenario]
        try:
            deliver(blob)
            outcome, rejected = "accepted", False
        except (ProtocolError, AuthFailure) as exc:
            outcome = type(exc).__name__
            rejected = isinstance(exc, expected)
        self.records.append(
            InjectionRecord(
                scenario=scenario, phase=phase, round=round, victim=f"client-{victim + 1}",
                expected=expected.__name__, outcome=outcome, rejected=rejected,
                detail="injected copy alongside honest delivery",
            )
        )

    def _flip_payload_bit(self, blob: bytes) -> bytes:
        env = SignedEnvelope.decode(blob)
        payload = bytearray(env.payload)
        pos = self._draw(len(payload))
        bit = self._draw(8)
        payload[pos] ^= 1 << bit
        return replace(env, payload=bytes(payload)).encode()

    def carry(self, phase: str, blob: bytes, round: int, victim: int, deliver, forge=None,
              check=None):
        """Deliver `blob` for participant `victim` and return the handler's result.

        `phase` is "establish" (key announcement), "response", "task" or
        "update"; `deliver` is the receiving handler and `forge` builds the
        key-swapped announcement a `mitm_key_swap` plan injects.  `check`,
        the handle of `blob`'s signature check (`protocol.submit_check`), goes
        to the handler with `blob` alone: every injected copy is delivered
        without it, so its signature is checked in-process.  Without a handle
        the handler is called with the blob alone, so a one-argument handler
        (as `perfbench/selftest.py` swaps in) still takes every delivery that
        has none.
        """
        if "free_ride" in self.plans:
            self.scan_for_leak(blob)
        target = {"round": round, "phase": phase, "victim": victim}
        if self.plans.get("mitm_key_swap") == target:
            forged = forge()
            if "free_ride" in self.plans:
                self.scan_for_leak(forged)
            self._attempt("mitm_key_swap", phase, round, victim, forged, deliver)
        if self.plans.get("tamper") == target:
            self._attempt("tamper", phase, round, victim, self._flip_payload_bit(blob), deliver)
        result = deliver(blob) if check is None else deliver(blob, check)
        if self.plans.get("replay") == target:
            self._attempt("replay", phase, round, victim, blob, deliver)
        return result

    def scan_for_leak(self, blob: bytes) -> None:
        """Count the shown models inside one carried envelope; keep it only if any."""
        self.scanned += 1
        found = sum(pt in blob for pt in self.shown)
        if found:
            self.leaked += found
            self.captured.append(blob)

    def report(self) -> list[InjectionRecord]:
        """Close the attack log with the eavesdropper's verdict, and a failed
        record for each armed injection whose target delivery never came."""
        for scenario, plan in self.plans.items():
            victim = f"client-{plan['victim'] + 1}"
            if scenario == "free_ride":
                self.records.append(InjectionRecord(
                    scenario=scenario, phase="eavesdrop", round=0, victim=victim,
                    expected="no_leak", rejected=not self.leaked,
                    outcome=f"leaked {self.leaked}" if self.leaked else "no_leak",
                    detail=f"scanned {self.scanned} captured envelopes "
                           f"for {len(self.shown)} plaintext models",
                ))
            elif all(r.scenario != scenario for r in self.records):
                self.records.append(InjectionRecord(
                    scenario=scenario, phase=plan["phase"], round=plan["round"], victim=victim,
                    expected=EXPECTED[scenario].__name__, outcome="not injected", rejected=False,
                    detail="the targeted delivery never came",
                ))
        return self.records


def _exchange(participants: int, send, answer, handle) -> None:
    """One exchange between the server and every participant.  `send(i)`
    makes the server's envelope to participant i; `answer(i, inbox)` has
    participant i take it and its check's handle with `inbox.popleft()`, so
    that no one else keeps them, and returns its reply or None;
    `handle(i, reply, check)` has the server handle the reply.  Each step
    runs in participant order.

    A window holds as many participants as their envelopes fit `WAVE_BYTES`,
    judged by the first envelope (every envelope of an exchange has the same
    length), at least one: every participant for a small model, one for a
    wide one.  For each window the server sends the rest of its envelopes,
    its participants answer, the server sends the next window's first
    envelope, and then it handles the window's replies.  Every envelope's
    check is submitted as soon as the envelope exists, so the verifier's
    child (small envelopes) or helper thread (windows of one) checks it
    while this thread works on other participants; only a wide exchange's
    first envelope is checked here, as it is needed at once.  The channel
    carries participant i+1's envelope only after participant i's reply is
    made, so a wide round sends task i+1 before it handles update i."""

    def post(i):
        blob = send(i)
        inbox.append((blob, protocol.submit_check(blob)))

    first = send(0)
    window = max(1, WAVE_BYTES // len(first))
    inbox = deque()
    with crypto.verifier.exchange(participants, wide=window == 1):
        # a wide exchange's first envelope is checked here, while the helper
        # draws its participant's noise
        inbox.append((first, None if window == 1 else protocol.submit_check(first)))
        del first
        for start in range(0, participants, window):
            stop = min(participants, start + window)
            for i in range(start + 1, stop):
                post(i)
            replies = deque()
            for i in range(start, stop):
                reply = answer(i, inbox)
                if reply is not None:
                    replies.append((i, reply, protocol.submit_check(reply)))
                del reply   # before the next participant's copies exist
            if stop < participants:
                post(stop)
            while replies:
                handle(*replies.popleft())


def run_simulation(config: SimConfig) -> RunMetrics:
    """Execute one full lifecycle and collect metrics.

    Honest runs must not raise; injected attacks are absorbed by the channel
    and logged.  Each model sent in the clear is shown to a `free_ride`
    eavesdropper before the envelope carrying it.  A withholding participant
    never desynchronizes the rotation schedule because only the final round's
    update is withheld and rotations never occur on the final round.

    Establishment and every round are one `_exchange` each, in which each
    participant handles its announcement or task (and, in a round, trains)
    and replies.  A wide model's window is one participant, and the next task
    goes out before the last update is handled, so a round holds the same
    model copies at any P,
    `ROUND_MODEL_COPIES` at its peak: the task plaintext, the running sum
    and three in flight (a send's local model, payload and envelope; an
    update's envelope and plaintext beside the next task's envelope; or a
    task's envelope and plaintext beside the noise drawn ahead for its
    participant).  The global model is dropped once published, each
    participant's task envelope is sealed when the server sends it, every
    copy a participant's turn makes is dropped once the next step has it,
    and each accepted update is folded into the running sum as the server
    handles it, in participant order and scaled by `1 / n`, with `n` planned
    up front, so the next global model is bitwise the list average.
    """
    root = crypto.DeterministicRng(config.seed)
    clock = SimClock()
    ledger = Ledger(LedgerConfig(deposit=config.deposit), clock)
    rconfig = ratchet.RatchetConfig(config.ratchet_range)
    channel = Channel(root.fork("channel"), config)

    server = protocol.Server(
        root.fork("server"), ledger, clock,
        project_id=config.project_id, capacity=config.participants,
        rounds_planned=config.rounds, config=rconfig,
        deadline_window=config.deadline_window, max_skew=config.skew_bound,
    )
    clients = {
        f"client-{i + 1}": protocol.Participant(
            root.fork(f"participant-{i}"), ledger, clock, rconfig,
            max_skew=config.skew_bound,
        )
        for i in range(config.participants)
    }
    parties = {"server": server, **clients}
    names, members = list(clients), list(clients.values())
    train_seeds = [
        int.from_bytes(root.fork(f"train-{i}").bytes(8), "big")
        for i in range(config.participants)
    ]
    attacker_rng = root.fork("attacker")

    # cumulative on-chain bytes per party, priced from the blocks new since
    # the last snapshot
    onchain = dict.fromkeys(parties, 0)
    seen = 0
    rows: list[MetricsRow] = []

    def snapshot(round: int):
        nonlocal seen
        spent: dict[bytes, int] = {}
        for block in ledger.blocks[seen:]:
            spent[block.sender] = spent.get(block.sender, 0) + payload_size(block.event)
        seen = len(ledger.blocks)
        for name, party in parties.items():
            onchain[name] += spent.get(party.address, 0)
            rows.append(
                MetricsRow(
                    round=round, party=name, onchain_bytes=onchain[name],
                    **party.counters.snapshot(),
                )
            )

    # registration and establishment (round 0)
    global_model = fl.ModelVector(np.zeros(config.model_dim), 0, fl.GLOBAL_TAG)
    server.bootstrap(global_model)
    for p in clients.values():
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
        return protocol.envelope_bytes(
            protocol.MSG_KEY_ANNOUNCEMENT, 0, msg.encode(), server._sig, clock.now()
        )

    def take_keys(i, inbox):
        blob, check = inbox.popleft()
        return channel.carry(
            "establish", blob, 0, i, members[i].handle_keys, forge=forge_announcement, check=check,
        )

    _exchange(
        config.participants, lambda i: server.send_keys(members[i].address), take_keys,
        lambda i, reply, check: channel.carry(
            "response", reply, 0, i, server.handle_key_response, check=check),
    )
    snapshot(0)

    free_rider = channel.plans.get("free_ride", {}).get("victim")

    def play_round(rnd: int) -> None:
        # one call per round, so a round's envelopes and models are freed
        # before the next round's are built
        nonlocal global_model
        clock.advance(60)
        server.publish_round(global_model)
        if free_rider is not None:
            channel.shown.append(fl.serialize_model(global_model))
        global_model = None   # the server holds the task's committed serialization
        withheld = free_rider if rnd == config.rounds else None
        total = fl.RunningAverage(config.participants - (withheld is not None), config.model_dim)

        def train(i, inbox):
            drawn = None
            if crypto.verifier.helping:   # draw the delta while the task opens
                drawn = crypto.verifier.run(
                    fl.delta_job(train_seeds[i], config.noise_scale, rnd, config.model_dim))
            blob, check = inbox.popleft()
            got = channel.carry("task", blob, rnd, i, members[i].handle_task, check=check)
            del blob   # before training makes the local model
            local = fl.local_train(got, train_seeds[i], config.noise_scale, rnd, tag=names[i],
                                   delta=None if drawn is None else drawn.result())
            del got, drawn
            if i == withheld:
                return None   # trained but never sent, never scored
            if free_rider is not None:
                channel.shown.append(fl.serialize_model(local))
            return members[i].send_update(local)

        def fold(i, reply, check):
            total.add(channel.carry("update", reply, rnd, i, server.handle_update, check=check)[1])

        _exchange(
            config.participants, lambda i: server.send_task(members[i].address), train, fold,
        )
        global_model = total.result()
        server.feedback(global_model)

    for rnd in range(1, config.rounds + 1):
        play_round(rnd)
        if rnd == config.rounds:
            server.finish()
        snapshot(rnd)

    transcripts: dict[str, list[str]] = {"server": []}
    for name, p in clients.items():
        transcripts["server"].extend(
            f"session={name} {row.format()}" for row in server.sessions[p.address].transcript
        )
        transcripts[name] = [row.format() for row in p.session.transcript]

    return RunMetrics(
        config=config,
        rows=rows,
        events=ledger.export().splitlines(),
        attacks=channel.report(),
        transcripts=transcripts,
        scores={
            name: ledger.score_of(config.project_id, p.address) for name, p in clients.items()
        },
        final_epoch=next(iter(server.sessions.values())).ratchet.epoch,
        key_material_bytes=sum(p.counters.key_material_bytes for p in parties.values()),
        final_model_digest=fl.model_digest(global_model).hex(),
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
        "asymmetric_ratchets": metrics.final_epoch,   # one per epoch opened
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
    return dict(token.partition("=")[::2] for token in line.split())


def _read(run_dir: str, name: str) -> str:
    # undecodable bytes become U+FFFD, so they surface as a mismatch
    with open(os.path.join(run_dir, name), errors="replace") as fh:
        return fh.read()


def verify_transcripts(run_dir: str) -> list[str]:
    """Cross-check a run's transcripts with each other and with its ledger.

    `ledger.txt` is replayed under `run.json`'s deposit, must re-export byte
    for byte and must reach `run.json`'s scores and termination.  The replay
    and the ratchet schedule give the rows each session is owed and the
    rounds that carry key commitments.  Every Task must carry `run.json`'s
    deadline window and participant count, every Feedback the key commitment
    in force at its block (the project's, replaced by each rotation Task's),
    and all Feedback of a round one model digest, the last round's being
    `run.json`'s final one.  Returns a list of problems; empty means the
    views agree."""
    problems = []
    if not os.path.exists(os.path.join(run_dir, "transcript-server.txt")):
        return [f"missing {os.path.join(run_dir, 'transcript-server.txt')}"]
    sessions: dict[str, list[str]] = {}
    for line in _read(run_dir, "transcript-server.txt").splitlines():
        head, _, row = line.partition(" ")
        if not head.startswith("session=") or not row:
            problems.append(f"malformed server transcript line: {line}")
            continue
        sessions.setdefault(head.removeprefix("session="), []).append(row)
    if not sessions:
        problems.append("server transcript lists no sessions")
    try:
        summary, text = json.loads(_read(run_dir, "run.json")), _read(run_dir, "ledger.txt")
        config = summary["config"]
        schedule = ratchet.RatchetConfig(config["ratchet_range"])
        project, rounds, deposit, window, participants = (int(config[k]) for k in (
            "project_id", "rounds", "deposit", "deadline_window", "participants"))
        ledger = Ledger.replay(read_blocks(text), LedgerConfig(deposit=deposit))
        info = ledger.project_info(project)
    except (OSError, ValueError, KeyError, TypeError, LedgerError) as exc:
        return problems + [f"cannot replay the run: {type(exc).__name__}: {exc}"]
    if ledger.export() != text:
        problems.append("ledger.txt is not the replayed ledger's export")
    names = {a: f"client-{i}" for i, a in enumerate(info["clients"], 1)}
    scores = {names[a]: score for a, (_, score) in info["clients"].items()}
    if scores != summary.get("scores") or info["done"] != summary.get("terminated"):
        problems.append(f"replayed scores {scores} and done flag {info['done']} differ from "
                        f"run.json's {summary.get('scores')} and {summary.get('terminated')}")

    owed = {}   # (session, dir, block) -> the row's fields
    keys, models = None, {}   # the key commitment in force; round -> its Feedback h_models
    for e in (b.event for b in ledger.blocks if b.event.project_id == project):
        if isinstance(e, FeedbackEvent):
            models.setdefault(e.round, set()).add(e.h_model.hex())
            if e.h_keys != keys:
                problems.append(f"Feedback block {e.block}: h_keys is not the key commitment "
                                "in force")
            continue
        if isinstance(e, TaskEvent):
            for name, want in (("deadline_window", window), ("client_count", participants)):
                if getattr(e, name) != want:
                    problems.append(f"Task block {e.block}: {name}={getattr(e, name)} is not "
                                    f"run.json's {want}")
        if not isinstance(e, (RegProjectEvent, RegClientEvent, TaskEvent, UpdateEvent)):
            continue
        rnd, s2p = getattr(e, "round", 0), isinstance(e, (RegProjectEvent, TaskEvent))
        if s2p:
            keys = e.h_keys or keys
        epoch, step = ratchet.key_of(rnd, schedule)
        # round-0 digests are not on chain, so those rows owe only their block
        want = _parse_transcript_line(protocol.TranscriptRow(
            rnd, epoch, step, "s2p" if s2p else "p2s", getattr(e, "h_info", b""), e.block
        ).format())
        for name in names.values() if s2p else [names[e.client]]:
            owed[name, want["dir"], want["block"]] = want
        rotation = schedule.rotates(rnd, rounds)
        if rnd and bool(e.h_keys if s2p else e.h_ct_key) != rotation:
            problems.append(f"{event_kind(e)} block {e.block}: round {rnd} " + (
                "rotates keys without a key commitment" if rotation else
                "does not rotate keys but has a key commitment"))
    for rnd, digests in sorted(models.items()):
        if len(digests) > 1:
            problems.append(f"round {rnd}: Feedback blocks disagree on h_model")
        elif rnd == rounds and digests != {summary.get("final_model_digest")}:
            problems.append(f"round {rnd}: Feedback h_model is not run.json's final_model_digest")

    for name, server_lines in sorted(sessions.items()):
        try:
            client_lines = _read(run_dir, f"transcript-{name}.txt").splitlines()
        except FileNotFoundError as exc:   # the server's lines are still bound
            problems.append(f"missing {exc.filename}")
            client_lines = server_lines
        if server_lines != client_lines:
            at = next((k for k, (a, b) in enumerate(zip(server_lines, client_lines)) if a != b),
                      min(len(server_lines), len(client_lines)))
            problems.append(f"{name}: transcripts diverge at line {at + 1} (server has "
                            f"{len(server_lines)} lines, client {len(client_lines)})")
        for line in client_lines:
            fields = _parse_transcript_line(line)
            if not ({"dir", "digest", "block"} <= fields.keys()
                    and fields.get("round", "").isdecimal()):
                problems.append(f"{name}: malformed transcript line: {line}")
                continue
            want = owed.pop((name, fields["dir"], fields["block"]), {})
            if dict(want, digest=want.get("digest") or fields["digest"]) != fields:
                problems.append(f"{name}: round {fields['round']} {fields['dir']} row "
                                f"does not match ledger block {fields['block']}")
    for name, direction, block in owed:
        kind = event_kind(ledger.blocks[int(block)].event)
        problems.append(f"{name}: no {direction} row for {kind} block {block}")
    return problems
