"""Server and participant state machines for ratcheted FL rounds.

Establishment: the server announces its lattice-KEM and ECDH public keys in a
signed plaintext message whose hash is already committed on chain by the
project registration; the participant replies with a KEM ciphertext and its
own ECDH key, committed by its client registration.  Both sides then hold the
same hybrid root key.

Rounds: each round the server seals the current global model to every
participant under that round's model key and publishes the payload hash on
chain; participants reply with sealed local updates, likewise committed.  On
the last round of an epoch the task payload carries fresh server keys and the
update carries the participant's KEM ciphertext and fresh ECDH key, both
committed on chain, and the next epoch's keys take effect the following
round.

Handlers are atomic: every check (freshness, signature, replay, on-chain
commitment, AEAD) runs before any session state changes, so a rejected
delivery leaves the session exactly as it was.

Operation counters: `keygen`, `encap`, `decap`, `sign`, `verify` count those
primitives directly.  `derive` counts the two per-round symmetric chain
derivations; the root-chain derivations that accompany a key rotation are
part of the rotation's fixed cost and are not separately counted.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field, replace

from . import crypto, fl, ratchet
from .crypto import AuthFailure
from .ledger import (
    Ledger,
    RegClientEvent,
    RegProjectEvent,
    TaskEvent,
    UpdateEvent,
    SimClock,
)

WIRE_VERSION = 1

MSG_KEY_ANNOUNCEMENT = 1
MSG_KEY_RESPONSE = 2
MSG_TASK = 3
MSG_UPDATE = 4

DIR_TASK = 0
DIR_UPDATE = 1

MAX_SKEW_SECONDS = 300


class ProtocolError(Exception):
    """Base class for protocol-level rejections."""


class BadSignature(AuthFailure):
    """Envelope signature or sender binding failed."""


class CommitmentMismatch(ProtocolError):
    """Off-chain bytes disagree with the on-chain hash commitment."""


class ReplayDetected(ProtocolError):
    """Envelope repeats a round or phase that was already processed."""


class StaleDeadline(ProtocolError):
    """The task's on-chain deadline has passed."""


class StaleTimestamp(ProtocolError):
    """Envelope timestamp outside the freshness window."""


class SessionNotReady(ProtocolError):
    """Operation requires an established session."""


class SessionTerminated(ProtocolError):
    """The project finished; no further rounds are accepted."""


class NoActiveTask(ProtocolError):
    """Update attempted with no open task."""


class UnknownClient(ProtocolError):
    """Sender is not a registered, established participant."""


class BadReference(ProtocolError):
    """A block reference does not point at the expected transaction."""


class MalformedMessage(ProtocolError):
    """Wire bytes do not parse."""


# --- wire helpers ----------------------------------------------------------

def _lp(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


class _Reader:
    def __init__(self, blob: bytes):
        self._b = blob
        self._i = 0

    def take(self, n: int) -> bytes:
        if self._i + n > len(self._b):
            raise MalformedMessage("truncated message")
        out = self._b[self._i : self._i + n]
        self._i += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def lp(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self._i != len(self._b):
            raise MalformedMessage("trailing bytes")


def seal_nonce(round: int, direction: int) -> bytes:
    """12-byte AEAD nonce bound to (round, direction)."""
    return crypto.digest(struct.pack(">I", round) + bytes([direction]))[:12]


def seal_aad(project_id: int, task_id: int, round: int, direction: int) -> bytes:
    return struct.pack(">HHIB", project_id, task_id, round, direction)


# --- messages --------------------------------------------------------------

@dataclass(frozen=True)
class KeyAnnouncement:
    project_id: int
    registration_block: int
    kem_public: bytes
    dh_public: bytes

    def encode(self) -> bytes:
        return (
            struct.pack(">HI", self.project_id, self.registration_block)
            + _lp(self.kem_public)
            + _lp(self.dh_public)
        )

    @classmethod
    def decode(cls, blob: bytes) -> "KeyAnnouncement":
        r = _Reader(blob)
        out = cls(r.u16(), r.u32(), r.lp(), r.lp())
        r.done()
        return out


@dataclass(frozen=True)
class KeyResponse:
    project_id: int
    registration_block: int
    kem_ciphertext: bytes
    dh_public: bytes

    def encode(self) -> bytes:
        return (
            struct.pack(">HI", self.project_id, self.registration_block)
            + _lp(self.kem_ciphertext)
            + _lp(self.dh_public)
        )

    @classmethod
    def decode(cls, blob: bytes) -> "KeyResponse":
        r = _Reader(blob)
        out = cls(r.u16(), r.u32(), r.lp(), r.lp())
        r.done()
        return out


@dataclass(frozen=True)
class TaskPayload:
    project_id: int
    task_id: int
    round: int
    deadline_window: int
    model: bytes                 # serialized global model
    kem_public: bytes = b""      # fresh keys on rotation rounds
    dh_public: bytes = b""

    def encode(self) -> bytes:
        fresh = 1 if self.kem_public else 0
        out = struct.pack(
            ">HHIHB", self.project_id, self.task_id, self.round,
            self.deadline_window, fresh,
        )
        if fresh:
            out += _lp(self.kem_public) + _lp(self.dh_public)
        return out + _lp(self.model)

    @classmethod
    def decode(cls, blob: bytes) -> "TaskPayload":
        r = _Reader(blob)
        project, task, rnd, window, fresh = r.u16(), r.u16(), r.u32(), r.u16(), r.u8()
        kem_public = dh_public = b""
        if fresh:
            kem_public, dh_public = r.lp(), r.lp()
        model = r.lp()
        r.done()
        return cls(project, task, rnd, window, model, kem_public, dh_public)


@dataclass(frozen=True)
class UpdatePayload:
    project_id: int
    task_id: int
    round: int
    model: bytes                 # serialized local model
    kem_ciphertext: bytes = b""  # rotation reply on rotation rounds
    dh_public: bytes = b""

    def encode(self) -> bytes:
        fresh = 1 if self.kem_ciphertext else 0
        out = struct.pack(">HHIB", self.project_id, self.task_id, self.round, fresh)
        if fresh:
            out += _lp(self.kem_ciphertext) + _lp(self.dh_public)
        return out + _lp(self.model)

    @classmethod
    def decode(cls, blob: bytes) -> "UpdatePayload":
        r = _Reader(blob)
        project, task, rnd, fresh = r.u16(), r.u16(), r.u32(), r.u8()
        kem_ciphertext = dh_public = b""
        if fresh:
            kem_ciphertext, dh_public = r.lp(), r.lp()
        model = r.lp()
        r.done()
        return cls(project, task, rnd, model, kem_ciphertext, dh_public)


@dataclass(frozen=True)
class SignedEnvelope:
    version: int
    msg_type: int
    round: int
    timestamp: int
    sender_address: bytes
    sender_public: bytes
    payload: bytes
    signature: bytes

    def signing_bytes(self) -> bytes:
        return (
            struct.pack(">BBIQ", self.version, self.msg_type, self.round, self.timestamp)
            + self.sender_address
            + _lp(self.sender_public)
            + _lp(self.payload)
        )

    def encode(self) -> bytes:
        return self.signing_bytes() + _lp(self.signature)

    @classmethod
    def decode(cls, blob: bytes) -> "SignedEnvelope":
        r = _Reader(blob)
        version, msg_type, rnd, ts = r.u8(), r.u8(), r.u32(), r.u64()
        addr = r.take(crypto.ADDRESS_BYTES)
        pub, payload, sig = r.lp(), r.lp(), r.lp()
        r.done()
        return cls(version, msg_type, rnd, ts, addr, pub, payload, sig)


def build_envelope(
    msg_type: int, round: int, payload: bytes, sig_pair: crypto.SigKeyPair, now: int
) -> SignedEnvelope:
    partial = SignedEnvelope(
        version=WIRE_VERSION, msg_type=msg_type, round=round, timestamp=now,
        sender_address=crypto.address_of(sig_pair.public),
        sender_public=sig_pair.public, payload=payload, signature=b"",
    )
    return replace(partial, signature=crypto.sign(sig_pair, partial.signing_bytes()))


def check_envelope(
    env: SignedEnvelope, expected_sender: bytes, now: int, max_skew: int = MAX_SKEW_SECONDS
) -> None:
    """Freshness, address binding, and signature.  Raises; never mutates."""
    if env.version != WIRE_VERSION:
        raise MalformedMessage(f"unsupported wire version {env.version}")
    if abs(now - env.timestamp) > max_skew:
        raise StaleTimestamp(f"timestamp {env.timestamp} vs now {now}")
    if crypto.address_of(env.sender_public) != env.sender_address:
        raise BadSignature("declared key does not match sender address")
    if env.sender_address != expected_sender:
        raise BadSignature("sender is not the expected peer")
    if not crypto.verify(env.sender_public, env.signing_bytes(), env.signature):
        raise BadSignature("envelope signature invalid")


# --- instrumentation -------------------------------------------------------

@dataclass
class OpCounters:
    keygen: int = 0
    encap: int = 0
    decap: int = 0
    derive: int = 0
    sign: int = 0
    verify: int = 0
    offchain_bytes: int = 0       # envelope bytes sent
    offchain_recv_bytes: int = 0  # envelope bytes received, accepted or not
    key_material_bytes: int = 0   # public keys and KEM ciphertexts sent

    def snapshot(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class TranscriptRow:
    round: int
    epoch: int
    step: int
    direction: str           # "s2p" or "p2s"
    digest: bytes
    block: int

    def format(self) -> str:
        return (
            f"round={self.round} epoch={self.epoch} step={self.step} "
            f"dir={self.direction} digest={self.digest.hex()} block={self.block}"
        )


_KEY_ANNOUNCE_BYTES = crypto.KEM_PUBLIC_BYTES + crypto.DH_PUBLIC_BYTES
_KEY_RESPONSE_BYTES = crypto.KEM_CIPHERTEXT_BYTES + crypto.DH_PUBLIC_BYTES


# --- server ----------------------------------------------------------------

@dataclass
class _ServerSession:
    participant: bytes
    h_key_commitment: bytes
    registration_block: int
    ratchet: ratchet.RatchetState | None = None
    established: bool = False
    current_key: ratchet.ModelKey | None = None
    last_update_round: int = 0
    transcript: list[TranscriptRow] = field(default_factory=list)


class Server:
    """Project owner: registers, establishes sessions, runs rounds, scores."""

    def __init__(
        self,
        rng: crypto.DeterministicRng,
        ledger: Ledger,
        clock: SimClock,
        project_id: int,
        capacity: int,
        rounds_planned: int,
        config: ratchet.RatchetConfig,
        deadline_window: int = 600,
        max_skew: int = MAX_SKEW_SECONDS,
        key_log: list | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if rounds_planned < 1:
            raise ValueError("rounds_planned must be at least 1")
        self.rng = rng
        self.ledger = ledger
        self.clock = clock
        self.project_id = project_id
        self.capacity = capacity
        self.rounds_planned = rounds_planned
        self.config = config
        self.deadline_window = deadline_window
        self.max_skew = max_skew
        self.counters = OpCounters()
        self.key_log = key_log
        self.sessions: dict[bytes, _ServerSession] = {}
        self.round = 0
        self.finished = False
        self.registration_block: int | None = None
        self._sig = crypto.sig_keygen(rng.fork("sig"))
        self.address = crypto.address_of(self._sig.public)
        self._kem: crypto.KemKeyPair | None = None
        self._dh: crypto.DhKeyPair | None = None
        self._pending_dh_secret: bytes | None = None  # fresh secret during rotation
        self._rotation_round: int = 0
        self._client_events = ledger.subscribe(kinds=["RegClient"])
        self._update_events = ledger.subscribe(kinds=["Update"])
        self._seen_updates: dict[tuple[int, bytes], UpdateEvent] = {}

    # establishment ---------------------------------------------------------

    def bootstrap(self, initial_model: fl.ModelVector) -> RegProjectEvent:
        """Generate the hybrid key pairs and register the project."""
        if self.registration_block is not None:
            raise ProtocolError("already bootstrapped")
        self._kem = crypto.kem_keygen(self.rng.bytes(32))
        self._dh = crypto.dh_keygen(self.rng)
        self.counters.keygen += 2
        h_keys = crypto.digest(self._kem.public + self._dh.public)
        h_model = crypto.digest(fl.serialize_model(initial_model))
        event = self.ledger.register_project(
            self.address, self.project_id, self.capacity, h_model, h_keys
        )
        self.registration_block = event.block
        return event

    def admit_clients(self) -> list[bytes]:
        """Absorb new client registrations; returns their addresses."""
        fresh = []
        for ev in self._client_events.poll():
            if ev.project_id != self.project_id or ev.client in self.sessions:
                continue
            self.sessions[ev.client] = _ServerSession(
                participant=ev.client,
                h_key_commitment=ev.h_key,
                registration_block=ev.block,
            )
            fresh.append(ev.client)
        return fresh

    def send_keys(self, participant: bytes) -> SignedEnvelope:
        """Announce the project keys to one registered participant."""
        if self.registration_block is None:
            raise SessionNotReady("bootstrap first")
        if participant not in self.sessions:
            raise UnknownClient("participant has not registered")
        msg = KeyAnnouncement(
            project_id=self.project_id,
            registration_block=self.registration_block,
            kem_public=self._kem.public,
            dh_public=self._dh.public,
        )
        env = build_envelope(
            MSG_KEY_ANNOUNCEMENT, 0, msg.encode(), self._sig, self.clock.now()
        )
        self.counters.sign += 1
        blob = env.encode()
        self.counters.offchain_bytes += len(blob)
        self.counters.key_material_bytes += _KEY_ANNOUNCE_BYTES
        session = self.sessions[participant]
        session.transcript.append(
            TranscriptRow(0, 1, 0, "s2p", crypto.digest(env.payload), self.registration_block)
        )
        return env

    def handle_key_response(self, env: SignedEnvelope) -> None:
        """Complete establishment for the responding participant."""
        self.counters.offchain_recv_bytes += len(env.encode())
        session = self.sessions.get(env.sender_address)
        if session is None:
            raise UnknownClient("response from unregistered address")
        check_envelope(env, session.participant, self.clock.now(), self.max_skew)
        self.counters.verify += 1
        if env.msg_type != MSG_KEY_RESPONSE:
            raise MalformedMessage("expected a key response")
        if session.established:
            raise ReplayDetected("session already established")
        msg = KeyResponse.decode(env.payload)
        if msg.project_id != self.project_id:
            raise BadReference("response for a different project")
        if msg.registration_block != session.registration_block:
            raise BadReference("response references the wrong registration")
        if crypto.digest(msg.dh_public) != session.h_key_commitment:
            raise CommitmentMismatch("ECDH key does not match the registered commitment")
        ss_kem = crypto.kem_decap(self._kem.secret, msg.kem_ciphertext)
        self.counters.decap += 1
        ss_dh = crypto.dh_agree(self._dh.secret, msg.dh_public)
        session.ratchet = ratchet.init_root(ss_kem, ss_dh, self.config)
        session.established = True
        session.transcript.append(
            TranscriptRow(0, 1, 0, "p2s", crypto.digest(env.payload), msg.registration_block)
        )

    # rounds ----------------------------------------------------------------

    def _advance(self, session: _ServerSession) -> ratchet.ModelKey:
        session.ratchet, key = ratchet.advance_symmetric(session.ratchet)
        self.counters.derive += 2
        if self.key_log is not None:
            self.key_log.append(("server", session.participant, key.round, key.epoch, key.step, key.key))
        return key

    def publish_round(self, model: fl.ModelVector) -> tuple[TaskEvent, dict[bytes, SignedEnvelope]]:
        """Advance every session one round and seal the global model to each.

        On the epoch's last round (when more rounds remain) fresh keys ride in
        the payload and their hash in the task transaction.
        """
        if self.finished:
            raise SessionTerminated("project is finished")
        if not self.sessions:
            raise SessionNotReady("no registered participants")
        for s in self.sessions.values():
            if not s.established:
                raise SessionNotReady(f"session {s.participant.hex()} not established")
        states = {(s.ratchet.epoch, s.ratchet.step) for s in self.sessions.values()}
        if len(states) != 1:
            raise ProtocolError("sessions fell out of lockstep")
        rnd = self.round + 1
        epoch, step = next(iter(states))
        rotate = (
            step + 1 == self.config.epoch_length(epoch) and rnd < self.rounds_planned
        )
        fresh_kem = fresh_dh = None
        h_keys = b""
        if rotate:
            fresh_kem = crypto.kem_keygen(self.rng.bytes(32))
            fresh_dh = crypto.dh_keygen(self.rng)
            self.counters.keygen += 2
            h_keys = crypto.digest(fresh_kem.public + fresh_dh.public)
        payload = TaskPayload(
            project_id=self.project_id,
            task_id=rnd,
            round=rnd,
            deadline_window=self.deadline_window,
            model=fl.serialize_model(model),
            kem_public=fresh_kem.public if rotate else b"",
            dh_public=fresh_dh.public if rotate else b"",
        )
        plaintext = payload.encode()
        h_info = crypto.digest(plaintext)
        event = self.ledger.publish_task(
            self.address, rnd, h_info, h_keys, self.project_id, rnd, self.deadline_window
        )
        envelopes: dict[bytes, SignedEnvelope] = {}
        nonce = seal_nonce(rnd, DIR_TASK)
        aad = seal_aad(self.project_id, rnd, rnd, DIR_TASK)
        for addr, session in self.sessions.items():
            key = self._advance(session)
            key.mark_used(DIR_TASK)
            sealed = crypto.aead_seal(key.key, nonce, aad, plaintext)
            env = build_envelope(MSG_TASK, rnd, sealed, self._sig, self.clock.now())
            self.counters.sign += 1
            blob = env.encode()
            self.counters.offchain_bytes += len(blob)
            session.current_key = key
            session.transcript.append(
                TranscriptRow(rnd, key.epoch, key.step, "s2p", h_info, event.block)
            )
            envelopes[addr] = env
        if rotate:
            self.counters.key_material_bytes += _KEY_ANNOUNCE_BYTES * len(self.sessions)
            self._kem, self._dh = fresh_kem, fresh_dh
            self._pending_dh_secret = fresh_dh.secret
            self._rotation_round = rnd
        self.round = rnd
        return event, envelopes

    def handle_update(self, env: SignedEnvelope) -> tuple[bytes, fl.ModelVector]:
        """Verify, open, and absorb one participant's sealed update."""
        self.counters.offchain_recv_bytes += len(env.encode())
        session = self.sessions.get(env.sender_address)
        if session is None or not session.established:
            raise UnknownClient("update from an unknown session")
        check_envelope(env, session.participant, self.clock.now(), self.max_skew)
        self.counters.verify += 1
        if env.msg_type != MSG_UPDATE:
            raise MalformedMessage("expected an update")
        if env.round <= session.last_update_round:
            raise ReplayDetected(f"round {env.round} already processed")
        if env.round != self.round:
            raise ProtocolError(f"update for round {env.round}, current is {self.round}")
        for ev in self._update_events.poll():
            self._seen_updates[(ev.task_id, ev.client)] = ev
        chain = self._seen_updates.get((env.round, session.participant))
        if chain is None:
            raise BadReference("no on-chain update transaction for this round")
        key = session.current_key
        if key is None or key.round != env.round:
            raise SessionNotReady("no model key staged for this round")
        nonce = seal_nonce(env.round, DIR_UPDATE)
        aad = seal_aad(self.project_id, env.round, env.round, DIR_UPDATE)
        plaintext = crypto.aead_open(key.key, nonce, aad, env.payload)
        if crypto.digest(plaintext) != chain.h_info:
            raise CommitmentMismatch("update bytes do not match the on-chain hash")
        msg = UpdatePayload.decode(plaintext)
        if msg.project_id != self.project_id or msg.round != env.round or msg.task_id != env.round:
            raise MalformedMessage("payload identifiers disagree with envelope")
        rotating = self._rotation_round == env.round
        if rotating != bool(msg.kem_ciphertext):
            raise CommitmentMismatch("key rotation material missing or unexpected")
        if rotating and crypto.digest(msg.kem_ciphertext + msg.dh_public) != chain.h_ct_key:
            raise CommitmentMismatch("rotation reply does not match the on-chain hash")
        model = fl.deserialize_model(msg.model)
        # all checks passed; commit state changes
        key.mark_used(DIR_UPDATE)
        if rotating:
            ss_kem = crypto.kem_decap(self._kem.secret, msg.kem_ciphertext)
            self.counters.decap += 1
            ss_dh = crypto.dh_agree(self._pending_dh_secret, msg.dh_public)
            session.ratchet = ratchet.advance_asymmetric(session.ratchet, ss_kem, ss_dh)
        session.last_update_round = env.round
        session.current_key = None
        session.transcript.append(
            TranscriptRow(env.round, key.epoch, key.step, "p2s", chain.h_info, chain.block)
        )
        return session.participant, model

    def feedback(
        self, participant: bytes, score: int, terminate: int, global_model: fl.ModelVector
    ):
        """Score one participant's round and anchor the new global model."""
        if participant not in self.sessions:
            raise UnknownClient("no such participant")
        h_model = crypto.digest(fl.serialize_model(global_model))
        h_keys = self.ledger.project_info(self.project_id)["h_keys"]
        return self.ledger.feedback_model(
            self.address, self.round, self.project_id, self.round,
            participant, score, terminate, h_model, h_keys,
        )

    def finish(self):
        """Close the project and release the escrowed deposit."""
        event = self.ledger.finish_project(self.address, self.project_id)
        self.finished = True
        return event


# --- participant -----------------------------------------------------------

class Participant:
    """Registered client: establishes a session, trains, returns sealed updates."""

    def __init__(
        self,
        rng: crypto.DeterministicRng,
        ledger: Ledger,
        clock: SimClock,
        config: ratchet.RatchetConfig,
        max_skew: int = MAX_SKEW_SECONDS,
        key_log: list | None = None,
    ):
        self.rng = rng
        self.ledger = ledger
        self.clock = clock
        self.config = config
        self.max_skew = max_skew
        self.counters = OpCounters()
        self.key_log = key_log
        self._sig = crypto.sig_keygen(rng.fork("sig"))
        self.address = crypto.address_of(self._sig.public)
        self._dh: crypto.DhKeyPair | None = None
        self.project_id: int | None = None
        self.server_address: bytes | None = None
        self._server_h_keys: bytes | None = None
        self._server_reg_block: int | None = None
        self.registration_block: int | None = None
        self.ratchet: ratchet.RatchetState | None = None
        self.established = False
        self.last_round = 0
        self.transcript: list[TranscriptRow] = []
        self._task_events = ledger.subscribe(kinds=["Task"])
        self._seen_tasks: dict[int, TaskEvent] = {}
        self._active: dict | None = None       # open task awaiting an update
        self._staged_rotation: tuple[bytes, bytes] | None = None

    def join(self, project_id: int) -> RegClientEvent:
        """Locate the project on chain and register a key commitment for it."""
        if self.project_id is not None:
            raise ProtocolError("already joined a project")
        reg = next(
            (
                e
                for e in self.ledger.events
                if isinstance(e, RegProjectEvent) and e.project_id == project_id
            ),
            None,
        )
        if reg is None:
            raise BadReference(f"no project {project_id} on chain")
        self._dh = crypto.dh_keygen(self.rng)
        self.counters.keygen += 1
        event = self.ledger.register_client(
            self.address, project_id, crypto.digest(self._dh.public)
        )
        self.project_id = project_id
        self.server_address = reg.server
        self._server_h_keys = reg.h_keys
        self._server_reg_block = reg.block
        self.registration_block = event.block
        return event

    def handle_keys(self, env: SignedEnvelope) -> SignedEnvelope:
        """Check the announced keys against the chain and derive the root key."""
        self.counters.offchain_recv_bytes += len(env.encode())
        if self.project_id is None:
            raise SessionNotReady("join a project first")
        check_envelope(env, self.server_address, self.clock.now(), self.max_skew)
        self.counters.verify += 1
        if env.msg_type != MSG_KEY_ANNOUNCEMENT:
            raise MalformedMessage("expected a key announcement")
        if self.established:
            raise ReplayDetected("session already established")
        msg = KeyAnnouncement.decode(env.payload)
        if msg.project_id != self.project_id:
            raise BadReference("announcement for a different project")
        if msg.registration_block != self._server_reg_block:
            raise BadReference("announcement references the wrong registration")
        if crypto.digest(msg.kem_public + msg.dh_public) != self._server_h_keys:
            raise CommitmentMismatch("announced keys do not match the on-chain commitment")
        ct, ss_kem = crypto.kem_encap(msg.kem_public, self.rng.bytes(32))
        self.counters.encap += 1
        ss_dh = crypto.dh_agree(self._dh.secret, msg.dh_public)
        reply = KeyResponse(
            project_id=self.project_id,
            registration_block=self.registration_block,
            kem_ciphertext=ct,
            dh_public=self._dh.public,
        )
        out = build_envelope(
            MSG_KEY_RESPONSE, 0, reply.encode(), self._sig, self.clock.now()
        )
        self.counters.sign += 1
        blob = out.encode()
        self.counters.offchain_bytes += len(blob)
        self.counters.key_material_bytes += _KEY_RESPONSE_BYTES
        self.ratchet = ratchet.init_root(ss_kem, ss_dh, self.config)
        self.established = True
        self.transcript.append(
            TranscriptRow(0, 1, 0, "s2p", crypto.digest(env.payload), msg.registration_block)
        )
        self.transcript.append(
            TranscriptRow(0, 1, 0, "p2s", crypto.digest(out.payload), self.registration_block)
        )
        return out

    def handle_task(self, env: SignedEnvelope) -> fl.ModelVector:
        """Verify a round's task against the chain and return the global model."""
        self.counters.offchain_recv_bytes += len(env.encode())
        if not self.established:
            raise SessionNotReady("session not established")
        check_envelope(env, self.server_address, self.clock.now(), self.max_skew)
        self.counters.verify += 1
        if env.msg_type != MSG_TASK:
            raise MalformedMessage("expected a task")
        if env.round <= self.last_round:
            raise ReplayDetected(f"round {env.round} already processed")
        if env.round != self.last_round + 1:
            raise ProtocolError(f"task skips to round {env.round}")
        if self._active is not None:
            raise ProtocolError("previous task still open")
        for ev in self._task_events.poll():
            if ev.project_id == self.project_id:
                self._seen_tasks[ev.task_id] = ev
        chain = self._seen_tasks.get(env.round)
        if chain is None:
            raise BadReference("no on-chain task for this round")
        if self.clock.now() > chain.time + chain.deadline_window:
            raise StaleDeadline(f"task deadline passed at {chain.time + chain.deadline_window}")
        new_state, key = ratchet.advance_symmetric(self.ratchet)
        nonce = seal_nonce(env.round, DIR_TASK)
        aad = seal_aad(self.project_id, env.round, env.round, DIR_TASK)
        plaintext = crypto.aead_open(key.key, nonce, aad, env.payload)
        if crypto.digest(plaintext) != chain.h_info:
            raise CommitmentMismatch("task bytes do not match the on-chain hash")
        msg = TaskPayload.decode(plaintext)
        if msg.project_id != self.project_id or msg.round != env.round or msg.task_id != env.round:
            raise MalformedMessage("payload identifiers disagree with envelope")
        if bool(msg.kem_public) != bool(chain.h_keys):
            raise CommitmentMismatch("key rotation material missing or unexpected")
        if msg.kem_public and crypto.digest(msg.kem_public + msg.dh_public) != chain.h_keys:
            raise CommitmentMismatch("fresh keys do not match the on-chain commitment")
        model = fl.deserialize_model(msg.model)
        # all checks passed; commit state changes
        self.ratchet = new_state
        self.counters.derive += 2
        if self.key_log is not None:
            self.key_log.append(("participant", self.address, key.round, key.epoch, key.step, key.key))
        key.mark_used(DIR_TASK)
        self.last_round = env.round
        self._active = {
            "round": env.round, "key": key,
            "fresh": (msg.kem_public, msg.dh_public) if msg.kem_public else None,
        }
        self.transcript.append(
            TranscriptRow(env.round, key.epoch, key.step, "s2p", chain.h_info, chain.block)
        )
        return model

    def send_update(self, model: fl.ModelVector) -> SignedEnvelope:
        """Commit the local update on chain and seal it to the server."""
        if self._active is None:
            raise NoActiveTask("no task to answer")
        rnd = self._active["round"]
        key: ratchet.ModelKey = self._active["key"]
        ct = dh_pub = b""
        h_ct_key = b""
        rotation = None
        if self._active["fresh"] is not None:
            kem_public, server_dh_public = self._active["fresh"]
            fresh_dh = crypto.dh_keygen(self.rng)
            self.counters.keygen += 1
            ct, ss_kem = crypto.kem_encap(kem_public, self.rng.bytes(32))
            self.counters.encap += 1
            ss_dh = crypto.dh_agree(fresh_dh.secret, server_dh_public)
            dh_pub = fresh_dh.public
            h_ct_key = crypto.digest(ct + dh_pub)
            rotation = (ss_kem, ss_dh)
        payload = UpdatePayload(
            project_id=self.project_id, task_id=rnd, round=rnd,
            model=fl.serialize_model(model), kem_ciphertext=ct, dh_public=dh_pub,
        )
        plaintext = payload.encode()
        h_info = crypto.digest(plaintext)
        event = self.ledger.update_model(
            self.address, rnd, h_info, h_ct_key, self.project_id, rnd
        )
        nonce = seal_nonce(rnd, DIR_UPDATE)
        aad = seal_aad(self.project_id, rnd, rnd, DIR_UPDATE)
        key.mark_used(DIR_UPDATE)
        sealed = crypto.aead_seal(key.key, nonce, aad, plaintext)
        env = build_envelope(MSG_UPDATE, rnd, sealed, self._sig, self.clock.now())
        self.counters.sign += 1
        blob = env.encode()
        self.counters.offchain_bytes += len(blob)
        if rotation is not None:
            self.counters.key_material_bytes += _KEY_RESPONSE_BYTES
            self.ratchet = ratchet.advance_asymmetric(self.ratchet, *rotation)
        self.transcript.append(
            TranscriptRow(rnd, key.epoch, key.step, "p2s", h_info, event.block)
        )
        self._active = None
        return env
