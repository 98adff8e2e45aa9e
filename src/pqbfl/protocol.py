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
round.  The server closes a round with one `feedback` call: it hashes the new
global model once and scores every session whose update for the round it
accepted, flagging termination on the planned last round.

Wire bytes are the delivery unit: every send returns the signed envelope's
bytes, encoded once, and every handler takes those bytes, counts them and
decodes them once.  A model is the bulk of a round's bytes, so it is copied
only where the protocol needs new bytes: a send joins the model's header
and byte-swapped values into the payload once, then the signed bytes once
and the wire bytes once; a receive decodes through views of the wire bytes,
verifies the signature over their signed prefix, and copies the model once,
into the decoded vector.  Handlers are atomic: every check (freshness,
signature, replay, on-chain commitment, AEAD, model decoding, received key
material) runs before any session state changes, so a rejected delivery
leaves the session exactly as it was.  Received key material is checked where
it arrives, even when it is used only later: a KEM key or ciphertext or an
ECDH key of the wrong width, a KEM key that fails the FIPS 203 modulus check
and an ECDH key that is not a P-256 point are each `MalformedMessage`.  Each
session fact is stored once: a session is established exactly when it holds a
ratchet, and the server keeps a participant's on-chain registration itself
rather than copies of its fields.

Operation counters: `keygen`, `encap`, `decap`, `sign`, `verify` count those
primitives directly; of all counters only `verify` and `offchain_recv_bytes`
also move for a delivery that is then rejected.  `derive` counts the two
per-round symmetric chain derivations; the root-chain derivations that
accompany a key rotation are part of the rotation's fixed cost and are not
separately counted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

from . import crypto, fl, ratchet
from .crypto import AuthFailure
from .ledger import (
    FeedbackEvent,
    Ledger,
    RegClientEvent,
    RegProjectEvent,
    TaskEvent,
    SimClock,
    UnknownProject,
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

# struct formats of the length prefix and of each message's fixed header;
# `encode` packs and `decode` unpacks the same constant
_LENGTH = ">I"
_KEYS_HEADER = ">HI"         # project id, registration block
_TASK_HEADER = ">HHIHB"      # project id, task id, round, deadline window, fresh keys
_UPDATE_HEADER = ">HHIB"     # project id, task id, round, fresh keys
_ENVELOPE_HEADER = ">BBIQ"   # version, message type, round, timestamp


def _lp(data) -> list:
    """A length-prefixed field, as parts for one `b"".join`."""
    return [struct.pack(_LENGTH, len(data)), data]


def _lp_model(model) -> list:
    """`_lp` for a model given as one bytes-like or as its `fl.model_parts`,
    so a model is joined into its payload once."""
    parts = model if isinstance(model, list) else [model]
    return [struct.pack(_LENGTH, sum(memoryview(p).nbytes for p in parts)), *parts]


class _Reader:
    """Reads fields from any bytes-like blob through a memoryview.

    Small fields are returned as bytes; `lp_view` returns a bulk field as a
    view into the blob, without copying it.
    """

    def __init__(self, blob):
        self._b = memoryview(blob)
        self._i = 0

    def view(self, n: int) -> memoryview:
        if self._i + n > len(self._b):
            raise MalformedMessage("truncated message")
        out = self._b[self._i : self._i + n]
        self._i += n
        return out

    def take(self, n: int) -> bytes:
        return bytes(self.view(n))

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.view(struct.calcsize(fmt)))

    def lp(self) -> bytes:
        return self.take(*self.unpack(_LENGTH))

    def lp_view(self) -> memoryview:
        return self.view(*self.unpack(_LENGTH))

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
        return b"".join([
            struct.pack(_KEYS_HEADER, self.project_id, self.registration_block),
            *_lp(self.kem_public), *_lp(self.dh_public),
        ])

    @classmethod
    def decode(cls, blob: bytes) -> "KeyAnnouncement":
        r = _Reader(blob)
        out = cls(*r.unpack(_KEYS_HEADER), r.lp(), r.lp())
        r.done()
        return out


@dataclass(frozen=True)
class KeyResponse:
    project_id: int
    registration_block: int
    kem_ciphertext: bytes
    dh_public: bytes

    def encode(self) -> bytes:
        return b"".join([
            struct.pack(_KEYS_HEADER, self.project_id, self.registration_block),
            *_lp(self.kem_ciphertext), *_lp(self.dh_public),
        ])

    @classmethod
    def decode(cls, blob: bytes) -> "KeyResponse":
        r = _Reader(blob)
        out = cls(*r.unpack(_KEYS_HEADER), r.lp(), r.lp())
        r.done()
        return out


@dataclass(frozen=True)
class TaskPayload:
    project_id: int
    task_id: int
    round: int
    deadline_window: int
    model: bytes | list          # global model, or its fl.model_parts; a view once decoded
    kem_public: bytes = b""      # fresh keys on rotation rounds
    dh_public: bytes = b""

    def encode(self) -> bytes:
        fresh = 1 if self.kem_public else 0
        parts = [struct.pack(
            _TASK_HEADER, self.project_id, self.task_id, self.round,
            self.deadline_window, fresh,
        )]
        if fresh:
            parts += _lp(self.kem_public) + _lp(self.dh_public)
        return b"".join(parts + _lp_model(self.model))

    @classmethod
    def decode(cls, blob) -> "TaskPayload":
        r = _Reader(blob)
        project, task, rnd, window, fresh = r.unpack(_TASK_HEADER)
        kem_public = dh_public = b""
        if fresh:
            kem_public, dh_public = r.lp(), r.lp()
        model = r.lp_view()
        r.done()
        return cls(project, task, rnd, window, model, kem_public, dh_public)


@dataclass(frozen=True)
class UpdatePayload:
    project_id: int
    task_id: int
    round: int
    model: bytes | list          # local model, or its fl.model_parts; a view once decoded
    kem_ciphertext: bytes = b""  # rotation reply on rotation rounds
    dh_public: bytes = b""

    def encode(self) -> bytes:
        fresh = 1 if self.kem_ciphertext else 0
        parts = [struct.pack(_UPDATE_HEADER, self.project_id, self.task_id, self.round, fresh)]
        if fresh:
            parts += _lp(self.kem_ciphertext) + _lp(self.dh_public)
        return b"".join(parts + _lp_model(self.model))

    @classmethod
    def decode(cls, blob) -> "UpdatePayload":
        r = _Reader(blob)
        project, task, rnd, fresh = r.unpack(_UPDATE_HEADER)
        kem_ciphertext = dh_public = b""
        if fresh:
            kem_ciphertext, dh_public = r.lp(), r.lp()
        model = r.lp_view()
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
    payload: bytes               # a view into the wire bytes once decoded
    signature: bytes

    def _signed_parts(self) -> list:
        """The fields the signature covers, in wire order; the signature
        field follows them."""
        return [
            struct.pack(
                _ENVELOPE_HEADER, self.version, self.msg_type, self.round, self.timestamp
            ),
            self.sender_address, *_lp(self.sender_public), *_lp(self.payload),
        ]

    def encode(self) -> bytes:
        return b"".join(self._signed_parts() + _lp(self.signature))

    @classmethod
    def decode(cls, blob) -> "SignedEnvelope":
        r = _Reader(blob)
        version, msg_type, rnd, ts = r.unpack(_ENVELOPE_HEADER)
        addr = r.take(crypto.ADDRESS_BYTES)
        pub, payload, sig = r.lp(), r.lp_view(), r.lp()
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
    signed = b"".join(partial._signed_parts())
    return replace(partial, signature=crypto.sign(sig_pair, signed))


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
        return dict(vars(self))


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
_KEY_WIDTHS = {
    "kem_public": crypto.KEM_PUBLIC_BYTES,
    "kem_ciphertext": crypto.KEM_CIPHERTEXT_BYTES,
    "dh_public": crypto.DH_PUBLIC_BYTES,
}


def _check_keys(msg) -> None:
    """Reject a message's key material before anything uses it: every key
    field it has must have its exact width, a KEM public key must pass the
    FIPS 203 modulus check, and an ECDH key must be a P-256 point."""
    for name, width in _KEY_WIDTHS.items():
        value = getattr(msg, name, None)
        if value is not None and len(value) != width:
            raise MalformedMessage(f"{name} must be {width} bytes, got {len(value)}")
    try:
        if hasattr(msg, "kem_public"):
            crypto.kem_check(msg.kem_public)
        crypto.dh_check(msg.dh_public)
    except ValueError as exc:
        raise MalformedMessage(f"invalid key: {exc}") from None


# --- parties ---------------------------------------------------------------

_SEALED = {DIR_TASK: ("task", TaskPayload), DIR_UPDATE: ("update", UpdatePayload)}


class _Party:
    """What the server and a participant share: a signer, a clock, counters,
    and the one send path, receive check and seal/open pair of both sides."""

    def __init__(self, rng, ledger, clock, config, max_skew, key_log):
        self.rng = rng
        self.ledger = ledger
        self.clock = clock
        self.config = config
        self.max_skew = max_skew
        self.counters = OpCounters()
        self.key_log = key_log
        self._sig = crypto.sig_keygen(rng.fork("sig"))
        self.address = crypto.address_of(self._sig.public)

    def _send(self, msg_type: int, round: int, payload: bytes) -> bytes:
        """Sign `payload` into an envelope and return its wire bytes."""
        env = build_envelope(msg_type, round, payload, self._sig, self.clock.now())
        blob = env.encode()
        self.counters.sign += 1
        self.counters.offchain_bytes += len(blob)
        return blob

    def _check(
        self, env: SignedEnvelope, blob, sender: bytes, msg_type: int, what: str
    ) -> None:
        """Freshness, address binding, signature and type.  Raises; never mutates.

        `blob` is the wire bytes `env` was decoded from.  The signature covers
        every byte before the signature field, so it is checked over that
        prefix of `blob`: `decode` accepts only the one layout, so the prefix
        is byte for byte what the sender signed.
        """
        if env.version != WIRE_VERSION:
            raise MalformedMessage(f"unsupported wire version {env.version}")
        if abs(self.clock.now() - env.timestamp) > self.max_skew:
            raise StaleTimestamp(f"timestamp {env.timestamp} vs now {self.clock.now()}")
        if crypto.address_of(env.sender_public) != env.sender_address:
            raise BadSignature("declared key does not match sender address")
        if env.sender_address != sender:
            raise BadSignature("sender is not the expected peer")
        signed = memoryview(blob)[: len(blob) - 4 - len(env.signature)]
        if not crypto.verify(env.sender_public, signed, env.signature):
            raise BadSignature("envelope signature invalid")
        self.counters.verify += 1
        if env.msg_type != msg_type:
            raise MalformedMessage(f"expected {what}")

    def _seal(
        self, key: ratchet.ModelKey, round: int, direction: int, plaintext: bytes
    ) -> bytes:
        key.mark_used(direction)
        aad = seal_aad(self.project_id, round, round, direction)
        return crypto.aead_seal(key.key, seal_nonce(round, direction), aad, plaintext)

    def _open(
        self, key: ratchet.ModelKey, env: SignedEnvelope, direction: int, h_info: bytes
    ) -> tuple[TaskPayload | UpdatePayload, fl.ModelVector]:
        """Open a sealed round payload, check it against its on-chain hash and
        decode its model."""
        what, codec = _SEALED[direction]
        aad = seal_aad(self.project_id, env.round, env.round, direction)
        plaintext = crypto.aead_open(
            key.key, seal_nonce(env.round, direction), aad, env.payload
        )
        if crypto.digest(plaintext) != h_info:
            raise CommitmentMismatch(f"{what} bytes do not match the on-chain hash")
        msg = codec.decode(plaintext)
        if msg.project_id != self.project_id or msg.round != env.round or msg.task_id != env.round:
            raise MalformedMessage("payload identifiers disagree with envelope")
        try:
            model = fl.deserialize_model(msg.model)
        except ValueError as exc:
            raise MalformedMessage(f"{what} model: {exc}") from None
        return msg, model


# --- server ----------------------------------------------------------------

@dataclass
class _ServerSession:
    registration: RegClientEvent
    ratchet: ratchet.RatchetState | None = None   # set once established
    current_key: ratchet.ModelKey | None = None
    last_update_round: int = 0
    transcript: list[TranscriptRow] = field(default_factory=list)


class Server(_Party):
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
        super().__init__(rng, ledger, clock, config, max_skew, key_log)
        self.project_id = project_id
        self.capacity = capacity
        self.rounds_planned = rounds_planned
        self.deadline_window = deadline_window
        self.sessions: dict[bytes, _ServerSession] = {}
        self.round = 0
        self.finished = False
        self.registration_block: int | None = None
        self._kem: crypto.KemKeyPair | None = None
        self._dh: crypto.DhKeyPair | None = None
        self._rotation_round: int = 0

    # hybrid exchange -------------------------------------------------------

    def _new_keys(self) -> tuple[crypto.KemKeyPair, crypto.DhKeyPair, bytes]:
        """Fresh KEM and ECDH pairs and their on-chain commitment."""
        kem = crypto.kem_keygen(self.rng.bytes(32))
        dh = crypto.dh_keygen(self.rng)
        self.counters.keygen += 2
        return kem, dh, crypto.digest(kem.public + dh.public)

    def _agree(self, kem_ciphertext: bytes, dh_public: bytes) -> tuple[bytes, bytes]:
        """The (KEM, ECDH) shared secrets with a participant, under the
        current key pairs."""
        ss_kem = crypto.kem_decap(self._kem, kem_ciphertext)
        self.counters.decap += 1
        return ss_kem, crypto.dh_agree(self._dh, dh_public)

    # establishment ---------------------------------------------------------

    def bootstrap(self, initial_model: fl.ModelVector) -> RegProjectEvent:
        """Generate the hybrid key pairs and register the project."""
        if self.registration_block is not None:
            raise ProtocolError("already bootstrapped")
        self._kem, self._dh, h_keys = self._new_keys()
        event = self.ledger.register_project(
            self.address, self.project_id, self.capacity,
            fl.model_digest(initial_model), h_keys,
        )
        self.registration_block = event.block
        return event

    def admit_clients(self) -> list[bytes]:
        """Absorb new client registrations; returns their addresses."""
        fresh = []
        for ev in self.ledger.clients(self.project_id):
            if ev.client in self.sessions:
                continue
            self.sessions[ev.client] = _ServerSession(ev)
            fresh.append(ev.client)
        return fresh

    def send_keys(self, participant: bytes) -> bytes:
        """Announce the project keys to one registered participant."""
        if self.registration_block is None:
            raise SessionNotReady("bootstrap first")
        if participant not in self.sessions:
            raise UnknownClient("participant has not registered")
        payload = KeyAnnouncement(
            project_id=self.project_id,
            registration_block=self.registration_block,
            kem_public=self._kem.public,
            dh_public=self._dh.public,
        ).encode()
        blob = self._send(MSG_KEY_ANNOUNCEMENT, 0, payload)
        self.counters.key_material_bytes += _KEY_ANNOUNCE_BYTES
        self.sessions[participant].transcript.append(
            TranscriptRow(0, 1, 0, "s2p", crypto.digest(payload), self.registration_block)
        )
        return blob

    def handle_key_response(self, blob: bytes) -> None:
        """Complete establishment for the responding participant."""
        self.counters.offchain_recv_bytes += len(blob)
        env = SignedEnvelope.decode(blob)
        session = self.sessions.get(env.sender_address)
        if session is None:
            raise UnknownClient("response from unregistered address")
        reg = session.registration
        self._check(env, blob, reg.client, MSG_KEY_RESPONSE, "a key response")
        if session.ratchet is not None:
            raise ReplayDetected("session already established")
        msg = KeyResponse.decode(env.payload)
        if msg.project_id != self.project_id:
            raise BadReference("response for a different project")
        if msg.registration_block != reg.block:
            raise BadReference("response references the wrong registration")
        if crypto.digest(msg.dh_public) != reg.h_key:
            raise CommitmentMismatch("ECDH key does not match the registered commitment")
        _check_keys(msg)
        secrets = self._agree(msg.kem_ciphertext, msg.dh_public)
        session.ratchet = ratchet.init_root(*secrets, self.config)
        session.transcript.append(
            TranscriptRow(0, 1, 0, "p2s", crypto.digest(env.payload), msg.registration_block)
        )

    # rounds ----------------------------------------------------------------

    def publish_round(self, model: fl.ModelVector) -> tuple[TaskEvent, dict[bytes, bytes]]:
        """Advance every session one round and seal the global model to each.

        Returns the task event and each participant's envelope wire bytes.  On
        the epoch's last round (when more rounds remain) fresh keys ride in
        the payload and their hash in the task transaction.
        """
        if self.finished:
            raise SessionTerminated("project is finished")
        if not self.sessions:
            raise SessionNotReady("no registered participants")
        for addr, s in self.sessions.items():
            if s.ratchet is None:
                raise SessionNotReady(f"session {addr.hex()} not established")
        states = {(s.ratchet.epoch, s.ratchet.step) for s in self.sessions.values()}
        if len(states) != 1:
            raise ProtocolError("sessions fell out of lockstep")
        rnd = self.round + 1
        epoch, step = next(iter(states))
        rotate = (
            step + 1 == self.config.epoch_length(epoch) and rnd < self.rounds_planned
        )
        fresh_kem, fresh_dh, h_keys = self._new_keys() if rotate else (None, None, b"")
        plaintext = TaskPayload(
            project_id=self.project_id,
            task_id=rnd,
            round=rnd,
            deadline_window=self.deadline_window,
            model=fl.model_parts(model),
            kem_public=fresh_kem.public if rotate else b"",
            dh_public=fresh_dh.public if rotate else b"",
        ).encode()
        h_info = crypto.digest(plaintext)
        event = self.ledger.publish_task(
            self.address, rnd, h_info, h_keys, self.project_id, rnd, self.deadline_window
        )
        envelopes: dict[bytes, bytes] = {}
        for addr, session in self.sessions.items():
            session.ratchet, key = ratchet.advance_symmetric(session.ratchet)
            self.counters.derive += 2
            if self.key_log is not None:
                self.key_log.append(("server", addr, key.round, key.epoch, key.step, key.key))
            envelopes[addr] = self._send(
                MSG_TASK, rnd, self._seal(key, rnd, DIR_TASK, plaintext)
            )
            session.current_key = key
            session.transcript.append(
                TranscriptRow(rnd, key.epoch, key.step, "s2p", h_info, event.block)
            )
        if rotate:
            self.counters.key_material_bytes += _KEY_ANNOUNCE_BYTES * len(self.sessions)
            self._kem, self._dh = fresh_kem, fresh_dh
            self._rotation_round = rnd
        self.round = rnd
        return event, envelopes

    def handle_update(self, blob: bytes) -> tuple[bytes, fl.ModelVector]:
        """Verify, open, and absorb one participant's sealed update."""
        self.counters.offchain_recv_bytes += len(blob)
        env = SignedEnvelope.decode(blob)
        session = self.sessions.get(env.sender_address)
        if session is None or session.ratchet is None:
            raise UnknownClient("update from an unknown session")
        self._check(env, blob, session.registration.client, MSG_UPDATE, "an update")
        if env.round <= session.last_update_round:
            raise ReplayDetected(f"round {env.round} already processed")
        if env.round != self.round:
            raise ProtocolError(f"update for round {env.round}, current is {self.round}")
        chain = self.ledger.update(self.project_id, env.round, session.registration.client)
        if chain is None:
            raise BadReference("no on-chain update transaction for this round")
        key = session.current_key
        if key is None or key.round != env.round:
            raise SessionNotReady("no model key staged for this round")
        msg, model = self._open(key, env, DIR_UPDATE, chain.h_info)
        rotating = self._rotation_round == env.round
        if rotating != bool(msg.kem_ciphertext):
            raise CommitmentMismatch("key rotation material missing or unexpected")
        if rotating:
            if crypto.digest(msg.kem_ciphertext + msg.dh_public) != chain.h_ct_key:
                raise CommitmentMismatch("rotation reply does not match the on-chain hash")
            _check_keys(msg)
            secrets = self._agree(msg.kem_ciphertext, msg.dh_public)
        # all checks passed; commit state changes
        key.mark_used(DIR_UPDATE)
        if rotating:
            session.ratchet = ratchet.advance_asymmetric(session.ratchet, *secrets)
        session.last_update_round = env.round
        session.current_key = None
        session.transcript.append(
            TranscriptRow(env.round, key.epoch, key.step, "p2s", chain.h_info, chain.block)
        )
        return session.registration.client, model

    def feedback(self, global_model: fl.ModelVector) -> list[FeedbackEvent]:
        """Close the round: anchor the new global model and score 1 each
        session whose update for this round was accepted, in registration
        order.  The planned last round's feedback carries the termination flag.
        """
        h_model = fl.model_digest(global_model)
        h_keys = self.ledger.current_keys(self.project_id)
        terminate = 1 if self.round == self.rounds_planned else 0
        return [
            self.ledger.feedback_model(
                self.address, self.round, self.project_id, self.round,
                addr, 1, terminate, h_model, h_keys,
            )
            for addr, s in self.sessions.items() if s.last_update_round == self.round
        ]

    def finish(self):
        """Close the project and release the escrowed deposit."""
        event = self.ledger.finish_project(self.address, self.project_id)
        self.finished = True
        return event


# --- participant -----------------------------------------------------------

class Participant(_Party):
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
        super().__init__(rng, ledger, clock, config, max_skew, key_log)
        self._dh: crypto.DhKeyPair | None = None
        self.project_id: int | None = None
        self.server_address: bytes | None = None
        self.registration_block: int | None = None
        self.ratchet: ratchet.RatchetState | None = None   # set once established
        self.last_round = 0
        self.transcript: list[TranscriptRow] = []
        self._active: dict | None = None       # open task awaiting an update

    def join(self, project_id: int) -> RegClientEvent:
        """Locate the project on chain and register a key commitment for it."""
        if self.project_id is not None:
            raise ProtocolError("already joined a project")
        try:
            server = self.ledger.registration(project_id).server
        except UnknownProject:
            raise BadReference(f"no project {project_id} on chain") from None
        self._dh = crypto.dh_keygen(self.rng)
        self.counters.keygen += 1
        event = self.ledger.register_client(
            self.address, project_id, crypto.digest(self._dh.public)
        )
        self.project_id = project_id
        self.server_address = server
        self.registration_block = event.block
        return event

    def _encapsulate(
        self, kem_public: bytes, server_dh_public: bytes, dh: crypto.DhKeyPair
    ) -> tuple[bytes, tuple[bytes, bytes]]:
        """Encapsulate to the server's KEM key and agree with its ECDH key
        from `dh`; returns the ciphertext and the (KEM, ECDH) shared secrets."""
        ct, ss_kem = crypto.kem_encap(kem_public, self.rng.bytes(32))
        self.counters.encap += 1
        return ct, (ss_kem, crypto.dh_agree(dh, server_dh_public))

    def handle_keys(self, blob: bytes) -> bytes:
        """Check the announced keys against the chain and derive the root key."""
        self.counters.offchain_recv_bytes += len(blob)
        env = SignedEnvelope.decode(blob)
        if self.project_id is None:
            raise SessionNotReady("join a project first")
        self._check(
            env, blob, self.server_address, MSG_KEY_ANNOUNCEMENT, "a key announcement"
        )
        if self.ratchet is not None:
            raise ReplayDetected("session already established")
        msg = KeyAnnouncement.decode(env.payload)
        if msg.project_id != self.project_id:
            raise BadReference("announcement for a different project")
        reg = self.ledger.registration(self.project_id)
        if msg.registration_block != reg.block:
            raise BadReference("announcement references the wrong registration")
        if crypto.digest(msg.kem_public + msg.dh_public) != reg.h_keys:
            raise CommitmentMismatch("announced keys do not match the on-chain commitment")
        _check_keys(msg)
        ct, secrets = self._encapsulate(msg.kem_public, msg.dh_public, self._dh)
        reply = KeyResponse(
            project_id=self.project_id,
            registration_block=self.registration_block,
            kem_ciphertext=ct,
            dh_public=self._dh.public,
        ).encode()
        out = self._send(MSG_KEY_RESPONSE, 0, reply)
        self.counters.key_material_bytes += _KEY_RESPONSE_BYTES
        self.ratchet = ratchet.init_root(*secrets, self.config)
        self.transcript.append(
            TranscriptRow(0, 1, 0, "s2p", crypto.digest(env.payload), msg.registration_block)
        )
        self.transcript.append(
            TranscriptRow(0, 1, 0, "p2s", crypto.digest(reply), self.registration_block)
        )
        return out

    def handle_task(self, blob: bytes) -> fl.ModelVector:
        """Verify a round's task against the chain and return the global model."""
        self.counters.offchain_recv_bytes += len(blob)
        env = SignedEnvelope.decode(blob)
        if self.ratchet is None:
            raise SessionNotReady("session not established")
        self._check(env, blob, self.server_address, MSG_TASK, "a task")
        if env.round <= self.last_round:
            raise ReplayDetected(f"round {env.round} already processed")
        if env.round != self.last_round + 1:
            raise ProtocolError(f"task skips to round {env.round}")
        if self._active is not None:
            raise ProtocolError("previous task still open")
        chain = self.ledger.task(self.project_id, env.round)
        if chain is None:
            raise BadReference("no on-chain task for this round")
        if self.clock.now() > chain.time + chain.deadline_window:
            raise StaleDeadline(f"task deadline passed at {chain.time + chain.deadline_window}")
        new_state, key = ratchet.advance_symmetric(self.ratchet)
        msg, model = self._open(key, env, DIR_TASK, chain.h_info)
        if bool(msg.kem_public) != bool(chain.h_keys):
            raise CommitmentMismatch("key rotation material missing or unexpected")
        if msg.kem_public:
            if crypto.digest(msg.kem_public + msg.dh_public) != chain.h_keys:
                raise CommitmentMismatch("fresh keys do not match the on-chain commitment")
            _check_keys(msg)
        # all checks passed; commit state changes
        self.ratchet = new_state
        self.counters.derive += 2
        if self.key_log is not None:
            self.key_log.append(("participant", self.address, key.round, key.epoch, key.step, key.key))
        key.mark_used(DIR_TASK)
        self.last_round = env.round
        self._active = {
            "key": key, "fresh": (msg.kem_public, msg.dh_public) if msg.kem_public else None,
        }
        self.transcript.append(
            TranscriptRow(env.round, key.epoch, key.step, "s2p", chain.h_info, chain.block)
        )
        return model

    def send_update(self, model: fl.ModelVector) -> bytes:
        """Commit the local update on chain and seal it to the server."""
        if self._active is None:
            raise NoActiveTask("no task to answer")
        rnd = self.last_round
        key: ratchet.ModelKey = self._active["key"]
        ct = dh_pub = h_ct_key = b""
        rotation = None
        if self._active["fresh"] is not None:
            fresh_dh = crypto.dh_keygen(self.rng)
            self.counters.keygen += 1
            ct, rotation = self._encapsulate(*self._active["fresh"], fresh_dh)
            dh_pub = fresh_dh.public
            h_ct_key = crypto.digest(ct + dh_pub)
        plaintext = UpdatePayload(
            project_id=self.project_id, task_id=rnd, round=rnd,
            model=fl.model_parts(model), kem_ciphertext=ct, dh_public=dh_pub,
        ).encode()
        h_info = crypto.digest(plaintext)
        event = self.ledger.update_model(
            self.address, rnd, h_info, h_ct_key, self.project_id, rnd
        )
        blob = self._send(MSG_UPDATE, rnd, self._seal(key, rnd, DIR_UPDATE, plaintext))
        if rotation is not None:
            self.counters.key_material_bytes += _KEY_RESPONSE_BYTES
            self.ratchet = ratchet.advance_asymmetric(self.ratchet, *rotation)
        self.transcript.append(
            TranscriptRow(rnd, key.epoch, key.step, "p2s", h_info, event.block)
        )
        self._active = None
        return blob
