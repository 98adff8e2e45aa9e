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
decodes them once.  A model is the bulk of a round's bytes, so each hop
writes it into one new buffer: a send stores the model's values big-endian
straight into the payload buffer, then seals that payload straight into the
envelope's wire buffer and signs a view of the wire prefix in place; a
receive decodes through views of the wire bytes, verifies the signature over
their signed prefix, opens the payload into one writable buffer and
byte-swaps the model there, so the decoded vector views it.  A round's task
plaintext is encoded once, and `send_task` seals it to one participant at a
time under the model key `publish_round` staged for that session, so a round
never holds every participant's envelope at once.  `publish_round` first
checks that each session stands one step before the round's key, and
`ratchet.RatchetConfig.rotates` says which rounds re-key.  Handlers are
atomic: every check (freshness, signature, replay, on-chain commitment, AEAD,
model decoding, a task model's digest against the anchored global model, an
update model's dimension and round against the task's, received key
material, the epoch's remaining keys) runs before any session state changes,
so a rejected delivery leaves the session exactly as it was.  Received key
material is checked where it arrives, even when it is used only later, and
each fault is `MalformedMessage`: decoding refuses a key of the wrong width,
the sender's signing key included, and a `fresh` byte other than 0 or 1, so
for key messages that comes before the reference and commitment checks; then
a KEM key must pass the FIPS 203 modulus check and an ECDH key must be a
P-256 point.  Both ends keep a session in one record, `_Session`, which
stores each session fact once, and each receive rule is stated once for
both: `_Party` holds every handler's prologue, the key messages' reference
check and the commits that open and close a round, and `_check_rotation`
checks rotation material wherever it arrives.

A signature check may already have been made when a handler asks for it:
`submit_check` hands an envelope's check to `crypto.verifier` as soon as the
envelope exists and returns a handle, which travels beside the envelope; each
handler takes it as `check` and passes it to `crypto.verify`, which returns
its answer or checks in-process (see `crypto`).

Operation counters: `keygen`, `encap`, `decap`, `sign`, `verify` count those
primitives directly; of all counters only `verify` and `offchain_recv_bytes`
also move for a delivery that is then rejected.  `derive` counts the two
per-round symmetric chain derivations; the root-chain derivations that
accompany a key rotation are part of the rotation's fixed cost and are not
separately counted.
"""

from __future__ import annotations

import struct
from dataclasses import MISSING, dataclass, field, fields

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


# --- wire layouts ----------------------------------------------------------
#
# Each message class declares its layout once, as metadata on its fields;
# `_message` builds it into one plan per class, which `_encode` (the one
# encoder) and `_decode` (the one decoder) both follow: a header of every
# integer field in declaration order, then the `fresh` byte if the class has a
# rotation pair; that pair, present exactly when `fresh` is 1, which encode
# sets when the pair's first key is non-empty; then the other byte fields in
# declaration order.  A declared width is the only length decode accepts;
# encode writes whatever it is given.

_LENGTH = struct.Struct(">I")
_MAX_SIGNATURE = 72   # a DER ECDSA signature over a 256-bit curve


def _int(code: str):
    """A header integer, packed by its struct code."""
    return field(metadata={"code": code})


def _bytes(width=None, *, fixed=False, view=False, rotation=False):
    """A byte field of exactly `width` bytes, if given, and length-prefixed
    unless `fixed`; it encodes from bytes, a bytearray or a memoryview, or
    from a writer (an object with `nbytes` and `write_into`: a `_Sealed`
    payload or an `fl.WireModel`), which writes itself straight into the wire
    buffer.  A `view` field decodes as a view into the blob.  A `rotation`
    field is one key of the pair the `fresh` byte gates, empty when absent."""
    meta = {"spec": (width, fixed, view), "rotation": rotation}
    return field(default=b"" if rotation else MISSING, metadata=meta)


class _Reader:
    """Reads fields from any bytes-like blob through a memoryview."""

    def __init__(self, blob):
        self._b = memoryview(blob)
        self._i = 0

    def view(self, n: int) -> memoryview:
        if self._i + n > len(self._b):
            raise MalformedMessage("truncated message")
        out = self._b[self._i : self._i + n]
        self._i += n
        return out

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.view(fmt.size))

    def done(self) -> None:
        if self._i != len(self._b):
            raise MalformedMessage("trailing bytes")


class _Sealed:
    """A payload sealed under a round key straight into the buffer that
    encodes it, through `crypto.aead_seal`."""

    __slots__ = ("key", "nonce", "aad", "plaintext")

    def __init__(self, key: bytes, nonce: bytes, aad: bytes, plaintext):
        self.key, self.nonce, self.aad, self.plaintext = key, nonce, aad, plaintext

    @property
    def nbytes(self) -> int:
        return len(self.plaintext) + crypto.TAG_BYTES

    def write_into(self, out: memoryview) -> None:
        crypto.aead_seal(self.key, self.nonce, self.aad, self.plaintext, out)


def _encode(msg, signer: crypto.SigKeyPair | None = None) -> bytearray:
    """The encoder: `msg`'s wire bytes, each field written once into one
    buffer.  A field is bytes, copied, or a writer (`_Sealed`,
    `fl.WireModel`), which writes itself.  Given `signer`, the last
    field must be empty: it receives the signature over every byte before its
    length prefix, made over a view of the buffer."""
    header, ints, rotation, body = msg._layout
    values = [getattr(msg, name) for name in ints]
    if rotation:   # the fresh byte
        values.append(1 if getattr(msg, rotation[0][0]) else 0)
        body = (rotation if values[-1] else ()) + body
    plan, end = [], header.size   # (value, its size, whether length-prefixed)
    for name, _, fixed, _ in body:
        value = getattr(msg, name)
        size = len(value) if isinstance(value, (bytes, bytearray)) else value.nbytes
        plan.append((value, size, not fixed))
        end += size if fixed else _LENGTH.size + size
    out = bytearray(end + (_MAX_SIGNATURE if signer else 0))
    header.pack_into(out, 0, *values)
    at = header.size
    with memoryview(out) as view:
        for value, size, prefixed in plan:
            if prefixed:
                _LENGTH.pack_into(out, at, size)
                at += _LENGTH.size
            if isinstance(value, (bytes, bytearray, memoryview)):
                view[at : at + size] = value
            else:
                value.write_into(view[at : at + size])
            at += size
        if signer is None:
            return out
        signature = crypto.sign(signer, view[: end - _LENGTH.size])
    _LENGTH.pack_into(out, end - _LENGTH.size, len(signature))
    out[end : end + len(signature)] = signature
    del out[end + len(signature) :]   # the unused signature room
    return out


def _decode(cls, blob):
    """The decoder: accepts exactly the layout `_encode` writes, with every
    declared width and a `fresh` byte of 0 or 1."""
    header, ints, rotation, body = cls._layout
    r = _Reader(blob)
    head = r.unpack(header)
    values = dict(zip(ints, head))
    if rotation:
        if head[-1] not in (0, 1):
            raise MalformedMessage(f"fresh byte must be 0 or 1, got {head[-1]}")
        body = (rotation if head[-1] else ()) + body
    for name, width, fixed, view in body:
        n = width if fixed else r.unpack(_LENGTH)[0]
        if width is not None and n != width:
            raise MalformedMessage(f"{name} must be {width} bytes, got {n}")
        values[name] = r.view(n) if view else bytes(r.view(n))
    r.done()
    return cls(**values)


def _message(cls):
    """A frozen dataclass with the one encoder and decoder, its layout built once."""
    cls = dataclass(frozen=True)(cls)
    ints, rotation, body = [], [], []
    for f in fields(cls):
        m = f.metadata
        if "code" in m:
            ints.append(f.name)
        else:
            (rotation if m["rotation"] else body).append((f.name, *m["spec"]))
    header = "".join(f.metadata.get("code", "") for f in fields(cls)) + ("B" if rotation else "")
    cls._layout = (struct.Struct(">" + header), tuple(ints), tuple(rotation), tuple(body))
    cls.encode = _encode
    cls.decode = classmethod(_decode)
    return cls


def seal_nonce(round: int, direction: int) -> bytes:
    """12-byte AEAD nonce bound to (round, direction)."""
    return crypto.digest(struct.pack(">I", round) + bytes([direction]))[:12]


def seal_aad(project_id: int, task_id: int, round: int, direction: int) -> bytes:
    return struct.pack(">HHIB", project_id, task_id, round, direction)


# --- messages --------------------------------------------------------------

@_message
class KeyAnnouncement:
    project_id: int = _int("H")
    registration_block: int = _int("I")
    kem_public: bytes = _bytes(crypto.KEM_PUBLIC_BYTES)
    dh_public: bytes = _bytes(crypto.DH_PUBLIC_BYTES)


@_message
class KeyResponse:
    project_id: int = _int("H")
    registration_block: int = _int("I")
    kem_ciphertext: bytes = _bytes(crypto.KEM_CIPHERTEXT_BYTES)
    dh_public: bytes = _bytes(crypto.DH_PUBLIC_BYTES)


@_message
class TaskPayload:
    project_id: int = _int("H")
    task_id: int = _int("H")
    round: int = _int("I")
    deadline_window: int = _int("H")
    model: bytes = _bytes(view=True)   # global model, or its fl.WireModel
    kem_public: bytes = _bytes(crypto.KEM_PUBLIC_BYTES, rotation=True)   # fresh keys
    dh_public: bytes = _bytes(crypto.DH_PUBLIC_BYTES, rotation=True)


@_message
class UpdatePayload:
    project_id: int = _int("H")
    task_id: int = _int("H")
    round: int = _int("I")
    model: bytes = _bytes(view=True)   # local model, or its fl.WireModel
    kem_ciphertext: bytes = _bytes(crypto.KEM_CIPHERTEXT_BYTES, rotation=True)   # rotation reply
    dh_public: bytes = _bytes(crypto.DH_PUBLIC_BYTES, rotation=True)


@_message
class SignedEnvelope:
    version: int = _int("B")
    msg_type: int = _int("B")
    round: int = _int("I")
    timestamp: int = _int("Q")
    sender_address: bytes = _bytes(crypto.ADDRESS_BYTES, fixed=True)
    sender_public: bytes = _bytes(crypto.SIG_PUBLIC_BYTES)
    payload: bytes = _bytes(view=True)      # or a _Sealed payload, sealed as it is encoded
    signature: bytes = _bytes()             # last, so the fields before it are the signed prefix


def envelope_bytes(
    msg_type: int, round: int, payload, sig_pair: crypto.SigKeyPair, now: int
) -> bytearray:
    """A signed envelope's wire bytes, encoded once and signed over a view of
    their prefix; a `_Sealed` payload is sealed straight into them."""
    return SignedEnvelope(
        version=WIRE_VERSION, msg_type=msg_type, round=round, timestamp=now,
        sender_address=crypto.address_of(sig_pair.public),
        sender_public=sig_pair.public, payload=payload, signature=b"",
    ).encode(sig_pair)


def _signed(env: SignedEnvelope, blob) -> memoryview:
    """The bytes `env`'s signature covers: every byte of `blob`, the wire
    bytes it was decoded from, before its signature field.  `decode` accepts
    only the one layout, so they are byte for byte what the sender signed."""
    return memoryview(blob)[: len(blob) - _LENGTH.size - len(env.signature)]


def submit_check(blob):
    """Hand the signature check of the envelope `blob` to `crypto.verifier`
    ahead of its delivery, if an exchange is open, and return its handle for
    the receiving handler's `check`; None if it was not handed over.  No
    wire buffer is written after its send returns: the helper thread may
    still be hashing this one while this thread goes on."""
    if not crypto.verifier.accepting:
        return None
    env = SignedEnvelope.decode(blob)
    return crypto.verifier.submit(env.sender_public, _signed(env, blob), env.signature)


def build_envelope(
    msg_type: int, round: int, payload: bytes, sig_pair: crypto.SigKeyPair, now: int
) -> SignedEnvelope:
    """The signed envelope `envelope_bytes` encodes, decoded."""
    return SignedEnvelope.decode(envelope_bytes(msg_type, round, payload, sig_pair, now))


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


def _check_keys(msg) -> None:
    """Reject a message's key material before anything uses it: a KEM public
    key must pass the FIPS 203 modulus check and an ECDH key must be a P-256
    point.  Decoding has already checked every width."""
    try:
        if hasattr(msg, "kem_public"):
            crypto.kem_check(msg.kem_public)
        crypto.dh_check(msg.dh_public)
    except ValueError as exc:
        raise MalformedMessage(f"invalid key: {exc}") from None


def _check_rotation(msg, first: bytes, expected: bool, committed: bytes, mismatch: str) -> None:
    """Check a message's key pair, `first` and its `dh_public`: present
    exactly when `expected`, and then hashing to its on-chain commitment
    `committed` (else `mismatch`) and valid (`_check_keys`)."""
    if bool(first) != expected:
        raise CommitmentMismatch("key rotation material missing or unexpected")
    if expected:
        if crypto.digest(first + msg.dh_public) != committed:
            raise CommitmentMismatch(mismatch)
        _check_keys(msg)


# --- parties ---------------------------------------------------------------

_SEALED = {DIR_TASK: ("task", TaskPayload), DIR_UPDATE: ("update", UpdatePayload)}
_KEY_MESSAGES = {MSG_KEY_ANNOUNCEMENT: ("announcement", KeyAnnouncement),
                 MSG_KEY_RESPONSE: ("response", KeyResponse)}


@dataclass
class _Session:
    """One end's record of a session.  `registration` is the peer's: the
    client's at the server, the project's at a participant.  A session is
    established exactly when it holds a `ratchet`.  `key` is the open round's
    model key, and `fresh` the server keys its task carries, if any; `round`
    is the latest round accepted from the peer."""

    peer: bytes
    registration: RegClientEvent | RegProjectEvent
    ratchet: ratchet.RatchetState | None = None
    key: ratchet.ModelKey | None = None
    round: int = 0
    fresh: tuple[bytes, bytes] | None = None
    transcript: list[TranscriptRow] = field(default_factory=list)


class _Party:
    """What the server and a participant share: a signer, a clock, counters,
    the one send path and seal/open pair, and the receive rules of both.
    Each end finds a sender's session (`_session_of`) and refuses a delivery
    with none (`_NO_SESSION`, by message type) its own way."""

    def __init__(self, rng, ledger, clock, config, max_skew):
        self.rng = rng
        self.ledger = ledger
        self.clock = clock
        self.config = config
        self.max_skew = max_skew
        self.counters = OpCounters()
        self._sig = crypto.sig_keygen(rng.fork("sig"))
        self.address = crypto.address_of(self._sig.public)

    def _send(self, msg_type: int, round: int, payload, now: int | None = None) -> bytearray:
        """Sign `payload` into an envelope timestamped `now` (by default the
        clock's time) and return its wire bytes; a `_Sealed` payload is sealed
        straight into them."""
        if now is None:
            now = self.clock.now()
        return self._sent(envelope_bytes(msg_type, round, payload, self._sig, now))

    def _sent(self, blob: bytearray) -> bytearray:
        """Count one signed envelope sent, and return it."""
        self.counters.sign += 1
        self.counters.offchain_bytes += len(blob)
        return blob

    def _receive(self, blob, msg_type: int, what: str, check) -> tuple[SignedEnvelope, _Session]:
        """Every handler's prologue: count and decode `blob`, find its session,
        `_check` it and refuse a replay.  A key message needs a session and
        replays once it is established; a round message needs an established
        session and replays at or below its `round`."""
        self.counters.offchain_recv_bytes += len(blob)
        env = SignedEnvelope.decode(blob)
        session = self._session_of(env.sender_address)
        key_message = msg_type in _KEY_MESSAGES
        if session is None or (not key_message and session.ratchet is None):
            error, text = self._NO_SESSION[msg_type]
            raise error(text)
        self._check(env, blob, session.peer, msg_type, what, check)
        if key_message:
            if session.ratchet is not None:
                raise ReplayDetected("session already established")
        elif env.round <= session.round:
            raise ReplayDetected(f"round {env.round} already processed")
        return env, session

    def _key_message(self, env: SignedEnvelope, session: _Session):
        """The key message `env` carries, once it names this project and the
        block of the session's registration."""
        what, codec = _KEY_MESSAGES[env.msg_type]
        msg = codec.decode(env.payload)
        if msg.project_id != self.project_id:
            raise BadReference(f"{what} for a different project")
        if msg.registration_block != session.registration.block:
            raise BadReference(f"{what} references the wrong registration")
        return msg

    def _open_round(self, session: _Session, state, key, fresh, h_info: bytes, block: int) -> None:
        """Open a round: the session takes its chain `state`, model `key` and
        `fresh` keys, and the `s2p` row."""
        session.ratchet, session.key, session.fresh = state, key, fresh
        self.counters.derive += 2
        session.transcript.append(
            TranscriptRow(key.round, key.epoch, key.step, "s2p", h_info, block)
        )

    def _close_round(self, session: _Session, rotation, h_info: bytes, block: int) -> None:
        """Close the open round on its update: mark the key used, take the
        asymmetric step on a rotation reply's secrets, if any, record the
        round, clear the key and fresh keys, and append the `p2s` row."""
        key = session.key
        key.mark_used(DIR_UPDATE)
        if rotation is not None:
            session.ratchet = ratchet.advance_asymmetric(session.ratchet, *rotation)
        session.round, session.key, session.fresh = key.round, None, None
        session.transcript.append(
            TranscriptRow(key.round, key.epoch, key.step, "p2s", h_info, block)
        )

    def _check(
        self, env: SignedEnvelope, blob, sender: bytes, msg_type: int, what: str, check=None
    ) -> None:
        """Freshness, address binding, signature and type.  Raises; never mutates.

        `blob` is the wire bytes `env` was decoded from; the signature is
        checked over their `_signed` prefix, with the handle `check` that
        `submit_check` gave for `blob`, if any.
        """
        if env.version != WIRE_VERSION:
            raise MalformedMessage(f"unsupported wire version {env.version}")
        if abs(self.clock.now() - env.timestamp) > self.max_skew:
            raise StaleTimestamp(f"timestamp {env.timestamp} vs now {self.clock.now()}")
        try:
            address = crypto.address_of(env.sender_public)
        except ValueError as exc:
            raise MalformedMessage(f"sender key: {exc}") from None
        if address != env.sender_address:
            raise BadSignature("declared key does not match sender address")
        if env.sender_address != sender:
            raise BadSignature("sender is not the expected peer")
        if not crypto.verify(env.sender_public, _signed(env, blob), env.signature, check):
            raise BadSignature("envelope signature invalid")
        self.counters.verify += 1
        if env.msg_type != msg_type:
            raise MalformedMessage(f"expected {what}")

    def _seal(
        self, key: ratchet.ModelKey, round: int, direction: int, plaintext
    ) -> _Sealed:
        """`plaintext` to be sealed under `key` by the envelope that encodes
        it; the caller marks `key` used in `direction`."""
        aad = seal_aad(self.project_id, round, round, direction)
        return _Sealed(key.key, seal_nonce(round, direction), aad, plaintext)

    def _open(
        self, key: ratchet.ModelKey, env: SignedEnvelope, direction: int, h_info: bytes
    ) -> tuple[TaskPayload | UpdatePayload, fl.ModelVector, bytes | None]:
        """Open a sealed round payload, check it against its on-chain hash and
        decode its model, which views the opened buffer.  A task's model
        digest is taken over its wire bytes, before decoding swaps them in
        place and before the model is checked."""
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
        h_model = fl.model_digest(msg.model) if direction == DIR_TASK else None
        try:
            model = fl.deserialize_model(msg.model)
        except ValueError as exc:
            raise MalformedMessage(f"{what} model: {exc}") from None
        return msg, model, h_model


# --- server ----------------------------------------------------------------

class Server(_Party):
    """Project owner: registers, establishes sessions, runs rounds, scores."""

    _NO_SESSION = {MSG_KEY_RESPONSE: (UnknownClient, "response from unregistered address"),
                   MSG_UPDATE: (UnknownClient, "update from an unknown session")}

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
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if rounds_planned < 1:
            raise ValueError("rounds_planned must be at least 1")
        super().__init__(rng, ledger, clock, config, max_skew)
        self.project_id = project_id
        self.capacity = capacity
        self.rounds_planned = rounds_planned
        self.deadline_window = deadline_window
        self.sessions: dict[bytes, _Session] = {}
        self.round = 0
        self.finished = False
        self.registration_block: int | None = None
        self._kem: crypto.KemKeyPair | None = None
        self._dh: crypto.DhKeyPair | None = None
        self._task: tuple[bytearray, int] | None = None   # open round's plaintext, publish time
        self._task_dim = 0   # the latest task model's dimension, which updates must match

    def _session_of(self, address: bytes) -> _Session | None:
        return self.sessions.get(address)

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
            self.sessions[ev.client] = _Session(ev.client, ev)
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

    def handle_key_response(self, blob: bytes, check=None) -> None:
        """Complete establishment for the responding participant."""
        env, session = self._receive(blob, MSG_KEY_RESPONSE, "a key response", check)
        msg = self._key_message(env, session)
        if crypto.digest(msg.dh_public) != session.registration.h_key:
            raise CommitmentMismatch("ECDH key does not match the registered commitment")
        _check_keys(msg)
        secrets = self._agree(msg.kem_ciphertext, msg.dh_public)
        session.ratchet = ratchet.init_root(*secrets, self.config)
        session.transcript.append(
            TranscriptRow(0, 1, 0, "p2s", crypto.digest(env.payload), msg.registration_block)
        )

    # rounds ----------------------------------------------------------------

    def publish_round(self, model: fl.ModelVector) -> TaskEvent:
        """Anchor the round's task, advance every session one round and stage
        its model key; `send_task` seals the task under it.

        On the epoch's last round (when more rounds remain) fresh keys ride in
        the payload and their hash in the task transaction.
        """
        if self.finished:
            raise SessionTerminated("project is finished")
        if self.round == self.rounds_planned:
            raise SessionTerminated(f"all {self.rounds_planned} planned rounds are published")
        if not self.sessions:
            raise SessionNotReady("no registered participants")
        rnd = self.round + 1
        epoch, step = ratchet.key_of(rnd, self.config)
        for addr, s in self.sessions.items():
            if s.ratchet is None:
                raise SessionNotReady(f"session {addr.hex()} not established")
            if (s.ratchet.epoch, s.ratchet.step) != (epoch, step - 1):
                raise ProtocolError(
                    f"session {addr.hex()} is out of lockstep: it stands at epoch "
                    f"{s.ratchet.epoch} step {s.ratchet.step}, round {rnd} needs epoch "
                    f"{epoch} step {step - 1}"
                )
        rotate = self.config.rotates(rnd, self.rounds_planned)
        fresh_kem, fresh_dh, h_keys = self._new_keys() if rotate else (None, None, b"")
        fresh = (fresh_kem.public, fresh_dh.public) if rotate else None
        plaintext = TaskPayload(
            project_id=self.project_id,
            task_id=rnd,
            round=rnd,
            deadline_window=self.deadline_window,
            model=fl.WireModel(model),
            kem_public=fresh_kem.public if rotate else b"",
            dh_public=fresh_dh.public if rotate else b"",
        ).encode()
        h_info = crypto.digest(plaintext)
        event = self.ledger.publish_task(
            self.address, rnd, h_info, h_keys, self.project_id, rnd, self.deadline_window
        )
        for session in self.sessions.values():
            state, key = ratchet.advance_symmetric(session.ratchet)
            self._open_round(session, state, key, fresh, h_info, event.block)
        if rotate:
            self.counters.key_material_bytes += _KEY_ANNOUNCE_BYTES * len(self.sessions)
            self._kem, self._dh = fresh_kem, fresh_dh
        self.round = rnd
        self._task = (plaintext, self.clock.now())
        self._task_dim = model.values.size
        return event

    def send_task(self, participant: bytes) -> bytearray:
        """Seal the open round's task to one participant under its staged key
        and sign it with the publish time; its key seals it once."""
        if participant not in self.sessions:
            raise UnknownClient("participant has not registered")
        key = self.sessions[participant].key
        if self._task is None or key is None:
            raise SessionNotReady("no task open for this participant")
        plaintext, published = self._task
        key.mark_used(DIR_TASK)
        sealed = self._seal(key, self.round, DIR_TASK, plaintext)
        return self._send(MSG_TASK, self.round, sealed, published)

    def handle_update(self, blob: bytes, check=None) -> tuple[bytes, fl.ModelVector]:
        """Verify, open, and absorb one participant's sealed update; it
        carries a rotation reply exactly when its task carried fresh keys."""
        env, session = self._receive(blob, MSG_UPDATE, "an update", check)
        if env.round != self.round:
            raise ProtocolError(f"update for round {env.round}, current is {self.round}")
        chain = self.ledger.update(self.project_id, env.round, session.peer)
        if chain is None:
            raise BadReference("no on-chain update transaction for this round")
        key = session.key
        if key is None or key.round != env.round:
            raise SessionNotReady("no model key staged for this round")
        msg, model, _ = self._open(key, env, DIR_UPDATE, chain.h_info)
        if model.values.size != self._task_dim:
            raise MalformedMessage(
                f"update model has {model.values.size} values, the task's {self._task_dim}"
            )
        if model.round != env.round:
            raise MalformedMessage(f"update model labelled round {model.round}, not {env.round}")
        rotating = session.fresh is not None
        _check_rotation(msg, msg.kem_ciphertext, rotating, chain.h_ct_key,
                        "rotation reply does not match the on-chain hash")
        secrets = self._agree(msg.kem_ciphertext, msg.dh_public) if rotating else None
        # all checks passed; commit state changes
        self._close_round(session, secrets, chain.h_info, chain.block)
        return session.peer, model

    def feedback(self, global_model: fl.ModelVector) -> list[FeedbackEvent]:
        """Close the round: anchor the new global model and score 1 each
        session whose update for this round was accepted, in registration
        order.  The planned last round's feedback carries the termination flag.
        """
        h_model = fl.model_digest(global_model)
        h_keys = self.ledger.current_keys(self.project_id)
        terminate = 1 if self.round == self.rounds_planned else 0
        self._task = None
        return [
            self.ledger.feedback_model(
                self.address, self.round, self.project_id, self.round,
                addr, 1, terminate, h_model, h_keys,
            )
            for addr, s in self.sessions.items() if s.round == self.round
        ]

    def finish(self):
        """Close the project and release the escrowed deposit."""
        event = self.ledger.finish_project(self.address, self.project_id)
        self.finished = True
        return event


# --- participant -----------------------------------------------------------

class Participant(_Party):
    """Registered client: establishes a session, trains, returns sealed updates."""

    _NO_SESSION = {MSG_KEY_ANNOUNCEMENT: (SessionNotReady, "join a project first"),
                   MSG_TASK: (SessionNotReady, "session not established")}

    def __init__(
        self,
        rng: crypto.DeterministicRng,
        ledger: Ledger,
        clock: SimClock,
        config: ratchet.RatchetConfig,
        max_skew: int = MAX_SKEW_SECONDS,
    ):
        super().__init__(rng, ledger, clock, config, max_skew)
        self._dh: crypto.DhKeyPair | None = None
        self.project_id: int | None = None
        self.registration_block: int | None = None
        self.session: _Session | None = None   # set by `join`

    def _session_of(self, address: bytes) -> _Session | None:
        return self.session

    def join(self, project_id: int) -> RegClientEvent:
        """Locate the project on chain and register a key commitment for it."""
        if self.project_id is not None:
            raise ProtocolError("already joined a project")
        try:
            project = self.ledger.registration(project_id)
        except UnknownProject:
            raise BadReference(f"no project {project_id} on chain") from None
        self._dh = crypto.dh_keygen(self.rng)
        self.counters.keygen += 1
        event = self.ledger.register_client(
            self.address, project_id, crypto.digest(self._dh.public)
        )
        self.project_id = project_id
        self.registration_block = event.block
        self.session = _Session(project.server, project)
        return event

    def _encapsulate(
        self, kem_public: bytes, server_dh_public: bytes, dh: crypto.DhKeyPair
    ) -> tuple[bytes, tuple[bytes, bytes]]:
        """Encapsulate to the server's KEM key and agree with its ECDH key
        from `dh`; returns the ciphertext and the (KEM, ECDH) shared secrets."""
        ct, ss_kem = crypto.kem_encap(kem_public, self.rng.bytes(32))
        self.counters.encap += 1
        return ct, (ss_kem, crypto.dh_agree(dh, server_dh_public))

    def handle_keys(self, blob: bytes, check=None) -> bytes:
        """Check the announced keys against the chain and derive the root key."""
        env, session = self._receive(blob, MSG_KEY_ANNOUNCEMENT, "a key announcement", check)
        msg = self._key_message(env, session)
        _check_rotation(msg, msg.kem_public, True, session.registration.h_keys,
                        "announced keys do not match the on-chain commitment")
        ct, secrets = self._encapsulate(msg.kem_public, msg.dh_public, self._dh)
        reply = KeyResponse(
            project_id=self.project_id,
            registration_block=self.registration_block,
            kem_ciphertext=ct,
            dh_public=self._dh.public,
        ).encode()
        out = self._send(MSG_KEY_RESPONSE, 0, reply)
        self.counters.key_material_bytes += _KEY_RESPONSE_BYTES
        session.ratchet = ratchet.init_root(*secrets, self.config)
        self._dh = None   # the root key consumed it; a later capture must not find it
        session.transcript += (
            TranscriptRow(0, 1, 0, "s2p", crypto.digest(env.payload), msg.registration_block),
            TranscriptRow(0, 1, 0, "p2s", crypto.digest(reply), self.registration_block),
        )
        return out

    def handle_task(self, blob: bytes, check=None) -> fl.ModelVector:
        """Verify a round's task against the chain and return the global model."""
        env, session = self._receive(blob, MSG_TASK, "a task", check)
        if env.round != session.round + 1:
            raise ProtocolError(f"task skips to round {env.round}")
        if session.key is not None:
            raise ProtocolError("previous task still open")
        chain = self.ledger.task(self.project_id, env.round)
        if chain is None:
            raise BadReference("no on-chain task for this round")
        if self.clock.now() > chain.time + chain.deadline_window:
            raise StaleDeadline(f"task deadline passed at {chain.time + chain.deadline_window}")
        try:
            new_state, key = ratchet.advance_symmetric(session.ratchet)
        except ratchet.EpochExhausted as exc:
            raise ProtocolError(f"round {env.round} task skips the key rotation: {exc}") from None
        msg, model, h_model = self._open(key, env, DIR_TASK, chain.h_info)
        if h_model != self.ledger.current_model(self.project_id):
            raise CommitmentMismatch("task model is not the anchored global model")
        _check_rotation(msg, msg.kem_public, bool(chain.h_keys), chain.h_keys,
                        "fresh keys do not match the on-chain commitment")
        # all checks passed; commit state changes
        key.mark_used(DIR_TASK)
        session.round = env.round
        fresh = (msg.kem_public, msg.dh_public) if msg.kem_public else None
        self._open_round(session, new_state, key, fresh, chain.h_info, chain.block)
        return model

    def send_update(self, model: fl.ModelVector) -> bytes:
        """Commit the local update on chain and seal it to the server.

        The update's commitment hash is handed to `crypto.verifier.digest`,
        which takes it on the helper thread inside a wide exchange, while
        this thread seals and signs the envelope; then the update transaction
        is posted with that hash.  Nothing between writes to the ledger, so
        blocks keep their order.  Only once the transaction is accepted is
        the round closed and the envelope counted: a refused transaction
        raises its `LedgerError` and leaves the key, the `sign` and
        `offchain_bytes` counters, the ratchet and the open task as they
        were (the keygen and encapsulation of a rotation are already made
        and counted)."""
        session = self.session
        if session is None or session.key is None:
            raise NoActiveTask("no task to answer")
        rnd, key = session.round, session.key
        ct = dh_pub = h_ct_key = b""
        rotation = None
        if session.fresh is not None:
            fresh_dh = crypto.dh_keygen(self.rng)
            self.counters.keygen += 1
            ct, rotation = self._encapsulate(*session.fresh, fresh_dh)
            dh_pub = fresh_dh.public
            h_ct_key = crypto.digest(ct + dh_pub)
        plaintext = UpdatePayload(
            project_id=self.project_id, task_id=rnd, round=rnd,
            model=fl.WireModel(model), kem_ciphertext=ct, dh_public=dh_pub,
        ).encode()
        hashed = crypto.verifier.digest(plaintext)
        blob = envelope_bytes(
            MSG_UPDATE, rnd, self._seal(key, rnd, DIR_UPDATE, plaintext), self._sig,
            self.clock.now(),
        )
        h_info = hashed.result()
        event = self.ledger.update_model(
            self.address, rnd, h_info, h_ct_key, self.project_id, rnd
        )
        self._sent(blob)
        if rotation is not None:
            self.counters.key_material_bytes += _KEY_RESPONSE_BYTES
        self._close_round(session, rotation, h_info, event.block)
        return blob
