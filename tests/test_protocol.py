"""Session state machines: establishment, rounds, rejection paths, schedule."""

import hashlib
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import establish, run_round
from pqbfl import crypto, fl, protocol, ratchet
from pqbfl.crypto import AuthFailure, DeterministicRng
from pqbfl.ledger import DeadlineExceeded
from pqbfl.protocol import (
    BadReference,
    BadSignature,
    CommitmentMismatch,
    KeyAnnouncement,
    KeyResponse,
    MalformedMessage,
    ProtocolError,
    ReplayDetected,
    SignedEnvelope,
    StaleDeadline,
    StaleTimestamp,
    TaskPayload,
    UpdatePayload,
    build_envelope,
)

# --- establishment -----------------------------------------------------------

def test_both_sides_agree_on_root_and_chain():
    server, (p,), _, _, _ = establish()
    session = server.sessions[p.address]
    assert session.ratchet.root_key == p.session.ratchet.root_key
    assert session.ratchet.chain_key == p.session.ratchet.chain_key
    assert session.ratchet is not None and p.session.ratchet is not None


def test_establishment_operation_counts():
    server, (p,), _, _, _ = establish()
    s, c = server.counters, p.counters
    assert (s.keygen, s.encap, s.decap, s.derive, s.sign, s.verify) == (2, 0, 1, 0, 1, 1)
    assert (c.keygen, c.encap, c.decap, c.derive, c.sign, c.verify) == (1, 1, 0, 0, 1, 1)


def test_no_registration_dh_pair_survives_establishment():
    # the root key consumed the registration ECDH secret; a participant
    # captured after establishment must not still hold it
    server, _, ledger, clock, _ = establish(n=0, capacity=1, seed=b"dh-drop")
    p = protocol.Participant(DeterministicRng(b"pdh"), ledger, clock, server.config)
    p.join(1)

    def held():
        return [v for v in vars(p).values() if isinstance(v, crypto.DhKeyPair)]

    assert held()
    server.admit_clients()
    server.handle_key_response(p.handle_keys(server.send_keys(p.address)))
    assert p.session.ratchet is not None and held() == []


def test_announcement_key_swap_is_caught():
    # same wire shape, same valid server signature, different KEM key: the
    # on-chain commitment made at registration must flag it
    server, _, ledger, clock, _ = establish(n=2, seed=b"swap", capacity=3)
    victim = protocol.Participant(
        DeterministicRng(b"victim"), ledger, clock, server.config
    )
    victim.join(1)
    server.admit_clients()
    blob = server.send_keys(victim.address)
    msg = KeyAnnouncement.decode(SignedEnvelope.decode(blob).payload)
    attacker = crypto.kem_keygen(b"\xEE" * 32)
    forged_msg = KeyAnnouncement(
        msg.project_id, msg.registration_block, attacker.public, msg.dh_public
    )
    forged = build_envelope(
        protocol.MSG_KEY_ANNOUNCEMENT, 0, forged_msg.encode(), server._sig, clock.now()
    ).encode()
    with pytest.raises(CommitmentMismatch):
        victim.handle_keys(forged)
    # the honest copy still establishes: the failure left no state behind
    response = victim.handle_keys(blob)
    server.handle_key_response(response)
    assert server.sessions[victim.address].ratchet is not None


def test_response_key_swap_is_caught():
    server, _, ledger, clock, _ = establish(n=2, seed=b"swap2", capacity=3)
    p = protocol.Participant(DeterministicRng(b"p2"), ledger, clock, server.config)
    p.join(1)
    server.admit_clients()
    response = p.handle_keys(server.send_keys(p.address))
    msg = KeyResponse.decode(SignedEnvelope.decode(response).payload)
    other_dh = crypto.dh_keygen(DeterministicRng(b"not-registered"))
    forged_msg = KeyResponse(
        msg.project_id, msg.registration_block, msg.kem_ciphertext, other_dh.public
    )
    forged = build_envelope(
        protocol.MSG_KEY_RESPONSE, 0, forged_msg.encode(), p._sig, clock.now()
    ).encode()
    with pytest.raises(CommitmentMismatch):
        server.handle_key_response(forged)
    server.handle_key_response(response)
    assert server.sessions[p.address].ratchet is not None


def test_establishment_replay_rejected():
    server, _, ledger, clock, _ = establish(n=0, capacity=1, seed=b"replay-est")
    p = protocol.Participant(DeterministicRng(b"prep"), ledger, clock, server.config)
    p.join(1)
    server.admit_clients()
    honest = p.handle_keys(server.send_keys(p.address))
    server.handle_key_response(honest)
    dh_public = KeyResponse.decode(SignedEnvelope.decode(honest).payload).dh_public
    ann = server.send_keys(p.address)
    with pytest.raises(ReplayDetected):
        p.handle_keys(ann)
    # even a fresh-looking response is a replay once the session exists
    with pytest.raises(ReplayDetected):
        server.handle_key_response(
            build_envelope(
                protocol.MSG_KEY_RESPONSE, 0,
                KeyResponse(1, p.registration_block, b"\x00" * 1088, dh_public).encode(),
                p._sig, clock.now(),
            ).encode()
        )


def test_wrong_registration_reference_rejected():
    server, _, ledger, clock, _ = establish(n=2, seed=b"badref", capacity=3)
    p = protocol.Participant(DeterministicRng(b"pref"), ledger, clock, server.config)
    p.join(1)
    server.admit_clients()
    env = SignedEnvelope.decode(server.send_keys(p.address))
    msg = KeyAnnouncement.decode(env.payload)
    forged = build_envelope(
        protocol.MSG_KEY_ANNOUNCEMENT, 0,
        KeyAnnouncement(
            msg.project_id, msg.registration_block + 1, msg.kem_public, msg.dh_public
        ).encode(),
        server._sig, clock.now(),
    ).encode()
    with pytest.raises(BadReference):
        p.handle_keys(forged)


def test_unknown_sender_and_address_binding():
    server, (p,), _, clock, _ = establish(seed=b"auth")
    imposter = crypto.sig_keygen(DeterministicRng(b"imposter"))
    env = build_envelope(protocol.MSG_KEY_ANNOUNCEMENT, 0, b"x", imposter, clock.now())
    with pytest.raises(BadSignature):
        p.handle_keys(env.encode())  # not the server's address
    honest = SignedEnvelope.decode(server.send_keys(p.address))
    lying = SignedEnvelope(
        version=honest.version, msg_type=honest.msg_type, round=honest.round,
        timestamp=honest.timestamp, sender_address=honest.sender_address,
        sender_public=imposter.public, payload=honest.payload,
        signature=honest.signature,
    )
    with pytest.raises(BadSignature):
        p.handle_keys(lying.encode())  # declared key does not hash to the address


def test_stale_timestamp_rejected():
    server, (p,), _, clock, _ = establish(seed=b"skew")
    env = server.send_keys(p.address)
    clock.advance(protocol.MAX_SKEW_SECONDS + 1)
    with pytest.raises(StaleTimestamp):
        p.handle_keys(env)


# --- rounds ------------------------------------------------------------------

def test_round_trip_returns_models_and_scores():
    server, parts, ledger, clock, model = establish(n=3, rounds=2, length=5, seed=b"r")
    model = run_round(server, parts, clock, model)
    model = run_round(server, parts, clock, model)
    server.finish()
    for p in parts:
        assert ledger.score_of(1, p.address) == 2
    assert ledger.project_info(1)["done"]


def test_model_keys_lockstep_across_sides():
    slog, plog = [], []
    server, (p,), _, clock, model = establish(rounds=6, length=2, seed=b"lock")
    for _ in range(6):
        model = run_round(server, [p], clock, model, server_log=slog, participant_logs=[plog])
    assert [(r[2], r[3], r[4], r[5]) for r in slog] == [
        (r[2], r[3], r[4], r[5]) for r in plog
    ]
    assert len(slog) == 6


def test_update_commitment_is_scoped_to_its_project():
    # the same account updating the same task number in another project on
    # the same ledger must not shadow its commitment in this one
    server, (p,), ledger, clock, model = establish(seed=b"scope")
    other = protocol.Server(
        DeterministicRng(b"other"), ledger, clock, project_id=2, capacity=1,
        rounds_planned=4, config=server.config,
    )
    other.bootstrap(model)
    H = crypto.digest(b"elsewhere")
    ledger.register_client(p.address, 2, H)
    ledger.publish_task(other.address, 1, H, b"", 2, 1, 600)
    clock.advance(60)
    server.publish_round(model)
    got = p.handle_task(server.send_task(p.address))
    blob = p.send_update(fl.local_train(got, 77, 0.01, 1))
    ledger.update_model(p.address, 1, H, b"", 2, 1)
    sender, _ = server.handle_update(blob)
    assert sender == p.address


def test_feedback_hashes_the_global_model_once_per_round(monkeypatch):
    server, parts, _, clock, model = establish(n=3, rounds=2, length=5, seed=b"fb")
    hashed = []
    real = fl.model_digest

    def counting(m):
        hashed.append(m)
        return real(m)

    monkeypatch.setattr(fl, "model_digest", counting)
    for _ in range(2):
        hashed.clear()
        model = run_round(server, parts, clock, model)
        # each participant hashes its task model once, then feedback the new model once
        assert len(hashed) == len(parts) + 1 and hashed[-1] is model


def test_a_task_is_sealed_when_taken_with_the_publish_time(monkeypatch):
    server, parts, _, clock, model = establish(n=2, rounds=2, length=5, seed=b"lazy")
    seals = []
    real = crypto.aead_seal

    def counting(key, nonce, aad, plaintext, out=None):
        seals.append(key)
        return real(key, nonce, aad, plaintext, out)

    monkeypatch.setattr(crypto, "aead_seal", counting)
    clock.advance(60)
    published, signed = clock.now(), server.counters.sign
    server.publish_round(model)
    assert seals == [] and server.counters.sign == signed   # nothing sealed or signed yet
    clock.advance(30)
    first, second = (p.address for p in parts)
    blob = server.send_task(first)
    assert SignedEnvelope.decode(blob).timestamp == published
    assert seals == [server.sessions[first].key.key]
    # a second send neither reseals nor signs: the session's key refuses it
    with pytest.raises(ratchet.KeyReuse):
        server.send_task(first)
    assert len(seals) == 1 and server.counters.sign == signed + 1
    server.send_task(second)
    assert len(seals) == 2 and server.counters.sign == signed + 2
    assert parts[0].handle_task(blob).round == 0   # still fresh: 30 s after publishing


def test_a_task_is_sent_only_while_its_round_is_open():
    server, (p,), _, clock, model = establish(rounds=2, length=5, seed=b"open")
    stranger = crypto.address_of(crypto.sig_keygen(DeterministicRng(b"nobody")).public)
    with pytest.raises(protocol.SessionNotReady):
        server.send_task(p.address)   # nothing published yet
    clock.advance(60)
    server.publish_round(model)
    with pytest.raises(protocol.UnknownClient):
        server.send_task(stranger)
    local = fl.local_train(p.handle_task(server.send_task(p.address)), 1, 0.01, 1)
    server.handle_update(p.send_update(local))
    with pytest.raises(protocol.SessionNotReady):
        server.send_task(p.address)   # the accepted update cleared the round key
    server.feedback(local)
    with pytest.raises(protocol.SessionNotReady):
        server.send_task(p.address)   # the round is closed
    assert server._task is None


def test_feedback_scores_only_the_updates_that_arrived():
    server, parts, ledger, clock, model = establish(n=3, rounds=3, length=5, seed=b"drop")
    for rnd in (1, 2, 3):
        clock.advance(60)
        server.publish_round(model)
        senders = parts if rnd == 1 else [parts[0], parts[2]]   # parts[1] drops out
        collected = []
        for p in senders:
            got = p.handle_task(server.send_task(p.address))
            _, m = server.handle_update(p.send_update(fl.local_train(got, 5, 0.01, rnd)))
            collected.append(m)
        model = fl.aggregate(collected)
        events = server.feedback(model)
        assert [e.client for e in events] == [p.address for p in senders]
        assert {(e.round, e.score, e.terminate, e.h_model) for e in events} == {
            (rnd, 1, int(rnd == 3), fl.model_digest(model))
        }
    assert [ledger.score_of(1, p.address) for p in parts] == [3, 1, 3]


def _bad_model(kind):
    """`fl.WireModel` as a model's bytes with a NaN entry, or one value short
    of its header."""

    def wire(model):
        blob = fl.serialize_model(model)
        return blob[:-8] + (struct.pack(">d", float("nan")) if kind == "nan" else b"")
    return wire


def _forged_update(p, ledger, payload, h_ct_key=b""):
    """`payload` committed on chain with `h_ct_key`, sealed under `p`'s open
    round key and signed by `p`, like an honest update."""
    rnd, plaintext = p.session.round, payload.encode()
    ledger.update_model(p.address, rnd, crypto.digest(plaintext), h_ct_key, 1, rnd)
    sealed = crypto.aead_seal(
        p.session.key.key, protocol.seal_nonce(rnd, protocol.DIR_UPDATE),
        protocol.seal_aad(1, rnd, rnd, protocol.DIR_UPDATE), plaintext,
    )
    return p._send(protocol.MSG_UPDATE, rnd, sealed)


@pytest.mark.parametrize("kind", ["nan", "short"])
def test_bad_model_in_authentic_task_is_malformed(kind, monkeypatch):
    server, (p,), _, clock, model = establish(rounds=2, length=5, seed=b"badtask")
    clock.advance(60)
    with monkeypatch.context() as m:
        m.setattr(fl, "WireModel", _bad_model(kind))
        server.publish_round(model)

    before = _state(p)
    with pytest.raises(MalformedMessage):
        p.handle_task(server.send_task(p.address))
    assert _state(p) == before


@pytest.mark.parametrize("kind", ["nan", "short"])
def test_bad_model_in_authentic_update_is_malformed(kind):
    server, (p,), ledger, clock, model = establish(rounds=2, length=5, seed=b"badupd")
    clock.advance(60)
    server.publish_round(model)
    local = fl.local_train(p.handle_task(server.send_task(p.address)), 1, 0.01, 1)
    blob = _forged_update(p, ledger, UpdatePayload(1, 1, 1, _bad_model(kind)(local)))
    before = _state(server, p.address)
    with pytest.raises(MalformedMessage):
        server.handle_update(blob)
    assert _state(server, p.address) == before
    # the honest update still lands under the same round key
    sender, got = server.handle_update(p.send_update(local))
    assert sender == p.address and np.array_equal(got.values, local.values)


def test_task_replay_rejected_state_intact():
    server, (p,), _, clock, model = establish(rounds=3, length=5, seed=b"trep")
    clock.advance(60)
    server.publish_round(model)
    env = server.send_task(p.address)
    p.handle_task(env)
    with pytest.raises(ReplayDetected):
        p.handle_task(env)
    # the open task survives the replay attempt
    local = fl.local_train(model, 1, 0.01, 1)
    update = p.send_update(local)
    server.handle_update(update)
    with pytest.raises(ReplayDetected):
        server.handle_update(update)


def test_tampered_ciphertext_fails_signature():
    server, (p,), _, clock, model = establish(rounds=2, length=5, seed=b"tamper")
    clock.advance(60)
    server.publish_round(model)
    blob = server.send_task(p.address)
    env = SignedEnvelope.decode(blob)
    mangled = bytearray(env.payload)
    mangled[0] ^= 0x80
    forged = SignedEnvelope(
        env.version, env.msg_type, env.round, env.timestamp,
        env.sender_address, env.sender_public, bytes(mangled), env.signature,
    )
    with pytest.raises(BadSignature):
        p.handle_task(forged.encode())
    assert p.handle_task(blob).round == 0  # still accepts the honest copy


def test_tamper_with_signing_oracle_fails_aead():
    # valid signature over corrupted ciphertext: authentication moves to the
    # sealed layer, which must refuse
    server, (p,), _, clock, model = establish(rounds=2, length=5, seed=b"aead")
    clock.advance(60)
    server.publish_round(model)
    blob = server.send_task(p.address)
    env = SignedEnvelope.decode(blob)
    mangled = bytearray(env.payload)
    mangled[-1] ^= 0x01
    resigned = build_envelope(
        env.msg_type, env.round, bytes(mangled), server._sig, clock.now()
    ).encode()
    with pytest.raises(AuthFailure):
        p.handle_task(resigned)
    got = p.handle_task(blob)
    assert got.round == 0


def test_onchain_payload_hash_binds_task():
    # a task sealed and signed correctly but anchored with a different hash
    # on chain must be refused by the participant
    server, (p,), ledger, clock, model = establish(rounds=3, length=9, seed=b"bind")
    clock.advance(60)
    session = server.sessions[p.address]
    state, key = ratchet.advance_symmetric(session.ratchet)
    payload = TaskPayload(
        project_id=1, task_id=1, round=1, deadline_window=600,
        model=fl.serialize_model(model),
    )
    plaintext = payload.encode()
    ledger.publish_task(
        server.address, 1, crypto.digest(b"something else"), b"", 1, 1, 600
    )
    sealed = crypto.aead_seal(
        key.key,
        protocol.seal_nonce(1, protocol.DIR_TASK),
        protocol.seal_aad(1, 1, 1, protocol.DIR_TASK),
        plaintext,
    )
    env = build_envelope(protocol.MSG_TASK, 1, sealed, server._sig, clock.now())
    with pytest.raises(CommitmentMismatch):
        p.handle_task(env.encode())


def test_deadline_expiry_rejected():
    server, (p,), _, clock, model = establish(
        rounds=2, length=5, seed=b"late", deadline_window=100
    )
    clock.advance(60)
    server.publish_round(model)
    clock.advance(150)  # past deadline yet within signature skew
    with pytest.raises(StaleDeadline):
        p.handle_task(server.send_task(p.address))


def test_update_requires_open_task():
    server, (p,), _, clock, model = establish(rounds=2, length=5, seed=b"noact")
    with pytest.raises(protocol.NoActiveTask):
        p.send_update(fl.local_train(model, 1, 0.01, 1))


@pytest.mark.parametrize("helping", [True, False])
def test_a_refused_update_transaction_leaves_the_participant_as_it_was(helping, monkeypatch):
    # round 1 rotates keys, so the refused update carries a fresh key reply
    server, (p,), ledger, clock, model = establish(
        rounds=2, length=1, seed=b"refused", deadline_window=100
    )
    clock.advance(60)
    server.publish_round(model)
    got = p.handle_task(server.send_task(p.address))
    local = fl.local_train(got, 1, 0.01, 1)
    clock.advance(101)   # past the task's deadline: the contract refuses the update
    session = p.session
    key, fresh, state, blocks = session.key, session.fresh, session.ratchet, len(ledger.blocks)
    hashed_on = []
    run = crypto._Job.run

    def recording(job):
        out = run(job)
        if isinstance(job._value, bytes):
            hashed_on.append(threading.current_thread() is threading.main_thread())
        return out

    monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(crypto._Job, "run", recording)
    with crypto.Verifier() as verifier:
        monkeypatch.setattr(crypto, "verifier", verifier)
        with verifier.exchange(2 if helping else 1, wide=True):
            assert verifier.helping == helping
            counters = p.counters.snapshot()
            with pytest.raises(DeadlineExceeded):
                p.send_update(local)
    assert hashed_on == [not helping]   # the commitment was hashed on the helper
    # the rotation's keygen and encapsulation were made before the refusal
    assert p.counters.snapshot() == dict(counters, keygen=counters["keygen"] + 1,
                                         encap=counters["encap"] + 1)
    assert key._used == {protocol.DIR_TASK}
    assert session.key is key and session.fresh == fresh and session.ratchet is state
    assert len(ledger.blocks) == blocks and session.transcript[-1].direction == "s2p"


def test_update_from_stranger_rejected():
    server, (p,), _, clock, model = establish(rounds=2, length=5, seed=b"stranger")
    clock.advance(60)
    server.publish_round(model)
    stranger = crypto.sig_keygen(DeterministicRng(b"nobody"))
    env = build_envelope(protocol.MSG_UPDATE, 1, b"zz", stranger, clock.now())
    with pytest.raises(protocol.UnknownClient):
        server.handle_update(env.encode())


# --- malformed key material from an authenticated peer ---------------------------
# The sender signs correctly and its on-chain commitment matches: only the key
# bytes are bad, so the receiving handler must reject them with a
# ProtocolError before any state changes.

NOT_A_POINT = b"\x04" + bytes(64)   # 65 bytes, but not a P-256 point


def _unreduced(ek):
    """ek with coefficient 0 set to q, so the FIPS 203 modulus check fails."""
    return bytes([0x01, 0x0D]) + ek[2:]


def _bad_public_keys(m, kind):
    """Patch key generation so the next pairs carry a bad public key of `kind`."""
    real_kem, real_dh = crypto.kem_keygen, crypto.dh_keygen

    def kem_keygen(seed):
        pair = real_kem(seed)
        public = {"short kem": pair.public[:10], "unreduced kem": _unreduced(pair.public)}
        return replace(pair, public=public.get(kind, pair.public))

    def dh_keygen(rng):
        pair = real_dh(rng)
        return replace(pair, public=NOT_A_POINT) if kind == "not a point" else pair

    m.setattr(crypto, "kem_keygen", kem_keygen)
    m.setattr(crypto, "dh_keygen", dh_keygen)


def _counts(party):
    """Operation counters, less those that count every delivery's work
    (received bytes and signature checks)."""
    counts = party.counters.snapshot()
    del counts["offchain_recv_bytes"], counts["verify"]
    return counts


def _state(party, address=None):
    """A session record as it stands, its open key's uses included, with its
    party's draws and counters: the participant's one session, or the
    server's session with `address`."""
    s = party.session if address is None else party.sessions[address]
    used = None if s.key is None else set(s.key._used)
    record = dict(vars(s), transcript=list(s.transcript), used=used)
    return record, party.rng._counter, _counts(party)


@pytest.mark.parametrize("kind", ["short kem", "unreduced kem", "not a point"])
def test_bad_keys_in_authentic_announcement_are_malformed(kind, monkeypatch):
    with monkeypatch.context() as m:
        _bad_public_keys(m, kind)
        server, _, ledger, clock, _ = establish(n=0, capacity=1, seed=b"badann")
    p = protocol.Participant(DeterministicRng(b"pann"), ledger, clock, server.config)
    p.join(1)
    server.admit_clients()
    blob = server.send_keys(p.address)
    before = _state(p)
    with pytest.raises(MalformedMessage):
        p.handle_keys(blob)
    assert _state(p) == before


@pytest.mark.parametrize("kind", ["not a point", "short ciphertext"])
def test_bad_keys_in_authentic_key_response_are_malformed(kind, monkeypatch):
    server, _, ledger, clock, _ = establish(n=1, capacity=2, seed=b"badresp")
    p = protocol.Participant(DeterministicRng(b"presp"), ledger, clock, server.config)
    with monkeypatch.context() as m:
        if kind == "not a point":   # committed at registration, so the hash matches
            _bad_public_keys(m, kind)
        p.join(1)
    server.admit_clients()
    response = p.handle_keys(server.send_keys(p.address))
    msg = KeyResponse.decode(SignedEnvelope.decode(response).payload)
    if kind == "short ciphertext":
        response = build_envelope(
            protocol.MSG_KEY_RESPONSE, 0,
            replace(msg, kem_ciphertext=msg.kem_ciphertext[:10]).encode(), p._sig, clock.now(),
        ).encode()
    before = _state(server, p.address)
    with pytest.raises(MalformedMessage):
        server.handle_key_response(response)
    assert _state(server, p.address) == before


@pytest.mark.parametrize("kind", ["short kem", "unreduced kem", "not a point"])
def test_bad_fresh_keys_in_authentic_task_are_malformed(kind, monkeypatch):
    server, (p,), _, clock, model = establish(rounds=3, length=1, seed=b"badfresh")
    clock.advance(60)
    with monkeypatch.context() as m:
        _bad_public_keys(m, kind)
        server.publish_round(model)   # a rotation round
    before = _state(p)
    with pytest.raises(MalformedMessage):
        p.handle_task(server.send_task(p.address))
    assert _state(p) == before


@pytest.mark.parametrize("kind", ["not a point", "short ciphertext"])
def test_bad_rotation_reply_in_authentic_update_is_malformed(kind):
    server, (p,), ledger, clock, model = establish(rounds=3, length=1, seed=b"badreply")
    clock.advance(60)
    server.publish_round(model)   # a rotation round
    local = fl.local_train(p.handle_task(server.send_task(p.address)), 1, 0.01, 1)
    ct, _ = crypto.kem_encap(p.session.fresh[0], bytes(32))
    dh_public = crypto.dh_keygen(DeterministicRng(b"fresh")).public
    if kind == "not a point":
        dh_public = NOT_A_POINT
    else:
        ct = ct[:10]
    blob = _forged_update(
        p, ledger, UpdatePayload(1, 1, 1, fl.WireModel(local), ct, dh_public),
        crypto.digest(ct + dh_public),
    )
    before = _state(server, p.address)
    for _ in range(2):   # a second delivery is rejected the same way
        with pytest.raises(MalformedMessage):
            server.handle_update(blob)
        assert _state(server, p.address) == before
    # the honest reply still lands under the same round key and rotates
    sender, got = server.handle_update(p.send_update(local))
    assert sender == p.address and np.array_equal(got.values, local.values)
    assert server.sessions[p.address].ratchet == p.session.ratchet


@pytest.mark.parametrize(
    "sender_public", [b"\x04" + bytes(10), b"\x05" + bytes(64)], ids=["short", "not-uncompressed"]
)
def test_bad_sender_key_is_malformed_in_every_handler(sender_public):
    server, _, ledger, clock, model = establish(n=1, capacity=2, seed=b"badsender")
    p = protocol.Participant(DeterministicRng(b"psender"), ledger, clock, server.config)
    p.join(1)
    server.admit_clients()

    def refused(handler, blob, state):
        before = state()
        bad = replace(SignedEnvelope.decode(blob), sender_public=sender_public).encode()
        with pytest.raises(MalformedMessage):
            handler(bad)
        assert state() == before
        return handler(blob)   # the honest copy still lands

    participant, session = lambda: _state(p), lambda: _state(server, p.address)
    response = refused(p.handle_keys, server.send_keys(p.address), participant)
    refused(server.handle_key_response, response, session)
    clock.advance(60)
    server.publish_round(model)
    got = refused(p.handle_task, server.send_task(p.address), participant)
    update = p.send_update(fl.local_train(got, 1, 0.01, 1))
    refused(server.handle_update, update, session)


# --- rejected deliveries --------------------------------------------------------
# Each case is a delivery its handler must refuse, from a peer that signs it
# with its own key; the receiver must be left exactly as it was.

def _resigned(blob, signer, **changes):
    """`blob`'s envelope with `changes`, signed again by `signer`."""
    return replace(SignedEnvelope.decode(blob), signature=b"", **changes).encode(signer)


def _newcomer(server, ledger, clock, establish=False):
    """A second participant, joined and admitted, its session established if asked."""
    q = protocol.Participant(DeterministicRng(b"newcomer"), ledger, clock, server.config)
    q.join(1)
    server.admit_clients()
    if establish:
        server.handle_key_response(q.handle_keys(server.send_keys(q.address)))
    return q


def _open_task(server, p, clock, model):
    """Publish the next round and hand its task to `p`; returns its model."""
    clock.advance(60)
    server.publish_round(model)
    return p.handle_task(server.send_task(p.address))


def _forged_task(server, p, ledger, clock, payload, h_keys):
    """`payload` as the next round's task: committed on chain with `h_keys`,
    sealed under `p`'s next key and signed by the server."""
    _, key = ratchet.advance_symmetric(p.session.ratchet)
    rnd, plaintext = key.round, payload.encode()
    ledger.publish_task(server.address, rnd, crypto.digest(plaintext), h_keys, 1, rnd, 600)
    sealed = crypto.aead_seal(
        key.key, protocol.seal_nonce(rnd, protocol.DIR_TASK),
        protocol.seal_aad(1, rnd, rnd, protocol.DIR_TASK), plaintext,
    )
    return protocol.envelope_bytes(protocol.MSG_TASK, rnd, sealed, server._sig, clock.now())


def _server_task(server, clock, rnd):
    """A task envelope for round `rnd`, signed by the server, with no sealed payload."""
    return protocol.envelope_bytes(protocol.MSG_TASK, rnd, b"x", server._sig, clock.now())


def _wire_version(server, p, ledger, clock, model):
    clock.advance(60)
    server.publish_round(model)
    blob = server.send_task(p.address)
    return p.handle_task, _resigned(blob, server._sig, version=protocol.WIRE_VERSION + 1)


def _update_sent_as_a_task(server, p, ledger, clock, model):
    clock.advance(60)
    server.publish_round(model)
    blob = server.send_task(p.address)
    return p.handle_task, _resigned(blob, server._sig, msg_type=protocol.MSG_UPDATE)


def _payload_names_another_task(server, p, ledger, clock, model):
    local = _open_task(server, p, clock, model)
    payload = UpdatePayload(1, 2, 1, fl.WireModel(local))   # task 2, round 1
    return server.handle_update, _forged_update(p, ledger, payload)


def _sessions_out_of_lockstep(server, p, ledger, clock, model):
    model = run_round(server, [p], clock, model)
    _newcomer(server, ledger, clock, establish=True)   # one round behind `p`
    return server.publish_round, model


def _update_for_another_round(server, p, ledger, clock, model):
    _open_task(server, p, clock, model)
    return server.handle_update, p._send(protocol.MSG_UPDATE, 2, b"x")


def _update_not_on_chain(server, p, ledger, clock, model):
    _open_task(server, p, clock, model)
    return server.handle_update, p._send(protocol.MSG_UPDATE, 1, b"x")


def _update_with_no_staged_key(server, p, ledger, clock, model):
    clock.advance(60)
    server.publish_round(model)
    q = _newcomer(server, ledger, clock, establish=True)   # established after the publish
    ledger.update_model(q.address, 1, crypto.digest(b"x"), b"", 1, 1)
    return server.handle_update, q._send(protocol.MSG_UPDATE, 1, b"x")


def _unexpected_rotation_reply(server, p, ledger, clock, model):
    # round 1 does not rotate
    local = fl.local_train(_open_task(server, p, clock, model), 1, 0.01, 1)
    ct, dh = bytes(crypto.KEM_CIPHERTEXT_BYTES), NOT_A_POINT
    payload = UpdatePayload(1, 1, 1, fl.WireModel(local), ct, dh)
    return server.handle_update, _forged_update(p, ledger, payload, crypto.digest(ct + dh))


def _rotation_reply_off_its_commitment(server, p, ledger, clock, model):
    model = run_round(server, [p], clock, model)
    # round 2 rotates
    local = fl.local_train(_open_task(server, p, clock, model), 1, 0.01, 2)
    ct, _ = crypto.kem_encap(p.session.fresh[0], bytes(32))
    dh = crypto.dh_keygen(DeterministicRng(b"fresh")).public
    payload = UpdatePayload(1, 2, 2, fl.WireModel(local), ct, dh)
    return server.handle_update, _forged_update(p, ledger, payload, crypto.digest(b"other"))


def _update_one_value_short(server, p, ledger, clock, model):
    local = fl.local_train(_open_task(server, p, clock, model), 1, 0.01, 1)
    short = fl.ModelVector(local.values[:-1], 1, local.tag)   # 7 values against the task's 8
    payload = UpdatePayload(1, 1, 1, fl.WireModel(short))
    return server.handle_update, _forged_update(p, ledger, payload)


def _update_labelled_another_round(server, p, ledger, clock, model):
    local = fl.local_train(_open_task(server, p, clock, model), 1, 0.01, 8)
    payload = UpdatePayload(1, 1, 1, fl.WireModel(local))   # a round-8 model in round 1
    return server.handle_update, _forged_update(p, ledger, payload)


def _task_model_not_the_anchored_one(server, p, ledger, clock, model):
    # the task bytes match their on-chain hash, but the model in them is not
    # the global model the round's Feedback anchored
    model = run_round(server, [p], clock, model)
    clock.advance(60)
    server.publish_round(fl.ModelVector(model.values + 1.0, model.round))
    return p.handle_task, server.send_task(p.address)


def _task_skipping_a_round(server, p, ledger, clock, model):
    return p.handle_task, _server_task(server, clock, 2)


def _task_while_one_is_open(server, p, ledger, clock, model):
    _open_task(server, p, clock, model)
    return p.handle_task, _server_task(server, clock, 2)


def _task_not_on_chain(server, p, ledger, clock, model):
    return p.handle_task, _server_task(server, clock, 1)


def _task_missing_committed_keys(server, p, ledger, clock, model):
    payload = TaskPayload(1, 1, 1, 600, fl.WireModel(model))
    return p.handle_task, _forged_task(server, p, ledger, clock, payload, crypto.digest(b"keys"))


def _fresh_keys_off_their_commitment(server, p, ledger, clock, model):
    kem = crypto.kem_keygen(bytes(32)).public
    dh = crypto.dh_keygen(DeterministicRng(b"fresh")).public
    payload = TaskPayload(1, 1, 1, 600, fl.WireModel(model), kem, dh)
    return p.handle_task, _forged_task(server, p, ledger, clock, payload, crypto.digest(b"other"))


def _response_from_a_stranger(server, p, ledger, clock, model):
    stranger = crypto.sig_keygen(DeterministicRng(b"nobody"))
    blob = protocol.envelope_bytes(protocol.MSG_KEY_RESPONSE, 0, b"x", stranger, clock.now())
    return server.handle_key_response, blob


def _edited_response(server, ledger, clock, **changes):
    q = _newcomer(server, ledger, clock)
    blob = q.handle_keys(server.send_keys(q.address))
    msg = replace(KeyResponse.decode(SignedEnvelope.decode(blob).payload), **changes)
    return server.handle_key_response, _resigned(blob, q._sig, payload=msg.encode())


def _response_for_another_project(server, p, ledger, clock, model):
    return _edited_response(server, ledger, clock, project_id=2)


def _response_naming_another_registration(server, p, ledger, clock, model):
    return _edited_response(server, ledger, clock, registration_block=p.registration_block)


def _announcement_for_another_project(server, p, ledger, clock, model):
    q = _newcomer(server, ledger, clock)
    blob = server.send_keys(q.address)
    msg = replace(KeyAnnouncement.decode(SignedEnvelope.decode(blob).payload), project_id=2)
    return q.handle_keys, _resigned(blob, server._sig, payload=msg.encode())


def _server_state(server):
    sessions = [_state(server, a) for a in server.sessions]
    return sessions, server.round, len(server.ledger.blocks)


REJECTED = [
    (_wire_version, MalformedMessage, "unsupported wire version"),
    (_update_sent_as_a_task, MalformedMessage, "expected a task"),
    (_payload_names_another_task, MalformedMessage, "payload identifiers disagree"),
    (_sessions_out_of_lockstep, ProtocolError, "lockstep"),
    (_update_for_another_round, ProtocolError, "update for round 2, current is 1"),
    (_update_not_on_chain, BadReference, "no on-chain update"),
    (_update_with_no_staged_key, protocol.SessionNotReady, "no model key staged"),
    (_unexpected_rotation_reply, CommitmentMismatch, "missing or unexpected"),
    (_rotation_reply_off_its_commitment, CommitmentMismatch, "rotation reply does not match"),
    (_update_one_value_short, MalformedMessage, "update model has 7 values, the task's 8"),
    (_update_labelled_another_round, MalformedMessage, "labelled round 8, not 1"),
    (_task_skipping_a_round, ProtocolError, "task skips to round 2"),
    (_task_while_one_is_open, ProtocolError, "previous task still open"),
    (_task_not_on_chain, BadReference, "no on-chain task"),
    (_task_missing_committed_keys, CommitmentMismatch, "missing or unexpected"),
    (_fresh_keys_off_their_commitment, CommitmentMismatch, "fresh keys do not match"),
    (_task_model_not_the_anchored_one, CommitmentMismatch, "not the anchored global model"),
    (_response_from_a_stranger, protocol.UnknownClient, "unregistered"),
    (_response_for_another_project, BadReference, "different project"),
    (_response_naming_another_registration, BadReference, "wrong registration"),
    (_announcement_for_another_project, BadReference, "different project"),
]


@pytest.mark.parametrize(
    "case, exc, fragment", REJECTED, ids=[case.__name__.strip("_") for case, _, _ in REJECTED]
)
def test_a_rejected_delivery_leaves_its_receiver_as_it_was(case, exc, fragment):
    server, (p,), ledger, clock, model = establish(capacity=2, seed=b"refused")
    handler, arg = case(server, p, ledger, clock, model)
    state = _server_state if handler.__self__ is server else _state
    before = state(handler.__self__)
    with pytest.raises(exc, match=fragment) as info:
        handler(arg)
    assert type(info.value) is exc
    assert state(handler.__self__) == before


# --- rotation schedule ----------------------------------------------------------

def test_rotation_on_last_round_of_epoch_only():
    server, (p,), ledger, clock, model = establish(rounds=5, length=2, seed=b"sched")
    for _ in range(5):
        model = run_round(server, [p], clock, model)
    tasks = sorted(
        (b.event.task_id, bool(b.event.h_keys))
        for b in ledger.blocks
        if type(b.event).__name__ == "TaskEvent"
    )
    assert tasks == [(1, False), (2, True), (3, False), (4, True), (5, False)]
    assert server.sessions[p.address].ratchet.epoch == 3
    assert p.session.ratchet.epoch == 3


def test_no_rotation_when_no_rounds_remain():
    server, (p,), ledger, clock, model = establish(rounds=4, length=2, seed=b"tail")
    for _ in range(4):
        model = run_round(server, [p], clock, model)
    tasks = sorted(
        (b.event.task_id, bool(b.event.h_keys))
        for b in ledger.blocks
        if type(b.event).__name__ == "TaskEvent"
    )
    assert tasks == [(1, False), (2, True), (3, False), (4, False)]
    assert p.session.ratchet.epoch == 2


def test_epoch_boundary_round_numbers():
    slog = []
    server, (p,), _, clock, model = establish(rounds=10, length=9, seed=b"nine")
    for _ in range(10):
        model = run_round(server, [p], clock, model, server_log=slog)
    rows = [(r[2], r[3], r[4]) for r in slog]  # (round, epoch, step)
    assert rows[:9] == [(k, 1, k) for k in range(1, 10)]
    assert rows[9] == (10, 2, 1)


def test_publish_after_finish_refused():
    server, (p,), _, clock, model = establish(rounds=1, length=5, seed=b"fin")
    model = run_round(server, [p], clock, model)
    server.finish()
    with pytest.raises(protocol.SessionTerminated):
        server.publish_round(model)


@pytest.mark.parametrize("length", [2, 3], ids=["epoch-ends-with-the-plan", "epoch-outlasts-it"])
def test_publish_past_the_plan_refused_before_any_write(length):
    server, parts, ledger, clock, model = establish(rounds=2, length=length, seed=b"plan")
    for _ in range(2):
        model = run_round(server, parts, clock, model)
    blocks = len(ledger.blocks)
    clock.advance(60)
    with pytest.raises(protocol.SessionTerminated) as info:
        server.publish_round(model)
    assert type(info.value) is protocol.SessionTerminated
    assert (len(ledger.blocks), server.round) == (blocks, 2)


def test_publish_after_a_rotation_no_session_completed_refused_before_any_write():
    server, (p,), ledger, clock, model = establish(rounds=3, length=1, seed=b"norot")
    got = _open_task(server, p, clock, model)   # round 1 rotates; its update never comes
    server.feedback(got)
    blocks = len(ledger.blocks)
    clock.advance(60)
    with pytest.raises(ProtocolError, match="stands at epoch 1 step 1") as info:
        server.publish_round(got)
    assert type(info.value) is ProtocolError
    assert (len(ledger.blocks), server.round) == (blocks, 1)


def test_task_past_an_exhausted_epoch_refused_state_intact():
    server, parts, ledger, clock, model = establish(rounds=2, length=2, seed=b"exhausted")
    for _ in range(2):
        model = run_round(server, parts, clock, model)
    (p,) = parts
    ledger.publish_task(server.address, 3, crypto.digest(b"x"), b"", 1, 3, 600)
    before = _state(p)
    with pytest.raises(ProtocolError, match="skips the key rotation") as info:
        p.handle_task(_server_task(server, clock, 3))
    assert type(info.value) is ProtocolError
    assert _state(p) == before


# --- wire codecs ------------------------------------------------------------------

U8, U16, U32, U64 = (st.integers(0, 2**bits - 1) for bits in (8, 16, 32, 64))
KEM_PUBLIC, KEM_CT, DH_PUBLIC = (
    crypto.KEM_PUBLIC_BYTES, crypto.KEM_CIPHERTEXT_BYTES, crypto.DH_PUBLIC_BYTES
)


def _exact(width):
    return st.binary(min_size=width, max_size=width)


def _rotation(first, fresh):
    """A rotation pair of exact widths, or the empty pair of a plain round."""
    return st.tuples(_exact(first), _exact(DH_PUBLIC)) if fresh else st.just((b"", b""))


# each class's valid messages, every key of its exact width; `fresh` says
# whether a task or update carries its rotation pair
MESSAGES = {
    KeyAnnouncement: lambda fresh: st.builds(
        KeyAnnouncement, U16, U32, _exact(KEM_PUBLIC), _exact(DH_PUBLIC)),
    KeyResponse: lambda fresh: st.builds(
        KeyResponse, U16, U32, _exact(KEM_CT), _exact(DH_PUBLIC)),
    TaskPayload: lambda fresh: st.builds(
        lambda head, model, pair: TaskPayload(*head, model, *pair),
        st.tuples(U16, U16, U32, U16), st.binary(min_size=1, max_size=80),
        _rotation(KEM_PUBLIC, fresh)),
    UpdatePayload: lambda fresh: st.builds(
        lambda head, model, pair: UpdatePayload(*head, model, *pair),
        st.tuples(U16, U16, U32), st.binary(min_size=1, max_size=80),
        _rotation(KEM_CT, fresh)),
    SignedEnvelope: lambda fresh: st.builds(
        SignedEnvelope, U8, U8, U32, U64, _exact(crypto.ADDRESS_BYTES),
        _exact(crypto.SIG_PUBLIC_BYTES), st.binary(max_size=80), st.binary(max_size=80)),
}

KEY_FIELDS = [
    (KeyAnnouncement, "kem_public", KEM_PUBLIC), (KeyAnnouncement, "dh_public", DH_PUBLIC),
    (KeyResponse, "kem_ciphertext", KEM_CT), (KeyResponse, "dh_public", DH_PUBLIC),
    (TaskPayload, "kem_public", KEM_PUBLIC), (TaskPayload, "dh_public", DH_PUBLIC),
    (UpdatePayload, "kem_ciphertext", KEM_CT), (UpdatePayload, "dh_public", DH_PUBLIC),
    (SignedEnvelope, "sender_public", crypto.SIG_PUBLIC_BYTES),
]
FRESH_BYTE_AT = {TaskPayload: 10, UpdatePayload: 8}   # the last byte of the header


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_message_round_trips(data):
    cls = data.draw(st.sampled_from(list(MESSAGES)))
    msg = data.draw(MESSAGES[cls](data.draw(st.booleans())))
    decoded = cls.decode(msg.encode())
    assert decoded == msg
    for name in ("model", "payload"):   # bulk fields decode as views
        if hasattr(decoded, name):
            assert isinstance(getattr(decoded, name), memoryview)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_other_key_widths_and_fresh_bytes_are_malformed(data):
    cls, name, width = data.draw(st.sampled_from(KEY_FIELDS))
    msg = data.draw(MESSAGES[cls](True))
    # an empty first key of a rotation pair would drop the pair, not break it
    least = 1 if cls in FRESH_BYTE_AT and name != "dh_public" else 0
    n = data.draw(st.integers(least, width + 40).filter(lambda n: n != width))
    with pytest.raises(MalformedMessage, match=name):
        cls.decode(replace(msg, **{name: b"\x04" * n}).encode())
    cls = data.draw(st.sampled_from(list(FRESH_BYTE_AT)))
    blob = bytearray(data.draw(MESSAGES[cls](data.draw(st.booleans()))).encode())
    blob[FRESH_BYTE_AT[cls]] = data.draw(st.integers(2, 255))
    with pytest.raises(MalformedMessage, match="fresh"):
        cls.decode(blob)


def _pinned_envelopes() -> dict[int, bytes]:
    """One envelope per message type, from fixed keys, payloads and clock."""
    pair = crypto.sig_keygen(DeterministicRng(b"pin"))
    kem = crypto.kem_keygen(bytes(32))
    dh = crypto.dh_keygen(DeterministicRng(b"pin-dh"))
    ct, _ = crypto.kem_encap(kem.public, bytes(32))
    payloads = {
        protocol.MSG_KEY_ANNOUNCEMENT: (0, KeyAnnouncement(1, 3, kem.public, dh.public)),
        protocol.MSG_KEY_RESPONSE: (0, KeyResponse(1, 4, ct, dh.public)),
        protocol.MSG_TASK: (2, TaskPayload(1, 2, 2, 600, b"global model", kem.public, dh.public)),
        protocol.MSG_UPDATE: (2, UpdatePayload(1, 2, 2, b"local model", ct, dh.public)),
    }
    return {
        t: protocol.envelope_bytes(t, rnd, msg.encode(), pair, 1_000)
        for t, (rnd, msg) in payloads.items()
    }


def test_envelope_bytes_are_pinned():
    digests = {t: hashlib.sha256(blob).hexdigest() for t, blob in _pinned_envelopes().items()}
    assert digests == {
        protocol.MSG_KEY_ANNOUNCEMENT:
            "089234f4684d7a51964feac78396332ab3a8bbab31ed00333d19e0ca5a75bfff",
        protocol.MSG_KEY_RESPONSE:
            "78c6f933fc243b1b3f7f1e687c0a3351f10fe4e57e08d4afb13f135d5ffecd5e",
        protocol.MSG_TASK:
            "6cf5c120278fab06ad6634e9e532f2a0cfef205fbc8d34b14988fbcbd2b72302",
        protocol.MSG_UPDATE:
            "b89df1aee4bb787f65a80c937ae85732c7dd21835af5829ab0f933b9c2b73386",
    }


def test_envelope_codec_and_malformed_rejection():
    pair = crypto.sig_keygen(DeterministicRng(b"codec"))
    env = build_envelope(protocol.MSG_TASK, 3, b"payload", pair, 1234)
    blob = env.encode()
    assert SignedEnvelope.decode(blob) == env
    with pytest.raises(MalformedMessage):
        SignedEnvelope.decode(blob[:-1])
    with pytest.raises(MalformedMessage):
        SignedEnvelope.decode(blob + b"\x00")
    with pytest.raises(MalformedMessage):
        KeyAnnouncement.decode(b"\x00\x01")
