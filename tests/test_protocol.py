"""Session state machines: establishment, rounds, rejection paths, schedule."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import establish, run_round
from pqbfl import crypto, fl, protocol, ratchet
from pqbfl.crypto import AuthFailure, DeterministicRng
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
    assert session.ratchet.root_key == p.ratchet.root_key
    assert session.ratchet.chain_key == p.ratchet.chain_key
    assert session.ratchet is not None and p.ratchet is not None


def test_establishment_operation_counts():
    server, (p,), _, _, _ = establish()
    s, c = server.counters, p.counters
    assert (s.keygen, s.encap, s.decap, s.derive, s.sign, s.verify) == (2, 0, 1, 0, 1, 1)
    assert (c.keygen, c.encap, c.decap, c.derive, c.sign, c.verify) == (1, 1, 0, 0, 1, 1)


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
    server, (p,), _, clock, _ = establish(seed=b"replay-est")
    ann = server.send_keys(p.address)
    with pytest.raises(ReplayDetected):
        p.handle_keys(ann)
    response = build_envelope(
        protocol.MSG_KEY_RESPONSE, 0, b"", p._sig, clock.now()
    )
    # even a fresh-looking response is a replay once the session exists
    with pytest.raises(ReplayDetected):
        server.handle_key_response(
            build_envelope(
                protocol.MSG_KEY_RESPONSE, 0,
                KeyResponse(1, p.registration_block, b"\x00" * 1088, p._dh.public).encode(),
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
    server, (p,), _, clock, model = establish(
        rounds=6, length=2, seed=b"lock", server_log=slog, participant_logs=[plog]
    )
    for _ in range(6):
        model = run_round(server, [p], clock, model)
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
    _, envelopes = server.publish_round(model)
    got = p.handle_task(envelopes[p.address])
    blob = p.send_update(fl.local_train(got, 77, 0.01, 2))
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
        assert len(hashed) == 1 and hashed[0] is model


def test_feedback_scores_only_the_updates_that_arrived():
    server, parts, ledger, clock, model = establish(n=3, rounds=3, length=5, seed=b"drop")
    for rnd in (1, 2, 3):
        clock.advance(60)
        _, envs = server.publish_round(model)
        senders = parts if rnd == 1 else [parts[0], parts[2]]   # parts[1] drops out
        collected = []
        for p in senders:
            got = p.handle_task(envs[p.address])
            _, m = server.handle_update(p.send_update(fl.local_train(got, 5, 0.01, rnd)))
            collected.append(m)
        model = fl.aggregate(collected)
        events = server.feedback(model)
        assert [e.client for e in events] == [p.address for p in senders]
        assert {(e.round, e.score, e.terminate, e.h_model) for e in events} == {
            (rnd, 1, int(rnd == 3), fl.model_digest(model))
        }
    assert [ledger.score_of(1, p.address) for p in parts] == [3, 1, 3]


def _bad_parts(kind):
    """`fl.model_parts` with a NaN entry or one value short of its header."""
    real = fl.model_parts

    def parts(model):
        header, values = real(model)
        if kind == "nan":
            values = values.copy()
            values[0] = np.nan
        else:
            values = values[:-1]
        return [header, values]
    return parts


@pytest.mark.parametrize("kind", ["nan", "short"])
def test_bad_model_in_authentic_task_is_malformed(kind, monkeypatch):
    server, (p,), _, clock, model = establish(rounds=2, length=5, seed=b"badtask")
    clock.advance(60)
    with monkeypatch.context() as m:
        m.setattr(fl, "model_parts", _bad_parts(kind))
        _, envs = server.publish_round(model)

    def state():
        return (p.ratchet, p.last_round, p._active, list(p.transcript), p.counters.derive)

    before = state()
    with pytest.raises(MalformedMessage):
        p.handle_task(envs[p.address])
    assert state() == before


@pytest.mark.parametrize("kind", ["nan", "short"])
def test_bad_model_in_authentic_update_is_malformed(kind):
    server, (p,), ledger, clock, model = establish(rounds=2, length=5, seed=b"badupd")
    clock.advance(60)
    _, envs = server.publish_round(model)
    local = fl.local_train(p.handle_task(envs[p.address]), 1, 0.01, 1)
    # signed, sealed under the round key and committed on chain like an honest update
    plaintext = UpdatePayload(1, 1, 1, _bad_parts(kind)(local)).encode()
    ledger.update_model(p.address, 1, crypto.digest(plaintext), b"", 1, 1)
    sealed = crypto.aead_seal(
        p._active["key"].key, protocol.seal_nonce(1, protocol.DIR_UPDATE),
        protocol.seal_aad(1, 1, 1, protocol.DIR_UPDATE), plaintext,
    )
    blob = p._send(protocol.MSG_UPDATE, 1, sealed)
    session = server.sessions[p.address]

    def state():
        return (session.ratchet, session.current_key, session.last_update_round,
                list(session.transcript))

    before = state()
    with pytest.raises(MalformedMessage):
        server.handle_update(blob)
    assert state() == before
    # the honest update still lands under the same round key
    sender, got = server.handle_update(p.send_update(local))
    assert sender == p.address and np.array_equal(got.values, local.values)


def test_task_replay_rejected_state_intact():
    server, (p,), _, clock, model = establish(rounds=3, length=5, seed=b"trep")
    clock.advance(60)
    _, envs = server.publish_round(model)
    env = envs[p.address]
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
    _, envs = server.publish_round(model)
    blob = envs[p.address]
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
    _, envs = server.publish_round(model)
    blob = envs[p.address]
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
    _, envs = server.publish_round(model)
    clock.advance(150)  # past deadline yet within signature skew
    with pytest.raises(StaleDeadline):
        p.handle_task(envs[p.address])


def test_update_requires_open_task():
    server, (p,), _, clock, model = establish(rounds=2, length=5, seed=b"noact")
    with pytest.raises(protocol.NoActiveTask):
        p.send_update(fl.local_train(model, 1, 0.01, 1))


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


def _participant_state(p):
    return (p.ratchet, p.last_round, p._active, list(p.transcript), p.rng._counter, _counts(p))


def _session_state(server, addr):
    s = server.sessions[addr]
    used = set(s.current_key._used) if s.current_key is not None else None
    return (s.ratchet, s.current_key, used, s.last_update_round, list(s.transcript),
            _counts(server))


@pytest.mark.parametrize("kind", ["short kem", "unreduced kem", "not a point"])
def test_bad_keys_in_authentic_announcement_are_malformed(kind, monkeypatch):
    with monkeypatch.context() as m:
        _bad_public_keys(m, kind)
        server, _, ledger, clock, _ = establish(n=0, capacity=1, seed=b"badann")
    p = protocol.Participant(DeterministicRng(b"pann"), ledger, clock, server.config)
    p.join(1)
    server.admit_clients()
    blob = server.send_keys(p.address)
    before = _participant_state(p)
    with pytest.raises(MalformedMessage):
        p.handle_keys(blob)
    assert _participant_state(p) == before


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
    before = _session_state(server, p.address)
    with pytest.raises(MalformedMessage):
        server.handle_key_response(response)
    assert _session_state(server, p.address) == before


@pytest.mark.parametrize("kind", ["short kem", "unreduced kem", "not a point"])
def test_bad_fresh_keys_in_authentic_task_are_malformed(kind, monkeypatch):
    server, (p,), _, clock, model = establish(rounds=3, length=1, seed=b"badfresh")
    clock.advance(60)
    with monkeypatch.context() as m:
        _bad_public_keys(m, kind)
        _, envs = server.publish_round(model)   # a rotation round
    before = _participant_state(p)
    with pytest.raises(MalformedMessage):
        p.handle_task(envs[p.address])
    assert _participant_state(p) == before


@pytest.mark.parametrize("kind", ["not a point", "short ciphertext"])
def test_bad_rotation_reply_in_authentic_update_is_malformed(kind):
    server, (p,), ledger, clock, model = establish(rounds=3, length=1, seed=b"badreply")
    clock.advance(60)
    _, envs = server.publish_round(model)   # a rotation round
    local = fl.local_train(p.handle_task(envs[p.address]), 1, 0.01, 1)
    ct, _ = crypto.kem_encap(p._active["fresh"][0], bytes(32))
    dh_public = crypto.dh_keygen(DeterministicRng(b"fresh")).public
    if kind == "not a point":
        dh_public = NOT_A_POINT
    else:
        ct = ct[:10]
    # signed, sealed and committed on chain like an honest rotation reply
    plaintext = UpdatePayload(1, 1, 1, fl.model_parts(local), ct, dh_public).encode()
    h_ct_key = crypto.digest(ct + dh_public)
    ledger.update_model(p.address, 1, crypto.digest(plaintext), h_ct_key, 1, 1)
    sealed = crypto.aead_seal(
        p._active["key"].key, protocol.seal_nonce(1, protocol.DIR_UPDATE),
        protocol.seal_aad(1, 1, 1, protocol.DIR_UPDATE), plaintext,
    )
    blob = p._send(protocol.MSG_UPDATE, 1, sealed)
    before = _session_state(server, p.address)
    for _ in range(2):   # a second delivery is rejected the same way
        with pytest.raises(MalformedMessage):
            server.handle_update(blob)
        assert _session_state(server, p.address) == before
    # the honest reply still lands under the same round key and rotates
    sender, got = server.handle_update(p.send_update(local))
    assert sender == p.address and np.array_equal(got.values, local.values)
    assert server.sessions[p.address].ratchet == p.ratchet


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
    assert p.ratchet.epoch == 3


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
    assert p.ratchet.epoch == 2


def test_epoch_boundary_round_numbers():
    slog = []
    server, (p,), _, clock, model = establish(
        rounds=10, length=9, seed=b"nine", server_log=slog
    )
    for _ in range(10):
        model = run_round(server, [p], clock, model)
    rows = [(r[2], r[3], r[4]) for r in slog]  # (round, epoch, step)
    assert rows[:9] == [(k, 1, k) for k in range(1, 10)]
    assert rows[9] == (10, 2, 1)


def test_publish_after_finish_refused():
    server, (p,), _, clock, model = establish(rounds=1, length=5, seed=b"fin")
    model = run_round(server, [p], clock, model)
    server.finish()
    with pytest.raises(protocol.SessionTerminated):
        server.publish_round(model)


# --- wire codecs ------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 65535),
    st.integers(0, 2**32 - 1),
    st.binary(min_size=0, max_size=64),
    st.binary(min_size=0, max_size=64),
)
def test_key_announcement_codec(project, block, kem, dh):
    msg = KeyAnnouncement(project, block, kem, dh)
    assert KeyAnnouncement.decode(msg.encode()) == msg


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 65535),
    st.integers(0, 65535),
    st.integers(0, 2**32 - 1),
    st.binary(min_size=1, max_size=80),
    st.booleans(),
)
def test_task_and_update_codecs(project, task, rnd, model, fresh):
    kem = b"\x01" * 16 if fresh else b""
    dh = b"\x02" * 8 if fresh else b""
    t = TaskPayload(project, task, rnd, 600, model, kem, dh)
    assert TaskPayload.decode(t.encode()) == t
    u = UpdatePayload(project, task, rnd, model, kem, dh)
    assert UpdatePayload.decode(u.encode()) == u


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
