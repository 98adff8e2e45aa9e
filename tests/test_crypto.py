"""Toolkit primitives against hand-rolled references and NIST constants."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from pqbfl import crypto

# --- references -------------------------------------------------------------

P256_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
P256_A = P256_P - 3
P256_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
P256_GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
P256_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5


def _ec_add(p, q):
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2 and (y1 + y2) % P256_P == 0:
        return None
    if p == q:
        lam = (3 * x1 * x1 + P256_A) * pow(2 * y1, -1, P256_P) % P256_P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P256_P) % P256_P
    x3 = (lam * lam - x1 - x2) % P256_P
    return x3, (lam * (x1 - x3) - y1) % P256_P


def _ec_mul(k, point):
    acc = None
    while k:
        if k & 1:
            acc = _ec_add(acc, point)
        point = _ec_add(point, point)
        k >>= 1
    return acc


def _hkdf_reference(salt, ikm, info, length):
    prk = hmac.new(salt, ikm, hashlib.sha384).digest()
    out, block = b"", b""
    counter = 1
    while len(out) < length:
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha384).digest()
        out += block
        counter += 1
    return out[:length]


# --- digests and kdf --------------------------------------------------------

def test_digest_is_sha256():
    # the canonical "abc" value
    assert crypto.digest(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert len(crypto.digest(b"")) == 32


@settings(max_examples=40, deadline=None)
@given(
    st.binary(min_size=0, max_size=64),
    st.binary(min_size=1, max_size=96),
    st.binary(min_size=0, max_size=24),
    st.integers(min_value=1, max_value=96),
)
def test_hkdf_matches_reference(salt, ikm, label, length):
    ours = crypto.hkdf(salt, ikm, label, length)
    # empty salt hashes like a zero key of hash length per the HKDF definition
    ref_salt = salt if salt else bytes(48)
    assert ours == _hkdf_reference(ref_salt, ikm, label, length)
    assert len(ours) == length


# --- deterministic rng ------------------------------------------------------

def test_rng_replay_and_fork_independence():
    a = crypto.DeterministicRng(b"seed")
    b = crypto.DeterministicRng(b"seed")
    assert [a.bytes(16) for _ in range(4)] == [b.bytes(16) for _ in range(4)]
    f1 = crypto.DeterministicRng(b"seed").fork("x")
    f2 = crypto.DeterministicRng(b"seed").fork("y")
    assert f1.bytes(32) != f2.bytes(32)
    # forking does not disturb the parent stream
    c = crypto.DeterministicRng(b"seed")
    c.fork("x")
    assert c.bytes(16) == crypto.DeterministicRng(b"seed").bytes(16)


def test_rng_int_seed():
    assert crypto.DeterministicRng(7).bytes(8) == crypto.DeterministicRng(7).bytes(8)
    assert crypto.DeterministicRng(7).bytes(8) != crypto.DeterministicRng(8).bytes(8)


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=1, max_size=32), st.lists(st.integers(1, 64), min_size=1, max_size=6))
def test_rng_chunking_does_not_collide(seed, sizes):
    rng = crypto.DeterministicRng(seed)
    chunks = [rng.bytes(n) for n in sizes]
    assert all(len(c) == n for c, n in zip(chunks, sizes))
    rng2 = crypto.DeterministicRng(seed)
    assert chunks == [rng2.bytes(n) for n in sizes]


# --- ECDH against the pure-integer oracle -----------------------------------

def test_dh_agree_matches_scalar_mult_oracle():
    rng = crypto.DeterministicRng(b"dh-oracle")
    a = crypto.dh_keygen(rng)
    b = crypto.dh_keygen(rng)
    ours = crypto.dh_agree(a.secret, b.public)
    bx = int.from_bytes(b.public[1:33], "big")
    by = int.from_bytes(b.public[33:65], "big")
    point = _ec_mul(int.from_bytes(a.secret, "big"), (bx, by))
    assert ours == point[0].to_bytes(32, "big")
    assert crypto.dh_agree(b.secret, a.public) == ours


def test_dh_public_point_is_on_curve():
    pair = crypto.dh_keygen(crypto.DeterministicRng(b"curve-check"))
    assert pair.public[0] == 0x04 and len(pair.public) == 65
    x = int.from_bytes(pair.public[1:33], "big")
    y = int.from_bytes(pair.public[33:65], "big")
    assert (y * y - (x * x * x + P256_A * x + P256_B)) % P256_P == 0
    # generator sanity for the embedded oracle itself
    gen = _ec_mul(1, (P256_GX, P256_GY))
    assert gen == (P256_GX, P256_GY)


def test_dh_keygen_deterministic():
    p1 = crypto.dh_keygen(crypto.DeterministicRng(b"k"))
    p2 = crypto.dh_keygen(crypto.DeterministicRng(b"k"))
    assert p1 == p2


# --- signatures ---------------------------------------------------------------

def test_sign_verify_roundtrip_and_determinism():
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"sig"))
    msg = b"attest this"
    sig = crypto.sign(pair, msg)
    assert crypto.verify(pair.public, msg, sig)
    assert crypto.sign(pair, msg) == sig  # deterministic nonces


def test_sig_pair_equality_and_repr_ignore_key_object():
    p1 = crypto.sig_keygen(crypto.DeterministicRng(b"sig"))
    p2 = crypto.sig_keygen(crypto.DeterministicRng(b"sig"))
    assert p1.key is not p2.key
    assert p1 == p2 and hash(p1) == hash(p2)
    assert repr(p1) == repr(p2)
    assert "key=" not in repr(p1)


def test_verify_rejects_mutation():
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"sig2"))
    msg = b"payload"
    sig = crypto.sign(pair, msg)
    assert not crypto.verify(pair.public, msg + b"x", sig)
    assert not crypto.verify(pair.public, msg, sig[:-1])
    other = crypto.sig_keygen(crypto.DeterministicRng(b"sig3"))
    assert not crypto.verify(other.public, msg, sig)
    assert not crypto.verify(pair.public, msg, b"")


@settings(max_examples=15, deadline=None)
@given(st.binary(min_size=0, max_size=128))
def test_sign_verify_property(msg):
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"sig-prop"))
    assert crypto.verify(pair.public, msg, crypto.sign(pair, msg))


# --- addresses ----------------------------------------------------------------

def test_address_is_digest_tail():
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"addr"))
    addr = crypto.address_of(pair.public)
    assert addr == hashlib.sha256(pair.public).digest()[-20:]
    assert len(addr) == crypto.ADDRESS_BYTES == 20
    with pytest.raises(ValueError):
        crypto.address_of(b"\x02" + pair.public[1:33])  # compressed form refused


# --- AEAD ---------------------------------------------------------------------

def test_aead_roundtrip_and_tamper():
    key = bytes(range(32))
    nonce = bytes(12)
    aad = b"context"
    ct = crypto.aead_seal(key, nonce, aad, b"secret model")
    assert crypto.aead_open(key, nonce, aad, ct) == b"secret model"
    flipped = bytearray(ct)
    flipped[3] ^= 1
    with pytest.raises(crypto.AuthFailure):
        crypto.aead_open(key, nonce, aad, bytes(flipped))
    with pytest.raises(crypto.AuthFailure):
        crypto.aead_open(key, nonce, b"other", ct)
    with pytest.raises(crypto.AuthFailure):
        crypto.aead_open(bytes(32), nonce, aad, ct)


@settings(max_examples=25, deadline=None)
@given(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=12, max_size=12),
    st.binary(min_size=0, max_size=32),
    st.binary(min_size=0, max_size=256),
)
def test_aead_property(key, nonce, aad, pt):
    ct = crypto.aead_seal(key, nonce, aad, pt)
    assert ct != pt or pt == b""
    assert crypto.aead_open(key, nonce, aad, ct) == pt


# --- hybrid KEM wrappers --------------------------------------------------------

def test_kem_wrapper_roundtrip():
    pair = crypto.kem_keygen(bytes(32))
    ct, ss = crypto.kem_encap(pair.public, bytes(32))
    assert crypto.kem_decap(pair.secret, ct) == ss
    assert len(pair.public) == crypto.KEM_PUBLIC_BYTES
    assert len(ct) == crypto.KEM_CIPHERTEXT_BYTES
    assert len(ss) == 32
