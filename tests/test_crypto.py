"""Toolkit primitives against hand-rolled references and NIST constants."""

import hashlib
import hmac
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings, strategies as st

from conftest import ready_verifier
from pqbfl import crypto, mlkem, secp256k1

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
    ours = crypto.dh_agree(a, b.public)
    bx = int.from_bytes(b.public[1:33], "big")
    by = int.from_bytes(b.public[33:65], "big")
    point = _ec_mul(int.from_bytes(a.secret, "big"), (bx, by))
    assert ours == point[0].to_bytes(32, "big")
    assert crypto.dh_agree(b, a.public) == ours


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
    keygens = (
        lambda: crypto.sig_keygen(crypto.DeterministicRng(b"sig")),
        lambda: crypto.dh_keygen(crypto.DeterministicRng(b"sig")),
        lambda: crypto.kem_keygen(b"\x5a" * 32),
    )
    for keygen in keygens:
        p1, p2 = keygen(), keygen()
        if hasattr(p1, "key"):   # ECDH and KEM pairs carry a library key object
            assert p1.key is not p2.key
        assert p1 == p2 and hash(p1) == hash(p2)
        assert repr(p1) == repr(p2)
        assert "key=" not in repr(p1) and "secret" not in repr(p1)
        for text in (p1.secret.hex(), str(p1.secret)[2:-1], str(int.from_bytes(p1.secret, "big"))):
            assert text not in repr(p1) and text not in str(p1)


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


# --- secp256k1 signer against OpenSSL ------------------------------------------

K1_N = ec.SECP256K1().group_order
K1_P = 2**256 - 2**32 - 977
K1_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
K1_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


class _FixedScalar:
    """Stands in for DeterministicRng: every draw is the one chosen scalar."""

    def __init__(self, k):
        self._k = k.to_bytes(32, "big")

    def bytes(self, n):
        return self._k


def _openssl_pair(k):
    key = ec.derive_private_key(k, ec.SECP256K1())
    return key, key.public_key().public_bytes(Encoding.X962, PublicFormat.UncompressedPoint)


def _openssl_sign(key, msg):
    return key.sign(msg, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))


def _assert_matches_openssl(k, messages):
    pair = crypto.sig_keygen(_FixedScalar(k))
    key, public = _openssl_pair(k)
    assert pair.secret == k.to_bytes(32, "big")
    assert pair.public == public
    for msg in messages:
        assert crypto.sign(pair, msg) == _openssl_sign(key, msg)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=K1_N - 1), st.binary(min_size=0, max_size=96))
def test_secp256k1_matches_openssl_deterministic_ecdsa(k, msg):
    _assert_matches_openssl(k, [msg])


@pytest.mark.parametrize("k", [
    1, 2, 0x80, 0xFF, 0x0102, K1_N - 1, K1_N - 2,
    1 << 248, 0xAB << 248,                            # zero low bytes
    (K1_N - 1) >> 64 << 64,
    int.from_bytes(b"\x80" * 32, "big"),               # every signed digit -128
    int.from_bytes(b"\x7f" * 32, "big"),               # every signed digit +127
    int.from_bytes(b"\xff" * 31, "big"),               # carries through every byte
    2**256 - int.from_bytes(b"\x80" * 32, "big") - 1,  # the largest with no 33rd digit
    2**256 - int.from_bytes(b"\x80" * 32, "big"),      # the smallest with one
])
def test_secp256k1_edge_scalars_match_openssl(k):
    # 24 messages give r and s both with and without the DER 0x00 pad
    messages = [b"edge %d" % i for i in range(24)]
    _assert_matches_openssl(k, messages)
    pair = crypto.sig_keygen(_FixedScalar(k))
    lengths = {len(crypto.sign(pair, m)) for m in messages}
    assert min(lengths) <= 70 and max(lengths) == 72


def test_secp256k1_generator_from_sec2():
    g = crypto.sig_keygen(_FixedScalar(1)).public
    assert g == b"\x04" + K1_GX.to_bytes(32, "big") + K1_GY.to_bytes(32, "big")
    minus_g = crypto.sig_keygen(_FixedScalar(K1_N - 1)).public
    assert minus_g == b"\x04" + K1_GX.to_bytes(32, "big") + (K1_P - K1_GY).to_bytes(32, "big")


_K1_VECTOR_KEY = 0x3375B93FFF75AA8B26DEA56877A9C430013D7780B9D9E1E040523F2F2031AA37
# (scalar, message, DER) from OpenSSL's deterministic ECDSA
K1_VECTORS = [
    (1, b"", "3044022077c8d336572f6f466055b5f70f433851f8f535f6c4fc71133a6cfd71079d03b7"
             "02200ed9f5eb8aa5b266abac35d416c3207e7a538bf5f37649727d7a9823b1069577"),
    (K1_N - 1, b"abc",
     "304502204a8f571b7915171905f88275618335cea401a8ace744d71789c9361901afd13e"
     "022100ac567b80f1ae573d13ad3edf24d8b89c34f3ea6b81b0ff4064b1473d626d027c"),
    (_K1_VECTOR_KEY, b"vector 7",       # r and s both padded
     "3046022100c28fa4222ffb66ed2299653cda5c6e0036de7b14734b6b7177c0442e7518d3b3"
     "0221009363a492f4c34f51b59e5cc92803dfaaf33318687bc51bb1239272cb572ef7aa"),
    (_K1_VECTOR_KEY, b"vector 30",      # a 31-byte r
     "3043021f7fd94acc5d5f27c39b854000806dc99b3c8dd8b4771eec63b9718f54698c94"
     "0220153b053bfa0b0937a924e9b68f06bb6fd7c842a8a14a79301d02b1744498d075"),
    (_K1_VECTOR_KEY, b"vector 393",     # a padded r and a 31-byte s
     "3044022100c5dd982f5384c5d59d506a822ceba727444afbedfa7a833de5bef35c22719556"
     "021f2e6dad55f470be9c095b08bbdd0048fcc418bdf881afd4239a9c6c8868d543"),
]


@pytest.mark.parametrize("k,msg,der", K1_VECTORS)
def test_secp256k1_frozen_vectors(k, msg, der):
    pair = crypto.sig_keygen(_FixedScalar(k))
    assert crypto.sign(pair, msg).hex() == der
    assert crypto.verify(pair.public, msg, bytes.fromhex(der))


def test_signing_the_last_key_and_message_again_reuses_its_signature(monkeypatch):
    nonces, made = secp256k1._nonces, []

    def counting(d, h):
        made.append(h)
        return nonces(d, h)

    monkeypatch.setattr(secp256k1, "_nonces", counting)
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"memo"))
    other = crypto.sig_keygen(crypto.DeterministicRng(b"memo-other"))
    first = crypto.sign(pair, b"announcement")
    assert crypto.sign(pair, bytearray(b"announcement")) == first and len(made) == 1
    assert crypto.sign(other, b"announcement") != first and len(made) == 2
    assert crypto.sign(pair, b"announcement") == first and len(made) == 3
    assert crypto.sign(pair, b"another") != first and len(made) == 4
    assert crypto.verify(pair.public, b"announcement", first)


def test_secp256k1_keys_are_never_built_in_openssl(monkeypatch):
    curves = []
    real = crypto.ec.derive_private_key

    def counting(value, curve, *rest):
        curves.append(curve.name)
        return real(value, curve, *rest)

    monkeypatch.setattr(crypto.ec, "derive_private_key", counting)
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"no-openssl-key"))
    assert crypto.verify(pair.public, b"m", crypto.sign(pair, b"m"))
    crypto.dh_keygen(crypto.DeterministicRng(b"p256"))
    assert curves == ["secp256r1"]


def test_importing_the_package_does_not_build_the_table():
    code = (
        "import pqbfl.cli, pqbfl.harness, pqbfl.protocol\n"
        "from pqbfl import secp256k1\n"
        "assert secp256k1._table is None\n"
        "secp256k1.public_point(1)\n"
        "assert len(secp256k1._table) == 2 * (32 * 128 + 1)\n"
    )
    src = str(Path(crypto.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_importing_starts_no_process_and_one_participant_never_starts_the_child():
    code = (
        "import os, subprocess\n"
        "popen = subprocess.Popen\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('started a process')\n"
        "subprocess.Popen = os.fork = os.posix_spawn = refuse\n"
        "import pqbfl.__main__, pqbfl.cli, pqbfl.harness, pqbfl.protocol\n"
        "from pqbfl import crypto, harness\n"
        "harness.run_simulation(harness.SimConfig(participants=1, rounds=3, ratchet_range=2))\n"
        "assert crypto.verifier._proc is None\n"
        "subprocess.Popen = popen\n"
        "crypto._usable_cpus = lambda: 2\n"
        "harness.run_simulation(harness.SimConfig(participants=2, rounds=1))\n"
        "assert crypto.verifier.is_alive()\n"
    )
    src = str(Path(crypto.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


# --- the verifier child --------------------------------------------------------

def _check_table():
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"signer"))
    other = crypto.sig_keygen(crypto.DeterministicRng(b"other"))
    msg = b"an envelope's signed prefix"
    sig = crypto.sign(pair, msg)
    x, y = pair.public[1:33], int.from_bytes(pair.public[33:], "big")
    return {   # name: (key, message, signature, valid)
        "valid": (pair.public, msg, sig, True),
        "flipped digest": (pair.public, msg[:-1] + bytes([msg[-1] ^ 1]), sig, False),
        "truncated DER": (pair.public, msg, sig[:-1], False),
        "trailing bytes after DER": (pair.public, msg, sig + b"\x00", False),
        "64-byte key": (pair.public[1:], msg, sig, False),
        "off-curve point": (b"\x04" + x + (y + 1).to_bytes(32, "big"), msg, sig, False),
        "the other party's key": (other.public, msg, sig, False),
    }


def test_the_child_and_the_in_process_check_agree(monkeypatch):
    table = _check_table()
    with ready_verifier(monkeypatch) as verifier:
        with verifier.exchange(len(table), wide=False):
            handles = {name: verifier.submit(key, msg, sig)
                       for name, (key, msg, sig, _) in table.items()}
            time.sleep(0.2)   # let every answer arrive before the first result
            for name, (key, msg, sig, valid) in table.items():
                digest = hashlib.sha256(msg).digest()
                assert secp256k1.verify_digest(key, digest, sig) is valid, name
                # a handle keeps its answer, however often it is asked
                assert handles[name].result() is valid, name
                assert handles[name].result() is valid, name
                assert crypto.verify(key, msg, sig, handles[name]) is valid, name
            # a key or signature longer than a request's length byte is not
            # handed over: it is checked here
            key, msg, sig, _ = table["valid"]
            assert verifier.submit(key + bytes(191), msg, sig) is None
            assert verifier.submit(key, msg, sig + bytes(256 - len(sig))) is None
    assert not verifier.is_alive()


class _CountingPipe:
    """Stands in for the child's stdin, counting the requests written."""

    def __init__(self, pipe):
        self.pipe, self.requests = pipe, 0

    def write(self, data):
        self.requests += 1
        return self.pipe.write(data)

    def __getattr__(self, name):
        return getattr(self.pipe, name)


def test_the_child_checks_each_distinct_check_once_and_answers_every_copy(monkeypatch):
    table = _check_table()
    with ready_verifier(monkeypatch) as verifier:
        verifier._proc.stdin = pipe = _CountingPipe(verifier._proc.stdin)
        copies = [table["valid"]] * 3 + [table["truncated DER"]] * 2
        with verifier.exchange(len(copies), wide=False):
            handles = [verifier.submit(key, msg, sig) for key, msg, sig, _ in copies]
            assert pipe.requests == 2 and len(set(map(id, handles))) == 2
            assert [handle.result() for handle in handles] == [True] * 3 + [False] * 2
        # a later exchange asks the same check again
        with verifier.exchange(2, wide=False):
            verifier.submit(*table["valid"][:3])
            assert pipe.requests == 3
        verifier._proc.stdin = pipe.pipe
    assert not verifier.is_alive()


def _wide_message(n=1 << 20):
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"wide"))
    message = bytearray(os.urandom(n))
    return pair, message, crypto.sign(pair, message)


def test_the_helper_answers_only_the_very_buffer_submitted(monkeypatch):
    monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
    pair, message, sig = _wide_message()
    with crypto.Verifier() as verifier:
        with verifier.exchange(2, wide=True):
            assert verifier.helping
            prefix = verifier.submit(pair.public, memoryview(message)[:-1], sig)
            whole = verifier.submit(pair.public, message, sig)
            # each handle answers its own check, however often it is asked
            assert prefix.result() is False and prefix.result() is False
            assert whole.result() is True
            assert crypto.verify(pair.public, message, sig, whole)
            assert not crypto.verify(pair.public, memoryview(message)[:-1], sig, prefix)
            # a check the helper has not started by the end of the exchange
            # is cancelled: its handle has no answer, and it is checked here
            held = threading.Event()
            verifier.run(held.wait)
            cancelled = verifier.submit(pair.public, message, sig)
        held.set()
        assert cancelled.result() is None
        assert crypto.verify(pair.public, message, sig, cancelled)
        assert verifier.submit(pair.public, message, sig) is None   # no exchange open
        assert verifier.run(lambda: 7).result() == 7   # outside an exchange: run here
    assert not verifier._helper.is_alive()   # joined at close


def test_threads_sharing_the_helper_each_get_their_own_verdicts(monkeypatch):
    # distinct buffers, alternately valid and invalid, answered while other
    # threads submit; a short switch interval makes threads interleave often
    monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"signer"))
    other = crypto.sig_keygen(crypto.DeterministicRng(b"other"))
    per_thread = []
    for t in range(4):
        checks = []
        for j in range(40):
            message = bytearray(bytes([t, j]) * 2048)
            checks.append((pair.public if j % 2 else other.public, message,
                           crypto.sign(pair, message)))
        per_thread.append(checks)
    wrong, answered = [], []

    def work(checks):
        handles = [verifier.submit(*check) for check in checks]
        for (key, message, _), handle in zip(checks, handles):
            answer = handle.result()
            answered.append(answer is not None)
            if answer != (key == pair.public):
                wrong.append((key, bytes(message[:2])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with crypto.Verifier() as verifier, verifier.exchange(4, wide=True):
            workers = [threading.Thread(target=work, args=(c,)) for c in per_thread]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert not verifier._helper.is_alive()
    assert not wrong and answered == [True] * 4 * 40


@pytest.mark.parametrize("child,ready", [
    ("import time; time.sleep(60)", False),   # never ready: nothing is submitted
    # ready, then silent past the bound: killed
    ("import os, time; os.write(1, bytes([2])); time.sleep(60)", True),
])
def test_a_silent_child_leaves_its_checks_in_process(child, ready, monkeypatch):
    monkeypatch.setattr(crypto, "_CHILD", child)
    monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
    key, msg, sig, _ = _check_table()["valid"]
    monkeypatch.setattr(crypto.Verifier, "TIMEOUT", 0.5)
    with crypto.Verifier() as verifier:
        with verifier.exchange(2, wide=False):
            if ready:   # however slowly the stub starts
                assert verifier._receive(30) and verifier._ready
            check = verifier.submit(key, msg, sig)
            assert (check is not None) is ready
            start = time.perf_counter()
            assert crypto.verify(key, msg, sig, check)
            assert time.perf_counter() - start < verifier.TIMEOUT + 2
            assert verifier.is_alive() is not ready
            if ready:   # killed: the pending handle has no answer
                assert check.result() is None
            assert verifier.submit(key, msg, sig) is None
    assert not verifier.is_alive()
    assert crypto.verify(key, msg, sig)


def test_a_wave_larger_than_both_pipes_completes(monkeypatch):
    # a key that is no point makes each check cheap; 20,000 requests of about
    # 170 bytes are 50 times a 64 KiB pipe
    checks = [(b"\x04" + bytes(64), i.to_bytes(4, "big"), b"\x30\x00") for i in range(20000)]
    answers = []
    with ready_verifier(monkeypatch) as verifier:
        def wave():
            with verifier.exchange(len(checks), wide=False):
                handles = [verifier.submit(*check) for check in checks]
                answers.extend(handle.result() for handle in handles)
        worker = threading.Thread(target=wave)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert answers == [False] * len(checks)
    assert not verifier.is_alive()


def test_threads_sharing_a_verifier_each_get_their_own_answers(monkeypatch):
    # alternate valid and invalid checks, so an answer handed to the wrong
    # check shows; a short switch interval makes threads interleave often
    pair = crypto.sig_keygen(crypto.DeterministicRng(b"signer"))
    other = crypto.sig_keygen(crypto.DeterministicRng(b"other"))
    per_thread = [[] for _ in range(4)]
    for t, checks in enumerate(per_thread):
        for j in range(60):
            msg = bytes([t, j])
            checks.append((pair.public if j % 2 else other.public, msg, crypto.sign(pair, msg)))
    wrong, answered = [], []

    def work(checks):
        handles = [verifier.submit(*check) for check in checks]
        for (key, msg, _), handle in zip(checks, handles):
            answer = None if handle is None else handle.result()
            answered.append(answer is not None)
            if answer is not None and answer != (key == pair.public):
                wrong.append((key, msg))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ready_verifier(monkeypatch) as verifier, verifier.exchange(2, wide=False):
            workers = [threading.Thread(target=work, args=(c,)) for c in per_thread]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert not verifier.is_alive()
    assert not wrong and len(answered) == 4 * 60 and any(answered)


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


def test_aead_open_refuses_a_ciphertext_shorter_than_its_tag():
    key, nonce = bytes(range(32)), bytes(12)
    for n in range(crypto.TAG_BYTES):
        with pytest.raises(crypto.AuthFailure):
            crypto.aead_open(key, nonce, b"", bytes(n))
    assert crypto.aead_open(key, nonce, b"", crypto.aead_seal(key, nonce, b"", b"")) == b""


def test_aead_seals_into_a_view_of_a_larger_buffer():
    key, nonce, aad, pt = bytes(range(32)), bytes(12), b"ctx", b"model bytes"
    wire = bytearray(b"<" * 3 + bytes(len(pt) + crypto.TAG_BYTES) + b">" * 2)
    crypto.aead_seal(key, nonce, aad, pt, memoryview(wire)[3:-2])
    assert wire == b"<<<" + crypto.aead_seal(key, nonce, aad, pt) + b">>"
    opened = crypto.aead_open(key, nonce, aad, memoryview(wire)[3:-2])
    assert isinstance(opened, bytearray) and opened == pt


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
    assert crypto.kem_decap(pair, ct) == ss
    assert pair.key.private_bytes_raw() == pair.secret
    assert len(pair.public) == crypto.KEM_PUBLIC_BYTES
    assert len(ct) == crypto.KEM_CIPHERTEXT_BYTES
    assert len(ss) == 32


def test_kem_decap_uses_the_key_built_at_keygen(monkeypatch):
    pair = crypto.kem_keygen(b"\x17" * 32)
    ct, ss = crypto.kem_encap(pair.public, bytes(32))

    class NoBuild:
        @staticmethod
        def from_seed_bytes(seed):
            raise AssertionError("decapsulation rebuilt the key from its seed")

    monkeypatch.setattr(mlkem, "MLKEM768PrivateKey", NoBuild)
    assert crypto.kem_decap(pair, ct) == ss


def test_received_key_checks():
    pair = crypto.kem_keygen(bytes(32))
    crypto.kem_check(pair.public)
    unreduced = bytes([0x01, 0x0D]) + pair.public[2:]   # coefficient 0 is q
    for bad in (pair.public[:-1], unreduced):
        with pytest.raises(ValueError):
            crypto.kem_check(bad)
    dh = crypto.dh_keygen(crypto.DeterministicRng(b"check"))
    crypto.dh_check(dh.public)
    with pytest.raises(ValueError):
        crypto.dh_check(b"\x04" + bytes(64))
