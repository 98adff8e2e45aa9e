"""Uniform crypto toolkit: hybrid KEM + ECDH, signatures, KDF, AEAD, hashing.

Every operation that needs randomness takes it explicitly (a seed, coins, or a
DeterministicRng), so complete protocol runs replay bit-for-bit from a single
root seed.  Hashing, HKDF, AES-GCM, P-256 ECDH and signature verification are
OpenSSL-backed; an ECDH pair carries its OpenSSL key object, built once at
keygen, so key agreement does not rebuild it.  The lattice KEM lives in
`mlkem`: keygen and decapsulation are library-backed, and encapsulation is
pure numpy because it must accept injected coins.  A KEM pair likewise carries
the library decapsulation key that keygen built, so decapsulation does not
rebuild it from its seed.  No key pair's repr shows its secret.  secp256k1 key
derivation and signing are pure Python (`secp256k1`, a fixed-base table),
because OpenSSL has no fast path for that curve; they are not constant-time,
which is acceptable here because every key is derived from a seed.  Hashing,
sealing, opening and verification take any bytes-like input, so callers can
pass views of larger buffers.

A peer's public keys can be checked before anything uses them: `kem_check`
runs the ML-KEM length and modulus checks and `dh_check` decodes the P-256
point, each raising ValueError.

Roles of the two hash functions are fixed: SHA-256 for 32-byte commitments,
addresses and nonces; SHA-384 inside HKDF for key derivation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

from . import mlkem, secp256k1

KEM_PUBLIC_BYTES = mlkem.EK_BYTES
KEM_SECRET_BYTES = mlkem.DK_BYTES
KEM_CIPHERTEXT_BYTES = mlkem.CT_BYTES
SHARED_SECRET_BYTES = mlkem.SS_BYTES
DH_PUBLIC_BYTES = 65   # X9.62 uncompressed point
SIG_PUBLIC_BYTES = 65
ADDRESS_BYTES = 20
DIGEST_BYTES = 32
KEY_BYTES = 32
NONCE_BYTES = 12


class AuthFailure(Exception):
    """Authenticated decryption or message authentication failed."""


class DeterministicRng:
    """Deterministic byte stream over SHAKE-256 of (seed, counter).

    fork(label) yields an independent stream, so each simulated party can own
    its own generator while the whole run replays from one root seed.
    """

    def __init__(self, seed: bytes | int):
        if isinstance(seed, int):
            if seed < 0:
                raise ValueError("seed must be non-negative")
            seed = seed.to_bytes(max(8, (seed.bit_length() + 7) // 8), "big")
        self._seed = bytes(seed)
        self._counter = 0

    def bytes(self, n: int) -> bytes:
        block = self._seed + b"\x00" + self._counter.to_bytes(8, "big")
        self._counter += 1
        return hashlib.shake_256(block).digest(n)

    def fork(self, label: str | bytes) -> "DeterministicRng":
        if isinstance(label, str):
            label = label.encode()
        child = hashlib.shake_256(self._seed + b"\x01" + label).digest(32)
        return DeterministicRng(child)


@dataclass(frozen=True)
class KemKeyPair:
    public: bytes
    secret: bytes = field(repr=False)   # 64-byte d||z seed
    key: mlkem.MLKEM768PrivateKey = field(compare=False, repr=False)


@dataclass(frozen=True)
class DhKeyPair:
    public: bytes   # uncompressed point
    secret: bytes = field(repr=False)   # 32-byte big-endian scalar
    key: ec.EllipticCurvePrivateKey = field(compare=False, repr=False)


@dataclass(frozen=True)
class SigKeyPair:
    public: bytes   # uncompressed point
    secret: bytes = field(repr=False)   # 32-byte big-endian scalar


def digest(data: bytes) -> bytes:
    """32-byte commitment hash (SHA-256)."""
    return hashlib.sha256(data).digest()


def hkdf(salt: bytes, ikm: bytes, label: bytes, length: int) -> bytes:
    """HKDF-SHA384 with the label as the info string."""
    return HKDF(
        algorithm=hashes.SHA384(), length=length, salt=salt, info=label
    ).derive(ikm)


def kem_keygen(seed: bytes) -> KemKeyPair:
    """Deterministic lattice KEM pair from a 32-byte seed (SHAKE-256 expanded)."""
    if len(seed) != 32:
        raise ValueError("kem seed must be 32 bytes")
    d_z = hashlib.shake_256(seed).digest(mlkem.SEED_BYTES)
    ek, key = mlkem.keygen(d_z)
    return KemKeyPair(public=ek, secret=d_z, key=key)


def kem_check(public: bytes) -> None:
    """Raise ValueError unless `public` is an encapsulation key of the right
    length that passes the FIPS 203 modulus check.  The parse is cached, so
    an encapsulation to the same key reuses it."""
    mlkem.check_ek(public)


def kem_encap(public: bytes, coins: bytes) -> tuple[bytes, bytes]:
    """Encapsulate to a KEM public key; returns (ciphertext, shared_secret)."""
    ss, ct = mlkem.encaps(public, coins)
    return ct, ss


def kem_decap(pair: KemKeyPair, ciphertext: bytes) -> bytes:
    return mlkem.decaps(pair.key, ciphertext)


def _scalar(rng: DeterministicRng, order: int) -> int:
    while True:
        x = int.from_bytes(rng.bytes(32), "big")
        if 1 <= x < order:
            return x


def _point(public: bytes, curve: ec.EllipticCurve) -> ec.EllipticCurvePublicKey:
    return ec.EllipticCurvePublicKey.from_encoded_point(curve, public)


def dh_keygen(rng: DeterministicRng) -> DhKeyPair:
    """Ephemeral P-256 pair from the injected generator."""
    order = ec.SECP256R1().group_order
    k = _scalar(rng, order)
    priv = ec.derive_private_key(k, ec.SECP256R1())
    pub = priv.public_key().public_bytes(Encoding.X962, PublicFormat.UncompressedPoint)
    return DhKeyPair(public=pub, secret=k.to_bytes(32, "big"), key=priv)


def dh_check(public: bytes) -> None:
    """Raise ValueError unless `public` encodes a point on P-256."""
    _point(public, ec.SECP256R1())


def dh_agree(pair: DhKeyPair, peer_public: bytes) -> bytes:
    """ECDH shared secret: 32-byte x-coordinate."""
    return pair.key.exchange(ec.ECDH(), _point(peer_public, ec.SECP256R1()))


def sig_keygen(rng: DeterministicRng) -> SigKeyPair:
    """secp256k1 signing pair from the injected generator."""
    k = _scalar(rng, secp256k1.N)
    return SigKeyPair(public=secp256k1.public_point(k), secret=k.to_bytes(32, "big"))


def sign(pair: SigKeyPair, message: bytes) -> bytes:
    """Deterministic ECDSA over SHA-256 (RFC 6979), DER-encoded as OpenSSL does."""
    return secp256k1.sign(int.from_bytes(pair.secret, "big"), message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature is valid; malformed inputs count as invalid."""
    try:
        key = _point(public, ec.SECP256K1())
        key.verify(signature, message, ec.ECDSA(hashes.SHA256()))
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def address_of(sig_public: bytes) -> bytes:
    """20-byte account address: trailing bytes of the hashed public point."""
    if len(sig_public) != SIG_PUBLIC_BYTES or sig_public[0] != 0x04:
        raise ValueError("expected a 65-byte uncompressed public key")
    return digest(sig_public)[-ADDRESS_BYTES:]


def aead_seal(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    if len(key) != KEY_BYTES:
        raise ValueError("AEAD key must be 32 bytes")
    if len(nonce) != NONCE_BYTES:
        raise ValueError("AEAD nonce must be 12 bytes")
    return AESGCM(key).encrypt(nonce, plaintext, aad)


def aead_open(key: bytes, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
    """Decrypt and authenticate; raises AuthFailure on any mismatch."""
    try:
        return AESGCM(key).decrypt(nonce, ciphertext, aad)
    except InvalidTag as exc:
        raise AuthFailure("ciphertext failed authentication") from exc


__all__ = [
    "AuthFailure",
    "DeterministicRng",
    "KemKeyPair",
    "DhKeyPair",
    "SigKeyPair",
    "digest",
    "hkdf",
    "kem_keygen",
    "kem_check",
    "kem_encap",
    "kem_decap",
    "dh_keygen",
    "dh_check",
    "dh_agree",
    "sig_keygen",
    "sign",
    "verify",
    "address_of",
    "aead_seal",
    "aead_open",
    "KEM_PUBLIC_BYTES",
    "KEM_CIPHERTEXT_BYTES",
    "DH_PUBLIC_BYTES",
    "SIG_PUBLIC_BYTES",
    "ADDRESS_BYTES",
    "DIGEST_BYTES",
    "KEY_BYTES",
    "NONCE_BYTES",
]
