"""secp256k1 public points and deterministic ECDSA signatures from a fixed-base table.

Curve and generator: SEC 2 v2, section 2.4.1.  Nonces: RFC 6979 with
HMAC-SHA256.  Signatures are DER `SEQUENCE { INTEGER r, INTEGER s }` with
minimal integers and no low-s normalisation, byte for byte what OpenSSL's
deterministic ECDSA emits.  Verification is OpenSSL's: `verify_digest` checks
a signature against a SHA-256 digest the caller already made.  It is the one
check both `crypto.verify` and the verifier child make; `_serve` is that
child's loop, and this module imports nothing of pqbfl, so the child imports
only this module and `cryptography`.

k·G is a fixed-point multiplication (Hankerson, Menezes and Vanstone, *Guide
to Elliptic Curve Cryptography*, ch. 3).  Adding 0x80 to each of the 33
base-256 digits of k and subtracting it back recodes k as signed digits d_i
in [-128, 127], with d_32 in {0, 1}.  The table holds the affine points
m·2^(8i)·G for m = 1..128 and i < 32, plus 2^256·G, as one flat list of
coordinates.  So k·G is one mixed Jacobian+affine addition per nonzero digit,
negating y for a negative digit, with no doublings.  The additions need no
special cases: each new term's integer scalar exceeds the partial sum's in
absolute value, and their sum and difference both stay below n in absolute
value, so the sum is never the point at infinity or a doubling.  The table
is built on first use, once per process, with one batch (Montgomery)
inversion per row; it takes about 0.6 MB.

Nothing here is constant-time.  That is acceptable for a simulator whose keys
all derive from a seed, not for protecting real keys.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import signal
import sys

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed

P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_PREHASHED = ec.ECDSA(Prehashed(hashes.SHA256()))
READY = 2   # the verifier child's first byte; each answer after it is 0 or 1
_BIAS = int.from_bytes(b"\x80" * 33, "little")
_table: list[int] | None = None
_last: tuple = (None, b"")   # the last ((d, hash integer), signature) `sign` made


def _double(x, y, z):
    """2·(x, y, z) in Jacobian coordinates on y^2 = x^3 + 7."""
    a = x * x % P
    b = y * y % P
    c = b * b % P
    d = 2 * ((x + b) ** 2 - a - c) % P
    e = 3 * a
    x3 = (e * e - 2 * d) % P
    return x3, (e * (d - x3) - 8 * c) % P, 2 * y * z % P


def _add(x1, y1, z1, x2, y2):
    """(x1, y1, z1) + affine (x2, y2); the two must not be equal or opposite."""
    zz = z1 * z1 % P
    h = (x2 * zz - x1) % P
    r = (y2 * zz % P * z1 - y1) % P
    hh = h * h % P
    hhh = hh * h % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    return x3, (r * (v - x3) - y1 * hhh) % P, z1 * h % P


def _build() -> list[int]:
    table: list[int] = []
    bx, by = GX, GY
    for _ in range(32):
        points = [(bx, by, 1), _double(bx, by, 1)]
        for _ in range(126):
            points.append(_add(*points[-1], bx, by))
        points.append(_double(*points[-1]))          # 256·B, the next row's base
        prefix = [1]
        for _, _, z in points:
            prefix.append(prefix[-1] * z % P)
        inv = pow(prefix[-1], -1, P)
        affine = [None] * len(points)
        for i in range(len(points) - 1, -1, -1):
            x, y, z = points[i]
            zi = inv * prefix[i] % P
            inv = inv * z % P
            zi2 = zi * zi % P
            affine[i] = (x * zi2 % P, y * zi2 % P * zi % P)
        for x, y in affine[:128]:
            table += (x, y)
        bx, by = affine[128]
    table += (bx, by)                                # 2^256·G, for d_32 = 1
    return table


def _mul_g(k: int) -> tuple[int, int, int]:
    """k·G in Jacobian coordinates, for 0 < k < n."""
    global _table
    if _table is None:
        _table = _build()
    table = _table
    x = y = z = 0
    row = 0
    for b in (k + _BIAS).to_bytes(33, "little"):
        if b != 128:
            if b > 128:
                i = row + 2 * (b - 129)
                x2, y2 = table[i], table[i + 1]
            else:
                i = row + 2 * (127 - b)
                x2, y2 = table[i], P - table[i + 1]
            if z:
                x, y, z = _add(x, y, z, x2, y2)
            else:
                x, y, z = x2, y2, 1
        row += 256                               # 128 points of two coordinates
    return x, y, z


def public_point(k: int) -> bytes:
    """Uncompressed X9.62 encoding of k·G, for 0 < k < n."""
    x, y, z = _mul_g(k)
    zi = pow(z, -1, P)
    zi2 = zi * zi % P
    return b"\x04" + (x * zi2 % P).to_bytes(32, "big") + (y * zi2 % P * zi % P).to_bytes(32, "big")


def _nonces(d: int, h: int):
    """RFC 6979 section 3.2 candidates for private key d and hash integer h."""
    m = d.to_bytes(32, "big") + (h % N).to_bytes(32, "big")
    k = hmac.digest(bytes(32), b"\x01" * 32 + b"\x00" + m, "sha256")
    v = hmac.digest(k, b"\x01" * 32, "sha256")
    k = hmac.digest(k, v + b"\x01" + m, "sha256")
    v = hmac.digest(k, v, "sha256")
    while True:
        v = hmac.digest(k, v, "sha256")
        t = int.from_bytes(v, "big")
        if 0 < t < N:
            yield t
        k = hmac.digest(k, v + b"\x00", "sha256")
        v = hmac.digest(k, v, "sha256")


def _der_int(v: int) -> bytes:
    body = v.to_bytes((v.bit_length() + 8) // 8, "big")   # 0x00 pad iff the top bit is set
    return bytes([0x02, len(body)]) + body


def sign(d: int, message) -> bytes:
    """Deterministic ECDSA over SHA-256 of `message` with private key d,
    DER-encoded.  RFC 6979 makes the signature a function of (d, hash), so
    signing the last (key, hash) again returns the last signature: the server
    signs one identical announcement for every participant."""
    global _last
    e = int.from_bytes(hashlib.sha256(message).digest(), "big")
    key, signature = _last   # one read: threads may sign too
    if key == (d, e):
        return signature
    for k in _nonces(d, e):
        x, _, z = _mul_g(k)
        zi = pow(z, -1, P)
        r = x * zi * zi % P % N
        s = pow(k, -1, N) * (e + r * d) % N
        if r and s:
            body = _der_int(r) + _der_int(s)
            signature = bytes([0x30, len(body)]) + body
            _last = ((d, e), signature)
            return signature


def verify_digest(public, digest, signature) -> bool:
    """True iff `signature` is a valid DER ECDSA signature by the uncompressed
    point `public` over the 32-byte SHA-256 `digest`; malformed inputs count
    as invalid."""
    try:
        key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256K1(), public)
        key.verify(signature, digest, _PREHASHED)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def _serve() -> None:
    """The verifier child's loop (see `crypto.Verifier`).  It writes `READY`,
    then answers each request read from stdin with one byte on stdout, 1 if
    valid and 0 if not, in request order, until stdin ends.  A request is raw
    bytes: the key length and the signature length, one byte each, then the
    key, the 32-byte digest and the signature.  Interrupts are the parent's
    to handle: the child ends when the parent closes its pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests, answers = sys.stdin.buffer, sys.stdout.fileno()
    os.write(answers, bytes([READY]))
    while len(head := requests.read(2)) == 2:
        n_key, n_sig = head
        body = requests.read(n_key + 32 + n_sig)
        if len(body) != n_key + 32 + n_sig:
            return
        valid = verify_digest(body[:n_key], body[n_key : n_key + 32], body[n_key + 32 :])
        os.write(answers, b"\x01" if valid else b"\x00")
