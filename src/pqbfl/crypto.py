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
pass views of larger buffers; sealing can write into a view of a larger
buffer, and opening returns a writable buffer the caller may reuse in place.

A peer's public keys can be checked before anything uses them: `kem_check`
runs the ML-KEM length and modulus checks and `dh_check` decodes the P-256
point, each raising ValueError.

A signature check may already have been made on a second core when `verify`
is called (see `Verifier`): `verify` returns the answer of the handle it is
given, or checks in-process if it has none.  Both check with
`secp256k1.verify_digest`, so the answer is the same either way.

Roles of the two hash functions are fixed: SHA-256 for 32-byte commitments,
addresses, nonces and signed messages; SHA-384 inside HKDF for key
derivation.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import hashlib
import os
import queue
import select
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
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
TAG_BYTES = 16


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


def verify(public: bytes, message: bytes, signature: bytes, check=None) -> bool:
    """True iff the signature over SHA-256 of `message` is valid; malformed
    inputs count as invalid.  `check` is the handle `Verifier.submit` gave
    for this very check, if any: its answer is returned, or, if it has none,
    the check runs here."""
    answer = None if check is None else check.result()
    return _check(public, message, signature) if answer is None else answer


# the verifier child: a fresh interpreter that imports only `secp256k1` (and
# through it `cryptography`) from the source tree named by its argument
_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from pqbfl.secp256k1 import _serve; _serve()"
_SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


# glibc's mallopt parameters, and the values wide exchanges set: the largest
# mmap threshold glibc takes on 64-bit, and a trim threshold above it
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 256 * 2**20


@functools.cache
def _keep_freed_buffers() -> None:
    """Once per process: have the C allocator keep freed model-sized buffers
    mapped for reuse, not return them to the kernel, so that each wide round
    does not fault in fresh pages.  Setting either threshold turns off glibc's
    dynamic thresholds, so both are set: with the trim threshold alone, each
    buffer above the default mmap threshold would still be mapped afresh.
    Does nothing where there is no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):   # no mallopt, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _check(public: bytes, message, signature: bytes) -> bool:
    """One signature check, hashing included, as the helper thread and
    `verify` make it."""
    return secp256k1.verify_digest(public, hashlib.sha256(message).digest(), signature)


class _Job:
    """One call for the helper thread; `result()` waits for it.  A job
    cancelled before it starts is skipped, and its result is None."""

    __slots__ = ("_call", "_done", "_value", "_error")

    def __init__(self, call):
        self._call, self._value, self._error = call, None, None
        self._done = threading.Lock()
        self._done.acquire()   # released once the job has run or been skipped

    def run(self) -> "_Job":
        call, self._call = self._call, None
        try:
            if call is not None:
                self._value = call()
        except Exception as exc:
            self._error = exc
        finally:
            self._done.release()
        return self

    def cancel(self) -> None:
        self._call = None

    def result(self):
        with self._done:
            pass
        if self._error is not None:
            raise self._error
        return self._value


def _serve_jobs(jobs: queue.SimpleQueue) -> None:
    """The helper thread's loop: run each job in turn until None."""
    while (job := jobs.get()) is not None:
        job.run()


class _Answer:
    """The child's answer to one check, set as answers arrive; `result()`
    waits for it, and is None if the child is abandoned first."""

    __slots__ = ("_verifier", "value")

    def __init__(self, verifier: "Verifier"):
        self._verifier, self.value = verifier, None

    def result(self) -> bool | None:
        verifier = self._verifier
        with verifier._lock:
            while self.value is None and not verifier._gone:
                if not verifier._receive(verifier.TIMEOUT):
                    verifier._abandon()
        return self.value


class Verifier:
    """Signature checks made ahead of their handlers, on a second core.

    `exchange(size, wide)` opens one exchange of `size` envelopes.  Inside
    an exchange of two or more, `submit` hands each check to the helper
    thread if the envelopes are wide, and to the child process otherwise,
    and returns its handle: `result()` waits for the answer and returns it,
    or None, and then the check runs in-process.  A check neither takes gets
    no handle.

    Small envelopes go to one child process.  It starts on the first small
    exchange of two or more, and only where a second CPU is usable; until it
    has said it is ready, checks stay in-process.  `submit` sends the child
    a check as raw bytes (the key, the SHA-256 of the signed message and the
    signature), and the child answers each with one byte, in order.
    Byte-identical checks of one exchange share one request and one handle:
    the server sends every participant the same announcement.

    At most `MAX_PENDING` checks are in flight: a request is at most
    2 + 255 + 32 + 255 bytes, so they fit one 64 KiB pipe and their answers
    another, and neither side can block on a full pipe.  A child that closes
    its pipe, sends a byte that is no answer, or stays silent for `TIMEOUT`
    seconds is killed; every pending handle then answers None, and later
    small checks run in-process.  Only the child ends: the helper goes on.

    Wide envelopes go to one helper thread instead: hashing a wide message
    dominates its check, and SHA-256 releases the GIL, so a thread overlaps
    it with this one.  Inside a wide exchange, `submit` hands the helper
    each check, which it hashes and checks with the same
    `secp256k1.verify_digest`, and the handle is its job; `digest` hands it
    a SHA-256 (an update's commitment), and `run` any other job (the harness
    draws training noise there).  Each job starts as soon as it is queued.
    Checks the helper has not started by the end of the exchange are
    cancelled, and their handles answer None.  The helper starts on the
    first wide exchange of two or more, only where a second CPU is usable,
    and is joined at exit.  Where it starts, freed buffers are kept mapped
    from then on (see `exchange`).

    `close`, also run at exit, closes the child's pipes, waits for the child
    and joins the helper.  Threads may share a verifier: one lock keeps each
    request and its place in the answer order together."""

    MAX_PENDING = 64
    TIMEOUT = 5.0   # a check takes under a millisecond

    def __init__(self):
        self._proc: subprocess.Popen | None = None
        self._closed = False    # `close` has run: neither the child nor the helper starts again
        self._gone = False      # the child is closed or abandoned: small checks stay here
        self._ready = False     # the child has sent secp256k1.READY
        self.accepting = False  # `submit` has somewhere to send a check
        self._sent: deque = deque()   # the child's handles awaiting answers, oldest first
        self._shared: dict[bytes, _Answer] = {}   # this exchange's child requests and handles
        self._helper: threading.Thread | None = None   # started on the first wide exchange
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.helping = False    # a wide exchange is open and the helper is usable
        self._checks: list[_Job] = []   # this exchange's helper checks
        self._lock = threading.RLock()

    def __enter__(self) -> "Verifier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def is_alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    @contextlib.contextmanager
    def exchange(self, size: int, wide: bool):
        """One exchange of `size` envelopes, `wide` or not.  Where the helper
        starts, the C allocator is also told, once per process, to keep freed
        buffers mapped (`_keep_freed_buffers`): a wide exchange frees and
        allocates model-sized buffers all the time, and otherwise faults in
        fresh pages for each."""
        with self._lock:
            self.helping = size > 1 and wide and not self._closed and _usable_cpus() > 1
            if self.helping and self._helper is None:
                _keep_freed_buffers()
                self._helper = threading.Thread(
                    target=_serve_jobs, args=(self._jobs,), name="pqbfl-helper", daemon=True)
                self._helper.start()
                atexit.register(self.close)
            self.accepting = self.helping or (size > 1 and not wide and self._start())
        try:
            yield
        finally:
            with self._lock:
                self.accepting = self.helping = False
                for job in self._checks:
                    job.cancel()
                self._checks.clear()
                self._shared.clear()

    def run(self, call) -> _Job:
        """`call()` on the helper thread inside a wide exchange, or here
        otherwise; the job's `result()` waits for it and returns its value.
        A queued job starts at once: this thread releases the GIL once after
        queuing it, so the helper need not wait for this thread's next GIL
        release (AES-GCM, for one, holds the GIL throughout)."""
        job = _Job(call)
        with self._lock:
            queued = self.helping
            if queued:
                self._jobs.put(job)
        if not queued:
            return job.run()
        time.sleep(0)   # releases the GIL: the helper takes the job now
        return job

    def digest(self, data) -> _Job:
        """The SHA-256 of `data`, as `digest` takes it: made by the helper
        thread inside a wide exchange, while this thread goes on (SHA-256
        releases the GIL), and here otherwise.  The job's `result()` waits
        for it and returns it."""
        if self.helping:
            return self.run(lambda: hashlib.sha256(data).digest())
        return _Job(lambda: digest(data)).run()

    def submit(self, public, message, signature) -> _Job | _Answer | None:
        """The handle of one check handed to the helper or the child, as the
        open exchange says, or None if neither takes it.  The request is made
        before this returns; a check handed to the helper starts at once, as
        a job `run` queues does."""
        if not self.accepting or len(public) > 255 or len(signature) > 255:
            return None
        public, signature = bytes(public), bytes(signature)
        if self.helping:
            job = self.run(lambda: _check(public, message, signature))
            self._checks.append(job)
            return job
        request = (bytes([len(public), len(signature)]) + public
                   + hashlib.sha256(message).digest() + signature)
        with self._lock:   # a request and its place in `_sent` must agree
            if request in self._shared:   # in flight or answered: one answer serves every copy
                return self._shared[request]
            if not self._ready and not self._receive(0):
                return None   # still starting: this check stays in-process
            while len(self._sent) >= self.MAX_PENDING:
                if not self._receive(self.TIMEOUT):
                    return self._abandon()
            if self._gone:
                return None
            try:   # unbuffered: a blocking write writes it all
                self._proc.stdin.write(request)
            except OSError:
                return self._abandon()
            handle = self._shared[request] = _Answer(self)
            self._sent.append(handle)
            return handle

    def close(self) -> None:
        """Join the helper and end the child (`_end_child`); later checks
        run in-process."""
        with self._lock:
            self._closed, self.accepting, self.helping = True, False, False
            atexit.unregister(self.close)
            if self._helper is not None and self._helper.is_alive():
                self._jobs.put(None)   # after the jobs queued: the helper ends
                self._helper.join(self.TIMEOUT)
            self._end_child()

    def _end_child(self) -> None:
        """Close the child's pipes and wait for it to exit; its pending
        handles answer None, and later small checks run in-process."""
        self._gone = True
        self._sent.clear()
        if self._proc is None or self._proc.stdin.closed:
            return
        self._proc.stdin.close()   # end of input: the child exits
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=self.TIMEOUT)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def _start(self) -> bool:
        if self._proc is None and not self._closed and _usable_cpus() > 1:
            try:
                self._proc = subprocess.Popen(
                    [sys.executable, "-c", _CHILD, _SOURCE], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=0,
                )
            except OSError:
                self._gone = True
            else:
                atexit.register(self.close)
        return self._proc is not None and not self._gone

    def _abandon(self) -> None:
        """Kill the child and end it, under the lock its caller holds; the
        helper goes on."""
        if self.is_alive():
            self._proc.kill()
        self.accepting = self.helping   # a small exchange hands the child nothing more
        self._end_child()

    def _receive(self, timeout: float) -> bool:
        """Read the answers that arrive within `timeout` seconds and set
        their handles, in request order; False if none did.  A child that
        closed its pipe or sent a byte that is no answer is abandoned."""
        if self._gone:
            return False
        out = self._proc.stdout
        if not select.select([out], [], [], timeout)[0]:
            return False
        data = out.read(65536)
        if not self._ready and data[:1] == bytes([secp256k1.READY]):
            self._ready, data = True, data[1:]
        elif not data or not self._ready:
            self._abandon()
            return False
        if max(data, default=0) > 1 or len(data) > len(self._sent):
            self._abandon()
            return False
        for answer in data:
            self._sent.popleft().value = answer == 1
        return True


# the one verifier the harness hands checks to; its child starts with the
# first small exchange of two or more
verifier = Verifier()


def address_of(sig_public: bytes) -> bytes:
    """20-byte account address: trailing bytes of the hashed public point."""
    if len(sig_public) != SIG_PUBLIC_BYTES or sig_public[0] != 0x04:
        raise ValueError("expected a 65-byte uncompressed public key")
    return digest(sig_public)[-ADDRESS_BYTES:]


def aead_seal(key: bytes, nonce: bytes, aad: bytes, plaintext, out=None):
    """AES-256-GCM: the ciphertext with its 16-byte tag appended.  Given `out`,
    a writable buffer of exactly `len(plaintext) + TAG_BYTES` bytes, the sealed
    bytes are written there and `out` is returned."""
    if len(key) != KEY_BYTES:
        raise ValueError("AEAD key must be 32 bytes")
    if len(nonce) != NONCE_BYTES:
        raise ValueError("AEAD nonce must be 12 bytes")
    if out is None:
        return AESGCM(key).encrypt(nonce, plaintext, aad)
    AESGCM(key).encrypt_into(nonce, plaintext, aad, out)
    return out


def aead_open(key: bytes, nonce: bytes, aad: bytes, ciphertext) -> bytearray:
    """Decrypt and authenticate into a new writable buffer, which the caller
    owns; raises AuthFailure on any mismatch."""
    if len(ciphertext) < TAG_BYTES:
        raise AuthFailure("ciphertext is shorter than its tag")
    out = bytearray(len(ciphertext) - TAG_BYTES)
    try:
        AESGCM(key).decrypt_into(nonce, ciphertext, aad, out)
    except InvalidTag as exc:
        raise AuthFailure("ciphertext failed authentication") from exc
    return out


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
    "Verifier",
    "verifier",
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
    "TAG_BYTES",
]
