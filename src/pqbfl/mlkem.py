"""ML-KEM-768 (FIPS 203): library keygen/decaps, numpy encapsulation.

Key generation and decapsulation bind the `cryptography` ML-KEM-768.  The
decapsulation key is the library key object built from the 64-byte FIPS 203
seed d||z; its raw private bytes are that seed, so `keygen` is deterministic
in its seed.  A caller keeps the key object for as long as it holds the key
pair, so decapsulation never rebuilds it.

Encapsulation is implemented here, vectorised with numpy, because it must take
its 32-byte randomness m explicitly so that runs replay from an injected
generator; OpenSSL offers no way to inject encapsulation coins.  Its
polynomial arithmetic is three float64 products: the NTT and its inverse are
128x128 matrices applied to the even and odd halves of every polynomial at
once (two BLAS products), and the base multiplication of all K+1 output rows
(A-hat^T y-hat and t-hat^T y-hat) is one pass against a per-key matrix.
Every matrix entry and every input is reduced below q first, so a dot product
is at most 128 * 3328^2, about 1.42e9, far below 2^53: every product is exact,
and `_mod` reduces it exactly.

The parsed encapsulation key (that base-multiplication matrix, built from
t-hat and A-hat, and H(ek)) is cached for the most recent key, since every
participant encapsulates to the same server key on a rotation.  The cache
holds public data only, as read-only arrays; no secret is cached anywhere in
this module.

Sizes: encapsulation key 1184 B, decapsulation key (seed) 64 B, ciphertext
1088 B, shared secret 32 B.  The encapsulation is not constant-time; it is
intended for simulation and testing, not for protecting real traffic.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache

import numpy as np
from cryptography.hazmat.primitives.asymmetric.mlkem import MLKEM768PrivateKey

Q = 3329
N = 256
K = 3
ETA = 2                      # eta1 = eta2 = 2 for ML-KEM-768
DU = 10
DV = 4

EK_BYTES = 384 * K + 32      # 1184
SEED_BYTES = 64              # d || z
DK_BYTES = SEED_BYTES
CT_BYTES = 32 * (DU * K + DV)  # 1088
SS_BYTES = 32

# SHAKE-128 bytes read per SampleNTT stream, four rate blocks: 448 candidates,
# of which 256 or more fall below q except with probability about 2^-105; a
# stream that falls short is re-read
XOF_BYTES = 672


def _bitrev7(n: int) -> int:
    r = 0
    for _ in range(7):
        r = (r << 1) | (n & 1)
        n >>= 1
    return r


def _powers(g: int) -> list[int]:
    out = [1]
    for _ in range(N // 2 - 1):
        out.append(out[-1] * g % Q)
    return out


# The NTT evaluates the even and odd halves of f at the 128 roots
# gamma_i = 17^(2 bitrev7(i) + 1), i.e. ntt(f)[2i + b] = sum_j gamma_i^j f[2j + b],
# so both directions are one 128x128 matrix applied to each half.
_ROOTS = [pow(17, 2 * _bitrev7(i) + 1, Q) for i in range(N // 2)]
_GAMMAS = np.array(_ROOTS, dtype=np.float64)
_NTT = np.array([_powers(g) for g in _ROOTS], dtype=np.float64)
# 3303 = 128^-1 mod q
_NTT_INV = np.array(
    [[3303 * p % Q for p in _powers(pow(g, -1, Q))] for g in _ROOTS], dtype=np.float64
).T
# eta = 2: each PRF nibble is one coefficient, (b0 + b1) - (b2 + b3) mod q,
# so each PRF byte is two, low nibble first
_CBD_NIBBLE = [((n & 1) + (n >> 1 & 1) - (n >> 2 & 1) - (n >> 3)) % Q for n in range(16)]
_CBD = np.array(
    [[_CBD_NIBBLE[b & 0xF], _CBD_NIBBLE[b >> 4]] for b in range(256)], dtype=np.float64
)
# Decompress_1 of each message byte's eight bits, lowest bit first
_MESSAGE = np.array(
    [[(b >> i & 1) * ((Q + 1) // 2) for i in range(8)] for b in range(256)], dtype=np.float64
)
# compression bits of the ciphertext rows: DU for u's K rows, then DV for v
_D = np.array([DU] * K + [DV]).reshape(K + 1, 1)


def _g(data: bytes) -> tuple[bytes, bytes]:
    h = hashlib.sha3_512(data).digest()
    return h[:32], h[32:]


def _h(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def _prf(s: bytes, b: int) -> bytes:
    return hashlib.shake_256(s + bytes([b])).digest(64 * ETA)


def _mod(x: np.ndarray) -> np.ndarray:
    """x mod q for non-negative integral float64 below 2^53.

    The division is correctly rounded and a non-multiple of q is at least
    1/q from an integer, so the floor is the exact quotient.
    """
    return x - np.floor(x / Q) * Q


def _byte_encode(d: int, f: np.ndarray) -> bytes:
    """Pack d-bit int64 coefficients little-endian, lowest coefficient first."""
    group = 8 // math.gcd(8, d)  # coefficients per whole number of bytes
    words = f.reshape(-1, group) @ (1 << np.arange(0, group * d, d))
    # each word's low group * d / 8 bytes, little-endian
    return words.astype("<u8").view(np.uint8).reshape(-1, 8)[:, : group * d // 8].tobytes()


def _compress(x: np.ndarray) -> np.ndarray:
    """Compress_d(x mod q) of the ciphertext rows, d from `_D`, as int64.

    x is non-negative integral float64 below 2^40, so x * 2^d + (q - 1)/2 is
    an integer below 2^53 and, as in `_mod`, the floor of its correctly
    rounded quotient by q is exact.  A multiple of q in x adds a multiple of
    2^d to that floor, which the mask drops, so x need not be reduced.
    """
    return np.floor((x * 2.0**_D + (Q - 1) // 2) / Q).astype(np.int64) & ((1 << _D) - 1)


def _decode12(buf: bytes) -> np.ndarray:
    """Split each 3 bytes into two 12-bit little-endian values."""
    b = np.frombuffer(buf, dtype=np.uint8).reshape(-1, 3).astype(np.uint16)
    out = np.empty((len(b), 2), dtype=np.uint16)
    out[:, 0] = b[:, 0] | (b[:, 1] & 0xF) << 8
    out[:, 1] = b[:, 1] >> 4 | b[:, 2] << 4
    return out.ravel()


def _sample_ntt(seeds: list[bytes], length: int) -> np.ndarray:
    """Rejection-sample one uniform polynomial per seed from its SHAKE-128
    stream, reading `length` bytes of each stream in one batch."""
    candidates = _decode12(
        b"".join(hashlib.shake_128(s).digest(length) for s in seeds)
    ).reshape(len(seeds), -1)
    accept = candidates < Q
    if (accept.sum(axis=1) < N).any():
        # a longer read extends each stream, so it accepts the same prefix
        return _sample_ntt(seeds, 2 * length)
    accept &= accept.cumsum(axis=1) <= N
    return candidates[accept].reshape(len(seeds), N)


def _sample_cbd(buf: bytes) -> np.ndarray:
    """Centered binomial polynomials, one per 64*ETA bytes of buf."""
    return _CBD.take(np.frombuffer(buf, dtype=np.uint8), axis=0).reshape(-1, N)


def _halves(f: np.ndarray) -> np.ndarray:
    """R polynomials as a 2R x 128 matrix: row (r, c) holds f[r][c::2], the
    operand of an NTT matrix product."""
    return f.reshape(len(f), N // 2, 2).transpose(0, 2, 1).reshape(2 * len(f), N // 2)


def _unhalves(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, 2, N // 2).transpose(0, 2, 1).reshape(-1, N)


@lru_cache(maxsize=1)
def _parse_ek(ek: bytes) -> tuple[np.ndarray, bytes]:
    """(base-multiplication matrix, H(ek)) for an ek of the right length that
    passes the modulus check.

    Row (r, c) of the matrix is half c of row r of [A-hat^T; t-hat^T], column
    (k, c') is half c' of y-hat[k], and the last axis runs over the roots
    gamma_i, so that per root
      h[2i]     = sum_k a[2i] y[2i] + (a[2i + 1] gamma_i) y[2i + 1]
      h[2i + 1] = sum_k a[2i + 1] y[2i] + a[2i] y[2i + 1]
    """
    if len(ek) != EK_BYTES:
        raise ValueError(f"encapsulation key must be {EK_BYTES} bytes, got {len(ek)}")
    t_hat = _decode12(ek[: 384 * K])
    if (t_hat >= Q).any():
        raise ValueError("malformed encapsulation key")
    rho = ek[384 * K :]
    # row r, column k is A-hat^T[r][k] = SampleNTT(rho || r || k); then t-hat
    a_hat_t = _sample_ntt([rho + bytes([r, k]) for r in range(K) for k in range(K)], XOF_BYTES)
    rows = np.concatenate([a_hat_t.ravel(), t_hat]).astype(np.float64).reshape(K + 1, K, N)
    even, odd = rows[..., 0::2], rows[..., 1::2]
    matrix = np.empty((K + 1, 2, K, 2, N // 2))
    matrix[:, 0, :, 0] = even
    matrix[:, 0, :, 1] = _mod(odd * _GAMMAS)
    matrix[:, 1, :, 0] = odd
    matrix[:, 1, :, 1] = even
    matrix = matrix.reshape(2 * (K + 1), 2 * K, N // 2)
    # every encapsulation to this key shares the cached array
    matrix.flags.writeable = False
    return matrix, _h(ek)


def keygen(seed: bytes) -> tuple[bytes, MLKEM768PrivateKey]:
    """Derive (ek, dk) from the 64-byte d||z seed; dk is the library key,
    whose raw private bytes are the seed."""
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    key = MLKEM768PrivateKey.from_seed_bytes(seed)
    return key.public_key().public_bytes_raw(), key


def check_ek(ek: bytes) -> None:
    """Raise ValueError unless ek has the right length and passes the FIPS 203
    modulus check.  The parse is cached, so a later `encaps` to ek reuses it."""
    _parse_ek(ek)


def encaps(ek: bytes, m: bytes) -> tuple[bytes, bytes]:
    """Encapsulate with explicit 32-byte randomness m.

    Returns (shared_secret, ciphertext).  Rejects encapsulation keys of the
    wrong length or with out-of-range coefficients (modulus check).
    """
    if len(m) != 32:
        raise ValueError("encapsulation randomness must be 32 bytes")
    matrix, h_ek = _parse_ek(ek)
    k, r = _g(m + h_ek)
    noise = _sample_cbd(b"".join(_prf(r, n) for n in range(2 * K + 1)))  # y, e1, e2
    y_hat = _mod(_halves(noise[:K]) @ _NTT.T)
    w_hat = _mod(np.einsum("abi,bi->ai", matrix, y_hat))  # every root at once
    # u = NTT^-1(A-hat^T y-hat) + e1 and v = NTT^-1(t-hat^T y-hat) + e2 + mu
    uv = _unhalves(w_hat @ _NTT_INV.T) + noise[K:]
    uv[K] += _MESSAGE.take(np.frombuffer(m, dtype=np.uint8), axis=0).ravel()
    c = _compress(uv)
    return k, _byte_encode(DU, c[:K]) + _byte_encode(DV, c[K])


def decaps(dk: MLKEM768PrivateKey, c: bytes) -> bytes:
    """Decapsulate; implicit rejection returns J(z||c) on mismatch."""
    if len(c) != CT_BYTES:
        raise ValueError(f"ciphertext must be {CT_BYTES} bytes, got {len(c)}")
    return dk.decapsulate(c)
