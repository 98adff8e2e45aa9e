"""ML-KEM-768 (FIPS 203): library keygen/decaps, numpy encapsulation.

Key generation and decapsulation bind the `cryptography` ML-KEM-768.  The
decapsulation key is the 64-byte FIPS 203 seed d||z, the library's raw
private form, so `keygen` is deterministic in its seed.

Encapsulation is implemented here, vectorised with numpy, because it must take
its 32-byte randomness m explicitly so that runs replay from an injected
generator; OpenSSL offers no way to inject encapsulation coins.  The parsed
encapsulation key (t-hat, the transposed matrix A-hat and H(ek)) is cached for
the most recent key, since every participant encapsulates to the same server
key on a rotation.  The cache holds public data only.

Sizes: encapsulation key 1184 B, decapsulation key (seed) 64 B, ciphertext
1088 B, shared secret 32 B.  The encapsulation is not constant-time; it is
intended for simulation and testing, not for protecting real traffic.
"""

from __future__ import annotations

import hashlib
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
# so both directions are one 128x128 matrix over pairs.
_GAMMAS = np.array([pow(17, 2 * _bitrev7(i) + 1, Q) for i in range(N // 2)], dtype=np.int64)
_NTT = np.array([_powers(int(g)) for g in _GAMMAS], dtype=np.int64)
# 3303 = 128^-1 mod q
_NTT_INV = np.array(
    [[3303 * p % Q for p in _powers(pow(int(g), -1, Q))] for g in _GAMMAS], dtype=np.int64
).T
# eta = 2: each PRF nibble is one coefficient, (b0 + b1) - (b2 + b3) mod q
_CBD = np.array([(n & 1) + (n >> 1 & 1) - (n >> 2 & 1) - (n >> 3) for n in range(16)]) % Q


def _g(data: bytes) -> tuple[bytes, bytes]:
    h = hashlib.sha3_512(data).digest()
    return h[:32], h[32:]


def _h(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def _prf(s: bytes, b: int) -> bytes:
    return hashlib.shake_256(s + bytes([b])).digest(64 * ETA)


def _byte_encode(d: int, f: np.ndarray) -> bytes:
    """Pack d-bit coefficients little-endian, lowest coefficient first."""
    bits = (f.reshape(-1, 1) >> np.arange(d)) & 1
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()


def _compress(d: int, x: np.ndarray) -> np.ndarray:
    return (((x << d) + (Q - 1) // 2) // Q) & ((1 << d) - 1)


def _decode12(buf: bytes) -> np.ndarray:
    """Split each 3 bytes into two 12-bit little-endian values."""
    b = np.frombuffer(buf, dtype=np.uint8).astype(np.int64).reshape(-1, 3)
    low = b[:, 0] | (b[:, 1] & 0xF) << 8
    high = b[:, 1] >> 4 | b[:, 2] << 4
    return np.stack([low, high], axis=1).ravel()


def _sample_ntt(seed: bytes) -> np.ndarray:
    """Rejection-sample a uniform polynomial from a SHAKE-128 stream."""
    xof = hashlib.shake_128(seed)
    length = 840
    while True:
        candidates = _decode12(xof.digest(length))
        out = candidates[candidates < Q]
        if len(out) >= N:
            return out[:N]
        length *= 2


def _sample_cbd(buf: bytes) -> np.ndarray:
    """Centered binomial polynomials, one per 64*ETA bytes of buf."""
    b = np.frombuffer(buf, dtype=np.uint8)
    return _CBD[np.stack([b & 0xF, b >> 4], axis=1)].reshape(-1, N)


def _apply(matrix: np.ndarray, f: np.ndarray) -> np.ndarray:
    pairs = f.reshape(*f.shape[:-1], N // 2, 2)
    return (np.matmul(matrix, pairs) % Q).reshape(f.shape)


def _ntt(f: np.ndarray) -> np.ndarray:
    return _apply(_NTT, f)


def _ntt_inv(f: np.ndarray) -> np.ndarray:
    return _apply(_NTT_INV, f)


def _mul_ntt(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Base multiplication in the NTT domain, broadcast over leading axes."""
    a0, a1 = f[..., 0::2], f[..., 1::2]
    b0, b1 = g[..., 0::2], g[..., 1::2]
    h = np.empty(np.broadcast_shapes(f.shape, g.shape), dtype=np.int64)
    h[..., 0::2] = (a0 * b0 + a1 * b1 % Q * _GAMMAS) % Q
    h[..., 1::2] = (a0 * b1 + a1 * b0) % Q
    return h


@lru_cache(maxsize=1)
def _parse_ek(ek: bytes) -> tuple[np.ndarray, np.ndarray, bytes]:
    """(t-hat, transposed A-hat, H(ek)) for an ek that passes the modulus check."""
    t_hat = _decode12(ek[: 384 * K]).reshape(K, N)
    if (t_hat >= Q).any():
        raise ValueError("malformed encapsulation key")
    rho = ek[384 * K :]
    a_hat_t = np.array(
        [[_sample_ntt(rho + bytes([i, j])) for j in range(K)] for i in range(K)]
    )
    # every encapsulation to this key shares the cached arrays
    t_hat.flags.writeable = a_hat_t.flags.writeable = False
    return t_hat, a_hat_t, _h(ek)


def keygen(seed: bytes) -> tuple[bytes, bytes]:
    """Derive (ek, dk) from the 64-byte d||z seed; dk is the seed itself."""
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    key = MLKEM768PrivateKey.from_seed_bytes(seed)
    return key.public_key().public_bytes_raw(), bytes(seed)


def encaps(ek: bytes, m: bytes) -> tuple[bytes, bytes]:
    """Encapsulate with explicit 32-byte randomness m.

    Returns (shared_secret, ciphertext).  Rejects encapsulation keys of the
    wrong length or with out-of-range coefficients (modulus check).
    """
    if len(ek) != EK_BYTES:
        raise ValueError(f"encapsulation key must be {EK_BYTES} bytes, got {len(ek)}")
    if len(m) != 32:
        raise ValueError("encapsulation randomness must be 32 bytes")
    t_hat, a_hat_t, h_ek = _parse_ek(ek)
    k, r = _g(m + h_ek)
    noise = _sample_cbd(b"".join(_prf(r, n) for n in range(2 * K + 1)))
    y_hat = _ntt(noise[:K])
    w = _ntt_inv(np.concatenate([
        _mul_ntt(a_hat_t, y_hat).sum(axis=1) % Q,
        _mul_ntt(t_hat, y_hat).sum(axis=0, keepdims=True) % Q,
    ]))
    u = (w[:K] + noise[K : 2 * K]) % Q
    m_bits = np.unpackbits(np.frombuffer(m, dtype=np.uint8), bitorder="little")
    mu = m_bits.astype(np.int64) * ((Q + 1) // 2)
    v = (w[K] + noise[2 * K] + mu) % Q
    return k, _byte_encode(DU, _compress(DU, u)) + _byte_encode(DV, _compress(DV, v))


def decaps(dk: bytes, c: bytes) -> bytes:
    """Decapsulate; implicit rejection returns J(z||c) on mismatch."""
    if len(dk) != DK_BYTES:
        raise ValueError(f"decapsulation key must be {DK_BYTES} bytes, got {len(dk)}")
    if len(c) != CT_BYTES:
        raise ValueError(f"ciphertext must be {CT_BYTES} bytes, got {len(c)}")
    return MLKEM768PrivateKey.from_seed_bytes(dk).decapsulate(c)
