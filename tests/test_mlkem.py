"""Lattice KEM vs an independent library oracle plus frozen vectors, and the
float64 kernels vs integer references written from FIPS 203."""

import hashlib

import numpy as np
import pytest
from cryptography.hazmat.primitives.asymmetric import mlkem as lib_mlkem
from hypothesis import given, settings, strategies as st

from pqbfl import mlkem

# (seed, sha256(ek), encap coins, sha256(ct), shared secret); the ek hashes
# come from the library, which also decapsulated each frozen ct to the frozen
# secret when these were generated
FROZEN = [
    (
        bytes([0x00]) * 64,
        "f95c185fe5b2335d2fc938dd889c6425944acd74376b6952bf1130f720f6ba99",
        bytes.fromhex("bde6b6ae60d5c25e0d4f9340ffcfaea779c544a41fd26bf40122fd2ffca1401e"),
        "87a7c8b97820d51245e7612af96e640f795bbf76d0ee779e31b4b7f224329961",
        "8be7839f674d1a83735caf60ce6455bbc6f169712147ffbd774ed3ba86699cea",
    ),
    (
        bytes([0xA5]) * 64,
        "414e6f6776ce23b244a59acfc490afc23f68aaf618c3ceb7396dc314fe573ca2",
        bytes.fromhex("1ba078956292c03b3287ac25ccc1eda7663dabf640f0a9db18506c5a6fafee66"),
        "d93dad6637b71ed1ad4760512fd2138c7d087be18715f28dbb3252bf6f173ace",
        "712b76027bbab9ee0eb5b4c0543fcabd25dd30d4a1ec1d79cf7031699c0c9147",
    ),
    (
        bytes([0x3C]) * 64,
        "61800eecc8cf503dc3ade21abfe2476535f0a4eb2f41e2a89e78f2c0c280ec6c",
        bytes.fromhex("3bd124f663e1be03cf4a9d0ed1ca06ccd68b56f3013ff03cd7b23d35032327c8"),
        "41e652f136506e228aebbfec0ee57e965086a1c61ddec6f68941f4d2fe1de57f",
        "1ab4c32bc665d4691954abd1cb1b6b25c77a1e4d534eb65d8e63d44bb6ddbb10",
    ),
]


@pytest.mark.parametrize("seed,ek_hash,coins,ct_hash,ss_hex", FROZEN)
def test_frozen_vectors(seed, ek_hash, coins, ct_hash, ss_hex):
    ek, dk = mlkem.keygen(seed)
    assert hashlib.sha256(ek).hexdigest() == ek_hash
    assert dk.private_bytes_raw() == seed
    ss, ct = mlkem.encaps(ek, coins)
    assert hashlib.sha256(ct).hexdigest() == ct_hash
    assert ss.hex() == ss_hex
    assert mlkem.decaps(dk, ct) == ss


@pytest.mark.parametrize("seed,ek_hash,coins,ct_hash,ss_hex", FROZEN)
def test_library_oracle_decapsulates_our_ciphertext(seed, ek_hash, coins, ct_hash, ss_hex):
    oracle = lib_mlkem.MLKEM768PrivateKey.from_seed_bytes(seed)
    assert oracle.public_key().public_bytes_raw() == mlkem.keygen(seed)[0]
    ss, ct = mlkem.encaps(mlkem.keygen(seed)[0], coins)
    assert oracle.decapsulate(ct) == ss


def test_we_decapsulate_library_ciphertext():
    seed = hashlib.sha512(b"interop").digest()
    ek, dk = mlkem.keygen(seed)
    oracle_pk = lib_mlkem.MLKEM768PublicKey.from_public_bytes(ek)
    ss_oracle, ct = oracle_pk.encapsulate()
    assert mlkem.decaps(dk, ct) == ss_oracle


def test_sizes():
    ek, dk = mlkem.keygen(bytes(64))
    assert len(ek) == mlkem.EK_BYTES == 1184
    assert len(dk.private_bytes_raw()) == mlkem.DK_BYTES == 64
    ss, ct = mlkem.encaps(ek, bytes(32))
    assert len(ct) == mlkem.CT_BYTES == 1088
    assert len(ss) == mlkem.SS_BYTES == 32


def test_bad_lengths_rejected():
    ek, dk = mlkem.keygen(bytes(64))
    with pytest.raises(ValueError):
        mlkem.keygen(bytes(63))
    with pytest.raises(ValueError):
        mlkem.encaps(ek[:-1], bytes(32))
    with pytest.raises(ValueError):
        mlkem.encaps(ek, bytes(31))
    with pytest.raises(ValueError):
        mlkem.decaps(dk, bytes(mlkem.CT_BYTES - 1))


def test_unreduced_ek_rejected():
    # modulus check: an ek whose first coefficient is q must not round-trip
    ek, _ = mlkem.keygen(bytes(64))
    bad = bytearray(ek)
    bad[0] = 0x01
    bad[1] = (bad[1] & 0xF0) | 0x0D  # coefficient 0 := 3329 = q
    with pytest.raises(ValueError):
        mlkem.encaps(bytes(bad), bytes(32))
    with pytest.raises(ValueError):
        mlkem.check_ek(bytes(bad))
    mlkem.check_ek(ek)


def test_implicit_rejection_changes_secret_silently():
    ek, dk = mlkem.keygen(hashlib.sha512(b"reject").digest())
    ss, ct = mlkem.encaps(ek, hashlib.sha256(b"m").digest())
    tampered = bytearray(ct)
    tampered[17] ^= 0x40
    ss_bad = mlkem.decaps(dk, bytes(tampered))
    assert len(ss_bad) == 32
    assert ss_bad != ss
    # rejection is deterministic in (dk, ct)
    assert mlkem.decaps(dk, bytes(tampered)) == ss_bad


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=64, max_size=64), st.binary(min_size=32, max_size=32))
def test_roundtrip_property(seed, coins):
    ek, dk = mlkem.keygen(seed)
    ss, ct = mlkem.encaps(ek, coins)
    assert mlkem.decaps(dk, ct) == ss


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=64, max_size=64))
def test_keygen_deterministic(seed):
    (ek1, dk1), (ek2, dk2) = mlkem.keygen(seed), mlkem.keygen(seed)
    assert ek1 == ek2 and dk1.private_bytes_raw() == dk2.private_bytes_raw()


# --- float64 kernels vs FIPS 203 integer references -----------------------------

Q = mlkem.Q


def _zeta(i):
    return pow(17, mlkem._bitrev7(i), Q)


def _ntt_reference(f):
    """FIPS 203 Algorithm 9."""
    f = list(f)
    i = 1
    length = 128
    while length >= 2:
        for start in range(0, 256, 2 * length):
            zeta = _zeta(i)
            i += 1
            for j in range(start, start + length):
                t = zeta * f[j + length] % Q
                f[j + length] = (f[j] - t) % Q
                f[j] = (f[j] + t) % Q
        length //= 2
    return f


def _ntt_inv_reference(f):
    """FIPS 203 Algorithm 10."""
    f = list(f)
    i = 127
    length = 2
    while length <= 128:
        for start in range(0, 256, 2 * length):
            zeta = _zeta(i)
            i -= 1
            for j in range(start, start + length):
                t = f[j]
                f[j] = (t + f[j + length]) % Q
                f[j + length] = zeta * (f[j + length] - t) % Q
        length *= 2
    return [x * 3303 % Q for x in f]


def _float_ntt(matrix, polys):
    return mlkem._unhalves(mlkem._mod(mlkem._halves(np.array(polys, dtype=np.float64)) @ matrix.T))


def test_float_ntt_matches_integer_reference():
    rng = np.random.default_rng(203)
    polys = rng.integers(0, Q, (3, 256)).tolist() + [[Q - 1] * 256]  # last: worst case
    forward = _float_ntt(mlkem._NTT, polys)
    assert forward.tolist() == [_ntt_reference(f) for f in polys]
    inverse = _float_ntt(mlkem._NTT_INV, polys)
    assert inverse.tolist() == [_ntt_inv_reference(f) for f in polys]
    assert _float_ntt(mlkem._NTT_INV, forward).tolist() == polys


def test_mod_is_exact_at_the_bound():
    worst = 128 * (Q - 1) ** 2
    x = np.array([0, Q - 1, Q, worst, worst - worst % Q, worst - worst % Q - 1], dtype=np.float64)
    assert mlkem._mod(x).tolist() == [int(v) % Q for v in x]


def test_compress_matches_integer_reference_without_reduction():
    # every residue, plus multiples of q up to the largest inverse-NTT output
    multiples = np.array([0, 1, 7, 128 * (Q - 1) ** 2 // Q])
    values = (np.arange(Q) + Q * multiples[:, None]).ravel().astype(np.float64)
    size = (mlkem.K + 1) * mlkem.N   # one ciphertext's rows; wrap to fill the last
    values = np.resize(values, -(-len(values) // size) * size)
    d = np.array([mlkem.DU] * mlkem.K + [mlkem.DV])[:, None]
    for block in values.reshape(-1, mlkem.K + 1, mlkem.N):
        reduced = block.astype(np.int64) % Q
        expected = (((reduced << d) + (Q - 1) // 2) // Q) & ((1 << d) - 1)
        assert np.array_equal(mlkem._compress(block), expected)


def test_sample_ntt_retry_matches_one_long_read():
    seeds = [bytes(32) + bytes([r, k]) for r in range(3) for k in range(3)]
    short = 384  # 256 candidates per stream, so some stream accepts fewer than 256
    accepted = (mlkem._decode12(hashlib.shake_128(s).digest(short)) < Q for s in seeds)
    assert min(int(a.sum()) for a in accepted) < 256
    once = mlkem._sample_ntt(seeds, 4 * mlkem.XOF_BYTES)
    assert np.array_equal(mlkem._sample_ntt(seeds, short), once)
    assert np.array_equal(mlkem._sample_ntt(seeds, mlkem.XOF_BYTES), once)
    assert once.shape == (9, 256) and (once < Q).all()


def test_cached_key_arrays_are_read_only():
    ek, _ = mlkem.keygen(hashlib.sha512(b"cache").digest())
    matrix, h_ek = mlkem._parse_ek(ek)
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0, 0] = 0
    assert mlkem._parse_ek(ek)[0] is matrix and h_ek == hashlib.sha3_256(ek).digest()
