"""Golden artifact digests: every file `write_outputs` writes, pinned by sha256.

Criterion 10 compares two reruns of one build; this pins the artifacts across
builds, so a refactor or a faster primitive that changes any byte of the
ledger, the metrics, a transcript or run.json fails here and names the file.
"""

import hashlib
import os

import pytest

from pqbfl.harness import SimConfig, run_simulation, verify_transcripts, write_outputs

CONFIGS = {
    "rekey-every-round": dict(participants=8, rounds=10, ratchet_range=1, seed=3),
    "mixed-epochs": dict(participants=3, rounds=12, ratchet_range=(2, 5, 3), seed=5),
    "mitm_key_swap": dict(participants=2, rounds=4, ratchet_range=2, seed=7, mitm_key_swap=True),
    "tamper": dict(participants=2, rounds=4, ratchet_range=2, seed=9, tamper_attack=True),
    # injects on the round-4 update
    "replay": dict(participants=2, rounds=4, ratchet_range=2, seed=13, replay_attack=True),
    "free_ride": dict(participants=3, rounds=4, ratchet_range=2, seed=17, free_ride=True),
    # mitm at establishment, replay on the round-3 update, tamper on the
    # round-4 task, and the free-ride leak scan, all in one run
    "all-scenarios": dict(
        participants=3, rounds=4, ratchet_range=2, seed=19, replay_attack=True,
        tamper_attack=True, mitm_key_swap=True, free_ride=True,
    ),
    # a window of one participant: each task goes out before the last update
    # is handled, and wide checks run on the verifier's helper thread
    "wide": dict(participants=3, rounds=4, ratchet_range=2, model_dim=2**16, seed=23),
}

GOLDEN = {
    "rekey-every-round": {
        "ledger.txt": "5a512ad6e0630a00c3f371bc84ed0ffb2145b3612c71d70fb42df16fd8be30f2",
        "metrics.csv": "7a6d7ac14ecdbeed0848eedb2280b04b26992d04cda138e04f685b389058ed15",
        "run.json": "7802172a5e07c5761d1ffdecd0e799405710716da68b7ac29cbe68a2736e6a3d",
        "transcript-client-1.txt": "7ce90081466df0c5c1c342d29bcea843bc1ccf064332923b4e4560e9e4498449",
        "transcript-client-2.txt": "c6741cda909446cf3ca458e20db1f9a36447a0b80cd4f0fd3b7046bfcb14d2c6",
        "transcript-client-3.txt": "4db38d040da3b52f52100607702c0a0724e0a30b7f97908b8ed9a0a45784a0f8",
        "transcript-client-4.txt": "d9eb7941c55fd0c71b1d1cca10ecf3af5e14fae170c7a3c99e9bab570863b135",
        "transcript-client-5.txt": "10e32f7294e719ed4909161ae607cff376a820b7e064e086b5177c1c9a3dae06",
        "transcript-client-6.txt": "08144905b27f4ed6fd750fb635b477c8bcf5005a921edae6167a30fede44b18e",
        "transcript-client-7.txt": "3b6d9660fddf0c2ceca6db5fd985dad9b43efbfa05124af11388a8a8a0b2dbcc",
        "transcript-client-8.txt": "0027cd8a29b4ed869dc1cf7cfc4c72e09f0c2d34ca858d7819cc7902f03f4a47",
        "transcript-server.txt": "799685ed290ceec8f4c7d7412caf9b6d44a64c953e9534bf663b0e1325d2e21d",
    },
    "mixed-epochs": {
        "ledger.txt": "ffaf6c2dfd3654e220864334d3a0495c9aa97dcbb732ad1a32c24f3bc4123cb4",
        "metrics.csv": "bc7d38c77447ce7f95bfd92be8cb0f2c6c12365ef0d6e8508461a5350dffba93",
        "run.json": "4efcd011d6b7d544916771a989d3f1123457e3ebe3eb6d9def9a965a82f1b6cc",
        "transcript-client-1.txt": "46035c6e7bc0fe4ec9028f1b296746edb9cb6ff949e1a9c4b33f9919ee4abb75",
        "transcript-client-2.txt": "c5c2e82ba1116c1819de928dfaa2d24290481b27b53c3f7141b2179910eaeaf3",
        "transcript-client-3.txt": "4e24f770318d4a77855e09e24b5eb6035a5e1fe944ecb7473f49b7239451b937",
        "transcript-server.txt": "77d582d4f38c6508edd726f96d24d74b425ec9fd82b16fb31b88457bc70b026f",
    },
    "mitm_key_swap": {
        "ledger.txt": "cc15f2f883aeb119bc8aa95b323eed740f1be86abb818c7a40aaf65885cc958f",
        "metrics.csv": "d75ec12f39dff214ab6211593652c7b3aa0fb43288b531a9536d09e762748719",
        "run.json": "fdc825b74489ab7620dcf3d2848b4c4121dd2b3388eebac223a74f0a403c1d01",
        "transcript-client-1.txt": "2a49b05859be547a5bf906a1ade9543d465141418fa5e412d6f89f367381dfa9",
        "transcript-client-2.txt": "39bc095c7772d371a58f1b604b53c4644156508a15ff58f5704d5157d7b80511",
        "transcript-server.txt": "cd65732b9e8c2d0312cfa261721af29ec6e14d05db5b5fa397e7552e900b33b5",
    },
    "tamper": {
        "ledger.txt": "4873b8954e50d736ae8fd500d4a65694bd1866397f88151eccc37c9d49cd4931",
        "metrics.csv": "840aa32d39c70537f3b2a41d4c6bce31210dd4656d20ff0af206ac6c36e9cab9",
        "run.json": "57538d7da7311bb864aeeffc52c98ddf85e9692e7f00ddfb1148afeae46b4584",
        "transcript-client-1.txt": "8f99317e961c4df61c78868ea5dafe51dea162bb8fdfd27c80946dbaf19dce49",
        "transcript-client-2.txt": "d96b3ce6ff84b97447cf90587e5ba64afef2a486562cd1cf1aa468a23ec7b082",
        "transcript-server.txt": "f270301233d66299383f1d8db0f5671c73a88334b53ed61ac070c5ee4262a4d5",
    },
    "replay": {
        "ledger.txt": "fa859be3468cfb4a49d40dca4b0fdf1a8e8b575877d1eef04da6ccf5d8150225",
        "metrics.csv": "558bb81b215275e0ed5974297ecd3bc769a3295c9e572d9a211e21a8fa47e00a",
        "run.json": "d28fd852c3bf2b1745f50d28b6c0e2c1eb8556847d0953209d7e1a1018740e79",
        "transcript-client-1.txt": "20c516993db32621815fa66c041cbc03fc19372e0e9959918b36ae2cc5cfbda5",
        "transcript-client-2.txt": "16ef7d175dbc7cae53601f49bb822152ae88dd2b24d5cb537b6e80c5671d4320",
        "transcript-server.txt": "459d67bbd499a333bae89a334fdcedfd04521c348fd0a21469c45940374607f2",
    },
    "free_ride": {
        "ledger.txt": "d8c800b5dad80025d6a80d075e8c62b7f9980f3ad25f797e9bba0b8924eda10c",
        "metrics.csv": "c3c55c47e059c0b2497b4057313a8e5412f6152354657e308f377025cfa61203",
        "run.json": "42a6cbf328ff16b266dd89c704477450e4d7d5e4d5bf1ce2621ca2e9d48367a8",
        "transcript-client-1.txt": "55138d85eb8ff9bebbdbc2d70e53a2709ef66059707d786c306e37e324894a2b",
        "transcript-client-2.txt": "6f34204f1115b9e3d4bc1eddb98423056991d31e7fe5463e4e93df017f15054d",
        "transcript-client-3.txt": "dcfcefb29361ca2a791d3ceba83ecabe620f3da135b5de1c0ef69e6ee5cabcf1",
        "transcript-server.txt": "69de99ece132978cf293e91c00a503c4e3787937a2c0617fe4909d75945c643e",
    },
    "all-scenarios": {
        "ledger.txt": "da69e836ce4bab9e02d8b1ce5b0dcfb5e6156096075d40c96a521a8507403fb2",
        "metrics.csv": "6b1b81db204b68d58468014c0a1c600f93b19e06915b841c6b8d0f85a9bfa0b8",
        "run.json": "44c881667b388e6611f20b9ca51006211d174d6d78aaf3697b29829d54a4e172",
        "transcript-client-1.txt": "2f1a09207adaf3f349327125c13b94c9589e91f37221bb523ed3e3ff26ef3f52",
        "transcript-client-2.txt": "bee839d34d316daccc708ace20ba00f75131710f2f0704dfc4a1d8aa45190b4f",
        "transcript-client-3.txt": "d85b95eb696ad9af19241156185427cfab4c90c31f699afb146d6d23b7cd5df6",
        "transcript-server.txt": "b5a93b0258754f47f12d7b9b0099afdc2e351a69f880ad48723c726c50918642",
    },
    "wide": {
        "ledger.txt": "d7c639fac2dc0c80ad220f42bda8db3b15bcc50d06e668f2bcc8c39f7468d378",
        "metrics.csv": "b5e19af79172854bc4f156c71250fd25ec25d3c1ac3f28f5fcebc53350c4a1ef",
        "run.json": "284b92223b589b4fc72cd1219f06eb0a8c29770141dfae1c84a6ce7cac2b9a6f",
        "transcript-client-1.txt": "f7038e091ad751fe46627e9880832951ac37721ffe63c92770c3ce200f498154",
        "transcript-client-2.txt": "22c320a18d7961c026f295baeea1e0baddcebef140f48ccd50549f3fae9a8e4e",
        "transcript-client-3.txt": "98117f16d0c0586c15747417c5fff22e506b8613813acd5276a16e07ea8b5167",
        "transcript-server.txt": "f1b05c709035b48145a6b4a47b06d552b07fe5996d24da68f8bfec911b1529cb",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_digests(name, tmp_path):
    metrics = run_simulation(SimConfig(**CONFIGS[name]))
    assert metrics.terminated and metrics.all_attacks_rejected()
    paths = write_outputs(metrics, str(tmp_path))
    got = {}
    for path in paths.values():
        with open(path, "rb") as fh:
            got[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    assert got == GOLDEN[name]
    assert verify_transcripts(str(tmp_path)) == []
