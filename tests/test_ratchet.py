"""Key schedule against a hand-rolled HMAC walker and schedule brute force."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from pqbfl.ratchet import (
    EpochExhausted,
    KeyReuse,
    ModelKey,
    RatchetConfig,
    advance_asymmetric,
    advance_symmetric,
    init_root,
    key_of,
    round_of,
)

# --- independent reference: HKDF-SHA384 from raw HMAC ------------------------

def _hkdf(salt, ikm, info, length=32):
    prk = hmac.new(salt if salt else bytes(48), ikm, hashlib.sha384).digest()
    out, block, counter = b"", b"", 1
    while len(out) < length:
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha384).digest()
        out += block
        counter += 1
    return out[:length]


def _reference_epoch_keys(root_key, count):
    """Walk one epoch's chain directly: CK_0 from the root, then each round
    yields the model key and the next chain key from the previous one."""
    ck = _hkdf(bytes(48), root_key, b"chain-init")
    keys = []
    for _ in range(count):
        keys.append(_hkdf(bytes(48), ck, b"model"))
        ck = _hkdf(bytes(48), ck, b"chain")
    return keys


def _reference_root(ss_kem, ss_dh):
    return _hkdf(bytes(48), ss_kem + ss_dh, b"pqbfl-root", 32)


def _reference_next_root(prev_root, ss_kem, ss_dh):
    return _hkdf(prev_root, ss_kem + ss_dh, b"pqbfl-root", 32)


# --- derivation fidelity ------------------------------------------------------

def test_epoch_keys_match_reference_walker():
    cfg = RatchetConfig(6)
    state = init_root(b"\x01" * 32, b"\x02" * 32, cfg)
    assert state.root_key == _reference_root(b"\x01" * 32, b"\x02" * 32)
    expected = _reference_epoch_keys(state.root_key, 6)
    for i in range(6):
        state, key = advance_symmetric(state)
        assert key.key == expected[i]
        assert (key.epoch, key.step) == (1, i + 1)


def test_asymmetric_step_matches_reference():
    cfg = RatchetConfig(2)
    state = init_root(b"\x03" * 32, b"\x04" * 32, cfg)
    first_root = state.root_key
    state, _ = advance_symmetric(state)
    state, _ = advance_symmetric(state)
    state = advance_asymmetric(state, b"\x05" * 32, b"\x06" * 32)
    assert state.root_key == _reference_next_root(first_root, b"\x05" * 32, b"\x06" * 32)
    assert (state.epoch, state.step) == (2, 0)
    state, key = advance_symmetric(state)
    assert key.key == _reference_epoch_keys(state.root_key, 1)[0]
    assert (key.epoch, key.step, key.round) == (2, 1, 3)


def test_distinct_inputs_distinct_roots():
    cfg = RatchetConfig(3)
    a = init_root(b"\x01" * 32, b"\x02" * 32, cfg)
    b = init_root(b"\x02" * 32, b"\x01" * 32, cfg)  # swapped halves differ
    assert a.root_key != b.root_key


# --- schedule ------------------------------------------------------------------

def test_epoch_boundary_at_nine():
    cfg = RatchetConfig(9)
    state = init_root(b"\x07" * 32, b"\x08" * 32, cfg)
    keys = []
    for _ in range(9):
        state, key = advance_symmetric(state)
        keys.append(key)
    assert [k.step for k in keys] == list(range(1, 10))
    assert all(k.epoch == 1 for k in keys)
    assert len({k.key for k in keys}) == 9
    with pytest.raises(EpochExhausted):
        advance_symmetric(state)
    state = advance_asymmetric(state, b"\x09" * 32, b"\x0a" * 32)
    state, key10 = advance_symmetric(state)
    assert (key10.epoch, key10.step, key10.round) == (2, 1, 10)


def test_round_of_matches_brute_force_walk():
    for ranges in (4, (2, 5, 3), (1, 1, 4)):
        cfg = RatchetConfig(ranges)
        rnd = 0
        for epoch in range(1, 5):
            for step in range(1, cfg.epoch_length(epoch) + 1):
                rnd += 1
                assert round_of(epoch, step, cfg) == rnd


RANGES = st.one_of(
    st.integers(1, 5), st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)
)


@settings(max_examples=60, deadline=None)
@given(RANGES, st.integers(1, 24), st.data())
def test_key_of_inverts_round_of_and_rotates_ends_each_epoch(ranges, rounds, data):
    cfg = RatchetConfig(ranges)
    epoch = data.draw(st.integers(1, 6))
    step = data.draw(st.integers(1, cfg.epoch_length(epoch)))
    assert key_of(round_of(epoch, step, cfg), cfg) == (epoch, step)
    assert key_of(0, cfg) == (1, 0) and not cfg.rotates(0, rounds)
    # brute force: walk the chain and re-key exactly when it runs out
    state = init_root(b"\x01" * 32, b"\x02" * 32, cfg)
    for rnd in range(1, rounds + 1):
        state, key = advance_symmetric(state)
        assert key_of(rnd, cfg) == (key.epoch, key.step)
        try:
            advance_symmetric(state)
            last = False
        except EpochExhausted:
            last = True
            state = advance_asymmetric(state, b"\x03" * 32, b"\x04" * 32)
        assert cfg.rotates(rnd, rounds) == (last and rnd < rounds)


def test_round_of_rejects_out_of_range_step():
    cfg = RatchetConfig((2, 3))
    with pytest.raises(ValueError):
        round_of(1, 3, cfg)
    with pytest.raises(ValueError):
        round_of(1, 0, cfg)


def test_variable_ranges_repeat_last_entry():
    cfg = RatchetConfig((2, 5))
    assert [cfg.epoch_length(e) for e in (1, 2, 3, 4)] == [2, 5, 5, 5]


def test_config_validation():
    with pytest.raises(ValueError):
        RatchetConfig(0)
    with pytest.raises(ValueError):
        RatchetConfig(())
    with pytest.raises(ValueError):
        RatchetConfig((3, 0))


# --- key hygiene -----------------------------------------------------------------

def test_model_key_single_use_per_direction():
    cfg = RatchetConfig(2)
    state = init_root(b"\x0b" * 32, b"\x0c" * 32, cfg)
    _, key = advance_symmetric(state)
    key.mark_used(0)
    key.mark_used(1)
    with pytest.raises(KeyReuse):
        key.mark_used(0)
    with pytest.raises(KeyReuse):
        key.mark_used(1)


def test_repr_hides_key_bytes():
    cfg = RatchetConfig(2)
    _, key = advance_symmetric(init_root(b"\x0d" * 32, b"\x0e" * 32, cfg))
    assert key.key.hex() not in repr(key)


def test_advanced_state_retains_no_spent_key_material():
    """Forward secrecy at the state level: a post-advance state holds neither
    the issued model key nor the chain key that made it."""
    cfg = RatchetConfig(4)
    state = init_root(b"\x0f" * 32, b"\x10" * 32, cfg)
    spent = [state.chain_key]
    for _ in range(4):
        state, key = advance_symmetric(state)
        held = {state.root_key, state.chain_key}
        assert key.key not in held
        assert not held & set(spent)
        spent.append(state.chain_key)


# --- compromise window -------------------------------------------------------------

def test_captured_state_rederives_exactly_the_epoch_remainder():
    cfg = RatchetConfig(5)
    state = init_root(b"\x11" * 32, b"\x12" * 32, cfg)
    honest = []
    snapshots = {}
    for i in range(1, 6):
        state, key = advance_symmetric(state)
        honest.append(key.key)
        snapshots[i] = state
    next_epoch_state = advance_asymmetric(state, b"\x13" * 32, b"\x14" * 32)
    next_epoch = []
    for _ in range(5):
        next_epoch_state, key = advance_symmetric(next_epoch_state)
        next_epoch.append(key.key)
    for i, captured in snapshots.items():
        derived = []
        while True:
            try:
                captured, key = advance_symmetric(captured)
            except EpochExhausted:
                break
            derived.append(key.key)
        assert derived == honest[i:]
        assert not set(derived) & set(next_epoch)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.binary(min_size=32, max_size=32))
def test_all_issued_keys_unique_across_epochs(length, epochs, seed):
    cfg = RatchetConfig(length)
    state = init_root(seed, seed[::-1], cfg)
    seen = set()
    for e in range(epochs):
        for _ in range(cfg.epoch_length(state.epoch)):
            state, key = advance_symmetric(state)
            assert key.key not in seen
            seen.add(key.key)
            assert key.round == round_of(key.epoch, key.step, cfg)
        state = advance_asymmetric(state, bytes([e]) * 32, seed)
