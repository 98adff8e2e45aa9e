"""Aggregation against a brute-force summation oracle; wire format hygiene."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pqbfl import fl


def _brute_force(models, weights):
    n = len(models)
    return np.array(
        [
            math.fsum(w / n * m.values[k] for w, m in zip(weights, models))
            for k in range(models[0].values.size)
        ]
    )


# --- aggregation -------------------------------------------------------------

def test_unit_weights_average():
    models = [fl.ModelVector(np.full(4, float(i + 1)), 3, f"m{i}") for i in range(3)]
    agg = fl.aggregate(models)
    assert np.allclose(agg.values, np.full(4, 2.0), atol=0, rtol=0)
    assert agg.round == 3 and agg.tag == fl.GLOBAL_TAG


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, 64),
            st.lists(
                st.floats(min_value=-0.9, max_value=1.1, allow_nan=False),
                min_size=n,
                max_size=n,
            ),
            st.integers(0, 1000),
        )
    )
)
def test_aggregate_matches_brute_force(params):
    n, dim, weights, seed = params
    rng = np.random.default_rng(seed)
    models = [
        fl.ModelVector(rng.normal(0, 10, dim), 1, f"c{i}") for i in range(n)
    ]
    agg = fl.aggregate(models, weights)
    oracle = _brute_force(models, weights)
    assert np.max(np.abs(agg.values - oracle)) <= 1e-12


def _list_average(models, weights):
    """The list rule as written before the fold: a zero vector plus each
    update scaled by w / n, in list order."""
    acc = np.zeros(models[0].values.size)
    for w, m in zip(weights, models):
        acc += (w / len(models)) * m.values
    return acc


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.integers(1, 40).flatmap(
                lambda dim: st.lists(
                    arrays(np.float64, dim, elements=st.floats(
                        min_value=-1e300, max_value=1e300, allow_nan=False)),
                    min_size=n, max_size=n,
                )
            ),
            st.one_of(
                st.none(),
                st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                         min_size=n, max_size=n),
            ),
        )
    )
)
def test_running_average_is_the_list_average_bitwise(params):
    values, weights = params
    models = [fl.ModelVector(v, 4, f"c{i}") for i, v in enumerate(values)]
    unit = [1.0] * len(models)
    total = fl.RunningAverage(len(models), models[0].values.size)
    for w, m in zip(weights or unit, models):   # as updates arrive, one at a time
        total.add(m, w)
    folded = total.result()
    listed = fl.aggregate(models, weights)
    expected = _list_average(models, weights or unit)
    assert folded.values.tobytes() == listed.values.tobytes() == expected.tobytes()
    assert folded.round == listed.round == 4


def test_a_wide_fold_is_bitwise_the_list_average_and_holds_no_full_size_temporary():
    dim = 3 * fl._DIGEST_CHUNK + 5   # crosses every chunk boundary
    rng = np.random.default_rng(8)
    models = [fl.ModelVector(rng.normal(0, 1, dim), 2, f"c{i}") for i in range(3)]
    kept = [m.values.copy() for m in models]
    total = fl.RunningAverage(3, dim)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for m in models:
            total.add(m, 1.5)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * dim / 2
    expected = _list_average(models, [1.5] * 3)
    assert total.result().values.tobytes() == expected.tobytes()
    assert all(np.array_equal(m.values, k) for m, k in zip(models, kept))


def test_running_average_takes_exactly_its_planned_updates():
    m = fl.ModelVector(np.ones(3), 2, "a")
    total = fl.RunningAverage(2, 3)
    with pytest.raises(ValueError):
        total.result()                  # one update still missing
    total.add(m)
    with pytest.raises(ValueError):
        total.add(fl.ModelVector(np.ones(4), 2, "b"))
    with pytest.raises(ValueError):
        total.add(fl.ModelVector(np.ones(3), 3, "b"))
    total.add(m)
    with pytest.raises(ValueError):
        total.add(m)                    # beyond the planned count
    assert np.array_equal(total.result().values, np.ones(3))
    with pytest.raises(ValueError):
        fl.RunningAverage(0, 3)


def test_local_train_is_global_plus_delta_and_keeps_its_input():
    base = fl.ModelVector(np.linspace(-3, 3, 9), 1)
    before = base.values.copy()
    local = fl.local_train(base, 42, 0.1, 2)
    delta = np.random.default_rng((42, 2)).normal(0.0, 0.1, 9)
    assert local.values.tobytes() == (before + delta).tobytes()
    assert np.array_equal(base.values, before)
    assert not np.shares_memory(local.values, base.values)


def test_aggregate_linearity_in_weights():
    rng = np.random.default_rng(5)
    models = [fl.ModelVector(rng.normal(size=8), 1, f"c{i}") for i in range(4)]
    a = fl.aggregate(models, [1.0, 0.0, 0.0, 0.0])
    b = fl.aggregate(models, [0.0, 1.0, 0.0, 0.0])
    ab = fl.aggregate(models, [1.0, 1.0, 0.0, 0.0])
    assert np.allclose(a.values + b.values, ab.values, atol=1e-15)


def test_aggregate_validation():
    with pytest.raises(ValueError):
        fl.aggregate([])
    m = fl.ModelVector(np.ones(4), 1, "a")
    with pytest.raises(ValueError):
        fl.aggregate([m], [1.0, 2.0])
    with pytest.raises(ValueError):
        fl.aggregate([m, fl.ModelVector(np.ones(5), 1, "b")])
    with pytest.raises(ValueError):
        fl.aggregate([m, fl.ModelVector(np.ones(4), 2, "b")])
    with pytest.raises(ValueError):
        fl.aggregate([m], [float("inf")])


# --- model vector hygiene -------------------------------------------------------

def test_model_vector_validation():
    with pytest.raises(ValueError):
        fl.ModelVector(np.array([[1.0, 2.0]]), 0, "x")  # 2-D
    with pytest.raises(ValueError):
        fl.ModelVector(np.array([]), 0, "x")
    with pytest.raises(ValueError):
        fl.ModelVector(np.array([np.nan]), 0, "x")
    with pytest.raises(ValueError):
        fl.ModelVector(np.ones(2), -1, "x")
    with pytest.raises(ValueError):
        fl.ModelVector(np.ones(2), 0, "")
    with pytest.raises(ValueError):
        fl.ModelVector(np.ones(2), 0, "t" * 256)


def test_local_train_is_deterministic_and_round_sensitive():
    base = fl.ModelVector(np.zeros(16), 0)
    a = fl.local_train(base, 42, 0.1, 1)
    b = fl.local_train(base, 42, 0.1, 1)
    c = fl.local_train(base, 42, 0.1, 2)
    d = fl.local_train(base, 43, 0.1, 1)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, d.values)
    assert a.round == 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.one_of(st.sampled_from([0.0, 1.0, 1e-310, 1e300, 1e304]),
              st.floats(0, 1e304, allow_nan=False)),
    st.integers(0, 255),
    st.integers(1, 3000),
)
def test_a_delta_drawn_ahead_trains_bitwise_as_local_train(seed, scale, rnd, dim):
    base = fl.ModelVector(np.random.default_rng(dim).normal(0, 1, dim), rnd)
    oracle = base.values + np.random.default_rng((seed, rnd)).normal(0.0, scale, dim)
    trained = fl.local_train(base, seed, scale, rnd)
    ahead = fl.local_train(base, seed, scale, rnd, delta=fl.delta_job(seed, scale, rnd, dim)())
    assert trained.values.tobytes() == ahead.values.tobytes() == oracle.tobytes()
    assert trained.round == ahead.round == rnd


def test_a_delta_of_another_dimension_is_refused():
    base = fl.ModelVector(np.zeros(4), 1)
    with pytest.raises(ValueError):
        fl.local_train(base, 1, 0.1, 1, delta=fl.delta_job(1, 0.1, 1, 1)())


# --- serialization ----------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 48),
        elements=st.floats(
            min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
        ),
    ),
    st.integers(0, 2**32 - 1),
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=20,
    ),
)
def test_serialize_roundtrip(values, round, tag):
    m = fl.ModelVector(values, round, tag)
    blob = fl.serialize_model(m)
    back = fl.deserialize_model(blob)
    assert np.array_equal(back.values, m.values)
    assert back.round == m.round and back.tag == m.tag
    assert fl.model_digest(m) == hashlib.sha256(blob).digest()


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, st.integers(1, 48), elements=st.floats(allow_nan=False, allow_infinity=False)),
    st.integers(0, 2**32 - 1),
)
def test_deserializing_a_writable_buffer_is_zero_copy(values, round):
    blob = fl.serialize_model(fl.ModelVector(values, round, "w"))
    copied = fl.deserialize_model(blob)
    owned = bytearray(blob)
    viewed = fl.deserialize_model(memoryview(owned)[:])   # as a payload field hands it over
    assert np.shares_memory(viewed.values, np.frombuffer(owned, np.uint8))
    assert viewed.values.tobytes() == copied.values.tobytes() == values.tobytes()
    assert (viewed.round, viewed.tag) == (copied.round, copied.tag) == (round, "w")
    # a read-only input is left as it was: its values are copied
    assert not np.shares_memory(copied.values, np.frombuffer(blob, np.uint8))
    assert fl.serialize_model(copied) == blob


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda n: arrays(np.float64, n, elements=st.one_of(
        st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)))),
    st.integers(0, 2**32 - 1),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40).filter(
        lambda t: len(t.encode()) <= 255),
)
def test_the_wire_bytes_digest_is_the_model_digest(values, round, tag):
    # a receiver hashes a task model's wire bytes before decoding swaps them
    wire = bytearray(fl.serialize_model(fl.ModelVector(values, round, tag)))
    digest = hashlib.sha256(wire).digest()
    assert fl.model_digest(memoryview(wire)) == digest
    decoded = fl.deserialize_model(wire)
    assert fl.model_digest(decoded) == digest
    assert decoded.values.tobytes() == values.tobytes() and decoded.tag == tag


def test_model_digest_hashes_the_serialization_across_chunks():
    m = fl.ModelVector(np.random.default_rng(2).normal(0, 1, 3 * fl._DIGEST_CHUNK + 5), 3, "d")
    assert fl.model_digest(m) == hashlib.sha256(fl.serialize_model(m)).digest()


def test_serialization_rejects_truncation_and_nonfinite():
    blob = fl.serialize_model(fl.ModelVector(np.ones(4), 1, "t"))
    with pytest.raises(ValueError):
        fl.deserialize_model(blob[:-1])
    with pytest.raises(ValueError):
        fl.deserialize_model(blob + b"\x00")
    with pytest.raises(ValueError):
        fl.deserialize_model(blob[:5])
    poisoned = bytearray(blob)
    poisoned[-8:] = np.array([np.inf]).astype(">f8").tobytes()
    with pytest.raises(ValueError):
        fl.deserialize_model(bytes(poisoned))


def test_serialization_is_canonical():
    m = fl.ModelVector(np.linspace(-1, 1, 7), 9, "abc")
    assert fl.serialize_model(m) == fl.serialize_model(m)
    m2 = fl.ModelVector(m.values.copy(), 9, "abc")
    assert fl.serialize_model(m) == fl.serialize_model(m2)
