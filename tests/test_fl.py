"""Aggregation against a brute-force summation oracle; wire format hygiene."""

import hashlib
import math

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
