"""Model vectors, deterministic local training, and weighted aggregation.

Aggregation is the literal per-coordinate rule
    M[k] = sum_i (w_i / N) * m_i[k]
with N the number of submitted updates, so unit weights give the plain
federated average.  Vectors travel as (length, round, tag, IEEE-754
big-endian doubles); anything truncated or non-finite is rejected.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

GLOBAL_TAG = "global"
_MAX_TAG = 255


@dataclass(eq=False)
class ModelVector:
    values: np.ndarray
    round: int
    tag: str = GLOBAL_TAG

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("model must be a non-empty 1-D vector")
        if not np.isfinite(v).all():
            raise ValueError("model entries must be finite")
        if self.round < 0:
            raise ValueError("round must be non-negative")
        tag = self.tag.encode()
        if not tag or len(tag) > _MAX_TAG:
            raise ValueError("tag must encode to 1..255 bytes")
        self.values = v


def local_train(
    global_model: ModelVector,
    participant_seed: int,
    noise_scale: float,
    round: int,
    tag: str = "local",
) -> ModelVector:
    """Simulated training step: global weights plus a seeded Gaussian delta.

    The delta depends on (participant_seed, round) only, so reruns reproduce
    the same update and distinct rounds produce distinct updates.
    """
    rng = np.random.default_rng((participant_seed, round))
    delta = rng.normal(0.0, noise_scale, global_model.values.size)
    return ModelVector(global_model.values + delta, round, tag)


def aggregate(models: list[ModelVector], weights: list[float] | None = None) -> ModelVector:
    """Weighted average of one round's updates into the next global model."""
    if not models:
        raise ValueError("nothing to aggregate")
    n = len(models)
    if weights is None:
        weights = [1.0] * n
    if len(weights) != n:
        raise ValueError(f"{n} models but {len(weights)} weights")
    if any(not np.isfinite(w) for w in weights):
        raise ValueError("weights must be finite")
    dim = models[0].values.size
    round = models[0].round
    for m in models:
        if m.values.size != dim:
            raise ValueError("models must share one dimension")
        if m.round != round:
            raise ValueError("models must come from the same round")
    acc = np.zeros(dim, dtype=np.float64)
    for w, m in zip(weights, models):
        acc += (w / n) * m.values
    return ModelVector(acc, round, GLOBAL_TAG)


def model_parts(model: ModelVector) -> list:
    """The serialized model as two parts for one `b"".join`: the header with
    the tag, then the values as an f64 big-endian array."""
    tag = model.tag.encode()
    header = struct.pack(">IIB", model.values.size, model.round, len(tag))
    return [header + tag, model.values.astype(">f8")]


def serialize_model(model: ModelVector) -> bytes:
    """(length u32, round u32, tag_len u8, tag, values f64 big-endian)."""
    return b"".join(model_parts(model))


def model_digest(model: ModelVector) -> bytes:
    """SHA-256 of `serialize_model(model)`, fed its parts without the join."""
    h = hashlib.sha256()
    for part in model_parts(model):
        h.update(part)
    return h.digest()


def deserialize_model(blob) -> ModelVector:
    """Decode any bytes-like blob; the values are copied once, into native order.

    `ModelVector` rejects non-finite entries.
    """
    view = memoryview(blob)
    if len(view) < 9:
        raise ValueError("truncated model header")
    size, round, tag_len = struct.unpack_from(">IIB", view)
    if len(view) != 9 + tag_len + 8 * size:
        raise ValueError("model length does not match header")
    tag = bytes(view[9 : 9 + tag_len]).decode()
    values = np.frombuffer(view, dtype=">f8", offset=9 + tag_len).astype(np.float64)
    return ModelVector(values, round, tag)
