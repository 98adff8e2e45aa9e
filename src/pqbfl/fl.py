"""Model vectors, deterministic local training, and weighted aggregation.

Aggregation is the literal per-coordinate rule
    M[k] = sum_i (w_i / N) * m_i[k]
with N the number of submitted updates, so unit weights give the plain
federated average; it is folded one update at a time (`RunningAverage`), so
a round holds one running sum rather than every update.  Training noise can
be drawn ahead, on another thread (`delta_job`), bitwise as `local_train`
draws it.  Vectors travel as
(length, round, tag, IEEE-754 big-endian doubles); anything truncated or
non-finite is rejected.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

GLOBAL_TAG = "global"
_MAX_TAG = 255
_WIRE = np.dtype(">f8")   # how values travel: IEEE-754 binary64, big-endian


@dataclass(eq=False)
class ModelVector:
    values: np.ndarray
    round: int
    tag: str = GLOBAL_TAG

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("model must be a non-empty 1-D vector")
        # min and max propagate NaN, so this is `isfinite(v).all()` without
        # a mask as long as the model
        if not (np.isfinite(v.min()) and np.isfinite(v.max())):
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
    *,
    delta: np.ndarray | None = None,
) -> ModelVector:
    """Simulated training step: global weights plus a seeded Gaussian delta.

    The delta depends on (participant_seed, round) only, so reruns reproduce
    the same update and distinct rounds produce distinct updates.  It is
    drawn here, or ahead of the call (`delta_job`, which may run on another
    thread) and passed as `delta`, which this call consumes.  The global
    weights are added into the delta in place, which is bitwise the same sum
    (IEEE 754 addition commutes), so training makes one new vector.
    """
    if delta is None:
        delta = _draw(participant_seed, noise_scale, round, np.empty(global_model.values.size))
    elif delta.shape != global_model.values.shape:
        raise ValueError("delta and model must share one dimension")
    delta += global_model.values
    return ModelVector(delta, round, tag)


def delta_job(participant_seed: int, noise_scale: float, round: int, dim: int):
    """A job that draws `local_train`'s delta, to be run elsewhere: it draws
    into a buffer this call allocates, on the caller's thread, and returns
    it for `local_train`'s `delta`."""
    out = np.empty(dim)
    return lambda: _draw(participant_seed, noise_scale, round, out)


def _draw(participant_seed: int, noise_scale: float, round: int, out: np.ndarray) -> np.ndarray:
    """Bitwise `rng.normal(0.0, noise_scale, out.size)`, drawn into `out`:
    normal's value is loc + scale * z, and adding loc = 0.0 turns the -0.0
    of a zero scale into 0.0, as normal does."""
    rng = np.random.default_rng((participant_seed, round))
    rng.standard_normal(out=out)
    out *= noise_scale
    out += 0.0
    return out


class RunningAverage:
    """The aggregation rule folded over updates as they arrive.

    `n` is the number of updates the round will add, so each one is scaled by
    its `w / n` and summed into one running vector in arrival order; the
    result is bitwise what summing a list of the same updates gives.  An
    update is scaled and summed a chunk at a time, so the fold holds no
    full-size temporary and leaves the caller's model as it was.
    """

    def __init__(self, n: int, dim: int):
        if n < 1:
            raise ValueError("nothing to aggregate")
        self.n = n
        self.added = 0
        self.round: int | None = None
        self._sum = np.zeros(dim, dtype=np.float64)

    def add(self, model: ModelVector, weight: float = 1.0) -> None:
        if self.added == self.n:
            raise ValueError(f"all {self.n} updates already added")
        if model.values.size != self._sum.size:
            raise ValueError("models must share one dimension")
        if self.round is None:
            self.round = model.round
        elif model.round != self.round:
            raise ValueError("models must come from the same round")
        scale, values = weight / self.n, model.values
        for start in range(0, values.size, _DIGEST_CHUNK):
            end = start + _DIGEST_CHUNK
            self._sum[start:end] += scale * values[start:end]
        self.added += 1

    def result(self) -> ModelVector:
        """The next global model, once all `n` updates are in."""
        if self.added != self.n:
            raise ValueError(f"{self.added} of {self.n} updates added")
        return ModelVector(self._sum, self.round, GLOBAL_TAG)


def aggregate(models: list[ModelVector], weights: list[float] | None = None) -> ModelVector:
    """Weighted average of one round's updates into the next global model,
    folded in list order by `RunningAverage`."""
    if not models:
        raise ValueError("nothing to aggregate")
    n = len(models)
    if weights is None:
        weights = [1.0] * n
    if len(weights) != n:
        raise ValueError(f"{n} models but {len(weights)} weights")
    if any(not np.isfinite(w) for w in weights):
        raise ValueError("weights must be finite")
    total = RunningAverage(n, models[0].values.size)
    for w, m in zip(weights, models):
        total.add(m, w)
    return total.result()


def _header(model: ModelVector) -> bytes:
    tag = model.tag.encode()
    return struct.pack(">IIB", model.values.size, model.round, len(tag)) + tag


class WireModel:
    """`serialize_model(model)` as a writer: a wire encoder sizes its buffer
    by `nbytes` and has `write_into` store the header and the values, f64
    big-endian, straight into it, so no serialized copy is made first."""

    __slots__ = ("header", "values")

    def __init__(self, model: ModelVector):
        self.header, self.values = _header(model), model.values

    @property
    def nbytes(self) -> int:
        return len(self.header) + _WIRE.itemsize * self.values.size

    def write_into(self, out: memoryview) -> None:
        n = len(self.header)
        out[:n] = self.header
        np.frombuffer(out[n:], dtype=_WIRE)[...] = self.values


def serialize_model(model: ModelVector) -> bytes:
    """(length u32, round u32, tag_len u8, tag, values f64 big-endian)."""
    return b"".join((_header(model), model.values.astype(_WIRE)))


_DIGEST_CHUNK = 1 << 12   # values byte-swapped per hash update, or folded per step: 32 KiB


def model_digest(model) -> bytes:
    """SHA-256 of `serialize_model(model)`, fed in chunks so that no
    serialized copy of the model is made.  Given a model's wire bytes (any
    bytes-like object) instead, it hashes them as they are: for every blob
    `deserialize_model` accepts, that is the digest of the model it decodes,
    since decoding is exact and the tag is strict UTF-8."""
    if not isinstance(model, ModelVector):
        return hashlib.sha256(model).digest()
    h = hashlib.sha256(_header(model))
    values = model.values
    for start in range(0, values.size, _DIGEST_CHUNK):
        h.update(values[start : start + _DIGEST_CHUNK].astype(_WIRE))
    return h.digest()


def deserialize_model(blob) -> ModelVector:
    """Decode any bytes-like blob.  A writable blob is consumed: its values are
    byte-swapped in place and the model views them, so the caller must not
    read the blob afterwards.  A read-only blob's values are copied once.

    `ModelVector` rejects non-finite entries.
    """
    view = memoryview(blob)
    if len(view) < 9:
        raise ValueError("truncated model header")
    size, round, tag_len = struct.unpack_from(">IIB", view)
    if len(view) != 9 + tag_len + 8 * size:
        raise ValueError("model length does not match header")
    tag = bytes(view[9 : 9 + tag_len]).decode()
    values = np.frombuffer(view, dtype=_WIRE, offset=9 + tag_len)
    if view.readonly:
        values = values.astype(np.float64)
    elif values.dtype != np.float64:   # a big-endian host has nothing to swap
        values = values.byteswap(inplace=True).view(np.float64)
    return ModelVector(values, round, tag)
