"""Dual key ratchet: per-epoch root keys, per-round chain and model keys.

An epoch starts when both sides feed fresh KEM + ECDH shared secrets into the
root chain (asymmetric step) and then yields at most L_j model keys through
the symmetric chain, one per round.  States are immutable; every advance
returns a new state, which keeps captured-state reasoning (what an attacker
who copies memory at round i can and cannot derive) directly testable.

Derivation layout, all HKDF-SHA384:
    RK_1     = hkdf(salt=00*48, ikm=ss_kem || ss_dh,   label="pqbfl-root")
    RK_{j+1} = hkdf(salt=RK_j,  ikm=ss_kem' || ss_dh', label="pqbfl-root")
    CK_{0,j} = hkdf(salt=00*48, ikm=RK_j,              label="chain-init")
    CK_{i,j} = hkdf(salt=00*48, ikm=CK_{i-1,j},        label="chain")
    K_{i,j}  = hkdf(salt=00*48, ikm=CK_{i-1,j},        label="model")

Chain keys never leave the state; model keys are returned once and never
stored, so a state retains nothing that re-derives past rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import hkdf

LABEL_ROOT = b"pqbfl-root"
LABEL_CHAIN_INIT = b"chain-init"
LABEL_CHAIN = b"chain"
LABEL_MODEL = b"model"

_ZERO_SALT = bytes(48)


class EpochExhausted(Exception):
    """The symmetric chain hit its per-epoch limit; a fresh key exchange is due."""


class KeyReuse(Exception):
    """A model key was offered the same direction twice."""


@dataclass(frozen=True)
class RatchetConfig:
    """symmetric_range: keys per epoch, one int (fixed) or a sequence (per epoch).

    A sequence shorter than the number of epochs repeats its last entry.
    """

    symmetric_range: int | tuple[int, ...]

    def __post_init__(self):
        r = self.symmetric_range
        if isinstance(r, int):
            if r < 1:
                raise ValueError("symmetric range must be >= 1")
        else:
            r = tuple(int(x) for x in r)
            if not r or any(x < 1 for x in r):
                raise ValueError("symmetric range entries must be >= 1")
            object.__setattr__(self, "symmetric_range", r)

    def epoch_length(self, epoch: int) -> int:
        if epoch < 1:
            raise ValueError("epochs are numbered from 1")
        r = self.symmetric_range
        if isinstance(r, int):
            return r
        return r[min(epoch - 1, len(r) - 1)]

    def rotates(self, round: int, rounds: int) -> bool:
        """Whether round `round` of `rounds` re-keys: its key is the last of its
        epoch and another round follows."""
        epoch, step = key_of(round, self)
        return step == self.epoch_length(epoch) and round < rounds


class ModelKey:
    """One round's encryption key.  Usable at most once per direction."""

    __slots__ = ("key", "epoch", "step", "round", "_used")

    def __init__(self, key: bytes, epoch: int, step: int, round: int):
        self.key = key
        self.epoch = epoch
        self.step = step
        self.round = round
        self._used: set[int] = set()

    def mark_used(self, direction: int) -> None:
        if direction in self._used:
            raise KeyReuse(
                f"model key for round {self.round} already used in direction {direction}"
            )
        self._used.add(direction)

    def __repr__(self) -> str:  # key bytes deliberately not shown
        return f"ModelKey(epoch={self.epoch}, step={self.step}, round={self.round})"


@dataclass(frozen=True)
class RatchetState:
    root_key: bytes
    chain_key: bytes
    epoch: int
    step: int
    config: RatchetConfig


def init_root(ss_kem: bytes, ss_dh: bytes, config: RatchetConfig) -> RatchetState:
    """Derive the first root key from the hybrid shared secrets: the
    asymmetric step from an empty root, since HMAC pads an empty salt to the
    same zero block as `_ZERO_SALT`."""
    return advance_asymmetric(RatchetState(b"", b"", 0, 0, config), ss_kem, ss_dh)


def advance_symmetric(state: RatchetState) -> tuple[RatchetState, ModelKey]:
    """Step the chain once; returns the new state and this round's model key."""
    limit = state.config.epoch_length(state.epoch)
    if state.step >= limit:
        raise EpochExhausted(
            f"epoch {state.epoch} issued all {limit} keys; asymmetric step required"
        )
    ck = hkdf(_ZERO_SALT, state.chain_key, LABEL_CHAIN, 32)
    k = hkdf(_ZERO_SALT, state.chain_key, LABEL_MODEL, 32)
    step = state.step + 1
    nxt = RatchetState(
        root_key=state.root_key,
        chain_key=ck,
        epoch=state.epoch,
        step=step,
        config=state.config,
    )
    return nxt, ModelKey(k, state.epoch, step, round_of(state.epoch, step, state.config))


def advance_asymmetric(
    state: RatchetState, ss_kem: bytes, ss_dh: bytes
) -> RatchetState:
    """Fold fresh shared secrets into the root chain and open the next epoch."""
    if len(ss_kem) != 32 or len(ss_dh) != 32:
        raise ValueError("shared secrets must be 32 bytes each")
    rk = hkdf(state.root_key, ss_kem + ss_dh, LABEL_ROOT, 32)
    ck = hkdf(_ZERO_SALT, rk, LABEL_CHAIN_INIT, 32)
    return RatchetState(
        root_key=rk, chain_key=ck, epoch=state.epoch + 1, step=0, config=state.config
    )


def round_of(epoch: int, step: int, config: RatchetConfig) -> int:
    """Global round index of key (epoch, step): earlier epochs' lengths, then step."""
    if not 1 <= step <= config.epoch_length(epoch):
        raise ValueError(
            f"step {step} outside 1..{config.epoch_length(epoch)} for epoch {epoch}"
        )
    return sum(config.epoch_length(j) for j in range(1, epoch)) + step


def key_of(round: int, config: RatchetConfig) -> tuple[int, int]:
    """(epoch, step) of round `round`'s key, inverting `round_of`; round 0 is (1, 0)."""
    epoch = 1
    while round > config.epoch_length(epoch):
        round, epoch = round - config.epoch_length(epoch), epoch + 1
    return epoch, round
