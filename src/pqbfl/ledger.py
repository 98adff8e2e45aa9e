"""Simulated single-writer ledger with smart-contract semantics for FL rounds.

Six transaction kinds drive a project's life cycle: the server registers a
project with an escrowed deposit and a key commitment, clients register with
their own key commitments, then each round publishes a task, collects model
updates, and scores them; finishing the project releases the escrow.  Every
accepted transaction emits one event and forms one block holding its sender
and that event.  The block list is the one log: the export prints its events,
and replaying its blocks under the same configuration rebuilds the same blocks
and the full contract state (balances included).

The contract state keeps each project's registration, its clients in block
order, its tasks by id, and each client's latest update per task.  Parties
read on-chain facts through keyed lookups on that state (`registration`,
`clients`, `task`, `update`, `current_keys`), as a real contract exposes
getters.

Payload accounting prices each event by the fields a real contract call would
carry as calldata: 32-byte hashes, 2-byte identifiers/counters/scores/
deadlines, 1-byte round numbers and termination flags.  Sender addresses,
block numbers and timestamps are envelope overhead, and fields the contract
fills in itself are not calldata; both are priced zero.  A project
registration plus one client registration totals exactly 100 bytes; a
publish/update/feedback round totals exactly 148, plus 32 per key-commitment
hash on key-rotation rounds.

Each priced field declares its width once, as metadata on its event field
(an integer also declares its allowed values; a hash may be optional, and an
empty one is not sent).  Pricing sums those widths, and every committed
block, live or replayed, is checked against them before it changes state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import Iterable

HASH_BYTES = 32
ADDRESS_BYTES = 20


class LedgerError(Exception):
    """Base class for rejected transactions.  State is never mutated on raise."""


class InsufficientDeposit(LedgerError):
    pass


class DuplicateProject(LedgerError):
    pass


class UnknownProject(LedgerError):
    pass


class ProjectFull(LedgerError):
    pass


class ProjectDone(LedgerError):
    pass


class NotProjectOwner(LedgerError):
    pass


class DuplicateClient(LedgerError):
    pass


class DuplicateTask(LedgerError):
    pass


class UnregisteredClient(LedgerError):
    pass


class UnknownTask(LedgerError):
    pass


class DeadlineExceeded(LedgerError):
    pass


class BadField(LedgerError):
    pass


class SimClock:
    """Logical clock injected by the harness; drives block times and deadlines."""

    def __init__(self, start: int = 0):
        self._now = int(start)

    def now(self) -> int:
        return self._now

    def advance(self, seconds: int) -> None:
        if seconds < 0:
            raise ValueError("clock cannot run backwards")
        self._now += int(seconds)


# --- events ---------------------------------------------------------------

def _int(width: int, allowed: range | None = None):
    """An integer priced as `width` bytes, unsigned unless `allowed` says otherwise."""
    return field(metadata={"width": width, "allowed": allowed or range(1 << 8 * width)})


def _hash(optional: bool = False):
    """A hash priced as its 32 bytes; an optional one may be empty, and is then free."""
    return field(metadata={"width": HASH_BYTES, "optional": optional})


@dataclass(frozen=True)
class RegProjectEvent:
    block: int
    time: int
    project_id: int = _int(2)
    capacity: int = _int(2, range(1, 0x10000))
    server: bytes
    h_model: bytes = _hash()
    h_keys: bytes = _hash()


@dataclass(frozen=True)
class RegClientEvent:
    block: int
    time: int
    project_id: int          # duplicates the registration topic, so unpriced
    client: bytes
    h_key: bytes = _hash()


@dataclass(frozen=True)
class TaskEvent:
    block: int
    time: int
    round: int = _int(1)
    h_info: bytes = _hash()
    h_keys: bytes = _hash(optional=True)
    project_id: int = _int(2)
    task_id: int = _int(2)
    client_count: int        # filled in by the contract
    deadline_window: int = _int(2)


@dataclass(frozen=True)
class UpdateEvent:
    block: int
    time: int
    round: int = _int(1)
    h_info: bytes = _hash()
    h_ct_key: bytes = _hash(optional=True)
    project_id: int = _int(2)
    task_id: int = _int(2)
    client: bytes


@dataclass(frozen=True)
class FeedbackEvent:
    block: int
    time: int
    round: int = _int(1)
    project_id: int = _int(2)
    task_id: int = _int(2)
    h_model: bytes = _hash()
    h_keys: bytes = _hash()
    client: bytes
    score: int = _int(2, range(-0x8000, 0x8000))
    terminate: int = _int(1, range(2))


@dataclass(frozen=True)
class ProjectTerminateEvent:
    block: int
    time: int
    project_id: int = _int(2)
    server: bytes


LedgerEvent = (
    RegProjectEvent
    | RegClientEvent
    | TaskEvent
    | UpdateEvent
    | FeedbackEvent
    | ProjectTerminateEvent
)


@cache
def _declared(cls: type) -> tuple:
    """(name, width, allowed integers or None for a hash, hash may be empty)
    of each priced field of an event class."""
    return tuple(
        (f.name, f.metadata["width"], f.metadata.get("allowed"), f.metadata.get("optional"))
        for f in fields(cls) if f.metadata
    )


def payload_size(event: LedgerEvent) -> int:
    """Priced calldata bytes of the transaction that emitted `event`: the
    declared widths of its fields, an empty optional hash not being sent
    (see module docstring)."""
    return sum(
        width for name, width, _, optional in _declared(type(event))
        if not (optional and getattr(event, name) == b"")
    )


def event_kind(event: LedgerEvent) -> str:
    return type(event).__name__.removesuffix("Event")


def format_event(event: LedgerEvent) -> str:
    """One line per event: kind, block, then fields in declaration order."""
    parts = [event_kind(event)]
    for f in fields(event):
        v = getattr(event, f.name)
        parts.append(f"{f.name}={v.hex() if isinstance(v, bytes) else v}")
    return " ".join(parts)


# --- internal state -------------------------------------------------------

@dataclass
class _Client:
    registration: RegClientEvent
    score: int = 0


@dataclass
class _Project:
    registration: RegProjectEvent
    h_model: bytes
    h_keys: bytes            # current key commitment; rotation tasks replace it
    escrow: int
    done: bool
    clients: dict[bytes, _Client]                        # in block order
    tasks: dict[int, TaskEvent]
    updates: dict[tuple[int, bytes], UpdateEvent]       # (task_id, client) -> latest


@dataclass(frozen=True)
class Block:
    """One accepted transaction; its index and time are fields of the event."""

    sender: bytes
    event: LedgerEvent


@dataclass(frozen=True)
class LedgerConfig:
    deposit: int = 1000
    initial_balance: int = 10_000


class Ledger:
    """In-process chain: one transaction per block, guards checked atomically."""

    def __init__(self, config: LedgerConfig | None = None, clock: SimClock | None = None):
        self.config = config or LedgerConfig()
        self.clock = clock or SimClock()
        self.blocks: list[Block] = []
        self._balances: dict[bytes, int] = {}
        self._projects: dict[int, _Project] = {}

    # -- helpers

    def balance_of(self, address: bytes) -> int:
        """Current balance; unseen accounts hold the configured initial balance."""
        self._check_address(address)
        return self._balances.get(address, self.config.initial_balance)

    @staticmethod
    def _check_address(address: bytes) -> None:
        if len(address) != ADDRESS_BYTES:
            raise BadField(f"address must be {ADDRESS_BYTES} bytes")

    def _project(self, project_id: int) -> _Project:
        try:
            return self._projects[project_id]
        except KeyError:
            raise UnknownProject(f"no project {project_id}") from None

    def _open_project(self, project_id: int) -> _Project:
        """The project a transaction acts on; it must exist and not be finished."""
        p = self._project(project_id)
        if p.done:
            raise ProjectDone(f"project {project_id} is finished")
        return p

    def _commit(self, sender: bytes, event: LedgerEvent) -> LedgerEvent:
        """Check the sender and every priced field, then apply and append."""
        self._check_address(sender)
        for name, width, allowed, optional in _declared(type(event)):
            value = getattr(event, name)
            if allowed is not None:
                if value not in allowed:
                    raise BadField(f"{name} out of range: {value}")
            elif len(value) != width and not (optional and value == b""):
                raise BadField(f"{name} must be {width} bytes")
        self._apply(event)
        self.blocks.append(Block(sender, event))
        return event

    # -- transaction entry points

    def register_project(
        self, sender: bytes, project_id: int, capacity: int,
        h_model: bytes, h_keys: bytes,
    ) -> RegProjectEvent:
        if project_id in self._projects:
            raise DuplicateProject(f"project {project_id} already registered")
        if self.balance_of(sender) < self.config.deposit:
            raise InsufficientDeposit(
                f"deposit {self.config.deposit} exceeds balance {self.balance_of(sender)}"
            )
        return self._commit(sender, RegProjectEvent(
            block=len(self.blocks), time=self.clock.now(),
            project_id=project_id, capacity=capacity, server=sender,
            h_model=h_model, h_keys=h_keys,
        ))

    def register_client(self, sender: bytes, project_id: int, h_key: bytes) -> RegClientEvent:
        p = self._open_project(project_id)
        if sender in p.clients:
            raise DuplicateClient("client already registered")
        if len(p.clients) >= p.registration.capacity:
            raise ProjectFull(f"project {project_id} has {p.registration.capacity} clients")
        return self._commit(sender, RegClientEvent(
            block=len(self.blocks), time=self.clock.now(),
            project_id=project_id, client=sender, h_key=h_key,
        ))

    def publish_task(
        self, sender: bytes, round: int, h_info: bytes, h_keys: bytes,
        project_id: int, task_id: int, deadline_window: int,
    ) -> TaskEvent:
        p = self._open_project(project_id)
        if p.registration.server != sender:
            raise NotProjectOwner("only the registering server publishes tasks")
        if task_id in p.tasks:
            raise DuplicateTask(f"task {task_id} already published")
        return self._commit(sender, TaskEvent(
            block=len(self.blocks), time=self.clock.now(),
            round=round, h_info=h_info, h_keys=h_keys,
            project_id=project_id, task_id=task_id,
            client_count=len(p.clients), deadline_window=deadline_window,
        ))

    def update_model(
        self, sender: bytes, round: int, h_info: bytes, h_ct_key: bytes,
        project_id: int, task_id: int,
    ) -> UpdateEvent:
        p = self._open_project(project_id)
        if sender not in p.clients:
            raise UnregisteredClient("client is not registered for this project")
        task = p.tasks.get(task_id)
        if task is None:
            raise UnknownTask(f"no task {task_id} in project {project_id}")
        if task.round != round:
            raise BadField(f"task {task_id} is for round {task.round}, not {round}")
        deadline = task.time + task.deadline_window
        if self.clock.now() > deadline:
            raise DeadlineExceeded(f"task {task_id} closed at {deadline}")
        return self._commit(sender, UpdateEvent(
            block=len(self.blocks), time=self.clock.now(),
            round=round, h_info=h_info, h_ct_key=h_ct_key,
            project_id=project_id, task_id=task_id, client=sender,
        ))

    def feedback_model(
        self, sender: bytes, round: int, project_id: int, task_id: int,
        client: bytes, score: int, terminate: int, h_model: bytes, h_keys: bytes,
    ) -> FeedbackEvent:
        p = self._open_project(project_id)
        if p.registration.server != sender:
            raise NotProjectOwner("only the registering server scores updates")
        if client not in p.clients:
            raise UnregisteredClient("scored client is not registered")
        if task_id not in p.tasks:
            raise UnknownTask(f"no task {task_id} in project {project_id}")
        return self._commit(sender, FeedbackEvent(
            block=len(self.blocks), time=self.clock.now(),
            round=round, project_id=project_id, task_id=task_id,
            h_model=h_model, h_keys=h_keys, client=client,
            score=score, terminate=terminate,
        ))

    def finish_project(self, sender: bytes, project_id: int) -> ProjectTerminateEvent:
        p = self._open_project(project_id)
        if p.registration.server != sender:
            raise NotProjectOwner("only the registering server finishes the project")
        return self._commit(sender, ProjectTerminateEvent(
            block=len(self.blocks), time=self.clock.now(),
            project_id=project_id, server=sender,
        ))

    # -- state transition shared by live execution and replay

    def _apply(self, event: LedgerEvent) -> None:
        if isinstance(event, RegProjectEvent):
            self._balances[event.server] = self.balance_of(event.server) - self.config.deposit
            self._projects[event.project_id] = _Project(
                registration=event, h_model=event.h_model, h_keys=event.h_keys,
                escrow=self.config.deposit, done=False, clients={}, tasks={}, updates={},
            )
        elif isinstance(event, RegClientEvent):
            self._projects[event.project_id].clients[event.client] = _Client(event)
        elif isinstance(event, TaskEvent):
            p = self._projects[event.project_id]
            p.tasks[event.task_id] = event
            if event.h_keys:
                p.h_keys = event.h_keys
        elif isinstance(event, UpdateEvent):
            p = self._projects[event.project_id]
            p.updates[(event.task_id, event.client)] = event
        elif isinstance(event, FeedbackEvent):
            p = self._projects[event.project_id]
            c = p.clients[event.client]
            c.score = max(0, c.score + event.score)
            p.h_model = event.h_model
        elif isinstance(event, ProjectTerminateEvent):
            p = self._projects[event.project_id]
            self._balances[event.server] = self.balance_of(event.server) + p.escrow
            p.escrow = 0
            p.done = True
        else:
            raise TypeError(f"not a ledger event: {event!r}")

    # -- queries

    def registration(self, project_id: int) -> RegProjectEvent:
        return self._project(project_id).registration

    def clients(self, project_id: int) -> list[RegClientEvent]:
        """The project's client registrations, in block order."""
        return [c.registration for c in self._project(project_id).clients.values()]

    def task(self, project_id: int, task_id: int) -> TaskEvent | None:
        return self._project(project_id).tasks.get(task_id)

    def update(self, project_id: int, task_id: int, client: bytes) -> UpdateEvent | None:
        """The client's latest update for the task, if it posted one."""
        return self._project(project_id).updates.get((task_id, client))

    def current_keys(self, project_id: int) -> bytes:
        """The server's key commitment as of the latest rotation task."""
        return self._project(project_id).h_keys

    def project_info(self, project_id: int) -> dict:
        p = self._project(project_id)
        return {
            "server": p.registration.server,
            "capacity": p.registration.capacity,
            "h_model": p.h_model,
            "h_keys": p.h_keys,
            "escrow": p.escrow,
            "done": p.done,
            "clients": {a: (c.registration.h_key, c.score) for a, c in p.clients.items()},
        }

    def score_of(self, project_id: int, client: bytes) -> int:
        p = self._project(project_id)
        if client not in p.clients:
            raise UnregisteredClient("client is not registered")
        return p.clients[client].score

    def total_balance(self) -> int:
        """Stored balances plus escrow.  Always equals initial_balance times
        the number of accounts that ever moved value: transactions only move
        units between balances and escrow, never mint or burn them."""
        return sum(self._balances.values()) + sum(
            p.escrow for p in self._projects.values()
        )

    def account_count(self) -> int:
        return len(self._balances)

    def onchain_bytes(self) -> int:
        return sum(payload_size(b.event) for b in self.blocks)

    def snapshot(self) -> dict:
        """Comparable view of the full contract state."""
        return {
            "balances": dict(self._balances),
            "projects": {
                pid: {
                    **self.project_info(pid),
                    "tasks": dict(p.tasks),
                    "updates": dict(p.updates),
                }
                for pid, p in self._projects.items()
            },
        }

    def export(self) -> str:
        """Line-delimited event log; identical state implies identical text."""
        return "".join(format_event(b.event) + "\n" for b in self.blocks)

    @classmethod
    def replay(cls, blocks: Iterable[Block], config: LedgerConfig | None = None) -> "Ledger":
        """Rebuild the blocks and the contract state under the same configuration."""
        fresh = cls(config=config)
        for b in blocks:
            fresh._commit(b.sender, b.event)
        return fresh
