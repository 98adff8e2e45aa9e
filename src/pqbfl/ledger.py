"""Simulated single-writer ledger with smart-contract semantics for FL rounds.

Six transaction kinds drive a project's life cycle: the server registers a
project with an escrowed deposit and a key commitment, clients register with
their own key commitments, then each round publishes a task, collects model
updates, and scores them; finishing the project releases the escrow.  Every
accepted transaction emits one event and forms one block holding its sender
and that event; events are the source of truth, and replaying them under the
same configuration reconstructs the full ledger state (balances included).

Payload accounting prices each event by the fields a real contract call would
carry as calldata: 32-byte hashes, 2-byte identifiers/counters/scores/
deadlines, 1-byte round numbers and termination flags.  Sender addresses,
block numbers and timestamps are envelope overhead, and fields the contract
fills in itself are not calldata; both are priced zero.  A project
registration plus one client registration totals exactly 100 bytes; a
publish/update/feedback round totals exactly 148, plus 32 per key-commitment
hash on key-rotation rounds.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
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

@dataclass(frozen=True)
class RegProjectEvent:
    block: int
    time: int
    project_id: int
    capacity: int
    server: bytes
    h_model: bytes
    h_keys: bytes


@dataclass(frozen=True)
class RegClientEvent:
    block: int
    time: int
    project_id: int
    client: bytes
    h_key: bytes


@dataclass(frozen=True)
class TaskEvent:
    block: int
    time: int
    round: int
    h_info: bytes
    h_keys: bytes
    project_id: int
    task_id: int
    client_count: int
    deadline_window: int


@dataclass(frozen=True)
class UpdateEvent:
    block: int
    time: int
    round: int
    h_info: bytes
    h_ct_key: bytes
    project_id: int
    task_id: int
    client: bytes


@dataclass(frozen=True)
class FeedbackEvent:
    block: int
    time: int
    round: int
    project_id: int
    task_id: int
    h_model: bytes
    h_keys: bytes
    client: bytes
    score: int
    terminate: int


@dataclass(frozen=True)
class ProjectTerminateEvent:
    block: int
    time: int
    project_id: int
    server: bytes


LedgerEvent = (
    RegProjectEvent
    | RegClientEvent
    | TaskEvent
    | UpdateEvent
    | FeedbackEvent
    | ProjectTerminateEvent
)

_EVENT_KINDS = {
    RegProjectEvent: "RegProject",
    RegClientEvent: "RegClient",
    TaskEvent: "Task",
    UpdateEvent: "Update",
    FeedbackEvent: "Feedback",
    ProjectTerminateEvent: "ProjectTerminate",
}


def payload_size(event: LedgerEvent) -> int:
    """Priced calldata bytes of the transaction that emitted `event` (see
    module docstring); a task's client count is filled in by the contract."""
    if isinstance(event, RegProjectEvent):
        return HASH_BYTES + HASH_BYTES + 2 + 2
    if isinstance(event, RegClientEvent):
        # The project reference duplicates the registration topic; priced zero
        # so a server+client registration pair costs exactly 100 bytes.
        return HASH_BYTES
    if isinstance(event, TaskEvent):
        return 1 + HASH_BYTES + (HASH_BYTES if event.h_keys else 0) + 2 + 2 + 2
    if isinstance(event, UpdateEvent):
        return 1 + HASH_BYTES + (HASH_BYTES if event.h_ct_key else 0) + 2 + 2
    if isinstance(event, FeedbackEvent):
        return 1 + HASH_BYTES + HASH_BYTES + 2 + 2 + 2 + 1
    if isinstance(event, ProjectTerminateEvent):
        return 2
    raise TypeError(f"not a ledger event: {event!r}")


def event_kind(event: LedgerEvent) -> str:
    return _EVENT_KINDS[type(event)]


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
    h_key: bytes
    score: int = 0


@dataclass
class _Task:
    round: int
    deadline: int            # absolute time
    h_info: bytes


@dataclass
class _Project:
    server: bytes
    capacity: int
    h_model: bytes
    h_keys: bytes
    escrow: int
    done: bool
    clients: dict[bytes, _Client]
    tasks: dict[int, _Task]


@dataclass(frozen=True)
class Block:
    """One accepted transaction; its index and time are fields of the event."""

    sender: bytes
    event: LedgerEvent


@dataclass(frozen=True)
class LedgerConfig:
    deposit: int = 1000
    initial_balance: int = 10_000


class Subscription:
    """Cursor over the event log; poll() returns events appended since last poll."""

    def __init__(self, ledger: "Ledger", kinds: frozenset[str] | None, start: int):
        self._ledger = ledger
        self._kinds = kinds
        self._cursor = start

    def poll(self) -> list[LedgerEvent]:
        log = self._ledger.events
        out = [
            e
            for e in log[self._cursor :]
            if self._kinds is None or event_kind(e) in self._kinds
        ]
        self._cursor = len(log)
        return out


class Ledger:
    """In-process chain: one transaction per block, guards checked atomically."""

    def __init__(self, config: LedgerConfig | None = None, clock: SimClock | None = None):
        self.config = config or LedgerConfig()
        self.clock = clock or SimClock()
        self.blocks: list[Block] = []
        self.events: list[LedgerEvent] = []
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

    def _commit(self, sender: bytes, event: LedgerEvent) -> LedgerEvent:
        self._apply(event)
        self.blocks.append(Block(sender, event))
        self.events.append(event)
        return event

    @staticmethod
    def _check_hash(name: str, value: bytes, allow_empty: bool = False) -> None:
        if allow_empty and value == b"":
            return
        if len(value) != HASH_BYTES:
            raise BadField(f"{name} must be {HASH_BYTES} bytes")

    @staticmethod
    def _check_u16(name: str, value: int) -> None:
        if not 0 <= value <= 0xFFFF:
            raise BadField(f"{name} out of 2-byte range: {value}")

    @staticmethod
    def _check_u8(name: str, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise BadField(f"{name} out of 1-byte range: {value}")

    # -- transaction entry points

    def register_project(
        self, sender: bytes, project_id: int, capacity: int,
        h_model: bytes, h_keys: bytes,
    ) -> RegProjectEvent:
        self._check_address(sender)
        self._check_u16("project_id", project_id)
        self._check_u16("capacity", capacity)
        if capacity < 1:
            raise BadField("capacity must be at least 1")
        self._check_hash("h_model", h_model)
        self._check_hash("h_keys", h_keys)
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
        self._check_address(sender)
        self._check_hash("h_key", h_key)
        p = self._project(project_id)
        if p.done:
            raise ProjectDone(f"project {project_id} is finished")
        if sender in p.clients:
            raise DuplicateClient("client already registered")
        if len(p.clients) >= p.capacity:
            raise ProjectFull(f"project {project_id} has {p.capacity} clients")
        return self._commit(sender, RegClientEvent(
            block=len(self.blocks), time=self.clock.now(),
            project_id=project_id, client=sender, h_key=h_key,
        ))

    def publish_task(
        self, sender: bytes, round: int, h_info: bytes, h_keys: bytes,
        project_id: int, task_id: int, deadline_window: int,
    ) -> TaskEvent:
        self._check_address(sender)
        self._check_u8("round", round)
        self._check_u16("task_id", task_id)
        self._check_u16("deadline_window", deadline_window)
        self._check_hash("h_info", h_info)
        self._check_hash("h_keys", h_keys, allow_empty=True)
        p = self._project(project_id)
        if p.done:
            raise ProjectDone(f"project {project_id} is finished")
        if p.server != sender:
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
        self._check_address(sender)
        self._check_u8("round", round)
        self._check_hash("h_info", h_info)
        self._check_hash("h_ct_key", h_ct_key, allow_empty=True)
        p = self._project(project_id)
        if p.done:
            raise ProjectDone(f"project {project_id} is finished")
        if sender not in p.clients:
            raise UnregisteredClient("client is not registered for this project")
        task = p.tasks.get(task_id)
        if task is None:
            raise UnknownTask(f"no task {task_id} in project {project_id}")
        if task.round != round:
            raise BadField(f"task {task_id} is for round {task.round}, not {round}")
        if self.clock.now() > task.deadline:
            raise DeadlineExceeded(f"task {task_id} closed at {task.deadline}")
        return self._commit(sender, UpdateEvent(
            block=len(self.blocks), time=self.clock.now(),
            round=round, h_info=h_info, h_ct_key=h_ct_key,
            project_id=project_id, task_id=task_id, client=sender,
        ))

    def feedback_model(
        self, sender: bytes, round: int, project_id: int, task_id: int,
        client: bytes, score: int, terminate: int, h_model: bytes, h_keys: bytes,
    ) -> FeedbackEvent:
        self._check_address(sender)
        self._check_u8("round", round)
        if not -0x8000 <= score <= 0x7FFF:
            raise BadField(f"score out of 2-byte range: {score}")
        if terminate not in (0, 1):
            raise BadField("terminate flag must be 0 or 1")
        self._check_hash("h_model", h_model)
        self._check_hash("h_keys", h_keys)
        p = self._project(project_id)
        if p.done:
            raise ProjectDone(f"project {project_id} is finished")
        if p.server != sender:
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
        self._check_address(sender)
        p = self._project(project_id)
        if p.done:
            raise ProjectDone(f"project {project_id} already finished")
        if p.server != sender:
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
                server=event.server, capacity=event.capacity,
                h_model=event.h_model, h_keys=event.h_keys,
                escrow=self.config.deposit, done=False, clients={}, tasks={},
            )
        elif isinstance(event, RegClientEvent):
            self._projects[event.project_id].clients[event.client] = _Client(
                h_key=event.h_key
            )
        elif isinstance(event, TaskEvent):
            p = self._projects[event.project_id]
            p.tasks[event.task_id] = _Task(
                round=event.round,
                deadline=event.time + event.deadline_window,
                h_info=event.h_info,
            )
            if event.h_keys:
                p.h_keys = event.h_keys
        elif isinstance(event, UpdateEvent):
            pass  # recorded on chain; no contract state beyond the log
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

    def project_info(self, project_id: int) -> dict:
        p = self._project(project_id)
        return {
            "server": p.server,
            "capacity": p.capacity,
            "h_model": p.h_model,
            "h_keys": p.h_keys,
            "escrow": p.escrow,
            "done": p.done,
            "clients": {a: (c.h_key, c.score) for a, c in p.clients.items()},
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

    def subscribe(
        self, kinds: Iterable[str] | None = None, from_start: bool = True
    ) -> Subscription:
        start = 0 if from_start else len(self.events)
        return Subscription(self, frozenset(kinds) if kinds is not None else None, start)

    def snapshot(self) -> dict:
        """Comparable view of the full contract state."""
        return {
            "balances": dict(self._balances),
            "projects": {
                pid: {
                    **self.project_info(pid),
                    "tasks": {t: (k.round, k.deadline, k.h_info) for t, k in p.tasks.items()},
                }
                for pid, p in self._projects.items()
            },
        }

    def export(self, stream: io.TextIOBase | None = None) -> str:
        """Line-delimited event log; identical state implies identical text."""
        text = "".join(format_event(e) + "\n" for e in self.events)
        if stream is not None:
            stream.write(text)
        return text

    @classmethod
    def replay(cls, events: Iterable[LedgerEvent], config: LedgerConfig | None = None) -> "Ledger":
        """Rebuild ledger state from an event log under the same configuration."""
        fresh = cls(config=config)
        for e in events:
            fresh._apply(e)
            fresh.events.append(e)
        return fresh
