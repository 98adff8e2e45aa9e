"""Simulated single-writer ledger with smart-contract semantics for FL rounds.

Six transaction kinds drive a project's life cycle: the server registers a
project with an escrowed deposit and a key commitment, clients register with
their own key commitments, then each round publishes a task, collects model
updates, and scores each update once, after which it cannot be replaced;
finishing the project releases the escrow.  Every accepted transaction emits
one event and forms one block holding its sender and that event.  The block
list is the one log; the export prints its events and `read_blocks` reads
them back.  Parties read on-chain facts through keyed lookups on the
contract state (`registration`, `clients`, `task`, `update`,
`current_keys`), as a real contract exposes getters.

Live calls and replayed blocks take one commit path, as a node re-executes
every transaction of a block it imports: the guard of the event's class (the
contract's checks of sender, project, task, deadline and deposit), the
block's index and time, every priced field, then the state change.  Replaying
a log under the same configuration rebuilds its blocks and the full contract
state, and raises the live contract's `LedgerError` at a block it refuses.

Each priced field declares its width once, as metadata on its event field:
32-byte hashes (an optional one may be empty, and is then not sent), 2-byte
identifiers, counters, scores and deadlines, 1-byte rounds and flags.  Sender
addresses, block numbers, timestamps and fields the contract fills in itself
are not calldata and are priced zero.  A project registration plus one client
registration totals exactly 100 bytes; a publish/update/feedback round totals
exactly 148, plus 32 per key-commitment hash on key-rotation rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import Iterable, Iterator, get_args

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


class UnknownUpdate(LedgerError):
    pass


class DuplicateFeedback(LedgerError):
    pass


class ScoredUpdate(LedgerError):
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


LedgerEvent = (RegProjectEvent | RegClientEvent | TaskEvent | UpdateEvent
               | FeedbackEvent | ProjectTerminateEvent)

# the event field that names the sender of its block; the project's registered
# server sends the other kinds (a Feedback's `client` is the scored client)
_SENDER = {RegProjectEvent: "server", RegClientEvent: "client", UpdateEvent: "client",
           ProjectTerminateEvent: "server"}


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


_EVENTS = {cls.__name__.removesuffix("Event"): cls for cls in get_args(LedgerEvent)}


def parse_event(line: str) -> LedgerEvent:
    """The inverse of `format_event`: any line it did not print raises BadField."""
    kind, *tokens = line.split(" ")
    try:
        cls = _EVENTS[kind]
        event = cls(*((bytes.fromhex if f.type == "bytes" else int)(token.partition("=")[2])
                      for f, token in zip(fields(cls), tokens)))
        if format_event(event) == line:
            return event
    except (KeyError, TypeError, ValueError):
        pass
    raise BadField(f"not a ledger line: {line!r}")


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
    done: bool = False       # finished; until then the deposit is in escrow
    clients: dict[bytes, _Client] = field(default_factory=dict)     # in block order
    tasks: dict[int, TaskEvent] = field(default_factory=dict)
    # the latest update per (task, client); scoring it fixes it
    updates: dict[tuple[int, bytes], UpdateEvent] = field(default_factory=dict)
    scored: set[tuple[int, bytes]] = field(default_factory=set)    # (task, client) fed back


@dataclass(frozen=True)
class Block:
    """One accepted transaction; its index and time are fields of the event."""

    sender: bytes
    event: LedgerEvent


def read_blocks(text: str) -> Iterator[Block]:
    """The inverse of `Ledger.export`: each line's block, sent as `_SENDER` says."""
    servers: dict[int, bytes] = {}
    for e in map(parse_event, text.splitlines()):
        if isinstance(e, RegProjectEvent):
            servers.setdefault(e.project_id, e.server)
        named = _SENDER.get(type(e))
        yield Block(getattr(e, named) if named else servers.get(e.project_id, b""), e)


@dataclass(frozen=True)
class LedgerConfig:
    deposit: int = 1000
    initial_balance: int = 10_000


class Ledger:
    """In-process chain: one transaction per block, checked in full before it changes state."""

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

    def import_block(self, block: Block) -> None:
        """The one commit path, for live calls and replayed blocks alike: the
        event's guard, its place in the chain, its sender and priced fields."""
        sender, event = block.sender, block.event
        project = self._guard(sender, event)
        if event.block != len(self.blocks):
            raise BadField(f"block {event.block} cannot be block {len(self.blocks)}")
        if self.blocks and event.time < self.blocks[-1].event.time:
            raise BadField(f"time {event.time} precedes block {len(self.blocks) - 1}")
        self._check_address(sender)
        for name, width, allowed, optional in _declared(type(event)):
            value = getattr(event, name)
            if allowed is not None:
                if value not in allowed:
                    raise BadField(f"{name} out of range: {value}")
            elif len(value) != width and not (optional and value == b""):
                raise BadField(f"{name} must be {width} bytes")
        self._apply(event, project)
        self.blocks.append(block)

    def _transact(self, sender: bytes, cls: type, **calldata) -> LedgerEvent:
        """Commit an entry point's event, stamped with the next block and the clock."""
        event = cls(len(self.blocks), self.clock.now(), **calldata)
        self.import_block(Block(sender, event))
        return event

    # -- transaction entry points

    def register_project(
        self, sender: bytes, project_id: int, capacity: int,
        h_model: bytes, h_keys: bytes,
    ) -> RegProjectEvent:
        return self._transact(
            sender, RegProjectEvent, project_id=project_id, capacity=capacity,
            server=sender, h_model=h_model, h_keys=h_keys,
        )

    def register_client(self, sender: bytes, project_id: int, h_key: bytes) -> RegClientEvent:
        return self._transact(
            sender, RegClientEvent, project_id=project_id, client=sender, h_key=h_key,
        )

    def publish_task(
        self, sender: bytes, round: int, h_info: bytes, h_keys: bytes,
        project_id: int, task_id: int, deadline_window: int,
    ) -> TaskEvent:
        p = self._projects.get(project_id)
        return self._transact(
            sender, TaskEvent, round=round, h_info=h_info, h_keys=h_keys,
            project_id=project_id, task_id=task_id,
            client_count=len(p.clients) if p else 0, deadline_window=deadline_window,
        )

    def update_model(
        self, sender: bytes, round: int, h_info: bytes, h_ct_key: bytes,
        project_id: int, task_id: int,
    ) -> UpdateEvent:
        return self._transact(
            sender, UpdateEvent, round=round, h_info=h_info, h_ct_key=h_ct_key,
            project_id=project_id, task_id=task_id, client=sender,
        )

    def feedback_model(
        self, sender: bytes, round: int, project_id: int, task_id: int,
        client: bytes, score: int, terminate: int, h_model: bytes, h_keys: bytes,
    ) -> FeedbackEvent:
        return self._transact(
            sender, FeedbackEvent, round=round, project_id=project_id, task_id=task_id,
            h_model=h_model, h_keys=h_keys, client=client, score=score, terminate=terminate,
        )

    def finish_project(self, sender: bytes, project_id: int) -> ProjectTerminateEvent:
        return self._transact(sender, ProjectTerminateEvent, project_id=project_id, server=sender)

    # -- guards and state transition, shared by live calls and replay

    def _guard(self, sender: bytes, e: LedgerEvent) -> _Project | None:
        """Refuse the transaction unless the contract accepts it from `sender`
        now; return the project it acts on.  Entry points stamp their events,
        so only a replayed block can fail the sender, count or time checks."""
        named = _SENDER.get(type(e))
        if named and getattr(e, named) != sender:
            raise BadField(f"the block is not sent by the event's {named}")
        if isinstance(e, RegProjectEvent):
            if e.project_id in self._projects:
                raise DuplicateProject(f"project {e.project_id} already registered")
            if self.balance_of(sender) < self.config.deposit:
                raise InsufficientDeposit(
                    f"deposit {self.config.deposit} exceeds balance {self.balance_of(sender)}"
                )
            return None
        p = self._project(e.project_id)
        if p.done:
            raise ProjectDone(f"project {e.project_id} is finished")
        if named != "client" and p.registration.server != sender:
            raise NotProjectOwner(f"only the registering server sends a {event_kind(e)}")
        if isinstance(e, RegClientEvent):
            if sender in p.clients:
                raise DuplicateClient("client already registered")
            if len(p.clients) >= p.registration.capacity:
                raise ProjectFull(f"project {e.project_id} has {p.registration.capacity} clients")
        elif isinstance(e, TaskEvent):
            if e.task_id in p.tasks:
                raise DuplicateTask(f"task {e.task_id} already published")
            if e.client_count != len(p.clients):
                raise BadField(f"client_count {e.client_count} is not {len(p.clients)}")
        elif isinstance(e, UpdateEvent):
            if sender not in p.clients:
                raise UnregisteredClient("client is not registered for this project")
            task = self._task(p, e)
            deadline = task.time + task.deadline_window
            if e.time > deadline:
                raise DeadlineExceeded(f"task {e.task_id} closed at {deadline}")
            if (e.task_id, sender) in p.scored:
                raise ScoredUpdate(f"client's update for task {e.task_id} is already scored")
        elif isinstance(e, FeedbackEvent):
            if e.client not in p.clients:
                raise UnregisteredClient("scored client is not registered")
            self._task(p, e)
            if (e.task_id, e.client) not in p.updates:
                raise UnknownUpdate(f"client posted no update for task {e.task_id}")
            if (e.task_id, e.client) in p.scored:
                raise DuplicateFeedback(f"client already scored for task {e.task_id}")
        return p

    @staticmethod
    def _task(p: _Project, e: UpdateEvent | FeedbackEvent) -> TaskEvent:
        """The task `e` answers, which must be for `e`'s round."""
        task = p.tasks.get(e.task_id)
        if task is None:
            raise UnknownTask(f"no task {e.task_id} in project {e.project_id}")
        if task.round != e.round:
            raise BadField(f"task {e.task_id} is for round {task.round}, not {e.round}")
        return task

    def _apply(self, e: LedgerEvent, p: _Project | None) -> None:
        """Change the state as the guarded event `e` says; `p` is its project."""
        if isinstance(e, RegProjectEvent):
            self._balances[e.server] = self.balance_of(e.server) - self.config.deposit
            self._projects[e.project_id] = _Project(e, e.h_model, e.h_keys)
        elif isinstance(e, RegClientEvent):
            p.clients[e.client] = _Client(e)
        elif isinstance(e, TaskEvent):
            p.tasks[e.task_id] = e
            if e.h_keys:
                p.h_keys = e.h_keys
        elif isinstance(e, UpdateEvent):
            p.updates[(e.task_id, e.client)] = e
        elif isinstance(e, FeedbackEvent):
            c = p.clients[e.client]
            c.score = max(0, c.score + e.score)
            p.scored.add((e.task_id, e.client))
            p.h_model = e.h_model
        else:
            self._balances[e.server] = self.balance_of(e.server) + self.config.deposit
            p.done = True

    # -- queries

    def registration(self, project_id: int) -> RegProjectEvent:
        return self._project(project_id).registration

    def clients(self, project_id: int) -> list[RegClientEvent]:
        """The project's client registrations, in block order."""
        return [c.registration for c in self._project(project_id).clients.values()]

    def task(self, project_id: int, task_id: int) -> TaskEvent | None:
        return self._project(project_id).tasks.get(task_id)

    def update(self, project_id: int, task_id: int, client: bytes) -> UpdateEvent | None:
        """The client's update for the task, if it posted one: the latest
        before the server scored it, which no later update replaces."""
        return self._project(project_id).updates.get((task_id, client))

    def current_keys(self, project_id: int) -> bytes:
        """The server's key commitment as of the latest rotation task."""
        return self._project(project_id).h_keys

    def current_model(self, project_id: int) -> bytes:
        """The anchored global model's digest: the registration's, then each Feedback's."""
        return self._project(project_id).h_model

    def project_info(self, project_id: int) -> dict:
        p = self._project(project_id)
        return {
            "server": p.registration.server,
            "capacity": p.registration.capacity,
            "h_model": p.h_model,
            "h_keys": p.h_keys,
            "escrow": 0 if p.done else self.config.deposit,
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
        open_projects = sum(not p.done for p in self._projects.values())
        return sum(self._balances.values()) + self.config.deposit * open_projects

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
                    "scored": set(p.scored),
                }
                for pid, p in self._projects.items()
            },
        }

    def export(self) -> str:
        """Line-delimited event log; identical state implies identical text."""
        return "".join(format_event(b.event) + "\n" for b in self.blocks)

    @classmethod
    def replay(cls, blocks: Iterable[Block], config: LedgerConfig | None = None) -> "Ledger":
        """Rebuild the blocks and the contract state under the same configuration.
        Every block runs the guards and field checks of a live call, so a log
        the live contract would refuse raises that refusal's `LedgerError`."""
        fresh = cls(config=config)
        for b in blocks:
            fresh.import_block(b)
        return fresh
