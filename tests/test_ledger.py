"""Contract semantics: byte pricing, guards, escrow, events, replay."""

import typing
from dataclasses import fields, replace
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import establish, run_round
from test_golden import CONFIGS
from pqbfl import harness, ledger as L
from pqbfl.ledger import (
    BadField,
    Block,
    DeadlineExceeded,
    DuplicateClient,
    DuplicateFeedback,
    DuplicateProject,
    DuplicateTask,
    InsufficientDeposit,
    Ledger,
    LedgerConfig,
    NotProjectOwner,
    ProjectDone,
    ProjectFull,
    ScoredUpdate,
    SimClock,
    TaskEvent,
    UnknownProject,
    UnknownTask,
    UnknownUpdate,
    UnregisteredClient,
    event_kind,
    format_event,
    parse_event,
    payload_size,
    read_blocks,
)

H32 = bytes(range(32))
SERVER = b"S" * 20
CLIENT = b"C" * 20
OTHER = b"O" * 20


def fresh(deposit=1000, initial=10_000):
    clock = SimClock()
    return Ledger(LedgerConfig(deposit=deposit, initial_balance=initial), clock), clock


def register_pair(ledger):
    ledger.register_project(SERVER, 1, 4, H32, H32)
    ledger.register_client(CLIENT, 1, H32)


# --- payload pricing ----------------------------------------------------------

def test_payload_size_table():
    ledger, _ = fresh()
    events = [
        ledger.register_project(SERVER, 1, 4, H32, H32),
        ledger.register_client(CLIENT, 1, H32),
        ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600),
        ledger.publish_task(SERVER, 2, H32, H32, 1, 2, 600),
        ledger.update_model(CLIENT, 1, H32, b"", 1, 1),
        ledger.update_model(CLIENT, 2, H32, H32, 1, 2),
        ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 1, 0, H32, H32),
        ledger.finish_project(SERVER, 1),
    ]
    assert [payload_size(e) for e in events] == [68, 32, 39, 71, 37, 69, 72, 2]


def test_registration_and_round_totals():
    ledger, _ = fresh()
    registration = [
        ledger.register_project(SERVER, 1, 4, H32, H32),
        ledger.register_client(CLIENT, 1, H32),
    ]
    assert [event_kind(e) for e in registration] == ["RegProject", "RegClient"]
    assert sum(payload_size(e) for e in registration) == 100
    # a plain round, then a key-rotation round carrying two commitment hashes
    for rnd, h_keys, total in ((1, b"", 148), (2, H32, 212)):
        events = [
            ledger.publish_task(SERVER, rnd, H32, h_keys, 1, rnd, 600),
            ledger.update_model(CLIENT, rnd, H32, h_keys, 1, rnd),
            ledger.feedback_model(SERVER, rnd, 1, rnd, CLIENT, 1, 0, H32, H32),
        ]
        assert [event_kind(e) for e in events] == ["Task", "Update", "Feedback"]
        assert sum(payload_size(e) for e in events) == total


def test_onchain_bytes_accumulates():
    ledger, _ = fresh()
    register_pair(ledger)
    assert ledger.onchain_bytes() == 100
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
    ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 1, 0, H32, H32)
    assert ledger.onchain_bytes() == 248


# --- registration guards --------------------------------------------------------

def test_deposit_escrowed_and_refunded():
    ledger, _ = fresh(deposit=700, initial=1000)
    ledger.register_project(SERVER, 1, 2, H32, H32)
    assert ledger.balance_of(SERVER) == 300
    info = ledger.project_info(1)
    assert info["escrow"] == 700 and not info["done"]
    ledger.finish_project(SERVER, 1)
    assert ledger.balance_of(SERVER) == 1000
    assert ledger.project_info(1)["done"]
    assert ledger.project_info(1)["escrow"] == 0


def test_insufficient_deposit_rejected_without_trace():
    ledger, _ = fresh(deposit=2000, initial=1000)
    with pytest.raises(InsufficientDeposit):
        ledger.register_project(SERVER, 1, 2, H32, H32)
    assert ledger.blocks == []
    assert ledger.account_count() == 0


def test_duplicate_project_and_client():
    ledger, _ = fresh()
    register_pair(ledger)
    with pytest.raises(DuplicateProject):
        ledger.register_project(SERVER, 1, 4, H32, H32)
    with pytest.raises(DuplicateClient):
        ledger.register_client(CLIENT, 1, H32)


def test_capacity_enforced():
    ledger, _ = fresh()
    ledger.register_project(SERVER, 1, 1, H32, H32)
    ledger.register_client(CLIENT, 1, H32)
    with pytest.raises(ProjectFull):
        ledger.register_client(OTHER, 1, H32)


def test_unknown_project_paths():
    ledger, _ = fresh()
    with pytest.raises(UnknownProject):
        ledger.register_client(CLIENT, 9, H32)
    with pytest.raises(UnknownProject):
        ledger.publish_task(SERVER, 1, H32, b"", 9, 1, 600)
    with pytest.raises(UnknownProject):
        ledger.project_info(9)


def test_field_validation():
    ledger, _ = fresh()
    with pytest.raises(BadField):
        ledger.register_project(SERVER, 1, 0, H32, H32)
    with pytest.raises(BadField):
        ledger.register_project(SERVER, 70000, 2, H32, H32)
    with pytest.raises(BadField):
        ledger.register_project(SERVER, 1, 2, H32[:-1], H32)
    with pytest.raises(BadField):
        ledger.register_project(b"S" * 19, 1, 2, H32, H32)
    register_pair(ledger)
    with pytest.raises(BadField):
        ledger.publish_task(SERVER, 300, H32, b"", 1, 1, 600)  # round is one byte
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
    with pytest.raises(BadField):
        ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 40000, 0, H32, H32)
    with pytest.raises(BadField):
        ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 1, 2, H32, H32)


# One valid call per transaction kind on a ledger holding project 1, CLIENT,
# task 1 and CLIENT's update for it; keyword names are the event's field names.
VALID_CALLS = {
    "RegProject": ("register_project", dict(
        sender=OTHER, project_id=2, capacity=4, h_model=H32, h_keys=H32)),
    "RegClient": ("register_client", dict(sender=OTHER, project_id=1, h_key=H32)),
    "Task": ("publish_task", dict(
        sender=SERVER, round=2, h_info=H32, h_keys=H32, project_id=1, task_id=2,
        deadline_window=600)),
    "Update": ("update_model", dict(
        sender=CLIENT, round=1, h_info=H32, h_ct_key=H32, project_id=1, task_id=1)),
    "Feedback": ("feedback_model", dict(
        sender=SERVER, round=1, project_id=1, task_id=1, client=CLIENT, score=1,
        terminate=0, h_model=H32, h_keys=H32)),
    "ProjectTerminate": ("finish_project", dict(sender=SERVER, project_id=1)),
}

# Every priced field with a value just outside its declared range.  A call
# whose project or task lookup fails on the bad value raises that guard's
# error first, live and on replay alike.
SHORT, LONG = H32[:-1], H32 + b"x"
BAD_FIELDS = [
    ("RegProject", "project_id", 0x10000, BadField),
    ("RegProject", "capacity", 0, BadField),
    ("RegProject", "capacity", 0x10000, BadField),
    ("RegProject", "h_model", SHORT, BadField),
    ("RegProject", "h_keys", LONG, BadField),
    ("RegClient", "h_key", SHORT, BadField),
    ("Task", "round", 0x100, BadField),
    ("Task", "round", -1, BadField),
    ("Task", "h_info", LONG, BadField),
    ("Task", "h_keys", SHORT, BadField),
    ("Task", "project_id", 0x10000, UnknownProject),
    ("Task", "task_id", 0x10000, BadField),
    ("Task", "deadline_window", 0x10000, BadField),
    ("Update", "round", 0x100, BadField),
    ("Update", "h_info", SHORT, BadField),
    ("Update", "h_ct_key", LONG, BadField),
    ("Update", "project_id", 0x10000, UnknownProject),
    ("Update", "task_id", 0x10000, UnknownTask),
    ("Feedback", "round", 0x100, BadField),
    ("Feedback", "project_id", 0x10000, UnknownProject),
    ("Feedback", "task_id", 0x10000, UnknownTask),
    ("Feedback", "h_model", LONG, BadField),
    ("Feedback", "h_keys", SHORT, BadField),
    ("Feedback", "score", 0x8000, BadField),
    ("Feedback", "score", -0x8001, BadField),
    ("Feedback", "terminate", 2, BadField),
    ("ProjectTerminate", "project_id", 0x10000, UnknownProject),
]


def test_bad_field_table_covers_every_priced_field():
    declared = {
        (cls.__name__.removesuffix("Event"), f.name)
        for cls in typing.get_args(L.LedgerEvent) for f in fields(cls) if f.metadata
    }
    assert {(kind, name) for kind, name, _, _ in BAD_FIELDS} == declared


@pytest.mark.parametrize(
    "kind, name, bad, live_error", BAD_FIELDS,
    ids=lambda v: f"{len(v)}B" if isinstance(v, bytes) else None,
)
def test_out_of_range_field_rejected_live_and_on_replay(kind, name, bad, live_error):
    ledger, _ = fresh()
    register_pair(ledger)
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
    method, args = VALID_CALLS[kind]
    call = getattr(ledger, method)
    before = ledger.snapshot()
    with pytest.raises(live_error):
        call(**{**args, name: bad})
    assert ledger.snapshot() == before
    # the same call with the field in range is accepted; its block with the
    # bad value put back is refused on replay
    event = call(**args)
    bad_block = Block(args["sender"], replace(event, **{name: bad}))
    with pytest.raises(live_error):
        Ledger.replay([*ledger.blocks[:-1], bad_block], LedgerConfig())


# --- round flow -------------------------------------------------------------------

def test_task_update_feedback_flow_and_guards():
    ledger, clock = fresh()
    register_pair(ledger)
    with pytest.raises(NotProjectOwner):
        ledger.publish_task(CLIENT, 1, H32, b"", 1, 1, 600)
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    with pytest.raises(DuplicateTask):
        ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    with pytest.raises(UnregisteredClient):
        ledger.update_model(OTHER, 1, H32, b"", 1, 1)
    with pytest.raises(UnknownTask):
        ledger.update_model(CLIENT, 1, H32, b"", 1, 9)
    with pytest.raises(BadField):
        ledger.update_model(CLIENT, 2, H32, b"", 1, 1)  # round disagrees with task
    ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
    with pytest.raises(NotProjectOwner):
        ledger.feedback_model(CLIENT, 1, 1, 1, CLIENT, 1, 0, H32, H32)
    ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 3, 0, H32, H32)
    assert ledger.score_of(1, CLIENT) == 3


def test_feedback_scores_each_update_once_live_and_on_replay():
    ledger, _ = fresh()
    register_pair(ledger)
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    before = ledger.snapshot()
    with pytest.raises(BadField):   # not the task's round
        ledger.feedback_model(SERVER, 7, 1, 1, CLIENT, 5, 0, H32, H32)
    with pytest.raises(UnknownUpdate):   # nothing posted to score
        ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 5, 0, H32, H32)
    assert ledger.snapshot() == before
    ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
    scored = ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 5, 0, H32, H32)
    with pytest.raises(DuplicateFeedback):
        ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 5, 0, H32, H32)
    assert ledger.score_of(1, CLIENT) == 5
    *setup, update, _ = ledger.blocks
    for blocks, error in (
        ([*setup, update, Block(SERVER, replace(scored, round=7))], BadField),
        ([*setup, Block(SERVER, replace(scored, block=update.event.block))], UnknownUpdate),
        ([*ledger.blocks, Block(SERVER, replace(scored, block=len(ledger.blocks)))],
         DuplicateFeedback),
    ):
        with pytest.raises(error):
            Ledger.replay(blocks, LedgerConfig())
    assert Ledger.replay(ledger.blocks, LedgerConfig()).score_of(1, CLIENT) == 5


def test_scored_update_is_not_replaced_live_or_on_replay():
    ledger, _ = fresh()
    register_pair(ledger)
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    update = ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
    ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 1, 0, H32, H32)
    before = ledger.snapshot()
    other = bytes(32)
    with pytest.raises(ScoredUpdate):
        ledger.update_model(CLIENT, 1, other, b"", 1, 1)
    assert ledger.snapshot() == before
    assert ledger.update(1, 1, CLIENT).h_info == H32
    late = Block(CLIENT, replace(update, block=len(ledger.blocks), h_info=other))
    with pytest.raises(ScoredUpdate):
        Ledger.replay([*ledger.blocks, late], LedgerConfig())


def test_deadline_enforced_by_clock():
    ledger, clock = fresh()
    register_pair(ledger)
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 100)
    clock.advance(101)
    with pytest.raises(DeadlineExceeded):
        ledger.update_model(CLIENT, 1, H32, b"", 1, 1)


def test_score_clamps_at_zero():
    ledger, _ = fresh()
    register_pair(ledger)
    for rnd, score, total in ((1, -5, 0), (2, 4, 4), (3, -2, 2)):
        ledger.publish_task(SERVER, rnd, H32, b"", 1, rnd, 600)
        ledger.update_model(CLIENT, rnd, H32, b"", 1, rnd)
        ledger.feedback_model(SERVER, rnd, 1, rnd, CLIENT, score, 0, H32, H32)
        assert ledger.score_of(1, CLIENT) == total


def test_done_project_rejects_everything():
    ledger, _ = fresh()
    register_pair(ledger)
    with pytest.raises(NotProjectOwner):
        ledger.finish_project(CLIENT, 1)
    ledger.finish_project(SERVER, 1)
    with pytest.raises(ProjectDone):
        ledger.register_client(OTHER, 1, H32)
    with pytest.raises(ProjectDone):
        ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    with pytest.raises(ProjectDone):
        ledger.finish_project(SERVER, 1)


# --- events, lookups, replay ------------------------------------------------------

def test_keyed_lookups_read_contract_state():
    ledger, clock = fresh()
    H2 = bytes(range(1, 33))
    project = ledger.register_project(SERVER, 1, 4, H32, H32)
    first = ledger.register_client(CLIENT, 1, H32)
    second = ledger.register_client(OTHER, 1, H2)
    plain = ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
    clock.advance(5)
    latest = ledger.update_model(CLIENT, 1, H2, b"", 1, 1)
    assert ledger.current_keys(1) == H32
    rotation = ledger.publish_task(SERVER, 2, H32, H2, 1, 2, 600)
    for view in (ledger, Ledger.replay(ledger.blocks, LedgerConfig())):
        assert view.registration(1) == project
        assert view.clients(1) == [first, second]
        assert view.task(1, 1) == plain and view.task(1, 2) == rotation
        assert view.update(1, 1, CLIENT) == latest
        assert view.current_keys(1) == H2
        assert view.task(1, 3) is None
        assert view.update(1, 1, OTHER) is None and view.update(1, 2, CLIENT) is None
        with pytest.raises(UnknownProject):
            view.registration(9)


def test_export_is_deterministic_and_line_per_event():
    def build():
        ledger, _ = fresh()
        register_pair(ledger)
        ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
        ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
        ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 1, 1, H32, H32)
        ledger.finish_project(SERVER, 1)
        return ledger

    a, b = build(), build()
    assert a.export() == b.export()
    lines = a.export().splitlines()
    assert len(lines) == len(a.blocks) == 6
    assert lines[0].startswith("RegProject ")
    assert all("block=" in line for line in lines)


def test_replay_reproduces_state():
    ledger, clock = fresh()
    register_pair(ledger)
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
    ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 2, 1, H32, H32)
    ledger.finish_project(SERVER, 1)
    twin = Ledger.replay(ledger.blocks, LedgerConfig())
    assert twin.snapshot() == ledger.snapshot()
    assert twin.export() == ledger.export()


def test_replayed_run_rebuilds_its_blocks():
    server, parts, ledger, clock, model = establish(n=2, rounds=3, length=2, seed=b"rerun")
    for _ in range(3):
        model = run_round(server, parts, clock, model)
    twin = Ledger.replay(ledger.blocks, LedgerConfig())
    assert twin.blocks == ledger.blocks
    assert twin.onchain_bytes() == ledger.onchain_bytes() > 0
    assert twin.export() == ledger.export() and twin.snapshot() == ledger.snapshot()


def test_rejected_transactions_leave_no_state():
    ledger, _ = fresh()
    register_pair(ledger)
    before = ledger.snapshot()
    for attempt in (
        lambda: ledger.register_project(SERVER, 1, 4, H32, H32),
        lambda: ledger.register_client(OTHER, 9, H32),
        lambda: ledger.publish_task(OTHER, 1, H32, b"", 1, 1, 600),
        lambda: ledger.update_model(OTHER, 1, H32, b"", 1, 1),
        lambda: ledger.feedback_model(SERVER, 1, 1, 9, CLIENT, 1, 0, H32, H32),
        lambda: ledger.finish_project(OTHER, 1),
    ):
        with pytest.raises(L.LedgerError):
            attempt()
    assert ledger.snapshot() == before


OPS = st.lists(
    st.tuples(
        st.sampled_from(["reg_client", "task", "update", "feedback", "finish"]),
        st.integers(0, 3),   # actor variant
        st.integers(1, 5),   # round / task id
        st.integers(-3, 3),  # score delta
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_random_op_soup_replays_and_conserves(ops):
    """Whatever mix of valid and invalid calls lands on the ledger, replaying
    its event log reproduces the exact state, and value is conserved."""
    ledger, clock = fresh()
    actors = [SERVER, CLIENT, OTHER, b"X" * 20]
    ledger.register_project(SERVER, 1, 3, H32, H32)
    for kind, actor_i, rnd, score in ops:
        actor = actors[actor_i]
        try:
            if kind == "reg_client":
                ledger.register_client(actor, 1, H32)
            elif kind == "task":
                ledger.publish_task(actor, rnd, H32, b"", 1, rnd, 600)
            elif kind == "update":
                ledger.update_model(actor, rnd, H32, b"", 1, rnd)
            elif kind == "feedback":
                ledger.feedback_model(actor, rnd, 1, rnd, CLIENT, score, 0, H32, H32)
            elif kind == "finish":
                ledger.finish_project(actor, 1)
        except L.LedgerError:
            pass
        clock.advance(7)
    twin = Ledger.replay(ledger.blocks, LedgerConfig())
    assert twin.snapshot() == ledger.snapshot()
    cfg = LedgerConfig()
    assert ledger.total_balance() == cfg.initial_balance * ledger.account_count()
    for p in [1]:
        for client, (_, score) in ledger.project_info(p)["clients"].items():
            assert score >= 0


# --- replay runs the contract's guards ----------------------------------------------

def _with_last_block(calls, **changes):
    """A live ledger after `calls` has made its calls; returns its blocks but
    the last, and the last block with `changes` to its sender or event."""
    ledger, clock = fresh()
    calls(ledger, clock)
    *prefix, last = ledger.blocks
    sender = changes.pop("sender", last.sender)
    return prefix, Block(sender, replace(last.event, **changes))


def _pair(ledger, clock):
    register_pair(ledger)


def _two_projects(ledger, clock):
    ledger.register_project(SERVER, 1, 4, H32, H32)
    ledger.register_project(SERVER, 2, 4, H32, H32)


def _task(ledger, clock):
    ledger.register_project(SERVER, 1, 4, H32, H32)
    clock.advance(50)
    ledger.register_client(CLIENT, 1, H32)
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)   # at 50, open until 650


def _update(ledger, clock):
    _task(ledger, clock)
    ledger.update_model(CLIENT, 1, H32, b"", 1, 1)


def _feedback(ledger, clock):
    _update(ledger, clock)
    ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 1, 0, H32, H32)


@pytest.mark.parametrize("calls, changes, error", [
    pytest.param(_pair, dict(project_id=9), UnknownProject, id="client-of-unregistered-project"),
    pytest.param(_two_projects, dict(project_id=1), DuplicateProject, id="project-registered-twice"),
    pytest.param(_task, dict(sender=OTHER), NotProjectOwner, id="task-from-non-owner"),
    pytest.param(_feedback, dict(client=OTHER), UnregisteredClient, id="feedback-for-unregistered"),
    pytest.param(_task, dict(block=7), BadField, id="block-number-not-its-index"),
    pytest.param(_task, dict(time=10), BadField, id="time-before-its-predecessor"),
    pytest.param(_task, dict(client_count=3), BadField, id="wrong-client-count"),
    pytest.param(_update, dict(sender=OTHER), BadField, id="update-sent-for-another-client"),
    pytest.param(_update, dict(time=651), DeadlineExceeded, id="update-after-deadline"),
])
def test_replay_refuses_what_the_live_contract_refuses(calls, changes, error):
    prefix, bad = _with_last_block(calls, **changes)
    with pytest.raises(error):
        Ledger.replay([*prefix, bad], LedgerConfig())
    twin = Ledger.replay(prefix, LedgerConfig())
    before = twin.snapshot()
    with pytest.raises(error):
        twin.import_block(bad)
    assert twin.snapshot() == before and twin.blocks == prefix


@cache
def _simulated_ledger(**config) -> Ledger:
    """The live ledger of a run of `config`, by default a small honest one
    with a free rider scored down."""
    made = []

    class Recording(Ledger):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "Ledger", Recording)
        harness.run_simulation(harness.SimConfig(**config or dict(
            participants=2, rounds=4, ratchet_range=2, model_dim=4, seed=5, free_ride=True,
        )))
    (ledger,) = made
    return ledger


def _edit(block: Block, field_i: int, value_i: int, pool: dict) -> Block:
    """`block` with its sender or one event field replaced by a pooled value
    of the same type."""
    names = ["sender", *(f.name for f in fields(block.event))]
    name = names[field_i % len(names)]
    old = block.sender if name == "sender" else getattr(block.event, name)
    values = pool[type(old)]
    new = values[value_i % len(values)]
    if name == "sender":
        return Block(new, block.event)
    return Block(block.sender, replace(block.event, **{name: new}))


MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["drop", "duplicate", "swap", "edit"]),
        st.integers(0, 1 << 16), st.integers(0, 1 << 16), st.integers(0, 1 << 16),
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(MUTATIONS, st.booleans())
def test_mangled_simulation_log_is_refused_or_conserves(mutations, renumber):
    """Dropped, duplicated, reordered or edited blocks of a real run either
    raise a LedgerError on replay or rebuild a ledger that replays to itself
    and conserves value; the log as written rebuilds the live ledger."""
    live, cfg = _simulated_ledger(), LedgerConfig()
    twin = Ledger.replay(live.blocks, cfg)
    assert twin.blocks == live.blocks and twin.snapshot() == live.snapshot()
    pool = {int: sorted({-1, 0x10000} | {
        v for b in live.blocks for v in vars(b.event).values() if isinstance(v, int)
    })}
    pool[bytes] = sorted({b""} | {b.sender for b in live.blocks} | {
        v for b in live.blocks for v in vars(b.event).values() if isinstance(v, bytes)
    })
    blocks = list(live.blocks)
    for kind, a, b, c in mutations:
        i, j = a % len(blocks), b % len(blocks)
        if kind == "drop":
            del blocks[i]
        elif kind == "duplicate":
            blocks.insert(j, blocks[i])
        elif kind == "swap":
            blocks[i], blocks[j] = blocks[j], blocks[i]
        else:
            blocks[i] = _edit(blocks[i], b, c, pool)
    if renumber:   # past the index check, so the contract's guards judge the order
        blocks = [Block(x.sender, replace(x.event, block=n)) for n, x in enumerate(blocks)]
    try:
        rebuilt = Ledger.replay(blocks, cfg)
    except L.LedgerError:
        return
    assert Ledger.replay(rebuilt.blocks, cfg).snapshot() == rebuilt.snapshot()
    assert rebuilt.total_balance() == cfg.initial_balance * rebuilt.account_count()


# --- reading an export back ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_read_blocks_inverts_the_export_of_every_golden_run(name):
    """Every event parses back to itself and every block gets its sender
    back, so a golden run's export replays to its live blocks."""
    live = _simulated_ledger(**CONFIGS[name])
    assert all(parse_event(format_event(b.event)) == b.event for b in live.blocks)
    assert list(read_blocks(live.export())) == live.blocks
    config = LedgerConfig(deposit=harness.SimConfig(**CONFIGS[name]).deposit)
    assert Ledger.replay(read_blocks(live.export()), config).export() == live.export()


TASK = TaskEvent(2, 60, 1, H32, b"", 1, 1, 1, 600)
TASK_LINE = format_event(TASK)


def test_parse_event_reads_a_line_back():
    assert TASK_LINE == (
        f"Task block=2 time=60 round=1 h_info={H32.hex()} h_keys= project_id=1 "
        "task_id=1 client_count=1 deadline_window=600"
    )
    assert parse_event(TASK_LINE) == TASK


@pytest.mark.parametrize("line", [
    TASK_LINE.replace("Task ", "Tusk ", 1),
    TASK_LINE.removesuffix(" deadline_window=600"),
    TASK_LINE.replace("round=1 h_info=", "h_info=", 1).replace(" h_keys=", " round=1 h_keys="),
    TASK_LINE.replace("round=1 ", "rounds=1 ", 1),
    TASK_LINE + " extra=1",
    TASK_LINE.replace(f"h_info={H32.hex()}", "h_info=" + "zz" * 32),
    TASK_LINE.replace(f"h_info={H32.hex()}", f"h_info={H32.hex()[:-1]}"),
    TASK_LINE.replace(f"h_info={H32.hex()}", f"h_info={H32.hex().upper()}"),
    TASK_LINE.replace("round=1 ", "round=one ", 1),
    TASK_LINE.replace("round=1 ", "round=+1 ", 1),
    TASK_LINE.replace("round=1 ", "round=01 ", 1),
    TASK_LINE.replace("round=1 ", "round=1  ", 1),
    TASK_LINE + "\r",
    "",
], ids=["unknown-kind", "missing-field", "reordered-fields", "renamed-field", "extra-field",
        "non-hex-bytes", "odd-length-hex", "upper-case-hex", "non-integer", "signed-integer",
        "leading-zero", "double-space", "carriage-return", "empty-line"])
def test_parse_event_refuses_any_line_format_event_did_not_print(line):
    with pytest.raises(BadField, match="not a ledger line"):
        parse_event(line)


def test_read_blocks_refuses_a_bad_line_where_replay_reaches_it():
    ledger, _ = fresh()
    register_pair(ledger)
    text = ledger.export() + "Tusk block=2\n"
    blocks = read_blocks(text)
    assert [b.event for b in (next(blocks), next(blocks))] == [b.event for b in ledger.blocks]
    with pytest.raises(BadField):
        next(blocks)
    with pytest.raises(BadField):
        Ledger.replay(read_blocks(text), LedgerConfig())
