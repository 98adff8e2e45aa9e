"""Contract semantics: byte pricing, guards, escrow, events, replay."""

import pytest
from hypothesis import given, settings, strategies as st

from pqbfl import ledger as L
from pqbfl.ledger import (
    BadField,
    DeadlineExceeded,
    DuplicateClient,
    DuplicateProject,
    DuplicateTask,
    InsufficientDeposit,
    Ledger,
    LedgerConfig,
    NotProjectOwner,
    ProjectDone,
    ProjectFull,
    SimClock,
    UnknownProject,
    UnknownTask,
    UnregisteredClient,
    event_kind,
    payload_size,
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
    assert ledger.blocks == [] and ledger.events == []
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
    with pytest.raises(BadField):
        ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 40000, 0, H32, H32)
    with pytest.raises(BadField):
        ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 1, 2, H32, H32)


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
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, -5, 0, H32, H32)
    assert ledger.score_of(1, CLIENT) == 0
    ledger.publish_task(SERVER, 2, H32, b"", 1, 2, 600)
    ledger.feedback_model(SERVER, 2, 1, 2, CLIENT, 4, 0, H32, H32)
    ledger.publish_task(SERVER, 3, H32, b"", 1, 3, 600)
    ledger.feedback_model(SERVER, 3, 1, 3, CLIENT, -2, 0, H32, H32)
    assert ledger.score_of(1, CLIENT) == 2


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


# --- events, subscriptions, replay ------------------------------------------------

def test_subscription_cursor_and_kind_filter():
    ledger, _ = fresh()
    sub_all = ledger.subscribe()
    sub_tasks = ledger.subscribe(kinds=["Task"])
    register_pair(ledger)
    assert [L.event_kind(e) for e in sub_all.poll()] == ["RegProject", "RegClient"]
    assert sub_all.poll() == []
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    assert [L.event_kind(e) for e in sub_all.poll()] == ["Task"]
    got = sub_tasks.poll()
    assert len(got) == 1 and got[0].task_id == 1
    late = ledger.subscribe(kinds=["RegClient"], from_start=True)
    assert len(late.poll()) == 1


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
    assert len(lines) == len(a.events) == 6
    assert lines[0].startswith("RegProject ")
    assert all("block=" in line for line in lines)


def test_replay_reproduces_state():
    ledger, clock = fresh()
    register_pair(ledger)
    ledger.publish_task(SERVER, 1, H32, b"", 1, 1, 600)
    ledger.update_model(CLIENT, 1, H32, b"", 1, 1)
    ledger.feedback_model(SERVER, 1, 1, 1, CLIENT, 2, 1, H32, H32)
    ledger.finish_project(SERVER, 1)
    twin = Ledger.replay(ledger.events, LedgerConfig())
    assert twin.snapshot() == ledger.snapshot()
    assert twin.export() == ledger.export()


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
    twin = Ledger.replay(ledger.events, LedgerConfig())
    assert twin.snapshot() == ledger.snapshot()
    cfg = LedgerConfig()
    assert ledger.total_balance() == cfg.initial_balance * ledger.account_count()
    for p in [1]:
        for client, (_, score) in ledger.project_info(p)["clients"].items():
            assert score >= 0
