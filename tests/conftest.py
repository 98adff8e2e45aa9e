"""Shared protocol-session builders and the acceptance summary hook."""

import numpy as np

from pqbfl import crypto, fl, protocol
from pqbfl.crypto import DeterministicRng
from pqbfl.ledger import Ledger, LedgerConfig, SimClock
from pqbfl.protocol import Participant, Server
from pqbfl.ratchet import RatchetConfig

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def establish(
    n=1, rounds=4, length=2, seed=b"proto-test", dim=8, deadline_window=600, capacity=None,
):
    """Registered project with all sessions established; returns the actors."""
    clock = SimClock()
    ledger = Ledger(LedgerConfig(), clock)
    cfg = RatchetConfig(length)
    rng = DeterministicRng(seed)
    server = Server(
        rng.fork("server"), ledger, clock, project_id=1,
        capacity=capacity if capacity is not None else n,
        rounds_planned=rounds, config=cfg, deadline_window=deadline_window,
    )
    model = fl.ModelVector(np.zeros(dim), 0)
    server.bootstrap(model)
    participants = []
    for i in range(n):
        p = Participant(rng.fork(f"part-{i}"), ledger, clock, cfg)
        p.join(1)
        participants.append(p)
    server.admit_clients()
    for p in participants:
        response = p.handle_keys(server.send_keys(p.address))
        server.handle_key_response(response)
    return server, participants, ledger, clock, model


def ready_verifier(monkeypatch) -> crypto.Verifier:
    """A `crypto.Verifier` whose child has started and said it is ready, on
    any host: checks submitted before that stay in-process.  Close it with
    `with`."""
    monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
    verifier = crypto.Verifier()
    with verifier.exchange(2, wide=False):
        assert verifier._receive(verifier.TIMEOUT) and verifier._ready
    return verifier


def key_row(role, address, key):
    """(role, address, round, epoch, step, key bytes) of one issued model key."""
    return (role, address, key.round, key.epoch, key.step, key.key)


def run_round(
    server, participants, clock, model, train_seed=77, server_log=None, participant_logs=None
):
    """One full honest round; returns the aggregated next global model.

    Given logs, appends a `key_row` for each model key the round issued: the
    server's per session, and each participant's for its open task.
    """
    clock.advance(60)
    server.publish_round(model)
    if server_log is not None:
        server_log.extend(
            key_row("server", a, s.key) for a, s in server.sessions.items()
        )
    collected = []
    for i, p in enumerate(participants):
        got = p.handle_task(server.send_task(p.address))
        if participant_logs is not None:
            participant_logs[i].append(key_row("participant", p.address, p.session.key))
        local = fl.local_train(got, train_seed, 0.01, got.round + 1)
        update = p.send_update(local)
        _, received = server.handle_update(update)
        collected.append(received)
    new_global = fl.aggregate(collected)
    server.feedback(new_global)
    return new_global
