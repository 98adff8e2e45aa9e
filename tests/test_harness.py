"""End-to-end simulation harness: determinism, metrics shape, fault injection."""

import csv
import json
import os
import platform
import re
import runpy
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import ready_verifier
from pqbfl import cli, crypto, fl, harness, protocol, secp256k1
from pqbfl.cli import main
from pqbfl.harness import (
    METRICS_HEADER,
    SCENARIO_FLAGS,
    RunMetrics,
    SimConfig,
    run_simulation,
    verify_transcripts,
    write_outputs,
)
from pqbfl.ledger import Ledger

COUNTER_COLUMNS = METRICS_HEADER[2:]


def small(**overrides) -> SimConfig:
    base = dict(participants=2, rounds=4, ratchet_range=2, model_dim=8, seed=11)
    base.update(overrides)
    return SimConfig(**base)


def _never(config):
    raise AssertionError("simulation started")


# --- honest runs -------------------------------------------------------------

def test_honest_run_completes():
    m = run_simulation(small())
    assert m.terminated
    assert m.attacks == []
    assert m.all_attacks_rejected()
    assert m.scores == {"client-1": 4, "client-2": 4}
    assert m.final_epoch == 2          # establishment, then one rotation after round 2


def test_row_count_and_parties():
    cfg = small(participants=3, rounds=5)
    m = run_simulation(cfg)
    assert len(m.rows) == (cfg.rounds + 1) * (cfg.participants + 1)
    parties = {row.party for row in m.rows}
    assert parties == {"server", "client-1", "client-2", "client-3"}


def test_counters_cumulative_and_monotone():
    m = run_simulation(small(rounds=6))
    by_party = {}
    for row in m.rows:
        by_party.setdefault(row.party, []).append(row)
    for rows in by_party.values():
        assert [r.round for r in rows] == sorted(r.round for r in rows)
        for prev, cur in zip(rows, rows[1:]):
            for col in COUNTER_COLUMNS:
                assert getattr(cur, col) >= getattr(prev, col)


def test_same_seed_same_files(tmp_path):
    cfg = small(rounds=3)
    a, b = tmp_path / "a", tmp_path / "b"
    write_outputs(run_simulation(cfg), str(a))
    write_outputs(run_simulation(cfg), str(b))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seed_different_transcript():
    m1 = run_simulation(small(seed=1))
    m2 = run_simulation(small(seed=2))
    assert m1.final_model_digest != m2.final_model_digest


def test_metrics_csv_schema(tmp_path):
    m = run_simulation(small())
    paths = write_outputs(m, str(tmp_path / "run"))
    with open(paths["metrics"]) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == list(METRICS_HEADER)
    assert len(body) == len(m.rows)
    for line in body:
        assert len(line) == len(METRICS_HEADER)
        int(line[0])
        for cell in line[2:]:
            assert int(cell) >= 0


def test_transcripts_cross_check_clean(tmp_path):
    run_dir = str(tmp_path / "run")
    write_outputs(run_simulation(small()), run_dir)
    assert verify_transcripts(run_dir) == []


def test_transcript_corruption_detected(tmp_path):
    run_dir = tmp_path / "run"
    write_outputs(run_simulation(small()), str(run_dir))
    victim = run_dir / "transcript-client-1.txt"
    text = victim.read_text().splitlines()
    line = text[-1]
    flipped = line.replace(line[-1], "0" if line[-1] != "0" else "1")
    text[-1] = flipped
    victim.write_text("\n".join(text) + "\n")
    assert verify_transcripts(str(run_dir)) != []


def test_reading_a_run_dir_closes_its_files(tmp_path):
    run_dir = tmp_path / "run"
    write_outputs(run_simulation(small()), str(run_dir))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert verify_transcripts(str(run_dir)) == []
        assert main(["export-ledger", "--run", str(run_dir)]) == 0
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


@pytest.mark.parametrize("file, line", [
    ("transcript-client-1.txt", b"epoch=1 step=0 dir=s2p digest=00 block=1"),
    ("transcript-client-1.txt", b"round=x epoch=1 step=0 dir=s2p digest=00 block=1"),
    ("transcript-client-1.txt", b"\xff\xfe"),
    ("transcript-server.txt", b"session=client-1"),
])
def test_malformed_transcript_line_reported(tmp_path, capsys, file, line):
    run_dir = tmp_path / "run"
    write_outputs(run_simulation(small()), str(run_dir))
    victim = run_dir / file
    victim.write_bytes(victim.read_bytes() + line + b"\n")
    shown = line.decode(errors="replace")
    assert any(shown in p for p in verify_transcripts(str(run_dir)))
    capsys.readouterr()
    assert main(["verify-transcripts", "--run", str(run_dir)]) == 1
    captured = capsys.readouterr()
    assert "malformed" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_missing_transcript_reported(tmp_path):
    run_dir = tmp_path / "run"
    write_outputs(run_simulation(small()), str(run_dir))
    os.remove(run_dir / "transcript-client-2.txt")
    assert any("client-2" in p for p in verify_transcripts(str(run_dir)))


def _swap_task_digests(rows, other):
    # rounds 2 and 3 trade their s2p digests; each row keeps its block
    a, b = rows[("2", "s2p")], rows[("3", "s2p")]
    a["digest"], b["digest"] = b["digest"], a["digest"]


def _borrow_other_update(rows, other):
    # client-1 claims client-2's round-1 update: its digest and its block
    rows[("1", "p2s")].update(
        digest=other[("1", "p2s")]["digest"], block=other[("1", "p2s")]["block"]
    )


def _project_row_names_a_registration(rows, other):
    # round 0 s2p must name the RegProject block, not the client's RegClient
    rows[("0", "s2p")]["block"] = rows[("0", "p2s")]["block"]


def _claim_other_registration(rows, other):
    # round 0 p2s names client-2's RegClient block instead of client-1's own
    rows[("0", "p2s")]["block"] = other[("0", "p2s")]["block"]


def _update_row_names_the_task(rows, other):
    # the round-1 p2s row points at that round's Task, whose h_info is not its digest
    rows[("1", "p2s")]["block"] = rows[("1", "s2p")]["block"]


def _row_names_an_absent_block(rows, other):
    # no ledger line carries this block number
    rows[("2", "s2p")]["block"] = "999999"


@pytest.mark.parametrize("forge", [
    _swap_task_digests, _borrow_other_update, _project_row_names_a_registration,
    _claim_other_registration, _update_row_names_the_task, _row_names_an_absent_block,
], ids=["swapped-task-digests", "another-clients-update", "project-row-on-a-registration",
        "another-clients-registration", "update-row-on-the-task", "absent-block"])
def test_consistent_forgery_of_a_row_block_detected(forge, tmp_path, capsys):
    """Both sides tell the same forged story, so only the ledger blocks the
    rows name can refute it."""
    run_dir = tmp_path / "run"
    write_outputs(run_simulation(small()), str(run_dir))

    def rows_of(name):
        lines = (run_dir / f"transcript-{name}.txt").read_text().splitlines()
        rows = [dict(token.split("=", 1) for token in line.split()) for line in lines]
        return {(row["round"], row["dir"]): row for row in rows}

    rows, other = rows_of("client-1"), rows_of("client-2")
    forge(rows, other)
    lines = [" ".join(f"{k}={v}" for k, v in row.items()) for row in rows.values()]
    (run_dir / "transcript-client-1.txt").write_text("\n".join(lines) + "\n")
    server = run_dir / "transcript-server.txt"
    kept = [line for line in server.read_text().splitlines()
            if not line.startswith("session=client-1 ")]
    server.write_text("\n".join([f"session=client-1 {line}" for line in lines] + kept) + "\n")

    assert any("client-1" in p and "ledger block" in p for p in verify_transcripts(str(run_dir)))
    assert main(["verify-transcripts", "--run", str(run_dir)]) == 1
    assert "consistent" not in capsys.readouterr().out


@pytest.mark.parametrize("scenario", ["honest", "free_ride"])
def test_rows_cut_from_both_transcripts_detected(scenario, tmp_path, capsys):
    """Both sides drop client-1's rounds 3 and 4 alike, so only the ledger's
    Task and Update blocks for those rounds can show the rows are missing."""
    run_dir = tmp_path / "run"
    config = small(participants=2, rounds=4, ratchet_range=2,
                   **({"free_ride": True} if scenario == "free_ride" else {}))
    write_outputs(run_simulation(config), str(run_dir))
    assert verify_transcripts(str(run_dir)) == []   # a withheld update has no block to answer

    def cut(path, keep):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines if keep(line)) + "\n")

    late = re.compile(r"(^| )round=(3|4) ")
    cut(run_dir / "transcript-client-1.txt", lambda line: not late.search(line))
    cut(run_dir / "transcript-server.txt",
        lambda line: not (line.startswith("session=client-1 ") and late.search(line)))
    problems = verify_transcripts(str(run_dir))
    assert len([p for p in problems if p.startswith("client-1: no s2p row for Task block")]) == 2
    assert len([p for p in problems if p.startswith("client-1: no p2s row for Update block")]) == 2
    assert all(p.startswith("client-1: ") for p in problems)
    assert main(["verify-transcripts", "--run", str(run_dir)]) == 1
    assert "consistent" not in capsys.readouterr().out


def _rewrite(path, edit):
    path.write_text(edit(path.read_text()))


def _rescore(run_dir):
    # the contract accepts any score, but the replay no longer reaches run.json's
    _rewrite(run_dir / "ledger.txt", lambda text: re.sub(
        r"^(Feedback .*) score=1 ", r"\1 score=7 ", text, count=1, flags=re.M))


def _renumber_round_3_key(run_dir):
    # round 3 is epoch 2 step 1 under ratchet range 2; both sides claim epoch 1 step 3
    def edit(text):
        return text.replace("round=3 epoch=2 step=1 ", "round=3 epoch=1 step=3 ")
    _rewrite(run_dir / "transcript-client-1.txt", edit)
    _rewrite(run_dir / "transcript-server.txt", lambda text: "".join(
        edit(line) if line.startswith("session=client-1 ") else line
        for line in text.splitlines(keepends=True)))


def _commit_keys_on_round_1(run_dir):
    # round 2's key commitment copied into round 1's Task, which does not rotate
    def edit(text):
        h_keys = re.search(r"^Task .* round=2 h_info=\w+ h_keys=(\w+) ", text, re.M)[1]
        return re.sub(r"^(Task .* round=1 h_info=\w+ h_keys=) ", rf"\g<1>{h_keys} ", text,
                      flags=re.M)
    _rewrite(run_dir / "ledger.txt", edit)


def _drop_rotation_reply_commitment(run_dir):
    # round 2 rotates keys, but the first of its Updates no longer commits to the reply
    _rewrite(run_dir / "ledger.txt", lambda text: re.sub(
        r"^(Update .* round=2 h_info=\w+ h_ct_key=)\w+", r"\1", text, count=1, flags=re.M))


def _drop_feedback(run_dir):
    _rewrite(run_dir / "ledger.txt", lambda text: re.sub(
        r"^Feedback .*\n", "", text, count=1, flags=re.M))


def _upper_case_hex(run_dir):
    # a field no transcript row names: the first Feedback's model digest
    _rewrite(run_dir / "ledger.txt", lambda text: re.sub(
        r"^(Feedback .* h_model=)(\w+)", lambda m: m[1] + m[2].upper(), text,
        count=1, flags=re.M))


def _shorten_first_deadline(run_dir):
    # updates land in the same second as their task, so the replay still accepts it
    _rewrite(run_dir / "ledger.txt",
             lambda text: text.replace(" deadline_window=600", " deadline_window=1", 1))


def _miscount_participants(run_dir):
    _rewrite(run_dir / "run.json",
             lambda text: text.replace('"participants": 2,', '"participants": 3,', 1))


def _rekey_first_feedback(run_dir):
    _rewrite(run_dir / "ledger.txt", lambda text: re.sub(
        r"^(Feedback .* h_keys=)\w+", r"\g<1>" + "ab" * 32, text, count=1, flags=re.M))


def _remodel_last_feedback(run_dir):
    def edit(text):
        at = text.rindex("\nFeedback ") + 1
        return text[:at] + re.sub(r"h_model=\w+", "h_model=" + "ab" * 32, text[at:], count=1)
    _rewrite(run_dir / "ledger.txt", edit)


def _remodel_last_round(run_dir):
    # every round-4 Feedback agrees on a model digest that is not the final model's
    _rewrite(run_dir / "ledger.txt", lambda text: re.sub(
        r"^(Feedback .* round=4 .* h_model=)\w+", r"\g<1>" + "ab" * 32, text, flags=re.M))


def _remove_run_json(run_dir):
    os.remove(run_dir / "run.json")


def _truncate_run_json(run_dir):
    _rewrite(run_dir / "run.json", lambda text: text[: len(text) // 2])


@pytest.mark.parametrize("forge, fragment", [
    (_rescore, "replayed scores"),
    (_renumber_round_3_key, "client-1: round 3 s2p row does not match ledger block"),
    (_commit_keys_on_round_1, "round 1 does not rotate keys but has a key commitment"),
    (_drop_rotation_reply_commitment, "round 2 rotates keys without a key commitment"),
    (_drop_feedback, "cannot replay the run: BadField"),
    (_upper_case_hex, "cannot replay the run: BadField: not a ledger line"),
    (_shorten_first_deadline, "deadline_window=1 is not run.json's 600"),
    (_miscount_participants, "client_count=2 is not run.json's 3"),
    (_rekey_first_feedback, "h_keys is not the key commitment in force"),
    (_remodel_last_feedback, "round 4: Feedback blocks disagree on h_model"),
    (_remodel_last_round, "round 4: Feedback h_model is not run.json's final_model_digest"),
    (_remove_run_json, "cannot replay the run: FileNotFoundError"),
    (_truncate_run_json, "cannot replay the run: JSONDecodeError"),
], ids=["rescored-feedback", "renumbered-key", "keys-committed-off-schedule",
        "rotation-reply-uncommitted", "dropped-feedback", "upper-case-hex", "shortened-deadline",
        "miscounted-participants", "rekeyed-feedback", "remodelled-last-feedback",
        "remodelled-last-round", "missing-run-json", "truncated-run-json"])
def test_forged_run_fails_verification(forge, fragment, tmp_path, capsys):
    """Each forgery keeps the transcripts in agreement, so only the replayed
    ledger, run.json or the ratchet schedule can refute it."""
    run_dir = tmp_path / "run"
    write_outputs(run_simulation(small()), str(run_dir))
    forge(run_dir)
    problems = verify_transcripts(str(run_dir))
    assert any(fragment in p for p in problems), problems
    if "run.json" in forge.__name__:
        assert len(problems) == 1
    assert main(["verify-transcripts", "--run", str(run_dir)]) == 1
    captured = capsys.readouterr()
    assert "consistent" not in captured.out and "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("forge", [_drop_feedback, _upper_case_hex])
def test_cli_export_ledger_refuses_a_log_that_does_not_replay(forge, tmp_path, capsys):
    run_dir = tmp_path / "run"
    write_outputs(run_simulation(small()), str(run_dir))
    forge(run_dir)
    assert main(["export-ledger", "--run", str(run_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_key_material_shrinks_with_longer_epochs():
    sizes = []
    for length in (5, 10, 20, 30):
        cfg = SimConfig(
            participants=2, rounds=60, ratchet_range=length, model_dim=4, seed=3
        )
        sizes.append(run_simulation(cfg).key_material_bytes)
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < sizes[0]


def test_each_delivery_is_encoded_once(monkeypatch):
    counts = {"encode": 0, "delivery": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(
        protocol.SignedEnvelope, "encode",
        counting(protocol.SignedEnvelope.encode, "encode"),
    )
    for cls, handler in (
        (protocol.Server, "handle_key_response"), (protocol.Server, "handle_update"),
        (protocol.Participant, "handle_keys"), (protocol.Participant, "handle_task"),
    ):
        monkeypatch.setattr(cls, handler, counting(getattr(cls, handler), "delivery"))
    cfg = small(participants=3, rounds=5)
    m = run_simulation(cfg)
    # an announcement, a response, and one task and one update per round
    assert counts["delivery"] == 2 * cfg.participants * (cfg.rounds + 1)
    assert counts["encode"] == counts["delivery"]
    final = [r for r in m.rows if r.round == cfg.rounds]
    assert sum(r.offchain_recv_bytes for r in final) == sum(r.offchain_bytes for r in final)


def test_only_a_leak_scan_captures_envelopes(monkeypatch):
    channels = []
    init = harness.Channel.__init__

    def remember(channel, *args):
        init(channel, *args)
        channels.append(channel)

    scans = []
    scan_for_leak = harness.Channel.scan_for_leak

    def counting(channel, blob):
        scans.append(len(blob))
        scan_for_leak(channel, blob)

    monkeypatch.setattr(harness.Channel, "__init__", remember)
    monkeypatch.setattr(harness.Channel, "scan_for_leak", counting)
    run_simulation(small())
    assert channels[-1].captured == [] and scans == []
    cfg = small(free_ride=True)
    m = run_simulation(cfg)
    p, r = cfg.participants, cfg.rounds
    # every delivery but the withheld final update, and every model sent in
    # the clear: one global model and P local models a round, less that update
    envelopes, models = 2 * p * (r + 1) - 1, r + p * r - 1
    assert channels[-1].captured == [] and len(scans) == envelopes
    (scan,) = [a for a in m.attacks if a.phase == "eavesdrop"]
    assert scan.detail == (
        f"scanned {envelopes} captured envelopes for {models} plaintext models"
    )


def test_eavesdropper_keeps_only_an_envelope_holding_a_shown_model():
    channel = harness.Channel(crypto.DeterministicRng(0), small(free_ride=True))
    model = fl.serialize_model(fl.ModelVector(np.arange(8.0), 1, fl.GLOBAL_TAG))
    channel.shown.append(model)
    blob = b"header" + model + b"trailer"
    channel.carry("task", b"sealed", 1, 0, lambda got: None)
    channel.carry("task", blob, 1, 1, lambda got: None)
    (scan,) = channel.report()
    assert (scan.outcome, scan.rejected) == ("leaked 1", False)
    assert channel.captured == [blob]
    assert scan.detail == "scanned 2 captured envelopes for 1 plaintext models"


def test_free_ride_keeps_no_envelope_past_its_hop():
    shape = dict(rounds=4, ratchet_range=4, model_dim=65536)
    cfg = small(**shape)

    def peak(config) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_simulation(config)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    honest, free_ride = peak(cfg), peak(small(free_ride=True, **shape))
    p, r, model = cfg.participants, cfg.rounds, 8 * cfg.model_dim
    shown = (r + p * r - 1) * model    # every model sent in the clear
    one_round = 2 * p * model          # a task and an update envelope per participant
    assert free_ride - honest < shown + one_round


def _round_peaks(config: SimConfig, monkeypatch) -> list[float]:
    """Each round's traced peak over what the run holds when the round
    begins, in model sizes; a round runs from `publish_round` to `feedback`."""
    publish, feedback = protocol.Server.publish_round, protocol.Server.feedback
    rounds = []

    def publish_round(server, model):
        tracemalloc.reset_peak()
        rounds.append(tracemalloc.get_traced_memory()[0])
        return publish(server, model)

    def close(server, model):
        out = feedback(server, model)
        rounds[-1] = tracemalloc.get_traced_memory()[1] - rounds[-1]
        return out

    with monkeypatch.context() as m:
        m.setattr(protocol.Server, "publish_round", publish_round)
        m.setattr(protocol.Server, "feedback", close)
        tracemalloc.start()
        try:
            run_simulation(config)
        finally:
            tracemalloc.stop()
    return [peak / (8 * config.model_dim) for peak in rounds]


def test_a_round_holds_the_same_model_copies_at_any_participant_count(monkeypatch):
    # round 1 rotates keys, round 2 is the last; the global model a round
    # begins with is part of what the run holds, not of the round's peak.
    # One run first, untraced: what a process loads once, such as numpy's
    # lazily imported `numpy.random`, is not a round's copy
    run_simulation(small(participants=1, rounds=1))
    one, four = (
        max(_round_peaks(SimConfig(participants=p, rounds=2, ratchet_range=1,
                                   model_dim=2**16), monkeypatch))
        for p in (1, 4)
    )
    assert one <= 5
    assert four - one < 1


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
def test_a_run_whose_verifier_child_dies_mid_round_completes_unchanged(monkeypatch, tmp_path):
    cfg = small(participants=3, rounds=4)
    train, trained = fl.local_train, []
    result, answered, pending = crypto._Answer.result, [], []

    def counting_result(handle):   # (handle, its answer, asked before the kill)
        out = result(handle)
        answered.append((handle, out, len(trained) < 5))
        return out

    def train_then_kill(*args, **kwargs):
        trained.append(None)
        if len(trained) == 4:   # round 2, first participant: every task is sent
            # read the answers to the task checks, then stop the child, so
            # that the first update's check stays in flight until the kill
            with verifier._lock:
                while verifier._sent:
                    assert verifier._receive(verifier.TIMEOUT)
            os.kill(verifier._proc.pid, signal.SIGSTOP)
        if len(trained) == 5:   # round 2, second participant: checks are in flight
            pending.extend(verifier._sent)
            assert verifier.is_alive() and pending
            verifier._proc.kill()
            verifier._proc.wait(timeout=10)
        return train(*args, **kwargs)

    with ready_verifier(monkeypatch) as verifier:
        monkeypatch.setattr(crypto, "verifier", verifier)
        monkeypatch.setattr(fl, "local_train", train_then_kill)
        monkeypatch.setattr(crypto._Answer, "result", counting_result)
        killed = write_outputs(run_simulation(cfg), str(tmp_path / "killed"))
        assert len(trained) == cfg.participants * cfg.rounds
    assert not verifier.is_alive()
    assert any(out is not None for _, out, before in answered if before)
    # every check in flight at the kill has no answer, and is checked here
    killed_checks = [out for handle, out, _ in answered if handle in pending]
    assert killed_checks and all(out is None for out in killed_checks)
    monkeypatch.setattr(fl, "local_train", train)
    with crypto.Verifier() as in_process:
        in_process.close()   # never starts a child: every check runs here
        monkeypatch.setattr(crypto, "verifier", in_process)
        clean = write_outputs(run_simulation(cfg), str(tmp_path / "clean"))
    assert killed.keys() == clean.keys()
    for name in killed:
        assert Path(killed[name]).read_bytes() == Path(clean[name]).read_bytes(), name


# --- wide exchanges: the helper thread -----------------------------------------

WIDE = dict(participants=3, rounds=3, ratchet_range=2, model_dim=2**16)


def _wide_run(monkeypatch, out_dir, verifier=None, **flags):
    """Artifacts of one wide run checked by `verifier`, by default a fresh
    one, whose helper may start, and each wide check's verdict: True or False
    from the helper, None if it was checked otherwise.  The verifier is
    closed at the end."""
    monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
    verify, verdicts = crypto.verify, []

    def recording(public, message, signature, check=None):
        if len(message) > 2**16:
            verdicts.append(check.result() if isinstance(check, crypto._Job) else None)
        return verify(public, message, signature, check)

    with verifier or crypto.Verifier() as verifier, monkeypatch.context() as m:
        m.setattr(crypto, "verifier", verifier)
        m.setattr(crypto, "verify", recording)
        metrics = run_simulation(SimConfig(seed=29, **WIDE, **flags))
    paths = write_outputs(metrics, str(out_dir))
    return {name: Path(path).read_bytes() for name, path in paths.items()}, metrics, verdicts


@pytest.mark.parametrize("scenario", [None, *SCENARIO_FLAGS])
def test_a_wide_run_sends_ahead_with_the_artifacts_of_one_window(scenario, monkeypatch, tmp_path):
    flags = {SCENARIO_FLAGS[scenario]: True} if scenario else {}
    hashed, committed = [], []   # (on the helper, SHA-256) of each hash job; update commitments
    run, update_model = crypto._Job.run, Ledger.update_model

    def recording_run(job):
        out = run(job)
        if isinstance(job._value, bytes):
            hashed.append((threading.current_thread().name == "pqbfl-helper", job._value))
        return out

    def recording_update(ledger, sender, round, h_info, *rest):
        committed.append(h_info)
        return update_model(ledger, sender, round, h_info, *rest)

    monkeypatch.setattr(crypto._Job, "run", recording_run)
    monkeypatch.setattr(Ledger, "update_model", recording_update)
    ahead, metrics, verdicts = _wide_run(monkeypatch, tmp_path / "ahead", **flags)
    assert True in verdicts   # the helper answered checks
    # every update commitment was hashed on the helper, beside its seal
    assert committed and all((True, h) in hashed for h in committed)
    hashed.clear()
    monkeypatch.setattr(harness, "WAVE_BYTES", 2**40)   # one window of every participant
    windowed, _, none_ahead = _wide_run(monkeypatch, tmp_path / "windowed", **flags)
    assert not any(v is not None for v in none_ahead)
    assert hashed and not any(on_helper for on_helper, _ in hashed)
    assert ahead == windowed
    assert metrics.all_attacks_rejected() and verify_transcripts(str(tmp_path / "ahead")) == []


def test_an_abandoned_verifier_child_leaves_the_helper_working(monkeypatch, tmp_path):
    # a wide run's establishment exchange is small, so it may use the child;
    # a child abandoned there ends alone, and every wide round keeps its helper
    verifier = ready_verifier(monkeypatch)
    verifier._abandon()
    assert not verifier.is_alive()
    with verifier.exchange(3, wide=False):
        assert not verifier.accepting   # small checks stay in-process
    pair, message = crypto.sig_keygen(crypto.DeterministicRng(b"helper")), bytes(2**17)
    with verifier.exchange(3, wide=True):
        assert verifier.helping
        handle = verifier.submit(pair.public, message, crypto.sign(pair, message))
        assert isinstance(handle, crypto._Job) and handle.result() is True
    abandoned, _, verdicts = _wide_run(monkeypatch, tmp_path / "abandoned", verifier)
    assert True in verdicts   # the helper answered the run's wide checks
    assert not verifier.is_alive() and not verifier._helper.is_alive()   # `close` reaped both
    fresh, _, _ = _wide_run(monkeypatch, tmp_path / "fresh")
    assert abandoned == fresh


@pytest.mark.parametrize("scenario,outcome", [("tamper", "BadSignature"),
                                              ("replay", "ReplayDetected")])
def test_an_injected_wide_copy_is_checked_in_process_and_refused(
    scenario, outcome, monkeypatch, tmp_path
):
    checked, verify_digest = [], secp256k1.verify_digest

    def in_process(public, digest, signature):
        if threading.current_thread() is threading.main_thread():
            checked.append(digest)
        return verify_digest(public, digest, signature)

    monkeypatch.setattr(secp256k1, "verify_digest", in_process)
    _, metrics, verdicts = _wide_run(monkeypatch, tmp_path, **{SCENARIO_FLAGS[scenario]: True})
    (record,) = metrics.attacks
    assert (record.outcome, record.rejected) == (outcome, True)
    assert isinstance(getattr(protocol, outcome)(), harness.EXPECTED[scenario])
    # each round's first task is checked at once, here; of the others only
    # the injected copy gets no verdict from the helper
    p, r = WIDE["participants"], WIDE["rounds"]
    assert verdicts.count(None) == r + 1 and verdicts.count(True) == (2 * p - 1) * r
    assert len(checked) >= 1


@pytest.mark.parametrize("shape", [dict(participants=3, rounds=3, ratchet_range=2), WIDE],
                         ids=["child", "helper"])
def test_only_the_honest_copy_carries_its_check_handle(shape, monkeypatch):
    # the child is ready before the run, so every honest check can be
    # handed over; only a wide exchange's first task is checked at once
    injecting, calls = [], []   # (injected, delivered with a handle) per crypto.verify call
    attempt, verify = harness.Channel._attempt, crypto.verify

    def spy_attempt(channel, *args):
        injecting.append(True)
        try:
            return attempt(channel, *args)
        finally:
            injecting.pop()

    def spy_verify(public, message, signature, check=None):
        calls.append((bool(injecting), check is not None))
        return verify(public, message, signature, check)

    with ready_verifier(monkeypatch) as verifier:
        monkeypatch.setattr(crypto, "verifier", verifier)
        monkeypatch.setattr(harness.Channel, "_attempt", spy_attempt)
        monkeypatch.setattr(crypto, "verify", spy_verify)
        metrics = run_simulation(SimConfig(
            seed=31, **shape, replay_attack=True, tamper_attack=True, mitm_key_swap=True))
    # a tampered copy checked with the honest copy's handle would pass its
    # signature check and fail only at the AEAD, as an AuthFailure
    assert {r.scenario: r.outcome for r in metrics.attacks} == {
        "mitm_key_swap": "CommitmentMismatch", "tamper": "BadSignature",
        "replay": "ReplayDetected"}
    assert [handed for injected, handed in calls if injected] == [False] * 3
    honest = [handed for injected, handed in calls if not injected]
    first = shape["rounds"] if shape is WIDE else 0
    assert honest.count(False) == first and len(honest) == 2 * shape["participants"] * (
        shape["rounds"] + 1)


@pytest.mark.parametrize("budget", [600, 3000, 4400])
def test_an_exchange_over_several_windows_keeps_the_artifacts_of_one(budget, monkeypatch, tmp_path):
    # at dim 8 an announcement is 1,445 bytes, a task 292 and a rotation task
    # 1,549: these budgets split five participants into windows of one to
    # three, with a last window of one or two
    cfg = small(participants=5, rounds=3, replay_attack=True, tamper_attack=True)
    one = write_outputs(run_simulation(cfg), str(tmp_path / "one"))
    monkeypatch.setattr(harness, "WAVE_BYTES", budget)
    split = write_outputs(run_simulation(cfg), str(tmp_path / "split"))
    assert one.keys() == split.keys()
    for name in one:
        assert Path(one[name]).read_bytes() == Path(split[name]).read_bytes(), name


def test_the_helper_starts_only_for_a_wide_exchange_of_two_or_more(monkeypatch):
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", spy)
    with crypto.Verifier() as verifier:
        monkeypatch.setattr(crypto, "verifier", verifier)
        run_simulation(SimConfig(participants=1, rounds=2, ratchet_range=1, model_dim=2**16))
        run_simulation(SimConfig(participants=3, rounds=2, ratchet_range=1, model_dim=32))
        assert started == [] and verifier._helper is None
        run_simulation(SimConfig(participants=2, rounds=2, ratchet_range=1, model_dim=2**16))
        assert started == ["pqbfl-helper"] and verifier._helper.is_alive()
    assert not verifier._helper.is_alive()   # joined at close
    # in a fresh process: mallopt, spied on through ctypes, is called once
    # per process, where the first helper starts, and never on import
    code = (
        "import ctypes, threading\n"
        "import cryptography, numpy\n"
        "calls = []\n"
        "class Libc:\n"
        "    def __init__(self, name):\n"
        "        self.mallopt = lambda param, value: calls.append((param, value)) or 1\n"
        "ctypes.CDLL = Libc\n"
        "import pqbfl.__main__, pqbfl.cli, pqbfl.harness, pqbfl.protocol\n"
        "from pqbfl import crypto, harness\n"
        "assert threading.active_count() == 1 and calls == []\n"
        "crypto._usable_cpus = lambda: 2\n"
        "def run(participants, dim):\n"
        "    harness.run_simulation(harness.SimConfig(\n"
        "        participants=participants, rounds=2, ratchet_range=1, model_dim=dim))\n"
        "run(1, 2**16)\n"
        "run(3, 32)\n"
        "assert threading.active_count() == 1 and crypto.verifier._helper is None\n"
        "assert calls == []\n"
        "run(2, 2**16)\n"
        "assert calls == [(-3, 32 * 2**20), (-1, 256 * 2**20)]\n"
        "crypto.verifier.close()\n"
        "crypto.verifier = crypto.Verifier()\n"
        "run(2, 2**16)\n"
        "assert crypto.verifier._helper is not None and len(calls) == 2\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(crypto.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's")
def test_a_warm_wide_run_faults_in_almost_no_fresh_pages():
    # with glibc's dynamic thresholds, which hand freed model buffers back
    # to the kernel, the second run took about 3,500 minor faults
    code = (
        "import resource\n"
        "from pqbfl import crypto, harness\n"
        "crypto._usable_cpus = lambda: 2\n"
        "config = harness.SimConfig(participants=3, rounds=3, ratchet_range=2, model_dim=2**16)\n"
        "harness.run_simulation(config)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "harness.run_simulation(config)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(crypto.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60,
                         capture_output=True, text=True).stdout
    assert int(out) < 1000


# --- fault injection ---------------------------------------------------------

# the replay plan targets the free rider's final update, which is withheld
NEVER_FIRES = dict(
    participants=2, rounds=1, ratchet_range=1, replay_attack=True, free_ride=True,
)


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_an_injection_that_never_fires_is_not_rejected(seed):
    m = run_simulation(SimConfig(seed=seed, **NEVER_FIRES))
    (replay,) = [a for a in m.attacks if a.scenario == "replay"]
    assert (replay.phase, replay.round, replay.victim) == ("update", 1, "client-2")
    assert (replay.outcome, replay.rejected) == ("not injected", False)
    assert not m.all_attacks_rejected()


@pytest.mark.parametrize("scenario", list(SCENARIO_FLAGS))
def test_each_scenario_is_rejected(scenario):
    m = run_simulation(small(seed=29, **{SCENARIO_FLAGS[scenario]: True}))
    mine = [a for a in m.attacks if a.scenario == scenario]
    assert mine, "scenario left no injection record"
    assert all(a.rejected for a in mine)
    assert m.terminated
    assert m.all_attacks_rejected()


def test_free_rider_earns_less():
    m = run_simulation(small(free_ride=True, rounds=5))
    assert m.scores["client-2"] == m.scores["client-1"] - 1


def test_free_ride_needs_two_parties():
    with pytest.raises(ValueError):
        SimConfig(participants=1, rounds=2, ratchet_range=2, free_ride=True)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(participants=0, rounds=1, ratchet_range=2)
    with pytest.raises(ValueError):
        SimConfig(participants=1, rounds=0, ratchet_range=2)
    with pytest.raises(ValueError):
        SimConfig(participants=1, rounds=1, ratchet_range=0)


def test_rounds_beyond_one_byte_rejected_up_front(capsys):
    # the ledger prices a round number as one byte
    with pytest.raises(ValueError, match="at most 255"):
        SimConfig(rounds=256)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--rounds", "256", "--out", "unused"])
    assert exc.value.code == 2
    assert "at most 255" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, fragment", [
    ("--deposit", "20000", "deposit"),
    ("--deposit", "-5", "deposit"),
    ("--skew", "-1", "skew"),
    ("--noise-scale", "nan", "noise scale"),
    ("--noise-scale", "-1", "noise scale"),
    ("--noise-scale", "1e308", "noise scale"),
    ("--seed", "-1", "seed"),
    ("--participants", "65536", "participants"),
    ("--model-dim", str(harness.MAX_MODEL_DIM + 1), "model_dim"),
    ("--ratchet-range", "0", "symmetric range"),
    ("--ratchet-range", "2,0", "symmetric range"),
])
def test_bad_configs_rejected_before_any_party_is_built(
    flag, value, fragment, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "run_simulation", _never)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--participants", "2", "--rounds", "3", flag, value, "--out", "unused"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("pqbfl: error: ") and fragment in err[-1]
    assert not any("Traceback" in line for line in err)


def test_a_run_the_host_cannot_hold_is_refused_up_front(monkeypatch, capsys):
    monkeypatch.setattr(harness, "physical_memory", lambda: 64 * 2**20)
    fits = dict(participants=4, rounds=255, model_dim=2**16)   # 2.5 MiB of round copies
    assert SimConfig(**fits).peak_bytes() == harness.ROUND_MODEL_COPIES * 8 * 2**16
    # the eavesdropper keeps every model shown in the clear: 255 * 5 more
    with pytest.raises(ValueError, match="estimated peak memory 0.6 GiB exceeds"):
        SimConfig(**fits, free_ride=True)
    with pytest.raises(ValueError, match="estimated peak memory"):
        SimConfig(model_dim=2**21)
    monkeypatch.setattr(cli, "run_simulation", _never)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--participants", "4", "--rounds", "255", "--model-dim", str(2**16),
              "--scenario", "free_ride", "--out", "unused"])
    assert exc.value.code == 2
    assert "estimated peak memory" in capsys.readouterr().err
    monkeypatch.setattr(harness, "physical_memory", lambda: None)   # unknown: not refused
    SimConfig(model_dim=2**21)


def test_the_largest_free_ride_run_is_refused_on_any_host(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_simulation", _never)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--participants", "4", "--rounds", "255", "--model-dim", "536000000",
              "--scenario", "free_ride", "--out", "unused"])
    assert exc.value.code == 2
    assert "estimated peak memory 5111.7 GiB" in capsys.readouterr().err


def test_model_dim_bound_fits_every_length_prefix(monkeypatch):
    # a host large enough for the run, so only the length bound is in question
    monkeypatch.setattr(harness, "physical_memory", lambda: 2**40)
    SimConfig(model_dim=harness.MAX_MODEL_DIM)   # accepted; nothing is allocated
    # a sealed rotation-round task is the largest payload; measure everything
    # besides its model values on a one-entry model with the longest tag
    model = fl.ModelVector([0.0], 1, "t" * 255)
    plaintext = protocol.TaskPayload(
        1, 1, 1, 600, fl.WireModel(model),
        b"k" * crypto.KEM_PUBLIC_BYTES, b"d" * crypto.DH_PUBLIC_BYTES,
    ).encode()
    overhead = len(crypto.aead_seal(bytes(32), bytes(12), b"", plaintext)) - 8
    assert 8 * harness.MAX_MODEL_DIM + overhead < 2**32


@pytest.mark.parametrize("field, value", [
    ("project_id", 70000),
    ("project_id", -1),
    ("deadline_window", 70000),
    ("deadline_window", -1),
])
def test_two_byte_fields_rejected_before_the_run(field, value):
    # the ledger prices both as two bytes; out of range they used to fail
    # mid-run, at registration or in the first round's task encode
    with pytest.raises(ValueError, match=f"{field} must be between 0 and 65535"):
        run_simulation(small(**{field: value}))


@pytest.mark.parametrize("field", ["project_id", "deadline_window"])
def test_two_byte_fields_run_at_their_bounds(field):
    for value in (0, 0xFFFF):
        m = run_simulation(small(rounds=2, **{field: value}))
        assert m.rows[-1].round == 2


# --- command line ------------------------------------------------------------

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["attack_drill.py", "--trials", "2"],
    ["cost_sweep.py", "--participants", "2", "--rounds", "4", "--intervals", "1", "2"],
])
def test_script_exits_zero(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out

def test_cli_honest_run_exit_zero(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "run", "--participants", "2", "--rounds", "3", "--ratchet-range", "2",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "run.json").exists()
    summary = json.loads((out / "run.json").read_text())
    assert summary["terminated"] is True
    assert "3 rounds" in capsys.readouterr().out


def test_cli_attack_run_exit_zero_when_rejected(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "run", "--participants", "1", "--rounds", "2", "--ratchet-range", "2",
        "--seed", "5", "--scenario", "tamper", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "tamper" in text and "rejected" in text


def test_cli_reports_an_injection_that_never_fires_as_failed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_config_from", lambda args: SimConfig(seed=1, **NEVER_FIRES))
    assert main(["run", "--out", str(tmp_path / "run")]) == 1
    text = capsys.readouterr().out
    assert "injection replay (update, round 1, client-2): not injected [FAILED]" in text
    assert "ACCEPTED" not in text


def test_cli_ratchet_range_pair(tmp_path):
    out = tmp_path / "run"
    code = main([
        "run", "--participants", "1", "--rounds", "4", "--ratchet-range", "2,3",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "run.json").read_text())
    assert summary["config"]["ratchet_range"] == [2, 3]


def test_cli_verify_transcripts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main([
        "run", "--participants", "1", "--rounds", "2", "--ratchet-range", "2",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert main(["verify-transcripts", "--run", str(out)]) == 0
    assert "consistent" in capsys.readouterr().out

    victim = out / "transcript-server.txt"
    victim.write_text(victim.read_text().replace("digest=", "digest=00", 1))
    assert main(["verify-transcripts", "--run", str(out)]) == 1


def test_cli_export_ledger_from_run_dir(tmp_path, capsys):
    out = tmp_path / "run"
    main([
        "run", "--participants", "1", "--rounds", "2", "--ratchet-range", "2",
        "--out", str(out),
    ])
    capsys.readouterr()
    assert main(["export-ledger", "--run", str(out)]) == 0
    text = capsys.readouterr().out
    assert "RegProject" in text and "ProjectTerminate" in text


def test_cli_export_ledger_requires_a_run_dir(tmp_path, monkeypatch, capsys):
    """There is no simulate mode: without --run the command is a usage error."""
    monkeypatch.setattr(cli, "run_simulation", _never)
    target = tmp_path / "chain.txt"
    with pytest.raises(SystemExit) as exc:
        main(["export-ledger", "--out", str(target)])
    assert exc.value.code == 2
    assert "--run" in capsys.readouterr().err
    assert not target.exists()


def test_cli_export_ledger_offers_only_run_and_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export-ledger", "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--run", "--out"}


@pytest.mark.parametrize("argv, fragment", [
    (["run", "--out", "{file}"], "is not a directory"),
    (["run", "--out", "{file}/run/deeper"], "is not a directory"),
    (["export-ledger", "--run", "{dir}", "--out", "{missing}/chain.txt"], "no directory"),
    (["export-ledger", "--run", "{dir}", "--out", "{dir}"], "is a directory"),
], ids=["run-into-a-file", "run-under-a-file", "export-into-a-missing-directory",
        "export-onto-a-directory"])
def test_unwritable_out_rejected_before_simulating(
    argv, fragment, tmp_path, monkeypatch, capsys
):
    existing = tmp_path / "existing.txt"
    existing.write_text("kept\n")
    places = {"file": existing, "missing": tmp_path / "missing", "dir": tmp_path}
    argv = [arg.format(**places) for arg in argv]
    monkeypatch.setattr(cli, "run_simulation", _never)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("pqbfl: error: --out ") and fragment in err[-1]
    assert argv[-1] in err[-1]
    assert existing.read_text() == "kept\n"


def test_write_and_read_failures_are_errors_not_tracebacks(tmp_path, monkeypatch, capsys):
    def full_disk(metrics, out_dir):
        raise OSError(28, "No space left on device", out_dir)

    monkeypatch.setattr(cli, "run_simulation", lambda config: None)
    monkeypatch.setattr(cli, "write_outputs", full_disk)
    assert main(["run", "--out", str(tmp_path / "run")]) == 1
    assert main(["export-ledger", "--run", str(tmp_path / "absent")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["error", "error"]
    assert "No space left" in err[0] and "absent" in err[1]
