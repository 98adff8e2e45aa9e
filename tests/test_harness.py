"""End-to-end simulation harness: determinism, metrics shape, fault injection."""

import csv
import json
import os
import warnings

import pytest

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

COUNTER_COLUMNS = METRICS_HEADER[2:]


def small(**overrides) -> SimConfig:
    base = dict(participants=2, rounds=4, ratchet_range=2, model_dim=8, seed=11)
    base.update(overrides)
    return SimConfig(**base)


# --- honest runs -------------------------------------------------------------

def test_honest_run_completes():
    m = run_simulation(small())
    assert m.terminated
    assert m.attacks == []
    assert m.all_attacks_rejected()
    assert m.scores == {"client-1": 4, "client-2": 4}
    assert m.final_epoch == 2          # rotations after rounds 2; none after 4
    assert m.asymmetric_ratchets == 2  # establishment plus one rotation


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


def test_missing_transcript_reported(tmp_path):
    run_dir = tmp_path / "run"
    write_outputs(run_simulation(small()), str(run_dir))
    os.remove(run_dir / "transcript-client-2.txt")
    assert any("client-2" in p for p in verify_transcripts(str(run_dir)))


def test_key_material_shrinks_with_longer_epochs():
    sizes = []
    for length in (5, 10, 20, 30):
        cfg = SimConfig(
            participants=2, rounds=60, ratchet_range=length, model_dim=4, seed=3
        )
        sizes.append(run_simulation(cfg).key_material_bytes)
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < sizes[0]


# --- fault injection ---------------------------------------------------------

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


# --- command line ------------------------------------------------------------

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


def test_cli_export_ledger_fresh_simulation(tmp_path):
    target = tmp_path / "chain.txt"
    assert main([
        "export-ledger", "--participants", "1", "--rounds", "2",
        "--ratchet-range", "2", "--out", str(target),
    ]) == 0
    assert target.read_text().strip()
