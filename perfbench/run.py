#!/usr/bin/env python3
"""pqbfl benchmark: closed-loop simulation runs over one named workload.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload long-epoch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process and one thread drive `pqbfl.harness.run_simulation` in a closed
loop: each simulation starts after the previous one ends, and `all` runs the
workloads one after another in fresh processes.  Every simulation passes the
correctness gate in `gate.py` or counts as failed.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced runs of the same configs, checks that their artifacts are
byte-identical, and prints the per-layer metrics from the traced runs.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The lines above it give the seed, every metric with its unit and sample
count, and any problems.  Traced runs write the spans of their first cycle
to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"

SMALL = dict(model_dim=32, ratchet_range=1)
# name: (SimConfig shapes cycled over consecutive seeds, honest); the reason
# for each workload is in BENCHMARK.json and README.md
WORKLOADS = {
    "rekey-every-round": (
        (dict(participants=8, rounds=10, ratchet_range=1, model_dim=32),), True),
    "long-epoch": (
        (dict(participants=16, rounds=30, ratchet_range=30, model_dim=32),), True),
    "wide-model": (
        (dict(participants=4, rounds=8, ratchet_range=8, model_dim=262144),), True),
    "fault-drill": ((
        dict(participants=1, rounds=2, replay_attack=True, **SMALL),
        dict(participants=1, rounds=2, tamper_attack=True, **SMALL),
        dict(participants=1, rounds=1, mitm_key_swap=True, **SMALL),
        dict(participants=2, rounds=2, free_ride=True, **SMALL),
    ), False),
}
MIN_CYCLES = 2
TAIL_BEYOND = 10       # the tail percentile keeps this many samples above it
OPS = ("keygen", "encap", "decap", "derive", "sign", "verify")
COUNTERS = OPS + ("offchain_recv_bytes", "key_material_bytes")
REJECTED = ("ReplayDetected", "BadSignature", "AuthFailure", "CommitmentMismatch")
END_TO_END = (
    ("setup_s", "s"), ("round_p50_ms", "ms"), ("round_tail_ms", "ms"),
    ("participant_rounds_per_s", "1/s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
    ("onchain_bytes_per_round", "B"), ("offchain_bytes_per_participant_round", "B"),
)
# The end-to-end metrics the JSON result carries.  The others are printed only:
# the shared host alternates between a fast and a ~1.6-2x slower speed for
# seconds to tens of seconds at a time, so a median or mean over one run moves
# with the mix of the two, while the tail stays in the slow mode and repeats.
GATED = ("setup_s", "round_tail_ms", "peak_rss_mb",
         "onchain_bytes_per_round", "offchain_bytes_per_participant_round")


def load_program():
    """Import pqbfl from this checkout's src/ and nowhere else."""
    if not (SRC / "pqbfl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pqbfl sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import pqbfl
    if Path(pqbfl.__file__).resolve().parent != SRC / "pqbfl":
        sys.exit(f"perfbench: imported pqbfl from {pqbfl.__file__}, not {SRC}")


@dataclass
class Sim:
    """One gated simulation run."""
    config: object
    problems: list[str]
    setup_s: float = 0.0
    rounds_s: list[float] = field(default_factory=list)
    sim_s: float = 0.0          # run_simulation
    run_s: float = 0.0          # run_simulation + write_outputs
    digests: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)   # all parties, end of run
    onchain_per_round: float = 0.0
    offchain_per_participant_round: float = 0.0
    layers: dict = field(default_factory=dict)     # traced runs only


def configs(shapes, seed: int, cycle: int) -> list:
    from pqbfl.harness import SimConfig
    base = seed * 1_000_003 + cycle * len(shapes)
    return [SimConfig(seed=base + j, **shape) for j, shape in enumerate(shapes)]


def run_once(config, clock, tracer=None, expected_digest: str | None = None) -> Sim:
    from pqbfl import harness
    import gate

    run_dir = OUT / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    clock.reset()
    if tracer is not None:
        tracer.begin()
        tracer.install()
    try:
        t0 = perf_counter()
        metrics = harness.run_simulation(config)
        t1 = perf_counter()
        paths = harness.write_outputs(metrics, str(run_dir))
        t2 = perf_counter()
    except Exception as exc:   # a run that crashes is a failed run, not a failed benchmark
        return Sim(config, [f"crashed: {type(exc).__name__}: {exc}"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    clock.finish()
    sim = Sim(config, [], setup_s=clock.first_publish - t0, rounds_s=list(clock.rounds),
              sim_s=t1 - t0, run_s=t2 - t0, digests=gate.artifact_digests(paths))
    if tracer is not None:
        sim.layers = tracer.summary()
    if expected_digest is not None:
        sim.problems = gate.problems(metrics, str(run_dir), expected_digest)
    last = [r for r in metrics.rows if r.round == config.rounds]
    first = [r for r in metrics.rows if r.round == 0]
    sim.counters = {k: sum(getattr(r, k) for r in last) for k in COUNTERS}
    pr = config.participants * config.rounds
    sim.offchain_per_participant_round = (
        sum(r.offchain_bytes for r in last) - sum(r.offchain_bytes for r in first)
    ) / pr
    sim.onchain_per_round = sum(gate.onchain_by_round(metrics)[1:]) - gate.FINISH_BYTES
    sim.onchain_per_round /= config.rounds
    return sim


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(sims: list[Sim]) -> tuple[dict, list[str]]:
    ok = [s for s in sims if not s.problems]
    rounds = [r for s in ok for r in s.rounds_s]
    tail_ms, pct = tail(rounds)
    tail_ms *= 1000
    values = {
        "setup_s": statistics.median(s.setup_s for s in ok),
        "round_p50_ms": statistics.median(rounds) * 1000,
        "round_tail_ms": tail_ms,
        "participant_rounds_per_s": sum(
            s.config.participants * s.config.rounds for s in ok
        ) / sum(s.sim_s - s.setup_s for s in ok),
        "run_s": statistics.median(s.run_s for s in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "onchain_bytes_per_round": statistics.median(s.onchain_per_round for s in ok),
        "offchain_bytes_per_participant_round": statistics.median(
            s.offchain_per_participant_round for s in ok
        ),
    }
    failed = len(sims) - len(ok)
    notes = {
        "setup_s": f"median of {len(ok)} set-ups",
        "round_p50_ms": f"median of {len(rounds)} rounds",
        "round_tail_ms": f"p{pct:.1f} of {len(rounds)} rounds",
        "run_s": f"median of {len(ok)} runs",
    }
    lines = [
        f"{name:<38} {values[name]:>14.4f} {unit:<6} {notes.get(name, '')}"
        for name, unit in END_TO_END
    ]
    lines.append(f"{'failed_share':<38} {failed / len(sims):>14.4f} {'ratio':<6} "
                 f"{failed} of {len(sims)} runs")
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END if n in GATED}, lines


def layer_metrics(cycles: list[dict]) -> dict:
    """Per-layer metrics: per-cycle values, median over cycles."""
    per_cycle = []
    for c in cycles:
        raw, x = c["raw"], {}

        def get(key):
            return raw.get(key, 0)
        for g in ("mlkem.keygen", "mlkem.encaps", "mlkem.decaps", "crypto.sign",
                  "crypto.verify", "crypto.dh", "crypto.hkdf", "crypto.aead",
                  "crypto.digest", "ratchet.symmetric", "ratchet.asymmetric",
                  "protocol.codec", "ledger.tx", "ledger.poll"):
            x[f"{g}.calls"] = get(f"{g}.calls")
            x[f"{g}.busy_s"] = get(f"{g}.busy_ns") / 1e9
        for g in ("crypto.aead", "crypto.digest", "protocol.codec", "fl.codec"):
            x[f"{g}.bytes"] = get(f"{g}.bytes")
        for g in ("fl.train", "fl.aggregate", "fl.codec", "ledger.export",
                  "harness.outputs", "harness.leak_scan"):
            x[f"{g}.busy_s"] = get(f"{g}.busy_ns") / 1e9
        for m in ("mlkem", "crypto", "ratchet", "protocol", "ledger", "fl", "harness"):
            x[f"{m}.self_s"] = get(f"{m}.self_ns") / 1e9
        x["protocol.server.self_s"] = get("protocol.server.self_ns") / 1e9
        x["protocol.participant.self_s"] = get("protocol.participant.self_ns") / 1e9
        x["crypto.ec_key_builds_per_key"] = get("ec_builds") / max(get("ec_keys"), 1)
        x["protocol.envelope.encodes_per_delivery"] = (
            get("envelope_encodes") / max(get("deliveries"), 1))
        named = 0
        for cls in REJECTED:
            x[f"protocol.rejected.{cls}"] = get(f"protocol.rejected.{cls}")
            named += x[f"protocol.rejected.{cls}"]
        x["protocol.rejected.other"] = get("rejected") - named
        x["protocol.rejected_share"] = get("rejected") / max(get("deliveries"), 1)
        x["ledger.poll.events_scanned"] = get("ledger.poll.events_scanned")
        x["ledger.poll.useful_ratio"] = (
            get("ledger.poll.returned") / max(get("ledger.poll.events_scanned"), 1))
        x["harness.channel.captured_bytes"] = get("captured_bytes")
        x["fl.plain_fedavg_s"] = c["plain_s"]
        x["protocol_overhead_x"] = c["round_s"] / c["plain_s"]
        x["unattributed_share"] = 1 - get("round_covered_ns") / max(get("round_wall_ns"), 1)
        per_cycle.append(x)
    return {k: statistics.median(x[k] for x in per_cycle) for k in per_cycle[0]}


def layer_unit(name: str) -> str:
    if name.startswith("ops."):
        return "B/p-round" if name.endswith("_bytes") else "ops/p-round"
    if name.startswith("protocol.rejected.") or name.endswith((".calls", "_scanned")):
        return "count"
    for suffix, unit in (("_x", "x"), ("_s", "s"), ("bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def round_profile(cycles: list[dict]) -> list[tuple[str, float]]:
    """Share of round time in the layers each workload is meant to stress."""
    total = sum(c["raw"].get("round_wall_ns", 0) for c in cycles) or 1
    share = lambda *groups: sum(  # noqa: E731
        c["raw"].get(f"round.{g}.busy_ns", 0) for c in cycles for g in groups) / total
    return sorted([
        ("mlkem", share("mlkem.keygen", "mlkem.encaps", "mlkem.decaps")),
        ("crypto.sign+verify", share("crypto.sign", "crypto.verify")),
        ("protocol.codec+crypto.digest+fl", share(
            "protocol.codec", "crypto.digest", "fl.train", "fl.aggregate", "fl.codec")),
        ("crypto.aead", share("crypto.aead")),
        ("ledger.tx+poll", share("ledger.tx", "ledger.poll")),
    ], key=lambda kv: -kv[1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from pqbfl import protocol
    import probe

    clock = probe.RoundClock()
    clock.install(protocol)
    tracer = None
    if trace:
        tracer = probe.Tracer()
        clock.on_round = tracer.set_round
    try:
        return _measure(name, seed, seconds, clock, tracer)
    finally:
        clock.uninstall()


def _measure(name, seed, seconds, clock, tracer) -> dict:
    from pqbfl.harness import SimConfig
    import gate

    shapes, honest = WORKLOADS[name]
    # load lazy code paths before timing anything
    warm = SimConfig(participants=1, rounds=2, ratchet_range=1, model_dim=4, seed=seed)
    run_once(warm, clock)
    if tracer is not None:
        run_once(warm, clock, tracer)

    sims, traced, cycles, first_spans = [], [], [], []
    start = last = perf_counter()
    cycle, cycle_s = 0, 0.0
    # closed loop; the last cycle started is the last one that fits in `seconds`
    while cycle < MIN_CYCLES or last - start + cycle_s <= seconds:
        raw, plain_s, round_s = {}, 0.0, 0.0
        for config in configs(shapes, seed, cycle):
            t = perf_counter()
            expected = gate.plain_fedavg_digest(config)
            plain_s += perf_counter() - t
            sim = run_once(config, clock, expected_digest=expected)
            sims.append(sim)
            round_s += sum(sim.rounds_s)
            if tracer is None:
                continue
            tsim = run_once(config, clock, tracer)
            if not tsim.problems and tsim.digests != sim.digests:
                tsim.problems.append("traced artifacts differ from the untraced run")
            if honest and not tsim.problems:
                for op, group in (("sign", "crypto.sign"), ("verify", "crypto.verify"),
                                  ("encap", "mlkem.encaps"), ("decap", "mlkem.decaps")):
                    if tsim.counters[op] != tsim.layers.get(f"{group}.calls", 0):
                        tsim.problems.append(
                            f"ops.{op}={tsim.counters[op]} but {group} ran "
                            f"{tsim.layers.get(f'{group}.calls', 0)} times")
            traced.append(tsim)
            for k, v in tsim.layers.items():
                raw[k] = raw.get(k, 0) + v
            if cycle == 0:
                first_spans.append({"seed": config.seed, "spans": tracer.spans})
        if tracer is not None:
            cycles.append({"raw": raw, "plain_s": plain_s, "round_s": round_s})
        cycle += 1
        now = perf_counter()
        cycle_s, last = now - last, now

    gated = sims + traced
    failed = sum(1 for s in gated if s.problems)
    lines = [f"workload={name} seed={seed} trace={int(tracer is not None)} cycles={cycle} "
             f"attempted={len(gated)} failed={failed}"]
    metrics = {}
    if failed < len(sims):
        metrics, e2e_lines = end_to_end(sims)
        lines += e2e_lines
    if tracer is not None:
        first = sims[:len(shapes)]
        pr = sum(s.config.participants * s.config.rounds for s in first)
        layers = layer_metrics(cycles)
        layers.update({f"ops.{k}": sum(s.counters.get(k, 0) for s in first) / pr
                       for k in COUNTERS})
        layers["tracing_overhead_x"] = (statistics.median(s.run_s for s in traced)
                                        / statistics.median(s.run_s for s in sims))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        lines += [f"{k:<38} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
        lines += [f"round profile: {g} {share:.1%}" for g, share in round_profile(cycles)]
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"spans-{name}-seed{seed}.json", "w") as fh:
            json.dump({"sites": tracer.sites, "fields": [
                "site", "start_ns", "end_ns", "parent", "round", "size", "error"],
                "runs": first_spans}, fh)
    lines += [f"problem: {p}" for p in sorted({p for s in gated for p in s.problems})[:20]]
    return {"lines": lines, "correct": failed == 0 and bool(metrics),
            "attempted": len(gated), "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    bad = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        bad += proc.returncode != 0 or not json.loads(last[0]).get("correct")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    load_program()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(result.pop("lines")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
