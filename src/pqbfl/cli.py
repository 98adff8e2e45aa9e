"""Command-line harness around the simulation.

    pqbfl run --participants 5 --rounds 30 --ratchet-range 10 --seed 1 --out DIR
    pqbfl export-ledger --run DIR
    pqbfl verify-transcripts --run DIR

`run` executes one lifecycle and writes metrics.csv, ledger.txt, per-party
transcripts, and run.json into --out.  `export-ledger` prints the replayed
event log of a finished run directory.  `verify-transcripts` cross-checks the
server's and every participant's view of a finished run against its replayed
ledger.  Exit status is 0 only for an honest run, a run whose injected
attacks were all rejected, a log that replays, or a clean verification.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    SCENARIO_FLAGS, SCENARIOS, SimConfig, run_simulation, verify_transcripts, write_outputs,
)
from .ledger import Ledger, LedgerError, read_blocks


def _parse_ratchet_range(text: str) -> int | tuple[int, ...]:
    """Comma-separated ints; `SimConfig` checks the values."""
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ratchet range {text!r}") from exc
    return values[0] if len(values) == 1 else values


def _config_from(args: argparse.Namespace) -> SimConfig:
    return SimConfig(
        participants=args.participants,
        rounds=args.rounds,
        ratchet_range=args.ratchet_range,
        model_dim=args.model_dim,
        seed=args.seed,
        deposit=args.deposit,
        noise_scale=args.noise_scale,
        skew_bound=args.skew,
        **{flag: args.scenario == name for name, flag in SCENARIO_FLAGS.items()},
    )


def _out_problem(args: argparse.Namespace) -> str | None:
    """Why `--out` cannot be written, found before anything is simulated or read."""
    out = args.out
    if args.command == "run":   # created with its parents, under a directory
        held_by = os.path.abspath(out)
        while not os.path.exists(held_by):
            held_by = os.path.dirname(held_by)
        if not os.path.isdir(held_by):
            return f"--out {out}: {held_by} exists and is not a directory"
    elif os.path.isdir(out):
        return f"--out {out} is a directory"
    elif not os.path.isdir(os.path.dirname(out) or "."):
        return f"--out {out}: no directory {os.path.dirname(out)}"
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    metrics = run_simulation(args.config)
    paths = write_outputs(metrics, args.out)
    print(f"run complete: {args.rounds} rounds, {args.participants} participants")
    print(f"asymmetric ratchets per session: {metrics.final_epoch}")
    print(f"off-chain key material: {metrics.key_material_bytes} bytes")
    print(f"scores: {metrics.scores}")
    for rec in metrics.attacks:
        # only an injection the handler took is ACCEPTED; a leak, a rejection
        # with the wrong error or a plan that never fired is FAILED
        verdict = "rejected" if rec.rejected else (
            "ACCEPTED" if rec.outcome == "accepted" else "FAILED")
        print(
            f"injection {rec.scenario} ({rec.phase}, round {rec.round}, "
            f"{rec.victim}): {rec.outcome} [{verdict}]"
        )
    print(f"outputs in {args.out}: {', '.join(sorted(paths))}")
    if not metrics.terminated:
        print("error: run did not terminate")
        return 1
    return 0 if metrics.all_attacks_rejected() else 1


def _cmd_export_ledger(args: argparse.Namespace) -> int:
    with open(f"{args.run}/ledger.txt", errors="replace") as fh:
        text = Ledger.replay(read_blocks(fh.read())).export()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    problems = verify_transcripts(args.run)
    if problems:
        for p in problems:
            print(f"mismatch: {p}")
        return 1
    print("transcripts consistent")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pqbfl",
        description="ratcheted post-quantum federated learning simulator",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="execute one simulated lifecycle")
    run_p.add_argument("--participants", type=int, default=1, metavar="N")
    run_p.add_argument("--rounds", type=int, default=10, metavar="R")
    run_p.add_argument(
        "--ratchet-range", type=_parse_ratchet_range, default=10, metavar="L[,L2,...]",
        help="symmetric steps per epoch; a list applies per epoch, last repeats",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--scenario", choices=SCENARIOS, default="honest",
        help="fault to inject alongside the honest deliveries",
    )
    run_p.add_argument("--model-dim", type=int, default=32)
    run_p.add_argument("--noise-scale", type=float, default=0.1)
    run_p.add_argument("--deposit", type=int, default=1000)
    run_p.add_argument("--skew", type=int, default=300, help="envelope freshness bound, seconds")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(func=_cmd_run)

    exp_p = subs.add_parser("export-ledger", help="print a run's event log")
    exp_p.add_argument("--run", required=True, help="finished run directory")
    exp_p.add_argument("--out", help="write to file instead of stdout")
    exp_p.set_defaults(func=_cmd_export_ledger)

    ver_p = subs.add_parser(
        "verify-transcripts", help="cross-check server vs participant transcripts"
    )
    ver_p.add_argument("--run", required=True, help="finished run directory")
    ver_p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            args.config = _config_from(args)
        except ValueError as exc:
            parser.error(str(exc))
    if getattr(args, "out", None) and (problem := _out_problem(args)):
        parser.error(problem)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream closed early (head, a pager); not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, LedgerError) as exc:   # reading or replaying a run, or writing outputs
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
