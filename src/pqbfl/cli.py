"""Command-line harness around the simulation.

    pqbfl run --participants 5 --rounds 30 --ratchet-range 10 --seed 1 --out DIR
    pqbfl export-ledger --run DIR
    pqbfl verify-transcripts --run DIR

`run` executes one lifecycle and writes metrics.csv, ledger.txt, per-party
transcripts, and run.json into --out.  `export-ledger` prints the event log
of a finished run directory, or simulates first when given sim flags instead.
`verify-transcripts` cross-checks the server's and every participant's view
of a finished run.  Exit status is 0 only for an honest run, a run whose
injected attacks were all rejected, or a clean verification.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    SCENARIO_FLAGS, SCENARIOS, SimConfig, run_simulation, verify_transcripts, write_outputs,
)


def _parse_ratchet_range(text: str) -> int | tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty ratchet range")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ratchet range {text!r}") from exc
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("ratchet range entries must be >= 1")
    return values[0] if len(values) == 1 else values


def _add_sim_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--participants", type=int, default=1, metavar="N")
    sub.add_argument("--rounds", type=int, default=10, metavar="R")
    sub.add_argument(
        "--ratchet-range", type=_parse_ratchet_range, default=10, metavar="L[,L2,...]",
        help="symmetric steps per epoch; a list applies per epoch, last repeats",
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--scenario", choices=SCENARIOS, default="honest",
        help="fault to inject alongside the honest deliveries",
    )
    sub.add_argument("--model-dim", type=int, default=32)
    sub.add_argument("--noise-scale", type=float, default=0.1)
    sub.add_argument("--deposit", type=int, default=1000)
    sub.add_argument("--skew", type=int, default=300, help="envelope freshness bound, seconds")


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


def _cmd_run(args: argparse.Namespace) -> int:
    metrics = run_simulation(args.config)
    paths = write_outputs(metrics, args.out)
    print(f"run complete: {args.rounds} rounds, {args.participants} participants")
    print(f"asymmetric ratchets per session: {metrics.asymmetric_ratchets}")
    print(f"off-chain key material: {metrics.key_material_bytes} bytes")
    print(f"scores: {metrics.scores}")
    for rec in metrics.attacks:
        verdict = "rejected" if rec.rejected else "ACCEPTED"
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
    if args.run:
        path = f"{args.run}/ledger.txt"
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        metrics = run_simulation(args.config)
        text = "\n".join(metrics.events) + "\n"
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
    _add_sim_flags(run_p)
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(func=_cmd_run)

    exp_p = subs.add_parser("export-ledger", help="print a run's event log")
    exp_p.add_argument("--run", help="finished run directory (skips simulating)")
    _add_sim_flags(exp_p)
    exp_p.add_argument("--out", help="write to file instead of stdout")
    exp_p.set_defaults(func=_cmd_export_ledger)

    ver_p = subs.add_parser(
        "verify-transcripts", help="cross-check server vs participant transcripts"
    )
    ver_p.add_argument("--run", required=True, help="finished run directory")
    ver_p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    if hasattr(args, "participants"):   # subcommands that take sim flags
        try:
            args.config = _config_from(args)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream closed early (head, a pager); not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
