#!/usr/bin/env python3
"""Sweep the re-key interval and tabulate traffic costs.

Longer symmetric chains mean fewer public-key exchanges, so the key-material
traffic drops while the on-chain footprint stays almost flat. Prints one row
per interval; optionally writes the same rows as CSV.
"""

import argparse
import csv
import sys

from pqbfl.harness import SimConfig, run_simulation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--participants", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=60)
    ap.add_argument(
        "--intervals", type=int, nargs="+", default=[5, 10, 20, 30],
        help="symmetric chain lengths to sweep",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", help="also write rows to this file")
    args = ap.parse_args()

    rows = []
    for length in args.intervals:
        cfg = SimConfig(
            participants=args.participants, rounds=args.rounds,
            ratchet_range=length, model_dim=16, seed=args.seed,
        )
        m = run_simulation(cfg)
        final = [r for r in m.rows if r.round == cfg.rounds]
        offchain = sum(r.offchain_bytes for r in final)
        onchain = max(r.onchain_bytes for r in final if r.party == "server")
        rows.append({
            "interval": length,
            "asym_ratchets": m.final_epoch,
            "key_material_bytes": m.key_material_bytes,
            "offchain_bytes": offchain,
            "onchain_bytes": onchain,
        })

    header = list(rows[0])
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(row[h]).rjust(w) for h, w in zip(header, widths)))

    base = rows[0]["key_material_bytes"]
    for row in rows[1:]:
        ratio = row["key_material_bytes"] / base
        print(
            f"interval {row['interval']}: key material at "
            f"{ratio:.2%} of interval {rows[0]['interval']}"
        )

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=header)
            w.writeheader()
            w.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
