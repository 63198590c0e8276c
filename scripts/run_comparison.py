#!/usr/bin/env python3
"""Rank the bundled 32-bit presets by figure of merit.

Runs ``adderlab compare`` on the presets (one shared seeded vector
stream) and, when data/table1.csv is present, ``adderlab compare
--table1`` on those externally measured reference rows. The two
orderings come from different cell libraries, so only the relative
story is comparable. Bad input exits 1 with the CLI's named error.
"""

import argparse
import sys
from pathlib import Path

from adderlab.cli import main as adderlab

TABLE1 = Path(__file__).resolve().parent.parent / "data" / "table1.csv"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--designs", default="design1..design6", help="comma list or range of presets")
    ap.add_argument("--vectors", type=int, default=1024)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--interval-ns", type=float, default=5.0)
    ap.add_argument("--lib", help="cell library JSON (default: bundled synthetic library)")
    ap.add_argument("--out", help="write the simulated ranking as CSV")
    ap.add_argument("--table1", default=str(TABLE1), help="reference CSV (skipped if missing)")
    args = ap.parse_args(argv)

    cmd = ["compare", "--presets", args.designs, "--vectors", str(args.vectors)]
    cmd += ["--seed", str(args.seed), "--interval-ns", str(args.interval_ns)]
    cmd += (["--lib", args.lib] if args.lib else []) + (["--out", args.out] if args.out else [])
    lib = args.lib or "bundled library"
    print(f"simulated ranking ({lib}, {args.vectors} vectors, seed {args.seed})")
    rc = adderlab(cmd)
    if rc:
        return rc
    if args.out:
        print(f"wrote {args.out}")
    if not Path(args.table1).is_file():
        return 0
    print(f"\nreference ranking ({args.table1})")
    return adderlab(["compare", "--table1", args.table1])


if __name__ == "__main__":
    sys.exit(main())
