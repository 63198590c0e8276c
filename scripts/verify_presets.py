#!/usr/bin/env python3
"""Verification sweep over every preset and all small homogeneous blocks.

Runs ``adderlab verify`` on each preset (32-bit, seeded random vectors)
and ``adderlab verify --exhaustive`` on every rca, ccla and scbcla block
up to ``--max-width`` (at most 12). Exits 1 if any check fails or errors.
"""

import argparse
import sys

from adderlab import PRESETS
from adderlab.cli import main as adderlab


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vectors", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-width", type=int, default=10, help="exhaustive sweep upper bound")
    args = ap.parse_args(argv)

    runs = [
        ["verify", "--preset", name, "--vectors", str(args.vectors), "--seed", str(args.seed)]
        for name in sorted(PRESETS)
    ]
    for kind, lo in (("rca", 1), ("ccla", 2), ("scbcla", 2)):
        runs += [
            ["verify", "--arch", f"{kind}:{w}", "--exhaustive"]
            for w in range(lo, args.max_width + 1)
        ]
    failures = sum(adderlab(cmd) != 0 for cmd in runs)
    if failures:
        print(f"{failures} failed check(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
