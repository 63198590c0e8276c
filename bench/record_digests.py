#!/usr/bin/env python3
"""Record the result digest of every workload for a range of seeds.

    python3 bench/record_digests.py --seeds 0-31

Runs one pass per workload and seed, refuses to record a pass with a
failed check, and writes bench/digests.json. Rerun it only when a change
is meant to alter results; a speed-only change must leave every digest
as it is.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    A = workloads.import_adderlab(run.SRC)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    path = run.BENCH / "digests.json"
    digests = json.loads(path.read_text()) if path.is_file() else {}
    for w in (w["name"] for w in spec["workloads"]):
        for seed in range(lo, hi + 1):
            res = run.run_worker(w, workloads.make_inputs(A, w, seed), False)
            if res["failures"]:
                print(f"{w} seed {seed}: not recorded: {res['failures'][:3]}", file=sys.stderr)
                return 1
            digests.setdefault(w, {})[str(seed)] = res["digest"]
            print(w, seed, res["digest"], flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
