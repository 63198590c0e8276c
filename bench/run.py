#!/usr/bin/env python3
"""Run one adderlab benchmark workload and print its metrics.

    python3 bench/run.py --workload verify32 --seed 1 --seconds 25 --trace 0

Run from the repository root. The run derives its inputs from --seed,
then repeats full passes of the workload, each in a fresh subprocess,
for --seconds seconds: a closed loop with one caller and no threads.
Every pass checks all of its outputs and hashes them; a digest that
differs from the one recorded in bench/digests.json for that seed
counts as a failed operation.

With --trace 0 it reports the end-to-end metrics listed in
BENCHMARK.json, as medians over passes, with every time scaled to the
reference host speed (see hostspeed.py); the unscaled medians are
printed beside them. With --trace 1 it alternates untraced and traced
passes and reports per-layer self times, call counts and rates from
the median traced pass, unscaled. Human-readable lines come first; the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import hostspeed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TABLE1 = ROOT / "data" / "table1.csv"

MIN_PASSES = 3
PASS_TIMEOUT_S = 170
SETUP_SAMPLES = 9
SETUP_SNIPPET = (
    "import time, hostspeed; p = hostspeed.probe_s(); t = time.perf_counter(); "
    "import adderlab; adderlab.default_library(); print(time.perf_counter() - t, p)"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p)
    return env


def setup_samples(n: int) -> list[tuple[float, float]]:
    """(seconds, probe) of ``import adderlab`` plus ``default_library()``,
    each in a fresh interpreter.

    One untimed import first writes the bytecode cache, which every later
    user of the checkout gets for free.
    """
    out = []
    for i in range(n + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60, check=True,
        )
        if i:
            seconds, probe = proc.stdout.split()
            out.append((float(seconds), float(probe)))
    return out


def run_worker(workload: str, inputs: dict, trace: bool) -> dict:
    job = json.dumps({"src": str(SRC), "workload": workload, "inputs": inputs, "trace": trace})
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py")],
        input=job, capture_output=True, text=True, cwd=ROOT, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass subprocess exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, env=env, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def recorded_digest(workload: str, seed: int) -> str | None:
    path = BENCH / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def measure(workload: str, inputs: dict, seconds: float, trace: bool) -> list[tuple[bool, dict | None, str]]:
    """Run passes for ``seconds``; returns (traced, result or None, error) per pass.

    With ``trace`` the passes alternate untraced and traced, starting
    untraced. A pass is started only while the previous pass would still
    end within ``seconds``, once the minimum count has run.
    """
    results = []
    start = time.perf_counter()
    while True:
        traced = trace and len(results) % 2 == 1
        t = time.perf_counter()
        try:
            results.append((traced, run_worker(workload, inputs, traced), ""))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            results.append((traced, None, str(exc)))
        last = time.perf_counter() - t
        need = 2 * MIN_PASSES if trace else MIN_PASSES
        if len(results) >= need and time.perf_counter() - start + last > seconds:
            return results


def tally(runs, recorded: str | None) -> tuple[int, int, list[str], str | None]:
    """(attempted, failed, error messages, digest) over all passes.

    Each pass adds its checked outputs plus one digest check. Its digest
    must equal the one recorded for this seed or, for a seed with no
    record, the digest of the first pass that completed. A pass that did
    not complete counts as one failed operation.
    """
    good = [r for _, r, _ in runs if r is not None]
    digest = recorded or (good[0]["digest"] if good else None)
    attempted = failed = 0
    errors: list[str] = []
    for _, r, err in runs:
        if r is None:
            attempted, failed = attempted + 1, failed + 1
            errors.append(err)
            continue
        attempted += r["ops"] + 1
        failed += len(r["failures"]) + (r["digest"] != digest)
        errors += r["failures"]
        if r["digest"] != digest:
            errors.append(f"digest {r['digest']} differs from {digest}")
    return attempted, failed, errors, digest


def end_to_end(passes: list[dict]) -> dict[str, list[float]]:
    """Per-pass end-to-end values, times scaled to the reference host speed."""
    walls = [hostspeed.scaled(r["wall_s"], r["probe_s"]) for r in passes]
    return {
        "wall_s": walls,
        "rows_per_s": [r["rows"] / w for r, w in zip(passes, walls)],
        "gate_evals_per_s": [r["gate_evals"] / w for r, w in zip(passes, walls)],
        "detect_s": [hostspeed.scaled(r["detect_s"], r["probe_s"]) for r in passes],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
    }


def _median_pass(passes: list[dict]) -> dict:
    return sorted(passes, key=lambda p: p["wall_s"])[(len(passes) - 1) // 2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (ROOT / "BENCHMARK.json", SRC / "adderlab" / "__init__.py", TABLE1):
        if not need.is_file():
            print(f"error: {need} is missing; run from a full checkout of the repository", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    A = workloads.import_adderlab(SRC)
    inputs = workloads.make_inputs(A, args.workload, args.seed)
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    raw: dict[str, float] = {}
    if not args.trace:
        setup = setup_samples(SETUP_SAMPLES)
        values["setup_s"], samples["setup_s"] = statistics.median(hostspeed.scaled(s, p) for s, p in setup), len(setup)
        raw["setup_s"] = statistics.median(s for s, _ in setup)
        values["table1_rank_tau"], samples["table1_rank_tau"] = workloads.table1_tau(A, TABLE1), 1

    runs = measure(args.workload, inputs, args.seconds, bool(args.trace))
    recorded = recorded_digest(args.workload, args.seed)
    attempted, failed, errors, digest = tally(runs, recorded)
    plain = [r for t, r, _ in runs if r is not None and not t]
    traced = [r for t, r, _ in runs if r is not None and t]
    if not plain or (args.trace and not traced):
        print("error: no pass completed\n" + "\n".join(errors[:5]), file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        median = _median_pass(traced)
        untraced = statistics.median(end_to_end(plain)["wall_s"])
        overhead = end_to_end([median])["wall_s"][0] / untraced
        for name, (value, _) in tracer.per_layer_metrics(median["spans"], median["wall_s"], overhead).items():
            values[name], samples[name] = value, 1
        out_dir = ROOT / ".bench_build"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(median["spans"]))
    else:
        for name, xs in end_to_end(plain).items():
            values[name], samples[name] = statistics.median(xs), len(xs)
        for name, xs in end_to_end([dict(r, probe_s=hostspeed.REF_PROBE_S) for r in plain]).items():
            if name != "peak_rss_mb":
                raw[name] = statistics.median(xs)

    missing = [n for n in units if n not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    print(f"adderlab benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"git={git_sha()} python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={len(os.sched_getaffinity(0))} passes={len(runs)}"
    )
    for name, unit in units.items():
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<48} {values[name]:>16.6g} {unit:<14} n={samples[name]}{unscaled}")
    print("  pass wall_s (t = traced): " + " ".join(f"{r['wall_s']:.4f}{'t' * t}" for t, r, _ in runs if r is not None))
    verdict = "ok" if failed == 0 else "FAILED"
    print(
        f"correctness: {verdict}  attempted={attempted} failed={failed} "
        f"failed_ops_ratio={failed / attempted:.6g} digest={digest} ({'recorded' if recorded else 'unrecorded seed'})"
    )
    for err in errors[:10]:
        print(f"  {err}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
