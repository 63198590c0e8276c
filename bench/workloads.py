"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

``make_inputs`` runs once per benchmark run, in the parent process. It
turns the workload seed into everything a pass needs (vector seeds,
random architectures, mutant netlist texts). With :mod:`refeval` it
shows that every base design adds correctly on a sample of the vectors
it will see, and that every mutant fails on one of them. ``run_pass`` drives the public adderlab API in the order the
``verify``, ``analyze`` and ``compare`` subcommands use it, times the
whole pass, then checks every output against :mod:`refeval` and hashes
all of them into one digest.

Run as a script, this module is the pass subprocess: it reads a job as
JSON on stdin and prints the pass result as JSON on stdout, so each
pass has its own peak RSS.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import refeval
import tracer

PRESETS32 = ("design1", "design2", "design3", "design4", "design5", "design6", "rca32")
TABLE1_DESIGNS = PRESETS32[:6]

# Mutants are accepted only when refeval shows, within this many of the
# vectors the check will see, that they are not adders.
SEARCH_VECTORS = 2048
SEARCH_ROWS = 256


class SetupError(Exception):
    """The seed produced inputs the benchmark cannot use."""


def _lib_cells(lib) -> tuple[dict, float]:
    """Cell parameters as plain numbers, for refeval's delay and area model."""
    cells = {
        kind.value: {
            "area_um2": c.area_um2,
            "intrinsic_delay_ns": c.intrinsic_delay_ns,
            "load_delay_ns_per_ff": c.load_delay_ns_per_ff,
            "input_cap_ff": c.input_cap_ff,
        }
        for kind, c in lib.cells.items()
    }
    return cells, lib.output_load_ff


def random_arch(rng: random.Random, width: int = 32) -> str:
    """A random LSB-first composition: rca 1-6 bits, ccla/scbcla 2-6 bits."""
    terms = []
    left = width
    while left:
        kind = rng.choice(("rca", "ccla", "scbcla"))
        lo = 1 if kind == "rca" else 2
        if left < lo:
            kind, lo = "rca", 1
        w = rng.randint(lo, min(6, left))
        terms.append(f"{kind}:{w}")
        left -= w
    return ",".join(terms)


# ---------------------------------------------------------------------------
# Inputs (parent process, once per run)
# ---------------------------------------------------------------------------


def _require_adder(name: str, text: str, vectors) -> None:
    bad = refeval.first_mismatch(refeval.parse(text), vectors)
    if bad is not None:
        raise SetupError(f"{name} differs from integer addition on {vectors[bad]}")


def _stream_mutant(A, name: str, arch: str, rng: random.Random, vseed: int, count: int) -> dict:
    """A mutant of ``arch`` whose first mismatch in the vseed stream is known."""
    text = A.to_text(A.compose(arch))
    width = refeval.parse(text).width
    vectors = refeval.stream_vectors(width, min(SEARCH_VECTORS, count), vseed)
    for _ in range(50):
        mtext, change = refeval.mutate(text, rng)
        ref = refeval.parse(mtext)
        index = refeval.first_mismatch(ref, vectors)
        if index is not None:
            return {
                "name": f"{name}~{change}",
                "text": mtext,
                "vectors": count,
                "index": index,
                "vector": list(vectors[index]),
                "got": list(refeval.compute(ref, vectors[index])),
            }
    raise SetupError(f"no detectable mutant of {name}")


def _row_mutant(A, arch: str, rng: random.Random) -> dict:
    """A mutant of ``arch`` shown to differ from addition on some row."""
    text = A.to_text(A.compose(arch))
    width = refeval.parse(text).width
    nrows = 1 << (2 * width + 1)
    rows = [refeval.exhaustive_row(width, rng.randrange(nrows)) for _ in range(SEARCH_ROWS)]
    for _ in range(50):
        mtext, change = refeval.mutate(text, rng)
        if refeval.first_mismatch(refeval.parse(mtext), rows) is not None:
            return {"name": f"{arch}~{change}", "text": mtext}
    raise SetupError(f"no detectable mutant of {arch}")


def make_inputs(A, workload: str, seed: int) -> dict:
    """Everything one pass of ``workload`` needs, derived from ``seed``."""
    rng = random.Random(f"{workload}:{seed}:inputs")
    vseed = rng.getrandbits(63)
    if workload == "verify32":
        designs = [[n, A.PRESETS[n]] for n in PRESETS32]
        sample = refeval.stream_vectors(32, 64, vseed)
        for name, arch in designs:
            _require_adder(name, A.to_text(A.compose(arch)), sample)
        picks = rng.sample(PRESETS32, 2)
        mutants = [_stream_mutant(A, n, A.PRESETS[n], rng, vseed, 100_000) for n in picks]
        return {"designs": designs, "vectors": 100_000, "vseed": vseed, "mutants": mutants}
    if workload == "exhaustive12":
        designs = [["ccla:2x5"] * 2, ["rca:2,scbcla:3x3"] * 2, ["scbcla:3x4"] * 2]
        for name, arch in designs:
            text = A.to_text(A.compose(arch))
            w = refeval.parse(text).width
            _require_adder(name, text, [refeval.exhaustive_row(w, rng.randrange(1 << (2 * w + 1))) for _ in range(SEARCH_ROWS)])
        return {"designs": designs, "mutants": [_row_mutant(A, "rca:2,scbcla:3x3", rng)]}
    if workload == "wide1024":
        designs = [["rca:1024"] * 2, ["scbcla:4x256"] * 2]
        sample = refeval.stream_vectors(1024, 8, vseed)
        for name, arch in designs:
            _require_adder(name, A.to_text(A.compose(arch)), sample)
        mutants = [_stream_mutant(A, n, a, rng, vseed, 1024) for n, a in designs]
        return {"designs": designs, "vectors": 1024, "vseed": vseed, "mutants": mutants}
    if workload == "explore32":
        designs = [[n, A.PRESETS[n]] for n in PRESETS32]
        designs += [[f"r{i:03d}", random_arch(rng)] for i in range(200)]
        cells, out_load = _lib_cells(A.default_library())
        sample = refeval.stream_vectors(32, 16, vseed)
        expect = {}
        for name, arch in designs:
            text = A.to_text(A.compose(arch))
            _require_adder(name, text, sample)
            ref = refeval.parse(text)
            expect[name] = [len(ref.kinds), refeval.area(ref, cells), refeval.timing(ref, cells, out_load)[0]]
        name, arch = rng.choice(designs[len(PRESETS32):])
        mutants = [_stream_mutant(A, name, arch, rng, vseed, 100_000)]
        return {"designs": designs, "vectors": 1024, "vseed": vseed, "expect": expect, "mutants": mutants}
    raise SetupError(f"unknown workload {workload!r}")


def table1_tau(A, table1: Path) -> float:
    """Kendall tau between simulated and reference FoM order of design1..6.

    The reference rows come from a different cell library, so only the
    order is comparable. Fixed at 4096 vectors and seed 1, so the value
    is exact and moves only when the model's results move.
    """
    with open(table1, newline="", encoding="utf-8") as fh:
        ref = {
            r["design"]: 1e6 / (float(r["power_uw"]) * float(r["delay_ns"]) * float(r["area_um2"]))
            for r in csv.DictReader(fh)
        }
    lib = A.default_library()
    sim = [A.analyze_design(d, A.PRESETS[d], lib, vectors=4096, seed=1).fom_scaled for d in TABLE1_DESIGNS]
    return refeval.kendall_tau(sim, [ref[d] for d in TABLE1_DESIGNS])


# ---------------------------------------------------------------------------
# One pass: timed calls into adderlab
# ---------------------------------------------------------------------------


def _verify_mutants(A, inputs: dict, out: list) -> float:
    """Check each mutant the way ``adderlab verify --from-file`` does.

    Returns the summed time from each verify call to its counterexample.
    """
    detect = 0.0
    for m in inputs["mutants"]:
        nl = A.from_text(m["text"])
        t = time.perf_counter()
        if "index" in m:
            bad = A.verify_random(nl, count=m["vectors"], seed=inputs["vseed"])
        else:
            bad = A.verify_exhaustive_netlist(nl)
        detect += time.perf_counter() - t
        out.append(("mutant", m["name"], nl, bad, m))
    return detect


def _pass_verify32(A, inputs: dict, out: list) -> float:
    for name, arch in inputs["designs"]:
        nl = A.compose(arch)
        out.append(("verify", name, nl, A.verify_random(nl, count=inputs["vectors"], seed=inputs["vseed"])))
    return _verify_mutants(A, inputs, out)


def _pass_exhaustive12(A, inputs: dict, out: list) -> float:
    for name, arch in inputs["designs"]:
        nl = A.compose(arch)
        out.append(("verify", name, nl, A.verify_exhaustive_netlist(nl)))
    return _verify_mutants(A, inputs, out)


def _pass_wide1024(A, inputs: dict, out: list) -> float:
    lib = A.default_library()
    n, vseed = inputs["vectors"], inputs["vseed"]
    for name, arch in inputs["designs"]:
        text = A.to_text(A.compose(arch))
        nl = A.from_text(text)
        out.append(("roundtrip", name, nl, text))
        out.append(("verify", name, nl, A.verify_random(nl, count=n, seed=vseed)))
        out.append(("toggles", name, nl, A.run_vectors(nl, count=n, seed=vseed)))
        out.append(("critical_path", name, nl, A.critical_path(nl, lib)))
    return _verify_mutants(A, inputs, out)


def _pass_explore32(A, inputs: dict, out: list) -> float:
    lib = A.default_library()
    n, vseed = inputs["vectors"], inputs["vseed"]
    reports = []
    for name, arch in inputs["designs"]:
        r = A.analyze_design(name, arch, lib, vectors=n, seed=vseed)
        reports.append(r)
        out.append(("report", name, r, A.report_json(r)))
    ranking = A.compare(reports)
    out.append(("ranking", "all", ranking, A.comparison_csv(ranking)))
    top = ranking.ranking[0]
    nl = A.compose(top.arch)
    buf = io.StringIO()
    A.dump_trace(nl, A.random_vectors(nl.width, n, vseed), buf)
    out.append(("trace", top.design, nl, buf.getvalue()))
    return _verify_mutants(A, inputs, out)


PASSES = {
    "verify32": _pass_verify32,
    "exhaustive12": _pass_exhaustive12,
    "wide1024": _pass_wide1024,
    "explore32": _pass_explore32,
}


# ---------------------------------------------------------------------------
# Checks, independent of adderlab's simulator
# ---------------------------------------------------------------------------


def _cex(bad) -> list[int] | None:
    if bad is None:
        return None
    v = bad.vector
    return [v.a, v.b, v.cin, bad.expected_sum, bad.expected_cout, bad.got_sum, bad.got_cout]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bit_toggles(values: list[int], nbits: int) -> np.ndarray:
    """Per bit position, how often it changes between consecutive values."""
    nbytes = (nbits + 7) // 8
    raw = b"".join(v.to_bytes(nbytes, "little") for v in values)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(values), nbytes), axis=1, bitorder="little")
    bits = bits[:, :nbits]
    return (bits[1:] != bits[:-1]).sum(axis=0)


def _check_mutant(ref, bad, m: dict) -> tuple[list[str], int]:
    """A returned counterexample must be a real mismatch, found where expected."""
    if bad is None:
        return [f"{m['name']}: mutant not detected"], 0
    vec = (bad.vector.a, bad.vector.b, bad.vector.cin)
    w = ref.width
    fails = []
    if (bad.expected_sum, bad.expected_cout) != refeval.add(w, *vec):
        fails.append(f"{m['name']}: expected sum/cout is not a + b + cin at {vec}")
    got = refeval.compute(ref, vec)
    if (bad.got_sum, bad.got_cout) != got or got == refeval.add(w, *vec):
        fails.append(f"{m['name']}: counterexample {vec} is not a mismatch of the mutant")
    if "index" in m:
        if list(vec) != m["vector"]:
            fails.append(f"{m['name']}: counterexample is not the first mismatch in stream order")
        return fails, m["index"] + 1
    return fails, (vec[0] | (vec[1] << w) | (vec[2] << (2 * w))) + 1


def _check_path(ref, cells, out_load, delay: float, path) -> list[str]:
    want, gate_delay = refeval.timing(ref, cells, out_load)
    fails = []
    if not math.isclose(delay, want, rel_tol=1e-9):
        fails.append(f"delay {delay} != longest path {want}")
    pis = 2 * ref.width + 1
    if (
        not path
        or any(nid >= pis for nid in ref.inputs[path[0]])
        or ref.outputs[path[-1]] not in ref.observed
        or any(ref.outputs[g] not in ref.inputs[h] for g, h in zip(path, path[1:]))
        or not math.isclose(sum(gate_delay[g] for g in path), delay, rel_tol=1e-9)
    ):
        fails.append("critical path is not a primary-input to output path of that delay")
    return fails


def _check_toggles(ref, stats, n: int, vseed: int) -> list[str]:
    w = ref.width
    vecs = refeval.stream_vectors(w, n, vseed)
    sums = [refeval.add(w, *v) for v in vecs]
    t = stats.per_net_toggles
    if stats.vectors_applied != n or len(t) != ref.nnets:
        return ["toggle stats cover the wrong vectors or nets"]
    got = np.array([t[nid] for nid in list(range(2 * w + 1)) + list(ref.sums) + [ref.cout]])
    want = np.concatenate(
        [
            _bit_toggles([v[0] for v in vecs], w),
            _bit_toggles([v[1] for v in vecs], w),
            _bit_toggles([v[2] for v in vecs], 1),
            _bit_toggles([s for s, _ in sums], w),
            _bit_toggles([c for _, c in sums], 1),
        ]
    )
    fails = []
    if not np.array_equal(got, want):
        fails.append("input or output toggle counts differ from the vector stream")
    if min(t) < 0 or max(t) > n - 1:
        fails.append("a net toggles more often than vectors change")
    return fails


def _check_trace(ref, text: str, n: int, vseed: int) -> list[str]:
    lines = text.split("\n")
    vecs = refeval.stream_vectors(ref.width, n, vseed)
    if len(lines) != n + 1 or lines[-1] != "":
        return ["trace has the wrong number of lines"]
    for line, v in zip(lines, vecs):
        values = refeval.evaluate(ref, *v)
        if line != "".join(map(str, values)) or refeval.sum_cout(ref, values) != refeval.add(ref.width, *v):
            return [f"trace line for {v} differs from the reference evaluation"]
    return []


def _check_report(r, text: str, expect) -> list[str]:
    gates, area_um2, delay = expect
    fails = []
    if json.loads(text) != {
        "design": r.design,
        "arch": r.arch,
        "gates": r.gates,
        "power_uw": r.power_uw,
        "delay_ns": r.delay_ns,
        "area_um2": r.area_um2,
        "fom_scaled": r.fom_scaled,
        "critical_path": list(r.critical_path),
    }:
        fails.append("report JSON does not match the report")
    if r.gates != gates or not math.isclose(r.area_um2, area_um2, rel_tol=1e-9):
        fails.append("gate count or area differs from the netlist")
    if not math.isclose(r.delay_ns, delay, rel_tol=1e-9) or not r.critical_path:
        fails.append("delay differs from the longest path")
    if not (math.isfinite(r.power_uw) and r.power_uw > 0):
        fails.append("power is not a positive number")
    if not math.isclose(r.fom_scaled, 1e6 / (r.power_uw * r.delay_ns * r.area_um2), rel_tol=1e-12):
        fails.append("figure of merit is not 1e6 / (power * delay * area)")
    return fails


def _check_ranking(cmp, text: str, reports) -> list[str]:
    want = sorted(reports, key=lambda r: -r.fom_scaled)
    n = len(reports)
    fails = []
    if [r.design for r in cmp.ranking] != [r.design for r in want] or len(cmp.improvements) != n * (n - 1) // 2:
        fails.append("ranking is not by descending figure of merit")
    lines = text.split("\n")
    rows = [line.split(",") for line in lines[1:-1]]
    if (
        lines[0] != "design,power_uw,delay_ns,area_um2,fom_scaled"
        or len(rows) != n
        or any(row[0] != r.design or float(row[4]) != r.fom_scaled for row, r in zip(rows, want))
    ):
        fails.append("ranking CSV does not list the ranking")
    return fails


def check_outputs(A, inputs: dict, out: list) -> dict:
    """Check every output of a pass; count rows and gate evaluations.

    Returns ``ops`` (outputs checked), ``failures`` (messages), ``rows``,
    ``gate_evals`` and ``digest`` (SHA-256 over every result).
    """
    cells, out_load = _lib_cells(A.default_library())
    n = inputs.get("vectors")
    vseed = inputs.get("vseed")
    fails: list[str] = []
    record: list = []
    rows = gate_evals = 0
    reports = []
    for kind, label, obj, result, *rest in out:
        nl_rows = 0
        if kind == "verify":
            record.append([kind, label, _cex(result)])
            if result is not None:
                fails.append(f"{label}: reported a mismatch on a correct adder: {result}")
            nl_rows = n if n is not None else 1 << (2 * obj.width + 1)
        elif kind == "mutant":
            record.append([kind, label, _cex(result)])
            ref = refeval.parse(rest[0]["text"])
            if len(ref.kinds) != len(obj.gates):
                fails.append(f"{label}: parsed netlist has the wrong gate count")
            f, nl_rows = _check_mutant(ref, result, rest[0])
            fails += f
        elif kind == "roundtrip":
            record.append([kind, label, _sha(result)])
            if A.to_text(obj) != result or len(refeval.parse(result).kinds) != len(obj.gates):
                fails.append(f"{label}: netlist text does not round-trip")
        elif kind == "toggles":
            record.append([kind, label, result.per_net_toggles, result.vectors_applied])
            fails += [f"{label}: {m}" for m in _check_toggles(refeval.parse(A.to_text(obj)), result, n, vseed)]
            nl_rows = n
        elif kind == "critical_path":
            record.append([kind, label, repr(result[0]), list(result[1])])
            ref = refeval.parse(A.to_text(obj))
            fails += [f"{label}: {m}" for m in _check_path(ref, cells, out_load, result[0], result[1])]
        elif kind == "report":
            record.append([kind, label, result])
            reports.append(obj)
            fails += [f"{label}: {m}" for m in _check_report(obj, result, inputs["expect"][label])]
            nl_rows = n
        elif kind == "ranking":
            record.append([kind, label, result])
            fails += _check_ranking(obj, result, reports)
        elif kind == "trace":
            record.append([kind, label, _sha(result)])
            ref = refeval.parse(A.to_text(obj))
            fails += [f"trace of {label}: {m}" for m in _check_trace(ref, result, n, vseed)]
            nl_rows = n
        if nl_rows:
            rows += nl_rows
            gate_evals += nl_rows * (obj.gates if kind == "report" else len(obj.gates))
    digest = hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest()
    return {"ops": len(out), "failures": fails, "rows": rows, "gate_evals": gate_evals, "digest": digest}


def run_pass(A, workload: str, inputs: dict, trace: bool = False) -> dict:
    """Time one pass of ``workload``, then check and hash its outputs.

    ``probe_s`` is the mean of host-speed probes taken right before and
    right after the timed region.
    """
    out: list = []
    tr = tracer.Tracer() if trace else None
    before = hostspeed.probe_s()
    if tr:
        tr.install(A)
    try:
        start = time.perf_counter()
        detect = PASSES[workload](A, inputs, out)
        wall = time.perf_counter() - start
    finally:
        if tr:
            tr.restore()
    after = hostspeed.probe_s()
    result = check_outputs(A, inputs, out)
    result.update(wall_s=wall, detect_s=detect, probe_s=(before + after) / 2, spans=tr.spans if tr else None)
    return result


def import_adderlab(src: Path):
    """Import adderlab from ``src`` only, never from an installed copy."""
    sys.path.insert(0, str(src))
    import adderlab

    if Path(adderlab.__file__).resolve().parent != (src / "adderlab").resolve():
        raise ImportError(f"adderlab was imported from {adderlab.__file__}, not {src}")
    return adderlab


if __name__ == "__main__":
    job = json.load(sys.stdin)
    A = import_adderlab(Path(job["src"]))
    res = run_pass(A, job["workload"], job["inputs"], job["trace"])
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(res, sys.stdout)
