"""Acceptance suite: the eight claims this package stands behind.

Each test checks one claim end to end and prints a single
"criterion N (...): PASS|FAIL" verdict line before asserting, so the
verdicts survive in captured output (run with `-s` to stream them).

Criterion 4 checks where the section-carry block saves its area: the
intermediate carry cones are never built. Its section cone has at most
60% of the full block's cone gates at widths 2 to 8; the blocks tie at
width 2 and the section block is strictly smaller from width 3; the
whole-block area cut reaches 25% from width 6; and the 32-bit
section-carry presets are smaller than their conventional twins, as in
the reference table. No 25% block bound applies at widths 2 to 4: both
styles share the generate/propagate stage and the sum logic, so the
cone is only a fraction of the block, and at width 2 the one-term cone
is the ripple step itself (test_generate.py::test_block_gate_counts_frozen
pins the two width-2 blocks as equal). See README "Tests" and
scripts/block_survey.py.
"""

import random
import time

from adderlab import (
    PRESETS,
    area,
    carry_terms,
    compare,
    compose,
    critical_path,
    default_library,
    gen_ccla_block,
    gen_cclg,
    gen_pg,
    gen_rca_block,
    gen_scbcla_block,
    gen_scclg,
    metrics_report,
    NetlistBuilder,
    run_vectors,
    verify_exhaustive_netlist,
    verify_random,
)
from adderlab.cli import main

from conftest import TABLE1_ROWS, flip_gate_kind, flippable_gates, random_arch_string


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


def test_criterion_1_functional_equivalence():
    start = time.monotonic()
    failures = []
    for name in sorted(PRESETS):
        ce = verify_random(compose(PRESETS[name]), count=100_000, seed=1)
        if ce is not None:
            failures.append(f"{name}: {ce}")
    rng = random.Random(0xADD32)
    for _ in range(50):
        spec = random_arch_string(rng, lo=2, hi=10)
        ce = verify_exhaustive_netlist(compose(spec))
        if ce is not None:
            failures.append(f"{spec}: {ce}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    detail = f"7 presets x 1e5 vectors + 50 exhaustive specs in {elapsed:.1f}s"
    assert _verdict(1, "functional equivalence", ok, detail), failures


def test_criterion_2_fom_reproduction():
    reports = [metrics_report(n, p, d, a) for n, p, d, a in TABLE1_ROWS]
    cmp_ = compare(reports)
    pct = {(i.winner, i.loser): i.percent for i in cmp_.improvements}
    d2_d1 = pct[("design2", "design1")]
    d6_d1 = pct[("design6", "design1")]
    d6_d2 = pct[("design6", "design2")]
    ok = (
        abs(d2_d1 - 7.0) <= 0.5
        and abs(d6_d1 - 17.6) <= 0.5
        and abs(d6_d2 - 9.8) <= 0.5
        and cmp_.ranking[0].design == "design6"
        and cmp_.ranking[-1].design == "design1"
    )
    detail = (
        f"design2/design1 +{d2_d1:.3f}%, design6/design1 +{d6_d1:.3f}%, "
        f"design6/design2 +{d6_d2:.3f}%, best={cmp_.ranking[0].design}, "
        f"worst={cmp_.ranking[-1].design}"
    )
    assert _verdict(2, "figure-of-merit reproduction within 0.5pp", ok, detail)


def test_criterion_3_exposed_carry_cardinality():
    ok = True
    for m in (2, 3, 4, 5):
        b = NetlistBuilder(m)
        ok = ok and len(gen_ccla_block(b, b.a, b.b, b.cin).carries) == m
        b = NetlistBuilder(m)
        ok = ok and len(gen_scbcla_block(b, b.a, b.b, b.cin).carries) == 1
        b = NetlistBuilder(m)
        ok = ok and len(gen_rca_block(b, b.a, b.b, b.cin).carries) == 0
    assert _verdict(
        3, "lookahead carry counts per block", ok, "widths 2..5: full=m, section=1, ripple=0"
    )


def _cone_gates(m: int, generator) -> int:
    """Gates a carry generator adds on top of a width-m P/G stage."""
    b = NetlistBuilder(m)
    pg = gen_pg(b, b.a, b.b)
    base = b.gate_count
    generator(b, pg, b.cin)
    return b.gate_count - base


def test_criterion_4_block_area_reduction():
    lib = default_library()
    failures = []
    rows = []
    for m in range(2, 9):
        full, sect = compose(f"ccla:{m}"), compose(f"scbcla:{m}")
        a_full, a_sect = area(full, lib), area(sect, lib)
        g_full, g_sect = len(full.gates), len(sect.gates)
        c_full, c_sect = _cone_gates(m, gen_cclg), _cone_gates(m, gen_scclg)
        rows.append(
            f"m={m}: block {100 * (a_full - a_sect) / a_full:.1f}%,"
            f" cone {100 * (c_full - c_sect) / c_full:.1f}%"
        )
        if 5 * c_sect > 3 * c_full:
            failures.append(f"m={m}: section cone {c_sect} > 60% of full cone {c_full}")
        if m == 2 and (g_sect, a_sect) != (g_full, a_full):
            failures.append(f"m=2: blocks differ, {g_sect} vs {g_full} gates")
        if m >= 3 and not (g_sect < g_full and a_sect < a_full):
            failures.append(f"m={m}: section block {g_sect} gates {a_sect:g} um2 not smaller")
        if m >= 6 and 4 * (a_full - a_sect) < a_full:
            failures.append(f"m={m}: block cut {a_sect:g} vs {a_full:g} um2 under 25%")
    adder = {
        n: area(compose(PRESETS[n]), lib) for n in ("design1", "design2", "design3", "design4")
    }
    if not (adder["design3"] < adder["design1"] and adder["design4"] < adder["design2"]):
        failures.append(f"32-bit areas {adder} do not favour section-carry designs")
    label = "section-carry block saves its carry cones"
    assert _verdict(4, label, not failures, "; ".join(rows)), failures


def test_criterion_5_carry_terms_are_disjoint():
    ok = True
    worst = 0
    for m in (2, 3, 4):
        per_k = [carry_terms(k) for k in range(1, m + 1)]
        for a in range(1 << m):
            for b in range(1 << m):
                for cin in (0, 1):
                    for terms in per_k:
                        fired = 0
                        for term in terms:
                            v = 1
                            for lit in term:
                                if lit[0] == "p":
                                    v &= ((a >> lit[1]) & 1) ^ ((b >> lit[1]) & 1)
                                elif lit[0] == "g":
                                    v &= ((a >> lit[1]) & 1) & ((b >> lit[1]) & 1)
                                else:
                                    v &= cin
                            fired += v
                        worst = max(worst, fired)
                        ok = ok and fired <= 1
    detail = f"widths 2..4, all inputs: at most {worst} product term true per carry"
    assert _verdict(5, "disjoint carry product terms", ok, detail)


def test_criterion_6_lookahead_beats_ripple_delay():
    lib = default_library()
    ripple, _ = critical_path(compose(PRESETS["rca32"]), lib)
    delays = {}
    for name in ("design1", "design2", "design3", "design4", "design5", "design6"):
        delays[name], _ = critical_path(compose(PRESETS[name]), lib)
    ok = all(d < ripple for d in delays.values())
    span = f"{min(delays.values()):.3f}..{max(delays.values()):.3f}"
    assert _verdict(
        6, "every lookahead preset faster than ripple", ok, f"{span} ns vs rca32 {ripple:.3f} ns"
    )


def test_criterion_7_determinism(tmp_path):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for p in paths:
        code = main(
            ["analyze", "--preset", "design6", "--vectors", "256", "--seed", "9", "--out", str(p)]
        )
        assert code == 0
    bytes_equal = paths[0].read_bytes() == paths[1].read_bytes()
    nl = compose(PRESETS["design2"])
    stats_equal = run_vectors(nl, count=256, seed=7) == run_vectors(nl, count=256, seed=7)
    ok = bytes_equal and stats_equal
    assert _verdict(
        7, "repeat runs byte-identical", ok, "analyze JSON x2 equal, toggle stats x2 equal"
    )


def test_criterion_8_mutation_sensitivity():
    rng = random.Random(0xBADBED)
    missed = []
    names = sorted(PRESETS)
    for _ in range(10):
        name = rng.choice(names)
        nl = compose(PRESETS[name])
        gid = rng.choice(flippable_gates(nl))
        bad = flip_gate_kind(nl, gid)
        if verify_random(bad, count=100_000, seed=1) is None:
            missed.append(f"{name} g{gid}")
    for _ in range(10):
        spec = random_arch_string(rng, lo=2, hi=6)
        nl = compose(spec)
        gid = rng.choice(flippable_gates(nl))
        bad = flip_gate_kind(nl, gid)
        if verify_exhaustive_netlist(bad) is None:
            missed.append(f"{spec} g{gid}")
    ok = not missed
    assert _verdict(
        8, "single gate-kind flips always caught", ok, f"20 mutations, {len(missed)} missed"
    ), missed
