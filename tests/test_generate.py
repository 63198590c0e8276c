"""Adder generators checked against integer arithmetic oracles.

The reference for every functional test here is Python's own integer
addition, or the one-bit carry recursion c[i+1] = g[i] | (p[i] & c[i])
computed directly on ints. Nothing below reuses the package's boolean
evaluation to define expectations.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from adderlab import (
    BlockKind,
    CellKind,
    carry_terms,
    compose,
    evaluate,
    gen_ccla_block,
    gen_rca_block,
    gen_scbcla_block,
    NetlistBuilder,
    parse_arch_spec,
    preset,
    to_text,
    validate,
    verify_exhaustive_netlist,
    InputVector,
    PRESETS,
)
from adderlab import generate
from adderlab.errors import InvalidBlockWidth
from adderlab.generate import CONE, PG, RIPPLE, SUM

from conftest import random_arch_string


def ref_add(width, a, b, cin):
    total = a + b + cin
    return total & ((1 << width) - 1), total >> width


def ref_carries(width, a, b, cin):
    """All carries c1..cwidth from the bitwise recursion."""
    c = cin
    out = []
    for i in range(width):
        ai, bi = (a >> i) & 1, (b >> i) & 1
        c = (ai & bi) | ((ai ^ bi) & c)
        out.append(c)
    return out


def net_by_name(nl, name):
    return nl.nets.index(name)


def all_inputs(width):
    space = 1 << width
    return itertools.product(range(space), range(space), (0, 1))


# ---------------------------------------------------------------------------
# full adder and PG stage


def test_full_adder_truth_table():
    nl = compose("rca:1")
    for a, b, cin in all_inputs(1):
        got_sum, got_cout, _ = evaluate(nl, InputVector(a, b, cin))
        assert (got_sum, got_cout) == ref_add(1, a, b, cin)


def test_full_adder_uses_five_gates():
    counts = Counter(g.kind for g in compose("rca:1").gates)
    assert counts == {CellKind.XOR2: 2, CellKind.AND2: 2, CellKind.OR2: 1}


def test_pg_stage_layout_and_values():
    nl = compose("ccla:2")
    # per bit: AND2 for generate, then XOR2 for propagate
    assert nl.gates[0].kind == CellKind.AND2 and nl.gates[1].kind == CellKind.XOR2
    g0, p0 = nl.offset, nl.offset + 1
    for a, b, cin in all_inputs(2):
        _, _, values = evaluate(nl, InputVector(a, b, cin))
        assert values[g0] == (a & 1) & (b & 1)
        assert values[p0] == (a & 1) ^ (b & 1)
        assert not (values[g0] and values[p0])  # generate and propagate never co-assert


# ---------------------------------------------------------------------------
# flattened lookahead carry terms


def test_carry_terms_shapes():
    assert carry_terms(1) == [(("g", 0),), (("p", 0), ("c",))]
    assert carry_terms(3) == [
        (("g", 2),),
        (("p", 2), ("g", 1)),
        (("p", 2), ("p", 1), ("g", 0)),
        (("p", 2), ("p", 1), ("p", 0), ("c",)),
    ]


def _term_value(term, a, b, cin):
    v = 1
    for lit in term:
        if lit[0] == "p":
            v &= ((a >> lit[1]) & 1) ^ ((b >> lit[1]) & 1)
        elif lit[0] == "g":
            v &= ((a >> lit[1]) & 1) & ((b >> lit[1]) & 1)
        else:
            v &= cin
    return v


@pytest.mark.parametrize("k", [1, 2, 3])
def test_carry_terms_compute_the_carry_and_stay_disjoint(k):
    terms = carry_terms(k)
    for a, b, cin in all_inputs(k):
        values = [_term_value(t, a, b, cin) for t in terms]
        assert max(values) == ref_carries(k, a, b, cin)[-1]
        assert sum(values) <= 1  # disjoint: at most one term fires


# ---------------------------------------------------------------------------
# lookahead generators against the ripple recursion


def test_lookahead_carries_worked_example():
    nl = compose("ccla:3")
    _, cout, values = evaluate(nl, InputVector(0b111, 0b001, 0))
    assert values[net_by_name(nl, "c1")] == 1
    assert values[net_by_name(nl, "c2")] == 1
    assert cout == 1


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cclg_matches_ripple_recursion(m):
    nl = compose(f"ccla:{m}")
    carry_ids = [net_by_name(nl, f"c{k}") for k in range(1, m)]
    for a, b, cin in all_inputs(m):
        _, cout, values = evaluate(nl, InputVector(a, b, cin))
        ref = ref_carries(m, a, b, cin)
        assert [values[nid] for nid in carry_ids] == ref[:-1]
        assert cout == ref[-1]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_section_carry_matches_ripple_recursion(m):
    nl = compose(f"scbcla:{m}")
    assert nl.carries == ()  # sole section carry doubles as cout
    for a, b, cin in all_inputs(m):
        s, cout, _ = evaluate(nl, InputVector(a, b, cin))
        assert (s, cout) == ref_add(m, a, b, cin)


# gates tagged CONE in the (ccla, scbcla) templates of each width, as
# scripts/block_survey.py printed them when cones were still rebuilt on a
# fresh builder: the carry generator alone, the shared pg stage excluded
CONE_GATES = {
    2: (5, 3), 3: (9, 4), 4: (16, 7), 5: (27, 11), 6: (41, 14), 7: (58, 17),
    8: (78, 20), 9: (103, 25), 10: (132, 29), 11: (165, 33), 12: (202, 37),
}


def test_full_adder_template_regions(monkeypatch):
    monkeypatch.setattr(generate, "_TEMPLATES", {})
    # p, sum, g, t, cout in emission order
    assert generate.template(BlockKind.RCA, 1).regions == (PG, SUM, PG, RIPPLE, RIPPLE)


@pytest.mark.parametrize("m", sorted(CONE_GATES))
def test_lookahead_template_regions(m, monkeypatch):
    monkeypatch.setattr(generate, "_TEMPLATES", {})
    cones = []
    for kind, ripple in ((BlockKind.CCLA, 0), (BlockKind.SCBCLA, 2 * (m - 1))):
        t = generate.template(kind, m)
        regions = t.regions
        assert len(regions) == len(t.spans)
        counts = [regions.count(tag) for tag in (PG, SUM, RIPPLE)]
        assert counts == [2 * m, m, ripple], kind
        cones.append(regions.count(CONE))
    assert tuple(cones) == CONE_GATES[m]


# ---------------------------------------------------------------------------
# block builders


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_block_carry_cardinality(m):
    b = NetlistBuilder(m)
    assert len(gen_ccla_block(b, b.a, b.b, b.cin).carries) == m

    b = NetlistBuilder(m)
    res = gen_scbcla_block(b, b.a, b.b, b.cin)
    assert len(res.carries) == 1
    assert res.carries[0] == (m, res.cout)  # the section carry is the block cout

    b = NetlistBuilder(m)
    assert gen_rca_block(b, b.a, b.b, b.cin).carries == ()


def test_lookahead_blocks_reject_width_one():
    for gen in (gen_ccla_block, gen_scbcla_block):
        b = NetlistBuilder(1)
        with pytest.raises(InvalidBlockWidth):
            gen(b, b.a, b.b, b.cin)


def test_generators_reject_unequal_slices_and_carry_index_zero():
    b = NetlistBuilder(2)
    with pytest.raises(InvalidBlockWidth, match="^a and b slices must have equal length$"):
        gen_rca_block(b, b.a, b.b[:1], b.cin)
    assert len(b.gates) == 0
    with pytest.raises(ValueError, match="^carry index must be >= 1$"):
        carry_terms(0)


def test_block_gate_counts_frozen():
    def counts(spec):
        return dict(Counter(g.kind.value for g in compose(spec).gates))

    assert counts("ccla:3") == {
        "AND2": 6, "AND3": 2, "AND4": 1, "OR2": 1, "OR3": 1, "OR4": 1, "XOR2": 6,
    }
    assert counts("scbcla:3") == {
        "AND2": 6, "AND3": 1, "AND4": 1, "OR2": 2, "OR4": 1, "XOR2": 6,
    }
    # width 2 is the degenerate case: one-term cone equals the ripple step
    assert counts("ccla:2") == counts("scbcla:2")


def test_section_blocks_use_fewer_gates_from_width_three_up():
    for m in (3, 4, 5):
        assert len(compose(f"scbcla:{m}").gates) < len(compose(f"ccla:{m}").gates)


# ---------------------------------------------------------------------------
# composition


def test_compose_worked_example():
    nl = compose(PRESETS["design4"])
    s, cout, _ = evaluate(nl, InputVector(0x12345678, 0x0EDCBA98, 1))
    assert (s, cout) == (0x21111111, 0)


def test_compose_overflow():
    nl = compose("rca:32")
    s, cout, _ = evaluate(nl, InputVector(0xFFFFFFFF, 0x1, 0))
    assert (s, cout) == (0, 1)


def test_compose_accepts_spec_or_string():
    assert to_text(compose(preset("design2"))) == to_text(compose(PRESETS["design2"]))


def test_compose_is_deterministic():
    assert to_text(compose("rca:2,ccla:3x10")) == to_text(compose("rca:2,ccla:3x10"))


def test_preset_gate_counts_frozen():
    expected = {
        "design1": 191, "design2": 190, "design3": 181, "design4": 180,
        "design5": 183, "design6": 179, "rca32": 160,
    }
    for name, total in expected.items():
        assert len(compose(PRESETS[name]).gates) == total, name


def test_exposed_carry_names_are_global_indices():
    d1 = compose(PRESETS["design1"])
    assert [d1.nets[n] for n in d1.carries] == [f"c{k}" for k in range(1, 32)]
    d3 = compose(PRESETS["design3"])
    assert [d3.nets[n] for n in d3.carries] == [f"c{k}" for k in range(2, 30, 3)]
    d6 = compose(PRESETS["design6"])
    assert [d6.nets[n] for n in d6.carries] == [f"c{k}" for k in range(6, 31, 3)]
    assert compose(PRESETS["rca32"]).carries == ()


def test_every_preset_validates():
    for name in PRESETS:
        assert validate(compose(PRESETS[name])) == [], name


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_architectures_add_correctly(rng):
    spec = random_arch_string(rng, lo=2, hi=8)
    nl = compose(spec)
    assert verify_exhaustive_netlist(nl) is None, spec


# ---------------------------------------------------------------------------
# template placement


GENERATORS = {
    BlockKind.RCA: gen_rca_block,
    BlockKind.CCLA: gen_ccla_block,
    BlockKind.SCBCLA: gen_scbcla_block,
}


def compose_gate_by_gate(text):
    """Reference compose: every section's generator on one builder, then finish."""
    spec = parse_arch_spec(text)
    w = spec.total_width
    b = NetlistBuilder(w)
    sums, exposed, carry, lo = [], [], b.cin, 0
    for blk in spec.blocks:
        hi = lo + blk.width
        res = GENERATORS[blk.kind](b, b.a[lo:hi], b.b[lo:hi], carry)
        sums += res.sums
        exposed += [(lo + k, nid) for k, nid in res.carries if lo + k != w]
        carry, lo = res.cout, hi
    return b.finish(sums, cout=carry, carries=exposed)


def assert_placement_matches(texts, seed):
    texts = list(texts)
    random.Random(seed).shuffle(texts)
    for text in texts:
        placed, reference = compose(text), compose_gate_by_gate(text)
        assert placed == reference, text
        assert to_text(placed) == to_text(reference), text


PRESET_TEXTS = [PRESETS[name] for name in sorted(PRESETS)]
WIDE_TEXTS = ["scbcla:4x256", "ccla:4x256", "rca:1024"]


def test_template_placement_equals_gate_by_gate_building(monkeypatch):
    monkeypatch.setattr(generate, "_TEMPLATES", {})
    assert_placement_matches(PRESET_TEXTS + WIDE_TEXTS, seed=7)


block_term = st.one_of(
    st.tuples(st.just("rca"), st.integers(1, 8)),
    st.tuples(st.sampled_from(["ccla", "scbcla"]), st.integers(2, 8)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(block_term, min_size=1, max_size=6), min_size=1, max_size=4),
       st.integers(0, 2**32))
def test_template_placement_equals_gate_by_gate_on_random_architectures(archs, seed):
    texts = [",".join(f"{kind}:{m}" for kind, m in blocks) for blocks in archs]
    assert_placement_matches(texts, seed)


def _made_of_tuples(x):
    if isinstance(x, tuple):
        return all(_made_of_tuples(y) for y in x)
    return isinstance(x, (int, CellKind))


def test_template_cache_stays_small_and_immutable(monkeypatch):
    monkeypatch.setattr(generate, "_TEMPLATES", {})
    texts = ["rca:1024", "scbcla:4x256"] + PRESET_TEXTS
    for text in texts:
        compose(text)
    cache = generate._TEMPLATES
    assert cache and all(_made_of_tuples(t) for t in cache.values())
    assert [m for kind, m in cache if kind is BlockKind.RCA] == [1]
    # the largest lookahead section composed, built straight from its generator
    widest = 0
    for text in texts:
        for blk in parse_arch_spec(text).blocks:
            if blk.kind is not BlockKind.RCA:
                b = NetlistBuilder(blk.width)
                GENERATORS[blk.kind](b, b.a, b.b, b.cin)
                widest = max(widest, len(b.gates))
    assert max(len(gates) for gates, *_ in cache.values()) <= widest
