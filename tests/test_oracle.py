"""Every net, toggle, verdict, delay and area against ``bench/refeval.py``.

refeval imports nothing from adderlab: it parses the netlist text, builds
its own splitmix64 stream and evaluates one vector at a time with plain
integers. So a slip in packing, bit-parallel evaluation, toggle counting,
batch seams, the verification walk or static timing cannot confirm itself
here. The module is loaded by path and only read.
"""

import importlib.util
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import adderlab.simulate as simulate
from adderlab import (
    InputVector,
    area,
    collect_toggles,
    compose,
    critical_path,
    default_library,
    evaluate,
    from_text,
    random_vectors,
    run_vectors,
    to_text,
    verify_exhaustive_netlist,
    verify_random,
)

from conftest import REPO_ROOT, random_arch_string

_spec = importlib.util.spec_from_file_location("refeval", REPO_ROOT / "bench" / "refeval.py")
refeval = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = refeval  # its dataclass looks its module up there
_spec.loader.exec_module(refeval)


def _renamed(text: str, rng: random.Random) -> str:
    """``text`` with its internal n<k> nets renamed: the n<k> names shuffled
    among them, and about half of them given a w prefix."""
    names = sorted(set(re.findall(r"(?<= )n\d+\b", text)))
    new = rng.sample(names, len(names))
    new = [f"w{name}" if rng.random() < 0.5 else name for name in new]
    table = dict(zip(names, new))
    return re.sub(r"(?<= )n\d+\b", lambda m: table[m.group()], text)


@st.composite
def netlists(draw, lo=1, hi=40):
    """(adderlab netlist, refeval netlist) of a drawn architecture of lo..hi
    bits: as composed, a ``refeval.mutate`` mutant, or with renamed nets."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    text = to_text(compose(random_arch_string(rng, lo, hi)))
    form = draw(st.sampled_from(["composed", "mutant", "renamed"]))
    if form == "mutant":
        text, _ = refeval.mutate(text, rng)
    elif form == "renamed":
        text = _renamed(text, rng)
    nl = from_text(text)
    return nl, refeval.parse(to_text(nl))


def _vectors(width: int, n_min: int, n_max: int):
    top = (1 << width) - 1
    vector = st.tuples(st.integers(0, top), st.integers(0, top), st.integers(0, 1))
    edge = st.sampled_from([(0, 0, 0), (top, top, 1), (top, 0, 1)])
    return st.lists(vector | edge, min_size=n_min, max_size=n_max)


def _toggles(ref, vectors) -> list[int]:
    """Per-net toggle counts, one reference evaluation per vector."""
    rows = [refeval.evaluate(ref, *v) for v in vectors]
    return [sum(x != y for x, y in zip(col, col[1:])) for col in zip(*rows)]


def _verdict(ref, vectors):
    """The first counterexample's fields, found one vector at a time, or None."""
    at = refeval.first_mismatch(ref, vectors)
    if at is None:
        return None
    v = vectors[at]
    return (v, *refeval.add(ref.width, *v), *refeval.compute(ref, v))


def _fields(ce):
    if ce is None:
        return None
    return (tuple(ce.vector), ce.expected_sum, ce.expected_cout, ce.got_sum, ce.got_cout)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_net_matches_the_reference_on_drawn_and_stream_vectors(data):
    nl, ref = data.draw(netlists())
    seed = data.draw(st.integers(0, 2**64 - 1))
    stream = refeval.stream_vectors(nl.width, 4, seed)
    assert [tuple(v) for v in random_vectors(nl.width, 4, seed)] == stream
    for v in data.draw(_vectors(nl.width, 1, 4)) + stream:
        s, cout, values = evaluate(nl, InputVector(*v))
        assert values == refeval.evaluate(ref, *v)
        assert (s, cout) == refeval.sum_cout(ref, values)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_toggle_counts_match_counts_made_vector_by_vector(data):
    # 8-row batches, so most streams cross a batch seam
    nl, ref = data.draw(netlists())
    count, seed = data.draw(st.integers(2, 30)), data.draw(st.integers(0, 2**64 - 1))
    vectors = data.draw(_vectors(nl.width, 2, 30))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BATCH", 8)
        stats = run_vectors(nl, count=count, seed=seed)
        stream = refeval.stream_vectors(nl.width, count, seed)
        assert stats.per_net_toggles == tuple(_toggles(ref, stream))
        assert stats.vectors_applied == count
        stats = collect_toggles(nl, [InputVector(*v) for v in vectors])
        assert stats.per_net_toggles == tuple(_toggles(ref, vectors))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verify_random_finds_the_reference_first_mismatch(data):
    nl, ref = data.draw(netlists())
    count, seed = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 2**64 - 1))
    batch = data.draw(st.sampled_from([8, simulate._BATCH]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BATCH", batch)
        got = verify_random(nl, count=count, seed=seed)
    assert _fields(got) == _verdict(ref, refeval.stream_vectors(nl.width, count, seed))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_verify_exhaustive_finds_the_reference_first_mismatch(data):
    # 8- and 64-row batches cut the rows into many chunks; 65536 leaves two at width 5
    nl, ref = data.draw(netlists(1, 5))
    batch = data.draw(st.sampled_from([8, 64, simulate._BATCH]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BATCH", batch)
        got = verify_exhaustive_netlist(nl)
    rows = [refeval.exhaustive_row(nl.width, r) for r in range(1 << nl.offset)]
    assert _fields(got) == _verdict(ref, rows)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_delay_and_area_match_the_reference_model(data):
    nl, ref = data.draw(netlists())
    lib = default_library()
    cells = {
        kind.value: {
            "area_um2": c.area_um2,
            "intrinsic_delay_ns": c.intrinsic_delay_ns,
            "load_delay_ns_per_ff": c.load_delay_ns_per_ff,
            "input_cap_ff": c.input_cap_ff,
        }
        for kind, c in lib.cells.items()
    }
    delay, _ = critical_path(nl, lib)
    assert math.isclose(delay, refeval.timing(ref, cells, lib.output_load_ff)[0], rel_tol=1e-12)
    assert math.isclose(area(nl, lib), refeval.area(ref, cells), rel_tol=1e-12)
