"""Vector generation, bit-parallel evaluation, toggles and verification."""

import io

import pytest
from hypothesis import given, settings, strategies as st

import adderlab.simulate as simulate
from adderlab import (
    Counterexample,
    InputVector,
    PRESETS,
    ToggleStats,
    collect_toggles,
    compose,
    dump_trace,
    evaluate,
    prng_word,
    random_vectors,
    run_vectors,
    verify_exhaustive_netlist,
    verify_random,
)
from adderlab.errors import InsufficientVectors, InvalidWidth

from conftest import flip_gate_kind, flippable_gates


# ---------------------------------------------------------------------------
# deterministic vector stream


def test_prng_matches_published_splitmix64_sequence():
    # reference outputs for seed 0, as published with the algorithm
    assert prng_word(0, 1) == 0xE220A8397B1DCDAF
    assert prng_word(0, 2) == 0x6E789E6AA1B965F4
    assert prng_word(0, 3) == 0x06C45D188009454F


def test_prng_word_is_stateless():
    assert prng_word(42, 7) == prng_word(42, 7)
    assert prng_word(42, 7) != prng_word(42, 8)
    assert prng_word(43, 7) != prng_word(42, 7)


def test_random_vectors_frozen_sample():
    assert random_vectors(4, 3, seed=9) == [
        InputVector(a=10, b=14, cin=1),
        InputVector(a=12, b=0, cin=0),
        InputVector(a=4, b=3, cin=1),
    ]
    first = random_vectors(32, 1, seed=1)[0]
    assert (first.a, first.b, first.cin) == (0x910A2DEC, 0x89025CC1, 1)


def test_random_vectors_slices_the_top_bits_msb_first():
    # width 28 needs 57 bits, still one word: a is the word's top 28 bits
    w = prng_word(5, 1)
    v = random_vectors(28, 1, seed=5)[0]
    assert v.a == w >> 36
    assert v.b == (w >> 8) & 0x0FFFFFFF
    assert v.cin == (w >> 7) & 1


def test_random_vectors_concatenate_words_for_wide_operands():
    # width 40 needs 81 bits -> two words, first word most significant
    w1, w2 = prng_word(3, 1), prng_word(3, 2)
    bits = (w1 << 64) | w2
    v = random_vectors(40, 1, seed=3)[0]
    assert v.a == bits >> (128 - 40)
    assert v.cin == (bits >> (128 - 81)) & 1


def stream_reference(width, count, seed):
    """The documented stream, one prng_word at a time."""
    nbits = 2 * width + 1
    nwords = -(-nbits // 64)
    out = []
    for v in range(count):
        big = 0
        for j in range(nwords):
            big = (big << 64) | prng_word(seed, v * nwords + 1 + j)
        top = big >> (64 * nwords - nbits)
        mask = (1 << width) - 1
        out.append(InputVector(a=top >> (width + 1), b=(top >> 1) & mask, cin=top & 1))
    return out


@pytest.mark.parametrize("seed", [0, (1 << 63) + 5, -7])
@pytest.mark.parametrize("width", [1, 31, 32, 63, 64, 1024])
def test_random_vectors_match_prng_word_reference(width, seed):
    assert random_vectors(width, 5, seed) == stream_reference(width, 5, seed)


def test_random_vectors_in_range_and_deterministic():
    vecs = random_vectors(7, 200, seed=11)
    assert vecs == random_vectors(7, 200, seed=11)
    assert all(0 <= v.a < 128 and 0 <= v.b < 128 and v.cin in (0, 1) for v in vecs)
    assert vecs != random_vectors(7, 200, seed=12)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_returns_all_net_values():
    nl = compose("rca:2")
    s, cout, values = evaluate(nl, InputVector(3, 1, 0))
    assert (s, cout) == (0, 1)
    assert len(values) == len(nl.nets)
    assert set(values) <= {0, 1}
    assert values[nl.a[0]] == 1 and values[nl.a[1]] == 1 and values[nl.b[1]] == 0


def test_evaluate_rejects_out_of_range_operands():
    nl = compose("rca:2")
    for bad in (InputVector(4, 0, 0), InputVector(0, -1, 0), InputVector(0, 0, 2)):
        with pytest.raises(InvalidWidth):
            evaluate(nl, bad)


# ---------------------------------------------------------------------------
# toggle counting


def naive_toggles(nl, vectors):
    """Reference: evaluate one vector at a time, count value changes."""
    counts = [0] * len(nl.nets)
    prev = None
    for v in vectors:
        _, _, values = evaluate(nl, v)
        if prev is not None:
            for i in range(len(values)):
                counts[i] += prev[i] ^ values[i]
        prev = values
    return tuple(counts)


_POOL = ["rca:3", "ccla:3", "scbcla:2,rca:1", "rca:1,scbcla:2", "ccla:2,rca:2", "rca:65"]
_POOL_WIDTH = {s: compose(s).width for s in _POOL}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_collect_toggles_matches_vector_at_a_time_reference(data):
    spec = data.draw(st.sampled_from(_POOL))
    width = _POOL_WIDTH[spec]
    space = 1 << width
    raw = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, space - 1), st.integers(0, space - 1), st.integers(0, 1)
            ),
            min_size=2,
            max_size=40,
        )
    )
    vectors = [InputVector(*t) for t in raw]
    nl = compose(spec)
    stats = collect_toggles(nl, vectors, interval_ns=5.0)
    assert stats.per_net_toggles == naive_toggles(nl, vectors)
    assert stats.vectors_applied == len(vectors)
    assert max(stats.per_net_toggles) <= len(vectors) - 1


def test_collect_toggles_across_batch_seams(monkeypatch):
    # shrink the batch size so one stream spans several batches
    monkeypatch.setattr(simulate, "_BATCH", 8)
    nl = compose("rca:2")
    vectors = random_vectors(2, 30, seed=4)
    stats = collect_toggles(nl, vectors)
    assert stats.per_net_toggles == naive_toggles(nl, vectors)


def test_alternating_inputs_toggle_every_cycle():
    nl = compose(PRESETS["rca32"])
    hi = (1 << 32) - 1
    vectors = [InputVector(hi if i % 2 else 0, 0, 0) for i in range(11)]
    stats = collect_toggles(nl, vectors)
    for nid in nl.a:
        assert stats.per_net_toggles[nid] == 10
    for nid in nl.b:
        assert stats.per_net_toggles[nid] == 0


def test_identical_vectors_toggle_nothing():
    nl = compose("ccla:3")
    stats = collect_toggles(nl, [InputVector(5, 2, 1)] * 4)
    assert set(stats.per_net_toggles) == {0}


def test_total_time_spans_intervals_between_vectors():
    stats = ToggleStats(per_net_toggles=(0,), vectors_applied=11, interval_ns=5.0)
    assert stats.total_time_ns == 50.0


def test_too_few_vectors_rejected():
    nl = compose("rca:1")
    with pytest.raises(InsufficientVectors):
        collect_toggles(nl, [InputVector(0, 0, 0)])
    with pytest.raises(InsufficientVectors):
        run_vectors(nl, count=1)
    for count in (0, -5):
        with pytest.raises(InsufficientVectors):
            verify_random(nl, count=count)


def test_run_vectors_is_seed_deterministic():
    nl = compose(PRESETS["design2"])
    a = run_vectors(nl, count=256, seed=7)
    b = run_vectors(nl, count=256, seed=7)
    assert a == b
    c = run_vectors(nl, count=256, seed=8)
    assert c.per_net_toggles != a.per_net_toggles


def test_primary_input_activity_is_design_independent():
    # same seeded stream hits every design's input pins identically
    d1 = run_vectors(compose(PRESETS["design1"]), count=128, seed=3)
    d4 = run_vectors(compose(PRESETS["design4"]), count=128, seed=3)
    pi = 2 * 32 + 1
    assert d1.per_net_toggles[:pi] == d4.per_net_toggles[:pi]


def test_dump_trace_one_line_per_vector(monkeypatch):
    # shrink the batch size so the trace spans several batches
    monkeypatch.setattr(simulate, "_BATCH", 8)
    nl = compose("rca:2")
    vectors = random_vectors(2, 20, seed=1)
    buf = io.StringIO()
    dump_trace(nl, vectors, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 20
    assert all(len(line) == len(nl.nets) for line in lines)
    assert set("".join(lines)) <= {"0", "1"}
    for line, v in zip(lines, vectors):
        _, _, values = evaluate(nl, v)
        assert line == "".join(str(bit) for bit in values)


# ---------------------------------------------------------------------------
# verification against the integer oracle


def test_verify_random_passes_every_preset_quickly():
    for name, spec in PRESETS.items():
        assert verify_random(compose(spec), count=2000, seed=1) is None, name


def test_verify_random_finds_probable_corruption():
    nl = compose(PRESETS["design1"])
    bad = flip_gate_kind(nl, flippable_gates(nl)[0])
    ce = verify_random(bad, count=5000, seed=1)
    assert ce is not None
    total = ce.vector.a + ce.vector.b + ce.vector.cin
    assert ce.expected_sum == total & 0xFFFFFFFF
    assert ce.expected_cout == total >> 32
    got_sum, got_cout, _ = evaluate(bad, ce.vector)
    assert (got_sum, got_cout) == (ce.got_sum, ce.got_cout)
    assert (ce.got_sum, ce.got_cout) != (ce.expected_sum, ce.expected_cout)
    assert "expected" in str(ce) and hex(ce.vector.a) in str(ce)


def first_mismatch_scan(nl, vectors):
    """Reference: (index, Counterexample) of the first vector evaluate gets wrong."""
    mask = (1 << nl.width) - 1
    for i, v in enumerate(vectors):
        total = v.a + v.b + v.cin
        got_sum, got_cout, _ = evaluate(nl, v)
        if (got_sum, got_cout) != (total & mask, total >> nl.width):
            return i, Counterexample(v, total & mask, total >> nl.width, got_sum, got_cout)
    return None, None


def test_counterexamples_match_a_vector_at_a_time_scan(monkeypatch):
    # with 8-row batches, some first mismatches lie past a batch seam
    monkeypatch.setattr(simulate, "_BATCH", 8)
    nl = compose("ccla:2,rca:2")
    w, mask = nl.width, (1 << nl.width) - 1
    rows = [InputVector(r & mask, (r >> w) & mask, r >> (2 * w)) for r in range(1 << (2 * w + 1))]
    stream = random_vectors(w, 64, seed=3)
    row_at, stream_at = [], []
    for gid in flippable_gates(nl):
        bad = flip_gate_kind(nl, gid)
        at, expected = first_mismatch_scan(bad, rows)
        assert verify_exhaustive_netlist(bad) == expected
        row_at.append(at or 0)
        at, expected = first_mismatch_scan(bad, stream)
        assert verify_random(bad, count=len(stream), seed=3) == expected
        stream_at.append(at or 0)
    assert max(row_at) >= 8 and max(stream_at) >= 8


def test_pack_columns_hold_every_row_across_unpack_slices():
    # at width 1024 the packer unpacks 248 rows per slice; 501 rows end mid-byte
    nl = compose("rca:1024")
    vecs = random_vectors(1024, 501, seed=5)
    cols = simulate._pack(nl, simulate._stream_rows(1024, 0, len(vecs), 5))

    def column(values, bit):
        return sum(((x >> bit) & 1) << r for r, x in enumerate(values))

    for i in (0, 1, 7, 8, 511, 1023):
        assert cols[nl.a[i]] == column([v.a for v in vecs], i)
        assert cols[nl.b[i]] == column([v.b for v in vecs], i)
    assert cols[nl.cin] == column([v.cin for v in vecs], 0)


def test_verify_exhaustive_covers_every_input():
    assert verify_exhaustive_netlist(compose("rca:2,ccla:3")) is None
    bad = flip_gate_kind(compose("scbcla:4"), 0)
    assert verify_exhaustive_netlist(bad) is not None


def test_verify_exhaustive_refuses_wide_netlists():
    with pytest.raises(InvalidWidth):
        verify_exhaustive_netlist(compose("rca:13"))
    assert verify_exhaustive_netlist(compose("rca:12")) is None
