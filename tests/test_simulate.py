"""Vector generation, bit-parallel evaluation, toggles and verification."""

import functools
import gc
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import adderlab.simulate as simulate
from adderlab import (
    CellKind,
    Counterexample,
    InputVector,
    PRESETS,
    ToggleStats,
    collect_toggles,
    compose,
    dump_trace,
    evaluate,
    NetlistBuilder,
    prng_word,
    random_vectors,
    run_vectors,
    to_verilog,
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
@pytest.mark.parametrize("width", [1, 31, 32, 63, 64, 65, 1024])
def test_random_vectors_match_prng_word_reference(width, seed):
    got = random_vectors(width, 5, seed)
    assert got == stream_reference(width, 5, seed)
    # a plain tuple would compare equal, so check the record type itself
    assert all(type(v) is InputVector for v in got)


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


def _gate_truth(name, xs):
    """A cell's output from its input bits, written out per cell name."""
    if name == "INV":
        return 1 - xs[0]
    if name == "XOR2":
        return xs[0] ^ xs[1]
    return int(all(xs) if name.startswith("AND") else any(xs))


def test_evaluate_and_verilog_follow_each_kinds_truth_table():
    b = NetlistBuilder(2)
    ins = [*b.a, *b.b, b.cin]
    outs = [
        b.add_gate(kind, [ins[(k + j) % len(ins)] for j in range(kind.arity)])
        for k, kind in enumerate(CellKind)
    ]
    x = b.add_gate(CellKind.OR4, outs[:4])
    y = b.add_gate(CellKind.AND3, outs[4:7])
    nl = b.finish(sums=[x, y], cout=outs[7])
    assert {g.kind for g in nl.gates} == set(CellKind)
    for a in range(4):
        for bb in range(4):
            for cin in (0, 1):
                _, _, values = evaluate(nl, InputVector(a, bb, cin))
                assert values[: nl.offset] == [a & 1, a >> 1, bb & 1, bb >> 1, cin]
                for net, g in enumerate(nl.gates, nl.offset):
                    want = _gate_truth(g.kind.value, [values[nid] for nid in g.inputs])
                    assert values[net] == want, (g, a, bb, cin)
    text = to_verilog(nl)
    for k, g in enumerate(nl.gates):
        name = g.kind.value
        prim = {"INV": "not", "XOR2": "xor"}.get(name, name[:-1].lower())
        assert f"  {prim} g{k} (" in text


def test_evaluate_rejects_out_of_range_operands():
    nl = compose("rca:2")
    for bad in (InputVector(4, 0, 0), InputVector(0, -1, 0), InputVector(0, 0, 2)):
        with pytest.raises(InvalidWidth):
            evaluate(nl, bad)
    assert repr(InputVector(4, 0, 0)) == "InputVector(a=4, b=0, cin=0)"
    with pytest.raises(InvalidWidth) as exc:
        evaluate(nl, InputVector(4, 0, 0))
    assert str(exc.value) == "vector InputVector(a=4, b=0, cin=0) does not fit width 2"
    with pytest.raises(AttributeError):
        InputVector(4, 0, 0).a = 1


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


_POOL = ["rca:3", "ccla:3", "scbcla:2,rca:1", "rca:1,scbcla:2", "ccla:2,rca:2", "rca:63", "rca:64", "rca:65"]
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


@pytest.mark.parametrize("width", [64, 65])
def test_collect_toggles_names_the_first_bad_vector_of_a_batch(width):
    # widths on both sides of the one-uint64-per-operand encoder
    nl = compose(f"rca:{width}")
    top = (1 << width) - 1
    good = [InputVector(top, 0, 1), InputVector(0, top, 0)]
    for bad in (InputVector(1 << width, 0, 0), InputVector(0, -1, 0), InputVector(0, 0, 2)):
        later = InputVector(0, 0, 3)
        with pytest.raises(InvalidWidth) as exc:
            collect_toggles(nl, good + [bad] + good + [later])
        assert str(bad) in str(exc.value) and str(later) not in str(exc.value)
    for bad in (InputVector(1.5, 0, 0), InputVector(0, 2.0, 0), InputVector(0, 0, 1.0)):
        with pytest.raises(TypeError):
            collect_toggles(nl, good + [bad])
        with pytest.raises(TypeError):
            evaluate(nl, bad)


@pytest.mark.parametrize("width", [8, 40, 64, 65])
def test_numpy_integer_operands_encode_like_ints(width):
    # numpy scalars hold 64 bits, so operands are cut to fit at width 65
    ints = [InputVector(v.a % 2**64, v.b % 2**63, v.cin) for v in random_vectors(width, 6, 2)]
    numpy_ops = [InputVector(np.uint64(v.a), np.int64(v.b), np.int64(v.cin)) for v in ints]
    nl = compose(f"rca:{width}")
    assert collect_toggles(nl, numpy_ops) == collect_toggles(nl, ints)
    assert [evaluate(nl, v) for v in numpy_ops] == [evaluate(nl, v) for v in ints]
    traces = []
    for vectors in (numpy_ops, ints):
        buf = io.StringIO()
        dump_trace(nl, vectors, buf)
        traces.append(buf.getvalue())
    assert traces[0] == traces[1]


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


def test_random_vectors_rejects_a_negative_count():
    assert random_vectors(8, 0, 1) == []
    with pytest.raises(InsufficientVectors):
        random_vectors(8, -3, 1)
    with pytest.raises(InvalidWidth, match="^width must be >= 1, got 0$"):
        random_vectors(0, 4, 1)


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


@functools.cache
def _stream_pool() -> tuple[tuple, Counterexample]:
    """Designs of several widths and their mutants, led by a design1 mutant
    whose first mismatch at seed 1 lies in the second 8-row batch; and that
    mismatch, found one vector at a time."""
    d1 = compose(PRESETS["design1"])
    late = [
        m for m in map(functools.partial(flip_gate_kind, d1), flippable_gates(d1))
        if verify_random(m, count=8, seed=1) is None and verify_random(m, count=16, seed=1)
    ][0]
    at, expected = first_mismatch_scan(late, random_vectors(32, 16, seed=1))
    assert 8 <= at < 16 and verify_random(late, count=16, seed=1) == expected
    pool = [late, d1, compose(PRESETS["rca32"]), compose(PRESETS["design6"])]
    pool += [flip_gate_kind(d1, k) for k in flippable_gates(d1)[::40]]
    for spec in ("rca:3", "ccla:2,rca:2", "scbcla:4,rca:3", "rca:65"):
        nl = compose(spec)
        pool += [nl, flip_gate_kind(nl, flippable_gates(nl)[-1])]
    return tuple(pool), expected


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cached_stream_columns_give_the_cold_cache_result(data):
    # 8-row batches, so counts fall on both sides of _BATCH and the
    # two-entry cache churns within one call
    pool, late_ce = _stream_pool()
    calls = data.draw(
        st.lists(
            st.tuples(st.integers(1, len(pool) - 1), st.integers(1, 40), st.sampled_from([1, 2, 7])),
            min_size=1,
            max_size=8,
        )
    )
    calls.insert(data.draw(st.integers(0, len(calls))), (0, 16, 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BATCH", 8)
        warm = []
        for k, count, seed in calls:
            warm.append(verify_random(pool[k], count=count, seed=seed))
            assert simulate._stream_columns.cache_info().currsize <= 2
        for (k, count, seed), got in zip(calls, warm):
            simulate._stream_columns.cache_clear()
            assert verify_random(pool[k], count=count, seed=seed) == got
    assert warm[calls.index((0, 16, 1))] == late_ce


def test_a_repeated_stream_is_generated_and_packed_once(monkeypatch):
    calls = []
    for name in ("_stream_rows", "_pack"):
        real = getattr(simulate, name)
        monkeypatch.setattr(
            simulate, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    oracle = []
    real_expected = simulate._expected
    monkeypatch.setattr(
        simulate, "_expected", lambda *args: oracle.append(args[0]) or real_expected(*args)
    )
    simulate._stream_columns.cache_clear()
    d1 = compose(PRESETS["design1"])
    designs = [d1, compose(PRESETS["design6"]), compose(PRESETS["rca32"])]
    designs.append(flip_gate_kind(d1, flippable_gates(d1)[0]))
    # 100000 vectors take two batches, one cache entry each
    assert verify_random(designs[0], count=100000, seed=4) is None
    assert calls == ["_stream_rows", "_pack"] * 2
    assert oracle == [32] * 2
    for nl in designs:
        verify_random(nl, count=100000, seed=4)
    assert calls == ["_stream_rows", "_pack"] * 2
    assert oracle == [32] * 2
    verify_random(designs[0], count=100000, seed=5)
    assert calls == ["_stream_rows", "_pack"] * 4
    assert oracle == [32] * 4


@pytest.mark.parametrize("width", [1, 2, 31, 32, 33, 63, 64, 65, 130])
def test_expected_columns_hold_the_integer_sum_of_every_row(width):
    # decoded row by row against Python integers, not a second ripple
    top = (1 << width) - 1
    vecs = [InputVector(top, top, 1), InputVector(top, 0, 1), InputVector(0, top, 1)]
    vecs += [InputVector(top, top, 0), InputVector(0, 0, 0), InputVector(1, top, 0)]
    vecs += random_vectors(width, 70, seed=width)
    cols = simulate._pack(width, simulate._vector_rows(width, vecs))
    want = simulate._expected(width, cols)
    assert len(want) == width + 1
    for r, v in enumerate(vecs):
        total = v.a + v.b + v.cin
        got = sum(((col >> r) & 1) << i for i, col in enumerate(want))
        assert got == total, (width, v)
    assert all(col >> len(vecs) == 0 for col in want)


@pytest.mark.parametrize("spec", ["ccla:2,rca:2", PRESETS["design5"], "rca:65"])
def test_a_mutant_of_the_cout_gate_alone_is_caught_at_its_first_bad_vector(spec):
    nl = compose(spec)
    bad = flip_gate_kind(nl, nl.cout - nl.offset)  # only the gate driving cout
    w = bad.width
    _, expected = first_mismatch_scan(bad, random_vectors(w, 64, seed=6))
    assert expected is not None and expected.got_sum == expected.expected_sum
    simulate._stream_columns.cache_clear()
    assert verify_random(bad, count=64, seed=6) == expected  # cold cache
    assert simulate._stream_columns.cache_info().currsize == 1
    assert verify_random(bad, count=64, seed=6) == expected  # warm cache
    if w <= 4:
        mask = (1 << w) - 1
        rows = [
            InputVector(r & mask, (r >> w) & mask, r >> (2 * w)) for r in range(1 << (2 * w + 1))
        ]
        _, expected = first_mismatch_scan(bad, rows)
        assert verify_exhaustive_netlist(bad) == expected


def test_a_float_seed_is_rejected_on_a_cold_and_a_warm_cache():
    nl = compose("rca:4")
    simulate._stream_columns.cache_clear()
    with pytest.raises(TypeError):
        verify_random(nl, count=10, seed=1.0)
    assert verify_random(nl, count=10, seed=1) is None
    with pytest.raises(TypeError):
        verify_random(nl, count=10, seed=1.0)


@pytest.mark.parametrize("width", [1, 31, 32, 33, 40, 63, 64, 65, 130])
def test_caller_vectors_pack_like_the_stream_they_came_from(width):
    # operand fields that straddle uint64 words, and the wide integer path
    vecs = random_vectors(width, 50, seed=width)
    rows = simulate._stream_rows(width, 0, len(vecs), width)
    assert simulate._pack(width, simulate._vector_rows(width, vecs)) == simulate._pack(width, rows)


def test_caller_vectors_encode_without_setting_off_a_garbage_collection():
    # a transpose that holds one live iterator per vector, as zip(*vectors)
    # does, passes the default gen-0 threshold (700) on every 1024-vector batch
    vecs = random_vectors(32, 1024, seed=1)
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    simulate._vector_rows(32, vecs)
    assert gc.get_stats()[0]["collections"] == before


# rows spanning three packer blocks of ~64 KB of input-bit bytes at each width
_THREE_BLOCKS = {1: 131077, 32: 14565, 64: 8197, 65: 8197, 1024: 749}


@pytest.mark.parametrize("width", sorted(_THREE_BLOCKS))
@pytest.mark.parametrize("nrows", [5, 1003, "three-blocks"])
def test_pack_columns_hold_every_row_across_blocks(width, nrows):
    # fewer than 8 rows, a last byte only partly filled, and several blocks,
    # each for stream rows and for rows encoded from caller vectors (at
    # width 1024 those are 257 bytes wide, the stream's 264)
    if nrows == "three-blocks":
        nrows = _THREE_BLOCKS[width]
        assert nrows % 8 and nrows * -(-(2 * width + 1) // 8) > 2 * 2**16
    vecs = random_vectors(width, nrows, seed=5)
    # row r as 2w+1 digits, a and b MSB first, then cin: the stream's bit order
    digits = [f"{v.a:0{width}b}{v.b:0{width}b}{v.cin}" for v in reversed(vecs)]
    by_bit = [int("".join(col), 2) for col in zip(*digits)]
    # one column per input net in id order: a[0..w), b[0..w), cin
    expected = by_bit[width - 1 :: -1] + by_bit[2 * width - 1 : width - 1 : -1]
    expected.append(by_bit[2 * width])
    assert simulate._pack(width, simulate._stream_rows(width, 0, nrows, 5)) == expected
    assert simulate._pack(width, simulate._vector_rows(width, vecs)) == expected


def _set_padding(width, rows):
    """``rows`` with every bit after the leading 2*width+1 set to 1."""
    pad = np.arange(8 * rows.shape[1]) >= 2 * width + 1
    return rows | np.packbits(pad)


@pytest.mark.parametrize("width", [1, 32, 63, 64, 65, 1024])
def test_pack_ignores_the_padding_after_the_input_bits(width):
    vecs = random_vectors(width, 21, seed=8)
    for rows in (simulate._stream_rows(width, 0, 21, 8), simulate._vector_rows(width, vecs)):
        padded = _set_padding(width, rows)
        assert (padded != rows).any()
        assert simulate._pack(width, padded) == simulate._pack(width, rows)


def test_verify_exhaustive_covers_every_input():
    assert verify_exhaustive_netlist(compose("rca:2,ccla:3")) is None
    bad = flip_gate_kind(compose("scbcla:4"), 0)
    assert verify_exhaustive_netlist(bad) is not None


def test_verify_exhaustive_refuses_wide_netlists():
    with pytest.raises(InvalidWidth):
        verify_exhaustive_netlist(compose("rca:13"))
    assert verify_exhaustive_netlist(compose("rca:12")) is None
