"""Tests of the benchmark itself: its reference evaluator, mutants,
digests, failure counting, rank correlation and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import io
import types

import adderlab as A
import pytest

import hostspeed
import refeval
import run
import tracer
import workloads


def _small_explore(seed: int) -> dict:
    inputs = workloads.make_inputs(A, "explore32", seed)
    keep = inputs["designs"][:12]
    inputs["designs"] = keep
    inputs["expect"] = {name: inputs["expect"][name] for name, _ in keep}
    return inputs


@pytest.mark.parametrize("name", sorted(A.PRESETS))
def test_reference_evaluator_agrees_with_adderlab_on_every_preset(name):
    nl = A.compose(A.preset(name))
    ref = refeval.parse(A.to_text(nl))
    top = (1 << nl.width) - 1
    vectors = refeval.stream_vectors(nl.width, 40, 7) + [(0, 0, 0), (top, top, 1), (top, 1, 0)]
    for a, b, cin in vectors:
        s, cout, values = A.evaluate(nl, A.InputVector(a, b, cin))
        mine = refeval.evaluate(ref, a, b, cin)
        assert mine == values
        assert refeval.sum_cout(ref, mine) == (s, cout) == refeval.add(nl.width, a, b, cin)


@pytest.mark.parametrize("width", [1, 32, 40, 1024])
def test_reference_stream_matches_the_documented_stream(width):
    got = [(v.a, v.b, v.cin) for v in A.random_vectors(width, 20, 3)]
    assert refeval.stream_vectors(width, 20, 3) == got


def test_reference_timing_matches_critical_path():
    lib = A.default_library()
    cells, out_load = workloads._lib_cells(lib)
    for arch in ("rca:4", "ccla:3,scbcla:2x2", "scbcla:4x8"):
        nl = A.compose(arch)
        delay, path = A.critical_path(nl, lib)
        assert workloads._check_path(refeval.parse(A.to_text(nl)), cells, out_load, delay, path) == []
        assert workloads._check_path(refeval.parse(A.to_text(nl)), cells, out_load, delay * 1.01, path)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_mutant_validates_and_is_detected(seed):
    for workload in ("verify32", "exhaustive12", "explore32"):
        inputs = workloads.make_inputs(A, workload, seed)
        for m in inputs["mutants"]:
            nl = A.from_text(m["text"])
            assert A.validate(nl) == []
            if "index" in m:
                bad = A.verify_random(nl, count=m["vectors"], seed=inputs["vseed"])
                assert [bad.vector.a, bad.vector.b, bad.vector.cin] == m["vector"]
            else:
                bad = A.verify_exhaustive_netlist(nl)
            fails, rows = workloads._check_mutant(refeval.parse(m["text"]), bad, m)
            assert fails == [] and rows >= 1


def test_mutation_changes_one_gate_kind_within_its_arity():
    import random

    text = A.to_text(A.compose("ccla:3,scbcla:4"))
    mutant, change = refeval.mutate(text, random.Random(5))
    diff = [(x, y) for x, y in zip(text.split("\n"), mutant.split("\n")) if x != y]
    assert len(diff) == 1
    old, new = diff[0][0].split(" ")[1], diff[0][1].split(" ")[1]
    assert new in refeval.SAME_ARITY[old] and change.endswith(f"{old}->{new}")


def test_two_in_process_passes_give_the_same_digest():
    inputs = _small_explore(4)
    first = workloads.run_pass(A, "explore32", inputs)
    second = workloads.run_pass(A, "explore32", inputs)
    traced = workloads.run_pass(A, "explore32", inputs, trace=True)
    assert first["failures"] == second["failures"] == traced["failures"] == []
    assert first["digest"] == second["digest"] == traced["digest"]
    assert workloads.run_pass(A, "explore32", _small_explore(5))["digest"] != first["digest"]


def _with(**overrides):
    """adderlab's public namespace with some functions replaced."""
    return types.SimpleNamespace(**{**vars(A), **overrides})


def test_an_undetected_mutant_counts_as_failed():
    inputs = workloads.make_inputs(A, "verify32", 1)
    inputs["designs"] = inputs["designs"][:1]
    res = workloads.run_pass(_with(verify_random=lambda nl, count, seed: None), "verify32", inputs)
    assert len(res["failures"]) == 2


def test_a_false_mismatch_on_a_correct_design_counts_as_failed():
    inputs = workloads.make_inputs(A, "verify32", 1)
    inputs["designs"] = inputs["designs"][:2]
    inputs["mutants"] = inputs["mutants"][:1]
    fake = A.Counterexample(A.InputVector(1, 1, 0), 2, 0, 3, 0)
    res = workloads.run_pass(_with(verify_random=lambda nl, count, seed: fake), "verify32", inputs)
    named = [f.split(":")[0] for f in res["failures"]]
    assert named[:2] == ["design1", "design2"]
    assert inputs["mutants"][0]["name"] in named[2:]


def test_a_wrong_trace_bit_counts_as_failed():
    def bad_trace(nl, vectors, fh):
        buf = io.StringIO()
        A.dump_trace(nl, vectors, buf)
        text = buf.getvalue()
        fh.write(text[:5] + ("1" if text[5] == "0" else "0") + text[6:])

    res = workloads.run_pass(_with(dump_trace=bad_trace), "explore32", _small_explore(1))
    assert any("trace" in f for f in res["failures"])


def test_a_wrong_ranking_counts_as_failed():
    def bad_compare(reports):
        good = A.compare(reports)
        return A.Comparison(tuple(reversed(good.ranking)), good.improvements)

    res = workloads.run_pass(_with(compare=bad_compare), "explore32", _small_explore(1))
    assert res["failures"]


def test_a_digest_that_differs_from_the_record_counts_as_failed():
    ok = {"ops": 4, "failures": [], "digest": "aa"}
    runs = [(False, ok, ""), (False, dict(ok, digest="bb"), ""), (False, None, "crashed")]
    assert run.tally(runs, None)[:2] == (11, 2)
    assert run.tally(runs, "aa")[:2] == (11, 2)
    assert run.tally(runs, "bb")[:2] == (11, 2)
    assert run.tally(runs[:1], "cc")[:2] == (5, 1)


def test_kendall_tau_on_known_orderings():
    assert refeval.kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert refeval.kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    assert refeval.kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)
    assert refeval.kendall_tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / 3)
    # design1..6: FoM simulated at 4096 vectors, seed 1, and from data/table1.csv
    sim = [13.837, 13.945, 18.032, 18.102, 17.618, 18.386]
    table1 = [20.99, 22.56, 21.86, 23.90, 22.58, 24.74]
    assert refeval.kendall_tau(sim, table1) == pytest.approx(11 / 15)
    with pytest.raises(ValueError):
        refeval.kendall_tau([1], [1])


def test_tracer_patches_every_lookup_site_and_restores_them():
    original = A.simulate.topo_order
    t = tracer.Tracer()
    t.install(A)
    try:
        for mod in (A, A.netlist, A.simulate, A.analyze):
            assert mod.topo_order is not original
        A.analyze_design("d", "rca:2,ccla:3", vectors=16)
    finally:
        t.restore()
    for mod in (A, A.netlist, A.simulate, A.analyze):
        assert mod.topo_order is original
    stats = tracer.layer_stats(t.spans)
    assert stats["analyze.analyze_design"]["calls"] == 1
    assert stats["netlist.topo_order"]["calls"] == 3  # validate, collect_toggles, critical_path
    assert stats["simulate.random_vectors"]["work"] == 16


def test_self_times_and_remainder_add_up_to_wall():
    spans = [
        ("analyze.analyze_design", 0.0, 10.0, -1, 0),
        ("generate.compose", 1.0, 4.0, 0, 30),
        ("netlist.validate", 2.0, 3.0, 1, 0),
        ("analyze.power", 5.0, 6.0, 0, 0),
        ("analyze.compare", 11.0, 12.0, -1, 0),
    ]
    m = tracer.per_layer_metrics(spans, 13.0, 2.0)
    assert m["analyze.analyze_design.self_s"][0] == 6.0
    assert m["generate.compose.self_s"][0] == 2.0
    assert m["generate.compose.gates_per_s"][0] == 15.0
    selfs = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    assert selfs + m["trace.untimed_s"][0] == m["trace.wall_s"][0] == 13.0
    assert m["trace.overhead_ratio"][0] == 2.0


def test_end_to_end_times_are_scaled_to_the_reference_host_speed():
    slow = hostspeed.REF_PROBE_S * 1.5
    passes = [{"wall_s": 3.0, "detect_s": 0.6, "probe_s": slow, "rows": 100, "gate_evals": 400, "peak_rss_mb": 50.0}]
    m = run.end_to_end(passes)
    assert m["wall_s"] == [pytest.approx(2.0)] and m["detect_s"] == [pytest.approx(0.4)]
    assert m["rows_per_s"] == [pytest.approx(50.0)] and m["gate_evals_per_s"] == [pytest.approx(200.0)]
    assert m["peak_rss_mb"] == [50.0]
    assert 0 < hostspeed.probe_s() < 1
