"""Area, timing, power and figure-of-merit computations.

Numeric expectations are either worked out by hand from the default
library constants or frozen from reference power/delay/area rows (see
data/table1.csv).
"""

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import adderlab.analyze as analyze_module
from adderlab import (
    AnalysisReport,
    CellKind,
    Gate,
    Netlist,
    PRESETS,
    ToggleStats,
    analyze_design,
    area,
    compare,
    comparison_csv,
    compose,
    critical_path,
    default_library,
    fom,
    format_comparison,
    metrics_report,
    net_capacitance,
    NetlistBuilder,
    power,
    power_components,
    report_json,
    run_vectors,
    validate,
)
from adderlab.analyze import Improvement
from adderlab.errors import DanglingInput, InvalidMetric, InvalidNetlist, NothingToCompare

from conftest import TABLE1_ROWS, random_arch_string

LIB = default_library()


# ---------------------------------------------------------------------------
# area


def test_area_of_full_adder():
    # 2 XOR2 (3.0) + 2 AND2 (2.0) + 1 OR2 (2.0) by hand
    assert area(compose("rca:1"), LIB) == pytest.approx(12.0)


def test_area_sums_over_gates():
    nl = compose(PRESETS["design1"])
    by_hand = sum(LIB.cells[g.kind].area_um2 for g in nl.gates)
    assert area(nl, LIB) == pytest.approx(by_hand) == pytest.approx(482.0)


# ---------------------------------------------------------------------------
# loads and the longest path


def _inv_chain():
    b = NetlistBuilder(1)
    n = b.a[0]
    for _ in range(3):
        n = b.add_gate(CellKind.INV, [n])
    c = b.add_gate(CellKind.AND2, [b.a[0], b.b[0]])
    return b.finish([n], c)


def test_net_capacitance_counts_sink_pins_and_output_load():
    nl = _inv_chain()
    assert net_capacitance(nl, LIB, nl.a[0]) == pytest.approx(1.0 + 1.2)  # INV + AND2 pins
    assert net_capacitance(nl, LIB, nl.offset) == pytest.approx(1.0)  # gate 0's net
    assert net_capacitance(nl, LIB, nl.sums[0]) == pytest.approx(4.0)  # primary output FO4


def test_net_capacitance_refuses_a_net_id_outside_the_table():
    nl = compose("rca:1")
    assert net_capacitance(nl, LIB, len(nl.nets) - 1) == pytest.approx(4.0)  # cout, the last net
    for nid in (-1, len(nl.nets)):
        with pytest.raises(DanglingInput, match=f"^no net with id {nid}$"):
            net_capacitance(nl, LIB, nid)


def test_critical_path_of_inverter_chain():
    # 0.03 + 0.03 + (0.02 + 0.010 * 4.0) by hand
    delay, path = critical_path(_inv_chain(), LIB)
    assert delay == pytest.approx(0.12)
    assert path == (0, 1, 2)


def test_critical_path_single_gate_with_output_load():
    b = NetlistBuilder(1)
    s = b.add_gate(CellKind.AND2, [b.a[0], b.b[0]])
    c = b.add_gate(CellKind.OR2, [b.a[0], b.b[0]])
    nl = b.finish([s], c)
    delay, path = critical_path(nl, LIB)
    assert delay == pytest.approx(0.05 + 0.012 * 4.0)
    assert path == (0,)  # equal-delay endpoints resolve to the smaller gate id


def test_critical_path_refuses_a_netlist_without_gates():
    nl = Netlist(
        width=1,
        nets=("a[0]", "b[0]", "cin"),
        gates=(),
        sums=(0,),
        cout=1,
    )
    with pytest.raises(InvalidNetlist) as exc:
        critical_path(nl, LIB)
    assert list(map(str, exc.value.violations)) == [
        "UndrivenOutput(a[0])",
        "UndrivenOutput(b[0])",
        "OutputName(sum[0] is a[0])",
        "OutputName(cout is b[0])",
    ]


def test_critical_path_checks_the_net_table_without_gates():
    nl = Netlist(width=1, nets=("x",), gates=(), sums=(0,), cout=0)
    with pytest.raises(InvalidNetlist, match=r"^NetCount\(1 nets for 0 gates at width 1\)$"):
        critical_path(nl, LIB)


def _one_inverter(sum0, cout):
    # nets 0-2 are a[0], b[0] and cin; net 3 is driven by the INV of a[0]
    nets = ("a[0]", "b[0]", "cin", "n3")
    return Netlist(width=1, nets=nets, gates=(Gate(CellKind.INV, (0,)),), sums=(sum0,), cout=cout)


def test_critical_path_refuses_outputs_on_primary_inputs():
    for nl in (_one_inverter(0, 1), _one_inverter(0, 3)):
        with pytest.raises(InvalidNetlist) as exc:
            critical_path(nl, LIB)
        assert exc.value.violations == validate(nl) != []


def test_critical_path_of_a_lone_inverter():
    # output nets are distinct, so cout gets an inverter of its own: sum[0] is
    # the INV of a[0] on net 3, cout the INV of b[0] on net 4; the tie goes to g0
    nets = ("a[0]", "b[0]", "cin", "sum[0]", "cout")
    gates = (Gate(CellKind.INV, (0,)), Gate(CellKind.INV, (1,)))
    nl = Netlist(width=1, nets=nets, gates=gates, sums=(3,), cout=4)
    inv = LIB.cells[CellKind.INV]
    delay, path = critical_path(nl, LIB)
    assert delay == inv.intrinsic_delay_ns + inv.load_delay_ns_per_ff * LIB.output_load_ff
    assert path == (0,)
    assert critical_path(nl, _flat_library(0.0)) == (0.0, (0,))


def test_preset_delays_frozen():
    delays = {}
    for name in ("design1", "design2", "design3", "design4", "design5", "design6", "rca32"):
        delays[name], _ = critical_path(compose(PRESETS[name]), LIB)
    assert delays["design1"] == pytest.approx(3.3683, abs=1e-4)
    assert delays["design3"] == pytest.approx(3.2584, abs=1e-4)
    assert delays["rca32"] == pytest.approx(4.8337, abs=1e-4)
    assert all(delays[d] < delays["rca32"] for d in delays if d != "rca32")


def _flat_library(delay_ns):
    """LIB with every cell taking ``delay_ns`` whatever its load."""
    cells = {
        kind: dataclasses.replace(cell, intrinsic_delay_ns=delay_ns, load_delay_ns_per_ff=0.0)
        for kind, cell in LIB.cells.items()
    }
    return dataclasses.replace(LIB, cells=cells)


@pytest.mark.parametrize(
    "spec, delay_ns, delay, path",
    [
        (
            PRESETS["design1"],
            0.1,
            2.4,
            (0, 6, 8, 24, 25, 42, 43, 60, 61, 78, 79, 96, 97, 114, 115, 132, 133, 150, 151)
            + (168, 169, 179, 180, 189),
        ),
        ("scbcla:3x2", 0.1, 0.8, (2, 6, 9, 28, 29, 31, 32, 33)),
        (PRESETS["design1"], 0.0, 0.0, (0, 5)),
    ],
    ids=["design1-unit", "scbcla-unit", "design1-zero"],
)
def test_critical_path_tie_breaks_frozen(spec, delay_ns, delay, path):
    # with equal cell delays most gate inputs tie; the smaller driver id wins
    got_delay, got_path = critical_path(compose(spec), _flat_library(delay_ns))
    assert got_delay == pytest.approx(delay)
    assert got_path == path


def test_critical_path_is_a_connected_gate_sequence():
    nl = compose(PRESETS["design5"])
    delay, path = critical_path(nl, LIB)
    assert delay > 0
    for up, down in zip(path, path[1:]):
        assert nl.offset + up in nl.gates[down].inputs


# ---------------------------------------------------------------------------
# power


def _two_inverters():
    b = NetlistBuilder(1)
    s = b.add_gate(CellKind.INV, [b.a[0]])
    c = b.add_gate(CellKind.INV, [b.b[0]])
    return b.finish([s], c)


def test_power_worked_example():
    # one 1.0 fF net toggling 10 times across 11 vectors at 5 ns spacing
    nl = _two_inverters()
    stats = ToggleStats((10, 0, 0, 0, 0), vectors_applied=11)
    switching, leakage = power_components(nl, LIB, stats)
    assert switching == pytest.approx(0.5 * 1.0 * 1.05**2 * 10 / 50.0)
    assert switching == pytest.approx(0.11025)
    assert leakage == pytest.approx(0.002)  # two INVs at 1 nW
    assert power(nl, LIB, stats) == pytest.approx(switching + leakage)


def test_power_scales_linearly_with_toggles():
    nl = _two_inverters()
    one = power_components(nl, LIB, ToggleStats((10, 0, 0, 0, 0), 11))[0]
    two = power_components(nl, LIB, ToggleStats((20, 0, 0, 0, 0), 11))[0]
    assert two == pytest.approx(2 * one)


def test_switching_power_spans_intervals_between_vectors():
    # 11 vectors span 10 intervals: 25 ns at 2.5 ns apart, 50 ns at the 5 ns default
    nl = _two_inverters()
    stats = ToggleStats((10, 0, 0, 0, 0), 11)
    fast = power_components(nl, LIB, stats, interval_ns=2.5)
    assert fast[0] == pytest.approx(2 * power_components(nl, LIB, stats)[0])
    assert fast[0] == pytest.approx(0.5 * 1.0 * 1.05**2 * 10 / 25.0)
    assert fast[1] == power_components(nl, LIB, stats, 5.0)[1]


def test_quiet_netlist_burns_only_leakage():
    nl = _two_inverters()
    stats = ToggleStats((0, 0, 0, 0, 0), 11)
    assert power(nl, LIB, stats) == pytest.approx(0.002)


def test_power_rejects_mismatched_stats():
    nl = _two_inverters()
    with pytest.raises(InvalidMetric):
        power(nl, LIB, ToggleStats((0, 0), 11))


def test_power_rejects_degenerate_time_base():
    nl = _two_inverters()
    with pytest.raises(InvalidMetric):
        power(nl, LIB, ToggleStats((0, 0, 0, 0, 0), 1))
    with pytest.raises(InvalidMetric):
        power(nl, LIB, ToggleStats((0, 0, 0, 0, 0), 11), interval_ns=0.0)


def test_simulated_power_exceeds_leakage_floor():
    nl = compose("rca:4")
    stats = run_vectors(nl, count=64, seed=2)
    switching, leakage = power_components(nl, LIB, stats)
    assert switching > 0
    assert leakage == pytest.approx(
        sum(LIB.cells[g.kind].leakage_nw for g in nl.gates) * 1e-3
    )


# ---------------------------------------------------------------------------
# figure of merit and design comparison


def test_fom_definition():
    assert fom(38.11, 2.22, 563.18) == pytest.approx(20.987506966613, rel=1e-12)
    assert fom(1.0, 1.0, 1.0) == pytest.approx(1e6)


@pytest.mark.parametrize(
    "bad",
    [
        (0, 1, 1),
        (1, -2, 1),
        (1, 1, 0),
        (math.nan, 1, 1),
        (math.inf, 1, 1),
        (1e-300, 1e-300, 1e-300),
        (1e200, 1e200, 1e200),
    ],
)
def test_fom_rejects_nonpositive_inputs(bad):
    with pytest.raises(InvalidMetric):
        fom(*bad)


@given(
    p=st.floats(0.01, 1e4),
    d=st.floats(0.01, 1e4),
    a=st.floats(0.01, 1e4),
)
def test_fom_inverts_the_metric_product(p, d, a):
    assert math.isclose(fom(p, d, a) * p * d * a, 1e6, rel_tol=1e-9)


def _table1_reports():
    return [metrics_report(n, p, d, a) for n, p, d, a in TABLE1_ROWS]


def test_reference_rows_reproduce_fom_ranking():
    cmp_ = compare(_table1_reports())
    assert [r.design for r in cmp_.ranking] == [
        "design6", "design4", "design5", "design2", "design3", "design1",
    ]
    foms = {r.design: r.fom_scaled for r in cmp_.ranking}
    assert foms["design1"] == pytest.approx(20.9875, abs=5e-5)
    assert foms["design2"] == pytest.approx(22.5581, abs=5e-5)
    assert foms["design6"] == pytest.approx(24.7368, abs=5e-5)


def test_reference_rows_reproduce_improvements():
    cmp_ = compare(_table1_reports())
    assert len(cmp_.improvements) == 15
    assert all(type(i) is Improvement for i in cmp_.improvements)
    with pytest.raises(AttributeError):
        cmp_.improvements[0].percent = 0.0
    pct = {(i.winner, i.loser): i.percent for i in cmp_.improvements}
    assert pct[("design2", "design1")] == pytest.approx(7.484, abs=1e-3)
    assert pct[("design6", "design1")] == pytest.approx(17.864, abs=1e-3)
    assert pct[("design6", "design2")] == pytest.approx(9.658, abs=1e-3)


def test_compare_keeps_input_order_on_ties():
    x = metrics_report("x", 1.0, 1.0, 1.0)
    y = metrics_report("y", 1.0, 1.0, 1.0)
    assert [r.design for r in compare([x, y]).ranking] == ["x", "y"]
    assert [r.design for r in compare([y, x]).ranking] == ["y", "x"]


def test_compare_needs_two_designs():
    with pytest.raises(NothingToCompare):
        compare([metrics_report("solo", 1, 1, 1)])


def test_comparison_csv_layout():
    text = comparison_csv(compare(_table1_reports()))
    lines = text.strip().split("\n")
    assert lines[0] == "design,power_uw,delay_ns,area_um2,fom_scaled"
    assert len(lines) == 7
    assert lines[1].startswith("design6,41.16,2.23,440.43,")


def test_format_comparison_quotes_headline_improvements():
    text = format_comparison(compare(_table1_reports()))
    assert "design2 over design1: +7.5% fom" in text
    assert "design6 over design1: +17.9% fom" in text
    assert "design6 over design2: +9.7% fom" in text


# ---------------------------------------------------------------------------
# end-to-end report


def test_analyze_design_consistency():
    report = analyze_design("design1", PRESETS["design1"], vectors=64, seed=1)
    nl = compose(PRESETS["design1"])
    assert report.design == "design1"
    assert report.arch == "ccla:2,ccla:3x10"
    assert report.gates == len(nl.gates) == 191
    assert report.area_um2 == pytest.approx(482.0)
    assert report.delay_ns == pytest.approx(3.3683, abs=1e-4)
    assert report.fom_scaled == pytest.approx(
        fom(report.power_uw, report.delay_ns, report.area_um2)
    )
    assert report.critical_path == critical_path(nl, LIB)[1]


def _assert_report_is_exact(spec, vectors, seed):
    report = analyze_design("d", spec, LIB, vectors=vectors, seed=seed)
    nl = compose(spec)
    assert report.power_uw == power(nl, LIB, run_vectors(nl, vectors, seed)), spec
    assert (report.delay_ns, report.critical_path) == critical_path(nl, LIB), spec
    assert report.area_um2 == area(nl, LIB), spec


def test_analyze_design_equals_the_public_metrics_on_every_preset():
    for spec in PRESETS.values():
        _assert_report_is_exact(spec, 256, 3)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 300), st.integers(0, 2**64 - 1))
def test_analyze_design_equals_the_public_metrics_on_random_architectures(rng, vectors, seed):
    _assert_report_is_exact(random_arch_string(rng, 1, 40), vectors, seed)


def test_analyze_design_walks_the_net_loads_once(monkeypatch):
    calls = []

    def counted(nl, lib):
        calls.append(nl)
        return loads(nl, lib)

    loads = analyze_module._loads
    monkeypatch.setattr(analyze_module, "_loads", counted)
    analyze_design("d", "rca:2,ccla:3", vectors=16)
    assert len(calls) == 1


def test_report_json_schema():
    report = analyze_design("d", "rca:2", vectors=16, seed=1)
    doc = json.loads(report_json(report))
    assert list(doc) == [
        "design", "arch", "gates", "power_uw", "delay_ns", "area_um2",
        "fom_scaled", "critical_path",
    ]
    assert doc["gates"] == 10
    assert isinstance(doc["critical_path"], list)
    assert report_json(report).endswith("\n")


def _presets_digest(**kwargs):
    """SHA-256 over ``report_json`` of every preset, 256 vectors of seed 3."""
    digest = hashlib.sha256()
    for name in sorted(PRESETS):
        report = analyze_design(name, PRESETS[name], vectors=256, seed=3, **kwargs)
        digest.update(report_json(report).encode())
    return digest.hexdigest()


def test_report_json_bytes_of_every_preset_are_pinned():
    assert _presets_digest() == "357ebc2be5780822c2f706afc25a672c77c448685ed2b6544277618ab4247c75"


def test_report_json_bytes_at_another_interval_are_pinned():
    # the interval reaches only the switching time base
    want = "960112965a7a8fb95d545089da3a9ca0f7a35f7b21971ae7b54a0b4f61a97f17"
    assert _presets_digest(interval_ns=2.5) == want


def test_metrics_report_marks_external_rows():
    r = metrics_report("ext", 10.0, 2.0, 100.0)
    assert (r.arch, r.gates, r.critical_path) == ("", 0, ())
    assert isinstance(r, AnalysisReport)
    assert r.fom_scaled == pytest.approx(fom(10.0, 2.0, 100.0))
