"""Netlist construction, validation and gate order."""

import dataclasses
import gc
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adderlab import (
    PRESETS,
    BlockKind,
    CellKind,
    Gate,
    InputVector,
    Netlist,
    collect_toggles,
    compose,
    critical_path,
    default_library,
    dump_trace,
    evaluate,
    from_text,
    NetlistBuilder,
    ToggleStats,
    net_capacitance,
    power,
    power_components,
    run_vectors,
    to_text,
    to_verilog,
    topo_order,
    validate,
    verify_exhaustive_netlist,
    verify_random,
)
from adderlab import generate
from adderlab.arch import ArchitectureSpec, BlockSpec
from adderlab.errors import (
    ArityMismatch,
    DanglingInput,
    InvalidNetlist,
    InvalidWidth,
)
from adderlab.netlist import Violation

from conftest import ODD_NAMES, gate_columns


def test_builder_preallocates_primary_inputs():
    b = NetlistBuilder(3)
    names = [f"a[{i}]" for i in range(3)] + [f"b[{i}]" for i in range(3)] + ["cin"]
    assert compose("rca:3").nets[: b.cin + 1] == tuple(names)  # finish names them by id
    assert b.a == (0, 1, 2) and b.b == (3, 4, 5) and b.cin == 6
    assert len(b.kinds) == 0


@pytest.mark.parametrize("bad", [0, -4, "8", 2.0, None])
def test_width_must_be_positive_int(bad):
    with pytest.raises(InvalidWidth):
        NetlistBuilder(bad)


@pytest.mark.parametrize("make", [np.int64, np.int32, np.uint16])
def test_numpy_integer_widths_build_the_int_netlist(make):
    # the builder takes a numpy width's value, as BlockSpec does
    b = NetlistBuilder(make(4))
    assert type(b.width) is int and b.width == 4 and type(b.cin) is int
    with pytest.raises(InvalidWidth):
        NetlistBuilder(np.float64(4))
    for kind in BlockKind:
        nl = compose(ArchitectureSpec((BlockSpec(kind, make(4)), BlockSpec(BlockKind.RCA, make(3)))))
        same = compose(ArchitectureSpec((BlockSpec(kind, 4), BlockSpec(BlockKind.RCA, 3))))
        assert nl == same and to_text(nl) == to_text(same)
        assert all(type(nid) is int for g in nl.gates for nid in g.inputs)


def test_add_gate_assigns_sequential_ids_and_fresh_nets():
    b = NetlistBuilder(1)
    n0 = b.add_gate(CellKind.AND2, [b.a[0], b.b[0]])
    n1 = b.add_gate(CellKind.INV, [n0])
    assert (n0, n1) == (3, 4)
    assert len(b.kinds) == 2
    assert (b.kinds[1], b.inputs[1]) == (CellKind.INV, (3,))


def test_add_gate_checks_arity():
    b = NetlistBuilder(1)
    with pytest.raises(ArityMismatch):
        b.add_gate(CellKind.AND2, [b.a[0]])
    with pytest.raises(ArityMismatch):
        b.add_gate(CellKind.INV, [b.a[0], b.b[0]])


def test_add_gate_rejects_unknown_net_ids():
    b = NetlistBuilder(1)
    with pytest.raises(DanglingInput):
        b.add_gate(CellKind.XOR2, [b.a[0], 99])
    with pytest.raises(DanglingInput):
        b.add_gate(CellKind.INV, [-1])


def _full_adder_by_hand():
    b = NetlistBuilder(1)
    p = b.add_gate(CellKind.XOR2, [b.a[0], b.b[0]])
    s = b.add_gate(CellKind.XOR2, [p, b.cin])
    g = b.add_gate(CellKind.AND2, [b.a[0], b.b[0]])
    t = b.add_gate(CellKind.AND2, [p, b.cin])
    c = b.add_gate(CellKind.OR2, [g, t])
    return b, s, c


def test_place_maps_local_ids_and_finish_refuses_a_forward_read():
    # a full adder in local ids: a=0, b=1, cin=2, gate j drives 3+j
    fa, s, c = generate.template(BlockKind.RCA, 1)[:3], 4, 7
    X, A, O = CellKind.XOR2, CellKind.AND2, CellKind.OR2
    assert fa == (
        (X, X, A, A, O),
        ((0, 2), (2, 4), (4, 6), (6, 8), (8, 10)),
        (0, 1, 3, 2, 0, 1, 3, 2, 5, 6),
    )
    b = NetlistBuilder(2)
    low = b.place(*fa, [b.a[0], b.b[0], b.cin])
    assert low == [0, 2, 4, 5, 6, 7, 8, 9]
    high = b.place(*fa, [b.a[1], b.b[1], low[c]])
    assert high == [1, 3, 9, 10, 11, 12, 13, 14]
    assert b.finish([low[s], high[s]], high[c]) == compose("rca:2")
    with pytest.raises(DanglingInput, match="^no net with id 15$"):
        b.place(*fa, [b.a[0], b.b[0], 15])
    bad = NetlistBuilder(1)
    ids = bad.place((X, A), ((0, 2), (2, 4)), (0, 4, 1, 2), [0, 1, 2])
    with pytest.raises(InvalidNetlist, match="GateOrder"):
        bad.finish([ids[3]], ids[4])


def test_finish_names_outputs_and_freezes():
    b, s, c = _full_adder_by_hand()
    nl = b.finish([s], c)
    assert nl.nets[nl.sums[0]] == "sum[0]"
    assert nl.nets[nl.cout] == "cout"
    assert nl.width == 1 and nl.carries == ()
    assert validate(nl) == []
    with pytest.raises(dataclasses.FrozenInstanceError):
        nl.width = 2
    with pytest.raises(AttributeError):
        nl.gates[0].kind = CellKind.OR2


def test_finish_rejects_wrong_sum_count():
    b, s, c = _full_adder_by_hand()
    with pytest.raises(InvalidNetlist) as exc:
        b.finish([s, s], c)
    assert exc.value.violations == [
        Violation("SumCount", "2 of 1"),
        Violation("DuplicateOutput", "output nets must be distinct"),
        Violation("OutputName", "sum[0] is sum[1]"),  # the net takes the last name given
    ]


def test_finish_rejects_duplicate_output_nets():
    b, s, _ = _full_adder_by_hand()
    with pytest.raises(InvalidNetlist) as exc:
        b.finish([s], s)
    assert exc.value.violations == [
        Violation("DuplicateOutput", "output nets must be distinct"),
        Violation("OutputName", "sum[0] is cout"),
        Violation("DanglingNet", "n4"),
    ]


def test_finish_rejects_output_with_no_driver():
    b, s, _ = _full_adder_by_hand()
    # cin is a primary input, not a gate output, so finish renames an input;
    # and the carry gate's output n4 is left unread
    with pytest.raises(InvalidNetlist) as exc:
        b.finish([s], b.cin)
    assert exc.value.violations == [
        Violation("UndrivenOutput", "cout"),
        Violation("InputName", "cin is cout"),
        Violation("DanglingNet", "n4"),
    ]


def _ripple_by_hand(width):
    """A ripple adder built gate by gate; also returns the net of each
    propagate p<i> and each internal carry c<i>."""
    b = NetlistBuilder(width)
    carry, sums, named = b.cin, [], {}
    for i in range(width):
        p = named[f"p{i}"] = b.add_gate(CellKind.XOR2, [b.a[i], b.b[i]])
        sums.append(b.add_gate(CellKind.XOR2, [p, carry]))
        g = b.add_gate(CellKind.AND2, [b.a[i], b.b[i]])
        t = b.add_gate(CellKind.AND2, [p, carry])
        carry = named[f"c{i + 1}"] = b.add_gate(CellKind.OR2, [g, t])
    return b, sums, carry, named


@pytest.mark.parametrize(
    "width, carries, violations",
    [
        (1, [(5, "p0")], ["OutputName(carries[0] is c5)"]),
        (2, [(1, "c1"), (1, "p1")], ["DuplicateName(c1 names nets 9 and 10)",
                                     "OutputName(carries[1] is c1)"]),
        (2, [(0, "c1")], ["OutputName(carries[0] is c0)"]),
    ],
    ids=["beyond-width", "repeated", "zero"],
)
def test_finish_rejects_carry_indices_the_text_format_cannot_hold(width, carries, violations):
    # finish names each carry's net c<k> as given, and validate refuses the name
    b, sums, cout, named = _ripple_by_hand(width)
    with pytest.raises(InvalidNetlist) as exc:
        b.finish(sums, cout, carries=[(k, named[net]) for k, net in carries])
    assert list(map(str, exc.value.violations)) == violations


def test_generated_presets_validate_clean():
    for spec in ("rca:4", "ccla:3,rca:1", "rca:2,scbcla:3x2"):
        assert validate(compose(spec)) == []


def test_validate_reports_undriven_output():
    # sum[3] now names cin, a primary input, and the gate that drove it is left unread
    nl = compose("ccla:4")
    broken = dataclasses.replace(nl, sums=nl.sums[:3] + (nl.cin,))
    assert validate(broken) == [
        Violation("UndrivenOutput", "cin"),
        Violation("OutputName", "sum[3] is cin"),
        Violation("DanglingNet", "sum[3]"),
    ]


def _refused(entry, nl):
    """The violations of the InvalidNetlist ``entry(nl)`` raises, or [] if it raises none."""
    try:
        entry(nl)
    except InvalidNetlist as exc:
        return exc.violations
    return []


def _raw_width1(gates, nets_extra, sums, cout):
    nets = ("a[0]", "b[0]", "cin") + tuple(nets_extra)
    return Netlist(width=1, nets=nets, **gate_columns(gates), sums=sums, cout=cout)


def test_validate_reports_repeated_output_nets():
    # sum[0] and cout on one net, which to_text would write as "outputs sum[0] sum[0]"
    nl = _raw_width1([Gate(CellKind.INV, (0,))], ["sum[0]"], sums=(3,), cout=3)
    assert validate(nl) == [
        Violation("DuplicateOutput", "output nets must be distinct"),
        Violation("OutputName", "cout is sum[0]"),
    ]
    assert _refused(topo_order, nl) == validate(nl)


def test_validate_reports_dangling_net():
    nl = _raw_width1(
        gates=[
            Gate(CellKind.AND2, (0, 1)),  # drives the first gate net, n9, which nobody reads
            Gate(CellKind.OR2, (0, 1)),
            Gate(CellKind.XOR2, (0, 2)),
        ],
        nets_extra=["n9", "sum[0]", "cout"],
        sums=(4,),
        cout=5,
    )
    assert validate(nl) == [Violation("DanglingNet", "n9")]


def test_cycle_is_reported_and_topo_raises():
    nl = _raw_width1(
        gates=[
            Gate(CellKind.AND2, (4, 0)),
            Gate(CellKind.OR2, (3, 1)),
        ],
        nets_extra=["sum[0]", "cout"],
        sums=(3,),
        cout=4,
    )
    assert validate(nl) == [Violation("GateOrder", "g0 reads net 4")]
    assert _refused(topo_order, nl) == validate(nl)


@pytest.mark.parametrize(
    "change, subject",
    [
        (lambda nl: gate_columns(nl.gates[:-1]), "15 nets for 9 gates at width 2"),
        (lambda nl: {"nets": nl.nets + ("n99",)}, "16 nets for 10 gates at width 2"),
        (lambda nl: {"nets": nl.nets[:-1], "cout": 99}, "14 nets for 10 gates at width 2"),
    ],
    ids=["gate-dropped", "net-added", "net-dropped-and-bad-port"],
)
def test_validate_reports_a_net_table_that_does_not_match_the_gates(change, subject):
    nl = compose("rca:2")
    broken = dataclasses.replace(nl, **change(nl))
    assert validate(broken) == [Violation("NetCount", subject)]


@pytest.mark.parametrize(
    "change, subject",
    [
        (lambda nl: {"cout": 999}, "cout is net 999"),
        (lambda nl: {"sums": (nl.sums[0], -1)}, "sum[1] is net -1"),
    ],
    ids=["cout", "sums"],
)
def test_validate_reports_a_port_outside_the_net_table(change, subject):
    nl = compose("rca:2")
    broken = dataclasses.replace(nl, **change(nl))
    assert validate(broken) == [Violation("DanglingPort", subject)]


def test_gate_records_are_the_two_columns():
    for name, spec in PRESETS.items():
        nl = compose(spec)
        assert len(nl.gates) == len(nl.kinds) == len(nl.inputs), name
        assert all(nl.gates[k] == Gate(nl.kinds[k], nl.inputs[k]) for k in range(len(nl.kinds)))


@pytest.mark.parametrize("build", [compose, lambda spec: from_text(to_text(compose(spec)))],
                         ids=["compose", "from_text"])
def test_no_input_tuple_stays_tracked_by_the_collector(build):
    # CPython behaviour: a collection untracks a tuple that holds only ints, so
    # the 6400 input tuples of a 1024-bit adder leave nothing for later
    # collections to rescan; a Gate record holds a CellKind and would stay tracked
    nl = build("scbcla:4x256")
    gc.collect()
    assert len(nl.inputs) == 6400 and not any(map(gc.is_tracked, nl.inputs))


@pytest.mark.parametrize("column", ["kinds", "inputs"])
def test_validate_reports_gate_columns_of_different_lengths_alone(column):
    nl = compose("rca:1")
    broken = dataclasses.replace(nl, **{column: getattr(nl, column)[:-1]}, cout=99)
    want = "5 kinds, 4 input tuples" if column == "inputs" else "4 kinds, 5 input tuples"
    assert validate(broken) == [Violation("GateCount", want)]
    assert _refused(topo_order, broken) == validate(broken)


def test_a_built_gate_list_is_in_dependency_order():
    nl = compose("rca:2,scbcla:3x2")
    assert topo_order(nl) is None
    for k, g in enumerate(nl.gates):
        assert all(nid < nl.offset + k for nid in g.inputs)


def test_topo_order_rejects_an_acyclic_read_of_a_later_gate():
    # gate 0 reads gate 1's output: no cycle, but not in dependency order
    nl = _raw_width1(
        gates=[
            Gate(CellKind.AND2, (4, 1)),
            Gate(CellKind.INV, (0,)),
        ],
        nets_extra=["sum[0]", "cout"],
        sums=(3,),
        cout=4,
    )
    assert _refused(topo_order, nl) == [Violation("GateOrder", "g0 reads net 4")]


def forward_read_reference(nl):
    """The first (k, nid) where gate k reads a net in [2w+1+k, len(nets)),
    that is its own net or a later gate's; None if there is no such read."""
    first = 2 * nl.width + 1  # gate k drives net first + k
    reads = [(k, nid) for k, g in enumerate(nl.gates) for nid in g.inputs]
    return next(((k, nid) for k, nid in reads if first + k <= nid < len(nl.nets)), None)


_KIND_OF_ARITY = {1: CellKind.INV, 2: CellKind.AND2, 3: CellKind.AND3, 4: CellKind.AND4}


@st.composite
def shuffled_dags(draw):
    """A width-1 netlist of n gates built in dependency order, then moved
    to shuffled positions (ids) or left in build order; some inputs read
    a net outside the table (id -1 or 3 + n)."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(n)))
    by_id = draw(st.booleans())
    gates = []
    for k in range(n):
        # built gate k drives net 3 + k and may read primary inputs, the
        # nets outside the table, or earlier outputs
        sources = [-1, 0, 1, 2, 3 + n] + [3 + j for j in range(k)]
        gates.append(draw(st.lists(st.sampled_from(sources), min_size=1, max_size=4)))
    if by_id:
        # built gate k moves to position ids[k], so its net becomes 3 + ids[k]
        moved = {3 + k: 3 + ids[k] for k in range(n)}
        gates = [[moved.get(nid, nid) for nid in gates[ids.index(j)]] for j in range(n)]
    gates = [Gate(_KIND_OF_ARITY[len(ins)], tuple(ins)) for ins in gates]
    nets = ("a[0]", "b[0]", "cin") + tuple(f"n{k}" for k in range(n))
    last = 3 + n - 1
    return Netlist(
        width=1,
        nets=nets,
        **gate_columns(gates),
        sums=(last,),
        cout=last,
    )


@settings(max_examples=200, deadline=None)
@given(nl=shuffled_dags())
def test_topo_order_matches_a_forward_read_reference(nl):
    # every read outside the table, unread nets, then the first forward read
    assert _refused(topo_order, nl) == validate_reference(nl)


def test_topo_order_of_built_and_parsed_netlists_is_id_order():
    for name, spec in PRESETS.items():
        nl = compose(spec)
        assert forward_read_reference(nl) is None, name
        assert topo_order(nl) is None, name
        assert topo_order(from_text(to_text(nl))) is None, name


def test_topo_order_rejects_a_gate_reading_its_own_output():
    nl = _raw_width1(
        gates=[Gate(CellKind.AND2, (3, 0)), Gate(CellKind.OR2, (3, 1))],
        nets_extra=["sum[0]", "cout"],
        sums=(3,),
        cout=4,
    )
    assert _refused(topo_order, nl) == [Violation("GateOrder", "g0 reads net 3")]


def _full_adder_out_of_order():
    """A width-1 full adder whose sum gate g0 reads the propagate net of
    g1: acyclic, but not in dependency order."""
    return _raw_width1(
        gates=[
            Gate(CellKind.XOR2, (4, 2)),
            Gate(CellKind.XOR2, (0, 1)),
            Gate(CellKind.AND2, (0, 1)),
            Gate(CellKind.AND2, (4, 2)),
            Gate(CellKind.OR2, (5, 6)),
        ],
        nets_extra=["sum[0]", "p0", "g0", "t0", "cout"],
        sums=(3,),
        cout=7,
    )


_TWO_VECTORS = [InputVector(1, 0, 1), InputVector(0, 1, 0)]
_ENTRY_POINTS = {
    "topo_order": topo_order,
    "evaluate": lambda nl: evaluate(nl, _TWO_VECTORS[0]),
    "collect_toggles": lambda nl: collect_toggles(nl, _TWO_VECTORS),
    "dump_trace": lambda nl: dump_trace(nl, _TWO_VECTORS, io.StringIO()),
    "verify_random": verify_random,
    "verify_exhaustive_netlist": verify_exhaustive_netlist,
    "critical_path": lambda nl: critical_path(nl, default_library()),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
def test_every_entry_point_rejects_a_gate_list_out_of_dependency_order(entry):
    assert _refused(entry, _full_adder_out_of_order()) == [Violation("GateOrder", "g0 reads net 4")]


def test_validate_reports_a_gate_list_out_of_dependency_order():
    assert validate(_full_adder_out_of_order()) == [Violation("GateOrder", "g0 reads net 4")]


def _stats(nl):
    """Toggle stats that fit ``nl``, so only the netlist can be refused."""
    return ToggleStats((1,) * len(nl.nets), 2)


_GUARDED = {
    **_ENTRY_POINTS,
    "run_vectors": run_vectors,
    "power": lambda nl: power(nl, default_library(), _stats(nl)),
    "power_components": lambda nl: power_components(nl, default_library(), _stats(nl)),
    "net_capacitance": lambda nl: net_capacitance(nl, default_library(), nl.cout),
    "to_text": to_text,
    "to_verilog": to_verilog,
}


@pytest.mark.parametrize("entry", _GUARDED.values(), ids=_GUARDED.keys())
def test_every_entry_point_rejects_a_read_outside_the_net_table(entry):
    nl = compose("rca:1")
    g0 = nl.gates[0]
    for nid in (-1, len(nl.nets)):
        gates = (g0._replace(inputs=(nid, g0.inputs[1])),) + nl.gates[1:]
        bad = dataclasses.replace(nl, **gate_columns(gates))
        assert _refused(entry, bad) == [Violation("DanglingInput", f"g0 reads net {nid}")]


def _extra_sum(spec):
    """``compose(spec)`` with its carry-out listed as one more sum and an AND2
    over the carry-out gate's inputs as the new cout: every gate net is read
    or an output, so only the sum count is wrong (at width 2, 3 + 1 gives
    cout 0)."""
    nl = compose(spec)
    top = nl.gates[nl.cout - nl.offset]
    nets = list(nl.nets) + ["cout"]
    nets[nl.cout] = f"sum[{nl.width}]"
    return dataclasses.replace(
        nl,
        nets=tuple(nets),
        **gate_columns(nl.gates + (Gate(CellKind.AND2, top.inputs),)),
        sums=nl.sums + (nl.cout,),
        cout=len(nl.nets),
    )


def _unsound_netlists():
    """rca:1 (gates XOR2 p, XOR2 sum[0], AND2, AND2, OR2 cout) broken one way
    each, rca:2 with an extra sum, and a half adder whose outputs keep their
    gate net names, which ``from_text`` would refuse; with what ``validate``
    reports."""
    nl = compose("rca:1")

    def gate0(*inputs):
        return dataclasses.replace(
            nl, **gate_columns((nl.gates[0]._replace(inputs=inputs),) + nl.gates[1:])
        )

    def renamed(nid, name):
        return dataclasses.replace(nl, nets=nl.nets[:nid] + (name,) + nl.nets[nid + 1 :])

    return {
        "short-net-table": (
            dataclasses.replace(nl, nets=nl.nets[:-1]),
            ["NetCount(7 nets for 5 gates at width 1)"],
        ),
        "cout-out-of-range": (dataclasses.replace(nl, cout=99), ["DanglingPort(cout is net 99)"]),
        "negative-sum": (dataclasses.replace(nl, sums=(-1,)), ["DanglingPort(sum[0] is net -1)"]),
        "short-inputs-column": (
            dataclasses.replace(nl, inputs=nl.inputs[:-1]),
            ["GateCount(5 kinds, 4 input tuples)"],
        ),
        "short-kinds-column": (
            dataclasses.replace(nl, kinds=nl.kinds[:-1]),
            ["GateCount(4 kinds, 5 input tuples)"],
        ),
        "extra-sum": (_extra_sum("rca:1"), ["SumCount(2 of 1)"]),
        "extra-sum-width-2": (_extra_sum("rca:2"), ["SumCount(3 of 2)"]),
        "no-sum": (dataclasses.replace(nl, sums=()), ["SumCount(0 of 1)", "DanglingNet(sum[0])"]),
        "xor-one-input": (gate0(0), ["ArityMismatch(g0 XOR2)"]),
        "xor-three-inputs": (gate0(0, 1, 2), ["ArityMismatch(g0 XOR2)"]),
        "sum-on-input": (
            dataclasses.replace(nl, sums=(0,)),
            ["UndrivenOutput(a[0])", "OutputName(sum[0] is a[0])", "DanglingNet(sum[0])"],
        ),
        "outputs-named-n3-n4": (
            _raw_width1(
                [Gate(CellKind.XOR2, (0, 1)), Gate(CellKind.AND2, (0, 1))],
                ["n3", "n4"],
                sums=(3,),
                cout=4,
            ),
            ["OutputName(sum[0] is n3)", "OutputName(cout is n4)"],
        ),
        "unread-gate-net": (
            dataclasses.replace(
                nl, **gate_columns(nl.gates[:4] + (nl.gates[4]._replace(inputs=(5, 5)),))
            ),
            ["DanglingNet(n3)"],
        ),
        "input-renamed": (renamed(0, "x"), ["InputName(a[0] is x)"]),
        "space-in-name": (renamed(3, "n 0"), ["NetName(net 3 is 'n 0')"]),
        "name-used-twice": (renamed(3, "sum[0]"), ["DuplicateName(sum[0] names nets 3 and 4)"]),
    }


@pytest.mark.parametrize("unsound", _unsound_netlists())
@pytest.mark.parametrize("entry", _GUARDED.values(), ids=_GUARDED.keys())
def test_every_entry_point_refuses_exactly_what_validate_reports(entry, unsound):
    bad, want = _unsound_netlists()[unsound]
    assert list(map(str, validate(bad))) == want
    assert _refused(entry, bad) == validate(bad)


def test_validate_refuses_a_width_below_one():
    # "width 0" is no header from_text reads, so validate stops at the width
    nl = Netlist(0, ("cin", "cout"), **gate_columns([Gate(CellKind.INV, (0,))]), sums=(), cout=1)
    assert validate(nl) == [Violation("Width", "0 is below 1")]
    for name, entry in _GUARDED.items():
        assert _refused(entry, nl) == validate(nl), name
    with pytest.raises(InvalidNetlist, match=r"^Width\(0 is below 1\)$"):
        to_text(nl)


def test_a_hand_built_netlist_is_checked_on_every_call():
    nl = compose("rca:1")
    inputs = list(nl.inputs)
    hand = Netlist(nl.width, list(nl.nets), nl.kinds, inputs, nl.sums, nl.cout)
    assert topo_order(hand) is None
    inputs[0] = (4, 2)  # g0 now reads g1's net, sum[0]
    for entry in (topo_order, verify_random, lambda n: critical_path(n, default_library())):
        assert _refused(entry, hand) == [Violation("GateOrder", "g0 reads net 4")]


@pytest.mark.parametrize(
    "build", [compose, lambda spec: from_text(to_text(compose(spec)))], ids=["compose", "from_text"]
)
def test_a_replaced_copy_of_a_built_netlist_is_checked(build):
    nl = build("rca:1")
    assert topo_order(nl) is None
    bad = dataclasses.replace(nl, inputs=((4, 2),) + nl.inputs[1:])
    assert validate(bad) == [Violation("GateOrder", "g0 reads net 4")]
    assert _refused(topo_order, bad) == validate(bad)


def test_arity_table_covers_every_kind():
    assert [(k.value, k.arity, k.primitive) for k in CellKind] == [
        ("INV", 1, "not"),
        ("AND2", 2, "and"),
        ("AND3", 3, "and"),
        ("AND4", 4, "and"),
        ("OR2", 2, "or"),
        ("OR3", 3, "or"),
        ("OR4", 4, "or"),
        ("XOR2", 2, "xor"),
    ]
    assert CellKind("AND3") is CellKind.AND3
    assert repr(CellKind.AND3) == "<CellKind.AND3: 'AND3'>"


def validate_reference(nl):
    """``validate`` as it was before the one-pass walk, with the readers map
    it read inlined, the drivers taken from gate positions and the gate
    order checked by ``forward_read_reference``."""
    out = []
    if len(nl.sums) != nl.width:
        out.append(Violation("SumCount", f"{len(nl.sums)} of {nl.width}"))
    nnets = len(nl.nets)
    first = 2 * nl.width + 1  # gate k drives net first + k

    drivers = {}
    for k, g in enumerate(nl.gates):
        if len(g.inputs) != g.kind.arity:
            out.append(Violation("ArityMismatch", f"g{k} {g.kind.value}"))
        for nid in g.inputs:
            if not (0 <= nid < nnets):
                out.append(Violation("DanglingInput", f"g{k} reads net {nid}"))
        drivers.setdefault(first + k, []).append(k)

    pis = set(range(first))
    for nid in nl.primary_outputs():
        if nid not in drivers:
            out.append(Violation("UndrivenOutput", nl.nets[nid]))
    if len(set(nl.primary_outputs())) != len(nl.primary_outputs()):
        out.append(Violation("DuplicateOutput", "output nets must be distinct"))
    # the names from_text reads: the inputs a[i], b[i] and cin first, every
    # name non-empty, free of whitespace and used once; sum[i], cout, then
    # ascending c<k> with 0 < k < width
    w = nl.width
    inputs = [f"a[{i}]" for i in range(w)] + [f"b[{i}]" for i in range(w)] + ["cin"]
    for want, got in zip(inputs, nl.nets):
        if got != want:
            out.append(Violation("InputName", f"{want} is {got}"))
    for nid, name in enumerate(nl.nets):
        if name == "" or any(ch.isspace() for ch in name):
            out.append(Violation("NetName", f"net {nid} is {name!r}"))
        if name in nl.nets[:nid]:
            first = nl.nets.index(name)
            out.append(Violation("DuplicateName", f"{name} names nets {first} and {nid}"))
    ports = [(f"sum[{i}]", nid) for i, nid in enumerate(nl.sums)] + [("cout", nl.cout)]
    for port, nid in ports:
        if nl.nets[nid] != port:
            out.append(Violation("OutputName", f"{port} is {nl.nets[nid]}"))
    last = 0
    for i, nid in enumerate(nl.carries):
        m = re.fullmatch("c([1-9][0-9]*)", nl.nets[nid])
        if m and last < int(m[1]) < nl.width:
            last = int(m[1])
        else:
            out.append(Violation("OutputName", f"carries[{i}] is {nl.nets[nid]}"))

    readers = {nid: [] for nid in range(nnets)}
    for k, g in enumerate(nl.gates):
        for nid in g.inputs:
            if nid in readers:
                readers[nid].append(k)
    observable = set(nl.primary_outputs())
    for nid, name in enumerate(nl.nets):
        if nid in pis or nid in observable:
            continue
        if not readers.get(nid):
            out.append(Violation("DanglingNet", name))

    bad = forward_read_reference(nl)
    if bad is not None:
        out.append(Violation("GateOrder", "g%d reads net %d" % bad))
    return out


_MUTATIONS = (
    "swap",
    "undriven_output",
    "duplicate_output",
    "arity",
    "out_of_range",
    "drop_reader",
    "forward_read",
    "sum_count",
    "output_name",
    "net_name",
)


@st.composite
def mutilated_netlists(draw):
    """A small built netlist with 1-4 structural faults that keep the net
    table's length and every port id inside it."""
    specs = ["rca:1", "rca:2", "ccla:2", "ccla:3", "scbcla:3", "rca:1,ccla:2"]
    nl = compose(draw(st.sampled_from(specs)))
    gates, sums, nets = list(nl.gates), list(nl.sums), list(nl.nets)
    nnets, ngates = len(nl.nets), len(gates)
    first = 2 * nl.width + 1  # gate k drives net first + k
    pis = range(first)
    for _ in range(draw(st.integers(1, 4))):
        what = draw(st.sampled_from(_MUTATIONS))
        i = draw(st.integers(0, ngates - 1))
        g = gates[i]
        ins = list(g.inputs)
        pin = draw(st.integers(0, len(ins) - 1)) if ins else None
        if what == "undriven_output":
            sums[draw(st.integers(0, len(sums) - 1))] = draw(st.sampled_from(pis))
        elif what == "duplicate_output":
            sums[draw(st.integers(0, len(sums) - 1))] = draw(st.sampled_from(nl.primary_outputs()))
        elif what == "sum_count":  # one sum more, on any net, or one fewer but never none
            grown = sums + [draw(st.integers(0, nnets - 1))]
            sums = draw(st.sampled_from([grown, sums[:-1]] if len(sums) > 1 else [grown]))
        elif what == "output_name":  # another net's name, or a carry name from_text refuses
            odd = ["n99", "c0", "c01", "c\u0661", "c-1", f"c{nl.width}"]
            nets[draw(st.sampled_from(nl.primary_outputs()))] = draw(st.sampled_from(odd + nets))
        elif what == "net_name":  # any net, an input too, named as another or as from_text refuses
            nets[draw(st.integers(0, nnets - 1))] = draw(st.sampled_from(ODD_NAMES + nets))
        elif what == "arity":  # drop the last input or add one
            grown = ins + [draw(st.integers(0, nnets - 1))]
            g = g._replace(inputs=tuple(draw(st.sampled_from([ins[:-1], grown]))))
        elif pin is not None:
            if what == "swap":
                ins[pin] = draw(st.integers(0, nnets - 1))
            elif what == "out_of_range":
                ins[pin] = draw(st.sampled_from([-1, -5, nnets, nnets + 3]))
            elif what == "drop_reader":
                ins[pin] = draw(st.sampled_from(pis))
            else:  # forward_read: the output of this gate or a later one
                ins[pin] = first + draw(st.integers(i, ngates - 1))
            g = g._replace(inputs=tuple(ins))
        gates[i] = g
    return dataclasses.replace(nl, nets=tuple(nets), **gate_columns(gates), sums=tuple(sums))


@settings(max_examples=300, deadline=None)
@given(nl=mutilated_netlists())
def test_validate_matches_the_reference_on_mutilated_netlists(nl):
    assert validate(nl) == validate_reference(nl)
    assert _refused(topo_order, nl) == validate_reference(nl)

