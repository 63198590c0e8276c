"""Netlist text format round-trips and the structural verilog emitter."""

import dataclasses
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import adderlab.netio
from adderlab import (
    PRESETS,
    CellKind,
    Gate,
    Netlist,
    compose,
    from_text,
    read_text,
    to_text,
    to_verilog,
    validate,
    verify_exhaustive_netlist,
    verify_random,
    write_text,
)
from adderlab.errors import InvalidNetlist, InvalidWidth, ParseError
from adderlab.netlist import input_names

from conftest import ODD_NAMES, random_arch_string

FULL_ADDER_TEXT = (
    "width 1\n"
    "g0 XOR2 a[0] b[0] -> n0\n"
    "g1 XOR2 n0 cin -> sum[0]\n"
    "g2 AND2 a[0] b[0] -> n2\n"
    "g3 AND2 n0 cin -> n3\n"
    "g4 OR2 n2 n3 -> cout\n"
    "outputs sum[0] cout\n"
)

FULL_ADDER_VERILOG = (
    "module adder (a, b, cin, sum, cout);\n"
    "  input [0:0] a;\n"
    "  input [0:0] b;\n"
    "  input cin;\n"
    "  output [0:0] sum;\n"
    "  output cout;\n"
    "  wire n0;\n"
    "  wire n2;\n"
    "  wire n3;\n"
    "\n"
    "  xor g0 (n0, a[0], b[0]);\n"
    "  xor g1 (sum[0], n0, cin);\n"
    "  and g2 (n2, a[0], b[0]);\n"
    "  and g3 (n3, n0, cin);\n"
    "  or g4 (cout, n2, n3);\n"
    "endmodule\n"
)


def test_full_adder_text_frozen():
    assert to_text(compose("rca:1")) == FULL_ADDER_TEXT


def test_full_adder_verilog_frozen():
    assert to_verilog(compose("rca:1")) == FULL_ADDER_VERILOG


def test_round_trip_is_byte_identical_for_every_preset():
    for name, spec in PRESETS.items():
        nl = compose(spec)
        text = to_text(nl)
        again = from_text(text)
        assert to_text(again) == text, name
        assert all(type(g) is Gate for g in nl.gates + again.gates), name


def test_round_trip_preserves_structure():
    nl = compose("rca:2,scbcla:3x2")
    again = from_text(to_text(nl))
    assert again.width == nl.width
    assert again.gates == nl.gates
    assert again.nets == nl.nets
    assert again.carries == nl.carries


def test_parse_requires_width_header():
    with pytest.raises(ParseError) as exc:
        from_text("g0 AND2 a[0] b[0] -> n0\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        from_text("")


def test_parse_rejects_width_zero():
    with pytest.raises(ParseError) as exc:
        from_text("width 0\noutputs cout\n")
    assert exc.value.line == 1


def test_parse_rejects_malformed_gate_line():
    bad = FULL_ADDER_TEXT.replace("g1 XOR2 n0 cin -> sum[0]", "g1 XOR2 n0 cin sum[0]")
    with pytest.raises(ParseError) as exc:
        from_text(bad)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_parse_rejects_out_of_order_gate_ids():
    bad = FULL_ADDER_TEXT.replace("g1 XOR2", "g7 XOR2")
    with pytest.raises(ParseError, match="sequential"):
        from_text(bad)


def test_parse_rejects_unknown_kind():
    bad = FULL_ADDER_TEXT.replace("g2 AND2", "g2 NAND2")
    with pytest.raises(ParseError, match="NAND2"):
        from_text(bad)


def test_parse_rejects_wrong_arity():
    bad = FULL_ADDER_TEXT.replace("g4 OR2 n2 n3 -> cout", "g4 OR2 n2 n3 n0 -> cout")
    with pytest.raises(ParseError):
        from_text(bad)


def test_parse_rejects_undefined_input():
    bad = FULL_ADDER_TEXT.replace("g4 OR2 n2 n3", "g4 OR2 n2 n99")
    with pytest.raises(ParseError, match="n99"):
        from_text(bad)


def test_parse_rejects_redefined_net():
    bad = FULL_ADDER_TEXT.replace("g3 AND2 n0 cin -> n3", "g3 AND2 n0 cin -> n2")
    with pytest.raises(ParseError, match="already defined"):
        from_text(bad)


def test_parse_rejects_missing_outputs_line():
    bad = FULL_ADDER_TEXT.replace("outputs sum[0] cout\n", "")
    with pytest.raises(ParseError) as exc:
        from_text(bad)
    assert exc.value.line == 7


def test_parse_rejects_trailing_content():
    with pytest.raises(ParseError, match="after outputs"):
        from_text(FULL_ADDER_TEXT + "g5 INV n0 -> n9\n")


def test_parse_rejects_misordered_outputs():
    bad = FULL_ADDER_TEXT.replace("outputs sum[0] cout", "outputs cout sum[0]")
    with pytest.raises(ParseError):
        from_text(bad)


def test_parse_rejects_undriven_declared_output():
    bad = FULL_ADDER_TEXT.replace("outputs sum[0] cout", "outputs sum[0] cout c1")
    with pytest.raises(ParseError, match="c1"):
        from_text(bad)


def _edit(*pairs):
    text = FULL_ADDER_TEXT
    for old, new in pairs:
        assert old in text
        text = text.replace(old, new)
    return text


_OUTS = "outputs sum[0] cout\n"

# one case per ParseError branch of from_text, and some of validate's
# violations it reports with no line: (id, text, message, line)
_PARSE_ERRORS = [
    ("empty", "", "empty netlist file", 1),
    ("header", _edit(("width 1", "widht 1")), "expected 'width <N>', got 'widht 1'", 1),
    ("width-0", _edit(("width 1", "width 0")), "width must be >= 1", 1),
    ("width-digit", _edit(("width 1", "width \u0661")),
     "expected 'width <N>', got 'width \u0661'", 1),
    ("width-zero-padded", _edit(("width 1", "width 01")),
     "expected 'width <N>', got 'width 01'", 1),
    ("too-few-lines", "width 5000\noutputs sum[0]\n",
     "width 5000 needs 5003 lines or more, got 2", 1),
    # 18 digits are read as a number; one more is refused before int() runs
    ("width-18-digits", _edit(("width 1", "width " + "9" * 18)),
     f"width {'9' * 18} needs 1000000000000000002 lines or more, got 7", 1),
    ("width-19-digits", _edit(("width 1", "width 1" + "0" * 18)),
     "width has 19 digits, more than 18", 1),
    ("width-5000-digits", _edit(("width 1", "width " + "1" * 5000)),
     "width has 5000 digits, more than 18", 1),
    ("gate-line", _edit((" -> sum[0]", " sum[0]")), "bad gate line 'g1 XOR2 n0 cin sum[0]'", 3),
    ("gate-id", _edit(("g1 XOR2", "g7 XOR2")), "gate ids must be sequential, expected g1", 3),
    ("gate-id-no-outputs", _edit(("g1 XOR2", "g7 XOR2"), (_OUTS, "")),
     "gate ids must be sequential, expected g1", 3),
    ("gate-id-digit", _edit(("g1 XOR2", "g\uff11 XOR2")),
     "gate ids must be sequential, expected g1", 3),
    ("gate-id-zero-padded", _edit(("g1 XOR2", "g01 XOR2")),
     "gate ids must be sequential, expected g1", 3),
    ("kind", _edit(("g2 AND2", "g2 NAND2")), "unknown cell kind 'NAND2'", 4),
    ("arity", _edit(("OR2 n2 n3", "OR2 n2 n3 n0")), "OR2 takes 2 inputs, got 3", 6),
    ("first-undefined", _edit(("AND2 n0 cin", "AND4 n0 n7 cin n8")),
     "input net 'n7' is not defined yet", 5),
    ("redefined", _edit(("cin -> n3", "cin -> n2")), "net 'n2' already defined", 5),
    ("no-outputs", _edit((_OUTS, "")), "missing outputs line", 7),
    ("after-outputs", FULL_ADDER_TEXT + "g5 INV n0 -> n9\n", "content after outputs line", 8),
    ("few-outputs", _edit((_OUTS, "outputs sum[0]\n")), "outputs line needs at least 2 names", 7),
    ("sum-order", _edit((_OUTS, "outputs cout sum[0]\n")),
     "OutputName(sum[0] is cout); OutputName(cout is sum[0])", None),
    ("sum-order-undriven", _edit(("-> sum[0]", "-> s0"), (_OUTS, "outputs cout sum[0]\n")),
     "output net 'sum[0]' is never driven", 7),
    ("sum-undriven", _edit(("-> sum[0]", "-> s0")), "output net 'sum[0]' is never driven", 7),
    ("sum-undriven-cout-name", _edit(("-> sum[0]", "-> s0"), (_OUTS, "outputs sum[0] co\n")),
     "output net 'sum[0]' is never driven", 7),
    ("cout-name", _edit((_OUTS, "outputs sum[0] sum[0]\n")),
     "DuplicateOutput(output nets must be distinct); OutputName(cout is sum[0]); "
     "DanglingNet(cout)", None),
    ("cout-undriven", _edit(("-> cout", "-> co")), "output net 'cout' is never driven", 7),
    ("cout-undriven-bad-carry", _edit(("-> cout", "-> co"), (_OUTS, "outputs sum[0] cout c0\n")),
     "output net 'cout' is never driven", 7),
    ("carry-name", _edit((_OUTS, "outputs sum[0] cout x1\n")),
     "output net 'x1' is never driven", 7),
    ("carry-digit", _edit(("n3", "c\u0661"), (_OUTS, "outputs sum[0] cout c\u0661\n")),
     "OutputName(carries[0] is c\u0661)", None),
    ("carry-zero-padded", _edit(("n3", "c01"), (_OUTS, "outputs sum[0] cout c01\n")),
     "OutputName(carries[0] is c01)", None),
    ("carry-5000-digits",
     _edit(("n3", "c" + "1" * 5000), (_OUTS, f"outputs sum[0] cout c{'1' * 5000}\n")),
     f"OutputName(carries[0] is c{'1' * 5000})", None),
    ("carry-order", _edit((_OUTS, "outputs sum[0] cout c0\n")),
     "output net 'c0' is never driven", 7),
    ("carry-undriven", _edit((_OUTS, "outputs sum[0] cout c1\n")),
     "output net 'c1' is never driven", 7),
    ("carry-width", _edit(("n3", "c1"), (_OUTS, "outputs sum[0] cout c1\n")),
     "OutputName(carries[0] is c1)", None),
    ("gate-line-cr", _edit(("-> n2\n", "-> n2\r\n")),
     "bad gate line 'g2 AND2 a[0] b[0] -> n2\\r'", 4),
    ("gate-line-trailing-space", _edit(("-> n2\n", "-> n2 \n")),
     "bad gate line 'g2 AND2 a[0] b[0] -> n2 '", 4),
    ("gate-line-tab-in-output", _edit(("-> n2\n", "-> n\t2\n")),
     "bad gate line 'g2 AND2 a[0] b[0] -> n\\t2'", 4),
    ("gate-line-nbsp-after-kind", _edit(("g2 AND2 ", "g2 AND2\xa0")),
     "bad gate line 'g2 AND2\\xa0a[0] b[0] -> n2'", 4),
    ("gate-line-no-arrow", _edit(("b[0] -> n2", "b[0] n2")),
     "bad gate line 'g2 AND2 a[0] b[0] n2'", 4),
    ("arity-double-space", _edit(("AND2 a[0] b[0] ->", "AND2 a[0]  b[0] ->")),
     "AND2 takes 2 inputs, got 3", 4),
    ("arity-two-arrows", _edit(("AND2 a[0] b[0] ->", "AND2 a[0] -> b[0] ->")),
     "AND2 takes 2 inputs, got 3", 4),
    ("validate", _edit(("OR2 n2 n3", "OR2 n2 n0")), "DanglingNet(n3)", None),
]


@pytest.mark.parametrize(
    "text, message, line", [c[1:] for c in _PARSE_ERRORS], ids=[c[0] for c in _PARSE_ERRORS]
)
def test_parse_error_messages_and_lines(text, message, line):
    with pytest.raises(ParseError) as exc:
        from_text(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def test_parse_accepts_a_net_named_arrow():
    nl = from_text(_edit(("b[0] -> n2", "b[0] -> ->"), ("OR2 n2 n3", "OR2 -> n3")))
    assert nl.nets[nl.gates[4].inputs[0]] == "->"


def test_parse_accepts_carry_outputs_in_ascending_order():
    nl = from_text(to_text(compose("scbcla:2,rca:1")))
    assert [nl.nets[n] for n in nl.carries] == ["c2"]


@pytest.mark.parametrize("name", ["c2", "c7"])
def test_parse_rejects_carry_outputs_at_or_beyond_the_width(name):
    text = to_text(compose("ccla:2"))
    assert text.endswith(" cout c1\n")
    with pytest.raises(ParseError) as exc:
        from_text(text.replace(" c1", f" {name}"))
    assert str(exc.value) == f"OutputName(carries[0] is {name})" and exc.value.line is None


# characters that sit near the edges of the gate-line grammar
_EDIT_CHARS = " \t\r\xa0\x1c->g0123456789n[]abcoutsAND2OR3INV\u0661"


@st.composite
def one_line_edits(draw):
    """A random architecture's netlist, and its text with one line deleted,
    swapped or duplicated, one character inserted or deleted, or one gate
    input changed to another net defined above it (a header or outputs
    line drawn for that loses a character instead)."""
    nl = compose(random_arch_string(draw(st.randoms(use_true_random=False)), 1, 8))
    lines = to_text(nl).splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["delete", "swap", "duplicate", "insert", "remove", "reread"]))
    if edit == "reread" and 0 < i < len(lines) - 1:  # a gate line: g<k> KIND ins... -> out
        parts = lines[i].split(" ")
        above = nl.nets[: nl.offset + i - 1]
        parts[draw(st.integers(2, len(parts) - 3))] = draw(st.sampled_from(above))
        lines[i] = " ".join(parts)
    elif edit == "delete":
        del lines[i]
    elif edit == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "insert":
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(_EDIT_CHARS)) + lines[i][at:]
    else:
        at = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:at] + lines[i][at + 1 :]
    return nl, "".join(lines)


@settings(max_examples=300, deadline=None)
@given(one_line_edits())
def test_parsed_netlists_and_one_line_edits_pass_validate(case):
    # validate a dataclasses.replace copy: topo_order trusts what from_text returns
    nl, edited = case
    again = from_text(to_text(nl))
    assert again == nl and validate(dataclasses.replace(again)) == []
    try:
        parsed = from_text(edited)
    except ParseError:
        return
    assert validate(dataclasses.replace(parsed)) == []


def _text_unguarded(nl):
    """The text ``to_text`` writes for ``nl`` with its ``topo_order`` guard off."""
    with mock.patch.object(adderlab.netio, "topo_order", lambda nl: None):
        return to_text(nl)


@st.composite
def renamed_netlists(draw):
    """A small built netlist with one to three nets, inputs too, renamed: to
    a name of ODD_NAMES, to another net's name or to a short drawn text."""
    nl = compose(draw(st.sampled_from(["rca:1", "rca:2", "ccla:2", "scbcla:3", "rca:1,ccla:2"])))
    nets = list(nl.nets)
    names = st.sampled_from(ODD_NAMES + nets) | st.text(" \t\n\r\x85\xa0->[]acnosu01", max_size=3)
    for _ in range(draw(st.integers(1, 3))):
        nets[draw(st.integers(0, len(nets) - 1))] = draw(names)
    return dataclasses.replace(nl, nets=tuple(nets))


@settings(max_examples=400, deadline=None)
@given(renamed_netlists())
def test_a_netlist_reads_back_as_itself_exactly_when_validate_accepts_it(nl):
    try:
        again = from_text(_text_unguarded(nl))
    except ParseError:
        again = None
    assert (validate(nl) == []) == (again == nl)
    if again == nl:
        assert from_text(to_text(nl)) == nl
    else:
        with pytest.raises(InvalidNetlist):
            to_text(nl)


# ODD_NAMES given to the net of g0 in rca:2 (net 5, named n0): what validate reports
_RENAMED_G0 = {
    "n 0": "NetName(net 5 is 'n 0')",
    "": "NetName(net 5 is '')",
    "n\t0": "NetName(net 5 is 'n\\t0')",
    "n\n0": "NetName(net 5 is 'n\\n0')",
    "a[0]": "DuplicateName(a[0] names nets 0 and 5)",
    "sum[1]": "DuplicateName(sum[1] names nets 5 and 11)",
    "cout": "DuplicateName(cout names nets 5 and 14)",
    "->": None,
    "outputs": None,
    "p": None,
    "x": None,
}


@pytest.mark.parametrize("name", ODD_NAMES)
def test_a_renamed_gate_net_is_refused_by_validate_or_round_trips(name):
    nl = compose("rca:2")
    assert nl.nets[5] == "n0"
    renamed = dataclasses.replace(nl, nets=nl.nets[:5] + (name,) + nl.nets[6:])
    want = _RENAMED_G0[name]
    assert list(map(str, validate(renamed))) == ([want] if want else [])
    if want:
        with pytest.raises(ParseError):
            from_text(_text_unguarded(renamed))
    else:
        assert from_text(to_text(renamed)) == renamed


def test_a_renamed_input_is_refused():
    nl = compose("rca:2")
    renamed = dataclasses.replace(nl, nets=("x",) + nl.nets[1:])
    assert list(map(str, validate(renamed))) == ["InputName(a[0] is x)"]
    with pytest.raises(ParseError, match="input net 'x' is not defined yet"):
        from_text(_text_unguarded(renamed))


def test_file_round_trip(tmp_path):
    nl = compose(PRESETS["design3"])
    path = tmp_path / "d3.net"
    write_text(nl, str(path))
    assert to_text(read_text(str(path))) == to_text(nl)
    assert path.read_bytes().endswith(b"\n")


def test_read_text_takes_crlf_line_ends(tmp_path):
    text = to_text(compose(PRESETS["design5"]))
    path = tmp_path / "d5_crlf.net"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert to_text(read_text(str(path))) == text


# ---------------------------------------------------------------------------
# verilog


def test_verilog_header_and_ports():
    text = to_verilog(compose("scbcla:2,rca:1"), "adder3")
    assert text.startswith("module adder3 (a, b, cin, sum, cout, c2);")
    assert "input [2:0] a;" in text
    assert "output [2:0] sum;" in text
    assert "output c2;" in text
    assert text.rstrip().endswith("endmodule")


def test_verilog_one_primitive_per_gate():
    nl = compose(PRESETS["design2"])
    text = to_verilog(nl)
    assert text.startswith("module adder (")
    for k in range(len(nl.gates)):
        assert f" g{k} (" in text
    prim_lines = [l for l in text.splitlines() if l.lstrip().startswith(("and ", "or ", "xor ", "not "))]
    assert len(prim_lines) == len(nl.gates)
    ports = set(range(nl.offset)) | set(nl.primary_outputs())
    wires = [l.strip() for l in text.splitlines() if l.lstrip().startswith("wire ")]
    assert wires == [f"wire {name};" for nid, name in enumerate(nl.nets) if nid not in ports]


def test_verilog_output_first_operand_order():
    text = to_verilog(compose("rca:1"))
    assert "xor g0 (n0, a[0], b[0]);" in text
    assert "or g4 (cout, n2, n3);" in text


def test_verilog_is_deterministic():
    nl = compose(PRESETS["design6"])
    assert to_verilog(nl) == to_verilog(nl)



@pytest.mark.parametrize("module", ["module", "endmodule", "wire", "xor"])
def test_verilog_rejects_a_reserved_module_name(module):
    with pytest.raises(ParseError, match=f"module name '{module}' is not a"):
        to_verilog(compose("rca:1"), module)


def _full_adder_with_wire(name):
    """The full adder with its first internal net renamed; the parser takes any name."""
    return from_text(FULL_ADDER_TEXT.replace("n0", name))


@pytest.mark.parametrize("wire", ["wire", "1g", "t.x", "a", "sum", "g3"])
def test_verilog_rejects_a_wire_name_that_is_not_free(wire):
    with pytest.raises(ParseError, match=re.escape(f"wire name {wire!r} is not a")):
        to_verilog(_full_adder_with_wire(wire))


def test_verilog_keeps_a_free_wire_name():
    text = to_verilog(_full_adder_with_wire("t_x$1"))
    assert text == FULL_ADDER_VERILOG.replace("n0", "t_x$1")


# A reader for the subset to_verilog writes, so the module can be checked
# as the same gate graph: one declaration or primitive instance per line.
_MODULE_RE = re.compile(r"module \w+ \(a, b, cin, sum, (.+)\);")
_VECTOR_RE = re.compile(r"  (input|output) \[(\d+):0\] (a|b|sum);")
_SCALAR_RE = re.compile(r"  (input|output|wire) (\S+);")
_INSTANCE_RE = re.compile(r"  (and|or|xor|not) g(\d+) \((.+)\);")
_KIND_OF = {(kind.primitive, kind.arity): kind for kind in CellKind}


def read_verilog(text):
    """The Netlist a module written by ``to_verilog`` describes. Asserts the
    line shapes, one width for the vectors, that g<k> is the k-th instance,
    and that each net is declared, driven once and driven before it is read."""
    lines = text.split("\n")
    assert lines[-2:] == ["endmodule", ""]
    scalar_outs = _MODULE_RE.fullmatch(lines[0])[1].split(", ")
    vectors, widths, scalars, wires, instances = set(), set(), set(), [], []
    for line in lines[1:-2]:
        if m := _VECTOR_RE.fullmatch(line):
            vectors.add((m[1], m[3]))
            widths.add(int(m[2]) + 1)
        elif m := _SCALAR_RE.fullmatch(line):
            (wires.append if m[1] == "wire" else scalars.add)((m[1], m[2]))
        elif m := _INSTANCE_RE.fullmatch(line):
            assert int(m[2]) == len(instances)
            instances.append((m[1], m[3].split(", ")))
        else:
            assert line == ""
    (width,) = widths
    assert vectors == {("input", "a"), ("input", "b"), ("output", "sum")}
    assert scalars == {("input", "cin")} | {("output", name) for name in scalar_outs}
    outputs = {f"sum[{i}]" for i in range(width)} | set(scalar_outs)
    by_name = {name: nid for nid, name in enumerate(input_names(width))}
    gates, internal = [], []
    for primitive, (out, *ins) in instances:
        assert out not in by_name
        if out not in outputs:
            internal.append(("wire", out))
        gates.append(Gate(_KIND_OF[primitive, len(ins)], tuple(by_name[name] for name in ins)))
        by_name[out] = len(by_name)
    assert internal == wires
    return Netlist(
        width=width,
        nets=tuple(by_name),
        gates=tuple(gates),
        sums=tuple(by_name[f"sum[{i}]"] for i in range(width)),
        cout=by_name[scalar_outs[0]],
        carries=tuple(by_name[name] for name in scalar_outs[1:]),
    )


def _check_verilog_reads_back(nl):
    again = read_verilog(to_verilog(nl))
    assert again == nl
    if again.width <= 12:
        assert verify_exhaustive_netlist(again) is None
    else:
        assert verify_random(again, count=256, seed=1) is None


# the full adder with cout = ~(~g & ~t) through three INV gates, nets freely named
INV_FULL_ADDER_TEXT = "\n".join([
    "width 1",
    "g0 XOR2 a[0] b[0] -> p",
    "g1 XOR2 p cin -> sum[0]",
    "g2 AND2 a[0] b[0] -> g",
    "g3 AND2 p cin -> t",
    "g4 INV g -> ng",
    "g5 INV t -> nt",
    "g6 AND2 ng nt -> n",
    "g7 INV n -> cout",
    "outputs sum[0] cout",
    "",
])


@pytest.mark.parametrize("spec", [*PRESETS.values(), "scbcla:4x256"])
def test_verilog_reads_back_as_the_same_adder(spec):
    _check_verilog_reads_back(compose(spec))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_verilog_of_random_architectures_reads_back(rng):
    _check_verilog_reads_back(compose(random_arch_string(rng, 1, 8)))


def test_verilog_of_a_parsed_file_with_free_names_reads_back():
    nl = from_text(INV_FULL_ADDER_TEXT)
    assert {"p", "g", "t", "ng", "nt", "n"} <= set(nl.nets)
    _check_verilog_reads_back(nl)
