"""Netlist text format round-trips and the structural verilog emitter."""

import pytest

from adderlab import PRESETS, compose, from_text, read_text, to_text, to_verilog, write_text
from adderlab.errors import InvalidWidth, ParseError

FULL_ADDER_TEXT = (
    "width 1\n"
    "g0 XOR2 a[0] b[0] -> n0\n"
    "g1 XOR2 n0 cin -> sum[0]\n"
    "g2 AND2 a[0] b[0] -> n2\n"
    "g3 AND2 n0 cin -> n3\n"
    "g4 OR2 n2 n3 -> cout\n"
    "outputs sum[0] cout\n"
)


def test_full_adder_text_frozen():
    assert to_text(compose("rca:1")) == FULL_ADDER_TEXT


def test_round_trip_is_byte_identical_for_every_preset():
    for name, spec in PRESETS.items():
        text = to_text(compose(spec))
        again = from_text(text)
        assert to_text(again) == text, name


def test_round_trip_preserves_structure():
    nl = compose("rca:2,scbcla:3x2")
    again = from_text(to_text(nl))
    assert again.width == nl.width
    assert [(g.kind, g.inputs, g.output) for g in again.gates] == [
        (g.kind, g.inputs, g.output) for g in nl.gates
    ]
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


def test_parse_accepts_carry_outputs_in_ascending_order():
    nl = from_text(to_text(compose("scbcla:2,rca:1")))
    assert [nl.net_name(n) for n in nl.carries] == ["c2"]


@pytest.mark.parametrize("name", ["c2", "c7"])
def test_parse_rejects_carry_outputs_at_or_beyond_the_width(name):
    text = to_text(compose("ccla:2"))
    assert text.endswith(" cout c1\n")
    with pytest.raises(ParseError, match=f"'{name}' is not below the width 2") as exc:
        from_text(text.replace(" c1", f" {name}"))
    assert exc.value.line == len(text.splitlines())


def test_file_round_trip(tmp_path):
    nl = compose(PRESETS["design3"])
    path = tmp_path / "d3.net"
    write_text(nl, str(path))
    assert to_text(read_text(str(path))) == to_text(nl)
    assert path.read_bytes().endswith(b"\n")


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
    for g in nl.gates:
        assert f" g{g.id} (" in text
    prim_lines = [l for l in text.splitlines() if l.lstrip().startswith(("and ", "or ", "xor ", "not "))]
    assert len(prim_lines) == len(nl.gates)


def test_verilog_output_first_operand_order():
    text = to_verilog(compose("rca:1"))
    assert "xor g0 (n0, a[0], b[0]);" in text
    assert "or g4 (cout, n2, n3);" in text


def test_verilog_is_deterministic():
    nl = compose(PRESETS["design6"])
    assert to_verilog(nl) == to_verilog(nl)
