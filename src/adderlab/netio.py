"""Netlist text format and structural Verilog emission.

The native text format is line-oriented, LF-terminated, and round-trips
exactly (export, import, export again is byte-identical)::

    width <N>
    g<id> <KIND> <in_net> [<in_net> ...] -> <out_net>
    ...
    outputs sum[0] ... sum[N-1] cout [c<k> ...]

Gate lines appear in ascending id order and reference nets by name, so
the file is self-contained and diff-friendly. Inputs of a gate must be
primary inputs or outputs of earlier gates, which keeps parsed files
acyclic by construction.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .netlist import ARITY, CellKind, Gate, Net, Netlist, validate

# ---------------------------------------------------------------------------
# Native text format
# ---------------------------------------------------------------------------


def to_text(nl: Netlist) -> str:
    lines = [f"width {nl.width}"]
    for g in nl.gates:
        ins = " ".join(nl.net_name(nid) for nid in g.inputs)
        lines.append(f"g{g.id} {g.kind.value} {ins} -> {nl.net_name(g.output)}")
    outs = [nl.net_name(nid) for nid in nl.sums]
    outs.append(nl.net_name(nl.cout))
    outs.extend(nl.net_name(nid) for nid in nl.carries)
    lines.append("outputs " + " ".join(outs))
    return "\n".join(lines) + "\n"


_GATE_RE = re.compile(r"^g(\d+) (\S+) (.+) -> (\S+)$")
_CARRY_RE = re.compile(r"^c(\d+)$")


def from_text(text: str) -> Netlist:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty netlist file", line=1)

    m = re.match(r"^width (\d+)$", lines[0])
    if not m:
        raise ParseError(f"expected 'width <N>', got {lines[0]!r}", line=1)
    width = int(m.group(1))
    if width < 1:
        raise ParseError("width must be >= 1", line=1)

    nets: list[Net] = []
    by_name: dict[str, int] = {}

    def new_net(name: str) -> int:
        nid = len(nets)
        nets.append(Net(nid, name))
        by_name[name] = nid
        return nid

    a = tuple(new_net(f"a[{i}]") for i in range(width))
    b = tuple(new_net(f"b[{i}]") for i in range(width))
    cin = new_net("cin")

    gates: list[Gate] = []
    outputs_line: str | None = None
    outputs_lineno = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("outputs "):
            outputs_line = line
            outputs_lineno = lineno
            if lineno != len(lines):
                raise ParseError("content after outputs line", line=lineno + 1)
            break
        m = _GATE_RE.match(line)
        if not m:
            raise ParseError(f"bad gate line {line!r}", line=lineno)
        gid = int(m.group(1))
        if gid != len(gates):
            raise ParseError(f"gate ids must be sequential, expected g{len(gates)}", line=lineno)
        try:
            kind = CellKind(m.group(2))
        except ValueError:
            raise ParseError(f"unknown cell kind {m.group(2)!r}", line=lineno) from None
        in_names = m.group(3).split(" ")
        if len(in_names) != ARITY[kind]:
            raise ParseError(
                f"{kind.value} takes {ARITY[kind]} inputs, got {len(in_names)}", line=lineno
            )
        ins = []
        for name in in_names:
            if name not in by_name:
                raise ParseError(f"input net {name!r} is not defined yet", line=lineno)
            ins.append(by_name[name])
        out_name = m.group(4)
        if out_name in by_name:
            raise ParseError(f"net {out_name!r} already defined", line=lineno)
        out = new_net(out_name)
        gates.append(Gate(gid, kind, tuple(ins), out))

    if outputs_line is None:
        raise ParseError("missing outputs line", line=len(lines) + 1)

    tokens = outputs_line.split(" ")[1:]
    if len(tokens) < width + 1:
        raise ParseError(f"outputs line needs at least {width + 1} names", line=outputs_lineno)
    sums = []
    for i in range(width):
        want = f"sum[{i}]"
        if tokens[i] != want:
            raise ParseError(f"expected {want!r} at position {i}", line=outputs_lineno)
        if want not in by_name:
            raise ParseError(f"output net {want!r} is never driven", line=outputs_lineno)
        sums.append(by_name[want])
    if tokens[width] != "cout":
        raise ParseError("expected 'cout' after the sum outputs", line=outputs_lineno)
    if "cout" not in by_name:
        raise ParseError("output net 'cout' is never driven", line=outputs_lineno)
    carries = []
    last_k = 0
    for tok in tokens[width + 1 :]:
        m = _CARRY_RE.match(tok)
        if not m:
            raise ParseError(f"bad carry output name {tok!r}", line=outputs_lineno)
        k = int(m.group(1))
        if k <= last_k:
            raise ParseError("carry outputs must have ascending indices", line=outputs_lineno)
        last_k = k
        if tok not in by_name:
            raise ParseError(f"output net {tok!r} is never driven", line=outputs_lineno)
        if k >= width:
            raise ParseError(
                f"carry output {tok!r} is not below the width {width}", line=outputs_lineno
            )
        carries.append(by_name[tok])

    nl = Netlist(
        width=width,
        nets=tuple(nets),
        gates=tuple(gates),
        a=a,
        b=b,
        cin=cin,
        sums=tuple(sums),
        cout=by_name["cout"],
        carries=tuple(carries),
    )
    problems = validate(nl)
    if problems:
        raise ParseError("; ".join(str(p) for p in problems))
    return nl


def write_text(nl: Netlist, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_text(nl))


def read_text(path: str) -> Netlist:
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())


# ---------------------------------------------------------------------------
# Structural Verilog
# ---------------------------------------------------------------------------

_PRIMITIVE = {
    CellKind.INV: "not",
    CellKind.AND2: "and",
    CellKind.AND3: "and",
    CellKind.AND4: "and",
    CellKind.OR2: "or",
    CellKind.OR3: "or",
    CellKind.OR4: "or",
    CellKind.XOR2: "xor",
}


def to_verilog(nl: Netlist, module_name: str = "adder") -> str:
    """Structural module built from and/or/xor/not primitives.

    Net names map directly: a, b and sum become vectors, everything
    else stays scalar, and each gate becomes one primitive instance
    named after its gate id.
    """
    w = nl.width
    scalar_outs = ["cout"] + [nl.net_name(nid) for nid in nl.carries]
    ports = ["a", "b", "cin", "sum"] + scalar_outs
    named = set(nl.primary_inputs()) | set(nl.primary_outputs())

    lines = [f"module {module_name} ({', '.join(ports)});"]
    lines.append(f"  input [{w - 1}:0] a;")
    lines.append(f"  input [{w - 1}:0] b;")
    lines.append("  input cin;")
    lines.append(f"  output [{w - 1}:0] sum;")
    for name in scalar_outs:
        lines.append(f"  output {name};")
    for net in nl.nets:
        if net.id not in named:
            lines.append(f"  wire {net.name};")
    lines.append("")
    for g in nl.gates:
        prim = _PRIMITIVE[g.kind]
        args = ", ".join([nl.net_name(g.output)] + [nl.net_name(nid) for nid in g.inputs])
        lines.append(f"  {prim} g{g.id} ({args});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
