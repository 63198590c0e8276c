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

from .errors import InvalidNetlist, ParseError, parse_int
from .netlist import CellKind, Gate, Netlist, _sealed, input_names, topo_order

# ---------------------------------------------------------------------------
# Native text format
# ---------------------------------------------------------------------------


def to_text(nl: Netlist) -> str:
    topo_order(nl)
    names = nl.nets
    lines = [f"width {nl.width}"]
    for k, (g, out) in enumerate(zip(nl.gates, names[nl.offset :])):
        ins = " ".join([names[nid] for nid in g.inputs])
        lines.append(f"g{k} {g.kind.value} {ins} -> {out}")
    outs = [names[nid] for nid in nl.primary_outputs()]
    lines.append("outputs " + " ".join(outs))
    return "\n".join(lines) + "\n"


# numbers are ASCII decimals as to_text writes them: no other digits and no
# leading zero (a gate id is compared with g<k> as text)
_WIDTH_RE = re.compile("^width (0|[1-9][0-9]*)$")
_KINDS = {kind.value: kind for kind in CellKind}


def from_text(text: str) -> Netlist:
    """The netlist ``text`` holds. What one line shows is a ParseError with
    its line number; then ``validate``'s violations make one with none."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty netlist file", line=1)

    m = _WIDTH_RE.match(lines[0])
    if not m:
        raise ParseError(f"expected 'width <N>', got {lines[0]!r}", line=1)
    width = parse_int(m.group(1), "width", line=1)
    if width < 1:
        raise ParseError("width must be >= 1", line=1)
    if len(lines) < width + 3:  # header, outputs and one gate per sum[i] and cout
        raise ParseError(f"width {width} needs {width + 3} lines or more, got {len(lines)}", line=1)

    by_name = {name: nid for nid, name in enumerate(input_names(width))}  # in id order
    gates: list[Gate] = []
    for lineno, line in enumerate(lines[1:], start=2):
        gid = f"g{lineno - 2}"
        try:  # g<digits> <kind> <inputs> -> <output>, split on single spaces
            tag, kind_name, *ins, arrow, out_name = line.split(" ")
            if (
                ((kind := _KINDS.get(kind_name)) is None and kind_name.split() != [kind_name])
                or arrow != "->"
                or ins in ([], [""])  # no input text
                or (tag != gid and not (tag[:1] == "g" and tag[1:].isdecimal()))
                or out_name.split() != [out_name]  # empty or holds whitespace
            ):
                raise ValueError
        except ValueError:  # also fewer than four parts; an outputs line always lands here
            if not line.startswith("outputs "):
                raise ParseError(f"bad gate line {line!r}", line=lineno) from None
            if lineno != len(lines):
                raise ParseError("content after outputs line", line=lineno + 1) from None
            break
        if tag != gid:
            raise ParseError(f"gate ids must be sequential, expected {gid}", line=lineno)
        if kind is None:
            raise ParseError(f"unknown cell kind {kind_name!r}", line=lineno)
        if len(ins) != kind.arity:
            raise ParseError(f"{kind_name} takes {kind.arity} inputs, got {len(ins)}", line=lineno)
        ids = tuple(map(by_name.get, ins))
        if None in ids:
            raise ParseError(f"input net {ins[ids.index(None)]!r} is not defined yet", line=lineno)
        if out_name in by_name:
            raise ParseError(f"net {out_name!r} already defined", line=lineno)
        by_name[out_name] = len(by_name)
        gates.append(tuple.__new__(Gate, (kind, ids)))  # one C call, see NetlistBuilder.place
    else:
        raise ParseError("missing outputs line", line=len(lines) + 1)

    tokens = line.split(" ")[1:]
    if len(tokens) < width + 1:
        raise ParseError(f"outputs line needs at least {width + 1} names", line=lineno)
    outputs = tuple(map(by_name.get, tokens))
    if None in outputs:
        raise ParseError(f"output net {tokens[outputs.index(None)]!r} is never driven", line=lineno)
    sums, cout, carries = outputs[:width], outputs[width], outputs[width + 1 :]
    try:
        return _sealed(Netlist(width, tuple(by_name), tuple(gates), sums, cout, carries))
    except InvalidNetlist as exc:
        raise ParseError(str(exc)) from None


def write_text(nl: Netlist, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_text(nl))


def read_utf8(path: str) -> str:
    """A file's text with newlines read as LF; ParseError if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def read_text(path: str) -> Netlist:
    return from_text(read_utf8(path))


# ---------------------------------------------------------------------------
# Structural Verilog
# ---------------------------------------------------------------------------


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
# the reserved words of IEEE 1364-2005, Annex B
_RESERVED = frozenset("""always and assign automatic begin buf bufif0 bufif1 case casex casez cell
    cmos config deassign default defparam design disable edge else end endcase endconfig endfunction
    endgenerate endmodule endprimitive endspecify endtable endtask event for force forever fork
    function generate genvar highz0 highz1 if ifnone incdir include initial inout input instance
    integer join large liblist library localparam macromodule medium module nand negedge nmos nor
    noshowcancelled not notif0 notif1 or output parameter pmos posedge primitive pull0 pull1
    pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos real realtime reg release repeat
    rnmos rpmos rtran rtranif0 rtranif1 scalared showcancelled signed small specify specparam
    strong0 strong1 supply0 supply1 table task time tran tranif0 tranif1 tri tri0 tri1 triand trior
    trireg unsigned use uwire vectored wait wand weak0 weak1 while wire wor xnor xor""".split())


def _check_name(name: str, what: str, taken: frozenset[str] = frozenset()) -> None:
    """ParseError unless ``name`` is a simple identifier, not reserved and not ``taken``."""
    if not _IDENT_RE.fullmatch(name) or name in _RESERVED or name in taken:
        raise ParseError(f"{what} {name!r} is not a Verilog identifier, or is reserved or taken")


def to_verilog(nl: Netlist, module_name: str = "adder") -> str:
    """Structural module built from and/or/xor/not primitives.

    Net names map directly: a, b and sum become vectors, everything
    else stays scalar, and each gate becomes one primitive instance
    named after its gate id. Raises ParseError when the module or a wire
    name is not a simple identifier, is reserved, or names a port or gate.
    """
    _check_name(module_name, "module name")
    topo_order(nl)
    w = nl.width
    names = nl.nets
    scalar_outs = ["cout"] + [names[nid] for nid in nl.carries]
    ports = ["a", "b", "cin", "sum"] + scalar_outs
    named = set(range(nl.offset)) | set(nl.primary_outputs())
    taken = frozenset(ports).union(map("g{}".format, range(len(nl.gates))))

    lines = [f"module {module_name} ({', '.join(ports)});"]
    lines.append(f"  input [{w - 1}:0] a;")
    lines.append(f"  input [{w - 1}:0] b;")
    lines.append("  input cin;")
    lines.append(f"  output [{w - 1}:0] sum;")
    for name in scalar_outs:
        lines.append(f"  output {name};")
    for nid, name in enumerate(names):
        if nid not in named:
            _check_name(name, "wire name", taken)
            lines.append(f"  wire {name};")
    lines.append("")
    for k, (g, out) in enumerate(zip(nl.gates, names[nl.offset :])):
        args = ", ".join([out] + [names[nid] for nid in g.inputs])
        lines.append(f"  {g.kind.primitive} g{k} ({args});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
