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
from .netlist import CellKind, Gate, Netlist, input_names, validate

# ---------------------------------------------------------------------------
# Native text format
# ---------------------------------------------------------------------------


def to_text(nl: Netlist) -> str:
    names = nl.nets
    lines = [f"width {nl.width}"]
    for k, (g, out) in enumerate(zip(nl.gates, names[nl.offset :])):
        ins = " ".join([names[nid] for nid in g.inputs])
        lines.append(f"g{k} {g.kind.value} {ins} -> {out}")
    outs = [names[nid] for nid in nl.primary_outputs()]
    lines.append("outputs " + " ".join(outs))
    return "\n".join(lines) + "\n"


# numbers are ASCII decimals as to_text writes them: no other digits and no
# leading zero (a gate id is compared with str(k) as text)
_DECIMAL = "(0|[1-9][0-9]*)"
_WIDTH_RE = re.compile(f"^width {_DECIMAL}$")
_GATE_RE = re.compile(r"^g(\d+) (\S+) (.+) -> (\S+)$")
_CARRY_RE = re.compile(f"^c{_DECIMAL}$")
_KINDS = {kind.value: kind for kind in CellKind}


def from_text(text: str) -> Netlist:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty netlist file", line=1)

    m = _WIDTH_RE.match(lines[0])
    if not m:
        raise ParseError(f"expected 'width <N>', got {lines[0]!r}", line=1)
    width = int(m.group(1))
    if width < 1:
        raise ParseError("width must be >= 1", line=1)
    if len(lines) < width + 3:  # header, outputs and one gate per sum[i] and cout
        raise ParseError(f"width {width} needs {width + 3} lines or more, got {len(lines)}", line=1)

    names = input_names(width)
    by_name = {name: nid for nid, name in enumerate(names)}

    gates: list[Gate] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("outputs "):
            if lineno != len(lines):
                raise ParseError("content after outputs line", line=lineno + 1)
            break
        m = _GATE_RE.match(line)
        if not m:
            raise ParseError(f"bad gate line {line!r}", line=lineno)
        gid, kind_name, in_text, out_name = m.groups()
        if gid != str(len(gates)):
            raise ParseError(f"gate ids must be sequential, expected g{len(gates)}", line=lineno)
        if kind_name not in _KINDS:
            raise ParseError(f"unknown cell kind {kind_name!r}", line=lineno)
        kind = _KINDS[kind_name]
        need = kind.arity
        in_names = in_text.split(" ")
        if len(in_names) != need:
            raise ParseError(f"{kind_name} takes {need} inputs, got {len(in_names)}", line=lineno)
        try:
            ins = tuple(map(by_name.__getitem__, in_names))
        except KeyError as exc:
            raise ParseError(f"input net {exc.args[0]!r} is not defined yet", line=lineno) from None
        if out_name in by_name:
            raise ParseError(f"net {out_name!r} already defined", line=lineno)
        by_name[out_name] = len(names)
        gates.append(tuple.__new__(Gate, (kind, ins)))  # one C call, see NetlistBuilder.place
        names.append(out_name)
    else:
        raise ParseError("missing outputs line", line=len(lines) + 1)

    tokens = line.split(" ")[1:]
    if len(tokens) < width + 1:
        raise ParseError(f"outputs line needs at least {width + 1} names", line=lineno)
    ports = [f"sum[{i}]" for i in range(width)] + ["cout"]
    for i, want in enumerate(ports):
        if tokens[i] != want:
            where = "after the sum outputs" if want == "cout" else f"at position {i}"
            raise ParseError(f"expected {want!r} {where}", line=lineno)
        if want not in by_name:
            raise ParseError(f"output net {want!r} is never driven", line=lineno)
    *sums, cout = map(by_name.__getitem__, ports)
    carries = []
    last_k = 0
    for tok in tokens[width + 1 :]:
        m = _CARRY_RE.match(tok)
        if not m:
            raise ParseError(f"bad carry output name {tok!r}", line=lineno)
        k = int(m.group(1))
        if k <= last_k:
            raise ParseError("carry outputs must have ascending indices", line=lineno)
        last_k = k
        if tok not in by_name:
            raise ParseError(f"output net {tok!r} is never driven", line=lineno)
        if k >= width:
            raise ParseError(
                f"carry output {tok!r} is not below the width {width}", line=lineno
            )
        carries.append(by_name[tok])

    nl = Netlist(
        width=width,
        nets=tuple(names),
        gates=tuple(gates),
        sums=tuple(sums),
        cout=cout,
        carries=tuple(carries),
    )
    problems = validate(nl)
    if problems:
        raise ParseError("; ".join(str(p) for p in problems))
    return nl


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
