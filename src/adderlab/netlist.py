"""Immutable gate-level netlist model.

A netlist is a DAG of single-output gates drawn from a fixed primitive
set (INV, AND2-4, OR2-4, XOR2). A net's id is its position in the
net-name table and a gate's id is its position in the gate list. The
table is positional: the first 2w+1 nets are the primary inputs
a[0..w), b[0..w) and cin, then gate k drives net 2w+1+k. Gate k reads
only nets below its own, so the gate list is its evaluation order. The
primary outputs are sum[0..w), cout, plus any exposed lookahead-carry
nets (named c<k> for the carry into bit k).

Construction goes through :class:`NetlistBuilder`, which is append-only.
``finish`` assigns the canonical output names, validates the structure
and returns a frozen :class:`Netlist` that is safe to share between
threads.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Sequence

from .errors import (
    ArityMismatch,
    DanglingInput,
    InvalidNetlist,
    InvalidWidth,
)

# ---------------------------------------------------------------------------
# Primitive cells
# ---------------------------------------------------------------------------


class CellKind(Enum):
    """The fixed primitive gate alphabet. Each kind carries the Verilog
    ``primitive`` it emits as and its ``arity``, e.g. AND3 is and/3."""

    INV = "INV", "not", 1
    AND2 = "AND2", "and", 2
    AND3 = "AND3", "and", 3
    AND4 = "AND4", "and", 4
    OR2 = "OR2", "or", 2
    OR3 = "OR3", "or", 3
    OR4 = "OR4", "or", 4
    XOR2 = "XOR2", "xor", 2

    def __new__(cls, name: str, primitive: str, arity: int):
        kind = object.__new__(cls)
        kind._value_, kind.primitive, kind.arity = name, primitive, arity
        return kind

    # Members are singletons, so identity hashing agrees with Enum's
    # identity equality; Enum's own __hash__ runs Python code per lookup.
    __hash__ = object.__hash__


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------


class Gate(NamedTuple):
    """One primitive instance: its kind and ordered input net ids. Gate k
    of a netlist drives net ``Netlist.offset + k``."""

    kind: CellKind
    inputs: tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    """One structural rule broken by a netlist, e.g. UndrivenOutput(sum[3])."""

    kind: str
    subject: str

    def __str__(self) -> str:
        return f"{self.kind}({self.subject})"


@dataclass(frozen=True)
class Netlist:
    """A frozen gate-level adder netlist.

    ``nets`` holds the net names; gate k is ``kinds[k]`` reading net ids ``inputs[k]``.
    The primary inputs ``a``, ``b`` and ``cin`` are the first ``offset`` nets (see
    :func:`input_layout`) and gate k drives net ``offset + k``. ``sums``, ``cout``
    and ``carries`` hold primary-output net ids. ``carries`` lists exposed lookahead
    carries in ascending bit order (their names encode the global carry index,
    c<k> = carry into bit k).
    """

    width: int
    nets: tuple[str, ...]
    kinds: tuple[CellKind, ...]
    inputs: tuple[tuple[int, ...], ...]
    sums: tuple[int, ...]
    cout: int
    carries: tuple[int, ...] = ()

    # -- derived views -----------------------------------------------------

    @property
    def gates(self) -> tuple[Gate, ...]:
        """Gate k as ``Gate(kinds[k], inputs[k])``, built in C on each call: kept, a Gate
        holds a CellKind and stays tracked by the collector; a tuple of ints does not."""
        return tuple(map(tuple.__new__, repeat(Gate), zip(self.kinds, self.inputs)))

    @property
    def offset(self) -> int:
        """Id of the net gate 0 drives: the number of primary inputs."""
        return 2 * self.width + 1

    @property
    def a(self) -> tuple[int, ...]:
        return input_layout(self.width)[0]

    @property
    def b(self) -> tuple[int, ...]:
        return input_layout(self.width)[1]

    @property
    def cin(self) -> int:
        return input_layout(self.width)[2]

    def primary_outputs(self) -> tuple[int, ...]:
        return self.sums + (self.cout,) + self.carries


def input_layout(width: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Ids of the primary inputs, which every netlist lists first: a[i] is
    net i, b[i] is net width+i and cin is net 2*width."""
    return tuple(range(width)), tuple(range(width, 2 * width)), 2 * width


@functools.lru_cache(maxsize=4)
def input_names(width: int) -> tuple[str, ...]:
    """Names of the primary-input nets in id order; every netlist of one
    width shares these strings, which makes comparing them cheap."""
    return (*[f"a[{i}]" for i in range(width)], *[f"b[{i}]" for i in range(width)], "cin")


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


class NetlistBuilder:
    """Append-only netlist constructor.

    Gate ids are assigned sequentially and gate k drives the fresh
    internal net 2w+1+k, which ``finish`` names n<k>. ``finish`` names
    the chosen output nets canonically, validates (so a placed gate
    that reads a later net is refused) and freezes the result.
    """

    def __init__(self, width: int):
        if not isinstance(width, numbers.Integral) or width < 1:
            raise InvalidWidth(f"adder width must be a positive integer, got {width!r}")
        self.width = int(width)
        self.a, self.b, self.cin = input_layout(self.width)
        self.kinds, self.inputs = [], []  # the gate columns, as Netlist holds them

    def add_gate(self, kind: CellKind, inputs: list[int] | tuple[int, ...]) -> int:
        """Append a gate reading ``inputs``, return its fresh output net id."""
        n = len(inputs)
        if n != kind.arity:
            raise ArityMismatch(f"{kind.value} takes {kind.arity} inputs, got {n}")
        return self.place((kind,), ((0, n),), range(n), inputs)[-1]

    def place(
        self,
        kinds: Sequence[CellKind],
        spans: Sequence[tuple[int, int]],
        reads: Sequence[int],
        inputs: list[int] | tuple[int, ...],
    ) -> list[int]:
        """Append gate j of kind ``kinds[j]`` reading local ids ``reads[start:stop]`` of span
        ``spans[j]``: id i < len(inputs) is net ``inputs[i]``, then gate j drives the next free
        net. Return the global id of every local id; a ``generate.Template`` has this shape."""
        nnets = 2 * self.width + 1 + len(self.kinds)
        if min(inputs) < 0 or max(inputs) >= nnets:
            bad = next(nid for nid in inputs if not 0 <= nid < nnets)
            raise DanglingInput(f"no net with id {bad}")
        ids = [*inputs, *range(nnets, nnets + len(kinds))]
        flat = tuple([ids[i] for i in reads])
        self.kinds += kinds
        self.inputs += [flat[at:stop] for at, stop in spans]
        return ids

    def finish(
        self,
        sums: list[int] | tuple[int, ...],
        cout: int,
        carries: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
    ) -> Netlist:
        """Name outputs and freeze.

        ``sums`` gives the net driving each sum bit (LSB first), ``cout``
        the carry-out net, and ``carries`` pairs of (global carry index,
        net id) for lookahead carries to expose as c<k> outputs; ``validate``
        refuses a c<k> outside 1..width-1 or given twice as an OutputName.
        """
        carries = tuple(sorted(carries))
        nets = [*input_names(self.width), *[f"n{k}" for k in range(len(self.kinds))]]
        named = [(nid, f"sum[{i}]") for i, nid in enumerate(sums)] + [(cout, "cout")]
        named += [(nid, f"c{k}") for k, nid in carries]
        for nid, name in named:  # the last name given to a net wins
            if 0 <= nid < len(nets):
                nets[nid] = name
        kinds, inputs = tuple(self.kinds), tuple(self.inputs)
        exposed = tuple(nid for _, nid in carries)
        return _sealed(Netlist(self.width, tuple(nets), kinds, inputs, tuple(sums), cout, exposed))


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def validate(nl: Netlist) -> list[Violation]:
    """Return all structural violations (empty list means the netlist is ok).

    The one rulebook: ``validate(nl) == []`` exactly when ``nl`` reads back from
    ``to_text(nl)`` as itself. Checks: a width of 1 or more (else only Width), one input
    tuple per kind (else only GateCount), one net per primary input and gate (else only
    NetCount), port ids inside the net table (else only a DanglingPort per bad port),
    one sum per bit, arity, dangling gate inputs, primary outputs driven by gates and
    distinct, the names (``_misnamed``), no dangling gate outputs, and last the gate
    order: the first read, in list order, of a gate's own net or a later gate's (every
    cycle holds such a read).
    """
    if nl.width < 1:
        return [Violation("Width", f"{nl.width} is below 1")]
    nnets, off, ngates = len(nl.nets), nl.offset, len(nl.kinds)
    if len(nl.inputs) != ngates:  # else zip would drop gates unseen
        return [Violation("GateCount", f"{ngates} kinds, {len(nl.inputs)} input tuples")]
    if nnets != off + ngates:
        return [Violation("NetCount", f"{nnets} nets for {ngates} gates at width {nl.width}")]
    bad = [(f"sum[{i}]", nid) for i, nid in enumerate(nl.sums) if not 0 <= nid < nnets]
    bad += [(f"carries[{i}]", nid) for i, nid in enumerate(nl.carries) if not 0 <= nid < nnets]
    if not 0 <= nl.cout < nnets:
        bad.append(("cout", nl.cout))
    if bad:
        return [Violation("DanglingPort", f"{port} is net {nid}") for port, nid in bad]
    out, order = [], None
    if len(nl.sums) != nl.width:
        out.append(Violation("SumCount", f"{len(nl.sums)} of {nl.width}"))
    read = bytearray(nnets)
    for own, kind, ins in zip(range(off, nnets), nl.kinds, nl.inputs):  # g<own - off> drives own
        if len(ins) != kind.arity:
            out.append(Violation("ArityMismatch", f"g{own - off} {kind.value}"))
        for nid in ins:
            if 0 <= nid < own:
                read[nid] = 1
            elif own <= nid < nnets:
                read[nid] = 1
                if order is None:
                    order = Violation("GateOrder", f"g{own - off} reads net {nid}")
            else:
                out.append(Violation("DanglingInput", f"g{own - off} reads net {nid}"))

    outs = nl.primary_outputs()
    for nid in outs:
        if nid < off:
            out.append(Violation("UndrivenOutput", nl.nets[nid]))
        read[nid] = 1
    if len(set(outs)) < len(outs):
        out.append(Violation("DuplicateOutput", "output nets must be distinct"))
    out += _misnamed(nl)
    if 0 in read[off:]:
        out.extend(
            Violation("DanglingNet", nl.nets[nid]) for nid in range(off, nnets) if not read[nid]
        )
    if order:
        out.append(order)
    return out


@functools.lru_cache(maxsize=4)
def _output_names(nsums: int, width: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The output names ``from_text`` reads: sum[0..nsums) and cout, and
    each carry name c<k> (0 < k < width, ASCII decimal) with its k."""
    sums = tuple([f"sum[{i}]" for i in range(nsums)]) + ("cout",)
    return sums, {f"c{k}": k for k in range(1, width)}


def _misnamed(nl: Netlist) -> list[Violation]:
    """An InputName per primary input not named as ``input_names`` gives;
    per net, a NetName if its name is empty or holds whitespace and a
    DuplicateName if an earlier net has it; an OutputName per output not
    named as ``from_text`` reads it (carries also in ascending k)."""
    nets, inputs = nl.nets, input_names(nl.width)
    names, carry_index = _output_names(len(nl.sums), nl.width)
    out = []
    if nets[: len(inputs)] != inputs:
        out += [Violation("InputName", f"{w} is {n}") for w, n in zip(inputs, nets) if n != w]
    unique, joined = set(nets), "".join(nets)
    if len(unique) < len(nets) or "" in unique or joined.split() != [joined]:  # a rule is broken
        first: dict[str, int] = {}
        for nid, name in enumerate(nets):
            if name.split() != [name]:
                out.append(Violation("NetName", f"net {nid} is {name!r}"))
            if first.setdefault(name, nid) != nid:
                out.append(Violation("DuplicateName", f"{name} names nets {first[name]} and {nid}"))
    ports = (*nl.sums, nl.cout)
    bad = [(want, nid) for want, nid in zip(names, ports) if nets[nid] != want]
    last = 0
    for i, nid in enumerate(nl.carries):
        k = carry_index.get(nets[nid], 0)
        if k > last:
            last = k
        else:
            bad.append((f"carries[{i}]", nid))
    return out + [Violation("OutputName", f"{port} is {nets[nid]}") for port, nid in bad]


def topo_order(nl: Netlist) -> None:
    """Raise InvalidNetlist with every violation ``validate`` reports, if any.

    Every entry point that reads nets by id calls this first, so none
    reads a netlist that ``validate`` refuses. The gate list is the
    evaluation order: gate k reads only primary inputs and the nets of
    gates below k. ``NetlistBuilder.finish`` and ``from_text`` return what
    ``_sealed`` marked, which this then trusts; any other Netlist, a
    ``dataclasses.replace`` copy too, is validated on every call.
    """
    if not getattr(nl, "_checked", False):
        problems = validate(nl)
        if problems:
            raise InvalidNetlist(problems)


def _sealed(nl: Netlist) -> Netlist:
    """``nl`` once ``topo_order`` passes it, marked so that later calls trust
    it; only for a Netlist of tuples that no caller holds yet."""
    topo_order(nl)
    object.__setattr__(nl, "_checked", True)
    return nl
