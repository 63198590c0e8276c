"""Immutable gate-level netlist model.

A netlist is a DAG of single-output gates drawn from a fixed primitive
set (INV, AND2-4, OR2-4, XOR2). A net's id is its position in the
net-name table and a gate's id is its position in the gate list; the
adder-shaped primary interface is fixed at construction time:
inputs a[0..w), b[0..w), cin and outputs sum[0..w), cout, plus any
exposed lookahead-carry nets (named c<k> for the carry into bit k).

Construction goes through :class:`NetlistBuilder`, which is append-only.
``finish`` assigns the canonical output names, validates the structure
and returns a frozen :class:`Netlist` that is safe to share between
threads.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (
    ArityMismatch,
    CycleDetected,
    DanglingInput,
    InvalidNetlist,
    InvalidWidth,
)

# ---------------------------------------------------------------------------
# Primitive cells
# ---------------------------------------------------------------------------


class CellKind(Enum):
    """The fixed primitive gate alphabet."""

    INV = "INV"
    AND2 = "AND2"
    AND3 = "AND3"
    AND4 = "AND4"
    OR2 = "OR2"
    OR3 = "OR3"
    OR4 = "OR4"
    XOR2 = "XOR2"

    # Members are singletons, so identity hashing agrees with Enum's
    # identity equality; Enum's own __hash__ runs Python code per lookup.
    __hash__ = object.__hash__


ARITY: dict[CellKind, int] = {
    CellKind.INV: 1,
    CellKind.AND2: 2,
    CellKind.AND3: 3,
    CellKind.AND4: 4,
    CellKind.OR2: 2,
    CellKind.OR3: 3,
    CellKind.OR4: 4,
    CellKind.XOR2: 2,
}


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One primitive instance: ordered input net ids, single output net."""

    kind: CellKind
    inputs: tuple[int, ...]
    output: int


@dataclass(frozen=True)
class Violation:
    """One structural rule broken by a netlist, e.g. UndrivenOutput(sum[3])."""

    kind: str
    subject: str

    def __str__(self) -> str:
        return f"{self.kind}({self.subject})"


@dataclass(frozen=True)
class Census:
    """Gate population of a netlist, by cell kind and in total."""

    counts: dict[CellKind, int]
    total: int


@dataclass(frozen=True)
class Netlist:
    """A frozen gate-level adder netlist.

    ``nets`` holds the net names and ``gates`` the gates; a net's or
    gate's id is its position there. ``a``, ``b``,
    ``cin`` hold primary-input net ids; ``sums``, ``cout`` and
    ``carries`` hold primary-output net ids. ``carries`` lists exposed
    lookahead carries in ascending bit order (their names encode the
    global carry index, c<k> = carry into bit k).
    """

    width: int
    nets: tuple[str, ...]
    gates: tuple[Gate, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    cin: int
    sums: tuple[int, ...]
    cout: int
    carries: tuple[int, ...] = ()

    # -- derived views -----------------------------------------------------

    @cached_property
    def driver(self) -> dict[int, int]:
        """Map net id -> driving gate id (primary inputs have no entry)."""
        return {g.output: k for k, g in enumerate(self.gates)}

    def primary_inputs(self) -> tuple[int, ...]:
        return self.a + self.b + (self.cin,)

    def primary_outputs(self) -> tuple[int, ...]:
        return self.sums + (self.cout,) + self.carries


def input_layout(width: int) -> tuple[list[str], tuple[int, ...], tuple[int, ...], int]:
    """Net names and ids of the primary inputs, which every netlist lists
    first: a[i] is net i, b[i] is net width+i and cin is net 2*width."""
    names = [f"a[{i}]" for i in range(width)] + [f"b[{i}]" for i in range(width)] + ["cin"]
    return names, tuple(range(width)), tuple(range(width, 2 * width)), 2 * width


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


class NetlistBuilder:
    """Append-only netlist constructor.

    Gate ids are assigned sequentially and gate k drives a fresh
    internal net named n<k>, so a builder can only ever describe a DAG.
    ``finish`` renames the chosen output nets to their canonical names
    and freezes the result.
    """

    def __init__(self, width: int):
        if not isinstance(width, int) or width < 1:
            raise InvalidWidth(f"adder width must be a positive integer, got {width!r}")
        self.width = width
        self._nets, self.a, self.b, self.cin = input_layout(width)
        self._gates: list[Gate] = []

    @property
    def gate_count(self) -> int:
        return len(self._gates)

    def add_gate(self, kind: CellKind, inputs: list[int] | tuple[int, ...]) -> int:
        """Append a gate reading ``inputs``, return its fresh output net id."""
        need = ARITY[kind]
        if len(inputs) != need:
            raise ArityMismatch(f"{kind.value} takes {need} inputs, got {len(inputs)}")
        nnets = len(self._nets)
        if min(inputs) < 0 or max(inputs) >= nnets:
            bad = next(nid for nid in inputs if not 0 <= nid < nnets)
            raise DanglingInput(f"no net with id {bad}")
        self._nets.append(f"n{len(self._gates)}")
        self._gates.append(Gate(kind, tuple(inputs), nnets))
        return nnets

    def finish(
        self,
        sums: list[int] | tuple[int, ...],
        cout: int,
        carries: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
    ) -> Netlist:
        """Name outputs and freeze.

        ``sums`` gives the net driving each sum bit (LSB first), ``cout``
        the carry-out net, and ``carries`` pairs of (global carry index,
        net id) for lookahead carries to expose as c<k> outputs.
        """
        if len(sums) != self.width:
            raise InvalidNetlist([Violation("SumCount", f"{len(sums)} of {self.width}")])
        rename: dict[int, str] = {}
        for i, nid in enumerate(sums):
            rename[nid] = f"sum[{i}]"
        rename[cout] = "cout"
        carries = tuple(sorted(carries))
        for k, nid in carries:
            rename[nid] = f"c{k}"
        if len(rename) != len(sums) + 1 + len(carries):
            raise InvalidNetlist([Violation("DuplicateOutput", "output nets must be distinct")])
        nets = list(self._nets)
        for nid, name in rename.items():
            if 0 <= nid < len(nets):
                nets[nid] = name
        nl = Netlist(
            width=self.width,
            nets=tuple(nets),
            gates=tuple(self._gates),
            a=self.a,
            b=self.b,
            cin=self.cin,
            sums=tuple(sums),
            cout=cout,
            carries=tuple(nid for _, nid in carries),
        )
        problems = validate(nl)
        if problems:
            raise InvalidNetlist(problems)
        return nl


def new_netlist(width: int) -> NetlistBuilder:
    """Start building an adder netlist of the given bit width."""
    return NetlistBuilder(width)


# ---------------------------------------------------------------------------
# Structural checks and derived orders
# ---------------------------------------------------------------------------


def validate(nl: Netlist) -> list[Violation]:
    """Return all structural violations (empty list means the netlist is ok).

    Checks: port ids inside the net table (when one is not, only those
    are reported), arity, dangling gate inputs, gate outputs inside the
    net table, single driver per net, primary inputs undriven, primary
    outputs driven, no dangling internal nets, acyclicity.
    """
    nnets = len(nl.nets)
    bad = [
        (f"{v}[{i}]", nid)
        for v, ids in (("a", nl.a), ("b", nl.b), ("sum", nl.sums), ("carries", nl.carries))
        for i, nid in enumerate(ids)
        if not 0 <= nid < nnets
    ]
    bad += [(p, nid) for p, nid in (("cin", nl.cin), ("cout", nl.cout)) if not 0 <= nid < nnets]
    if bad:
        return [Violation("DanglingPort", f"{port} is net {nid}") for port, nid in bad]

    out: list[Violation] = []
    drivers = [0] * nnets
    read = bytearray(nnets)
    for k, g in enumerate(nl.gates):
        ins = g.inputs
        if len(ins) != ARITY[g.kind]:
            out.append(Violation("ArityMismatch", f"g{k} {g.kind.value}"))
        for nid in ins:
            if 0 <= nid < nnets:
                read[nid] = 1
            else:
                out.append(Violation("DanglingInput", f"g{k} reads net {nid}"))
        if 0 <= g.output < nnets:
            drivers[g.output] += 1
        else:
            out.append(Violation("DanglingOutput", f"g{k} drives net {g.output}"))

    pis = set(nl.primary_inputs())
    if max(drivers, default=0) > 1 or any(drivers[nid] for nid in pis):
        # rare: name offending nets in the order their first driver appears
        for nid in dict.fromkeys(g.output for g in nl.gates if 0 <= g.output < nnets):
            if drivers[nid] > 1:
                out.append(Violation("MultipleDrivers", nl.nets[nid]))
            if nid in pis:
                out.append(Violation("DrivenInput", nl.nets[nid]))

    for nid in nl.primary_outputs():
        if not drivers[nid]:
            out.append(Violation("UndrivenOutput", nl.nets[nid]))

    for nid in nl.primary_outputs():
        read[nid] = 1
    if 0 in read:
        out.extend(
            Violation("DanglingNet", name)
            for nid, name in enumerate(nl.nets)
            if not read[nid] and nid not in pis
        )

    try:
        topo_order(nl)
    except CycleDetected:
        out.append(Violation("CycleDetected", "netlist has a combinational cycle"))
    return out


def topo_order(nl: Netlist) -> tuple[int, ...]:
    """Gate ids in dependency order, ties broken by ascending gate id.

    Kahn's algorithm over the gate graph with a min-heap frontier, so
    the result is deterministic for any valid netlist. Raises
    CycleDetected if some gates never become ready.

    When the gate outputs ascend and every gate reads only nets below
    its own output (as in every netlist ``NetlistBuilder`` and
    ``from_text`` build), a driven net that gate k reads comes from a
    gate below k, so Kahn's order is 0..n-1: once gates 0..k-1 are
    popped, gate k is ready and the smallest id left. One pass checks
    that and skips the heap.
    """
    gates = nl.gates
    if _in_order(gates):
        return tuple(range(len(gates)))
    driver = nl.driver
    pending = [0] * len(gates)
    consumers: list[list[int]] = [[] for _ in gates]
    ready: list[int] = []  # filled in ascending order, so already a heap
    for k, g in enumerate(gates):
        deps = [driver[nid] for nid in g.inputs if nid in driver]
        pending[k] = len(deps)
        for d in deps:
            consumers[d].append(k)
        if not deps:
            ready.append(k)
    order: list[int] = []
    while ready:
        k = heapq.heappop(ready)
        order.append(k)
        for nxt in consumers[k]:
            pending[nxt] -= 1
            if pending[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(gates):
        raise CycleDetected(f"{len(gates) - len(order)} gates are stuck in a cycle")
    return tuple(order)


def _in_order(gates: tuple[Gate, ...]) -> bool:
    """Whether gate outputs ascend and each gate reads only nets below its output."""
    prev = -1
    for g in gates:
        out = g.output
        if out <= prev:
            return False
        for nid in g.inputs:
            if nid >= out:
                return False
        prev = out
    return True


def census(nl: Netlist) -> Census:
    """Count gates by kind."""
    counts = Counter(g.kind for g in nl.gates)
    return Census(counts=dict(counts), total=len(nl.gates))
