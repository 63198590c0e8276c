"""Immutable gate-level netlist model.

A netlist is a DAG of single-output gates drawn from a fixed primitive
set (INV, AND2-4, OR2-4, XOR2). Nets carry dense integer ids and unique
names; the adder-shaped primary interface is fixed at construction time:
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
class Net:
    """A named wire. Ids are dense and index directly into Netlist.nets."""

    id: int
    name: str


@dataclass(frozen=True)
class Gate:
    """One primitive instance: ordered input net ids, single output net."""

    id: int
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

    ``nets`` and ``gates`` are dense, indexable by id. ``a``, ``b``,
    ``cin`` hold primary-input net ids; ``sums``, ``cout`` and
    ``carries`` hold primary-output net ids. ``carries`` lists exposed
    lookahead carries in ascending bit order (their names encode the
    global carry index, c<k> = carry into bit k).
    """

    width: int
    nets: tuple[Net, ...]
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
        return {g.output: g.id for g in self.gates}

    def primary_inputs(self) -> tuple[int, ...]:
        return self.a + self.b + (self.cin,)

    def primary_outputs(self) -> tuple[int, ...]:
        return self.sums + (self.cout,) + self.carries

    def net_name(self, nid: int) -> str:
        return self.nets[nid].name


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
        self._nets: list[Net] = []
        self._gates: list[Gate] = []
        self.a = tuple(self._new_net(f"a[{i}]") for i in range(width))
        self.b = tuple(self._new_net(f"b[{i}]") for i in range(width))
        self.cin = self._new_net("cin")

    def _new_net(self, name: str) -> int:
        nid = len(self._nets)
        self._nets.append(Net(nid, name))
        return nid

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
        gid = len(self._gates)
        self._nets.append(Net(nnets, f"n{gid}"))
        self._gates.append(Gate(gid, kind, tuple(inputs), nnets))
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
                nets[nid] = Net(nid, name)
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

    Checks: dense gate ids, arity, dangling gate inputs, gate outputs
    inside the net table, single driver per net, primary inputs
    undriven, primary outputs driven, no dangling internal nets,
    acyclicity (only when gate ids are dense).
    """
    out: list[Violation] = []
    nnets = len(nl.nets)
    drivers = [0] * nnets
    read = bytearray(nnets)
    dense = True
    for k, g in enumerate(nl.gates):
        ins = g.inputs
        if len(ins) != ARITY[g.kind]:
            out.append(Violation("ArityMismatch", f"g{g.id} {g.kind.value}"))
        for nid in ins:
            if 0 <= nid < nnets:
                read[nid] = 1
            else:
                out.append(Violation("DanglingInput", f"g{g.id} reads net {nid}"))
        if 0 <= g.output < nnets:
            drivers[g.output] += 1
        else:
            out.append(Violation("DanglingOutput", f"g{g.id} drives net {g.output}"))
        if g.id != k:
            dense = False
            out.append(Violation("NonDenseGateId", f"g{g.id} at position {k}"))

    pis = set(nl.primary_inputs())
    if max(drivers, default=0) > 1 or any(drivers[nid] for nid in pis if 0 <= nid < nnets):
        # rare: name offending nets in the order their first driver appears
        for nid in dict.fromkeys(g.output for g in nl.gates if 0 <= g.output < nnets):
            if drivers[nid] > 1:
                out.append(Violation("MultipleDrivers", nl.net_name(nid)))
            if nid in pis:
                out.append(Violation("DrivenInput", nl.net_name(nid)))

    for nid in nl.primary_outputs():
        if not (0 <= nid < nnets and drivers[nid]):
            out.append(Violation("UndrivenOutput", nl.net_name(nid)))

    for nid in nl.primary_outputs():
        if 0 <= nid < nnets:
            read[nid] = 1
    if 0 in read:
        out.extend(
            Violation("DanglingNet", n.name) for n in nl.nets if not read[n.id] and n.id not in pis
        )

    if dense:
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

    When gate k has id k, the outputs ascend with k and every gate reads
    only nets below its own output (as in every netlist
    ``NetlistBuilder`` and ``from_text`` build), a driven net that gate
    k reads comes from a gate below k, so Kahn's order is 0..n-1: once
    gates 0..k-1 are popped, gate k is ready and the smallest id left.
    One pass checks that and skips the heap.
    """
    if _in_id_order(nl.gates):
        return tuple(range(len(nl.gates)))
    driver = nl.driver
    pending: dict[int, int] = {}
    consumers: dict[int, list[int]] = {g.id: [] for g in nl.gates}
    ready: list[int] = []
    for g in nl.gates:
        deps = [driver[nid] for nid in g.inputs if nid in driver]
        pending[g.id] = len(deps)
        for d in deps:
            consumers[d].append(g.id)
        if not deps:
            ready.append(g.id)
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        gid = heapq.heappop(ready)
        order.append(gid)
        for nxt in consumers[gid]:
            pending[nxt] -= 1
            if pending[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(nl.gates):
        raise CycleDetected(f"{len(nl.gates) - len(order)} gates are stuck in a cycle")
    return tuple(order)


def _in_id_order(gates: tuple[Gate, ...]) -> bool:
    """Whether gates[k] has id k, outputs ascend and each gate reads only nets below its output."""
    prev = -1
    for k, g in enumerate(gates):
        out = g.output
        if g.id != k or out <= prev:
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
