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

    @cached_property
    def readers(self) -> dict[int, tuple[int, ...]]:
        """Map net id -> ids of gates reading it (one entry per pin)."""
        acc: dict[int, list[int]] = {n.id: [] for n in self.nets}
        for g in self.gates:
            for nid in g.inputs:
                if nid in acc:
                    acc[nid].append(g.id)
        return {nid: tuple(gids) for nid, gids in acc.items()}

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

    Gate ids are assigned sequentially and every added gate drives a
    fresh internal net (named n<k>, k sequential), so a builder can only
    ever describe a DAG. ``finish`` renames the chosen output nets to
    their canonical names and freezes the result.
    """

    def __init__(self, width: int):
        if not isinstance(width, int) or width < 1:
            raise InvalidWidth(f"adder width must be a positive integer, got {width!r}")
        self.width = width
        self._nets: list[Net] = []
        self._gates: list[Gate] = []
        self._internal = 0
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
        for nid in inputs:
            if not (0 <= nid < len(self._nets)):
                raise DanglingInput(f"no net with id {nid}")
        out = self._new_net(f"n{self._internal}")
        self._internal += 1
        self._gates.append(Gate(len(self._gates), kind, tuple(inputs), out))
        return out

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
        nets = tuple(
            Net(n.id, rename[n.id]) if n.id in rename else n for n in self._nets
        )
        nl = Netlist(
            width=self.width,
            nets=nets,
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

    Checks: dense ids, arity, dangling gate inputs, single driver per
    net, primary inputs undriven, primary outputs driven, no dangling
    internal nets, acyclicity.
    """
    out: list[Violation] = []
    nnets = len(nl.nets)

    drivers: dict[int, list[int]] = {}
    for g in nl.gates:
        if len(g.inputs) != ARITY[g.kind]:
            out.append(Violation("ArityMismatch", f"g{g.id} {g.kind.value}"))
        for nid in g.inputs:
            if not (0 <= nid < nnets):
                out.append(Violation("DanglingInput", f"g{g.id} reads net {nid}"))
        drivers.setdefault(g.output, []).append(g.id)

    pis = set(nl.primary_inputs())
    for nid, gids in drivers.items():
        if len(gids) > 1:
            out.append(Violation("MultipleDrivers", nl.net_name(nid)))
        if nid in pis:
            out.append(Violation("DrivenInput", nl.net_name(nid)))

    for nid in nl.primary_outputs():
        if nid not in drivers:
            out.append(Violation("UndrivenOutput", nl.net_name(nid)))

    observable = set(nl.primary_outputs())
    for n in nl.nets:
        if n.id in pis or n.id in observable:
            continue
        if not nl.readers.get(n.id):
            out.append(Violation("DanglingNet", n.name))

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

    When gate k reads only primary inputs, undriven nets and outputs of
    gates below k (as in every netlist ``NetlistBuilder`` and
    ``from_text`` build), Kahn's order is 0..n-1: once gates 0..k-1 are
    popped, gate k is ready and the smallest id left. One pass checks
    that and skips the heap.
    """
    driver = nl.driver
    if _in_id_order(nl.gates, driver):
        return tuple(range(len(nl.gates)))
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


def _in_id_order(gates: tuple[Gate, ...], driver: dict[int, int]) -> bool:
    """Whether gates[k] has id k and reads no output of a gate k or above."""
    for k, g in enumerate(gates):
        if g.id != k:
            return False
        for nid in g.inputs:
            if driver.get(nid, -1) >= k:
                return False
    return True


def census(nl: Netlist) -> Census:
    """Count gates by kind."""
    counts = Counter(g.kind for g in nl.gates)
    return Census(counts=dict(counts), total=len(nl.gates))
