"""Shared helpers for the test suite.

Kept as plain functions (not fixtures) so both the unit tests and the
acceptance suite can drive them with their own RNGs.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

from adderlab import CellKind, Gate, Netlist

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLE1_CSV = REPO_ROOT / "data" / "table1.csv"

# Reference 32-bit design metrics shipped in data/table1.csv, inlined so
# tests do not silently drift if the file is edited.
TABLE1_ROWS = [
    ("design1", 38.11, 2.22, 563.18),
    ("design2", 37.60, 2.18, 540.82),
    ("design3", 42.99, 2.20, 483.64),
    ("design4", 41.92, 2.16, 462.03),
    ("design5", 42.23, 2.27, 462.03),
    ("design6", 41.16, 2.23, 440.43),
]

# net names to give a netlist: the first seven break a name rule when given
# to a gate net of a built adder (empty, whitespace, or the name of an
# input or output), the last four are free names
ODD_NAMES = ["n 0", "", "n\t0", "n\n0", "a[0]", "sum[1]", "cout", "->", "outputs", "p", "x"]

_MIN_BLOCK_WIDTH = {"rca": 1, "ccla": 2, "scbcla": 2}


def random_arch_string(rng: random.Random, lo: int = 2, hi: int = 10) -> str:
    """A random valid architecture string with total width in [lo, hi]."""
    remaining = rng.randint(lo, hi)
    terms = []
    while remaining:
        # a width-1 remainder can only be an rca slice
        kind = rng.choice(("rca", "ccla", "scbcla")) if remaining > 1 else "rca"
        width = rng.randint(_MIN_BLOCK_WIDTH[kind], min(remaining, 5))
        terms.append(f"{kind}:{width}")
        remaining -= width
    return ",".join(terms)


FLIP = {
    CellKind.AND2: CellKind.OR2,
    CellKind.OR2: CellKind.AND2,
    CellKind.XOR2: CellKind.AND2,
}


def gate_columns(gates: list[Gate] | tuple[Gate, ...]) -> dict[str, tuple]:
    """Gate records as the two Netlist fields that hold them, to pass as
    ``Netlist(..., **gate_columns(gates))`` or
    ``dataclasses.replace(nl, **gate_columns(gates))``."""
    return {"kinds": tuple(g.kind for g in gates), "inputs": tuple(g.inputs for g in gates)}


def flippable_gates(nl: Netlist) -> list[int]:
    return [k for k, kind in enumerate(nl.kinds) if kind in FLIP]


def flip_gate_kind(nl: Netlist, gate_id: int) -> Netlist:
    """Return a copy of ``nl`` with one gate's kind swapped per FLIP."""
    kinds = list(nl.kinds)
    kinds[gate_id] = FLIP[kinds[gate_id]]
    return dataclasses.replace(nl, kinds=tuple(kinds))
