"""Per-kind cell models and the bundled synthetic library.

Every primitive kind gets one model holding area, a two-term linear
delay (intrinsic plus load-dependent slope), input pin capacitance and
leakage. The default library is synthetic: values are chosen so that
wider gates are larger, slower and leakier, with XOR the most expensive
pin. Absolute numbers are not calibrated to any real process; use
``load_library`` to swap in your own JSON file when you have one.

Wire capacitance is not modelled; a net's load is the sum of the pin
capacitances it drives, plus ``output_load_ff`` if it is a primary
output (the default is a fanout-of-4 load, four INV pins).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .errors import IncompleteLibrary, InvalidCellValue, ParseError
from .netio import read_utf8
from .netlist import CellKind

# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellModel:
    kind: CellKind
    area_um2: float
    intrinsic_delay_ns: float
    load_delay_ns_per_ff: float
    input_cap_ff: float
    leakage_nw: float

    def __post_init__(self):
        for name in ("area_um2", "input_cap_ff"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidCellValue(f"{self.kind.value}: {name} must be finite and > 0")
        for name in ("intrinsic_delay_ns", "load_delay_ns_per_ff", "leakage_nw"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidCellValue(f"{self.kind.value}: {name} must be finite and >= 0")


@dataclass(frozen=True)
class CellLibrary:
    name: str
    vdd_v: float
    output_load_ff: float
    cells: dict[CellKind, CellModel]

    def __post_init__(self):
        if not 0 < self.vdd_v < math.inf:
            raise InvalidCellValue("vdd_v must be finite and > 0")
        if not 0 <= self.output_load_ff < math.inf:
            raise InvalidCellValue("output_load_ff must be finite and >= 0")
        missing = [k.value for k in CellKind if k not in self.cells]
        if missing:
            raise IncompleteLibrary(f"missing cell models: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Default library
# ---------------------------------------------------------------------------

# kind -> (area_um2, intrinsic_delay_ns, load_delay_ns_per_ff, input_cap_ff, leakage_nw)
_DEFAULT_VALUES: dict[CellKind, tuple[float, float, float, float, float]] = {
    CellKind.INV: (1.0, 0.02, 0.010, 1.0, 1.0),
    CellKind.AND2: (2.0, 0.05, 0.012, 1.2, 2.0),
    CellKind.OR2: (2.0, 0.05, 0.012, 1.2, 2.0),
    CellKind.AND3: (2.5, 0.06, 0.013, 1.3, 2.5),
    CellKind.OR3: (2.5, 0.06, 0.013, 1.3, 2.5),
    CellKind.AND4: (3.0, 0.07, 0.014, 1.4, 3.0),
    CellKind.OR4: (3.0, 0.07, 0.014, 1.4, 3.0),
    CellKind.XOR2: (3.0, 0.08, 0.015, 1.5, 3.5),
}

DEFAULT_VDD_V = 1.05


def default_library() -> CellLibrary:
    """The bundled synthetic library (vdd 1.05 V, fanout-of-4 output load)."""
    cells = {
        kind: CellModel(kind, *values) for kind, values in _DEFAULT_VALUES.items()
    }
    fo4 = 4.0 * cells[CellKind.INV].input_cap_ff
    return CellLibrary(
        name="synthetic-default",
        vdd_v=DEFAULT_VDD_V,
        output_load_ff=fo4,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_MODEL_FIELDS = [f.name for f in fields(CellModel) if f.name != "kind"]


def serialize_library(lib: CellLibrary) -> str:
    """Render a library as JSON text (stable key order)."""
    doc = {
        "name": lib.name,
        "vdd_v": lib.vdd_v,
        "output_load_ff": lib.output_load_ff,
        "cells": {
            kind.value: {name: getattr(lib.cells[kind], name) for name in _MODEL_FIELDS}
            for kind in CellKind
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidCellValue(f"{what} must be a number")
    return float(value)


def parse_library(text: str) -> CellLibrary:
    """Parse a JSON library document; see serialize_library for the schema."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("library document must be a JSON object")
    try:
        name = doc["name"]
        vdd = doc["vdd_v"]
        load = doc["output_load_ff"]
        cell_docs = doc["cells"]
    except KeyError as exc:
        raise ParseError(f"missing top-level key {exc.args[0]!r}") from exc
    if not isinstance(cell_docs, dict):
        raise ParseError("'cells' must be an object keyed by cell kind")

    cells: dict[CellKind, CellModel] = {}
    for key, body in cell_docs.items():
        try:
            kind = CellKind(key)
        except ValueError as exc:
            raise ParseError(f"unknown cell kind {key!r}") from exc
        if not isinstance(body, dict):
            raise ParseError(f"cell {key!r} must be an object")
        missing = [n for n in _MODEL_FIELDS if n not in body]
        if missing:
            raise IncompleteLibrary(f"cell {key!r} missing {', '.join(missing)}")
        values = {n: _number(body[n], f"cell {key!r}: {n}") for n in _MODEL_FIELDS}
        cells[kind] = CellModel(kind, **values)

    vdd = _number(vdd, "vdd_v")
    load = _number(load, "output_load_ff")
    return CellLibrary(name=str(name), vdd_v=vdd, output_load_ff=load, cells=cells)


def load_library(path: str) -> CellLibrary:
    return parse_library(read_utf8(path))
