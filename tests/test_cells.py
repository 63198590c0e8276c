"""Cell library model, JSON round-trip and input validation."""

import json
import math

import pytest

from adderlab import CellKind, default_library, parse_library, serialize_library
from adderlab.cells import CellLibrary, CellModel
from adderlab.errors import IncompleteLibrary, InvalidCellValue, ParseError


def test_default_library_covers_every_kind():
    lib = default_library()
    assert set(lib.cells) == set(CellKind)
    assert lib.vdd_v == 1.05
    assert lib.output_load_ff == 4.0  # four INV pins


def test_default_library_frozen_values():
    lib = default_library()
    inv = lib.cells[CellKind.INV]
    assert (inv.area_um2, inv.intrinsic_delay_ns, inv.load_delay_ns_per_ff) == (1.0, 0.02, 0.010)
    assert (inv.input_cap_ff, inv.leakage_nw) == (1.0, 1.0)
    xor = lib.cells[CellKind.XOR2]
    assert (xor.area_um2, xor.intrinsic_delay_ns, xor.load_delay_ns_per_ff) == (3.0, 0.08, 0.015)
    assert (xor.input_cap_ff, xor.leakage_nw) == (1.5, 3.5)
    and4 = lib.cells[CellKind.AND4]
    assert (and4.area_um2, and4.input_cap_ff) == (3.0, 1.4)


def test_default_library_cost_ordering():
    # wider gates cost more; XOR2 has the priciest pin
    lib = default_library()
    caps = {k: lib.cells[k].input_cap_ff for k in CellKind}
    assert caps[CellKind.INV] < caps[CellKind.AND2] < caps[CellKind.AND3] < caps[CellKind.AND4]
    assert caps[CellKind.XOR2] == max(caps.values())
    areas = {k: lib.cells[k].area_um2 for k in CellKind}
    assert areas[CellKind.INV] == min(areas.values())


def test_serialize_parse_round_trip():
    lib = default_library()
    text = serialize_library(lib)
    again = parse_library(text)
    assert again == lib
    assert serialize_library(again) == text


def test_serialized_form_is_stable_json():
    text = serialize_library(default_library())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == ["name", "vdd_v", "output_load_ff", "cells"]
    assert list(doc["cells"]) == [k.value for k in CellKind]


def _doc():
    return json.loads(serialize_library(default_library()))


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_library("{not json")
    with pytest.raises(ParseError):
        parse_library("[1, 2]")
    doc = _doc()
    doc["cells"] = list(doc["cells"].values())
    with pytest.raises(ParseError, match="'cells' must be an object keyed by cell kind"):
        parse_library(json.dumps(doc))
    doc = _doc()
    doc["cells"]["OR2"] = [1.0, 2.0]
    with pytest.raises(ParseError, match="cell 'OR2' must be an object"):
        parse_library(json.dumps(doc))


def test_parse_rejects_missing_top_level_key():
    doc = _doc()
    del doc["vdd_v"]
    with pytest.raises(ParseError, match="vdd_v"):
        parse_library(json.dumps(doc))


def test_parse_rejects_unknown_cell_kind():
    doc = _doc()
    doc["cells"]["NAND2"] = doc["cells"]["AND2"]
    with pytest.raises(ParseError, match="NAND2"):
        parse_library(json.dumps(doc))


def test_parse_rejects_missing_cell():
    doc = _doc()
    del doc["cells"]["INV"]
    with pytest.raises(IncompleteLibrary, match="INV"):
        parse_library(json.dumps(doc))


def test_parse_rejects_missing_field():
    doc = _doc()
    del doc["cells"]["OR3"]["area_um2"]
    with pytest.raises(IncompleteLibrary, match="area_um2"):
        parse_library(json.dumps(doc))


def test_parse_rejects_non_numeric_value():
    doc = _doc()
    doc["cells"]["AND2"]["leakage_nw"] = "cheap"
    with pytest.raises(InvalidCellValue):
        parse_library(json.dumps(doc))
    doc = _doc()
    doc["cells"]["AND2"]["leakage_nw"] = True
    with pytest.raises(InvalidCellValue):
        parse_library(json.dumps(doc))
    for field in ("vdd_v", "output_load_ff"):
        for value in ("1.0", True):
            doc = _doc()
            doc[field] = value
            with pytest.raises(InvalidCellValue, match=f"^{field} must be a number$"):
                parse_library(json.dumps(doc))


def test_parse_rejects_nonpositive_area():
    doc = _doc()
    doc["cells"]["XOR2"]["area_um2"] = 0
    with pytest.raises(InvalidCellValue):
        parse_library(json.dumps(doc))


@pytest.mark.parametrize(
    "field",
    [
        "area_um2",
        "intrinsic_delay_ns",
        "load_delay_ns_per_ff",
        "input_cap_ff",
        "leakage_nw",
        "vdd_v",
        "output_load_ff",
    ],
)
def test_parse_rejects_non_finite_values(field):
    # json reads NaN and Infinity, so the models must reject them
    for value in (math.nan, math.inf):
        doc = _doc()
        (doc if field in doc else doc["cells"]["AND2"])[field] = value
        with pytest.raises(InvalidCellValue, match=field):
            parse_library(json.dumps(doc))


def test_model_rejects_negative_delay():
    with pytest.raises(InvalidCellValue):
        CellModel(CellKind.INV, 1.0, -0.01, 0.01, 1.0, 1.0)


def test_library_rejects_nonpositive_vdd():
    cells = default_library().cells
    with pytest.raises(InvalidCellValue):
        CellLibrary(name="x", vdd_v=0.0, output_load_ff=4.0, cells=cells)


def test_library_requires_all_kinds():
    cells = dict(default_library().cells)
    del cells[CellKind.OR4]
    with pytest.raises(IncompleteLibrary, match="OR4"):
        CellLibrary(name="x", vdd_v=1.0, output_load_ff=4.0, cells=cells)
