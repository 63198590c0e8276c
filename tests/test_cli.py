"""Command line behaviour: exit codes, file outputs, stdout formats."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import adderlab.analyze
import adderlab.cli
from adderlab import (
    compose,
    default_library,
    dump_trace,
    from_text,
    random_vectors,
    serialize_library,
    to_text,
)
from adderlab.cli import main

from conftest import TABLE1_CSV, flip_gate_kind, flippable_gates


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_gen_writes_netlist_to_stdout(capsys):
    assert main(["gen", "--arch", "rca:1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("width 1\n")
    assert out.endswith("outputs sum[0] cout\n")


def test_gen_preset_to_file_and_verilog(tmp_path):
    net = tmp_path / "d1.net"
    ver = tmp_path / "d1.v"
    code = main(
        ["gen", "--preset", "design1", "--out", str(net), "--verilog", str(ver), "--module", "top"]
    )
    assert code == 0
    assert net.read_text().startswith("width 32\n")
    assert ver.read_text().startswith("module top (")
    assert from_text(net.read_text()).width == 32


def test_gen_rejects_bad_arch(capsys):
    assert main(["gen", "--arch", "ccla:1"]) == 1
    err = capsys.readouterr().err
    assert "error: InvalidBlockWidth" in err
    assert main(["gen", "--arch", "ccla:huh"]) == 1
    assert "error: ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["my adder;", "1st", "a-b", "module", "endmodule", ""])
def test_gen_and_export_reject_a_module_name_that_is_not_a_verilog_identifier(
    module, tmp_path, capsys
):
    ver, net = tmp_path / "m.v", tmp_path / "r2.net"
    assert main(["gen", "--arch", "rca:2", "--verilog", str(ver), "--module", module]) == 1
    assert not ver.exists()
    net.write_text(to_text(compose("rca:2")))
    assert main(["export", "--from-file", str(net), "--verilog", "--module", module]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count(f"error: ParseError: module name {module!r} is not a") == 2
    assert main(["gen", "--arch", "rca:2", "--verilog", str(ver)]) == 0
    assert ver.read_text().startswith("module rca_2 (")


def test_gen_rejects_unknown_preset(capsys):
    assert main(["gen", "--preset", "design9"]) == 1
    assert "UnknownPreset" in capsys.readouterr().err


def test_verify_preset_with_random_vectors(capsys):
    assert main(["verify", "--preset", "design4", "--vectors", "3000"]) == 0
    out = capsys.readouterr().out
    assert "design4: ok" in out
    assert "3000 vectors, seed 1" in out


def test_verify_small_width_goes_exhaustive(capsys):
    assert main(["verify", "--arch", "rca:4"]) == 0
    out = capsys.readouterr().out
    assert "exhaustive, 512 rows" in out
    assert main(["verify", "--arch", "rca:5,ccla:6"]) == 0
    assert "exhaustive, 8388608 rows" in capsys.readouterr().out


def test_verify_exhaustive_flag(capsys):
    assert main(["verify", "--arch", "scbcla:3,rca:2", "--exhaustive"]) == 0
    assert "exhaustive, 2048 rows" in capsys.readouterr().out
    assert main(["verify", "--arch", "rca:13", "--exhaustive"]) == 1
    assert "InvalidWidth" in capsys.readouterr().err


def test_verify_rejects_vacuous_vector_counts(capsys):
    for count in ("0", "-5"):
        assert main(["verify", "--preset", "design1", "--vectors", count]) == 1
        captured = capsys.readouterr()
        assert "InsufficientVectors" in captured.err
        assert "ok" not in captured.out


def test_verify_width_cross_check(capsys):
    assert main(["verify", "--preset", "rca32", "--width", "16"]) == 1
    assert "InvalidWidth" in capsys.readouterr().err


def test_a_missing_file_is_named_by_its_error_class(tmp_path, capsys):
    missing = tmp_path / "missing.net"
    assert main(["verify", "--from-file", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: FileNotFoundError: ")
    assert str(missing) in captured.err


def test_verify_catches_corrupted_file(tmp_path, capsys):
    nl = compose("rca:2,ccla:3")
    bad = flip_gate_kind(nl, flippable_gates(nl)[3])
    path = tmp_path / "bad.net"
    path.write_text(to_text(bad))
    assert main(["verify", "--from-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert "MISMATCH" in err
    assert "expected sum=" in err


def test_verify_good_file(tmp_path, capsys):
    path = tmp_path / "ok.net"
    path.write_text(to_text(compose("rca:2,ccla:3")))
    assert main(["verify", "--from-file", str(path)]) == 0
    assert "ok (exhaustive" in capsys.readouterr().out


def test_verify_missing_file_reports_usage_error(capsys):
    assert main(["verify", "--from-file", "/nonexistent/x.net"]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_emits_json_report(capsys):
    assert main(["analyze", "--preset", "design3", "--vectors", "64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["design"] == "design3"
    assert doc["arch"] == "scbcla:2,scbcla:3x10"
    assert doc["gates"] == 181
    assert doc["power_uw"] > 0 and doc["delay_ns"] > 0 and doc["area_um2"] > 0


def test_analyze_is_byte_deterministic(capsys):
    args = ["analyze", "--arch", "rca:2,scbcla:3", "--vectors", "128", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_analyze_with_custom_library_and_trace(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    lib.write_text(serialize_library(default_library()))
    trace = tmp_path / "trace.txt"
    out = tmp_path / "report.json"
    code = main(
        [
            "analyze", "--arch", "rca:3", "--lib", str(lib),
            "--vectors", "16", "--out", str(out), "--trace", str(trace),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["gates"] == 15
    assert len(trace.read_text().splitlines()) == 16


def test_analyze_trace_comes_from_the_analysed_netlist(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(spec):
        calls.append(spec)
        return compose(spec)

    for module in (adderlab.analyze, adderlab.cli):
        monkeypatch.setattr(module, "compose", counted)
    trace = tmp_path / "trace.txt"
    args = ["analyze", "--arch", "rca:2,scbcla:4x3", "--vectors", "16", "--seed", "3"]
    assert main(args + ["--trace", str(trace)]) == 0
    assert len(calls) == 1
    buf = io.StringIO()
    nl = compose("rca:2,scbcla:4x3")
    dump_trace(nl, random_vectors(nl.width, 16, 3), buf)
    assert trace.read_text() == buf.getvalue()


def test_analyze_rejects_broken_library(tmp_path, capsys):
    lib = tmp_path / "short.json"
    doc = json.loads(serialize_library(default_library()))
    del doc["cells"]["XOR2"]
    lib.write_text(json.dumps(doc))
    assert main(["analyze", "--preset", "design1", "--lib", str(lib)]) == 1
    assert "IncompleteLibrary" in capsys.readouterr().err


def _random_bytes_file(tmp_path):
    data = random.Random(1).randbytes(100)
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    path = tmp_path / "bin.net"
    path.write_bytes(data)
    return str(path)


def test_analyze_rejects_a_non_finite_library_value(tmp_path, capsys):
    lib = tmp_path / "nan.json"
    doc = json.loads(serialize_library(default_library()))
    doc["cells"]["AND2"]["intrinsic_delay_ns"] = float("nan")
    lib.write_text(json.dumps(doc))
    assert main(["analyze", "--preset", "design1", "--lib", str(lib)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: InvalidCellValue" in captured.err


def test_analyze_rejects_a_library_that_is_not_utf8(tmp_path, capsys):
    lib = _random_bytes_file(tmp_path)
    assert main(["analyze", "--preset", "design1", "--lib", lib]) == 1
    err = capsys.readouterr().err
    assert "error: ParseError" in err


@pytest.mark.parametrize("interval", ["nan", "inf"])
def test_analyze_rejects_a_non_finite_interval(interval, capsys):
    code = main(["analyze", "--preset", "design1", "--vectors", "64", "--interval-ns", interval])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: InvalidMetric" in captured.err


def test_compare_table_mode(tmp_path, capsys):
    out = tmp_path / "ranking.csv"
    assert main(["compare", "--table1", str(TABLE1_CSV), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "design2 over design1: +7.5% fom" in text
    assert "design6 over design1: +17.9% fom" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "design,power_uw,delay_ns,area_um2,fom_scaled"
    assert lines[1].startswith("design6,")
    assert lines[-1].startswith("design1,")


def test_compare_table_rejects_a_non_finite_row(tmp_path, capsys):
    bad = tmp_path / "inf.csv"
    bad.write_text(TABLE1_CSV.read_text() + "design7,inf,2.0,400.0\n")
    assert main(["compare", "--table1", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: InvalidMetric" in captured.err


def test_compare_table_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"design,power_uw,delay_ns,area_um2\nd\xff1,1.0,2.0,400.0\nd2,1.0,2.0,400.0\n")
    assert main(["compare", "--table1", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: ParseError: {bad} is not UTF-8 text: " in captured.err
    assert "Traceback" not in captured.err


def test_compare_table_rejects_missing_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("design,power\nx,1\n")
    assert main(["compare", "--table1", str(bad)]) == 1
    assert "ParseError" in capsys.readouterr().err
    bad.write_text("design,power_uw,delay_ns,area_um2\nd1,abc,2.0,400.0\nd2,1.0,2.0,400.0\n")
    assert main(["compare", "--table1", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: ParseError: bad metrics row " in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "row, message",
    [
        ("design1,38.11,2.22,563.18\n", "line 8: design 'design1' is listed more than once"),
        (",10.0,2.0,400.0\n", "line 8: metrics row has an empty design name"),
    ],
    ids=["repeated", "empty"],
)
def test_compare_table_rejects_a_repeated_or_empty_design_name(row, message, tmp_path, capsys):
    bad = tmp_path / "names.csv"
    bad.write_text(TABLE1_CSV.read_text() + row)
    assert main(["compare", "--table1", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: ParseError: {message}\n" in captured.err


def test_compare_csv_reads_back_as_written(tmp_path, capsys):
    # a design name holding a comma or a quote is quoted, and read back whole
    rows = tmp_path / "rows.csv"
    rows.write_text('design,power_uw,delay_ns,area_um2\n"d,1",1.0,2.0,400.0\n"q""2",1.0,2.0,300.0\n')
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["compare", "--table1", str(rows), "--out", str(first)]) == 0
    assert first.read_text().splitlines()[1:] == [
        '"q""2",1.0,2.0,300.0,1666.6666666666667',
        '"d,1",1.0,2.0,400.0,1250.0',
    ]
    assert main(["compare", "--table1", str(first), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    capsys.readouterr()


def test_compare_table_rejects_a_row_with_more_fields_than_its_header(tmp_path, capsys):
    bad = tmp_path / "wide.csv"
    bad.write_text("design,power_uw,delay_ns,area_um2\nd,1,1.0,2.0,400.0\nd2,1.0,2.0,400.0\n")
    assert main(["compare", "--table1", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: ParseError: line 2: metrics row has more fields than the header\n"
    )


_HUGE_RANGE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from adderlab.cli import main
sys.exit(main(["compare", "--presets", "design1..design999999999999999999"]))
"""


def test_a_huge_preset_range_stops_at_its_first_unknown_name():
    # in a child capped at 512 MiB of address space: building the range
    # first would end in MemoryError
    path = [str(Path(adderlab.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", _HUGE_RANGE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: UnknownPreset: no preset 'design7'")
    assert "Traceback" not in done.stderr


_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from adderlab.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--preset", "design1", "--vectors", "1000000000000"],
        ["compare", "--presets", "design1,design2", "--vectors", "100000000000"],
    ],
    ids=["analyze", "compare"],
)
def test_a_vector_count_no_memory_holds_is_a_named_error(argv):
    # in a child capped at 1 GiB of address space, so the stream's words
    # cannot be allocated here even where the host overcommits memory
    path = [str(Path(adderlab.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: MemoryError: ")
    assert "Traceback" not in done.stderr


def test_compare_preset_range_expansion(capsys):
    code = main(["compare", "--presets", "design3..design4", "--vectors", "64"])
    assert code == 0
    text = capsys.readouterr().out
    assert "design3" in text and "design4" in text
    assert "over" in text


def test_compare_single_design_rejected(capsys):
    assert main(["compare", "--presets", "design1", "--vectors", "64"]) == 1
    assert "NothingToCompare" in capsys.readouterr().err


def test_compare_empty_range_rejected(capsys):
    assert main(["compare", "--presets", "design6..design1"]) == 1
    assert "ParseError" in capsys.readouterr().err
    assert main(["compare", "--presets", ","]) == 1
    assert "error: ParseError: no preset names given" in capsys.readouterr().err


@pytest.mark.parametrize("names", ["design1,design1", "design1..design3,design2"])
def test_compare_rejects_a_repeated_preset(names, capsys):
    assert main(["compare", "--presets", names, "--vectors", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    repeated = "design1" if names == "design1,design1" else "design2"
    assert "error: ParseError" in captured.err and f"'{repeated}'" in captured.err


_DIGITS = "1" * 5000  # past the 4300 digits int() accepts


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--arch", f"rca:{_DIGITS}"], "block width has 5000 digits"),
        (["gen", "--arch", f"rca:1x{_DIGITS}"], "repeat count has 5000 digits"),
        (["compare", "--presets", f"design1..design{_DIGITS}"], "preset range bound has 5000"),
        (["export", "--from-file", "width.net"], "line 1: width has 5000 digits"),
        (["verify", "--from-file", "carry.net"], "OutputName(carries[0] is c1111"),
    ],
)
def test_a_5000_digit_number_is_a_named_error(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "width.net").write_text(f"width {_DIGITS}\noutputs sum[0]\n")
    text = to_text(compose("ccla:2"))
    assert text.endswith(" cout c1\n") and text.count(" c1") == 3
    (tmp_path / "carry.net").write_text(text.replace(" c1", f" c{_DIGITS}"))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: ParseError: {message}")


# in a fresh interpreter: is numpy loaded after import, and after each command?
_NUMPY_PROBE = """
import json, sys
import adderlab, adderlab.cli
seen = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    seen.append([adderlab.cli.main(argv), "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_numpy_loads_only_where_a_stream_is_built(tmp_path):
    steps = [
        ["gen", "--preset", "design6", "--out", "d6.net"],
        ["export", "--from-file", "d6.net", "--out", "d6b.net"],
        ["verify", "--arch", "rca:8"],
        ["compare", "--table1", str(TABLE1_CSV)],
        ["verify", "--preset", "design6"],  # 100k random vectors: the stream needs numpy
    ]
    path = [str(Path(adderlab.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(steps)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [False, [0, False], [0, False], [0, False], [0, False], [0, True]]


def test_export_round_trip(tmp_path, capsys):
    src = tmp_path / "d5.net"
    src.write_text(to_text(compose("rca:1,scbcla:3x9,scbcla:4")))
    assert main(["export", "--from-file", str(src)]) == 0
    assert capsys.readouterr().out == src.read_text()


def test_export_verilog(tmp_path, capsys):
    src = tmp_path / "a.net"
    src.write_text(to_text(compose("ccla:2")))
    assert main(["export", "--from-file", str(src), "--verilog"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("module adder2 (")
    assert main(["export", "--from-file", str(src), "--verilog", "--module", "cla2"]) == 0
    assert capsys.readouterr().out.startswith("module cla2 (")


def test_export_verilog_rejects_a_wire_named_like_a_keyword(tmp_path, capsys):
    src = tmp_path / "w.net"
    src.write_text(to_text(compose("rca:1")).replace("n0", "wire"))
    assert main(["verify", "--from-file", str(src)]) == 0
    capsys.readouterr()
    assert main(["export", "--from-file", str(src), "--verilog"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error: ParseError: wire name 'wire' is not a" in captured.err


def test_export_rejects_corrupt_text(tmp_path, capsys):
    src = tmp_path / "junk.net"
    src.write_text("width 2\ngarbage\n")
    assert main(["export", "--from-file", str(src)]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_export_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    assert main(["export", "--from-file", _random_bytes_file(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: ParseError" in err
